"""Tests for analysis helpers (tables, sweeps) and the project linter.

The lint tests follow one shape per rule: a positive fixture (must be
flagged), a negative fixture (must stay silent), and a suppression
fixture (flagged line silenced by ``# repro: ignore[RULE]``).  Fixture
paths are fake but *shaped* — ``src/repro/serve/mod.py`` puts a snippet
inside the parity-tested package, ``examples/demo.py`` outside it — so
module-scoped rules see exactly what they would on a real tree.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis import format_si, format_table, geomean, ratio, threshold_sweep
from repro.analysis.lint import RULES, Rule, lint_source, register
from repro.analysis.lint import main as lint_main
from repro.analysis.lint.engine import module_name_for
from repro.networks import get_workload

REPO = Path(__file__).resolve().parents[1]

#: A fake path inside the parity-tested serve package.
SERVE = "src/repro/serve/mod.py"
#: A fake path inside the shard package (REP007's scope).
SHARD = "src/repro/shard/mod.py"
#: A fake path outside the repro package entirely.
SCRIPT = "examples/demo.py"


def lint(src: str, path: str = SERVE, select=None):
    return lint_source(textwrap.dedent(src), path, select=select)


def rules_of(findings) -> set[str]:
    return {f.rule for f in findings}


class TestReport:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 22], [333, 4]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_geomean(self):
        assert geomean([1, 100]) == pytest.approx(10.0)
        assert geomean([7]) == pytest.approx(7.0)

    def test_geomean_validates(self):
        with pytest.raises(ValueError, match="empty"):
            geomean([])
        with pytest.raises(ValueError, match="positive"):
            geomean([1.0, 0.0])

    def test_ratio(self):
        assert ratio(10, 4) == pytest.approx(2.5)
        with pytest.raises(ZeroDivisionError):
            ratio(1, 0)

    def test_format_si(self):
        assert format_si(1024) == "1.02K"
        assert format_si(2_000_000) == "2M"
        assert format_si(12) == "12"


class TestThresholdSweep:
    def test_sweep_shape_and_tradeoff(self):
        """Fig. 17's qualitative trade-off: small thresholds are faster
        but distort sampling; no-fractal is the slow/lossless anchor."""
        spec = get_workload("PNXt(s)")
        points = threshold_sweep(spec, 8192, [None, 512, 64, 8])
        assert points[0].threshold is None
        assert points[0].speedup_vs_no_fractal == pytest.approx(1.0)
        by_th = {p.threshold: p for p in points}
        # Speedup: every fractal point beats no-fractal; smaller th faster.
        assert by_th[64].speedup_vs_no_fractal > 1.0
        assert by_th[8].speedup_vs_no_fractal >= by_th[512].speedup_vs_no_fractal
        # Quality: coverage distortion grows as blocks shrink.
        assert by_th[8].coverage_ratio >= by_th[512].coverage_ratio
        assert by_th[512].coverage_ratio >= 0.99


class TestLintEngine:
    def test_module_name_anchors_at_repro(self):
        assert module_name_for("src/repro/serve/window.py") == "repro.serve.window"
        assert module_name_for("src/repro/core/__init__.py") == "repro.core"
        assert module_name_for("examples/quickstart.py") == "quickstart"

    def test_syntax_error_is_rep000(self):
        findings = lint("def broken(:\n    pass\n")
        assert [f.rule for f in findings] == ["REP000"]

    def test_suppression_is_per_line_and_per_rule(self):
        flagged = lint("block_fps(s, c, 64)\n")
        assert rules_of(flagged) == {"REP001"}
        assert lint("block_fps(s, c, 64)  # repro: ignore[REP001]\n") == []
        # Suppressing a *different* rule on the line silences nothing.
        still = lint("block_fps(s, c, 64)  # repro: ignore[REP005]\n")
        assert rules_of(still) == {"REP001"}

    def test_suppression_comma_list(self):
        src = (
            "t = Thread(target=block_fps(s, c, 4))"
            "  # repro: ignore[REP001, REP004]\n"
        )
        assert lint(src) == []

    def test_unknown_select_rejected(self):
        with pytest.raises(ValueError, match="unknown rule"):
            lint("x = 1\n", select=["REP999"])

    def test_registry_rejects_duplicate_ids(self):
        with pytest.raises(ValueError, match="already registered"):
            register(Rule("REP001", "imposter", "dup", lambda ctx: ()))

    def test_registry_accepts_downstream_rules(self):
        def no_todo(ctx):
            for i, line in enumerate(ctx.lines, start=1):
                if "TODO" in line:
                    yield (i, line.index("TODO"), "unresolved TODO")

        register(Rule("TST900", "no-todo", "test-only rule", no_todo))
        try:
            findings = lint("x = 1  # TODO later\n", select=["TST900"])
            assert [f.rule for f in findings] == ["TST900"]
        finally:
            del RULES["TST900"]

    def test_finding_format_is_path_line_col(self):
        finding = lint("block_fps(s, c, 64)\n")[0]
        assert finding.format() == (
            f"{SERVE}:1:0: REP001 " + finding.message
        )


class TestKernelRules:
    def test_rep001_flags_direct_kernel_calls(self):
        for call in ("block_fps(s, c, 4)",
                     "bppo.block_ball_query(s, c, i, 0.2, 16)",
                     "ragged.ragged_fps(s, c, 64)"):
            assert rules_of(lint(f"{call}\n")) == {"REP001"}, call

    def test_rep001_allows_dispatch_and_kernel_homes(self):
        assert lint("dispatch.run_op('fps', s, c, 4)\n") == []
        # The dispatcher and the kernel-definition modules may call
        # implementations directly — that is where they live.
        inside = "block_fps(s, c, 4)\n"
        for home in ("src/repro/core/dispatch.py", "src/repro/core/ragged.py",
                     "src/repro/core/bppo.py"):
            assert lint(inside, path=home) == [], home

    def test_rep001_applies_outside_the_package_too(self):
        # Examples and benchmarks hold the same contract (or suppress).
        assert rules_of(lint("block_fps(s, c, 4)\n", path=SCRIPT)) == {"REP001"}

    def test_rep002_flags_env_reads_outside_dispatch(self):
        for src in ('os.environ.get("REPRO_KERNEL")\n',
                    'os.getenv("REPRO_BUILD_KERNEL", "auto")\n',
                    'os.environ["REPRO_KERNEL"]\n',
                    "os.environ.get(KERNEL_ENV)\n"):
            assert rules_of(lint(src)) == {"REP002"}, src

    def test_rep002_allows_dispatch_and_foreign_keys(self):
        assert lint('os.environ.get("REPRO_KERNEL")\n',
                    path="src/repro/core/dispatch.py") == []
        assert lint('os.environ.get("PATH")\n') == []
        assert lint('os.environ["HOME"]\n') == []


class TestResourceRules:
    def test_rep003_flags_shm_outside_transport(self):
        src = "seg = SharedMemory(create=True, size=64)\n"
        assert "REP003" in rules_of(lint(src))
        assert lint(src, path="src/repro/shard/transport.py",
                    select=["REP003"]) == []

    def test_rep004_flags_discarded_and_unjoined(self):
        # Constructed and dropped on the floor.
        assert rules_of(lint("Thread(target=f)\n")) == {"REP004"}
        # Chained .start() with no binding: can never be joined.
        assert rules_of(lint("Thread(target=f).start()\n")) == {"REP004"}
        # Bound, started, never joined, never escapes.
        src = """
            def spawn(f):
                t = Thread(target=f)
                t.start()
        """
        assert rules_of(lint(src)) == {"REP004"}

    def test_rep004_accepts_release_with_and_escape(self):
        for src in (
            # Explicit cleanup call.
            "t = Thread(target=f)\nt.start()\nt.join()\n",
            # Context manager.
            "with ThreadPoolExecutor(2) as pool:\n    pool.submit(f)\n",
            # Ownership transferred: returned to the caller...
            "def make():\n    return BatchExecutor('fractal')\n",
            # ...passed to another call...
            "def make():\n    e = BatchExecutor('fractal')\n    serve(e)\n",
            # ...or immediate argument of one.
            "serve(BatchExecutor('fractal'))\n",
        ):
            assert lint(textwrap.dedent(src)) == [], src

    def test_rep004_tracks_self_attributes_class_wide(self):
        leaky = """
            class Leaky:
                def __init__(self):
                    self._pool = ThreadPoolExecutor(2)
        """
        assert rules_of(lint(leaky)) == {"REP004"}
        # The executor.close() idiom: alias out under a lock, shut down
        # outside it — the aliasing assignment counts as a hand-off.
        closed = """
            class Engine:
                def __init__(self):
                    self._pool = ThreadPoolExecutor(2)

                def close(self):
                    pool, self._pool = self._pool, None
                    if pool is not None:
                        pool.shutdown(wait=True)
        """
        assert lint(closed) == []


class TestDeterminismRules:
    def test_rep005_flags_global_rng_everywhere(self):
        src = "x = np.random.rand(3)\n"
        assert rules_of(lint(src)) == {"REP005"}
        assert rules_of(lint(src, path=SCRIPT)) == {"REP005"}

    def test_rep005_allows_seeded_generators(self):
        assert lint("rng = np.random.default_rng(0)\nx = rng.normal()\n") == []

    def test_rep005_wall_clock_only_in_parity_modules(self):
        src = "t = time.time()\n"
        assert rules_of(lint(src)) == {"REP005"}
        assert lint(src, path=SCRIPT) == []
        # Monotonic clocks pass REP005 (determinism) — policing their
        # *placement* is REP008's job.
        assert lint("t = time.perf_counter()\n", select=["REP005"]) == []

    def test_rep005_set_iteration(self):
        src = """
            def drain(digests):
                out = []
                for d in set(digests):
                    out.append(d)
                return out
        """
        assert rules_of(lint(src)) == {"REP005"}
        sorted_src = src.replace("set(digests)", "sorted(set(digests))")
        assert lint(sorted_src) == []
        comp = "names = [str(d) for d in {1, 2, 3}]\n"
        assert rules_of(lint(comp)) == {"REP005"}


class TestConcurrencyRules:
    def test_rep006_blocking_send_under_lock(self):
        src = """
            def push(self, msg):
                with self._lock:
                    self.conn.send(msg)
        """
        findings = lint(src, select=["REP006"])
        assert [f.rule for f in findings] == ["REP006"]
        # Move the transfer outside the critical section: clean.
        fixed = """
            def push(self, msg):
                with self._lock:
                    seq = self._next()
                self.conn.send(msg)
        """
        assert lint(fixed, select=["REP006"]) == []

    def test_rep006_plain_dict_get_is_not_blocking(self):
        src = """
            def lookup(self, key):
                with self._cache_lock:
                    return self._table.get(key)
        """
        assert lint(src, select=["REP006"]) == []

    def test_rep006_skips_nested_defs(self):
        # A function *defined* under a lock does not run under it.
        src = """
            def start(self):
                with self._lock:
                    def sender():
                        self.conn.send(None)
                    self._sender = sender
        """
        assert lint(src, select=["REP006"]) == []

    def test_rep006_lock_order_cycle(self):
        src = """
            def a(x_lock, y_lock):
                with x_lock:
                    with y_lock:
                        pass

            def b(x_lock, y_lock):
                with y_lock:
                    with x_lock:
                        pass
        """
        findings = lint(src, select=["REP006"])
        assert any("inconsistent lock order" in f.message for f in findings)
        one_order = """
            def a(x_lock, y_lock):
                with x_lock:
                    with y_lock:
                        pass

            def b(x_lock, y_lock):
                with x_lock:
                    with y_lock:
                        pass
        """
        assert lint(one_order, select=["REP006"]) == []

    def test_rep006_reacquisition(self):
        src = """
            def f(self):
                with self._lock:
                    with self._lock:
                        pass
        """
        findings = lint(src, select=["REP006"])
        assert any("re-acquired" in f.message for f in findings)

    def test_rep007_unknown_message_kinds(self):
        assert rules_of(
            lint('conn.send(("gossip", 1))\n', path=SHARD, select=["REP007"])
        ) == {"REP007"}
        assert rules_of(
            lint("conn.send(payload)\n", path=SHARD, select=["REP007"])
        ) == {"REP007"}

    def test_rep007_allowlist_sentinel_and_relay(self):
        for src in (
            'conn.send(("run", 0, ref))\n',
            'outbox.put(("results", 1, []))\n',
            "conn.send(None)\n",  # sender-shutdown sentinel
            # Forwarding loop: the payload came off a validated queue.
            "def pump(outbox, conn):\n"
            "    while True:\n"
            "        msg = outbox.get()\n"
            "        if msg is None:\n"
            "            break\n"
            "        conn.send(msg)\n",
        ):
            assert lint(src, path=SHARD, select=["REP007"]) == [], src

    def test_rep007_scoped_to_shard_package(self):
        assert lint('conn.send(("gossip", 1))\n', path=SERVE,
                    select=["REP007"]) == []

    def test_rep008_flags_raw_monotonic_clocks(self):
        for src in (
            "import time\nt0 = time.perf_counter()\n",
            "import time\nt0 = time.monotonic()\n",
            "import time\nt0 = time.perf_counter_ns()\n",
            "import time\nclock = time.monotonic\n",  # bare ref, no call
            "from time import perf_counter\n",
        ):
            assert rules_of(lint(src, select=["REP008"])) == {"REP008"}, src

    def test_rep008_exempts_obs_sleep_and_scripts(self):
        # repro.obs is the one sanctioned clock reader.
        assert lint("import time\nnow = time.perf_counter\n",
                    path="src/repro/obs/trace.py", select=["REP008"]) == []
        # sleep / wall-clock reads are not interval clocks.
        assert lint("import time\ntime.sleep(0.1)\nt = time.time()\n",
                    select=["REP008"]) == []
        # Benchmarks, examples, and tests time things however they like.
        assert lint("import time\nt0 = time.perf_counter()\n",
                    path="benchmarks/bench_x.py", select=["REP008"]) == []
        assert lint("import time\nt0 = time.perf_counter()\n",
                    path=SCRIPT, select=["REP008"]) == []

    def test_rep008_suppression(self):
        src = "t0 = time.perf_counter()  # repro: ignore[REP008]\n"
        assert lint(src, select=["REP008"]) == []


#: Seeded corpus: two files that together violate every rule — the
#: acceptance fixture proving the linter reports >= 6 distinct ids.
_CORPUS = {
    "src/repro/serve/bad_serve.py": """
        import os
        import threading
        import time

        import numpy as np

        def sample(structure, coords, conn):
            start = time.perf_counter()
            idx, _ = block_fps(structure, coords, 64)
            kernel = os.environ.get("REPRO_KERNEL", "auto")
            seg = SharedMemory(create=True, size=64)
            threading.Thread(target=print).start()
            noise = np.random.rand(3)
            return idx, kernel, seg, noise, start
    """,
    "src/repro/shard/bad_shard.py": """
        def pump(conn, work_lock, items):
            with work_lock:
                conn.send(("gossip", items))
    """,
}


class TestLintCli:
    def _write_corpus(self, root: Path) -> list[str]:
        paths = []
        for rel, src in _CORPUS.items():
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(textwrap.dedent(src), encoding="utf-8")
            paths.append(str(path))
        return paths

    def test_corpus_reports_at_least_six_distinct_rules(self, tmp_path):
        findings = []
        for rel, src in _CORPUS.items():
            findings += lint_source(textwrap.dedent(src), rel)
        assert len(rules_of(findings)) >= 6
        assert rules_of(findings) == {
            "REP001", "REP002", "REP003", "REP004", "REP005", "REP006",
            "REP007", "REP008",
        }

    def test_main_fails_on_injected_violations(self, tmp_path, capsys):
        """The CI lint leg's failure mode: REP001/REP004 injected into an
        otherwise-clean tree must flip the exit code to 1."""
        bad = tmp_path / "src" / "repro" / "serve" / "injected.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(
            "def handle(structure, coords):\n"
            "    t = Thread(target=print)\n"
            "    t.start()\n"
            "    return block_fps(structure, coords, 16)\n",
            encoding="utf-8",
        )
        assert lint_main([str(bad)]) == 1
        out = capsys.readouterr().out
        assert "REP001" in out and "REP004" in out

    def test_main_statistics_and_exit_codes(self, tmp_path, capsys):
        paths = self._write_corpus(tmp_path)
        assert lint_main(paths + ["--statistics"]) == 1
        out = capsys.readouterr().out
        assert "REP006" in out and "violation(s)" in out

        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n", encoding="utf-8")
        assert lint_main([str(clean)]) == 0
        assert lint_main([str(tmp_path / "missing.txt")]) == 2
        assert lint_main([str(clean), "--select", "REP999"]) == 2

    def test_main_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("REP001", "REP004", "REP007"):
            assert rule_id in out

    def test_repo_tree_is_clean(self):
        """`repro lint src examples benchmarks` exits 0 on this tree —
        the same invariant the CI lint leg gates on."""
        argv = [str(REPO / d) for d in ("src", "examples", "benchmarks")]
        assert lint_main(argv) == 0

    def test_cli_subcommand_wiring(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("Thread(target=print)\n", encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "lint", str(bad)],
            capture_output=True, text=True, env=env, cwd=str(tmp_path),
        )
        assert proc.returncode == 1
        assert "REP004" in proc.stdout


class TestSanitizer:
    def test_thread_and_shm_accounting(self):
        import threading
        from multiprocessing.shared_memory import SharedMemory

        from repro.analysis import sanitize

        thread_base = set(threading.enumerate())
        shm_base = sanitize.shm_segments()
        assert sanitize.extra_threads(thread_base) == []

        stop = threading.Event()
        t = threading.Thread(target=stop.wait, name="acct-probe", daemon=True)
        t.start()
        seg = SharedMemory(create=True, size=64)
        try:
            assert "acct-probe" in sanitize.extra_threads(thread_base)
            assert any(
                seg.name.lstrip("/") in name
                for name in sanitize.extra_shm_segments(shm_base)
            )
        finally:
            stop.set()
            t.join()
            seg.close()
            seg.unlink()
        assert sanitize.extra_threads(thread_base) == []
        assert sanitize.extra_shm_segments(shm_base) == []

    def test_plugin_fails_leaking_test_only(self, tmp_path):
        """End-to-end: under `-p repro.analysis.sanitize` a thread-leaking
        test fails with the sanitizer message, a clean test passes, and
        @pytest.mark.no_sanitize opts a deliberate leak out."""
        (tmp_path / "test_leak_demo.py").write_text(textwrap.dedent("""
            import threading
            import time

            import pytest

            def test_leaks_a_thread():
                threading.Thread(target=time.sleep, args=(30,),
                                 name="deliberate-leak", daemon=True).start()

            def test_clean():
                stop = threading.Event()
                t = threading.Thread(target=stop.wait, daemon=True)
                t.start()
                stop.set()
                t.join()

            @pytest.mark.no_sanitize
            def test_opted_out_leak():
                threading.Thread(target=time.sleep, args=(30,),
                                 daemon=True).start()
        """), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p",
             "repro.analysis.sanitize", "-p", "no:cacheprovider",
             "test_leak_demo.py"],
            capture_output=True, text=True, env=env, cwd=str(tmp_path),
        )
        out = proc.stdout + proc.stderr
        assert proc.returncode == 1, out
        # The leak is reported at teardown, so pytest counts it as an
        # ERROR on that test — the run still exits non-zero, which is
        # what the CI leg gates on.
        assert "3 passed, 1 error" in out, out
        assert "ERROR test_leak_demo.py::test_leaks_a_thread" in out, out
        assert "resource sanitizer" in out and "deliberate-leak" in out
