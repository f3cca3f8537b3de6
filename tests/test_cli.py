"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_partition_defaults(self):
        args = build_parser().parse_args(["partition"])
        assert args.dataset == "s3dis"
        assert args.block_size == 256

    def test_simulate_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--accelerator", "TPU"])


class TestCommands:
    def test_partition_command(self, capsys):
        rc = main(["partition", "--dataset", "modelnet40", "--points", "1024",
                   "--block-size", "64", "--strategy", "fractal,uniform"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fractal" in out and "uniform" in out
        assert "1,024 points" in out

    def test_partition_from_npy(self, capsys, tmp_path):
        coords = np.random.default_rng(0).normal(size=(500, 3))
        path = tmp_path / "cloud.npy"
        np.save(path, coords)
        rc = main(["partition", "--input", str(path), "--strategy", "fractal",
                   "--block-size", "64"])
        assert rc == 0
        assert "500 points" in capsys.readouterr().out

    def test_simulate_accelerator(self, capsys):
        rc = main(["simulate", "--workload", "PN++(c)", "--points", "1K",
                   "--accelerator", "FractalCloud"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "FractalCloud" in out
        assert "latency" in out and "mlp" in out

    def test_simulate_gpu(self, capsys):
        rc = main(["simulate", "--workload", "PN++(c)", "--points", "1K",
                   "--accelerator", "GPU"])
        assert rc == 0
        assert "GPU" in capsys.readouterr().out

    def test_compare(self, capsys):
        rc = main(["compare", "--workload", "PNXt(s)", "--scales", "8K,33K"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "speedup over GPU" in out
        assert "FractalCloud" in out

    def test_batch_run(self, capsys):
        rc = main(["batch-run", "--dataset", "modelnet40", "--clouds", "3",
                   "--points", "256", "--partitioner", "kdtree",
                   "--block-size", "32"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "batch-run: 3 clouds on kdtree" in out
        assert "throughput" in out and "clouds/s" in out

    def test_batch_run_serial_mode(self, capsys):
        rc = main(["batch-run", "--dataset", "modelnet40", "--clouds", "2",
                   "--points", "128", "--partitioner", "uniform",
                   "--block-size", "32"])
        assert rc == 0
        assert "uniform" in capsys.readouterr().out

    def test_batch_run_rejects_unknown_partitioner(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["batch-run", "--partitioner", "exact"])

    def test_worker_pool_flags_are_gone(self):
        # The engine is serial; multi-core serving is `serve --shards N`.
        for argv in (["batch-run", "--workers", "2"],
                     ["batch-run", "--mode", "thread"],
                     ["serve", "--workers", "2"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(argv)

    def test_batch_run_prints_latency_summary(self, capsys):
        rc = main(["batch-run", "--dataset", "modelnet40", "--clouds", "3",
                   "--points", "128", "--partitioner", "kdtree",
                   "--block-size", "32"])
        assert rc == 0
        assert "p50/p95/p99" in capsys.readouterr().out

    def test_loadgen_to_file_then_serve(self, capsys, tmp_path):
        path = tmp_path / "traffic.npy"
        rc = main(["loadgen", "--clouds", "10", "--min-points", "40",
                   "--max-points", "120", "--dup-rate", "0.3", "--seed", "3",
                   "--out", str(path)])
        assert rc == 0
        assert path.stat().st_size > 0
        rc = main(["serve", "--input", str(path), "--window", "4",
                   "--max-wait-ms", "40",
                   "--partitioner", "kdtree", "--block-size", "32",
                   "--stats-every", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "served 10 clouds" in out
        assert "p50/p95/p99" in out
        assert "[serve]" in out  # the periodic telemetry line

    def test_serve_builtin_traffic(self, capsys):
        rc = main(["serve", "--clouds", "6", "--min-points", "32",
                   "--max-points", "64", "--window", "3",
                   "--partitioner", "kdtree", "--block-size", "32"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "served 6 clouds" in out
        assert "windows" in out and "points/s" in out

    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.window == 16
        assert args.max_wait_ms == 50.0
        assert args.input is None

    def test_loadgen_rejects_bad_spec(self):
        with pytest.raises(ValueError, match="min_points"):
            main(["loadgen", "--clouds", "2", "--min-points", "50",
                  "--max-points", "20", "--out", "-"])

    def test_serve_rejects_negative_in_flight(self):
        # 0 means "engine default"; negatives must fail loudly, not
        # silently fall back.
        with pytest.raises(ValueError, match="in_flight"):
            main(["serve", "--clouds", "2", "--in-flight", "-4"])

    def test_inference_loadgen_served_through_model(self, capsys, tmp_path):
        path = tmp_path / "inference.npy"
        rc = main(["loadgen", "--profile", "inference", "--clouds", "8",
                   "--min-points", "48", "--max-points", "120",
                   "--corrupt-rate", "0.5", "--seed", "4",
                   "--out", str(path)])
        assert rc == 0
        rc = main(["serve", "--input", str(path), "--model", "pointnet2-cls",
                   "--agg", "delayed", "--window", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "model pointnet2-cls [delayed]" in out
        assert "served 8 clouds" in out

    def test_serve_model_tenant_round_robin(self, capsys, tmp_path):
        path = tmp_path / "tenants.npy"
        rc = main(["loadgen", "--profile", "inference", "--clouds", "3",
                   "--tenants", "2", "--min-points", "48",
                   "--max-points", "96", "--seed", "6", "--out", str(path)])
        assert rc == 0
        rc = main(["serve", "--input", str(path), "--tenants", "2",
                   "--model", "pointnet2-cls,pointnet2-seg",
                   "--window", "4"])
        assert rc == 0
        assert "served 6 clouds" in capsys.readouterr().out

    def test_serve_model_errors(self, capsys):
        assert main(["serve", "--model", "bogus"]) == 2
        assert "unknown model" in capsys.readouterr().err
        # A comma list without --tenants has no tenant roster to spread
        # over; fail before consuming any stream.
        assert main(["serve", "--model",
                     "pointnet2-cls,pointnet2-seg"]) == 2
        assert "--tenants" in capsys.readouterr().err
