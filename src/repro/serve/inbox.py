"""The serve loops' shared front end: puller thread, bounded inbox, and
the one window close rule.

All three servers (:class:`~repro.serve.window.WindowedServer`,
:class:`~repro.serve.tenancy.MultiTenantServer` and
:class:`~repro.shard.router.ShardRouter`) pull their source on a side
thread into a bounded queue.  :class:`Inbox` owns that thread and queue.
The puller also writes one byte to a self-pipe after every delivery, so
an event loop can wait on :meth:`Inbox.fileno` beside other file
descriptors: the router waits on it together with its shard pipes.  The
windowed servers never read the pipe; its write end is non-blocking and
a full pipe is ignored, so unread wake bytes never stall the puller.

:meth:`Inbox.gather` assembles one window and says why it closed:

- ``full``    — ``max_clouds`` arrivals are in hand;
- ``timeout`` — ``max_wait`` passed since the window opened (the hard
  cap: a trickle whose gaps always land inside the grace ends here);
- ``idle``    — the source went quiet: the inbox was empty and stayed
  empty for :data:`IDLE_GRACE` (or the source ended).  An idle engine
  never sits out ``max_wait`` for company that is not coming.
"""

from __future__ import annotations

import os
import queue
import threading
from collections.abc import Callable, Iterable

from .. import obs

__all__ = ["FULL", "IDLE", "IDLE_GRACE", "TIMEOUT", "Inbox"]

#: Window close reasons, as :meth:`Inbox.gather` returns them.
FULL, TIMEOUT, IDLE = "full", "timeout", "idle"

#: How long an empty inbox may stay empty before the window closes idle.
#: A *gap* between deliveries, not a deadline: it only has to outlast one
#: puller hand-off (decode the next record — 0.2 ms for a 12K-point
#: scene — plus the queue wake-up), so that a source with more to give
#: is never mistaken for a quiet one.  Measured on the benchmark's
#: firehose passes (seed 1): at 0.3, 0.5 and 1 ms the window counts equal
#: the pure ``max_wait`` rule's (``roi_window`` 138 at 0.996 occupancy,
#: ``infer_tenants`` 68, ``scene_large`` 5); at 0 every pass opens with a
#: one-cloud window (139 / 69 / 6).  One constant for both servers,
#: deliberately not a knob.
IDLE_GRACE = 0.0005

#: Queue marker from the puller thread: source exhausted (or raised).
_DONE = object()


class Inbox:
    """Bounded pull-ahead over ``source`` plus window assembly.

    A daemon thread drains ``source`` into a queue of ``capacity``
    entries, stamping each arrival with ``clock()``; a slow consumer
    stalls the pull, never memory.  After each delivery (the end marker
    included) the puller writes a wake byte to :meth:`fileno`'s pipe.
    Use as a context manager: leaving it stops and joins the puller and
    closes the pipe.
    """

    def __init__(
        self,
        source: Iterable[object],
        *,
        capacity: int,
        name: str,
        clock: Callable[[], float] = obs.now,
    ):
        self._queue: queue.Queue = queue.Queue(maxsize=max(1, capacity))
        self._stop = threading.Event()
        self._exhausted = False
        self._error: BaseException | None = None
        # Self-pipe, both ends non-blocking.  The puller owns the write
        # end and closes it on exit, so it never writes to a closed (or
        # reused) descriptor number.
        self._wake_r, self._wake_w = os.pipe()
        os.set_blocking(self._wake_r, False)
        os.set_blocking(self._wake_w, False)
        self._puller = threading.Thread(
            target=self._pull, args=(source, clock), name=name, daemon=True
        )
        self._puller.start()

    def _put(self, item) -> None:
        while not self._stop.is_set():
            try:
                self._queue.put(item, timeout=0.05)
            except queue.Full:
                continue
            try:
                os.write(self._wake_w, b"\0")
            except OSError:  # pipe full (nobody reads it) or reader gone
                pass
            return

    def _pull(self, source, clock) -> None:
        try:
            for entry in source:
                self._put((entry, clock()))
                if self._stop.is_set():
                    return
        except BaseException as exc:  # re-raised on the consumer side
            self._put((_DONE, exc))
        else:
            self._put((_DONE, None))
        finally:
            os.close(self._wake_w)

    @property
    def depth(self) -> int:
        """Arrivals queued behind the window in hand."""
        return self._queue.qsize()

    @property
    def exhausted(self) -> bool:
        """The end marker has been taken: the source is done."""
        return self._exhausted

    @property
    def error(self) -> BaseException | None:
        """What the source raised, once :attr:`exhausted` (else ``None``)."""
        return self._error

    def fileno(self) -> int:
        """Read end of the wake pipe: readable once an arrival (or the
        end of the source) is queued.  Wake bytes accumulate until
        :meth:`drain_wakeups`; an arrival may also already be taken when
        its byte is seen, so treat readiness as a hint and :meth:`take`
        with ``timeout=0``."""
        return self._wake_r

    def drain_wakeups(self) -> None:
        """Discard the wake bytes written so far."""
        try:
            while os.read(self._wake_r, 4096):
                pass
        except BlockingIOError:
            pass

    def take(self, admit, timeout: float | None) -> bool:
        """Admit the next arrival; ``False`` when none came in time or
        the source ended.  ``timeout=0`` polls, ``None`` blocks."""
        try:
            entry, stamp = self._queue.get(timeout != 0, timeout)
        except queue.Empty:
            return False
        if entry is _DONE:  # the puller's (_DONE, exception or None)
            self._exhausted, self._error = True, stamp
            return False
        admit(entry, stamp)
        return True

    def gather(
        self,
        admit: Callable[[object, float], None],
        max_clouds: int,
        max_wait: float,
        backlog: int = 0,
    ) -> str | None:
        """Assemble one window of at most ``max_clouds`` clouds, open at
        most ``max_wait`` seconds; returns why it closed.

        ``admit(entry, arrived)`` takes each arrival.  The window opens
        at the first one (blocking for it unless ``backlog`` clouds are
        already held over from the last window).

        Returns ``None`` — after re-raising the source's exception, if
        it had one — once the source has ended and nothing is held.
        """
        held = backlog
        if not held:
            if self._exhausted or not self.take(admit, None):
                if self._error is not None:
                    raise self._error
                return None
            held = 1
        deadline = obs.now() + max_wait
        while held < max_clouds:
            if self._exhausted:
                return IDLE
            remaining = deadline - obs.now()
            if remaining <= 0:
                return TIMEOUT
            if not self.take(admit, min(remaining, IDLE_GRACE)):
                quiet = self._exhausted or IDLE_GRACE < remaining
                return IDLE if quiet else TIMEOUT
            held += 1
        return FULL

    def close(self) -> None:
        """Stop the puller and close the wake pipe's read end.  Bounded:
        ``_put`` polls the stop event every 50 ms, so the thread exits
        promptly (closing the write end) unless the *source* iterator
        itself is blocked — then the timeout abandons the daemon thread
        rather than hanging shutdown, and the write end closes whenever
        the source lets the thread finish."""
        self._stop.set()
        self._puller.join(timeout=1.0)
        if self._wake_r >= 0:
            os.close(self._wake_r)
            self._wake_r = -1

    def __enter__(self) -> "Inbox":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
