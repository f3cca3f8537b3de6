"""Tests for the serve loops' shared front end, :class:`repro.serve.inbox.Inbox`.

Its wake pipe is read by the shard router only; the windowed servers
never read it, so the puller must never block on a full pipe.
"""

import select
import threading

from repro.serve.inbox import Inbox


def readable(fd: int, timeout: float) -> bool:
    return bool(select.select([fd], [], [], timeout)[0])


def test_unread_wake_pipe_never_blocks_the_puller():
    # More arrivals than a 64 KiB pipe holds wake bytes.
    count = 70_001
    taken = []
    with Inbox(range(count), capacity=1024, name="repro-test-pull") as inbox:
        while inbox.take(lambda entry, _: taken.append(entry), 5.0):
            pass
        assert inbox.exhausted and inbox.error is None
    assert taken == list(range(count))


def test_wake_fd_signals_arrivals_and_take_polls():
    release = threading.Event()

    def source():
        release.wait(5.0)
        yield "cloud"

    admitted = []
    with Inbox(source(), capacity=4, name="repro-test-pull") as inbox:
        assert not readable(inbox.fileno(), 0)
        assert inbox.take(lambda entry, _: admitted.append(entry), 0) is False
        assert admitted == [] and not inbox.exhausted
        release.set()
        assert readable(inbox.fileno(), 0.05)
        inbox.drain_wakeups()
        assert inbox.take(lambda entry, _: admitted.append(entry), 0)
        assert admitted == ["cloud"]
        # The end marker wakes the reader too, then reads as exhausted.
        assert readable(inbox.fileno(), 0.05)
        assert inbox.take(lambda entry, _: admitted.append(entry), 1.0) is False
        assert inbox.exhausted


def test_source_error_is_kept_for_the_consumer():
    def source():
        yield 1
        raise KeyError("bad record")

    with Inbox(source(), capacity=4, name="repro-test-pull") as inbox:
        assert inbox.take(lambda *_: None, 1.0)
        assert inbox.take(lambda *_: None, 1.0) is False
        assert isinstance(inbox.error, KeyError)
