"""Tests for SimThread internals: frames, CurrentThread, error handling."""

import pytest

from repro.sim import CurrentThread, Delay, Kernel
from repro.sim.process import frame


def test_current_thread_returns_own_thread():
    kernel = Kernel()
    seen = []

    def worker():
        thread = yield CurrentThread()
        seen.append(thread)

    spawned = kernel.spawn(worker(), name="me")
    kernel.run()
    assert seen == [spawned]


def test_push_pop_frame_tracks_call_path():
    kernel = Kernel()
    paths = []

    def worker():
        thread = yield CurrentThread()
        with frame(thread, "a"):
            with frame(thread, "b"):
                paths.append(thread.call_path())
            paths.append(thread.call_path())
        paths.append(thread.call_path())

    kernel.spawn(worker())
    kernel.run()
    assert paths == [("a", "b"), ("a",), ()]


def test_frame_context_manager_survives_yields():
    kernel = Kernel()
    paths = []

    def worker():
        thread = yield CurrentThread()
        with frame(thread, "outer"):
            yield Delay(1.0)
            with frame(thread, "inner"):
                paths.append(thread.call_path())
                yield Delay(1.0)
            paths.append(thread.call_path())
        paths.append(thread.call_path())

    kernel.spawn(worker())
    kernel.run()
    assert paths == [("outer", "inner"), ("outer",), ()]


def test_frame_exits_cleanly_on_exception():
    kernel = Kernel()

    def worker():
        thread = yield CurrentThread()
        with frame(thread, "f"):
            raise ValueError("inside frame")

    kernel.spawn(worker())
    with pytest.raises(ValueError):
        kernel.run()


def test_thread_failure_records_exception():
    kernel = Kernel()

    def worker():
        yield Delay(0.1)
        raise KeyError("dead")

    thread = kernel.spawn(worker())
    with pytest.raises(KeyError):
        kernel.run()
    assert not thread.alive
    assert isinstance(thread.failure, KeyError)


def test_throw_in_delivers_exception_to_yield_point():
    kernel = Kernel()
    caught = []

    def worker():
        try:
            yield Delay(100.0)
        except TimeoutError:
            caught.append("timeout")

    thread = kernel.spawn(worker())
    kernel.schedule(1.0, kernel.throw_in, thread, TimeoutError())
    kernel.run()
    assert caught == ["timeout"]
    assert not thread.alive


def test_throw_in_unhandled_marks_failure():
    kernel = Kernel()

    def worker():
        yield Delay(100.0)

    thread = kernel.spawn(worker())
    kernel.schedule(1.0, kernel.throw_in, thread, TimeoutError("t"))
    kernel.run()
    assert not thread.alive
    assert isinstance(thread.failure, TimeoutError)


def test_step_on_dead_thread_is_noop():
    kernel = Kernel()

    def worker():
        return None
        yield  # pragma: no cover

    thread = kernel.spawn(worker())
    kernel.run()
    thread.step(None)  # no crash
    thread.throw(ValueError())  # no crash
