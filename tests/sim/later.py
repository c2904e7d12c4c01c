"""Test scaffolding: run a plain callable at ``kernel.now + delay``.

The kernel's wheel holds only ``(target, value)`` entries that fire as
``target.step(value)``.  ``call_later`` wraps a callable in such a
target and wakes it directly, without spawning a thread, so the thread
ids and the dispatch of the system under test are untouched.
"""


class Call:
    """A wheel target that calls ``fn(*args)`` when it fires."""

    __slots__ = ("fn", "args")

    def __init__(self, fn, args):
        self.fn = fn
        self.args = args

    def step(self, value=None):
        self.fn(*self.args)


def call_later(kernel, delay, fn, *args):
    """Wake ``fn(*args)`` at ``kernel.now + delay``.

    Returns ``(when, target)``, the arguments ``kernel.unwake`` takes
    to withdraw it.
    """
    target = Call(fn, args)
    when = kernel.now + delay
    kernel.wake_at(when, target)
    return when, target
