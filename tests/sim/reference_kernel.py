"""Wheel-only reference wakeup: ``Kernel.resume`` without the ready slot.

``Kernel.resume`` stores the first wakeup at a fresh instant in a
one-entry ready slot instead of a new wheel bucket (``repro.sim.kernel``
module docstring).  ``wheel_resume`` is ``resume()`` as it was before
the slot: every wakeup a bare ``(thread, value)`` pair appended to the
bucket at ``now``, a new bucket and a heap push when there is none.  It
never fills the slot, so with it patched over ``Kernel.resume`` the
kernel dispatches exactly as it did without one, and tests can require
the production kernel to reproduce that dispatch with ``==``.
"""

from heapq import heappush


def wheel_resume(kernel, thread, value=None):
    when = kernel.now
    kernel._num_events += 1
    bucket = kernel._wheel.get(when)
    if bucket is None:
        kernel._wheel[when] = [(thread, value)]
        heappush(kernel._times, when)
    else:
        bucket.append((thread, value))
