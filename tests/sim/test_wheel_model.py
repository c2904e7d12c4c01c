"""The timer wheel against a sorted-list model.

Every wheel entry fires in ``(when, insertion)`` order, and a withdrawn
entry never fires, whether it is still in its bucket or already in the
batch being dispatched.  The model keeps the pending entries in a dict
and always fires the least ``(when, id)``; the kernel runs the same
program through ``wake_at``/``unwake``/``stop``/raising handlers and
``run(until=...)`` segments, and both must report the same firings,
outcomes, clock and ``pending_events()`` after every segment.
"""

from hypothesis import given, settings, strategies as st

from repro.sim import Kernel

# Offsets are multiples of 0.5, so every timestamp is exact and many
# entries share one: batches, in-flight withdrawals and requeues.
OFFSETS = (0.0, 0.5, 1.0)

# What an entry does when it fires ("withdraw", k: the k-th pending
# entry in firing order, often one of its own batch).
actions = st.sampled_from(
    [("nothing",), ("stop",), ("raise",)]
    + [("wake", offset) for offset in OFFSETS]
    + [("withdraw", k) for k in range(3)]
)
# Outside run(): wake a few entries at one instant, or withdraw one.
outside_ops = st.one_of(
    st.tuples(
        st.just("wake"), st.sampled_from(OFFSETS), st.integers(min_value=1, max_value=4)
    ),
    st.tuples(st.just("withdraw"), st.integers(min_value=0, max_value=3)),
)
segments = st.lists(
    st.tuples(
        st.lists(outside_ops, max_size=6),
        st.one_of(st.none(), st.sampled_from(OFFSETS)),
    ),
    min_size=1,
    max_size=5,
)


class Boom(Exception):
    pass


def choose(pending, k):
    """The ``k``-th pending entry (mod their number) in firing order."""
    order = sorted(pending, key=lambda ident: (pending[ident], ident))
    return order[k % len(order)]


class Probe:
    __slots__ = ("world", "ident")

    def __init__(self, world, ident):
        self.world = world
        self.ident = ident

    def step(self, value=None):
        self.world.fire(self.ident)


class KernelWorld:
    """The program on a real kernel."""

    def __init__(self, actions):
        self.kernel = Kernel()
        self.actions = actions
        self.pending = {}  # ident -> when
        self.probes = {}
        self.log = []

    def wake(self, offset):
        ident = len(self.probes)
        probe = self.probes[ident] = Probe(self, ident)
        when = self.pending[ident] = self.kernel.now + offset
        self.kernel.wake_at(when, probe)

    def withdraw(self, k):
        if self.pending:
            ident = choose(self.pending, k)
            self.kernel.unwake(self.pending.pop(ident), self.probes[ident])

    def fire(self, ident):
        # A withdrawn entry that fires is a KeyError here.
        del self.pending[ident]
        self.log.append(("fire", ident, self.kernel.now))
        act(self, self.actions, ident)

    def run(self, offset):
        kernel = self.kernel
        try:
            kernel.run(until=None if offset is None else kernel.now + offset)
        except Boom:
            outcome = "raised"
        else:
            outcome = "returned"
        self.log.append((outcome, kernel.now, kernel.pending_events()))

    def stop(self):
        self.kernel.stop()


class ModelWorld:
    """The program on a dict of pending entries, fired least-first."""

    def __init__(self, actions):
        self.now = 0.0
        self.actions = actions
        self.pending = {}
        self.created = 0
        self.log = []
        self.stopped = False

    def wake(self, offset):
        self.pending[self.created] = self.now + offset
        self.created += 1

    def withdraw(self, k):
        if self.pending:
            del self.pending[choose(self.pending, k)]

    def run(self, offset):
        horizon = None if offset is None else self.now + offset
        self.stopped = False
        outcome = "returned"
        while self.pending:
            ident = choose(self.pending, 0)
            when = self.pending[ident]
            if horizon is not None and when > horizon:
                break
            del self.pending[ident]
            self.now = when
            self.log.append(("fire", ident, when))
            try:
                act(self, self.actions, ident)
            except Boom:
                outcome = "raised"
                break
            if self.stopped:
                break
        if outcome == "returned" and not self.stopped and horizon is not None:
            self.now = horizon
        self.log.append((outcome, self.now, len(self.pending)))

    def stop(self):
        self.stopped = True


def act(world, actions, ident):
    action = actions[ident] if ident < len(actions) else ("nothing",)
    kind = action[0]
    if kind == "stop":
        world.stop()
    elif kind == "raise":
        raise Boom(ident)
    elif kind == "wake":
        world.wake(action[1])
    elif kind == "withdraw":
        world.withdraw(action[1])


def play(world, program):
    for ops, offset in program:
        for op in ops:
            if op[0] == "wake":
                for _ in range(op[2]):
                    world.wake(op[1])
            else:
                world.withdraw(op[1])
        world.run(offset)
    return world.log


@settings(max_examples=1000, deadline=None)
@given(st.lists(actions, max_size=24), segments)
def test_wheel_fires_like_the_sorted_model(entry_actions, program):
    assert play(KernelWorld(entry_actions), program) == play(
        ModelWorld(entry_actions), program
    )


def test_in_flight_withdrawal_and_requeued_tail():
    # Five entries share t=1: entry 0 withdraws entry 1 from the batch
    # in flight, entry 2 wakes entry 5 at the same instant, entry 3
    # stops the run.  The tail (entry 4) goes back ahead of entry 5.
    entry_actions = [
        ("withdraw", 0),
        ("nothing",),
        ("wake", 0.0),
        ("stop",),
        ("nothing",),
    ]
    program = [([("wake", 1.0, 5)], None), ([], None)]
    log = play(KernelWorld(entry_actions), program)
    assert log == play(ModelWorld(entry_actions), program)
    assert [entry[1] for entry in log if entry[0] == "fire"] == [0, 2, 3, 4, 5]
