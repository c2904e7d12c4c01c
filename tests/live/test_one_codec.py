"""Stage dumps and the live log share one codec.

A v2 stage dump and the live collector's log (tree frames plus a
commit) encode labels, trees, synopsis tables and crosstalk types with
the same interned tables and cells.  The property: whatever goes in
comes back out of both, equal.  And a log written in the frame
versions from before the shared codec is refused, naming its file.
"""

import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.context import SynopsisRef, TransactionContext, UnresolvedRef
from repro.core.persist import (
    dumps_stage_v2,
    live_directories,
    load_run,
    loads_stage_v2,
    write_frame,
)
from repro.core.profiler import StageRuntime
from repro.live import LOG_NAME, LiveCollector, attach_collector
from repro.live.checkpoint import LOG_MAGIC

_names = st.sampled_from(["main", "read", "sort", "send", "tomcat"])
_elements = st.one_of(
    _names,
    st.builds(SynopsisRef, st.sampled_from(["squid", "mysql"]),
              st.integers(min_value=0, max_value=2 ** 32 - 1)),
    st.builds(UnresolvedRef, st.sampled_from(["squid", "mysql"]),
              st.integers(min_value=0, max_value=2 ** 32 - 1)),
)
_contexts = st.lists(_elements, max_size=4).map(TransactionContext)
_paths = st.lists(st.sampled_from("abcd"), min_size=1, max_size=4).map(tuple)
_weights = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
#: Crosstalk types: None, a string, a context, or anything else (kept as
#: its repr; the letters keep that repr from colliding with a string).
_types = st.one_of(st.none(), st.sampled_from(["A", "B"]), _contexts,
                   st.integers(min_value=0, max_value=9))

_samples = st.lists(
    st.tuples(st.integers(min_value=0, max_value=5), _paths, _weights,
              st.booleans()),
    min_size=1, max_size=25,
)
_waits = st.lists(st.tuples(_types, _types, _weights), max_size=8)


def _record(stage, labels, samples, mints, waits, on_mint=None):
    for index, path, weight, call in samples:
        cct = stage.cct_for(labels[index % len(labels)])
        cct.record_sample(path, weight)
        if call:
            stage.cct_for(labels[index % len(labels)]).record_call(path)
    for context in mints:
        before = stage.synopses.next_value
        value = stage.synopses.synopsis(context)
        if on_mint is not None and stage.synopses.next_value != before:
            on_mint(stage.ccts, value, context, 0.0)
    for waiter, holder, wait in waits:
        stage.crosstalk.record(waiter, holder, wait)


def _as_stored(value):
    if value is None or isinstance(value, (str, TransactionContext)):
        return value
    return repr(value)


def _seen(stage):
    """Labels in order, each tree's rows, the synopsis table and the
    crosstalk pairs, with types as the codec stores them."""
    return (
        list(stage.ccts),
        [stage.ccts[label].root.to_rows() for label in stage.ccts],
        stage.synopses.items(),
        {
            (_as_stored(waiter), _as_stored(holder)):
                (stats.count, stats.total, stats.max)
            for (waiter, holder), stats in stage.crosstalk.pairs.items()
        },
    )


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(_contexts, min_size=1, max_size=6, unique=True), _samples,
       st.lists(_contexts, max_size=6), _waits)
def test_a_dump_and_the_live_log_round_trip_the_same_state(
    labels, samples, mints, waits
):
    plain = StageRuntime("tomcat")
    _record(plain, labels, samples, mints, waits)
    want = _seen(plain)
    assert _seen(loads_stage_v2(dumps_stage_v2(plain))) == want

    with tempfile.TemporaryDirectory() as directory:
        # One resident tree: every other label's tree goes out as a
        # tree frame and comes back from one.
        collector = attach_collector(None, directory=directory,
                                     max_resident=1)
        try:
            live = StageRuntime("tomcat")
            _record(live, labels, samples, mints, waits, collector.on_mint)
            collector.finalize()
        finally:
            collector.close()
        assert _seen(live) == want
        recovered = LiveCollector.recover(directory)
        assert _seen(recovered._stages["tomcat"]) == want


@pytest.mark.parametrize("version", [3, 4])
def test_a_log_in_the_old_frame_versions_is_refused(tmp_path, version):
    directory = str(tmp_path / "live")
    os.makedirs(directory)
    path = os.path.join(directory, LOG_NAME)
    with open(path, "wb") as handle:
        write_frame(handle, {"t": 0.0}, magic=LOG_MAGIC, version=version)
    for read in (LiveCollector.recover, live_directories, load_run):
        with pytest.raises(ValueError, match=LOG_NAME) as error:
            read(directory)
        assert f"version {version}" in str(error.value)
