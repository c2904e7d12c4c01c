"""The presentation phase is one fold, whichever entry point calls it.

``stitch_spool``, ``load_run`` and ``ShardedRun.stitch`` all stream a
spool one shard at a time through
:func:`repro.parallel.stitching.stitch_groups`; the hierarchical reduce
tree groups the same shards differently.  All four must produce the
same bytes, and ``load_run``'s crosstalk table must be the one a
single fold over every dump, in manifest order, produces — on one
shard and on several, lossless and lossy, v1 and v2.
"""

import pytest

from repro.core.persist import crosstalk_table, load_run, load_stages
from repro.parallel import (
    canonical_profile_bytes,
    plan_shards,
    run_shards,
    spool_groups,
    stitch_spool,
)

FAULTS = {
    "lossless": None,
    # Loss with retries, plus a tier crash whose synopses are lost.
    "lossy": "drop=0.02,dup=0.02,crash=tomcat@6.0",
}


@pytest.fixture(
    scope="module",
    params=[
        (shards, faults, profile_format)
        for shards in (1, 4)
        for faults in FAULTS
        for profile_format in ("v1", "v2")
    ],
    ids=lambda param: "-".join(map(str, param)),
)
def spooled(request, tmp_path_factory):
    shards, faults, profile_format = request.param
    spool = str(tmp_path_factory.mktemp("spool"))
    plan = plan_shards(
        "tpcw",
        seed=42,
        clients=80,
        shards=shards,
        duration=12.0,
        warmup=2.0,
        params={"fault_plan": FAULTS[faults], "think_mean": 0.5},
        spool_dir=spool,
        profile_format=profile_format,
    )
    return faults, run_shards(plan, jobs=1), spool


def test_every_entry_point_gives_the_same_bytes(spooled):
    faults, run, spool = spooled
    profile = stitch_spool(spool, strict=False)
    assert (profile.completeness < 1.0) == (faults == "lossy")
    expected = canonical_profile_bytes(profile)
    assert canonical_profile_bytes(load_run(spool).profile) == expected
    assert canonical_profile_bytes(run.stitch(strict=False)) == expected
    assert canonical_profile_bytes(
        stitch_spool(spool, strict=False, group_size=0)
    ) == expected


def test_load_run_crosstalk_is_one_fold_over_every_dump(spooled):
    _, _, spool = spooled
    stages = [
        stage
        for group in spool_groups(spool)
        for path in group
        for stage in load_stages(path)
    ]
    expected = crosstalk_table(stages)
    got = load_run(spool).crosstalk
    assert list(got.items()) == list(expected.items())
