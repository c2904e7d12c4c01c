"""Scale-out determinism: sharded output is a pure function of the plan.

Two guarantees, each load-bearing for trusting a profile produced on
N cores:

1. **Scheduling independence** — the same 4-shard plan executed with 1
   worker and with several workers yields byte-identical shard dumps
   and a byte-identical merged profile (after canonical ordering).
2. **Serial equivalence** — a ``shards=1`` plan writes dumps that are
   byte-for-byte the files the legacy in-process path writes, in both
   formats.
"""

import hashlib

from repro.apps.tpcw import TpcwSystem
from repro.core.persist import PROFILE_FORMATS
from repro.parallel import (
    canonical_profile_bytes,
    plan_shards,
    run_shards,
    stitch_groups,
    stitch_spool,
)

SEED = 42
CLIENTS = 20
DURATION = 20.0
WARMUP = 5.0


def _run(tmp_path, shards, jobs, tag):
    spool = str(tmp_path / f"spool-{tag}")
    plan = plan_shards(
        "tpcw",
        seed=SEED,
        clients=CLIENTS,
        shards=shards,
        duration=DURATION,
        warmup=WARMUP,
        spool_dir=spool,
        profile_format="v2",
    )
    return run_shards(plan, jobs=jobs), spool


def _file_hashes(run):
    return [
        hashlib.sha256(open(path, "rb").read()).hexdigest()
        for result in run.results
        for path in result.dump_paths
    ]


def _stage_weights(profile):
    weights = {}
    for (stage, _), cct in profile.entries.items():
        weights[stage] = weights.get(stage, 0.0) + cct.total_weight()
    return weights


def test_jobs_do_not_change_the_output(tmp_path):
    """4 shards, 1 worker vs 2 workers: identical everything."""
    serial, _ = _run(tmp_path, shards=4, jobs=1, tag="serial")
    pooled, _ = _run(tmp_path, shards=4, jobs=2, tag="pooled")

    assert _file_hashes(serial) == _file_hashes(pooled)
    assert serial.throughput() == pooled.throughput()
    assert serial.served() == pooled.served()
    assert serial.crosstalk_wait_ms() == pooled.crosstalk_wait_ms()
    assert serial.db_cpu_share() == pooled.db_cpu_share()

    a = serial.stitch()
    b = pooled.stitch()
    assert canonical_profile_bytes(a) == canonical_profile_bytes(b)
    # Exactly the same per-stage weights, not just approximately.
    assert _stage_weights(a) == _stage_weights(b)


def test_parallel_stitch_equals_serial_stitch(tmp_path):
    """Shards run on a pool stitch to the bytes of a fold over the same
    dump groups, and the spool manifest reconstructs those groups."""
    run, spool = _run(tmp_path, shards=4, jobs=2, tag="stitch")
    serial = canonical_profile_bytes(stitch_groups(run.dump_groups()))
    assert canonical_profile_bytes(run.stitch()) == serial
    assert canonical_profile_bytes(stitch_spool(spool)) == serial


def test_single_shard_matches_legacy_serial_path(tmp_path):
    """--shards 1 is byte-identical to the in-process run, per format."""
    for profile_format in PROFILE_FORMATS:
        system = TpcwSystem(clients=CLIENTS, seed=SEED)
        system.run(duration=DURATION, warmup=WARMUP)
        legacy_dir = tmp_path / f"legacy-{profile_format}"
        legacy = system.save_profiles(str(legacy_dir), profile_format)

        plan = plan_shards(
            "tpcw",
            seed=SEED,
            clients=CLIENTS,
            shards=1,
            duration=DURATION,
            warmup=WARMUP,
            spool_dir=str(tmp_path / f"sharded-{profile_format}"),
            profile_format=profile_format,
        )
        run = run_shards(plan, jobs=1)
        sharded = run.results[0].dump_paths
        assert len(sharded) == len(legacy)
        legacy_by_name = {
            path.rsplit("/", 1)[-1]: path for path in legacy.values()
        }
        for path in sharded:
            name = path.rsplit("/", 1)[-1]
            with open(path, "rb") as a, open(legacy_by_name[name], "rb") as b:
                assert a.read() == b.read(), (profile_format, name)


def test_rerun_is_byte_reproducible(tmp_path):
    """Same plan, fresh processes: identical dumps (no hidden state)."""
    first, _ = _run(tmp_path, shards=2, jobs=2, tag="first")
    second, _ = _run(tmp_path, shards=2, jobs=2, tag="second")
    assert _file_hashes(first) == _file_hashes(second)


def test_openloop_shards_are_deterministic(tmp_path):
    """The open-loop workload shards like the closed-loop ones: same
    plan, any job count, byte-identical dumps and aggregates."""
    params = {
        "arrival_rate": 300.0,
        "total_clients": 600,
        "diurnal_amplitude": 0.4,
        "diurnal_period": 5.0,
        "flash_crowds": [[1.0, 1.0, 2.0]],
        "think": {"distribution": "pareto", "alpha": 1.5, "minimum": 0.05},
    }

    def run(tag, jobs):
        plan = plan_shards(
            "openloop",
            seed=13,
            clients=600,
            shards=4,
            duration=4.0,
            params=params,
            spool_dir=str(tmp_path / tag),
            profile_format="v2",
        )
        return run_shards(plan, jobs=jobs)

    serial = run("serial", jobs=1)
    pooled = run("pooled", jobs=2)
    assert _file_hashes(serial) == _file_hashes(pooled)
    assert serial.sessions_started() == pooled.sessions_started()
    assert serial.sessions_finished() == pooled.sessions_finished()
    assert serial.served() == pooled.served()
    assert serial.mean_response() == pooled.mean_response()
    assert serial.sessions_started() == 600  # the budget, exactly
    assert canonical_profile_bytes(serial.stitch()) == canonical_profile_bytes(
        stitch_spool(str(tmp_path / "pooled"), group_size=2)
    )


def test_sharded_haboob_injects_faults(tmp_path):
    """A haboob shard installs the plan's faults, seeded per shard."""

    def run(faults):
        plan = plan_shards(
            "haboob",
            seed=SEED,
            clients=6,
            shards=2,
            duration=2.0,
            params={"fault_plan": faults, "fault_seed": 3},
        )
        return run_shards(plan, jobs=1)

    clean = run(None)
    lossy = run("drop=0.2")
    assert clean.fault_report() == {}
    report = lossy.fault_report()
    assert report["dropped"] > 0
    assert report["messages_seen"] >= report["dropped"]
    assert lossy.served() < clean.served()
