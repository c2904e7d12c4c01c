"""Hierarchical reduce: exactness, associativity, streaming artifacts.

The load-bearing property: shard→group→global must be byte-identical
to the flat all-shards reduce for *every* group size, v1 and v2 dumps
alike.  Cross-shard (stage, context) collisions make the merged
weights sums of floats from different shards, and float addition is
not associative — these tests prove the Shewchuk-partials accumulator
erases the grouping from the result.
"""

import hashlib
import math
import random

import pytest

from repro.parallel import (
    canonical_profile_bytes,
    hierarchical_stitch,
    plan_shards,
    run_shards,
    stitch_groups,
    stitch_spool,
)
from repro.parallel.reduce import (
    ProfileAccumulator,
    default_group_size,
    grow_partials,
    plan_groups,
)

SHARDS = 5


def _run(tmp_path, profile_format):
    plan = plan_shards(
        "haboob",
        seed=42,
        clients=5 * SHARDS,
        shards=SHARDS,
        duration=2.5,
        spool_dir=str(tmp_path / profile_format),
        profile_format=profile_format,
    )
    return run_shards(plan, jobs=1)


class TestGrowPartials:
    def test_matches_fsum_exactly(self):
        rng = random.Random(99)
        values = [rng.uniform(0, 1) * 10 ** rng.randint(-12, 12)
                  for _ in range(500)]
        partials = []
        for value in values:
            grow_partials(partials, value)
        assert math.fsum(partials) == math.fsum(values)

    def test_grouping_invariant(self):
        # The non-associativity witness: naive addition differs between
        # groupings, the partials representation does not.
        values = [0.1] * 10 + [1e16, 1.0, -1e16] + [0.3] * 7
        for split in range(1, len(values)):
            left, right = [], []
            for value in values[:split]:
                grow_partials(left, value)
            for value in values[split:]:
                grow_partials(right, value)
            merged = list(left)
            for value in right:
                grow_partials(merged, value)
            assert math.fsum(merged) == math.fsum(values)

    def test_single_value_identity(self):
        # fsum([w]) == w: single-contributor entries keep their bytes.
        for value in (0.1, 1.7e-300, 12345.678):
            partials = []
            grow_partials(partials, value)
            assert math.fsum(partials) == value


class TestPlanGroups:
    def test_contiguous_cover(self):
        groups = plan_groups(10, 3)
        assert groups == [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9]]

    def test_group_size_one(self):
        assert plan_groups(3, 1) == [[0], [1], [2]]

    def test_invalid_group_size(self):
        with pytest.raises(ValueError):
            plan_groups(4, 0)

    def test_default_is_about_sqrt(self):
        assert default_group_size(64) == 8
        assert default_group_size(2) == 2


@pytest.mark.parametrize("profile_format", ["v1", "v2"])
class TestAssociativity:
    def test_every_group_size_matches_flat(self, tmp_path, profile_format):
        run = _run(tmp_path, profile_format)
        groups = run.dump_groups()
        flat = stitch_groups(groups)
        flat_bytes = canonical_profile_bytes(flat)
        for group_size in range(1, SHARDS + 1):
            merged = hierarchical_stitch(groups, group_size=group_size)
            assert canonical_profile_bytes(merged) == flat_bytes, (
                f"group_size={group_size} diverged from flat reduce"
            )
            assert merged.synopsis_refs == flat.synopsis_refs
            assert merged.unresolved_refs == flat.unresolved_refs

    def test_sharded_run_stitch_group_size(self, tmp_path, profile_format):
        # The run's own fold and the tree over its spool agree.
        run = _run(tmp_path, profile_format)
        spool = str(tmp_path / profile_format)
        flat = canonical_profile_bytes(run.stitch())
        for group_size in (0, 2):
            assert canonical_profile_bytes(
                stitch_spool(spool, group_size=group_size)
            ) == flat


def test_load_run_decodes_each_spooled_dump_once(tmp_path, monkeypatch):
    """One decode per dump serves both the profile and the crosstalk
    table; the result matches ``ShardedRun.stitch``."""
    import repro.core.persist as persist

    run = _run(tmp_path, "v2")
    dumps = [path for group in run.dump_groups() for path in group]
    expected = canonical_profile_bytes(run.stitch())
    decoded = []
    real_decode = persist.decode_stage_v2

    def counting_decode(document):
        decoded.append(document[1])
        return real_decode(document)

    monkeypatch.setattr(persist, "decode_stage_v2", counting_decode)
    loaded = persist.load_run(str(tmp_path / "v2"), strict=True)
    assert len(decoded) == len(dumps)
    assert canonical_profile_bytes(loaded.profile) == expected


class TestAccumulator:
    def test_feeding_order_is_invisible(self, tmp_path):
        run = _run(tmp_path, "v2")
        from repro.parallel.stitching import _tag_unresolved, stitch_group

        profiles = [stitch_group(group) for group in run.dump_groups()]

        tagged = [
            _tag_unresolved(profile, f"@shard{index}")
            for index, profile in enumerate(profiles)
        ]
        orders = [list(range(len(tagged)))]
        rng = random.Random(5)
        for _ in range(3):
            order = list(range(len(tagged)))
            rng.shuffle(order)
            orders.append(order)
        digests = set()
        for order in orders:
            accumulator = ProfileAccumulator()
            for index in order:
                accumulator.add_profile(tagged[index])
            digests.add(hashlib.sha256(
                canonical_profile_bytes(accumulator.finalize())
            ).hexdigest())
        assert len(digests) == 1

    def test_write_absorb_round_trip(self, tmp_path):
        run = _run(tmp_path, "v2")
        accumulator = ProfileAccumulator()
        from repro.parallel.stitching import _tag_unresolved, stitch_group

        for index, group in enumerate(run.dump_groups()):
            accumulator.add_profile(
                _tag_unresolved(stitch_group(group), f"@shard{index}")
            )
        direct = canonical_profile_bytes(accumulator.finalize())

        artifact = str(tmp_path / "group.wdr")
        written = accumulator.write(artifact)
        assert written > 0
        restored = ProfileAccumulator()
        restored.absorb_file(artifact)
        assert canonical_profile_bytes(restored.finalize()) == direct

    def test_absorb_rejects_wrong_magic(self, tmp_path):
        from repro.core.persist import write_frame

        bogus = str(tmp_path / "bogus.wdr")
        with open(bogus, "wb") as handle:
            write_frame(handle, ["not", "a", "reduce", "file"])
        accumulator = ProfileAccumulator()
        with pytest.raises(ValueError):
            accumulator.absorb_file(bogus)

    def test_absorb_rejects_truncated(self, tmp_path):
        run = _run(tmp_path, "v2")
        accumulator = ProfileAccumulator()
        from repro.parallel.stitching import stitch_group

        accumulator.add_profile(stitch_group(run.dump_groups()[0]))
        artifact = str(tmp_path / "group.wdr")
        accumulator.write(artifact)
        with open(artifact, "rb") as handle:
            blob = handle.read()
        clipped = str(tmp_path / "clipped.wdr")
        with open(clipped, "wb") as handle:
            handle.write(blob[: len(blob) // 2])
        with pytest.raises(ValueError):
            ProfileAccumulator().absorb_file(clipped)
