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
    parallel_stitch,
    plan_shards,
    run_shards,
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
        flat = parallel_stitch(groups)
        flat_bytes = canonical_profile_bytes(flat)
        for group_size in range(1, SHARDS + 1):
            merged = hierarchical_stitch(groups, group_size=group_size)
            assert canonical_profile_bytes(merged) == flat_bytes, (
                f"group_size={group_size} diverged from flat reduce"
            )
            assert merged.synopsis_refs == flat.synopsis_refs
            assert merged.unresolved_refs == flat.unresolved_refs

    def test_sharded_run_stitch_group_size(self, tmp_path, profile_format):
        run = _run(tmp_path, profile_format)
        flat = canonical_profile_bytes(run.stitch())
        assert canonical_profile_bytes(run.stitch(group_size=0)) == flat
        assert canonical_profile_bytes(run.stitch(group_size=2)) == flat


def test_load_run_decodes_each_spooled_dump_once(tmp_path, monkeypatch):
    """One decode per dump serves both the profile and ``.stages``; the
    result still matches the map-reduce, which adopts what it decodes."""
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
    assert [stage.name for stage in loaded.stages] == decoded
    assert canonical_profile_bytes(loaded.profile) == expected


class TestAccumulator:
    def test_feeding_order_is_invisible(self, tmp_path):
        run = _run(tmp_path, "v2")
        profiles = [
            parallel_stitch([group]) for group in run.dump_groups()
        ]
        from repro.parallel.stitching import _tag_unresolved

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
        for index, group in enumerate(run.dump_groups()):
            from repro.parallel.stitching import _stitch_group, _tag_unresolved

            accumulator.add_profile(
                _tag_unresolved(_stitch_group((group, True)), f"@shard{index}")
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
        from repro.parallel.stitching import _stitch_group

        accumulator.add_profile(_stitch_group((run.dump_groups()[0], True)))
        artifact = str(tmp_path / "group.wdr")
        accumulator.write(artifact)
        with open(artifact, "rb") as handle:
            blob = handle.read()
        clipped = str(tmp_path / "clipped.wdr")
        with open(clipped, "wb") as handle:
            handle.write(blob[: len(blob) // 2])
        with pytest.raises(ValueError):
            ProfileAccumulator().absorb_file(clipped)


class TestHierarchicalStats:
    def test_stats_describe_the_tree(self, tmp_path):
        run = _run(tmp_path, "v2")
        stats = {}
        hierarchical_stitch(run.dump_groups(), group_size=2, stats=stats)
        assert stats["group_size"] == 2
        assert stats["groups"] == 3  # ceil(5 / 2)
        assert len(stats["group_walls"]) == 3
        assert all(wall >= 0 for wall in stats["group_walls"])
        assert all(size > 0 for size in stats["group_bytes"])
        assert stats["parent_fold_s"] >= 0

    def test_reduce_dir_keeps_artifacts(self, tmp_path):
        run = _run(tmp_path, "v2")
        reduce_dir = tmp_path / "reduce"
        hierarchical_stitch(
            run.dump_groups(), group_size=2, reduce_dir=str(reduce_dir)
        )
        artifacts = sorted(p.name for p in reduce_dir.iterdir())
        assert artifacts == [
            "group-0000.wdr", "group-0001.wdr", "group-0002.wdr",
        ]

    def test_parallel_reduce_matches_serial(self, tmp_path):
        from repro.parallel import shutdown_pools

        run = _run(tmp_path, "v2")
        groups = run.dump_groups()
        serial = canonical_profile_bytes(
            hierarchical_stitch(groups, jobs=1, group_size=2)
        )
        try:
            parallel = canonical_profile_bytes(
                hierarchical_stitch(groups, jobs=2, group_size=2)
            )
        finally:
            shutdown_pools()
        assert parallel == serial
