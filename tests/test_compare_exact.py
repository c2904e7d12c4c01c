"""Tests for benchmarks/compare_exact.py, the CI gate on ledger exact blocks."""

import importlib.util
import json
import os

SCRIPT = os.path.join(
    os.path.dirname(__file__), os.pardir, "benchmarks", "compare_exact.py"
)
spec = importlib.util.spec_from_file_location("compare_exact", SCRIPT)
compare_exact = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_exact)


def _report(path, **workloads):
    sets = [{name: {"exact": exact} for name, exact in workloads.items()}]
    path.write_text(json.dumps({"seed": 42, "sets": sets}))
    return str(path)


def test_identical_blocks_pass(tmp_path, capsys):
    exact = {"digest": "ab", "ops": 10.0, "profile_err_pp": float("nan")}
    base = _report(tmp_path / "base.json", tpcw=exact)
    head = _report(tmp_path / "head.json", tpcw=dict(exact))
    assert compare_exact.main([base, head]) == 0
    assert "identical" in capsys.readouterr().out


def test_each_differing_key_is_named(tmp_path, capsys):
    base = _report(
        tmp_path / "base.json",
        tpcw={"digest": "ab", "ops": 10.0, "sim_stats.tpm": 5.0},
        haboob={"ops": 1.0},
    )
    head = _report(
        tmp_path / "head.json",
        tpcw={"digest": "cd", "ops": 10.0, "stitch.contexts": 3.0},
        postmortem={"ops": 1.0},
    )
    assert compare_exact.main([base, head]) == 1
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if line.startswith("DIFFERS")] == [
        "DIFFERS haboob: only in base",
        "DIFFERS postmortem: only in head",
        'DIFFERS tpcw digest: "ab" -> "cd"',
        "DIFFERS tpcw sim_stats.tpm: 5.0 -> null",
        "DIFFERS tpcw stitch.contexts: null -> 3.0",
    ]
