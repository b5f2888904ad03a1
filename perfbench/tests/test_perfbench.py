"""Tests of the benchmark harness itself.

Run from the checkout root: `python3 -m pytest perfbench/tests -q`.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import oracles  # noqa: E402
from spans import SpanRecorder  # noqa: E402
from workloads import PINNED, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_short_run_emits_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace), "--short")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    assert "rank-deficient" not in proc.stderr


def test_every_workload_is_declared():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)


def test_perturbed_trajectory_digit_fails(tmp_path):
    pinned = PINNED / "dephasing.csv"
    expected = oracles.read_trajectory(pinned)
    assert oracles.check_trajectory(pinned, expected, oracles.SHIPPED_TOL, 2) == []
    lines = pinned.read_text().splitlines(keepends=True)
    fields = lines[5].split(",")
    purity = fields[2]  # "0.5..." -> "0.6...": one digit of one column
    fields[2] = purity[:2] + str((int(purity[2]) + 1) % 10) + purity[3:]
    lines[5] = ",".join(fields)
    corrupted = tmp_path / "dephasing.csv"
    corrupted.write_text("".join(lines))
    assert oracles.check_trajectory(corrupted, expected, oracles.SHIPPED_TOL, 2)


def _event_file(tmp_path, n=500):
    import rholab.cli

    a, b = "0,0,1", "0.59999999999999998,0,0.80000000000000004"
    out = tmp_path / "events.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        assert rholab.cli.main(["sample", f"--a={a}", f"--b={b}", "--n", str(n), "--seed", "5", "--out", str(out)]) == 0
    return out, a, b, n


def test_flipped_outcome_fails(tmp_path):
    out, a, b, n = _event_file(tmp_path)
    assert oracles.check_events(out, a, b, n, 5) == []
    lines = out.read_text().splitlines(keepends=True)
    row = lines[2]
    prefix, outcome_b = row.rsplit(",", 1)
    flipped = "-1\n" if outcome_b == "1\n" else "1\n"
    lines[2] = f"{prefix},{flipped}"
    out.write_text("".join(lines))
    assert oracles.check_events(out, a, b, n, 5)


def test_pinned_hash_mismatch_fails(tmp_path):
    out, a, b, n = _event_file(tmp_path)
    assert oracles.check_events(out, a, b, n, 5, sha256="0" * 64)


def test_d16_oracle_catches_a_wrong_trajectory(tmp_path):
    wl = WORKLOADS["evolve-d16"](ROOT, tmp_path, 3, short=True)
    scenario, out, expected, tol, dim = wl.jobs[0]
    import rholab.cli

    with contextlib.redirect_stdout(io.StringIO()), pytest.warns(RuntimeWarning):
        assert rholab.cli.main(["evolve", "--scenario", str(scenario), "--out", str(out)]) == 0
    assert wl.check([0]) == [[]]
    assert oracles.check_trajectory(out, expected * (1 + 1e-6), tol, dim)


def test_spans_nest_and_originals_are_restored():
    import rholab.density
    import rholab.linalg

    original = rholab.density.hermitian_eig
    rec = SpanRecorder()
    with rec:
        assert rholab.density.hermitian_eig is not original
        rholab.density.DensityOperator(np.eye(4) / 4)
    assert rholab.density.hermitian_eig is original is rholab.linalg.hermitian_eig
    names = [s[0] for s in rec.spans]
    assert names == ["density.DensityOperator", "linalg.hermitian_eig"]
    outer, inner = rec.spans
    assert inner[3] == 0 and inner[5] == 4
    own = rec.self_times()
    assert own[0] == pytest.approx((outer[2] - outer[1]) - (inner[2] - inner[1]))


def test_bare_directory_exits_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "evolve-shipped", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
