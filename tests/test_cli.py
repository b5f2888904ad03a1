import json
import math
import os
import shlex
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import rholab.cli
from rholab import DetectorPair, LindbladGenerator, UnitVector3, joint_outcome_probabilities
from rholab.cli import main, load_scenario, trajectory_rows, ScenarioError
from conftest import time_limit

REPO = Path(__file__).resolve().parents[1]


def write_scenario(path, **overrides):
    base = {
        "dim": 2,
        "rho0": [[[0.5, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.5, 0.0]]],  # |x+><x+|
        "hamiltonian": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
        "jump_ops": [
            [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]  # sigma_z
        ],
        "t_end": 1.0,
        "dt": 0.01,
        "sample_every": 10,
    }
    base.update(overrides)
    path.write_text(json.dumps(base))
    return path


def reference_event_file(a_text, b_text, n, seed):
    """The event CSV of `rholab sample`, drawn as the sampler does and written
    one row at a time with six %.17g orientation formats per row."""
    a = UnitVector3(*(float(x) for x in a_text.split(",")))
    b = UnitVector3(*(float(x) for x in b_text.split(",")))
    probs = np.clip(joint_outcome_probabilities(DetectorPair(a, b)).reshape(-1), 0.0, None)
    probs = probs / probs.sum()
    rng = np.random.Generator(np.random.Philox(seed))
    draws = rng.choice(4, size=n, p=probs)
    outcomes = [(1 - 2 * (d // 2), 1 - 2 * (d % 2)) for d in draws.tolist()]
    lines = [f"# seed={seed} n={n}\n", "a_x,a_y,a_z,b_x,b_y,b_z,outcome_a,outcome_b\n"]
    for oa, ob in outcomes:
        lines.append(
            f"{a.nx:.17g},{a.ny:.17g},{a.nz:.17g},{b.nx:.17g},{b.ny:.17g},{b.nz:.17g},"
            f"{oa},{ob}\n"
        )
    empirical = float(np.mean([oa * ob for oa, ob in outcomes]))
    lines.append(
        f"# summary empirical_correlation={empirical:.17g} "
        f"analytic_correlation={-a.dot(b):.17g}\n"
    )
    return "".join(lines)


def run_cli_process(args):
    """Run `python -m rholab.cli args` in a child process, which shows numpy
    warnings on stderr the way a user's terminal does."""
    # The child imports the same rholab as this process, installed or not.
    src = str(Path(rholab.cli.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "rholab.cli", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def read_rows(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, (float(x) for x in line.split(",")))) for line in lines[1:]]
    return header, rows


class TestDemos:
    @pytest.mark.parametrize(
        "name",
        ["nonunique", "chsh", "ghz", "filter", "singlet", "spin1", "nocloning", "nosignal"],
    )
    def test_demo_passes(self, name, capsys):
        assert main(["demo", name]) == 0
        out = capsys.readouterr().out
        assert "overall: PASS" in out
        assert "FAIL" not in out.replace("PASS/FAIL", "")

    def test_chsh_prints_value(self, capsys):
        main(["demo", "chsh"])
        out = capsys.readouterr().out
        assert "2.8284271247461" in out

    def test_filter_prints_quoted_numbers(self, capsys):
        main(["demo", "filter"])
        out = capsys.readouterr().out
        assert "0.25" in out
        assert "0.146" in out

    def test_unknown_demo(self, capsys):
        assert main(["demo", "bogus"]) == 2
        assert "unknown demo" in capsys.readouterr().err


class TestTopLevel:
    def test_version(self, capsys):
        assert main(["--version"]) == 0
        assert "rholab" in capsys.readouterr().out

    def test_usage_error_exit_code(self):
        assert main(["evolve"]) == 2  # missing required arguments

    def test_help(self, capsys):
        assert main(["--help"]) == 0
        assert "demo" in capsys.readouterr().out

    def test_module_entry_point(self):
        result = run_cli_process(["demo", "chsh"])
        assert result.returncode == 0
        assert "overall: PASS" in result.stdout


class TestEvolve:
    def test_dephasing_trajectory(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path / "scenario.json")
        out = tmp_path / "trajectory.csv"
        assert main(["evolve", "--scenario", str(scenario), "--out", str(out)]) == 0
        header, rows = read_rows(out)
        assert header == [
            "t",
            "trace_re",
            "purity",
            "entropy_nats",
            "min_eigenvalue",
            "entropy_production",
        ]
        assert rows[0]["t"] == 0.0
        assert rows[-1]["t"] == pytest.approx(1.0)
        for row in rows:
            assert abs(row["trace_re"] - 1.0) < 1e-8
            assert row["min_eigenvalue"] > -1e-7
            assert row["entropy_production"] >= -1e-12
        entropies = [row["entropy_nats"] for row in rows]
        assert all(b >= a - 1e-8 for a, b in zip(entropies, entropies[1:]))
        assert entropies[-1] > entropies[0] + 0.1
        times = [row["t"] for row in rows]
        assert all(b > a for a, b in zip(times, times[1:]))
        for row in rows:
            assert all(math.isfinite(v) for v in row.values())

    def test_hamiltonian_only_entropy_constant(self, tmp_path):
        h = [[[1.0, 0.0], [0.0, -0.5]], [[0.0, 0.5], [-1.0, 0.0]]]  # hermitian
        scenario = write_scenario(
            tmp_path / "s.json", hamiltonian=h, jump_ops=[], t_end=2.0, dt=0.005
        )
        out = tmp_path / "t.csv"
        assert main(["evolve", "--scenario", str(scenario), "--out", str(out)]) == 0
        _, rows = read_rows(out)
        entropies = [row["entropy_nats"] for row in rows]
        assert max(entropies) - min(entropies) < 1e-8
        for row in rows:
            assert abs(row["trace_re"] - 1.0) < 1e-8

    def test_integration_failure_exit_code(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path / "s.json", t_end=50.0, dt=5.0, sample_every=1)
        out = tmp_path / "t.csv"
        assert main(["evolve", "--scenario", str(scenario), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "integration failure" in err
        assert "t=" in err

    def test_non_finite_step_exits_3_naming_it(self, tmp_path):
        # dt = 5 dephasing overflows; the trace turns NaN at step 127 (t = 635)
        scenario = write_scenario(tmp_path / "s.json", t_end=5000.0, dt=5.0, sample_every=1000)
        out = tmp_path / "t.csv"
        result = run_cli_process(["evolve", "--scenario", str(scenario), "--out", str(out)])
        assert result.returncode == 3
        lines = result.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("integration failure: ")
        assert lines[0].endswith(" at t=635")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.json"]

    def test_missing_file(self, tmp_path, capsys):
        assert main(["evolve", "--scenario", str(tmp_path / "nope.json"), "--out", "x"]) == 2
        assert "scenario error" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["evolve", "--scenario", str(bad), "--out", "x"]) == 2
        assert "line" in capsys.readouterr().err

    def test_missing_field(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        payload = json.loads((write_scenario(tmp_path / "ok.json")).read_text())
        del payload["dt"]
        bad.write_text(json.dumps(payload))
        assert main(["evolve", "--scenario", str(bad), "--out", "x"]) == 2
        assert "dt" in capsys.readouterr().err

    def test_bad_complex_entry(self, tmp_path, capsys):
        payload = json.loads((write_scenario(tmp_path / "ok.json")).read_text())
        payload["rho0"][0][0] = [1.0]  # not an [re, im] pair
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        assert main(["evolve", "--scenario", str(bad), "--out", "x"]) == 2
        assert "rho0[0][0]" in capsys.readouterr().err

    @pytest.mark.parametrize("entry", [[10**400, 0.0], [0.5, math.nan], ["0.5", 0.0]])
    def test_non_finite_complex_entry(self, tmp_path, capsys, entry):
        payload = json.loads((write_scenario(tmp_path / "ok.json")).read_text())
        payload["hamiltonian"][1][0] = entry
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        assert main(["evolve", "--scenario", str(bad), "--out", "x"]) == 2
        assert "hamiltonian[1][0] must be a finite number" in capsys.readouterr().err

    def test_invalid_density(self, tmp_path, capsys):
        payload = json.loads((write_scenario(tmp_path / "ok.json")).read_text())
        payload["rho0"] = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]  # trace 2
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        assert main(["evolve", "--scenario", str(bad), "--out", "x"]) == 2
        assert "trace" in capsys.readouterr().err

    def test_load_scenario_roundtrip(self, tmp_path):
        scenario = load_scenario(str(write_scenario(tmp_path / "s.json")))
        assert scenario.generator.dim == 2
        assert scenario.sample_every == 10
        assert np.allclose(scenario.generator.jump_ops[0], np.diag([1.0, -1.0]))
        with pytest.raises(ScenarioError):
            load_scenario(str(tmp_path / "missing.json"))

    def test_scenario_holds_validated_generator(self, tmp_path, monkeypatch):
        scenario = load_scenario(str(write_scenario(tmp_path / "s.json")))
        assert isinstance(scenario.generator, LindbladGenerator)
        assert np.array_equal(scenario.generator.hamiltonian, np.zeros((2, 2)))
        assert len(scenario.generator.jump_ops) == 1

        def rebuilt(*args, **kwargs):
            raise AssertionError("trajectory_rows rebuilt the generator")

        monkeypatch.setattr(rholab.cli, "LindbladGenerator", rebuilt)
        with pytest.warns(RuntimeWarning, match="rank-deficient"):
            assert len(trajectory_rows(scenario)) == 11

    @pytest.mark.parametrize(
        "field, value",
        [
            ("t_end", math.nan),
            ("t_end", math.inf),
            ("t_end", 10**400),
            ("dt", math.nan),
            ("dt", math.inf),
            ("dt", 1e-320),  # finite, but t_end/dt overflows
        ],
        ids=["t_end-nan", "t_end-inf", "t_end-huge-int", "dt-nan", "dt-inf", "dt-tiny"],
    )
    def test_non_finite_schedule_rejected(self, tmp_path, capsys, field, value):
        scenario = write_scenario(tmp_path / "s.json", **{field: value})
        out = tmp_path / "t.csv"
        assert main(["evolve", "--scenario", str(scenario), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("scenario error:") and field in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_huge_step_count_rejected(self, tmp_path, capsys):
        # 1e15 finite steps: refused at load time instead of integrating forever.
        scenario = write_scenario(tmp_path / "s.json", t_end=1e13, dt=0.01)
        out = tmp_path / "t.csv"
        with time_limit(10.0):
            assert main(["evolve", "--scenario", str(scenario), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("scenario error:") and "cap" in err and err.count("\n") == 1
        assert not out.exists()
        with pytest.raises(ScenarioError, match="cap"):
            load_scenario(str(scenario))

    def test_too_many_samples_rejected(self, tmp_path, capsys):
        # 10^6 steps is within the step cap, but sampling each one is not.
        scenario = write_scenario(tmp_path / "s.json", t_end=1e4, dt=0.01, sample_every=1)
        out = tmp_path / "t.csv"
        with time_limit(10.0):
            assert main(["evolve", "--scenario", str(scenario), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("scenario error:") and "cap" in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("name", ["dephasing", "precession", "amplitude_damping"])
    def test_shipped_trajectory_matches_pinned(self, tmp_path, name):
        out = tmp_path / f"{name}.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert main(["evolve", "--scenario", str(REPO / "scenarios" / f"{name}.json"),
                         "--out", str(out)]) == 0
        header, rows = read_rows(out)
        pinned_header, pinned = read_rows(REPO / "perfbench" / "pinned" / f"{name}.csv")
        assert header == pinned_header and len(rows) == len(pinned)
        for column in header:
            assert max(abs(r[column] - p[column]) for r, p in zip(rows, pinned)) <= 1e-12, column

    def test_unwritable_output(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path / "s.json")
        out = tmp_path / "missing" / "t.csv"
        with pytest.warns(RuntimeWarning):
            assert main(["evolve", "--scenario", str(scenario), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("output error:") and err.count("\n") == 1

    def test_output_replaced_without_leftovers(self, tmp_path):
        scenario = write_scenario(tmp_path / "s.json")
        out = tmp_path / "t.csv"
        out.write_text("stale")
        with pytest.warns(RuntimeWarning):
            assert main(["evolve", "--scenario", str(scenario), "--out", str(out)]) == 0
        assert out.read_text().startswith("t,trace_re,")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.json", "t.csv"]


class TestSample:
    def test_aligned_detectors_opposite_outcomes(self, tmp_path):
        out = tmp_path / "events.csv"
        code = main(
            ["sample", "--a", "0,0,1", "--b", "0,0,1", "--n", "100", "--seed", "9",
             "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("# seed=9")
        assert lines[1] == "a_x,a_y,a_z,b_x,b_y,b_z,outcome_a,outcome_b"
        data = [line.split(",") for line in lines[2:-1]]
        assert len(data) == 100
        for row in data:
            assert int(row[6]) == -int(row[7])
        assert lines[-1].startswith("# summary empirical_correlation=")

    def test_byte_identical_for_same_seed(self, tmp_path):
        args = ["sample", "--a", "0,0,1", "--b", "1,0,0", "--n", "500", "--seed", "42"]
        out1 = tmp_path / "one.csv"
        out2 = tmp_path / "two.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_default_seed_is_42(self, tmp_path):
        out = tmp_path / "events.csv"
        main(["sample", "--a", "0,0,1", "--b", "1,0,0", "--n", "10", "--out", str(out)])
        assert out.read_text().startswith("# seed=42 ")

    def test_non_unit_vector_rejected(self, tmp_path, capsys):
        code = main(
            ["sample", "--a", "0,0,2", "--b", "0,0,1", "--n", "10", "--out",
             str(tmp_path / "x.csv")]
        )
        assert code == 2
        assert "input error" in capsys.readouterr().err

    def test_nan_vector_rejected(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = main(["sample", "--a", "nan,0,1", "--b", "0,0,1", "--n", "10", "--out", str(out)])
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("input error: --a")
        assert not out.exists()

    def test_bad_vector_format(self, tmp_path, capsys):
        code = main(
            ["sample", "--a", "0,0", "--b", "0,0,1", "--n", "10", "--out",
             str(tmp_path / "x.csv")]
        )
        assert code == 2

    def test_absurd_n_rejected(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = main(["sample", "--a", "0,0,1", "--b", "0,0,1", "--n", str(10**15), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:") and "cap" in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("n", [0, -5])
    def test_non_positive_n_rejected(self, tmp_path, capsys, n):
        out = tmp_path / "x.csv"
        code = main(["sample", "--a", "0,0,1", "--b", "0,0,1", "--n", str(n), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("seed", [0, 42, 2**63 - 1])
    @pytest.mark.parametrize(
        "a, b",
        [
            ("0,0,1", "0.6,0,0.8"),
            ("1,0,0", "0,0,1"),
            ("-0.48,0.6,0.64", "0.36,-0.8,0.48"),
        ],
    )
    def test_matches_reference_writer(self, tmp_path, seed, a, b):
        out = tmp_path / "events.csv"
        n = 2000
        code = main(["sample", f"--a={a}", f"--b={b}", "--n", str(n), "--seed", str(seed),
                     "--out", str(out)])
        assert code == 0
        # Line by line, so a mismatch reports its line instead of diffing the file.
        got = out.read_bytes().decode().splitlines(keepends=True)
        want = reference_event_file(a, b, n, seed).splitlines(keepends=True)
        assert len(got) == len(want)
        for number, (line, expected) in enumerate(zip(got, want), 1):
            assert line == expected, f"line {number}"

    def test_unwritable_output(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.csv"
        code = main(["sample", "--a", "0,0,1", "--b", "1,0,0", "--n", "10", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("output error:") and err.count("\n") == 1
        assert not (tmp_path / "missing").exists()

    def test_summary_matches_analytic(self, tmp_path):
        out = tmp_path / "events.csv"
        n = 100_000
        theta = 0.9
        b = f"{math.sin(theta)},0,{math.cos(theta)}"
        main(["sample", "--a", "0,0,1", "--b", b, "--n", str(n), "--seed", "3",
              "--out", str(out)])
        summary = out.read_text().strip().splitlines()[-1]
        fields = dict(part.split("=") for part in summary[2:].split() if "=" in part)
        analytic = float(fields["analytic_correlation"])
        empirical = float(fields["empirical_correlation"])
        assert analytic == pytest.approx(-math.cos(theta), abs=1e-12)
        sigma = math.sqrt((1 - analytic**2) / n)
        assert abs(empirical - analytic) <= 3 * sigma


def readme_cli_lines() -> list[str]:
    text = (REPO / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line.split("#", 1)[0].strip() for line in block.splitlines()]
    return [line for line in lines if line.startswith("rholab ")]


def test_readme_cli_lines_run(tmp_path, monkeypatch, capsys):
    lines = readme_cli_lines()
    assert len(lines) == 4
    shutil.copytree(REPO / "scenarios", tmp_path / "scenarios")
    monkeypatch.chdir(tmp_path)
    for line in lines:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert main(shlex.split(line)[1:]) == 0, line
