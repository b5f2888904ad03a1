import functools
import hashlib
import io
import itertools
import json
import math
import os
import re
import shlex
import shutil
import stat
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import rholab.cli
from rholab import (
    DensityOperator,
    DensityStack,
    DetectorPair,
    LindbladGenerator,
    UnitVector3,
    ValidationError,
    X_AXIS,
    Z_AXIS,
    empirical_correlation,
    evolve_lindblad,
    hermitian_eig,
    joint_outcome_probabilities,
    jump_entropy_rate,
    purity,
    sample_events,
    von_neumann_entropy,
)
from rholab.bell import MAX_EVENTS
from rholab.cli import EVENT_HEADER, TRAJECTORY_HEADER, main, load_scenario, trajectory_rows, ScenarioError
from conftest import count_eigensolves, count_sweeps, peak_of, time_limit, traced_peak

REPO = Path(__file__).resolve().parents[1]


BASE_SCENARIO = {
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


def _matrix(rows) -> list:
    """A real matrix as a scenario writes it: rows of [re, im] pairs."""
    return [[[float(x), 0.0] for x in row] for row in rows]


# Values each of the seven scenario fields rejects, crossed with the JSON types: every
# one must exit 2 with one stderr line that names the field.  t_end = 0 and an empty
# jump set are valid, and a jump operator need not be Hermitian.
_ANY_FIELD = {"object": {}, "bool": True, "string": "3", "nan": math.nan, "empty-list": [], "negative": -1}
_NOT_HERMITIAN = _matrix([[0.5, 0.5], [0.0, 0.5]])
_WRONG_SIZE = _matrix(np.eye(3) / 3)
SCENARIO_FIELD_ERRORS = {
    "dim": {**_ANY_FIELD, "zero": 0, "float": 2.0, "matrix": _matrix(np.eye(2))},
    "rho0": {**_ANY_FIELD, "zero": 0, "wrong-size": _WRONG_SIZE, "not-hermitian": _NOT_HERMITIAN,
             "trace-2": _matrix(np.eye(2)), "not-positive": _matrix([[1.5, 0.0], [0.0, -0.5]]),
             "ragged": [[[0.5, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]},
    "hamiltonian": {**_ANY_FIELD, "zero": 0, "wrong-size": _WRONG_SIZE, "not-hermitian": _NOT_HERMITIAN},
    "jump_ops": {**{k: v for k, v in _ANY_FIELD.items() if k != "empty-list"}, "zero": 0,
                 "matrix-not-list": _matrix(np.eye(2)), "wrong-size": [_WRONG_SIZE],
                 "overflowing": [_matrix([[1e200, 0.0], [0.0, -1e200]])]},
    "t_end": {**_ANY_FIELD, "matrix": _matrix(np.eye(2))},
    "dt": {**_ANY_FIELD, "zero": 0, "matrix": _matrix(np.eye(2))},
    "sample_every": {**_ANY_FIELD, "zero": 0, "float": 2.5, "matrix": _matrix(np.eye(2))},
}


def scenario_text(**overrides) -> str:
    return json.dumps({**BASE_SCENARIO, **overrides})


def write_scenario(path, **overrides):
    path.write_text(scenario_text(**overrides))
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


def event_file_from_sample_events(a_text, b_text, n, seed):
    """The event CSV of `rholab sample`, one row per event of bell.sample_events."""
    a = UnitVector3(*(float(x) for x in a_text.split(",")))
    b = UnitVector3(*(float(x) for x in b_text.split(",")))
    events = sample_events(DetectorPair(a, b), n, seed)
    orientations = ",".join(f"{x:.17g}" for x in (a.nx, a.ny, a.nz, b.nx, b.ny, b.nz))
    lines = [f"# seed={seed} n={n}\n", EVENT_HEADER + "\n"]
    for oa, ob in zip(events.outcome_a.tolist(), events.outcome_b.tolist()):
        lines.append(f"{orientations},{oa},{ob}\n")
    lines.append(
        f"# summary empirical_correlation={empirical_correlation(events):.17g} "
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
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["demo", name]) == 0
        out, err = capsys.readouterr()
        assert "overall: PASS" in out and err == ""
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
        assert result.stderr == "integration failure: trace drift nan exceeds 1e-07 at t=635\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.json"]

    def test_overflowing_propagator_exits_3_without_warnings(self, tmp_path):
        # 1/2 L(dag)L = 5e199 is finite, but T(dt L) overflows at d = 2 as it is built.
        big = [[[1e100, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1e100, 0.0]]]
        scenario = write_scenario(tmp_path / "s.json", jump_ops=[big])
        result = run_cli_process(["evolve", "--scenario", str(scenario), "--out", str(tmp_path / "t.csv")])
        assert result.returncode == 3
        lines = result.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("integration failure: ") and lines[0].endswith(" at t=0.01")

    def test_overflowing_entropy_rate_exits_3_naming_the_sample(self, tmp_path):
        # 1/2 L(dag)L = 5e307 is finite, but |L|^2 = 1e308 times the weights of
        # the entropy rate overflows at the only sample, t = 0.
        jump = [[[0.0, 0.0], [0.0, 0.0]], [[1e154, 0.0], [0.0, 0.0]]]
        rho0 = [[[1.0 - 1e-10, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1e-10, 0.0]]]
        scenario = write_scenario(tmp_path / "s.json", rho0=rho0, jump_ops=[jump], t_end=0.0)
        result = run_cli_process(["evolve", "--scenario", str(scenario), "--out", str(tmp_path / "t.csv")])
        assert result.returncode == 3
        assert result.stderr.splitlines() == [
            "integration failure: entropy rate overflows or is not finite at t=0"
        ]
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

    @pytest.mark.parametrize("entry", [[10**400, 0.0], [0.5, math.nan], ["0.5", 0.0], [True, 0.0]])
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
        # Entries are read exactly, integers and the sign of zero included.
        h = [[[1, -0.0], [0.1, 2.5]], [[0.1, -2.5], [-3, 0]]]
        scenario = load_scenario(str(write_scenario(tmp_path / "h.json", hamiltonian=h)))
        parsed = scenario.generator.hamiltonian
        assert np.array_equal(parsed, [[1 - 0j, 0.1 + 2.5j], [0.1 - 2.5j, -3]])
        assert np.signbit(parsed.imag[0, 0]) and not np.signbit(parsed.imag[1, 1])
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
            assert len(list(trajectory_rows(scenario))) == 11

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

    @pytest.mark.parametrize("field, value", [
        pytest.param(field, value, id=f"{field}-{name}")
        for field, cases in SCENARIO_FIELD_ERRORS.items() for name, value in cases.items()
    ])
    def test_an_invalid_field_exits_2_naming_it(self, tmp_path, capsys, field, value):
        scenario = write_scenario(tmp_path / "s.json", **{field: value})
        assert main(["evolve", "--scenario", str(scenario), "--out", str(tmp_path / "t.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("scenario error:") and err.count("\n") == 1, err
        assert re.search(rf"\b{field}\b", err), err
        assert list(tmp_path.iterdir()) == [scenario]

    def test_overflowing_jump_operator_rejected(self, tmp_path, capsys):
        # 1/2 L(dag)L overflows: refused at load time, not a NaN trace drift mid-run.
        big = [[[1e200, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1e200, 0.0]]]
        scenario = write_scenario(tmp_path / "s.json", jump_ops=[big])
        out = tmp_path / "t.csv"
        assert main(["evolve", "--scenario", str(scenario), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("scenario error:") and "overflows" in err and err.count("\n") == 1
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

    @pytest.mark.parametrize("case", ["over-the-cap", "bom"])
    def test_a_rejected_scenario_exits_2_with_its_message(self, tmp_path, capsys, case):
        if case == "bom":  # rejected as json.loads rejects it
            path = tmp_path / "s.json"
            path.write_bytes(b"\xef\xbb\xbf" + (REPO / "scenarios" / "dephasing.json").read_bytes())
            message = "invalid JSON at line 1, column 1: Unexpected UTF-8 BOM (decode using utf-8-sig)"
        else:  # one step past the sample cap
            path = dephasing_run(tmp_path, 10**5 + 1)
            message = "100001 samples exceed the cap of 100000 samples"
        assert main(["evolve", "--scenario", str(path), "--out", str(tmp_path / "t.csv")]) == 2
        assert capsys.readouterr() == ("", f"scenario error: {message}\n")
        assert list(tmp_path.iterdir()) == [path]

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

    @pytest.mark.parametrize("name", ["dephasing", "amplitude_damping"])
    def test_rows_per_chunk_equal_the_one_state_calls(self, monkeypatch, name):
        # 21 samples in chunks of 16 d = 2 states: one full chunk and a shorter one.
        monkeypatch.setattr(rholab.channels, "CHUNK_ENTRIES", 16 * 2**2)
        scenario = load_scenario(str(REPO / "scenarios" / f"{name}.json"))
        g = scenario.generator
        calls = count_eigensolves(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            rows = list(trajectory_rows(scenario))
            assert calls == [15, 5]  # sample 0 takes rho0's spectrum
            trajectory = evolve_lindblad(g, scenario.rho0, scenario.t_end, scenario.dt, scenario.sample_every)
            states = trajectory.states
            expected = [
                (t, raw_trace, purity(state), von_neumann_entropy(state),
                 min_eigenvalue, jump_entropy_rate(state, g.jump_ops))
                for t, raw_trace, state, min_eigenvalue in zip(
                    trajectory.times.tolist(), trajectory.raw_traces.tolist(), states, states.eigenvalues[:, 0].tolist()
                )
            ]
        assert [tuple(row) for row in rows] == expected

    @pytest.mark.parametrize(
        "name, solves, sweeps",
        [
            ("dephasing", [1, 20], [1, 20]),
            ("precession", [1, 32], [1, 32]),
            ("amplitude_damping", [1, 20], [1, 20]),
            ("evolve-d16", [1, 6], [1, 6, 6, 6, 6, 6, 6, 4, 2]),
        ],
    )
    def test_eigensolves_and_sweeps(self, tmp_path, monkeypatch, name, solves, sweeps):
        # rho0 as the scenario loads it, in one sweep, then one chunk after sample 0, which
        # takes rho0's spectrum: the solves take as many matrices as the CSV has rows.  The
        # d = 16 chunk's states leave after sweeps 6, 7 and 8, so five boundaries see none
        # leave; each state's spectrum is its spectrum alone.
        if name == "evolve-d16":
            path = ising_chain_scenario(tmp_path / "d16.json", seed=1)
        else:
            path = REPO / "scenarios" / f"{name}.json"
        calls, swept = count_eigensolves(monkeypatch), count_sweeps(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert main(["evolve", "--scenario", str(path), "--out", str(tmp_path / "t.csv")]) == 0
        assert calls == solves and swept == sweeps
        assert sum(calls) == len((tmp_path / "t.csv").read_text().splitlines()) - 1
        s = load_scenario(str(path))
        states = evolve_lindblad(s.generator, s.rho0, s.t_end, s.dt, s.sample_every).states
        for k, m in enumerate(states.matrices):
            alone = hermitian_eig(m)
            assert np.array_equal(states.eigenvalues[k], alone.eigenvalues), k
            assert np.array_equal(states.eigenvectors[k], alone.eigenvectors), k

    @pytest.mark.parametrize("name", ["dephasing", "precession", "amplitude_damping", "evolve-d16"])
    def test_a_one_sample_run_solves_nothing_after_the_load(self, tmp_path, monkeypatch, name):
        # t_end = 0 is one sample, rho0 with the spectrum the load solved.  Its CSV is the
        # header and the first row of the whole run; the shipped ones are pinned as the
        # code that solved rho0 again wrote them.
        if name == "evolve-d16":
            scenario = json.loads(ising_chain_scenario(tmp_path / "d16.json", seed=1).read_text())
        else:
            scenario = json.loads((REPO / "scenarios" / f"{name}.json").read_text())
        whole, one = tmp_path / "whole.csv", tmp_path / "one.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert main(["evolve", "--scenario", str(write_scenario(tmp_path / "s.json", **scenario)),
                         "--out", str(whole)]) == 0
            scenario.update(t_end=0)
            path = write_scenario(tmp_path / "s.json", **scenario)
            calls = count_eigensolves(monkeypatch)
            assert main(["evolve", "--scenario", str(path), "--out", str(one)]) == 0
        assert calls == [1]  # rho0 as the scenario loads
        assert one.read_bytes() == b"".join(whole.read_bytes().splitlines(keepends=True)[:2])
        pinned = {
            "dephasing": "0,1,1,2.2204460492503126e-16,-0,32.2361913019163",
            "precession": "0,1,1,2.2204460492503126e-16,-0,0",
            "amplitude_damping": "0,1,1,2.2204460492503126e-16,-0,4.0295239127395384",
        }
        if name in pinned:
            assert one.read_text() == f"{TRAJECTORY_HEADER}\n{pinned[name]}\n"

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

    def test_block_written_rows_equal_per_row_writes(self, tmp_path):
        # 2001 rows: one full block of the writer and a partial second.
        path = shipped_run(tmp_path, "dephasing", dt=0.001, sample_every=1)
        out, expected = tmp_path / "t.csv", tmp_path / "expected.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert main(["evolve", "--scenario", str(path), "--out", str(out)]) == 0
            rows = list(trajectory_rows(load_scenario(str(path))))
        assert len(rows) == 2001
        with open(expected, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(TRAJECTORY_HEADER + "\n")
            fh.writelines(",".join(f"{x:.17g}" for x in row) + "\n" for row in rows)
        assert out.read_bytes() == expected.read_bytes()

    def test_precession_runs_without_warnings(self, tmp_path, capsys):
        # The shipped precession run has no jump operators: its entropy rate is 0
        # exactly, with no rank-deficient warning though its state stays pure.
        out = tmp_path / "precession.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["evolve", "--scenario", str(REPO / "scenarios" / "precession.json"), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        _, rows = read_rows(out)
        assert len(rows) == 33 and all(row["entropy_production"] == 0.0 for row in rows)


def assert_read_as_json_load(path):
    """load_scenario's scenario holds, bit for bit, the arrays that it holds when built
    from json.load's document through _complex_matrix."""
    scenario = load_scenario(str(path))
    raw = json.loads(path.read_text(encoding="utf-8"))
    matrices = [rholab.cli._complex_matrix(m, raw["dim"], "m") for m in [raw["rho0"], raw["hamiltonian"], *raw["jump_ops"]]]
    rho0, generator = DensityOperator(matrices[0]), LindbladGenerator(matrices[1], matrices[2:])
    read = [scenario.rho0.matrix, scenario.generator.hamiltonian, *scenario.generator.jump_ops]
    expected = [rho0.matrix, generator.hamiltonian, *generator.jump_ops]
    assert len(read) == len(expected)
    assert (scenario.t_end, scenario.dt, scenario.sample_every) == (raw["t_end"], raw["dt"], raw["sample_every"])
    for a, b in zip(read, expected):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def ising_chain_scenario(path, seed: int):
    """A 4-qubit (d = 16) scenario drawn as the benchmark's evolve-d16 workload draws
    it, and written as compact as it writes it: an Ising chain with random couplings
    and transverse fields, per-site decay and dephasing (8 jump operators) and a pure
    product rho0."""
    rng = np.random.default_rng(seed)
    x, z, lower = np.array([[0, 1], [1, 0]]), np.diag([1, -1]), np.array([[0, 0], [1, 0]])

    def site(op, i):
        return functools.reduce(np.kron, [op if j == i else np.eye(2) for j in range(4)])

    def m(a):
        return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(a, dtype=complex)]

    h = sum(rng.uniform(0.8, 1.2) * site(z, i) @ site(z, i + 1) for i in range(3))
    h = h + sum(rng.uniform(0.8, 1.2) * site(x, i) for i in range(4))
    jumps = [math.sqrt(rng.uniform(0.25, 0.35)) * site(op, i) for op in (lower, z) for i in range(4)]
    ket = functools.reduce(np.kron, [[math.cos(math.pi / 6), np.exp(1j * math.pi / 4) * math.sin(math.pi / 6)]] * 4)
    return write_scenario(path, dim=16, rho0=m(np.outer(ket, ket.conj())), hamiltonian=m(h),
                          jump_ops=[m(op) for op in jumps], t_end=30 / 64, dt=1 / 64, sample_every=5)


SYNTAX = "the message of json.loads' JSONDecodeError"
READ = "read as json.load reads it"
TEXT = scenario_text()
JUMP_OPS = TEXT.index('"jump_ops": ') + len('"jump_ops": ')
SIGMA_Z = BASE_SCENARIO["jump_ops"][0]
JUMP_OPS_A_MATRIX = ("jump_ops must be a list of matrices, got a single complex matrix"
                     " or matrices whose entries are not [re, im] pairs")

# Each case with the outcome load_scenario gave when it read the document with json.load.
DOCUMENTS = {
    "empty": ("", SYNTAX),
    "whitespace-only": (" \n\t", SYNTAX),
    "bom": ("\ufeff" + TEXT, SYNTAX),
    **{f"truncated-{k}": (TEXT[:k], SYNTAX) for k in (1, 9, 40, 120, JUMP_OPS + 3, len(TEXT) - 1)},
    "jump-ops-cut-after-an-element": (TEXT[:TEXT.index("]]]]") + 3] + ",", SYNTAX),
    "jump-ops-cut-before-a-comma": (TEXT[:TEXT.index("]]]]") + 3] + " ", SYNTAX),
    "jump-ops-trailing-comma": (TEXT.replace("]]]]", "]]],]"), SYNTAX),
    "missing-comma": (TEXT.replace(', "hamiltonian"', ' "hamiltonian"'), SYNTAX),
    "missing-colon": (TEXT.replace('"dt":', '"dt"'), SYNTAX),
    "trailing-data": (TEXT + " {}", SYNTAX),
    "trailing-comma": (TEXT[:-1] + ",}", SYNTAX),
    "unquoted-key": ("{dim: 2}", SYNTAX),
    "form-feed": ("\f" + TEXT, SYNTAX),
    "not-an-object": ("[1, 2]", "scenario document must be a JSON object"),
    "empty-object": (" { } ", "missing required field 'dim'"),
    "nan": (scenario_text(t_end=math.nan), "t_end must be a finite number, got nan"),
    "infinity": (scenario_text(dt=-math.inf), "dt must be a finite number, got -inf"),
    "infinity-entry": (TEXT.replace("[0.5, 0.0]]]", "[Infinity, 0.0]]]", 1), "rho0[1][1] must be a finite number, got inf"),
    "duplicate-keys": (TEXT[:-1] + ', "dt": 0.5, "rho0": 3}', "rho0: expected 2 rows"),
    "duplicate-matrix": (TEXT[:-1] + ', "rho0": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]}', READ),
    "unknown-keys": (TEXT[:-1] + ', "x": [[[1, 2]]], "y": [[[[1, 0]]]]}', READ),
    "dim-last": (json.dumps({**{k: v for k, v in BASE_SCENARIO.items() if k != "dim"}, "dim": 2}), READ),
    "escaped-key": (TEXT.replace('"rho0"', '"rho\\u0030"'), READ),
    "indented": (json.dumps(BASE_SCENARIO, indent=2), READ),
    "whitespace-between-brackets": (TEXT.replace("[", "[ \n").replace("]", "\t]"), READ),
    "integers-and-signed-zeros": (scenario_text(rho0=[[[1, 0], [0, 0]], [[0, 0], [0, -0.0]]]), READ),
    "ragged-rows": (scenario_text(rho0=[[[0.5, 0.0], [0.5, 0.0]], [[0.5, 0.0]]]), "rho0: row 1 must have 2 entries"),
    "wide-rows": (scenario_text(rho0=[[[0.5, 0.0]] * 3] * 2), "rho0: row 0 must have 2 entries"),
    "too-many-rows": (scenario_text(hamiltonian=[[[0.0, 0.0]] * 2] * 3), "hamiltonian: expected 2 rows"),
    "ragged-entry": (scenario_text(rho0=[[[0.5, 0.0], [0.5]], [[0.5, 0.0], [0.5, 0.0]]]),
                     "rho0[0][1]: complex entries must be [re, im] pairs, got [0.5]"),
    "string-entry": (TEXT.replace("[0.5, 0.0]]]", '["0.5", 0.0]]]', 1), "rho0[1][1] must be a finite number, got '0.5'"),
    "1e400-entry": (TEXT.replace("[0.5, 0.0]]]", "[1e400, 0.0]]]", 1), "rho0[1][1] must be a finite number, got inf"),
    "10**400-entry": (scenario_text(hamiltonian=[[[10**400, 0]] * 2] * 2),
                      f"hamiltonian[0][0] must be a finite number, got {10**400!r}"),
    "matrix-not-a-list": (scenario_text(rho0={"a": [[[1, 0]]]}), "rho0: expected 2 rows"),
    "jump-ops-empty": (scenario_text(jump_ops=[]), READ),
    "jump-ops-not-a-list": (scenario_text(jump_ops={"a": SIGMA_Z}), "jump_ops must be a list of matrices"),
    "jump-ops-a-matrix": (scenario_text(jump_ops=SIGMA_Z), JUMP_OPS_A_MATRIX),
    # At d = 2 a list of two real-valued matrices has the nesting and length of one complex matrix.
    "jump-ops-two-real-matrices": (scenario_text(jump_ops=[[[1, 0], [0, 0]], [[0, 0], [0, 1]]]), JUMP_OPS_A_MATRIX),
    # At d = 2 a list of one real-valued matrix has the depth of one complex matrix, not its length.
    "jump-ops-real-matrix": (scenario_text(jump_ops=[[[1, 0], [0, -1]]]),
                             "jump_ops[0][0][0]: complex entries must be [re, im] pairs, got 1"),
    "jump-ops-holding-a-number": (scenario_text(jump_ops=[SIGMA_Z, 3]), "jump_ops[1]: expected 2 rows"),
    "dim-a-matrix": (scenario_text(dim=[[[1, 2]]]), "dim must be a positive integer, got [[[1, 2]]]"),
    "t_end-a-matrix": (scenario_text(t_end=[[[1, 2]]]), "t_end must be a finite number, got [[[1, 2]]]"),
}


class TestScenarioDocument:
    """load_scenario reads the document a matrix at a time, with json.load's outcome."""

    @pytest.mark.parametrize("text, expected", DOCUMENTS.values(), ids=DOCUMENTS.keys())
    def test_outcome_of_json_load(self, tmp_path, text, expected):
        path = tmp_path / "s.json"
        path.write_text(text, encoding="utf-8")
        if expected is READ:
            assert_read_as_json_load(path)
            return
        if expected is SYNTAX:
            with pytest.raises(json.JSONDecodeError) as parsed:
                json.loads(text)
            exc = parsed.value
            expected = f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        with pytest.raises(ScenarioError) as caught:
            load_scenario(str(path))
        assert str(caught.value) == expected

    @pytest.mark.parametrize(
        "data, message",
        [
            (b'{"dim": 2, \xff\xfe}', "scenario error: cannot read scenario file: 'utf-8' codec can't decode byte 0xff"),
            (b"[" * 200_000 + b"]" * 200_000, "scenario error: invalid JSON: "),
            *((TEXT[:-1].encode() + b', "%s": ' % key.encode() + b"[" * 200_000 + b"]" * 200_000 + b"}",
               "scenario error: invalid JSON: ") for key in ("x", "rho0", "jump_ops")),
            # An integer of more digits than int() converts raises a plain ValueError in the scanner.
            *(pytest.param(TEXT.replace(old, new).encode(), "scenario error: invalid JSON: Exceeds the limit",
                           marks=pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                                                    reason="no integer digit limit"))
              for old, new in (('"dt": 0.01', '"dt": ' + "1" * 5000), ("[[[0.5, 0.0]", "[[[" + "1" * 5000 + ", 0.0]"))),
        ],
        ids=["invalid-utf8", "deep-document", "deep-member", "deep-matrix", "deep-jump-ops", "huge-int", "huge-int-matrix"],
    )
    def test_unreadable_document_exits_2_with_one_line(self, tmp_path, data, message):
        # In a child process, so an uncaught exception would show as exit 1 and a traceback.
        scenario, out = tmp_path / "s.json", tmp_path / "t.csv"
        scenario.write_bytes(data)
        result = run_cli_process(["evolve", "--scenario", str(scenario), "--out", str(out)])
        assert result.returncode == 2
        assert result.stderr.startswith(message) and result.stderr.count("\n") == 1
        assert "Traceback" not in result.stderr
        assert list(tmp_path.iterdir()) == [scenario]

    def test_matrices_are_read_one_at_a_time(self, tmp_path):
        # The benchmark's d = 16 scenario is 43 KB of text; json.load's document of it,
        # 5,120 boxed floats in 2,560 [re, im] lists, peaked the load at 0.43 MB.  Each
        # matrix converted as it is parsed, the load peaks at 0.165 MB (Python 3.11, numpy 2.4).
        path = ising_chain_scenario(tmp_path / "d16.json", seed=1)
        assert traced_peak(lambda: load_scenario(str(path))) <= 0.22e6
        assert_read_as_json_load(path)


def shipped_run(tmp_path, name: str, **overrides):
    """The shipped scenario `name` with `overrides`, written to tmp_path / "s.json"."""
    scenario = json.loads((REPO / "scenarios" / f"{name}.json").read_text())
    return write_scenario(tmp_path / "s.json", **{**scenario, **overrides})


def dephasing_run(tmp_path, samples: int):
    """The shipped dephasing scenario sampled at every step of dt = 1/1024 for `samples`
    samples: at d = 2, chunks of 1024 states, one write block each.  t_end and dt are
    exact in binary."""
    return shipped_run(tmp_path, "dephasing", t_end=(samples - 1) / 1024, dt=1 / 1024, sample_every=1)


def d16_run(tmp_path):
    """51 samples at d = 16: rho0 = I/16, H = diag(0..15)/16 and one jump operator 0.3
    times the lower shift; chunks of 16 states."""
    def m(a):
        return [[[float(x), 0.0] for x in row] for row in a]

    n = 16
    return write_scenario(tmp_path / "s.json", dim=n, rho0=m(np.eye(n) / n), hamiltonian=m(np.diag(np.arange(n)) / n),
                          jump_ops=[m(0.3 * np.eye(n, k=-1))], t_end=50 / 64, dt=1 / 64, sample_every=1)


def whole_run_csv(path) -> bytes:
    """The trajectory CSV of a scenario from evolve_lindblad's whole-run Trajectory,
    tabulated chunk_length(dim) samples at a time, every row built before any is written."""
    s = load_scenario(str(path))
    g = s.generator
    trajectory = evolve_lindblad(g, s.rho0, s.t_end, s.dt, s.sample_every)
    rows, chunk = [], rholab.channels.chunk_length(g.dim)
    for start in range(0, len(trajectory), chunk):
        part = slice(start, start + chunk)
        states = trajectory.states[part]
        rows.extend(zip(trajectory.times[part].tolist(), trajectory.raw_traces[part].tolist(), purity(states).tolist(),
                        von_neumann_entropy(states).tolist(), states.eigenvalues[:, 0].tolist(),
                        jump_entropy_rate(states, g.jump_ops).tolist()))
    return "".join([TRAJECTORY_HEADER + "\n"] + [",".join(f"{x:.17g}" for x in row) + "\n" for row in rows]).encode()


class TestStreamedEvolve:
    """`rholab evolve` writes each validated chunk's rows as they are made, a block of
    1024 rows per write."""

    @pytest.mark.parametrize("chunk_entries", [rholab.channels.CHUNK_ENTRIES, 16 * 2**2], ids=["chunks", "small-chunks"])
    @pytest.mark.parametrize("samples", [1, 1023, 1024, 1025, 2049, "d16"])
    def test_streamed_csv_equals_the_whole_run_table(self, tmp_path, monkeypatch, samples, chunk_entries):
        # Runs that end inside, at and just past a write block, in chunks of 1024 d = 2
        # states (one per block) and of 16 (64 per block; one state per chunk at d = 16).
        monkeypatch.setattr(rholab.channels, "CHUNK_ENTRIES", chunk_entries)
        path = d16_run(tmp_path) if samples == "d16" else dephasing_run(tmp_path, samples)
        out = tmp_path / "t.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert main(["evolve", "--scenario", str(path), "--out", str(out)]) == 0
            expected = whole_run_csv(path)
        assert out.read_bytes() == expected
        assert len(expected.splitlines()) == 1 + (51 if samples == "d16" else samples)

    RATE_MARKER = np.diag([0.75, 0.25]).astype(complex)  # valid, and off the dephasing path from |x+><x+|

    def plant(self, monkeypatch, invalid=None, overflow=None, drift=None):
        """Make sample `invalid` of the next run a state that is not positive, sample
        `overflow` a valid state whose entropy rate overflows, and sample `drift` the
        first to fail the drift check (with NaN), planted in the states that
        `evolve_chunks` propagates, before their clean-up and validation.  Returns the
        list of states that jump_entropy_rate is called on."""
        build, rate, rated = rholab.channels._taylor_propagator, rholab.cli.jump_entropy_rate, []
        planted = [(sample, matrix) for sample, matrix in ((invalid, np.diag([1.5, -0.5])), (overflow, self.RATE_MARKER),
                                                          (drift, np.nan)) if sample is not None]

        def propagator(g, dt, remainder=0.0):
            propagate = build(g, dt, remainder)

            def planting(rho, full, last, out=None):
                if out is None:  # an interval stepped alone, from the planted drift on: it drifts too
                    return np.full_like(rho, np.nan)
                propagate(rho, full, last, out)  # samples 1, 2, ... of a d = 2 run, all at once
                for sample, matrix in planted:
                    out[sample - 1] = matrix
                return out

            return planting

        def overflowing(states, jumps):
            rated.append(states)
            matrices = states.matrices if isinstance(states, DensityStack) else states.matrix[None]
            if (matrices == self.RATE_MARKER).all(axis=(1, 2)).any():
                raise ValidationError("entropy rate overflows or is not finite")
            return rate(states, jumps)

        monkeypatch.setattr(rholab.channels, "_taylor_propagator", propagator)
        monkeypatch.setattr(rholab.cli, "jump_entropy_rate", overflowing)
        return rated

    @pytest.mark.parametrize("planted, sample, message", [
        ({"invalid": 1500}, 1500, "emitted state invalid (density is not positive: min eigenvalue = -5.000e-01)"),
        ({"overflow": 1500}, 1500, "entropy rate overflows or is not finite"),
        # An earlier chunk's rate overflow wins over a later chunk's invalid state.
        ({"overflow": 1100, "invalid": 2048}, 1100, "entropy rate overflows or is not finite"),
    ], ids=["invalid-state", "rate-overflow", "overflow-before-invalid-state"])
    @pytest.mark.parametrize("existing", [False, True], ids=["new-out", "existing-out"])
    def test_a_failure_after_the_first_write_block_exits_3_leaving_out_as_it_was(
            self, tmp_path, monkeypatch, capsys, planted, sample, message, existing):
        # 2049 d = 2 samples, three chunks and write blocks: the failing sample is in the
        # second or third, after the header and the first block went to the temp file.
        path, out = dephasing_run(tmp_path, 2049), tmp_path / "t.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert main(["evolve", "--scenario", str(path), "--out", str(out)]) == 0
        first_block = b"".join(out.read_bytes().splitlines(keepends=True)[:1025])
        if existing:
            out.write_text("stale")
        else:
            out.unlink()
        self.plant(monkeypatch, **planted)
        write_output, written = rholab.cli._write_output, []

        def spied(path, write):
            def recorded(fh):
                try:
                    write(fh)
                finally:
                    fh.flush()
                    written.append(Path(fh.name).read_bytes())
            return write_output(path, recorded)

        monkeypatch.setattr(rholab.cli, "_write_output", spied)
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert main(["evolve", "--scenario", str(path), "--out", str(out)]) == 3
        assert capsys.readouterr() == ("", f"integration failure: {message} at t={sample / 1024:.6g}\n")
        assert written == [first_block]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.json"] + ["t.csv"] * existing
        if existing:
            assert out.read_text() == "stale"

    def test_a_drift_failure_tabulates_no_chunk(self, tmp_path, monkeypatch, capsys):
        # The drift check fails at sample 1500: samples 0 to 1499 are validated in two
        # chunks, and none of them is tabulated or written.
        path = dephasing_run(tmp_path, 2049)
        rated = self.plant(monkeypatch, drift=1500)
        calls = count_eigensolves(monkeypatch)
        assert main(["evolve", "--scenario", str(path), "--out", str(tmp_path / "t.csv")]) == 3
        assert capsys.readouterr().err == f"integration failure: trace drift nan exceeds 1e-07 at t={1500 / 1024:.6g}\n"
        assert rated == [] and calls == [1, 1023, 476]  # rho0 as the scenario loads, then the two chunks after it
        assert list(tmp_path.iterdir()) == [path]

    def test_ctrl_c_mid_write_exits_130_leaving_no_file(self, tmp_path, monkeypatch, capsys):
        # Ctrl-C while the temp file is open and its second row is being made: one
        # stderr line, exit code 130 and an empty output directory.
        scenario, out_dir = write_scenario(tmp_path / "s.json", rho0=_matrix(np.eye(2) / 2)), tmp_path / "out"
        out_dir.mkdir()
        rows, seen = rholab.cli.trajectory_rows, []

        def interrupted(scenario):
            made = iter(rows(scenario))
            yield next(made)
            seen.extend(p.name for p in out_dir.iterdir())
            raise KeyboardInterrupt

        monkeypatch.setattr(rholab.cli, "_WRITE_BLOCK", 1)  # the first row is written before the second is made
        monkeypatch.setattr(rholab.cli, "trajectory_rows", interrupted)
        try:
            code = main(["evolve", "--scenario", str(scenario), "--out", str(out_dir / "t.csv")])
        except KeyboardInterrupt:  # not let through: it would end the test session
            pytest.fail("KeyboardInterrupt escaped main")
        assert code == 130
        assert capsys.readouterr() == ("", "interrupted\n")
        assert seen == [f"t.csv.{os.getpid()}.tmp"]
        assert list(out_dir.iterdir()) == []

    def test_peak_memory(self, tmp_path):
        # Only the run's states, times and raw traces (1.6 MB at 2 * 10^4 d = 2 samples)
        # are held for the whole run; spectra and rows are made and written a chunk at a
        # time.  Building every row and spectrum first peaked at 8.1 MB.  The run under
        # tracemalloc writes the same bytes as the one before it.
        path, out, traced = dephasing_run(tmp_path, 2 * 10**4), tmp_path / "t.csv", tmp_path / "traced.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert main(["evolve", "--scenario", str(path), "--out", str(out)]) == 0  # fills the solver's tables
            assert peak_of(lambda: main(["evolve", "--scenario", str(path), "--out", str(traced)])) <= 3.5e6
        assert traced.read_bytes() == out.read_bytes()

    def test_a_run_at_the_sample_cap(self, tmp_path):
        # 10^5 samples, the cap, written as the header and one row per sample.  Only the
        # run's states, times and raw traces (8 MB) are held for the whole run, so the
        # peak is those plus one chunk's spectra and rows.  The sample times are running
        # sums of dt, one step at a time, also where the intervals are propagated at once.
        path, out = dephasing_run(tmp_path, 10**5), tmp_path / "t.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert peak_of(lambda: main(["evolve", "--scenario", str(path), "--out", str(out)])) <= 10e6
        lines = out.read_bytes().splitlines()
        assert lines[0].decode() == TRAJECTORY_HEADER and len(lines) == 10**5 + 1
        assert lines[-1].split(b",")[0] == b"97.6552734375"  # 99999/1024
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.json", "t.csv"]

    @pytest.mark.parametrize("overrides, samples, last_t", [
        # 4001 samples, four d = 2 chunks of at most 1024 states.  No hash is pinned,
        # since the last bits differ across BLAS builds.
        ({"dt": 0.001, "sample_every": 1}, 4001, None),
        # Every partial sum of 1/1024 is exact, so it cannot tell the order of the sum;
        # dt = 0.001 can.  10^5 steps, sampled every 1000: the last time is dt added
        # one step at a time.
        ({"t_end": 100, "dt": 0.001, "sample_every": 1000}, 101, list(itertools.accumulate([0.001] * 10**5))[-1]),
    ], ids=["every-step", "10^5-steps"])
    def test_a_long_amplitude_damping_run(self, tmp_path, overrides, samples, last_t):
        path, out = shipped_run(tmp_path, "amplitude_damping", **overrides), tmp_path / "t.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert main(["evolve", "--scenario", str(path), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == TRAJECTORY_HEADER and len(lines) == samples + 1
        if last_t is not None:
            assert lines[-1].split(",")[0] == f"{last_t:.17g}"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.json", "t.csv"]

    def test_a_d16_run(self, tmp_path, capsys):
        # 51 samples, four chunks of at most 16 states, with nothing on stderr.  The
        # scenario written with indent=2 writes the same bytes: the matrices are read
        # one at a time as they are parsed, with whitespace wherever JSON allows it.  A
        # run under tracemalloc writes them too; its peak is one 16-state chunk's
        # eigensolve or jump rates on top of the run's arrays: 0.480-0.481 MB on Python 3.11
        # with numpy 2.4, and 0.582 MB while the solver and the rate kernel held more
        # copies of the chunk.
        path, indented = d16_run(tmp_path), tmp_path / "indented.json"
        indented.write_text(json.dumps(json.loads(path.read_text()), indent=2))
        out = {name: tmp_path / f"{name}.csv" for name in ("t", "indented", "traced")}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["evolve", "--scenario", str(path), "--out", str(out["t"])]) == 0
            assert main(["evolve", "--scenario", str(indented), "--out", str(out["indented"])]) == 0
            assert traced_peak(lambda: main(["evolve", "--scenario", str(path), "--out", str(out["traced"])])) <= 0.56e6
        assert capsys.readouterr().err == ""
        lines = out["t"].read_bytes().splitlines()
        assert lines[0].decode() == TRAJECTORY_HEADER and len(lines) == 52
        assert out["indented"].read_bytes() == out["t"].read_bytes() == out["traced"].read_bytes()
        listing = ["indented.csv", "indented.json", "s.json", "t.csv", "traced.csv"]
        assert sorted(p.name for p in tmp_path.iterdir()) == listing


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

    @pytest.mark.parametrize("b, n, seed, digest", [
        # Pinned from the singlet density validated by an eigensolve: its closed-form
        # spectrum leaves the matrix, so the joint law and the events, the same bytes.
        ("0.6,0,0.8", 1000, 42, "14d137955a16a2bea25fb14dbb7178239e837a7e048e5247c0e2508078723b7e"),
        # Pinned from the writer that wrote one row at a time; these span several blocks.
        ("0.6,0,0.8", 5000, 42, "c24c3d54c0262a92cef4a6a932dde37d88c031c60b2c7089867ad145012c25a5"),
        ("0.6,0,0.8", 100_000, 42, "4a055fdfdc65e875bc5acee50e9120d5878f732e2dd77998e715a232d288da7e"),
        # Aligned detectors: a law with two zero-probability outcomes, whose cumulative
        # entries tie.  Pinned from draws by Generator.choice, on numpy 1.24 and 2.x alike.
        ("0,0,1", 100_000, 7, "9bc3b268f490a3c2423be7b0858dd819444e57456f73dd3210da437a0db5b705"),
    ], ids=["1000", "5000", "100000", "100000-aligned"])
    def test_pinned_event_stream(self, tmp_path, capsys, b, n, seed, digest):
        out = tmp_path / "events.csv"
        assert main(["sample", "--a", "0,0,1", "--b", b, "--n", str(n), "--seed", str(seed), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        data = out.read_bytes()
        assert data.count(b"\n") == n + 3  # two header lines and a summary line
        assert hashlib.sha256(data).hexdigest() == digest
        assert list(tmp_path.iterdir()) == [out]

    @pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 5000])
    def test_block_written_rows_equal_per_event_rows(self, tmp_path, n):
        # Either side of each block boundary of the writer.
        out = tmp_path / "events.csv"
        assert main(["sample", "--a", "0,0,1", "--b", "0.6,0,0.8", "--n", str(n), "--seed", "42",
                     "--out", str(out)]) == 0
        assert out.read_bytes() == event_file_from_sample_events("0,0,1", "0.6,0,0.8", n, 42).encode()

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

    @pytest.mark.parametrize("a, b, label", [("0,0", "0,0,1", "--a"), ("0,0,1", "0,0,1,0", "--b")])
    def test_bad_vector_format(self, tmp_path, capsys, a, b, label):
        # A wrong component count is a ShapeError of UnitVector3.from_iterable.
        out = tmp_path / "x.csv"
        code = main(["sample", "--a", a, "--b", b, "--n", "10", "--out", str(out)])
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"input error: {label}")
        assert not out.exists()

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


SAMPLE_ARGS = ["sample", "--a", "0,0,1", "--b", "1,0,0", "--n", "10"]


@pytest.mark.parametrize(
    "args, out_name",
    [
        (SAMPLE_ARGS + ["--seed", "-1"], "events.csv"),
        (SAMPLE_ARGS + ["--n", "0"], "events.csv"),
        (SAMPLE_ARGS + ["--n", str(MAX_EVENTS + 1)], "events.csv"),
        (["sample", "--a", "nan,0,1", "--b", "1,0,0", "--n", "10"], "events.csv"),
        (["evolve", "--scenario", "{tmp}"], "trajectory.csv"),
        (SAMPLE_ARGS, "missing/events.csv"),
    ],
    ids=["negative-seed", "zero-n", "n-above-cap", "nan-vector", "scenario-directory", "missing-out-dir"],
)
def test_bad_input_exits_2_with_one_line(tmp_path, args, out_name):
    # In a child process, so an uncaught exception would show as exit 1 and a traceback.
    out = tmp_path / out_name
    args = [a.replace("{tmp}", str(tmp_path)) for a in args]
    result = run_cli_process(args + ["--out", str(out)])
    assert result.returncode == 2
    assert "Traceback" not in result.stderr and result.stderr.count("\n") == 1
    assert result.stderr.split(":", 1)[0] in ("input error", "scenario error", "output error")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["evolve", "sample"])
def test_an_out_that_is_not_a_regular_file_exits_2_leaving_it_as_it_was(tmp_path, capsys, command):
    # Renaming the temp file over a FIFO, or a device node, would replace it.
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    if command == "evolve":
        args = ["evolve", "--scenario", str(write_scenario(tmp_path / "s.json", rho0=_matrix(np.eye(2) / 2)))]
    else:
        args = SAMPLE_ARGS
    assert main(args + ["--out", str(fifo)]) == 2
    assert capsys.readouterr() == ("", f"output error: cannot write {fifo}: not a regular file\n")
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fifo"] + ["s.json"] * (command == "evolve")


@pytest.mark.parametrize("command", ["evolve", "sample"])
def test_an_out_that_is_a_symbolic_link_replaces_its_target(tmp_path, capsys, command):
    # Renaming the temp file over the link itself would turn it into a regular file
    # and leave its target as it was.
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_text("old")
    link.symlink_to(target.name)
    if command == "evolve":
        args = ["evolve", "--scenario", str(write_scenario(tmp_path / "s.json", rho0=_matrix(np.eye(2) / 2)))]
    else:
        args = SAMPLE_ARGS
    assert main(args + ["--out", str(link)]) == 0
    assert main(args + ["--out", str(tmp_path / "plain.csv")]) == 0
    assert capsys.readouterr().err == ""
    assert link.is_symlink() and os.readlink(link) == target.name
    assert target.read_bytes() == (tmp_path / "plain.csv").read_bytes()
    names = ["link.csv", "plain.csv", "target.csv"] + ["s.json"] * (command == "evolve")
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)


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


class WriteRecorder(io.StringIO):
    """A text file that keeps the argument of each write call."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


@pytest.mark.parametrize("rows", [0, 1, 1024, 1025], ids=["none", "one", "one-block", "one-block-and-a-row"])
@pytest.mark.parametrize("command", ["evolve", "sample"])
def test_writes_each_block_once(tmp_path, monkeypatch, command, rows):
    # One write per block of 1024 rows, between the header's and the summary's writes,
    # of the bytes that writing one row at a time gives.
    fh = WriteRecorder()
    monkeypatch.setattr(rholab.cli, "_write_output", lambda path, write: write(fh) or True)
    if command == "evolve":
        table = [tuple((k + c) / 3 for c in range(6)) for k in range(rows)]
        monkeypatch.setattr(rholab.cli, "trajectory_rows", lambda scenario: iter(table))
        assert main(["evolve", "--scenario", str(write_scenario(tmp_path / "s.json")), "--out", "t.csv"]) == 0
        head, tail = [TRAJECTORY_HEADER + "\n"], []
        body = [",".join(f"{x:.17g}" for x in row) + "\n" for row in table]
    else:
        events = sample_events(DetectorPair(Z_AXIS, X_AXIS), rows + 1, 42)[:rows]
        monkeypatch.setattr(rholab.cli, "sample_events", lambda pair, n, seed: events)
        monkeypatch.setattr(rholab.cli, "empirical_correlation", lambda events: 0.5)
        assert main(["sample", "--a", "0,0,1", "--b", "1,0,0", "--n", str(rows), "--out", "e.csv"]) == 0
        head = [f"# seed=42 n={rows}\n", EVENT_HEADER + "\n"]
        tail = ["# summary empirical_correlation=0.5 analytic_correlation=-0\n"]
        body = [f"0,0,1,1,0,0,{oa},{ob}\n" for oa, ob in zip(events.outcome_a.tolist(), events.outcome_b.tolist())]
    blocks = fh.writes[len(head):len(fh.writes) - len(tail)]
    assert fh.writes[:len(head)] == head and fh.writes[len(fh.writes) - len(tail):] == tail
    assert len(blocks) == math.ceil(rows / 1024)
    assert "".join(blocks) == "".join(body)


def test_sample_peak_memory(monkeypatch):
    # The row index of each event is one int8 array: at 10^6 events it peaks near
    # 2 MB, where an int64 index (and its two bool temporaries) peaked at 9.1 MB.
    n = 10**6
    events = sample_events(DetectorPair(Z_AXIS, X_AXIS), n, 42)
    monkeypatch.setattr(rholab.cli, "sample_events", lambda pair, n, seed: events)
    with open(os.devnull, "w", encoding="utf-8") as devnull:
        monkeypatch.setattr(rholab.cli, "_write_output", lambda path, write: write(devnull) or True)
        tracemalloc.start()
        try:
            assert rholab.cli.cmd_sample("0,0,1", "1,0,0", n, 42, "e.csv") == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 4e6


def test_readme_library_quickstart_runs(capsys):
    text = (REPO / "README.md").read_text(encoding="utf-8")
    block = text.split("## Library quickstart", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("2.828427124746")
    assert lines[1] == "[0.75 0.25]"
    assert lines[2:] == [f"t={t}  rho01={c}+0.000000j" for t, c in [
        ("0.00", "0.500000"), ("0.25", "0.303265"), ("0.50", "0.183940"), ("0.75", "0.111565"), ("1.00", "0.067668")]]
