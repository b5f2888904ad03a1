"""Command-line front end.

Three commands: `demo` replays the worked examples with PASS/FAIL checks
against pinned expected values, `evolve` integrates a scenario file and
writes a trajectory CSV, `sample` draws seeded singlet coincidences and
writes an event CSV.  Exit codes: 0 success, 2 usage or input error,
3 numerical-invariant failure during integration, 130 interrupted (Ctrl-C).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from itertools import chain, islice
from typing import Callable, Iterator, Sequence, TextIO

import numpy as np

from . import __version__
from .bell import (
    DetectorPair,
    chsh_value,
    empirical_correlation,
    filter_inequality_demo,
    ghz_check,
    maximal_chsh_orientations,
    no_cloning_demo,
    sample_events,
    singlet_correlation,
    singlet_variance,
)
from .bipartite import no_signalling_check, partial_trace_a, singlet
from .channels import LindbladGenerator, SampleStream, evolve_chunks, step_schedule
from .density import (
    DensityOperator,
    DensityStack,
    ProperMixture,
    gram_factor,
    mixture_to_density,
    purity,
    remix,
)
from .entropy import jump_entropy_rate, von_neumann_entropy
from .errors import IntegrationError, ValidationError
from .linalg import _Record, first_failure, is_finite_real, is_integer, require_hermitian
from .spin import UnitVector3, spin_half_basis, spin_one_set

DEFAULT_SEED = 42

# Expected values printed by the demos.  All are exact consequences of the
# implemented formulas; the quoted decimals match the standard results.
_EXPECTED = {
    "chsh_max": 2.0 * math.sqrt(2.0),  # Tsirelson value on the maximal orientations
    "p_full_span": 0.25,  # P(pi/2) for the spin filter
    "p_half_span_doubled": math.sin(math.pi / 8.0) ** 2,  # 2 P(pi/4) = 0.146...
    "nonunique_weights": (0.75, 0.25),  # remixed weights of the worked example
    "cloning_fidelity": 0.5,  # overlap^2 of linear clone with true clone
}


_NUMBER = "%.17g"  # how every number is written: exact round-trip of a double


def _fmt(x: float) -> str:
    return _NUMBER % x


class _Checks:
    """Collects printed PASS/FAIL lines for one demo."""

    def __init__(self):
        self.ok = True

    def check(self, label: str, value: float, expected: float, tol: float) -> None:
        good = abs(value - expected) <= tol
        self.ok = self.ok and good
        status = "PASS" if good else "FAIL"
        print(f"  {label}: {_fmt(value)} expected {_fmt(expected)} [{status}]")

    def check_true(self, label: str, good: bool) -> None:
        self.ok = self.ok and good
        print(f"  {label} [{'PASS' if good else 'FAIL'}]")


def _demo_chsh() -> bool:
    checks = _Checks()
    a0, a1, b0, b1 = maximal_chsh_orientations()
    print("CHSH on a0=z, a1=x, b0=-(x+z)/sqrt2, b1=(x-z)/sqrt2")
    value = chsh_value(a0, a1, b0, b1)
    checks.check("<X>", value, _EXPECTED["chsh_max"], 1e-12)
    checks.check_true("violates the value-assignment bound |<X>| <= 2", abs(value) > 2.0)
    return checks.ok


def _demo_filter() -> bool:
    checks = _Checks()
    report = filter_inequality_demo()
    print("Spin filter: realist segment bound P(pi/2) <= 2 P(pi/4)")
    checks.check("P(pi/2)", report.p_full_span, _EXPECTED["p_full_span"], 1e-12)
    checks.check(
        "2 P(pi/4)", report.doubled_p_half_span, _EXPECTED["p_half_span_doubled"], 1e-12
    )
    checks.check_true("quantum law violates the bound", report.violates_realist_bound)
    return checks.ok


def _demo_ghz() -> bool:
    checks = _Checks()
    report = ghz_check()
    print("GHZ three-spin eigenvalue pattern on 2^{-1/2}(|---> - |+++>)")
    for label, expected in report.expected.items():
        checks.check(f"S_{label}", report.eigenvalues[label], expected, 1e-12)
    checks.check_true("max eigen-residual below 1e-12", report.max_residual <= 1e-12)
    print(
        "  value-assignment product a_x b_x c_x = "
        f"{report.classical_xxx_product:+.0f}, quantum S_xxx = "
        f"{report.eigenvalues['xxx']:+.0f}"
    )
    return checks.ok


def _demo_nocloning() -> bool:
    checks = _Checks()
    report = no_cloning_demo()
    print("Linear basis-cloning map applied to |x+>|blank>")
    checks.check("fidelity to true clone", report.fidelity, _EXPECTED["cloning_fidelity"], 1e-12)
    for i, f in enumerate(report.basis_fidelities):
        checks.check(f"basis ket {i} clone fidelity", f, 1.0, 1e-12)
    cross = max(abs(report.cross_amplitudes[0]), abs(report.cross_amplitudes[1]))
    checks.check("largest cross-term amplitude", cross, 0.0, 1e-12)
    return checks.ok


def _print_mixture(label: str, mixture: ProperMixture) -> None:
    print(f"  {label}:")
    for weight, ket in zip(mixture.weights, mixture.kets):
        amps = ", ".join(f"{c.real:+.6f}{c.imag:+.6f}i" for c in ket)
        print(f"    p={weight:.6f}  ket=({amps})")


def _demo_nonunique() -> bool:
    checks = _Checks()
    kets = spin_half_basis()
    print("Two distinct proper mixtures of one density operator")
    first = ProperMixture([(0.5, kets.x_plus), (0.5, kets.y_plus)])
    chi1 = (kets.x_plus + kets.y_plus) / math.sqrt(3.0)
    chi2 = kets.x_plus - kets.y_plus
    second = ProperMixture([(0.75, chi1), (0.25, chi2)])
    _print_mixture("mixture 1 (equal x+/y+ weights)", first)
    _print_mixture("mixture 2 (3/4, 1/4 on non-orthogonal kets)", second)
    rho1 = mixture_to_density(first).matrix
    rho2 = mixture_to_density(second).matrix
    deviation = float(np.max(np.abs(rho1 - rho2)))
    checks.check("max entrywise density deviation", deviation, 0.0, 1e-11)

    factor = gram_factor(first, [kets.z_plus, kets.z_minus])
    u = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    remixed = remix(factor, u)
    weights = sorted(remixed.weights, reverse=True)
    expected = _EXPECTED["nonunique_weights"]
    checks.check("remixed weight 1", weights[0], expected[0], 1e-12)
    checks.check("remixed weight 2", weights[1], expected[1], 1e-12)
    deviation = float(np.max(np.abs(mixture_to_density(remixed).matrix - rho1)))
    checks.check("remixed density deviation", deviation, 0.0, 1e-11)
    return checks.ok


def _demo_singlet() -> bool:
    checks = _Checks()
    print("Singlet correlation, variance, and reduced density")
    z = UnitVector3(0.0, 0.0, 1.0)
    x = UnitVector3(1.0, 0.0, 0.0)
    checks.check("correlation at a=b=z", singlet_correlation(DetectorPair(z, z)), -1.0, 1e-12)
    checks.check("correlation at a=z, b=x", singlet_correlation(DetectorPair(z, x)), 0.0, 1e-12)
    checks.check("variance at a=b", singlet_variance(DetectorPair(z, z)), 0.0, 1e-12)
    checks.check("variance at a perp b", singlet_variance(DetectorPair(z, x)), 1.0, 1e-12)
    reduced = partial_trace_a(singlet().projector(), singlet().space)
    deviation = float(np.max(np.abs(reduced - np.eye(2) / 2.0)))
    checks.check("reduced density deviation from I/2", deviation, 0.0, 1e-12)
    return checks.ok


def _demo_spin1() -> bool:
    checks = _Checks()
    s = spin_one_set()
    print("Spin-1 operator identities")
    eye = np.eye(3)
    for axis in "xyz":
        dev = float(
            np.max(np.abs(s.spin_squared(axis) + s.projector(axis, 0) - eye))
        )
        checks.check(f"S_{axis}^2 + P_{axis}0 - I", dev, 0.0, 1e-12)
    partition = s.projector("x", 0) + s.projector("y", 0) + s.projector("z", 0)
    checks.check("P_x0 + P_y0 + P_z0 - I", float(np.max(np.abs(partition - eye))), 0.0, 1e-12)
    comm = s.sx2 @ s.sy2 - s.sy2 @ s.sx2
    checks.check("[S_x^2, S_y^2]", float(np.max(np.abs(comm))), 0.0, 1e-12)
    return checks.ok


def _demo_nosignal() -> bool:
    checks = _Checks()
    print("Reduced b-side density before/after an a-side measurement (singlet)")
    kets = spin_half_basis()
    for label, basis in (("z", (kets.z_plus, kets.z_minus)), ("x", (kets.x_plus, kets.x_minus))):
        before, after = no_signalling_check(singlet().density(), list(basis))
        dev = float(np.max(np.abs(before - after)))
        checks.check(f"a-basis {label}: max change of rho_b", dev, 0.0, 1e-11)
        dev_half = float(np.max(np.abs(before - np.eye(2) / 2.0)))
        checks.check(f"a-basis {label}: rho_b deviation from I/2", dev_half, 0.0, 1e-12)
    return checks.ok


_DEMOS = {
    "nonunique": _demo_nonunique,
    "chsh": _demo_chsh,
    "ghz": _demo_ghz,
    "filter": _demo_filter,
    "singlet": _demo_singlet,
    "spin1": _demo_spin1,
    "nocloning": _demo_nocloning,
    "nosignal": _demo_nosignal,
}


def cmd_demo(name: str) -> int:
    runner = _DEMOS.get(name)
    if runner is None:
        print(f"unknown demo {name!r}; choose from {', '.join(sorted(_DEMOS))}", file=sys.stderr)
        return 2
    ok = runner()
    print("overall: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 3


class ScenarioError(ValueError):
    pass


class Scenario(_Record):
    """Parsed open-system evolution scenario."""

    __slots__ = ("rho0", "generator", "t_end", "dt", "sample_every")

    def __init__(self, rho0: DensityOperator, generator: LindbladGenerator, t_end: float, dt: float,
                 sample_every: int):
        self.__setstate__((rho0, generator, t_end, dt, sample_every))


_NUMBER_TYPES = {int, float}  # of a JSON number; a bool is not one


def _finite_number(value, name: str) -> float:
    if not is_finite_real(value):  # of a JSON value: an int or a float
        raise ScenarioError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _complex_entry(value, where: str) -> complex:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ScenarioError(f"{where}: complex entries must be [re, im] pairs, got {value!r}")
    return complex(_finite_number(value[0], where), _finite_number(value[1], where))


def _is_pair(value) -> bool:
    """Whether value is an [re, im] pair of JSON numbers."""
    return isinstance(value, list) and len(value) == 2 and set(map(type, value)) <= _NUMBER_TYPES


def _complex_array(value) -> np.ndarray | None:
    """value as a read-only complex array, if it is a non-empty list of equally long
    rows of finite [re, im] number pairs; otherwise None.

    The numbers are type-checked in one pass and converted as one float array
    viewed as complex, which is exact and keeps the sign of zero.
    """
    if not isinstance(value, list) or set(map(type, value)) != {list} or len(set(map(len, value))) != 1:
        return None
    entries = list(chain.from_iterable(value))
    if set(map(type, entries)) != {list} or set(map(len, entries)) != {2}:
        return None
    numbers = list(chain.from_iterable(entries))
    if not set(map(type, numbers)) <= _NUMBER_TYPES:
        return None
    try:
        flat = np.array(numbers, dtype=float)
    except OverflowError:  # an integer beyond the float range
        return None
    if not np.isfinite(flat).all():
        return None
    flat.setflags(write=False)  # so the validated values keep it without a copy
    return flat.view(complex).reshape(len(value), -1)


def _complex_matrix(value, dim: int, where: str) -> np.ndarray:
    """A dim x dim matrix of [re, im] pairs, or one that `_complex_array` converted as
    it was read, as a read-only complex array."""
    if isinstance(value, np.ndarray):
        if len(value) != dim:
            raise ScenarioError(f"{where}: expected {dim} rows")
        if value.shape[1] != dim:  # every row has this length
            raise ScenarioError(f"{where}: row 0 must have {dim} entries")
        return value
    if not isinstance(value, list) or len(value) != dim:
        raise ScenarioError(f"{where}: expected {dim} rows")
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != dim:
            raise ScenarioError(f"{where}: row {i} must have {dim} entries")
    matrix = _complex_array(value)
    if matrix is not None:
        return matrix
    # Some entry fails that check, and so fails _complex_entry: name the first.
    for k, entry in enumerate(chain.from_iterable(value)):
        _complex_entry(entry, f"{where}[{k // dim}][{k % dim}]")
    raise ScenarioError(f"{where}: entries must be finite [re, im] pairs")


_scan = json.JSONDecoder().scan_once  # json.loads' C scanner: the JSON value at an index


def _read_matrix(text: str, idx: int) -> tuple[object, int]:
    """The JSON value at idx and the index after it, converted by `_complex_array`
    where it can be, so that only one matrix's boxed numbers are alive at a time."""
    value, end = _scan(text, idx)
    matrix = _complex_array(value)
    return (value if matrix is None else matrix), end


class _MemberReader(dict):
    """The value reader and key memo that `json.decoder.JSONObject` takes for the
    top-level object.  JSONObject passes each member's key to the memo's setdefault
    right before it reads the member's value, so the reader knows the member: rho0
    and hamiltonian are read by `_read_matrix`, the elements of a jump_ops list one at
    a time by `_read_matrix`, and every other value by the C scanner."""

    key = None

    def setdefault(self, key, default=None):
        self.key = key
        return key

    def __call__(self, text: str, idx: int) -> tuple[object, int]:
        if self.key in ("rho0", "hamiltonian"):
            return _read_matrix(text, idx)
        if self.key == "jump_ops" and text.startswith("[", idx):
            return json.decoder.JSONArray((text, idx + 1), _read_matrix)
        return _scan(text, idx)


class _ScenarioDecoder(json.JSONDecoder):
    """json.loads' decoder, with the matrices of a top-level object converted as they
    are parsed (`_MemberReader`).  json.loads itself handles the BOM, whitespace,
    empty documents and trailing data."""

    scan_once = _scan

    def __init__(self):
        """Builds no scanner of its own (`scan_once` is shared): json.loads makes a
        decoder per document, and a scanner built per load left about 0.5 KB
        allocated after each `rholab evolve` run (tracemalloc, CPython 3.11)."""

    def raw_decode(self, s: str, idx: int = 0) -> tuple[object, int]:
        if not s.startswith("{", idx):
            return super().raw_decode(s, idx)
        reader = _MemberReader()
        return json.decoder.JSONObject((s, idx + 1), True, reader, None, None, reader)


def load_scenario(path: str) -> Scenario:
    """Parse and validate a scenario document: UTF-8 JSON, its matrices converted one
    at a time as they are parsed."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from exc
    try:
        raw = json.loads(text, cls=_ScenarioDecoder)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except (RecursionError, ValueError) as exc:  # too deep for the C scanner, or an integer too long for int()
        if isinstance(exc, ValueError) and not str(exc).startswith("Exceeds the limit"):
            raise
        raise ScenarioError(f"invalid JSON: {exc}") from exc
    del text  # 43 KB at d = 16, which the checks below need not hold
    if not isinstance(raw, dict):
        raise ScenarioError("scenario document must be a JSON object")

    required = ("dim", "rho0", "hamiltonian", "jump_ops", "t_end", "dt", "sample_every")
    for field in required:
        if field not in raw:
            raise ScenarioError(f"missing required field {field!r}")

    dim = raw["dim"]
    if not is_integer(dim) or dim < 1:
        raise ScenarioError(f"dim must be a positive integer, got {dim!r}")
    rho0_matrix = _complex_matrix(raw["rho0"], dim, "rho0")
    hamiltonian = _complex_matrix(raw["hamiltonian"], dim, "hamiltonian")
    ops = raw["jump_ops"]
    if not isinstance(ops, list):
        raise ScenarioError("jump_ops must be a list of matrices")
    if len(ops) == dim and isinstance(ops[0], list) and ops[0] and _is_pair(ops[0][0]):  # rows, or real matrices
        raise ScenarioError("jump_ops must be a list of matrices, got a single complex matrix"
                            " or matrices whose entries are not [re, im] pairs")
    jump_ops = tuple(_complex_matrix(op, dim, f"jump_ops[{k}]") for k, op in enumerate(ops))
    t_end = _finite_number(raw["t_end"], "t_end")
    dt = _finite_number(raw["dt"], "dt")
    sample_every = raw["sample_every"]  # checked by step_schedule

    try:
        step_schedule(t_end, dt, sample_every)  # its errors name t_end, dt and sample_every
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc
    rho0 = _field_checked("rho0", DensityOperator, rho0_matrix)
    _field_checked("hamiltonian", require_hermitian, hamiltonian)
    # With H Hermitian, only the jump set can fail: K = -iH - 1/2 sum L(dag)L overflows.
    generator = _field_checked("jump_ops", LindbladGenerator, hamiltonian, jump_ops)
    return Scenario(rho0, generator, t_end, dt, sample_every)


def _field_checked(field: str, check: Callable, *args):
    """check(*args), a ValueError from it raised as a ScenarioError that names field."""
    try:
        return check(*args)
    except ValueError as exc:
        raise ScenarioError(f"{field}: {exc}") from exc


_TRAJECTORY_COLUMNS = ("t", "trace_re", "purity", "entropy_nats", "min_eigenvalue", "entropy_production")
TRAJECTORY_HEADER = ",".join(_TRAJECTORY_COLUMNS)
_TRAJECTORY_ROW = ",".join([_NUMBER] * len(_TRAJECTORY_COLUMNS)) + "\n"


def trajectory_rows(scenario: Scenario) -> SampleStream:
    """Integrate the scenario (`channels.evolve_chunks`), then tabulate its samples as
    iteration reaches them: one tuple of the TRAJECTORY_HEADER columns per sample, a
    validated chunk of chunk_length(dim) samples at a time, from views of the chunk's
    arrays.  Purity, entropy and entropy rate each take one call per chunk, and no more
    than one chunk's spectra and rows are held.  len() is the number of samples.

    Iterating raises IntegrationError, at the time of the first sample concerned, when
    the integration fails or a sample's entropy rate is not finite; a chunk's rates are
    taken before the next chunk is validated.
    """
    g = scenario.generator
    chunks = evolve_chunks(g, scenario.rho0, scenario.t_end, scenario.dt, scenario.sample_every)

    def tabulate(chunk: tuple[np.ndarray, np.ndarray, DensityStack]) -> Iterator[tuple[float, ...]]:
        times, raw_traces, states = chunk
        try:
            rates = jump_entropy_rate(states, g.jump_ops)
        except ValidationError as exc:  # the entropy rate overflows: name the first such sample
            i, exc = first_failure(lambda s: jump_entropy_rate(s, g.jump_ops), states) or (0, exc)
            raise IntegrationError(str(exc), float(times[i])) from exc
        return zip(times.tolist(), raw_traces.tolist(), purity(states).tolist(),
                   von_neumann_entropy(states).tolist(), states.eigenvalues[:, 0].tolist(), rates.tolist())

    return SampleStream(chain.from_iterable(map(tabulate, chunks)), len(chunks))


def _write_output(path: str, write: Callable[[TextIO], None]) -> bool:
    """Run write on a temp file beside the file path names, then rename it
    over that file, so readers never see a partial file.  On failure print one
    line to stderr and return False.  A symbolic link is resolved first, so the
    link stays and its target is replaced.  An existing target that is not a
    regular file (a FIFO, a device, a directory) is refused before the temp
    file is made: the rename would replace it."""
    target = os.path.realpath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        print(f"output error: cannot write {path}: not a regular file", file=sys.stderr)
        return False
    tmp = f"{target}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            write(fh)
        os.replace(tmp, target)
    except OSError as exc:
        print(f"output error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
        return False
    finally:
        if os.path.lexists(tmp):
            os.unlink(tmp)
    return True


# Rows joined per write.  TextIOWrapper.writelines encodes and buffers each
# line on its own; one write per joined block costs one encode.  On a 2-core
# Xeon VM (Python 3.11), writing 50,000 event rows of 131 bytes took 12.7-22.5
# ms (min-median of 60) line by line, and in blocks of 256, 1024, 4096 and
# 16384 rows 10.5-16.9, 10.7-14.1, 7.5-13.8 and 13.9-19.7 ms, at tracemalloc
# peaks of 0.07, 0.27, 1.08 and 4.3 MB: 1024 is as fast as 4096 at a quarter
# of the memory.  At 10^6 rows it took 235-281 ms against 277-394 ms.
_WRITE_BLOCK = 1024


def cmd_evolve(scenario_path: str, output_path: str) -> int:
    try:
        scenario = load_scenario(scenario_path)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    return _write_trajectory(scenario, output_path)


def _write_trajectory(scenario: Scenario, output_path: str) -> int:
    """Write the scenario's trajectory CSV to output_path as its rows are made, a block
    of _WRITE_BLOCK rows per write, and return `cmd_evolve`'s exit code.  A function of
    its own, so that its closure's cells are not alive while the scenario loads."""
    written = 0

    def write(fh: TextIO) -> None:
        nonlocal written
        fh.write(TRAJECTORY_HEADER + "\n")
        while block:
            fh.write("".join(map(_TRAJECTORY_ROW.__mod__, block)))
            written += len(block)
            block.clear()  # freed before the next chunk is validated and tabulated
            block.extend(islice(rows, _WRITE_BLOCK))

    try:
        rows = iter(trajectory_rows(scenario))
        block = list(islice(rows, _WRITE_BLOCK))  # made before the file is opened
        if not _write_output(output_path, write):
            return 2
    except IntegrationError as exc:  # the temp file, if any, is removed and output_path untouched
        print(f"integration failure: {exc}", file=sys.stderr)
        return 3
    print(f"wrote {written} samples to {output_path}")
    return 0


EVENT_HEADER = "a_x,a_y,a_z,b_x,b_y,b_z,outcome_a,outcome_b"


def _parse_vector(text: str, label: str) -> UnitVector3:
    try:
        return UnitVector3.from_iterable(text.split(","))
    except ValueError as exc:  # not three components, unparsable, or not a finite unit vector
        raise ValidationError(f"{label}: {exc}") from exc


def cmd_sample(a_text: str, b_text: str, n: int, seed: int, output_path: str) -> int:
    try:
        a = _parse_vector(a_text, "--a")
        b = _parse_vector(b_text, "--b")
        events = sample_events(DetectorPair(a, b), n, seed)
    except ValidationError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    empirical = empirical_correlation(events)
    analytic = -a.dot(b)

    orientations = ",".join(_fmt(x) for x in (a.nx, a.ny, a.nz, b.nx, b.ny, b.nz))
    # The four possible rows, indexed by 2 * (outcome_a < 0) + (outcome_b < 0).
    rows = np.array([f"{orientations},{oa},{ob}\n" for oa in (1, -1) for ob in (1, -1)], dtype=object)

    def write(fh: TextIO) -> None:
        fh.write(f"# seed={seed} n={n}\n")
        fh.write(EVENT_HEADER + "\n")
        codes = (events.outcome_a < 0).view(np.int8) << 1  # one byte per event
        codes |= events.outcome_b < 0
        fh.writelines("".join(rows[codes[i:i + _WRITE_BLOCK]].tolist()) for i in range(0, n, _WRITE_BLOCK))
        fh.write(
            f"# summary empirical_correlation={_fmt(empirical)} "
            f"analytic_correlation={_fmt(analytic)}\n"
        )

    if not _write_output(output_path, write):
        return 2
    print(
        f"wrote {n} events to {output_path}; empirical correlation {_fmt(empirical)}, "
        f"analytic {_fmt(analytic)}"
    )
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `rholab` argument parser, built once per process.  Its argparse objects
    hold reference cycles, so a parser built per `main` call would leave about 25 KB
    for the cyclic garbage collector on every call."""
    parser = argparse.ArgumentParser(
        prog="rholab",
        description="Density-operator laboratory: worked-example demos, "
        "open-system evolution, and singlet sampling.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="run a worked-example demo with PASS/FAIL checks")
    demo.add_argument("name", help=f"one of: {', '.join(sorted(_DEMOS))}")

    evolve = sub.add_parser("evolve", help="integrate a scenario file and write a trajectory CSV")
    evolve.add_argument("--scenario", required=True, help="path to the scenario JSON file")
    evolve.add_argument("--out", required=True, help="path for the trajectory CSV")

    sample = sub.add_parser("sample", help="draw singlet coincidences and write an event CSV")
    sample.add_argument("--a", required=True, help="detector a orientation as x,y,z")
    sample.add_argument("--b", required=True, help="detector b orientation as x,y,z")
    sample.add_argument("--n", required=True, type=int, help="number of events")
    sample.add_argument("--seed", type=int, default=DEFAULT_SEED, help="RNG seed (default 42)")
    sample.add_argument("--out", required=True, help="path for the event CSV")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help/--version exit 0; usage errors exit 2
        return int(exc.code or 0)
    try:
        if args.command == "demo":
            return cmd_demo(args.name)
        if args.command == "evolve":
            return cmd_evolve(args.scenario, args.out)
        return cmd_sample(args.a, args.b, args.n, args.seed, args.out)  # a command is required
    except KeyboardInterrupt:  # Ctrl-C: `_write_output` has removed its temp file on the way out
        print("interrupted", file=sys.stderr)
        return 130  # 128 + SIGINT, as a shell reports it


if __name__ == "__main__":
    sys.exit(main())
