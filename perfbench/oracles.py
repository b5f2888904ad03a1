"""Output checks for the benchmark workloads.

Every oracle here uses numpy and the standard library only and never calls
rholab, so a defect in the program cannot pass its own check.  Each check
returns a list of failure messages; an empty list means the output is
correct.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter

import numpy as np

TRAJECTORY_COLUMNS = ("t", "trace_re", "purity", "entropy_nats", "min_eigenvalue", "entropy_production")
TRAJECTORY_HEADER = ",".join(TRAJECTORY_COLUMNS)
EVENT_HEADER = "a_x,a_y,a_z,b_x,b_y,b_z,outcome_a,outcome_b"

# Shipped trajectories are compared with CSVs pinned at the commit that
# introduced the benchmark.  Replacing the stage-wise RK4 by its exact linear
# propagator moves each column by at most ~1e-12; a wrong trajectory (other
# generator, step or sampling) moves them by many orders more.
SHIPPED_TOL = 1e-9
# The d=16 trajectory against the harness's own propagation: both sides
# round differently (stage-wise RK4 vs one N^2 matvec, Jacobi vs LAPACK), and
# the log-spectrum terms of entropy_production amplify eigenvalue rounding.
D16_TOL = 1e-8
# Spectra, channel actions and reduced states in the analysis workload.
ANALYSIS_TOL = 1e-9
# The empirical correlation of n draws must lie within this many standard
# deviations of -a.b (a false alarm is a ~6e-7 event per check).
SAMPLE_SIGMAS = 5.0

# Mirrors the program's documented convention: eigenvalues at or below this
# carry no entropy, and rate computations floor them here before the log.
EIGENVALUE_FLOOR = 1e-14


def _first_mismatch(actual: np.ndarray, expected: np.ndarray, tol: float, labels) -> list[str]:
    """Compare two tables entrywise with |a - e| <= tol * max(1, |e|)."""
    if actual.shape != expected.shape:
        return [f"table shape {actual.shape} != expected {expected.shape}"]
    err = np.abs(actual - expected) / np.maximum(1.0, np.abs(expected))
    bad = np.argwhere(~(err <= tol))  # also catches NaN
    if bad.size == 0:
        return []
    r, c = bad[0]
    return [
        f"row {r} column {labels[c]}: {actual[r, c]!r} vs expected {expected[r, c]!r} "
        f"({len(bad)} entries beyond {tol:g})"
    ]


def read_trajectory(path) -> np.ndarray:
    """Parse a trajectory CSV into a (rows, 6) float array."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header != TRAJECTORY_HEADER:
            raise ValueError(f"unexpected trajectory header {header!r}")
        rows = [line.split(",") for line in fh.read().splitlines()]
    if not rows or any(len(r) != len(TRAJECTORY_COLUMNS) for r in rows):
        raise ValueError("trajectory rows must have six columns")
    return np.array(rows, dtype=float)


def check_trajectory(path, expected: np.ndarray, tol: float, dim: int) -> list[str]:
    """Compare with the expected table, and check the bounds any valid
    trajectory obeys: trace, purity, entropy and positivity."""
    try:
        table = read_trajectory(path)
    except (OSError, ValueError) as exc:
        return [f"{path}: {exc}"]
    problems = _first_mismatch(table, expected, tol, TRAJECTORY_COLUMNS)
    _, trace_re, purity, entropy, min_eig, _ = table.T
    if not np.all(np.abs(trace_re - 1.0) <= 1e-8):
        problems.append("raw trace drifts from 1 by more than 1e-8")
    if not np.all((purity <= 1.0 + 1e-12) & (purity >= 1.0 / dim - 1e-12)):
        problems.append("purity outside [1/d, 1]")
    if not np.all((entropy >= 0.0) & (entropy <= math.log(dim) + 1e-12)):
        problems.append("entropy outside [0, log d]")
    if not np.all(min_eig >= -1e-9):
        problems.append("negative eigenvalue below -1e-9")
    return [f"{path}: {p}" for p in problems]


# ----------------------------------------------------------------------------
# Lindblad propagation assembled independently with numpy.kron


def lindblad_matrix(h: np.ndarray, jumps) -> np.ndarray:
    """Generator over row-major vec(rho), using vec(A X B) = kron(A, B^T) vec(X)."""
    n = h.shape[0]
    eye = np.eye(n)
    g = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for op in jumps:
        gram = op.conj().T @ op
        g = g + np.kron(op, op.conj()) - 0.5 * (np.kron(gram, eye) + np.kron(eye, gram.T))
    return g


def state_row(t: float, rho: np.ndarray, raw_trace: float, jumps) -> list[float]:
    """One trajectory row computed with LAPACK's eigh."""
    p, v = np.linalg.eigh(rho)
    entropy = -sum(float(x) * math.log(float(x)) for x in p if x > EIGENVALUE_FLOOR)
    floored = np.maximum(p, 0.0)
    if np.any(floored <= EIGENVALUE_FLOOR):
        floored = np.maximum(floored, EIGENVALUE_FLOOR)
    lam = sum(np.abs(v.conj().T @ op @ v) ** 2 for op in jumps)
    log_p = np.log(floored)
    rate = float(np.sum(lam * floored[None, :] * (log_p[None, :] - log_p[:, None])))
    return [t, raw_trace, float(np.trace(rho @ rho).real), max(entropy, 0.0), float(p[0]), rate]


def propagate(h, jumps, rho0, dt: float, n_steps: int, sample_every: int) -> np.ndarray:
    """Expected trajectory table of a fixed-step RK4 run.

    For a time-independent generator one classical RK4 step is exactly the
    degree-4 Taylor polynomial T(dt L) of the propagator, applied here as one
    matvec per step, with the same hermitize and renormalize after each step.
    """
    n = rho0.shape[0]
    step = np.eye(n * n, dtype=complex)
    term = np.eye(n * n, dtype=complex)
    g = dt * lindblad_matrix(h, jumps)
    for k in range(1, 5):
        term = term @ g / k
        step = step + term
    rho = np.array(rho0, dtype=complex)
    rows = [state_row(0.0, rho, float(np.trace(rho).real), jumps)]
    for i in range(1, n_steps + 1):
        rho = (step @ rho.reshape(-1)).reshape(n, n)
        rho = (rho + rho.conj().T) / 2.0
        raw_trace = float(np.trace(rho).real)
        rho = rho / raw_trace
        if i % sample_every == 0 or i == n_steps:
            rows.append(state_row(i * dt, rho, raw_trace, jumps))
    return np.array(rows)


# ----------------------------------------------------------------------------
# Singlet event files


def check_events(path, a_text: str, b_text: str, n: int, seed: int, sha256: str | None = None) -> list[str]:
    """Check an event CSV: framing, row format, outcomes and footer statistics.

    `a_text` and `b_text` are the orientations exactly as passed on the
    command line (17 significant digits, so they round-trip unchanged).
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        return [f"{path}: {exc}"]
    if sha256 is not None and hashlib.sha256(data).hexdigest() != sha256:
        return [f"{path}: SHA-256 differs from the pinned file"]
    lines = data.decode("ascii", errors="replace").split("\n")
    if len(lines) < 4 or lines[-1] != "":
        return [f"{path}: truncated event file"]
    problems = []
    if lines[0] != f"# seed={seed} n={n}":
        problems.append(f"header line {lines[0]!r}")
    if lines[1] != EVENT_HEADER:
        problems.append(f"column header {lines[1]!r}")
    rows = lines[2:-2]
    if len(rows) != n:
        problems.append(f"{len(rows)} rows, expected {n}")
    prefix = f"{a_text},{b_text},"
    products = {prefix + "1,1": 1, prefix + "1,-1": -1, prefix + "-1,1": -1, prefix + "-1,-1": 1}
    counts = Counter(rows)
    unknown = [r for r in counts if r not in products]
    if unknown:
        problems.append(f"{sum(counts[r] for r in unknown)} malformed rows, e.g. {unknown[0]!r}")
        return [f"{path}: {p}" for p in problems]
    mean = sum(products[r] * c for r, c in counts.items()) / max(len(rows), 1)

    a = [float(x) for x in a_text.split(",")]
    b = [float(x) for x in b_text.split(",")]
    analytic = -(a[0] * b[0] + a[1] * b[1] + a[2] * b[2])
    footer = lines[-2].split()
    try:
        if footer[:2] != ["#", "summary"] or len(footer) != 4:
            raise ValueError
        empirical = float(footer[2].removeprefix("empirical_correlation="))
        quoted = float(footer[3].removeprefix("analytic_correlation="))
    except ValueError:
        problems.append(f"footer {lines[-2]!r}")
        return [f"{path}: {p}" for p in problems]
    if abs(empirical - mean) > 1e-12:
        problems.append(f"footer empirical correlation {empirical!r} != row mean {mean!r}")
    if abs(quoted - analytic) > 1e-12:
        problems.append(f"footer analytic correlation {quoted!r} != -a.b = {analytic!r}")
    sigma = math.sqrt(max(1.0 - analytic * analytic, 0.0) / n)
    if abs(mean - analytic) > SAMPLE_SIGMAS * sigma + 1e-12:
        problems.append(f"row mean {mean!r} is more than {SAMPLE_SIGMAS:g} sigma from {analytic!r}")
    return [f"{path}: {p}" for p in problems]


# ----------------------------------------------------------------------------
# Channels, spectra and bipartite states


def _close(label: str, actual, expected, tol: float = ANALYSIS_TOL) -> list[str]:
    actual = np.asarray(actual)
    expected = np.asarray(expected)
    if actual.shape != expected.shape:
        return [f"{label}: shape {actual.shape} != {expected.shape}"]
    scale = max(1.0, float(np.max(np.abs(expected), initial=0.0)))
    dev = float(np.max(np.abs(actual - expected), initial=0.0))
    if not dev <= tol * scale:
        return [f"{label}: max deviation {dev:.3e} exceeds {tol:g}"]
    return []


def choi_like(kraus) -> np.ndarray:
    """N^2 x N^2 matrix sum_j vec(K_j) vec(K_j)^dag over row-major vec."""
    return sum(np.outer(k.reshape(-1), k.reshape(-1).conj()) for k in kraus)


def apply_kraus(kraus, rho: np.ndarray) -> np.ndarray:
    return sum(k @ rho @ k.conj().T for k in kraus)


def check_channel_round_trip(kraus, test_states, result) -> list[str]:
    """Decomposition spectrum, rebuilt Kraus set and its applied output."""
    eigenvalues, rebuilt, applied = result
    problems = _close("decomposition spectrum", eigenvalues, np.linalg.eigvalsh(choi_like(kraus))[::-1])
    for i, rho in enumerate(test_states):
        problems += _close(f"rebuilt channel on state {i}", apply_kraus(rebuilt, rho), apply_kraus(kraus, rho))
    problems += _close("applied rebuilt channel", applied, apply_kraus(kraus, test_states[0]))
    return problems


def check_hermitian_map(matrix: np.ndarray, result) -> list[str]:
    """Spectrum and eigenmatrices of an indefinite hermiticity-preserving map."""
    eigenvalues, eigenmatrices = result
    problems = _close("map spectrum", eigenvalues, np.linalg.eigvalsh(matrix)[::-1])
    for lam, e in zip(eigenvalues, eigenmatrices):
        v = np.asarray(e).reshape(-1)
        problems += _close("eigenmatrix residual", matrix @ v, lam * v)
        if abs(np.linalg.norm(v) - 1.0) > ANALYSIS_TOL:
            problems.append("eigenmatrix not normalized")
    return problems[:3]


def check_generator_spectrum(h, jumps, pairs) -> list[str]:
    """Eigenvalues match LAPACK's as a multiset; each pair is an eigenpair."""
    g = lindblad_matrix(h, jumps)
    reference = list(np.linalg.eigvals(g))
    scale = max(1.0, float(np.max(np.abs(reference))))
    problems = []
    if len(pairs) != len(reference):
        return [f"{len(pairs)} eigenpairs, expected {len(reference)}"]
    for lam, q in pairs:
        dist = [abs(lam - r) for r in reference]
        j = int(np.argmin(dist))
        if dist[j] > 1e-8 * scale:
            problems.append(f"eigenvalue {lam!r} has no LAPACK counterpart")
        reference.pop(j)
        v = np.asarray(q).reshape(-1)
        problems += _close("generator eigenpair residual", g @ v, lam * v, 1e-8 * scale)
    return problems[:3]


def check_bipartite(amplitudes: np.ndarray, dims: tuple[int, int], result) -> list[str]:
    """Schmidt form, reduced states, entanglement entropy and no-signalling."""
    coefficients, a_kets, b_kets, rho_a, rho_b, entropy, before, after = result
    c = amplitudes.reshape(dims)
    s = np.linalg.svd(c, compute_uv=False)
    s = s[s > 1e-9]
    problems = _close("Schmidt coefficients", coefficients, s)
    rebuilt = sum(w * np.kron(a, b) for w, a, b in zip(coefficients, a_kets, b_kets))
    problems += _close("Schmidt reconstruction", rebuilt, amplitudes)
    expected_a = c @ c.conj().T
    expected_b = c.T @ c.conj()
    problems += _close("partial trace over b", rho_a, expected_a)
    problems += _close("partial trace over a", rho_b, expected_b)
    weights = s * s
    expected_entropy = -float(np.sum(weights * np.log(weights)))
    problems += _close("entanglement entropy", entropy, expected_entropy)
    problems += _close("b-side density before measurement", before, expected_b)
    problems += _close("b-side density after measurement", after, expected_b)
    return problems
