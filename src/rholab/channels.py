"""Completely positive trace-preserving maps and the Lindblad generator.

A superoperator is stored as the rank-4 coefficient array M[m, k, n, l]
acting by rho'_mn = sum_kl M[m,k,n,l] rho_kl.  Flattening the index pairs
(m, k) and (n, l) row-major turns a hermiticity-preserving map into an
N^2 x N^2 Hermitian matrix; its eigenvectors reshape into orthonormal
eigenmatrices E^i with

    rho' = sum_i lambda_i E^i rho E^i(dag),

the map is completely positive iff every lambda_i >= 0, and then
K^i = sqrt(lambda_i) E^i is a Kraus set.

Kraus completeness is taken as sum_k K^k(dag) K^k = I and the Lindblad
dissipator uses the L(dag)L anticommutator; these are the orderings under
which trace preservation holds identically for arbitrary, not necessarily
normal, operators.
"""

from __future__ import annotations

import bisect
import functools
import logging
import math
import operator
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable, Sequence

import numpy as np

from .density import DensityOperator, DensityStack, density_stack
from .errors import (
    IntegrationError,
    NotCompletelyPositiveError,
    ShapeError,
    ValidationError,
)
from .linalg import (
    HERMITIAN_ATOL,
    as_matrix,
    as_square,
    as_square_stack,
    frozen,
    hermitian_eig,
    max_deviation,
    require_close,
    require_finite,
    require_hermitian,
)

logger = logging.getLogger(__name__)

COMPLETENESS_ATOL = 1e-10

# Eigenvalues of a CP map may dip this far below zero from solver noise.
CP_EIGENVALUE_TOL = 1e-9
# Decomposition eigenvalues below this are numerically zero and yield no Kraus op.
_NEGLIGIBLE_EIGENVALUE = 1e-12

# Per-interval trace drift and per-sample eigenvalue bounds for the integrator;
# exceeding ten times either bound aborts the trajectory.
TRACE_DRIFT_TOL = 1e-8
MIN_EIGENVALUE_TOL = 1e-7

# Most integrator steps one trajectory may take, and most samples it may emit.
# A finite but huge t_end/dt would otherwise start a run that never finishes,
# and every sample is held until the run ends (tracemalloc, 10^2 to 10^4
# samples: 0.28-0.35 KB at d = 2 and 8.6 KB at d = 16, so near 0.9 GB at the
# sample cap).
MAX_STEPS = 10**7
MAX_SAMPLES = 10**5

# Emitted states are validated this many at a time, with one eigensolve per chunk.  A
# chunk's buffer, hermitized copy and solver work arrays are alive together: at d = 16
# a full chunk peaks about 0.5 MB above a one-state solve, a cost that does not grow
# with the run, while at d = 2 the solver's per-call overhead is spread over 16 states.
SAMPLE_CHUNK = 16

# Largest dimension at which the integrator builds the N^2 x N^2 propagator
# matrix T(dt L).  Above it the same polynomial is applied in operator form:
# at d = 16, T has 65,536 complex entries (1 MB) and building it peaks near
# 4.2 MB (tracemalloc), about nine times what a whole d = 16 run otherwise holds.
PROPAGATOR_MATRIX_MAX_DIM = 8


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """A channel rho -> sum_k K^k rho K^k(dag) with sum_k K^k(dag) K^k = I; the
    Kraus set is kept as one read-only (K, n, n) array."""

    kraus_ops: np.ndarray

    def __init__(self, kraus_ops):
        ops = frozen(as_square_stack(kraus_ops))
        require_close(
            lambda: (ops.conj().swapaxes(1, 2) @ ops).sum(0) - np.eye(ops.shape[-1]),
            COMPLETENESS_ATOL,
            "incomplete Kraus set (sum K(dag)K != I)",
        )
        object.__setattr__(self, "kraus_ops", ops)

    @property
    def dim(self) -> int:
        return self.kraus_ops.shape[-1]

    def apply(self, rho) -> np.ndarray:
        k = self.kraus_ops
        return (k @ as_square(rho, self.dim) @ k.conj().swapaxes(1, 2)).sum(0)


@dataclass(frozen=True, eq=False)
class Superoperator:
    """Linear map on density matrices via the rank-4 coefficient tensor."""

    dim: int
    tensor: np.ndarray  # shape (N, N, N, N), indexed [m, k, n, l]

    def __init__(self, dim: int, tensor):
        t = np.asarray(tensor, dtype=complex)
        if t.shape != (dim, dim, dim, dim):
            raise ShapeError(f"coefficient tensor must have shape {(dim,) * 4}, got {t.shape}")
        as_matrix(t.reshape(dim * dim, dim * dim))  # entries must be finite
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "tensor", frozen(t))

    def apply(self, rho) -> np.ndarray:
        return np.einsum("mknl,kl->mn", self.tensor, as_square(rho, self.dim))

    def as_matrix(self) -> np.ndarray:
        """The N^2 x N^2 matrix over double indices (m,k) and (n,l)."""
        n2 = self.dim * self.dim
        return self.tensor.reshape(n2, n2)

    def is_hermiticity_preserving(self) -> bool:
        m = self.as_matrix()
        return max_deviation(lambda: m - m.conj().T) <= HERMITIAN_ATOL

    def is_trace_preserving(self) -> bool:
        # sum_m M[m,k,m,l] = delta_kl is the completeness condition sum K(dag)K = I.
        deviation = max_deviation(lambda: np.einsum("mkml->kl", self.tensor) - np.eye(self.dim))
        return deviation <= COMPLETENESS_ATOL


def superop_from_kraus(c: KrausChannel) -> Superoperator:
    """Coefficient tensor M[m,k,n,l] = sum_j K^j_mk conj(K^j_nl)."""
    tensor = np.einsum("jmk,jnl->mknl", c.kraus_ops, c.kraus_ops.conj())
    tensor.setflags(write=False)  # built here, so the superoperator keeps it without a copy
    return Superoperator(c.dim, tensor)


@dataclass(frozen=True, eq=False)
class EigenmatrixDecomposition:
    """Spectral form rho' = sum_i lambda_i E^i rho E^i(dag) of a
    hermiticity-preserving superoperator.

    Eigenvalues, one read-only real array holding one finite value per eigenmatrix, are
    descending; eigenmatrices, one read-only (N^2, N, N) array, are orthonormal under
    Tr(E^k E^l(dag)) = delta_kl.  For a trace-preserving map the eigenvalues sum to the
    space dimension N.
    """

    dim: int
    eigenvalues: np.ndarray
    eigenmatrices: np.ndarray

    def __post_init__(self):
        matrices = frozen(as_square_stack(self.eigenmatrices, self.dim))
        values = np.asarray(self.eigenvalues)
        if values.shape != (len(matrices),):
            raise ShapeError(f"expected {len(matrices)} eigenvalues, got shape {values.shape}")
        if not np.isfinite(values).all() or np.imag(values).any():
            raise ValidationError("eigenvalues must be finite real numbers")
        object.__setattr__(self, "eigenvalues", frozen(np.real(values).astype(float, copy=False)))
        object.__setattr__(self, "eigenmatrices", matrices)

    @property
    def is_completely_positive(self) -> bool:
        return bool(np.min(self.eigenvalues) >= -CP_EIGENVALUE_TOL)

    def apply(self, rho) -> np.ndarray:
        e = self.eigenmatrices
        terms = e @ as_square(rho, self.dim) @ e.conj().swapaxes(1, 2)
        return (self.eigenvalues[:, None, None] * terms).sum(0)


def eigenmatrix_decompose(s: Superoperator) -> EigenmatrixDecomposition:
    """Eigendecompose the flattened superoperator into eigenmatrices.

    Raises ValidationError unless the map preserves hermiticity, i.e. its
    flattened matrix is Hermitian (checked once, by `hermitian_eig`).
    """
    eig = hermitian_eig(s.as_matrix())
    order = np.argsort(eig.eigenvalues, kind="stable")[::-1]
    values = eig.eigenvalues[order]
    matrices = eig.eigenvectors.T[order]  # row i: eigenvector column order[i]
    for a in (values, matrices):
        a.setflags(write=False)  # built here, so the decomposition keeps them without a copy
    return EigenmatrixDecomposition(s.dim, values, matrices.reshape(-1, s.dim, s.dim))


def kraus_from_decomposition(e: EigenmatrixDecomposition) -> KrausChannel:
    """Kraus operators K^i = sqrt(lambda_i) E^i of a completely positive map."""
    min_eig = float(np.min(e.eigenvalues))
    if min_eig < -CP_EIGENVALUE_TOL:
        raise NotCompletelyPositiveError(
            f"map is not completely positive: eigenvalue {min_eig:.3e}"
        )
    keep = e.eigenvalues > _NEGLIGIBLE_EIGENVALUE
    ops = np.sqrt(e.eigenvalues[keep])[:, None, None] * e.eigenmatrices[keep]
    ops.setflags(write=False)  # built here, so the channel keeps it without a copy
    return KrausChannel(ops)


@dataclass(frozen=True, eq=False)
class LindbladGenerator:
    """Generator data: a Hamiltonian and a set of jump operators, kept as one
    read-only (K, n, n) array (shape (0, n, n) when there are none).

    The effective non-Hermitian Hamiltonian K = -iH - 1/2 sum_k L^k(dag) L^k is derived
    once here (and checked finite).  K and the jump stack are the one generator data
    that both evaluators read: the flow `_generator_flow` and the supermatrix
    `generator_matrix`.
    """

    hamiltonian: np.ndarray
    jump_ops: np.ndarray
    effective_hamiltonian: np.ndarray = field(repr=False)

    def __init__(self, hamiltonian, jump_ops=()):
        h = frozen(require_hermitian(hamiltonian))
        ops = frozen(as_square_stack(jump_ops, h.shape[0]))
        k = require_finite(
            lambda: -1j * h - 0.5 * (ops.conj().swapaxes(1, 2) @ ops).sum(0),
            "effective Hamiltonian -iH - 1/2 sum L(dag)L",
        )
        k.setflags(write=False)
        object.__setattr__(self, "hamiltonian", h)
        object.__setattr__(self, "jump_ops", ops)
        object.__setattr__(self, "effective_hamiltonian", frozen(k))

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]


def _generator_flow(g: LindbladGenerator) -> Callable[[np.ndarray], np.ndarray]:
    """The flow rho -> K rho + rho K(dag) + sum_k L^k rho L^k(dag) on one matrix, with K
    the generator's effective Hamiltonian, and K(dag) and the jump columns built once.

    The jump sum is two matrix products: the column C of the stacked L^k times rho,
    regrouped into the row (L^1 rho | ... | L^K rho), times the column of the L^k(dag).
    """
    n, m = g.dim, len(g.jump_ops) * g.dim
    k = g.effective_hamiltonian
    k_dag = k.conj().T.copy()
    column = g.jump_ops.reshape(m, n)  # L^1 over L^2 over ...: a view
    column_dag = g.jump_ops.conj().swapaxes(1, 2).reshape(m, n)

    def flow(rho: np.ndarray) -> np.ndarray:
        out = k @ rho + rho @ k_dag
        row = (column @ rho).reshape(-1, n, n).swapaxes(0, 1).reshape(n, m)
        out += row @ column_dag
        return out

    return flow


def lindblad_apply(g: LindbladGenerator, d: DensityOperator) -> np.ndarray:
    """The instantaneous flow

        -i[H, rho] + sum_k (L^k rho L^k(dag) - 1/2 {L^k(dag) L^k, rho})
          = K rho + rho K(dag) + sum_k L^k rho L^k(dag),

    with K the generator's `effective_hamiltonian`.  The output is Hermitian and traceless.
    """
    return _generator_flow(g)(as_square(d.matrix, g.dim))


@dataclass(frozen=True)
class LindbladSample:
    """One emitted trajectory point.

    raw_trace is the real trace of the state at the end of the sample
    interval, after hermitizing and just before renormalization (of its last
    step if the interval was replayed one step at a time); min_eigenvalue is
    the smallest eigenvalue of the emitted state.  The state's arrays are
    read-only views into the stacks in which its chunk of samples was validated.
    """

    time: float
    state: DensityOperator
    raw_trace: float

    @property
    def min_eigenvalue(self) -> float:
        return float(self.state.eigenvalues[0])


@dataclass(frozen=True, eq=False, slots=True)
class Trajectory(Sequence[LindbladSample]):
    """The samples of one `evolve_lindblad` run, kept per chunk of validated states.

    `chunks` holds one (times, raw_traces, states) triple per chunk of up to
    SAMPLE_CHUNK consecutive samples: two tuples of floats and the chunk's
    DensityStack.  The trajectory reads like a list of LindbladSample (len,
    index, negative index, slice, iteration); a sample is built only when it
    is read, its state a view into its chunk's stack, and each read builds a
    new one.
    """

    chunks: tuple[tuple[tuple[float, ...], tuple[float, ...], DensityStack], ...]
    _ends: tuple[int, ...] = field(repr=False)  # the samples up to the end of each chunk

    def __init__(self, chunks):
        kept = []
        for times, raw_traces, states in chunks:
            times, raw_traces = tuple(map(float, times)), tuple(map(float, raw_traces))
            if not isinstance(states, DensityStack) or not len(times) == len(raw_traces) == len(states):
                raise ShapeError("expected a DensityStack and as many times and raw traces per chunk")
            kept.append((times, raw_traces, states))
        object.__setattr__(self, "chunks", tuple(kept))
        object.__setattr__(self, "_ends", tuple(accumulate(len(c[2]) for c in kept)))

    def __len__(self) -> int:
        return self._ends[-1] if self._ends else 0

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        i = operator.index(index)
        i += len(self) if i < 0 else 0
        if not 0 <= i < len(self):
            raise IndexError("trajectory index out of range")
        k = bisect.bisect_right(self._ends, i)
        times, raw_traces, states = self.chunks[k]
        j = i - self._ends[k] + len(states)
        return LindbladSample(times[j], states[j], raw_traces[j])

    def __iter__(self):
        for times, raw_traces, states in self.chunks:
            yield from map(LindbladSample, times, states, raw_traces)

    def __repr__(self) -> str:
        return f"Trajectory(len={len(self)})"


def _taylor_polynomial(flow: Callable, rho: np.ndarray, h: float) -> np.ndarray:
    """T(hL) rho = rho + hL(rho + hL/2 (rho + hL/3 (rho + hL/4 rho))), the degree-4 Taylor
    polynomial by Horner, with `flow` applying L."""
    out = rho
    for k in (4, 3, 2, 1):
        out = rho + (h / k) * flow(out)
    return out


def _taylor_propagator(
    g: LindbladGenerator, dt: float, remainder: float = 0.0
) -> Callable[..., np.ndarray]:
    """The map (rho, full, last) -> T(remainder L)^[last] T(dt L)^full rho,
    with T(A) = I + A + A^2/2 + A^3/6 + A^4/24 (`_taylor_polynomial`).

    For a time-independent generator T(dt L) is exactly the polynomial one
    classical RK4 step evaluates.  A step applies the generator four times.  Up
    to PROPAGATOR_MATRIX_MAX_DIM each step length is tabulated once as the
    matrix T, the polynomial of the supermatrix `generator_matrix` applied to
    the N^2 x N^2 identity, and T(remainder L)^[last] T(dt L)^full is then one
    matvec on row-major rho, its power taken once per distinct `full` by
    repeated squaring.  Above that size it is `full` (plus `last`) steps of the
    flow `_generator_flow`, so no N^2 x N^2 array is built.
    """
    n = g.dim
    if n > PROPAGATOR_MATRIX_MAX_DIM:
        flow = _generator_flow(g)

        def propagate(rho: np.ndarray, full: int, last: bool) -> np.ndarray:
            for _ in range(full):
                rho = _taylor_polynomial(flow, rho, dt)
            return _taylor_polynomial(flow, rho, remainder) if last else rho

        return propagate

    g_mat, eye = generator_matrix(g), np.eye(n * n, dtype=complex)
    t_full = _taylor_polynomial(g_mat.__matmul__, eye, dt)
    t_last = _taylor_polynomial(g_mat.__matmul__, eye, remainder) if remainder > 0.0 else None

    @functools.cache
    def power(full: int, last: bool) -> np.ndarray:
        p = np.linalg.matrix_power(t_full, full)
        return t_last @ p if last else p

    def propagate(rho: np.ndarray, full: int, last: bool) -> np.ndarray:
        return (power(full, last) @ rho.reshape(-1)).reshape(n, n)

    return propagate


def step_schedule(t_end: float, dt: float, sample_every: int) -> tuple[int, float]:
    """Split [0, t_end] into full steps of length dt plus a final shorter step.

    Returns (n_full, remainder), where remainder is 0.0 when t_end is a
    multiple of dt up to rounding.  Raises ValidationError unless dt is
    positive and finite, t_end non-negative and finite, sample_every at least
    1, and the schedule within MAX_STEPS steps and MAX_SAMPLES samples.
    """
    if sample_every < 1:
        raise ValidationError(f"sample_every must be at least 1, got {sample_every!r}")
    if not 0.0 < dt < math.inf:
        raise ValidationError(f"dt must be positive and finite, got {dt!r}")
    if not 0.0 <= t_end < math.inf:
        raise ValidationError(f"t_end must be non-negative and finite, got {t_end!r}")
    ratio = t_end / dt
    if not ratio < math.inf:
        raise ValidationError(f"t_end/dt = {ratio!r} is not a finite step count")
    n_full = int(math.floor(ratio + 1e-12))
    remainder = t_end - n_full * dt
    if remainder <= 1e-12 * max(1.0, t_end):
        remainder = 0.0
    n_steps = n_full + (remainder > 0.0)
    if n_steps > MAX_STEPS:
        raise ValidationError(f"t_end/dt = {ratio:.6g} exceeds the cap of {MAX_STEPS} steps")
    n_samples = 1 + -(-n_steps // sample_every)  # step 0, then each emitting step
    if n_samples > MAX_SAMPLES:
        raise ValidationError(f"{n_samples} samples exceed the cap of {MAX_SAMPLES} samples")
    return n_full, remainder


def evolve_lindblad(
    g: LindbladGenerator,
    d0: DensityOperator,
    t_end: float,
    dt: float,
    sample_every: int = 1,
) -> Trajectory:
    """Integrate drho/dt = L rho with a fixed-step degree-4 Taylor propagator.

    Each step multiplies rho by T(dt L) = sum_{k<=4} (dt L)^k / k!, which for
    this time-independent generator equals one classical RK4 step; a final
    shorter step reaches t_end when it is not a multiple of dt.  At most
    MAX_STEPS steps are taken and MAX_SAMPLES samples emitted: a longer
    schedule raises ValidationError before any work starts.

    Samples are emitted at step 0, every `sample_every` steps, and at t_end.
    Every generator annihilates the trace and preserves hermiticity, and so
    does T; the clean-up therefore runs once per sample interval: the
    interval's steps are applied at once (see `_taylor_propagator`), then the
    state is hermitized ((rho + rho(dag))/2) and trace-renormalized.  The
    interval's trace drift and the smallest eigenvalue at each emitted sample
    are diagnostics.  A NaN drift or one above ten times TRACE_DRIFT_TOL
    replays the interval one step at a time with the same clean-up after each
    step, and the first step that fails the check raises IntegrationError at
    its time; a smallest eigenvalue below -10 MIN_EIGENVALUE_TOL raises it at
    the sample's time.

    Emitted states are validated SAMPLE_CHUNK at a time, with one
    `hermitian_eig` solve per chunk, and kept as that chunk's DensityStack in
    the returned Trajectory.  The errors keep the order of the trajectory: the
    first invalid state of a chunk is the one reported, and the states pending
    before an interval that fails the drift check are validated before that
    failure is raised.
    """
    n_full, remainder = step_schedule(t_end, dt, sample_every)
    rho = as_square(d0.matrix, g.dim)
    n_steps = n_full + (remainder > 0.0)
    bound = 10.0 * TRACE_DRIFT_TOL
    starts = range(0, n_steps, sample_every)

    def advance(rho: np.ndarray, t: float, full: int, last: bool):
        """Apply `full` steps of dt and, if `last`, the remainder step; then
        hermitize and renormalize once.  Returns (rho, raw_trace, drift, t)."""
        rho = propagate(rho, full, last)
        rho = (rho + rho.conj().T) / 2.0
        raw_trace = float(np.trace(rho).real)
        for _ in range(full):  # one dt per step: sample times do not depend on sample_every
            t += dt
        if last:
            t += remainder
        return rho / raw_trace, raw_trace, abs(raw_trace - 1.0), t

    chunks: list[tuple[tuple[float, ...], tuple[float, ...], DensityStack]] = []
    chunk = np.empty((min(SAMPLE_CHUNK, 1 + len(starts)), g.dim, g.dim), dtype=complex)
    times: list[float] = []  # of the states pending in chunk[:len(times)]
    traces: list[float] = []

    def flush() -> None:
        """Validate the pending states at once and keep them as one chunk."""
        if times:
            states, error = density_stack(chunk[: len(times)], 10.0 * MIN_EIGENVALUE_TOL)
            if error is not None:
                raise IntegrationError(f"emitted state invalid ({error})", times[len(states)]) from error
            chunks.append((tuple(times), tuple(traces), states))
            times.clear()
            traces.clear()

    def emit(t: float, rho: np.ndarray, raw_trace: float) -> None:
        chunk[len(times)] = rho
        times.append(t)
        traces.append(raw_trace)
        if len(times) == len(chunk):
            flush()

    t = 0.0
    cumulative_drift = 0.0
    # A blow-up (of the propagator too) ends in the drift check; the renormalization
    # before it may divide by 0.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        emit(t, rho, float(np.trace(rho).real))
        propagate = _taylor_propagator(g, dt, remainder)
        for start in starts:
            stop = min(start + sample_every, n_steps)
            full = min(stop, n_full) - start
            rho_next, raw_trace, drift, t_next = advance(rho, t, full, stop > n_full)
            if not drift <= bound:  # also catches NaN; replay to find the failing step
                flush()  # an invalid state emitted before this interval is reported first
                for i in range(start, stop):  # step i is a full step unless it is the remainder
                    rho, raw_trace, drift, t = advance(rho, t, int(i < n_full), i >= n_full)
                    if not drift <= bound:
                        raise IntegrationError(f"trace drift {drift:.3e} exceeds {bound:.0e}", t)
            else:
                rho, t = rho_next, t_next
            cumulative_drift += drift
            emit(t, rho, raw_trace)
        flush()
    logger.debug(
        "lindblad trajectory: %d steps, cumulative trace correction %.3e",
        n_steps,
        cumulative_drift,
    )
    return Trajectory(chunks)


def generator_matrix(g: LindbladGenerator) -> np.ndarray:
    """The N^2 x N^2 matrix K (x) I + I (x) conj(K) + sum_k L^k (x) conj(L^k) over
    row-major rho of the flow `lindblad_apply` evaluates, from vec(A rho B) =
    (A (x) B^T) vec(rho): entry [(m, n), (k, l)] is sum_j A_j[m, k] B_j^T[n, l] over
    the stacked pairs (K, I, L^1, ...) and (I, conj(K), conj(L^1), ...), one batched
    small product per (m, n) written straight into the (m, n, k, l) layout."""
    n = g.dim
    eye, k = np.eye(n)[None], g.effective_hamiltonian[None]
    left = np.concatenate([k, eye, g.jump_ops]).transpose(1, 2, 0)  # [m, k, j]
    right = np.concatenate([eye, k.conj(), g.jump_ops.conj()]).transpose(1, 0, 2)  # [n, j, l]
    return (left[:, None] @ right).reshape(n * n, n * n)


def lindblad_spectrum(g: LindbladGenerator) -> list[tuple[complex, np.ndarray]]:
    """Eigenvalues and eigenmatrices of the generator.

    Solves the (generally non-Hermitian) N^2 x N^2 eigenproblem with a dense
    direct eigensolver.  Nonzero eigenvalues come with traceless
    eigenmatrices, and the spectrum always contains (at least) one zero
    eigenvalue; pairs are returned sorted by descending real part.
    """
    mat = generator_matrix(g)
    values, vectors = np.linalg.eig(mat)
    n = g.dim
    pairs = []
    for i in range(values.size):
        q = vectors[:, i].reshape(n, n)
        pairs.append((complex(values[i]), q))
    pairs.sort(key=lambda p: (-p[0].real, -p[0].imag))

    scale = max(1.0, float(np.max(np.abs(values))))
    for lam, q in pairs:
        if abs(lam) > 1e-9 * scale and abs(np.trace(q)) > 1e-9:
            raise ArithmeticError(
                f"eigenmatrix with eigenvalue {lam!r} has nonzero trace {np.trace(q)!r}"
            )
    if min(abs(lam) for lam, _ in pairs) > 1e-9 * scale:
        raise ArithmeticError("generator spectrum lacks a zero eigenvalue")
    return pairs
