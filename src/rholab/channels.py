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

import functools
import logging
import math
from typing import Callable, Iterator

import numpy as np

from .density import DensityOperator, DensityStack, _checked, _required, require_state
from .errors import (
    IntegrationError,
    NotCompletelyPositiveError,
    ShapeError,
    ValidationError,
)
from .linalg import (
    HERMITIAN_ATOL,
    HermitianEig,
    _complex_array,
    _Record,
    as_matrix,
    as_square,
    as_square_stack,
    first_failure,
    hermitian_eig,
    is_finite_real,
    is_integer,
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
# and every sample's state, time and raw trace are held until the run ends; `rholab
# evolve` makes and writes the spectra and rows a chunk at a time (tracemalloc peak
# through cli.main: 0.085 KB per sample at d = 2 over 10^5 samples, 8.5 MB in all; 4.2 KB
# at d = 16 over 5 * 10^3; about 0.41 GB at the cap).
MAX_STEPS = 10**7
MAX_SAMPLES = 10**5

# Emitted states are validated a chunk at a time, with one eigensolve per chunk.  A
# chunk holds CHUNK_ENTRIES matrix entries (64 KiB of complex128), so chunk_length(d)
# states.  The solver holds the matrices still rotating, their eigenvectors, one rotation
# and one product, one round's indices, and the eigenpairs of those that left; a
# DensityStack makes its hermitized copy after it, next to the spectra (an evolved chunk,
# stored Hermitian, makes none).  The DensityStack of a full chunk peaks near 4.1-4.4
# times the chunk at every dimension (tracemalloc), a cost that does not grow with the run:
#
#     d                   16     8      4      3      2
#     states per chunk    16     64     256    455    1024
#     peak (KiB)          261    264    271    273    284
#
# At d = 2 a solve of 1 to 33 states costs about 0.2 ms, nearly all of it per call, so a
# shipped-size trajectory (21 or 33 samples) takes one solve, not two or three.
CHUNK_ENTRIES = 16 * 16**2


def chunk_length(dim: int) -> int:
    """States per validated chunk of `evolve_lindblad` at dimension dim: as many as fit
    in CHUNK_ENTRIES matrix entries, at least one."""
    return max(1, CHUNK_ENTRIES // (dim * dim))


# Largest dimension at which the integrator builds the N^2 x N^2 propagator
# matrix T(dt L).  Above it the same polynomial is applied in operator form:
# at d = 16, T has 65,536 complex entries (1 MB) and building it peaks near
# 4.2 MB (tracemalloc), about nine times what a whole d = 16 run otherwise holds.
PROPAGATOR_MATRIX_MAX_DIM = 8


class KrausChannel(_Record):
    """A channel rho -> sum_k K^k rho K^k(dag) with sum_k K^k(dag) K^k = I; the
    Kraus set is kept as one read-only (K, n, n) array."""

    __slots__ = ("kraus_ops",)

    def __init__(self, kraus_ops):
        ops = as_square_stack(kraus_ops)
        require_close(
            lambda: (ops.conj().swapaxes(1, 2) @ ops).sum(0) - np.eye(ops.shape[-1]),
            COMPLETENESS_ATOL,
            "incomplete Kraus set (sum K(dag)K != I)",
        )
        self.__setstate__((ops,))

    @property
    def dim(self) -> int:
        return self.kraus_ops.shape[-1]

    def apply(self, rho) -> np.ndarray:
        k = self.kraus_ops
        return (k @ as_square(rho, self.dim) @ k.conj().swapaxes(1, 2)).sum(0)


def _require_dim(dim) -> None:
    """Raise ValidationError unless the space dimension dim is an integer of at least 1."""
    if not (is_integer(dim) and dim >= 1):
        raise ValidationError(f"dim must be an integer of at least 1, got {dim!r}")


class Superoperator(_Record):
    """Linear map on density matrices via the rank-4 coefficient tensor, whose entries are
    read as complex numbers and must be finite."""

    __slots__ = ("dim", "tensor")

    def __init__(self, dim: int, tensor):  # tensor: shape (N, N, N, N), indexed [m, k, n, l]
        _require_dim(dim)
        t = _complex_array(tensor, "coefficient tensor entries")
        if t.shape != (dim, dim, dim, dim):
            raise ShapeError(f"coefficient tensor must have shape {(dim,) * 4}, got {t.shape}")
        as_matrix(t.reshape(dim * dim, dim * dim))  # entries must be finite
        self.__setstate__((dim, t))

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
    """Coefficient tensor M[m,k,n,l] = sum_j K^j_mk conj(K^j_nl), finite and of the
    channel's dimension: a complete Kraus set has no entry above 1 in modulus."""
    ops = _required(c, KrausChannel).kraus_ops
    tensor = np.einsum("jmk,jnl->mknl", ops, ops.conj())
    tensor.setflags(write=False)  # built here, so the superoperator keeps it without a copy
    return Superoperator._stored(c.dim, tensor)


class EigenmatrixDecomposition(_Record):
    """Spectral form rho' = sum_i lambda_i E^i rho E^i(dag) of a
    hermiticity-preserving superoperator.

    Eigenvalues, one read-only real array holding one finite value per eigenmatrix, are
    descending; eigenmatrices, one read-only (N^2, N, N) array, are orthonormal under
    Tr(E^k E^l(dag)) = delta_kl.  For a trace-preserving map the eigenvalues sum to the
    space dimension N.
    """

    __slots__ = ("dim", "eigenvalues", "eigenmatrices")

    def __init__(self, dim: int, eigenvalues, eigenmatrices):
        _require_dim(dim)
        matrices = as_square_stack(eigenmatrices, dim)
        values = np.asarray(eigenvalues)
        if values.shape != (len(matrices),):
            raise ShapeError(f"expected {len(matrices)} eigenvalues, got shape {values.shape}")
        if values.dtype.kind not in "iufc" or not np.isfinite(values).all() or np.imag(values).any():
            raise ValidationError("eigenvalues must be finite real numbers")
        self.__setstate__((dim, np.real(values).astype(float, copy=False), matrices))

    @property
    def is_completely_positive(self) -> bool:
        return bool(np.min(self.eigenvalues) >= -CP_EIGENVALUE_TOL)

    def apply(self, rho) -> np.ndarray:
        e = self.eigenmatrices
        terms = e @ as_square(rho, self.dim) @ e.conj().swapaxes(1, 2)
        return (self.eigenvalues[:, None, None] * terms).sum(0)


def _range_basis(f: np.ndarray) -> tuple[np.ndarray, int]:
    """A column-pivoted Householder QR of the n x c matrix f (Businger and Golub, 1965),
    taken to f's numerical rank r: each step reflects the column of largest norm left onto
    R's next diagonal entry, and the QR stops once no column left has a norm above
    n eps |f|_F, roundoff of f.  f is overwritten.  Returns the rows of Q^T and r, for the
    n x n unitary Q = H_0 ... H_(r-1) = I - V T V(dag) (the compact WY form of LAPACK's
    zlarft): Q's first r columns span f's range and the rest its complement."""
    n, c = f.shape
    tol2 = (n * np.finfo(float).eps) ** 2 * np.vdot(f, f).real
    tau = []
    for r in range(c + 1):
        norms = np.square(np.abs(f[r:, r:])).sum(0)
        if not norms.size or norms.max() <= tol2:
            break
        j = int(norms.argmax())
        if j:
            f[:, [r, r + j]] = f[:, [r + j, r]]
        v = f[r:, r]  # reflected onto -phase(v_0) |v| e_0
        norm, head = math.sqrt(norms[j]), abs(v[0])
        v[0] += (v[0] / head if head else 1.0) * norm
        tau.append(1.0 / (norm * (norm + head)))  # 2 / |v|^2
        f[r:, r + 1:] -= (tau[-1] * v)[:, None] * (v.conj() @ f[r:, r + 1:])
        f[:r, r] = 0.0  # R's part: column r now holds v_r alone, from row r
    x = f[:, :r]  # V
    gram = x.conj().T @ x
    t = np.zeros((r, r), dtype=complex)
    for k in range(r):
        t[:k, k] = -tau[k] * (t[:k, :k] @ gram[:k, k])
        t[k, k] = tau[k]
    rows = x.conj() @ (t.T @ x.T)  # Q^T = I - conj(V) T^T V^T
    np.negative(rows, out=rows)
    rows.ravel()[:: n + 1] += 1.0
    return rows, r


def eigenmatrix_decompose(s: Superoperator) -> EigenmatrixDecomposition:
    """Eigendecompose the flattened superoperator, the N^2 x N^2 matrix C, into eigenmatrices.

    C, scaled exactly by the power of two that brings its largest entry into [1/2, 1), is
    reduced by a column-pivoted Householder QR to its numerical rank r (`_range_basis`).
    The first r columns Q_r of its unitary Q span C's range, so C's eigenpairs of nonzero
    eigenvalue are those of the r x r matrix S = Q_r(dag) C Q_r, with eigenvectors Q_r W.
    Q's other N^2 - r columns are eigenmatrices of eigenvalue 0, placed between the
    positive and the negative eigenvalues.  A map of rank N^2 solves an N^2 x N^2 S, and
    the zero map solves nothing.  A map built from m Kraus operators has rank at most m, so
    its S is at most m x m.

    Raises ValidationError unless the map preserves hermiticity, i.e. its flattened matrix
    is Hermitian (`require_hermitian`, as `hermitian_eig` checks it); a map built from
    Kraus operators preserves it by construction.
    """
    n2 = _required(s, Superoperator).dim ** 2
    c = require_hermitian(s.as_matrix()).copy()
    parts = c.view(float)
    e = math.frexp(float(np.abs(parts).max()))[1]
    np.ldexp(parts, -e, out=parts)  # exact: no column norm over- or underflows
    rows, r = _range_basis(c.copy())  # rows: Q^T, so rows[:r] is Q_r^T
    values, matrices = np.zeros(n2), rows  # Q's last N^2 - r columns: eigenvalue 0
    if r:
        eig = hermitian_eig(rows[:r].conj() @ c @ rows[:r].T)  # S 2^-e
        with np.errstate(over="ignore"):
            solved = np.ldexp(eig.eigenvalues[::-1], e)
        if not np.isfinite(solved).all():  # S's are: scaled back, one passed the largest float
            raise ArithmeticError("the map's eigenvalues are not finite")
        vectors = eig.eigenvectors[:, ::-1].T @ rows[:r]  # row i: column i of Q_r W
        positive = int((solved > 0.0).sum())
        values = np.concatenate((solved[:positive], values[r:], solved[positive:]))
        matrices = np.concatenate((vectors[:positive], rows[r:], vectors[positive:]))
    for a in (values, matrices):
        a.setflags(write=False)  # built here, so the decomposition keeps them without a copy
    return EigenmatrixDecomposition(s.dim, values, matrices.reshape(-1, s.dim, s.dim))


def kraus_from_decomposition(e: EigenmatrixDecomposition) -> KrausChannel:
    """Kraus operators K^i = sqrt(lambda_i) E^i of a completely positive map."""
    _required(e, EigenmatrixDecomposition)
    min_eig = float(np.min(e.eigenvalues))
    if min_eig < -CP_EIGENVALUE_TOL:
        raise NotCompletelyPositiveError(
            f"map is not completely positive: eigenvalue {min_eig:.3e}"
        )
    keep = e.eigenvalues > _NEGLIGIBLE_EIGENVALUE
    ops = np.sqrt(e.eigenvalues[keep])[:, None, None] * e.eigenmatrices[keep]
    ops.setflags(write=False)  # built here, so the channel keeps it without a copy
    return KrausChannel(ops)


class LindbladGenerator(_Record):
    """Generator data: a Hamiltonian and a set of jump operators, kept as one
    read-only (K, n, n) array (shape (0, n, n) when there are none).

    The effective non-Hermitian Hamiltonian K = -iH - 1/2 sum_k L^k(dag) L^k is derived
    once here (and checked finite).  K and the jump stack are the one generator data
    that both evaluators read: the flow `_generator_flow` and the supermatrix
    `generator_matrix`.
    """

    __slots__ = ("hamiltonian", "jump_ops", "effective_hamiltonian")

    def __init__(self, hamiltonian, jump_ops=()):
        h = require_hermitian(hamiltonian)
        ops = as_square_stack(jump_ops, h.shape[0])
        k = require_finite(
            lambda: -1j * h - 0.5 * (ops.conj().swapaxes(1, 2) @ ops).sum(0),
            "effective Hamiltonian -iH - 1/2 sum L(dag)L",
        )
        k.setflags(write=False)
        self.__setstate__((h, ops, k))

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]

    def __repr__(self) -> str:  # K is derived from the two fields shown
        return f"LindbladGenerator(hamiltonian={self.hamiltonian!r}, jump_ops={self.jump_ops!r})"


def _generator_flow(g: LindbladGenerator) -> Callable[[np.ndarray], np.ndarray]:
    """The flow rho -> K rho + rho K(dag) + sum_k L^k rho L^k(dag) on one matrix, with K
    the generator's effective Hamiltonian, and K(dag) and the jump column built once.

    The jump sum is two matrix products: one batched product writes each L^k rho
    straight into its block of the row (L^1 rho | ... | L^K rho), and the row times
    the column of the L^k(dag) sums them.
    """
    n, ops = g.dim, g.jump_ops
    k = g.effective_hamiltonian
    k_dag = k.conj().T.copy()
    column_dag = np.empty((len(ops) * n, n), dtype=complex)  # L^1(dag) over L^2(dag) over ...
    np.conjugate(ops.swapaxes(1, 2), out=column_dag.reshape(-1, n, n))

    def flow(rho: np.ndarray) -> np.ndarray:
        out = k @ rho + rho @ k_dag
        row = np.empty((n, len(ops) * n), dtype=complex)
        np.matmul(ops, rho, out=row.reshape(n, len(ops), n).swapaxes(0, 1))  # block k: L^k rho
        out += row @ column_dag
        return out

    return flow


def lindblad_apply(g: LindbladGenerator, d: DensityOperator) -> np.ndarray:
    """The instantaneous flow

        -i[H, rho] + sum_k (L^k rho L^k(dag) - 1/2 {L^k(dag) L^k, rho})
          = K rho + rho K(dag) + sum_k L^k rho L^k(dag),

    with K the generator's `effective_hamiltonian`.  The output is Hermitian and traceless.
    """
    return _generator_flow(_required(g, LindbladGenerator))(as_square(require_state(d).matrix, g.dim))


class Trajectory(_Record):
    """The N samples of one `evolve_lindblad` run: `times` and `raw_traces`, two
    read-only (N,) float arrays, and `states`, one DensityStack of the N states.

    Sample i is times[i], raw_traces[i] and states[i], and states.eigenvalues[i, 0] is
    its smallest eigenvalue.  raw_traces[i] is the trace its sample interval gives the
    renormalized state before it: the real trace of the interval's hermitized raw
    state over that of the sample before, with 1 before an interval stepped alone (of
    the interval's last step if it was replayed one step at a time).
    """

    __slots__ = ("times", "raw_traces", "states")

    def __init__(self, times, raw_traces, states):
        arrays = [np.asarray(a) for a in (times, raw_traces)]
        if any(a.dtype.kind not in "iuf" or not np.isfinite(a).all() for a in arrays):
            raise ValidationError("times and raw traces must be finite real numbers")
        times, raw_traces = (a.astype(float, copy=False) for a in arrays)
        if not isinstance(states, DensityStack) or not times.shape == raw_traces.shape == (len(states),):
            raise ShapeError("expected a DensityStack and as many times and raw traces, each a 1-D array")
        self.__setstate__((times, raw_traces, states))

    def __len__(self) -> int:
        return len(self.states)

    def __repr__(self) -> str:
        return f"Trajectory(len={len(self)})"


def _taylor_polynomial(
    flow: Callable, rho: np.ndarray, h: float, flow_rho: np.ndarray | None = None
) -> np.ndarray:
    """T(hL) rho = rho + hL(rho + hL/2 (rho + hL/3 (rho + hL/4 rho))), the degree-4 Taylor
    polynomial by Horner, with `flow` applying L; `flow_rho`, where the caller has it, is
    flow(rho), which is then not computed."""
    out = rho + (h / 4) * (flow(rho) if flow_rho is None else flow_rho)
    for k in (3, 2, 1):
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

    propagate(rho, full, False, out) also takes a (R, N, N) array out, writes P^r rho
    into out[r - 1] for r = 1 ... R, with P = T(dt L)^full, and returns out.  In
    operator form each state is P applied to the one before it in out; where T is
    tabulated it doubles on the states: out[m + r] = P^m out[r] for r < m, one
    batched product per doubling, and P^2m is squared from P^m only when more
    states remain.  Besides the cached P, at most two powers are alive at once, and
    no stack of powers is built.  The states are not renormalized, and for an
    unstable P their entries may overflow.
    """
    n = g.dim
    if n > PROPAGATOR_MATRIX_MAX_DIM:
        flow = _generator_flow(g)

        def propagate(rho: np.ndarray, full: int, last: bool, out: np.ndarray | None = None) -> np.ndarray:
            for r in range(1 if out is None else len(out)):  # not recursive: no cycle holds the flow
                for _ in range(full):
                    rho = _taylor_polynomial(flow, rho, dt)
                if out is not None:
                    out[r] = rho
            if out is not None:
                return out
            return _taylor_polynomial(flow, rho, remainder) if last else rho

        return propagate

    g_mat, eye = generator_matrix(g), np.eye(n * n, dtype=complex)
    t_full = _taylor_polynomial(g_mat.__matmul__, eye, dt, g_mat)  # g_mat @ eye is g_mat
    t_last = _taylor_polynomial(g_mat.__matmul__, eye, remainder, g_mat) if remainder > 0.0 else None

    @functools.cache
    def power(full: int, last: bool) -> np.ndarray:
        p = np.linalg.matrix_power(t_full, full)
        return t_last @ p if last else p

    def propagate(rho: np.ndarray, full: int, last: bool, out: np.ndarray | None = None) -> np.ndarray:
        if out is None:
            return (power(full, last) @ rho.reshape(-1)).reshape(n, n)
        states, step = out.reshape(len(out), n * n), power(full, False)  # a view: out[r] is states[r]
        np.matmul(step, rho.reshape(-1), out=states[0])
        done = 1
        while done < len(states):  # step is P^done: states[done + r] = P^done states[r]
            take = min(done, len(states) - done)
            np.matmul(states[:take], step.T, out=states[done:done + take])
            done += take
            if done < len(states):
                step = step @ step
        return out

    return propagate


def step_schedule(t_end: float, dt: float, sample_every: int) -> tuple[int, float]:
    """Split [0, t_end] into full steps of length dt plus a final shorter step.

    Returns (n_full, remainder), where remainder is 0.0 when t_end is a
    multiple of dt up to rounding.  Raises ValidationError unless dt > 0 and
    t_end >= 0 are finite real numbers, sample_every is an integer >= 1, and
    the schedule is within MAX_STEPS steps and MAX_SAMPLES samples.
    """
    if not (is_integer(sample_every) and sample_every >= 1):
        raise ValidationError(f"sample_every must be an integer of at least 1, got {sample_every!r}")
    if not (is_finite_real(dt) and dt > 0):
        raise ValidationError(f"dt must be a positive finite real number, got {dt!r}")
    if not (is_finite_real(t_end) and t_end >= 0):
        raise ValidationError(f"t_end must be a non-negative finite real number, got {t_end!r}")
    t_end, dt, sample_every = float(t_end), float(dt), int(sample_every)
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


def _sample_times(n_full: int, remainder: float, dt: float, sample_every: int) -> np.ndarray:
    """The sample times of a `step_schedule`: 0, then the running sum of the steps at every
    sample_every-th step and at the last, added in order (dt n_full times, then the
    remainder) by np.add.accumulate over blocks of at most 4096 steps."""
    times = np.empty(1 + -(-(n_full + (remainder > 0.0)) // sample_every))
    times[0] = t = 0.0
    block = np.empty(min(n_full, 4096))
    for start in range(0, n_full, 4096):
        sums = block[:n_full - start]  # the times after steps start + 1, start + 2, ...
        sums.fill(dt)
        sums[0] = t + dt
        np.add.accumulate(sums, out=sums)
        k = start // sample_every + 1  # the first sample after step start
        picked = sums[k * sample_every - start - 1::sample_every]
        times[k:k + len(picked)] = picked
        t = float(sums[-1])
    times[-1] = t + remainder  # the last sample ends the schedule (t itself without a remainder)
    return times


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

    Samples are emitted at step 0, every `sample_every` steps, and at t_end; their
    times sum the steps one at a time (`_sample_times`).  Every generator
    annihilates the trace and preserves hermiticity, and so does T; the clean-up
    therefore runs once per sample interval: the state is hermitized
    ((rho + rho(dag))/2), its drift taken as the ratio of its raw trace to the one
    before (in exact arithmetic the trace the interval gives a unit-trace state),
    then trace-renormalized.  The returned Trajectory's times, raw traces and states
    are allocated once from the schedule, and the run fills them in place in three
    phases:

    1. The raw states of every full-length interval are propagated at once from
       the initial state (see `_taylor_propagator`).
    2. They are cleaned up a chunk at a time, chunk_length(dim) states
       (CHUNK_ENTRIES matrix entries), up to the first sample whose drift is NaN or
       above ten times TRACE_DRIFT_TOL, or that has a non-finite entry.  From that
       sample on, and for the last, shorter interval, each interval is stepped
       alone from the sample before and cleaned up the same way, its drift counted
       from a trace of 1.  A stepped drift that fails the check replays the
       interval one step at a time, and the first step that fails stops the
       integration: its IntegrationError, at its time, is kept for phase 3.
    3. The samples before the failing one, all of them if none fails, are
       validated a chunk at a time, one `hermitian_eig` solve per chunk.  Sample 0
       is d0 with the spectrum its validation solved, so each state is solved once.
       A smallest eigenvalue below -10 MIN_EIGENVALUE_TOL raises IntegrationError
       at the sample's time; after them the kept drift failure, if any, is raised.

    Phases 1 and 2 run when `evolve_chunks` is called and phase 3 as its chunks are
    iterated; `rholab evolve` writes each chunk as it is validated, and here the
    chunks are gathered into one trajectory.

    The earliest failing sample is the error: an invalid state before the first
    failing step wins.  The interval's trace drift and the smallest eigenvalue at
    each emitted sample are diagnostics.  The debug log line sums the drift of
    every interval, or of every step of a replayed one.
    """
    chunks = evolve_chunks(g, d0, t_end, dt, sample_every)
    eigenvalues, eigenvectors = np.empty((len(chunks), g.dim)), np.empty((len(chunks), g.dim, g.dim), dtype=complex)
    start = 0
    for times, raw_traces, states in chunks:
        block = slice(start, start + len(states))
        eigenvalues[block], eigenvectors[block] = states.eigenvalues, states.eigenvectors
        start = block.stop
    for a in (eigenvalues, eigenvectors):
        a.setflags(write=False)  # built here, so the trajectory keeps them without a copy
    # Every chunk views the run's read-only arrays, so their bases are the whole run's.
    states = DensityStack._stored(states.matrices.base, eigenvalues, eigenvectors)
    return Trajectory._stored(times.base, raw_traces.base, states)


class SampleStream:
    """The samples of one run, made as they are iterated, once: a chunk or a row at a
    time.  len() is the number of samples."""

    __slots__ = ("_items", "_samples")

    def __init__(self, items: Iterator, samples: int):
        self._items, self._samples = items, samples

    def __iter__(self) -> Iterator:
        return self._items

    def __len__(self) -> int:
        return self._samples


def evolve_chunks(
    g: LindbladGenerator, d0: DensityOperator, t_end: float, dt: float, sample_every: int = 1
) -> SampleStream:
    """`evolve_lindblad`'s run as a stream: one (times, raw_traces, DensityStack) per
    validated chunk of chunk_length(dim) samples, in order, views of the run's
    read-only arrays; len() is the number of samples.

    Phases 1 and 2 run before it returns, so a bad schedule raises ValidationError at
    the call.  Phase 3 runs as the stream is iterated, a chunk per step, and no chunk
    is held between yields.  Sample 0 is the validated d0 with the spectrum its
    validation solved, held to the same floor as every sample, so each state is
    eigensolved once.  Iteration raises IntegrationError at the earliest failing
    sample's time: an invalid state when its chunk is reached; a drift failure once
    every chunk before it is validated, none of them yielded.
    """
    _required(g, LindbladGenerator)
    require_state(d0)
    n_full, remainder = step_schedule(t_end, dt, sample_every)
    dt, sample_every = float(dt), int(sample_every)  # of any type step_schedule accepts
    n_steps = n_full + (remainder > 0.0)
    bound, psd_atol = 10.0 * TRACE_DRIFT_TOL, 10.0 * MIN_EIGENVALUE_TOL
    times, d = _sample_times(n_full, remainder, dt, sample_every), g.dim
    n = len(times)  # samples: step 0, then one per interval
    raw_traces, matrices = np.empty(n), np.empty((n, d, d), dtype=complex)
    matrices[0] = as_square(d0.matrix, d)
    chunk = chunk_length(d)
    batched = n_full // sample_every  # samples 1 to `batched` end the full-length intervals
    cumulative_drift, previous = 0.0, 1.0  # previous: the raw trace of the last batched sample

    def settle(k: int, stop: int, batch: bool = False) -> int:
        """Clean up samples k to stop - 1 in place: hermitize each, take its drift as its
        raw trace over the one before (1 before a stepped sample, `previous` before a
        batch, which moves it on) and renormalize it.  Return the first sample whose drift
        fails the check or, in a batch, that is not finite; or stop."""
        nonlocal cumulative_drift, previous
        states = matrices[k:stop]
        np.add(states, states.conj().swapaxes(1, 2), out=states)
        states *= 0.5  # exact, so the same bits as dividing by 2
        traces = states.trace(axis1=1, axis2=2).real
        raw_traces[k:stop] = ratios = traces / np.append(previous if batch else 1.0, traces[:-1])
        drifts = np.abs(ratios - 1.0)
        passed = drifts <= bound  # NaN fails too
        if batch:
            passed &= np.isfinite(states).all(axis=(1, 2))  # an overflowing power fails here
        accepted = len(states) if passed.all() else int(passed.argmin())
        states /= traces[:, None, None]
        cumulative_drift += float(drifts[:accepted].sum())
        if batch and accepted:
            previous = traces[accepted - 1]
        return k + accepted

    def interval(k: int) -> IntegrationError | None:
        """Step sample interval k alone, from sample k - 1; a drift that fails the check
        replays it one step at a time and returns the failure of the first step that fails."""
        start = (k - 1) * sample_every
        stop = min(start + sample_every, n_steps)
        matrices[k] = propagate(matrices[k - 1], min(stop, n_full) - start, stop > n_full)
        if settle(k, k + 1) > k:
            return None
        t = float(times[k - 1])
        for i in range(start, stop):  # step i is a full step unless it is the remainder
            matrices[k] = propagate(matrices[k if i > start else k - 1], int(i < n_full), i >= n_full)
            t += dt if i < n_full else remainder
            if settle(k, k + 1) == k:
                return IntegrationError(f"trace drift {abs(raw_traces[k] - 1.0):.3e} exceeds {bound:.0e}", t)
        return None

    def spectra(block: slice) -> tuple[np.ndarray, np.ndarray]:
        """The eigenvalues and eigenvectors of the states of block, checked as a stack by
        DensityStack's checks without its hermitized copy: the states are stored exactly
        Hermitian.  Sample 0 is d0's matrix, so a solve of it would repeat the one d0's
        validation made: d0 passed every check at the same trace tolerance, so only the
        floor is checked, on d0's smallest eigenvalue, and only the samples after it are
        solved.  A failing state, sample 0 included, is named by a solve of it alone."""
        solved, parts = block, []
        try:
            if not block.start:
                if not d0.eigenvalues[0] >= -psd_atol:  # DensityOperator's message, if a solve passes
                    raise ValidationError(f"density is not positive: min eigenvalue = {d0.eigenvalues[0]:.3e}")
                solved, parts = slice(1, block.stop), [HermitianEig(d0.eigenvalues[None], d0.eigenvectors[None])]
            if solved.start < solved.stop:
                parts.append(_checked(matrices[solved], psd_atol, stack=True)[1])
        except ValidationError as exc:  # name the first invalid state, checked alone
            i, exc = first_failure(lambda m: _checked(m, psd_atol), matrices[solved]) or (0, exc)
            raise IntegrationError(f"emitted state invalid ({exc})", float(times[solved.start + i])) from exc
        if len(parts) == 1:
            return parts[0].eigenvalues, parts[0].eigenvectors
        values, vectors = (np.concatenate([getattr(p, a) for p in parts]) for a in ("eigenvalues", "eigenvectors"))
        for a in (values, vectors):
            a.setflags(write=False)  # built here, so the chunk keeps them without a copy
        return values, vectors

    raw_traces[0] = matrices[0].trace().real
    # A blow-up (of the propagator too) ends in the drift or finite check; the
    # renormalization before it may divide by 0.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        propagate = _taylor_propagator(g, dt, remainder)
        if batched:  # the raw states, hermitized and renormalized by settle
            propagate(matrices[0], sample_every, False, matrices[1:batched + 1])
        k, failure = 1, None
        while k <= batched:  # a chunk at a time, to the first failing sample
            stop = min(k - k % chunk + chunk, batched + 1)
            k = settle(k, stop, batch=True)
            if k < stop:
                break
        while k < n and (failure := interval(k)) is None:
            k += 1
    for a in (times, raw_traces, matrices):
        a.setflags(write=False)  # built here, so the chunks view them without a copy

    def validated() -> Iterator[tuple[np.ndarray, np.ndarray, DensityStack]]:  # phase 3
        for start in range(0, k, chunk):
            block = slice(start, min(start + chunk, k))
            if failure:
                spectra(block)
            else:  # the states are stored exactly Hermitian, so the stack's hermitized copy has their bits
                yield times[block], raw_traces[block], DensityStack._stored(matrices[block], *spectra(block))
        if failure:
            raise failure
        logger.debug("lindblad trajectory: %d steps, cumulative trace correction %.3e", n_steps, cumulative_drift)

    return SampleStream(validated(), n)


def generator_matrix(g: LindbladGenerator) -> np.ndarray:
    """The N^2 x N^2 matrix K (x) I + I (x) conj(K) + sum_k L^k (x) conj(L^k) over
    row-major rho of the flow `lindblad_apply` evaluates, from vec(A rho B) =
    (A (x) B^T) vec(rho): entry [(m, n), (k, l)] is sum_j A_j[m, k] B_j^T[n, l] over
    the stacked pairs (K, I, L^1, ...) and (I, conj(K), conj(L^1), ...), one batched
    small product per (m, n) written straight into the (m, n, k, l) layout."""
    n = _required(g, LindbladGenerator).dim
    eye, k = np.eye(n)[None], g.effective_hamiltonian[None]
    left = np.concatenate([k, eye, g.jump_ops]).transpose(1, 2, 0)  # [m, k, j]
    right = np.concatenate([eye, k.conj(), g.jump_ops.conj()]).transpose(1, 0, 2)  # [n, j, l]
    return (left[:, None] @ right).reshape(n * n, n * n)


def lindblad_spectrum(g: LindbladGenerator) -> list[tuple[complex, np.ndarray]]:
    """Eigenvalues and eigenmatrices of the generator.

    Solves the (generally non-Hermitian) N^2 x N^2 eigenproblem with a dense
    direct eigensolver.  Nonzero eigenvalues come with traceless
    eigenmatrices, and the spectrum always contains (at least) one zero
    eigenvalue; pairs are returned sorted by descending real part, then
    descending imaginary part, ties in the eigensolver's order.
    """
    values, vectors = np.linalg.eig(generator_matrix(g))
    n = g.dim
    order = np.lexsort((-values.imag, -values.real))  # stable; the last key sorts first
    pairs = [(complex(values[i]), vectors[:, i].reshape(n, n)) for i in order]
    magnitudes, traces = np.abs(values[order]), vectors.reshape(n, n, -1).trace()[order]
    scale = max(1.0, float(magnitudes.max()))
    traced = (magnitudes > 1e-9 * scale) & (np.abs(traces) > 1e-9)
    if traced.any():
        lam, q = pairs[traced.argmax()]
        raise ArithmeticError(f"eigenmatrix with eigenvalue {lam!r} has nonzero trace {np.trace(q)!r}")
    if magnitudes.min() > 1e-9 * scale:
        raise ArithmeticError("generator spectrum lacks a zero eigenvalue")
    return pairs
