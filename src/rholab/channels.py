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

import logging
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .density import DensityOperator
from .errors import (
    IntegrationError,
    NotCompletelyPositiveError,
    ShapeError,
    ValidationError,
)
from .linalg import as_square, hermitian_eig, require_hermitian

logger = logging.getLogger(__name__)

COMPLETENESS_ATOL = 1e-10
HERMITICITY_PRESERVING_ATOL = 1e-10

# Eigenvalues of a CP map may dip this far below zero from solver noise.
CP_EIGENVALUE_TOL = 1e-9
# Decomposition eigenvalues below this are numerically zero and yield no Kraus op.
_NEGLIGIBLE_EIGENVALUE = 1e-12

# Per-step trace drift and per-sample eigenvalue bounds for the integrator;
# exceeding ten times either bound aborts the trajectory.
TRACE_DRIFT_TOL = 1e-8
MIN_EIGENVALUE_TOL = 1e-7

# Most integrator steps one trajectory may take, and most samples it may emit.
# A finite but huge t_end/dt would otherwise start a run that never finishes,
# and every sample is held until the run ends (about 0.9 KB at d = 2 and
# 9.1 KB at d = 16, so near 0.9 GB at the sample cap).
MAX_STEPS = 10**7
MAX_SAMPLES = 10**5

# Largest dimension at which the integrator builds the N^2 x N^2 propagator
# matrix T(dt L).  Above it the same polynomial is applied in operator form:
# at d = 16, T has 65,536 complex entries (1 MB) and building it peaks near
# 5.2 MB, about eleven times what a whole d = 16 run otherwise holds at once.
PROPAGATOR_MATRIX_MAX_DIM = 8


@dataclass(frozen=True)
class KrausChannel:
    """A channel rho -> sum_k K^k rho K^k(dag) with sum_k K^k(dag) K^k = I."""

    kraus_ops: tuple[np.ndarray, ...]

    def __init__(self, kraus_ops):
        ops = tuple(as_square(k) for k in kraus_ops)
        if not ops:
            raise ValidationError("a Kraus channel needs at least one operator")
        dim = ops[0].shape[0]
        if any(op.shape != (dim, dim) for op in ops):
            raise ShapeError("all Kraus operators must share one square shape")
        total = sum(op.conj().T @ op for op in ops)
        dev = float(np.max(np.abs(total - np.eye(dim))))
        if dev > COMPLETENESS_ATOL:
            raise ValidationError(
                f"incomplete Kraus set: max |sum K(dag)K - I| = {dev:.3e}"
            )
        object.__setattr__(self, "kraus_ops", ops)

    @property
    def dim(self) -> int:
        return self.kraus_ops[0].shape[0]

    def apply(self, rho) -> np.ndarray:
        m = as_square(rho)
        out = np.zeros_like(m)
        for k in self.kraus_ops:
            out += k @ m @ k.conj().T
        return out


@dataclass(frozen=True)
class Superoperator:
    """Linear map on density matrices via the rank-4 coefficient tensor."""

    dim: int
    tensor: np.ndarray  # shape (N, N, N, N), indexed [m, k, n, l]

    def __init__(self, dim: int, tensor):
        t = np.asarray(tensor, dtype=complex)
        if t.shape != (dim, dim, dim, dim):
            raise ShapeError(f"coefficient tensor must have shape {(dim,) * 4}, got {t.shape}")
        t = t.copy()
        t.setflags(write=False)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "tensor", t)

    def apply(self, rho) -> np.ndarray:
        m = as_square(rho)
        if m.shape[0] != self.dim:
            raise ShapeError(f"state dimension {m.shape[0]} != superoperator dimension {self.dim}")
        return np.einsum("mknl,kl->mn", self.tensor, m)

    def as_matrix(self) -> np.ndarray:
        """The N^2 x N^2 matrix over double indices (m,k) and (n,l)."""
        n2 = self.dim * self.dim
        return self.tensor.reshape(n2, n2)

    def is_hermiticity_preserving(self) -> bool:
        m = self.as_matrix()
        return bool(np.max(np.abs(m - m.conj().T)) <= HERMITICITY_PRESERVING_ATOL)

    def is_trace_preserving(self) -> bool:
        # sum_m M[m,k,m,l] = delta_kl is the completeness condition sum K(dag)K = I.
        contracted = np.einsum("mkml->kl", self.tensor)
        return bool(np.max(np.abs(contracted - np.eye(self.dim))) <= COMPLETENESS_ATOL)


def superop_from_kraus(c: KrausChannel) -> Superoperator:
    """Coefficient tensor M[m,k,n,l] = sum_j K^j_mk conj(K^j_nl)."""
    n = c.dim
    tensor = np.zeros((n, n, n, n), dtype=complex)
    for k in c.kraus_ops:
        tensor += np.einsum("mk,nl->mknl", k, k.conj())
    return Superoperator(n, tensor)


@dataclass(frozen=True)
class EigenmatrixDecomposition:
    """Spectral form rho' = sum_i lambda_i E^i rho E^i(dag) of a
    hermiticity-preserving superoperator.

    Eigenvalues are real and descending; eigenmatrices are orthonormal under
    Tr(E^k E^l(dag)) = delta_kl.  For a trace-preserving map the eigenvalues
    sum to the space dimension N.
    """

    dim: int
    eigenvalues: np.ndarray
    eigenmatrices: tuple[np.ndarray, ...]

    @property
    def is_completely_positive(self) -> bool:
        return bool(np.min(self.eigenvalues) >= -CP_EIGENVALUE_TOL)

    def apply(self, rho) -> np.ndarray:
        m = as_square(rho)
        out = np.zeros_like(m)
        for lam, e in zip(self.eigenvalues, self.eigenmatrices):
            out += lam * (e @ m @ e.conj().T)
        return out


def eigenmatrix_decompose(s: Superoperator) -> EigenmatrixDecomposition:
    """Eigendecompose the flattened superoperator into eigenmatrices."""
    if not s.is_hermiticity_preserving():
        raise ValidationError("superoperator does not preserve hermiticity")
    eig = hermitian_eig(s.as_matrix())
    order = np.argsort(eig.eigenvalues, kind="stable")[::-1]
    values = eig.eigenvalues[order]
    matrices = tuple(eig.eigenvectors[:, i].reshape(s.dim, s.dim) for i in order)
    return EigenmatrixDecomposition(s.dim, values, matrices)


def kraus_from_decomposition(e: EigenmatrixDecomposition) -> KrausChannel:
    """Kraus operators K^i = sqrt(lambda_i) E^i of a completely positive map."""
    min_eig = float(np.min(e.eigenvalues))
    if min_eig < -CP_EIGENVALUE_TOL:
        raise NotCompletelyPositiveError(
            f"map is not completely positive: eigenvalue {min_eig:.3e}"
        )
    ops = []
    for lam, mat in zip(e.eigenvalues, e.eigenmatrices):
        if lam > _NEGLIGIBLE_EIGENVALUE:
            ops.append(math.sqrt(float(lam)) * mat)
    return KrausChannel(ops)


@dataclass(frozen=True)
class LindbladGenerator:
    """Generator data: a Hamiltonian and a list of jump operators.

    half_gram = 1/2 sum_k L^k(dag) L^k is derived once here for the
    anticommutator term of the dissipator.
    """

    hamiltonian: np.ndarray
    jump_ops: tuple[np.ndarray, ...]
    half_gram: np.ndarray = field(repr=False, compare=False)

    def __init__(self, hamiltonian, jump_ops=()):
        h = require_hermitian(hamiltonian)
        ops = tuple(as_square(op) for op in jump_ops)
        if any(op.shape != h.shape for op in ops):
            raise ShapeError("jump operators must match the Hamiltonian dimension")
        half_gram = 0.5 * sum((op.conj().T @ op for op in ops), np.zeros(h.shape, dtype=complex))
        object.__setattr__(self, "hamiltonian", h)
        object.__setattr__(self, "jump_ops", ops)
        object.__setattr__(self, "half_gram", half_gram)

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]


def _apply_generator(g: LindbladGenerator, rho: np.ndarray) -> np.ndarray:
    h = g.hamiltonian
    out = -1j * (h @ rho - rho @ h) - (g.half_gram @ rho + rho @ g.half_gram)
    for op in g.jump_ops:
        out += op @ rho @ op.conj().T
    return out


def lindblad_apply(g: LindbladGenerator, d: DensityOperator) -> np.ndarray:
    """The instantaneous flow

        -i[H, rho] + sum_k (L^k rho L^k(dag) - 1/2 {L^k(dag) L^k, rho}).

    The output is Hermitian and traceless.
    """
    if g.dim != d.dim:
        raise ShapeError(f"generator dimension {g.dim} != density dimension {d.dim}")
    return _apply_generator(g, np.asarray(d.matrix))


@dataclass(frozen=True)
class LindbladSample:
    """One emitted trajectory point.

    raw_trace is the real trace of the step just before renormalization;
    min_eigenvalue is the smallest eigenvalue of the emitted state.
    """

    time: float
    state: DensityOperator
    raw_trace: float

    @property
    def min_eigenvalue(self) -> float:
        return float(self.state.eigenvalues[0])


def _map_matrix(flow: Callable[[np.ndarray], np.ndarray], n: int) -> np.ndarray:
    """The N^2 x N^2 matrix over row-major rho of a linear map that accepts a
    stack of matrices: column (k, l) is the image of the basis matrix E_kl."""
    basis = np.eye(n * n, dtype=complex).reshape(n * n, n, n)
    return flow(basis).reshape(n * n, n * n).T


def _taylor_propagator(g: LindbladGenerator, dt: float) -> Callable[[np.ndarray], np.ndarray]:
    """The step rho -> T(dt L) rho with T(A) = I + A + A^2/2 + A^3/6 + A^4/24,
    evaluated by Horner as I + A(I + A/2 (I + A/3 (I + A/4))).

    For a time-independent generator this is exactly the polynomial one
    classical RK4 step evaluates.  A step applies the generator four times; up
    to PROPAGATOR_MATRIX_MAX_DIM it is tabulated once as the matrix T, and each
    step is then one matvec on row-major rho.
    """

    def step(rho: np.ndarray) -> np.ndarray:
        out = rho
        for k in (4, 3, 2, 1):
            out = rho + (dt / k) * _apply_generator(g, out)
        return out

    n = g.dim
    if n > PROPAGATOR_MATRIX_MAX_DIM:
        return step
    t = _map_matrix(step, n)
    return lambda rho: (t @ rho.reshape(-1)).reshape(n, n)


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
) -> list[LindbladSample]:
    """Integrate drho/dt = L rho with a fixed-step degree-4 Taylor propagator.

    Each step multiplies rho by T(dt L) = sum_{k<=4} (dt L)^k / k!, which for
    this time-independent generator equals one classical RK4 step; a final
    shorter step reaches t_end when it is not a multiple of dt.  At most
    MAX_STEPS steps are taken and MAX_SAMPLES samples emitted: a longer
    schedule raises ValidationError before any work starts.

    Every step is hermitized ((rho + rho(dag))/2) and trace-renormalized;
    the per-step trace drift and the smallest eigenvalue at each emitted
    sample are diagnostics, and a NaN drift or exceeding ten times
    TRACE_DRIFT_TOL or MIN_EIGENVALUE_TOL raises IntegrationError at that time.
    Samples are emitted at step 0, every `sample_every` steps, and at t_end.
    """
    n_full, remainder = step_schedule(t_end, dt, sample_every)
    if g.dim != d0.dim:
        raise ShapeError(f"generator dimension {g.dim} != density dimension {d0.dim}")
    n_steps = n_full + (remainder > 0.0)
    full_step = _taylor_propagator(g, dt)
    last_step = _taylor_propagator(g, remainder) if remainder > 0.0 else full_step

    rho = np.array(d0.matrix, dtype=complex)
    samples = [_emit_sample(0.0, rho, float(np.trace(rho).real))]
    t = 0.0
    cumulative_drift = 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # a blow-up ends in the drift check
        for i in range(1, n_steps + 1):
            step, propagate = (dt, full_step) if i <= n_full else (remainder, last_step)
            rho = propagate(rho)
            rho = (rho + rho.conj().T) / 2.0
            raw_trace = float(np.trace(rho).real)
            drift = abs(raw_trace - 1.0)
            cumulative_drift += drift
            t += step
            if not drift <= 10.0 * TRACE_DRIFT_TOL:  # also catches NaN
                raise IntegrationError(
                    f"trace drift {drift:.3e} exceeds {10 * TRACE_DRIFT_TOL:.0e}", t
                )
            rho = rho / raw_trace
            if i % sample_every == 0 or i == n_steps:
                samples.append(_emit_sample(t, rho, raw_trace))
    logger.debug(
        "lindblad trajectory: %d steps, cumulative trace correction %.3e",
        n_steps,
        cumulative_drift,
    )
    return samples


def _emit_sample(t: float, rho: np.ndarray, raw_trace: float) -> LindbladSample:
    try:
        state = DensityOperator(rho, psd_atol=10.0 * MIN_EIGENVALUE_TOL)
    except ValidationError as exc:
        raise IntegrationError(f"emitted state invalid ({exc})", t) from exc
    return LindbladSample(time=t, state=state, raw_trace=raw_trace)


def generator_matrix(g: LindbladGenerator) -> np.ndarray:
    """The N^2 x N^2 matrix over row-major rho of the flow `lindblad_apply` evaluates."""
    return _map_matrix(lambda rho: _apply_generator(g, rho), g.dim)


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
