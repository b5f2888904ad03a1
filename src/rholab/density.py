"""Density operators, proper mixtures, and their two evolution laws.

A density operator is validated on construction against the three defining
conditions: Hermitian, unit trace, positive.  A proper mixture is a weight
vector and a stack of normalized kets that need not be orthogonal; the
same density operator generally admits many distinct proper mixtures, and
`gram_factor` / `remix` implement the unitary freedom connecting them.

Conventions: for a mixture with weights p_k and kets expanded as
ket_k = sum_m a_km basis_m, the Gram coefficient matrix stores rows
coeff[k, m] = sqrt(p_k) * a_km, and the density components are recovered as
rho_mn = sum_k coeff[k, m] * conj(coeff[k, n]).  This matches the
projector-sum definition rho = sum_k p_k |ket_k><ket_k| exactly; note that
the frequently quoted matrix-product form a^dag . a yields the transpose
of rho under this component convention.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ShapeError, ValidationError
from .linalg import (
    HermitianEig,
    apply_matrix_function,
    as_ket,
    as_square,
    frozen,
    hermitian_eig,
    pinch,
    require_basis,
    require_close,
    require_hermitian,
    require_unit_ket,
)

TRACE_ATOL = 1e-10
PSD_ATOL = 1e-10
WEIGHT_ATOL = 1e-12

# Weights below this are physically vacuous and their kets undefined.
ZERO_WEIGHT_TOL = 1e-14

PURE_PURITY_THRESHOLD = 1.0 - 1e-9


@dataclass(frozen=True, eq=False, slots=True)
class DensityOperator:
    """A validated density operator.

    Construction checks hermiticity, unit trace, and positivity (smallest
    eigenvalue >= -psd_atol).  The spectrum solved for that check is kept,
    so no consumer solves it again.  The wrapped matrix and its spectrum
    are read-only.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray  # ascending, as computed during validation
    eigenvectors: np.ndarray  # orthonormal columns matching `eigenvalues`

    def __init__(self, matrix, psd_atol: float = PSD_ATOL):
        hermitized, eig = _validated(matrix, psd_atol)
        _keep(self, hermitized, eig.eigenvalues, eig.eigenvectors)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def is_pure(self) -> bool:
        return purity(self) > PURE_PURITY_THRESHOLD

    def __repr__(self) -> str:
        return f"DensityOperator(dim={self.dim})"


def _keep(
    d: DensityOperator, matrix: np.ndarray, eigenvalues: np.ndarray, eigenvectors: np.ndarray
) -> DensityOperator:
    object.__setattr__(d, "matrix", frozen(matrix))
    object.__setattr__(d, "eigenvalues", frozen(eigenvalues))
    object.__setattr__(d, "eigenvectors", frozen(eigenvectors))
    return d


def _validated(matrix, psd_atol: float, stack: bool = False) -> tuple[np.ndarray, HermitianEig]:
    """The density-operator checks, on one matrix or, with `stack`, on every
    matrix of a (B, n, n) stack at once: finite entries, unit trace,
    hermiticity (in `hermitian_eig`), a computable spectrum and the floor
    -psd_atol on the smallest eigenvalue.  Returns the hermitized matrices,
    read-only, and their spectra.  A failure raises ValidationError, with
    DensityOperator's message for one matrix; for a stack the message does
    not say which matrix failed (`density_stack` does)."""
    m = as_square(matrix, stack=stack)
    require_close(lambda: np.trace(m, axis1=-2, axis2=-1) - 1.0, TRACE_ATOL, "density trace must be 1")
    try:
        eig = hermitian_eig(m)  # the hermiticity check; it solves the hermitized m
    except ArithmeticError as exc:  # entries near the float limit
        raise ValidationError(f"density spectrum not computable ({exc})") from exc
    min_eig = float(eig.eigenvalues[..., 0].min())
    if min_eig < -psd_atol:
        raise ValidationError(f"density is not positive: min eigenvalue = {min_eig:.3e}")
    hermitized = (m + m.conj().swapaxes(-1, -2)) / 2.0
    hermitized.setflags(write=False)
    return hermitized, eig


def density_stack(
    matrices: np.ndarray, psd_atol: float = PSD_ATOL
) -> tuple[list[DensityOperator], ValidationError | None]:
    """Validate a (B, n, n) stack of density matrices with one eigensolve.

    Returns the density operators of the matrices before the first invalid
    one, and that matrix's ValidationError with the message DensityOperator
    gives it (None when every matrix is valid).  The operators of a valid
    stack hold read-only views into one hermitized stack and its spectra.
    """
    try:
        hermitized, eig = _validated(matrices, psd_atol, stack=True)
    except ValidationError:  # find the first invalid matrix: each checked alone
        states = []
        for m in matrices:
            try:
                states.append(DensityOperator(m, psd_atol))
            except ValidationError as exc:
                return states, exc
        raise
    arrays = zip(hermitized, eig.eigenvalues, eig.eigenvectors)
    return [_keep(object.__new__(DensityOperator), *views) for views in arrays], None


@dataclass(frozen=True)
class ProperMixture:
    """A mixture sum_k p_k |ket_k><ket_k| with normalized, possibly
    non-orthogonal kets, built from (p_k, ket_k) pairs and kept as two
    read-only arrays: the weights (K,) and the kets as rows (K, n)."""

    weights: np.ndarray
    kets: np.ndarray

    def __init__(self, terms):
        terms = tuple(terms)
        if not terms:
            raise ValidationError("mixture needs at least one term")
        dim = as_ket(terms[0][1]).size
        weights = np.array([float(w) for w, _ in terms])
        kets = np.array([require_unit_ket(k, "mixture ket", dim) for _, k in terms])
        if not np.all(weights >= -WEIGHT_ATOL):
            raise ValidationError("mixture weights must be non-negative numbers")
        total = float(weights.sum())
        if not abs(total - 1.0) <= WEIGHT_ATOL:
            raise ValidationError(f"mixture weights must sum to 1, got {total!r}")
        for a in (weights, kets):
            a.setflags(write=False)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "kets", kets)

    @property
    def dim(self) -> int:
        return self.kets.shape[1]


def mixture_to_density(m: ProperMixture) -> DensityOperator:
    """The density operator sum_k p_k |ket_k><ket_k| of a proper mixture."""
    return DensityOperator((m.kets.T * m.weights) @ m.kets.conj())


States = DensityOperator | Sequence[DensityOperator]  # one state, or a sequence of them


def stacked(d: States, *attrs: str) -> tuple[np.ndarray, ...]:
    """The named arrays of one density operator, each with a leading axis of
    length 1, or of a non-empty sequence of density operators of one dimension,
    each stacked (B, ...): the one input of the per-state kernels."""
    states = [d] if isinstance(d, DensityOperator) else list(d)
    if not states or any(s.dim != states[0].dim for s in states):
        raise ShapeError("expected a non-empty sequence of density operators of one dimension")
    return tuple(np.array([getattr(s, attr) for s in states]) for attr in attrs)


def per_state(d: States, values: np.ndarray) -> float | np.ndarray:
    """A per-state kernel's (B,) result on `stacked(d, ...)`: a float for one
    density operator, the array for a sequence of them."""
    return float(values[0]) if isinstance(d, DensityOperator) else values


def purity(d: States) -> float | np.ndarray:
    """Tr(rho^2); equals 1 exactly for pure states, less for mixtures.

    Of one DensityOperator, a float; of a sequence of them, an array holding
    each state's value, bit for bit the value it gets alone."""
    (m,) = stacked(d, "matrix")
    return per_state(d, np.trace(m @ m, axis1=1, axis2=2).real)


@dataclass(frozen=True)
class GramFactor:
    """Scaled coefficient matrix of a proper mixture in an orthonormal basis.

    Row k holds sqrt(p_k) times the expansion coefficients of ket k, so the
    squared norm of row k is the weight p_k and
    rho_mn = sum_k coeff[k, m] conj(coeff[k, n]) in the stored basis.  Both
    arrays are kept read-only.
    """

    coeff: np.ndarray
    basis: np.ndarray  # columns are the basis kets

    def __post_init__(self):
        object.__setattr__(self, "coeff", frozen(np.asarray(self.coeff, dtype=complex)))
        object.__setattr__(self, "basis", frozen(np.asarray(self.basis, dtype=complex)))

    @property
    def num_terms(self) -> int:
        return self.coeff.shape[0]

    @property
    def weights(self) -> np.ndarray:
        return np.sum(np.abs(self.coeff) ** 2, axis=1)

    def reconstruct(self) -> np.ndarray:
        """The density matrix in the standard representation."""
        rho_basis = self.coeff.T @ self.coeff.conj()
        return self.basis @ rho_basis @ self.basis.conj().T


def gram_factor(m: ProperMixture, basis) -> GramFactor:
    """Factor a mixture through an orthonormal basis.

    coeff[k, m] = sqrt(p_k) <basis_m | ket_k>.
    """
    b = require_basis(basis, m.dim)
    coeff = np.sqrt(m.weights)[:, None] * (m.kets @ b.conj())
    for a in (coeff, b):
        a.setflags(write=False)  # built here, so the factor keeps them without a copy
    return GramFactor(coeff, b)


def remix(g: GramFactor, u) -> ProperMixture:
    """Produce a distinct proper mixture of the same density operator.

    Multiplying the Gram rows by any unitary u leaves the density invariant;
    the new weights are the squared row norms of u . coeff and the new kets
    the renormalized rows.  Rows with vanishing weight are dropped.
    """
    u = as_square(u, g.num_terms)
    require_basis(u.T, g.num_terms)  # a unitary's columns are an orthonormal basis
    mixed = u @ g.coeff
    weights = np.sum(np.abs(mixed) ** 2, axis=1)
    keep = weights >= ZERO_WEIGHT_TOL
    kets = (mixed[keep] @ g.basis.T) / np.sqrt(weights[keep])[:, None]
    return ProperMixture(zip(weights[keep], kets))


def expectation(d: DensityOperator, obs) -> float:
    """Tr(rho K) for a Hermitian observable K."""
    k = require_hermitian(obs, d.dim)
    return float(np.trace(d.matrix @ k).real)


def evolve_unitary(d: DensityOperator, h, t: float) -> DensityOperator:
    """Hamiltonian evolution rho(t) = e^{-iHt} rho e^{iHt}.

    Built from the spectral calculus of H, so trace, purity and the full
    spectrum are preserved to roundoff.
    """
    if not -math.inf < t < math.inf:
        raise ValidationError(f"t must be finite, got {t!r}")
    hm = require_hermitian(h, d.dim)
    u = apply_matrix_function(hm, lambda lam: cmath.exp(-1j * lam * t))
    return DensityOperator(u @ d.matrix @ u.conj().T)


def measurement_channel(d: DensityOperator, basis) -> DensityOperator:
    """Von Neumann measurement in an orthonormal basis: rho -> sum_m R_m rho R_m.

    The result is diagonal in the measurement basis with diagonal entries
    equal to the pre-measurement outcome probabilities; the trace is
    preserved and the map is not unitary.
    """
    return DensityOperator(pinch(d.matrix, require_basis(basis, d.dim), np.eye(d.dim)))
