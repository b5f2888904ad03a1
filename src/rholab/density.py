"""Density operators, proper mixtures, and their two evolution laws.

A density operator is validated on construction against the three defining
conditions: Hermitian, unit trace, positive.  A proper mixture is a list of
(probability, normalized ket) terms whose kets need not be orthogonal; the
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
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, ValidationError
from .linalg import (
    apply_matrix_function,
    as_square,
    hermitian_eig,
    pinch,
    require_basis,
    require_hermitian,
    require_unit_ket,
)

TRACE_ATOL = 1e-10
PSD_ATOL = 1e-10
WEIGHT_ATOL = 1e-12
UNITARY_ATOL = 1e-10

# Weights below this are physically vacuous and their kets undefined.
ZERO_WEIGHT_TOL = 1e-14

PURE_PURITY_THRESHOLD = 1.0 - 1e-9


class DensityOperator:
    """A validated density operator.

    Construction checks hermiticity, unit trace, and positivity (smallest
    eigenvalue >= -psd_atol).  The spectrum solved for that check is kept,
    so no consumer solves it again.  The wrapped matrix and its spectrum
    are read-only.
    """

    __slots__ = ("_matrix", "_eigenvalues", "_eigenvectors")

    def __init__(self, matrix, psd_atol: float = PSD_ATOL):
        m = require_hermitian(matrix)
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > TRACE_ATOL:
            raise ValidationError(f"density trace must be 1, got {tr!r}")
        m = (m + m.conj().T) / 2.0
        eig = hermitian_eig(m)
        min_eig = float(eig.eigenvalues[0])
        if min_eig < -psd_atol:
            raise ValidationError(f"density is not positive: min eigenvalue = {min_eig:.3e}")
        for a in (m, eig.eigenvalues, eig.eigenvectors):
            a.setflags(write=False)
        self._matrix = m
        self._eigenvalues = eig.eigenvalues
        self._eigenvectors = eig.eigenvectors

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def dim(self) -> int:
        return self._matrix.shape[0]

    @property
    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues ascending, as computed during validation."""
        return self._eigenvalues

    @property
    def eigenvectors(self) -> np.ndarray:
        """Orthonormal eigenvector columns matching `eigenvalues`."""
        return self._eigenvectors

    def is_pure(self) -> bool:
        return purity(self) > PURE_PURITY_THRESHOLD

    def __repr__(self) -> str:
        return f"DensityOperator(dim={self.dim})"


def _check_weights(weights: np.ndarray) -> None:
    if not np.all(weights >= -WEIGHT_ATOL):
        raise ValidationError("mixture weights must be non-negative numbers")
    total = float(weights.sum())
    if not abs(total - 1.0) <= WEIGHT_ATOL:
        raise ValidationError(f"mixture weights must sum to 1, got {total!r}")


@dataclass(frozen=True)
class ProperMixture:
    """A mixture sum_k p_k |ket_k><ket_k| with normalized, possibly
    non-orthogonal kets."""

    terms: tuple[tuple[float, np.ndarray], ...]

    def __init__(self, terms):
        cleaned = []
        dim = None
        for weight, ket in terms:
            k = require_unit_ket(ket, "mixture ket")
            if dim is None:
                dim = k.size
            elif k.size != dim:
                raise ShapeError("all mixture kets must share one dimension")
            cleaned.append((float(weight), k))
        if not cleaned:
            raise ValidationError("mixture needs at least one term")
        _check_weights(np.array([w for w, _ in cleaned]))
        object.__setattr__(self, "terms", tuple(cleaned))

    @property
    def dim(self) -> int:
        return self.terms[0][1].size

    @property
    def weights(self) -> np.ndarray:
        return np.array([w for w, _ in self.terms])

    @property
    def kets(self) -> tuple[np.ndarray, ...]:
        return tuple(k for _, k in self.terms)


def mixture_to_density(m: ProperMixture) -> DensityOperator:
    """The density operator sum_k p_k |ket_k><ket_k| of a proper mixture."""
    rho = np.zeros((m.dim, m.dim), dtype=complex)
    for weight, ket in m.terms:
        rho += weight * np.outer(ket, ket.conj())
    return DensityOperator(rho)


def purity(d: DensityOperator) -> float:
    """Tr(rho^2); equals 1 exactly for pure states, less for mixtures."""
    m = d.matrix
    return float(np.trace(m @ m).real)


@dataclass(frozen=True)
class GramFactor:
    """Scaled coefficient matrix of a proper mixture in an orthonormal basis.

    Row k holds sqrt(p_k) times the expansion coefficients of ket k, so the
    squared norm of row k is the weight p_k and
    rho_mn = sum_k coeff[k, m] conj(coeff[k, n]) in the stored basis.
    """

    coeff: np.ndarray
    basis: np.ndarray  # columns are the basis kets

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
    rows = [np.sqrt(weight) * (b.conj().T @ ket) for weight, ket in m.terms]
    return GramFactor(coeff=np.array(rows), basis=b)


def remix(g: GramFactor, u) -> ProperMixture:
    """Produce a distinct proper mixture of the same density operator.

    Multiplying the Gram rows by any unitary u leaves the density invariant;
    the new weights are the squared row norms of u . coeff and the new kets
    the renormalized rows.  Rows with vanishing weight are dropped.
    """
    u = as_square(u)
    k = g.num_terms
    if u.shape != (k, k):
        raise ShapeError(f"unitary must be {k}x{k} for a {k}-term factor, got {u.shape}")
    dev = float(np.max(np.abs(u.conj().T @ u - np.eye(k))))
    if dev > UNITARY_ATOL:
        raise ValidationError(f"matrix is not unitary: max |u^dag u - I| = {dev:.3e}")
    mixed = u @ g.coeff
    terms = []
    for row in mixed:
        weight = float(np.sum(np.abs(row) ** 2))
        if weight < ZERO_WEIGHT_TOL:
            continue
        ket = (g.basis @ row) / np.sqrt(weight)
        terms.append((weight, ket))
    return ProperMixture(terms)


def expectation(d: DensityOperator, obs) -> float:
    """Tr(rho K) for a Hermitian observable K."""
    k = require_hermitian(obs)
    if k.shape[0] != d.dim:
        raise ShapeError(f"observable dimension {k.shape[0]} != density dimension {d.dim}")
    return float(np.trace(d.matrix @ k).real)


def evolve_unitary(d: DensityOperator, h, t: float) -> DensityOperator:
    """Hamiltonian evolution rho(t) = e^{-iHt} rho e^{iHt}.

    Built from the spectral calculus of H, so trace, purity and the full
    spectrum are preserved to roundoff.
    """
    hm = require_hermitian(h)
    if hm.shape[0] != d.dim:
        raise ShapeError(f"hamiltonian dimension {hm.shape[0]} != density dimension {d.dim}")
    u = apply_matrix_function(hm, lambda lam: cmath.exp(-1j * lam * t))
    return DensityOperator(u @ d.matrix @ u.conj().T)


def measurement_channel(d: DensityOperator, basis) -> DensityOperator:
    """Von Neumann measurement in an orthonormal basis: rho -> sum_m R_m rho R_m.

    The result is diagonal in the measurement basis with diagonal entries
    equal to the pre-measurement outcome probabilities; the trace is
    preserved and the map is not unitary.
    """
    return DensityOperator(pinch(d.matrix, require_basis(basis, d.dim), np.eye(d.dim)))
