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
import operator
from typing import Sequence

import numpy as np

from .errors import ShapeError, ValidationError
from .linalg import (
    HermitianEig,
    _Record,
    apply_matrix_function,
    as_ket,
    as_matrix,
    as_square,
    hermitian_eig,
    is_finite_real,
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


class DensityOperator(_Record):
    """A validated density operator.

    Construction checks hermiticity, unit trace, and positivity (smallest
    eigenvalue >= -psd_atol).  The spectrum solved for that check is kept,
    so no consumer solves it again: the eigenvalues ascending and the
    eigenvectors as matching orthonormal columns.  The wrapped matrix and its
    spectrum are read-only.
    """

    __slots__ = ("matrix", "eigenvalues", "eigenvectors")

    def __init__(self, matrix, psd_atol: float = PSD_ATOL):
        m, eig = _checked(matrix, psd_atol)
        self.__setstate__((_hermitized(m), eig.eigenvalues, eig.eigenvectors))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def is_pure(self) -> bool:
        return purity(self) > PURE_PURITY_THRESHOLD

    def __repr__(self) -> str:
        return f"DensityOperator(dim={self.dim})"


def _checked(
    matrix, psd_atol: float, stack: bool = False, eig: HermitianEig | None = None
) -> tuple[np.ndarray, HermitianEig]:
    """The density-operator checks, on one matrix or, with `stack`, on every
    matrix of a (B, n, n) stack at once: finite entries, unit trace,
    hermiticity (in `hermitian_eig`), a computable spectrum and the floor
    -psd_atol on the smallest eigenvalue.  Returns the matrices as checked
    (not hermitized: the constructors do that, with `_hermitized`) and the
    spectra of their hermitized forms.  A failure raises ValidationError, with
    DensityOperator's message for one matrix; for a stack the message does
    not say which matrix failed (`first_failure` finds it).  With `eig`, the
    spectrum of the hermitized matrix as its construction gives it, nothing is
    solved: the floor is checked on those eigenvalues, and they are returned."""
    if not (is_finite_real(psd_atol) and psd_atol >= 0):
        raise ValidationError(f"psd_atol must be a non-negative finite real number, got {psd_atol!r}")
    m = as_square(matrix, stack=stack)
    if stack and m.ndim != 3:
        raise ShapeError(f"expected a (B, n, n) stack of matrices, got shape {m.shape}")
    require_close(lambda: np.trace(m, axis1=-2, axis2=-1) - 1.0, TRACE_ATOL, "density trace must be 1")
    if eig is None:
        try:
            eig = hermitian_eig(m)  # the hermiticity check; it solves the hermitized m
        except ArithmeticError as exc:  # entries near the float limit
            raise ValidationError(f"density spectrum not computable ({exc})") from exc
    min_eig = float(eig.eigenvalues[..., 0].min())
    if min_eig < -psd_atol:
        raise ValidationError(f"density is not positive: min eigenvalue = {min_eig:.3e}")
    return m, eig


def _hermitized(m: np.ndarray) -> np.ndarray:
    """(m + m(dag)) / 2 of a matrix or of each matrix of a stack, read-only."""
    hermitized = m + m.conj().swapaxes(-1, -2)
    hermitized /= 2.0
    hermitized.setflags(write=False)
    return hermitized


def _with_spectrum(matrix, eigenvalues: np.ndarray, eigenvectors: np.ndarray) -> DensityOperator:
    """The DensityOperator of a matrix whose construction gives its spectrum:
    ascending eigenvalues and orthonormal eigenvectors (columns) of the
    hermitized matrix, to roundoff.  It is checked as DensityOperator checks a
    matrix, except that no eigensolve runs: the hermiticity the solve checks
    is the construction's, and the floor is checked on the given eigenvalues."""
    m, eig = _checked(matrix, PSD_ATOL, eig=HermitianEig(eigenvalues, eigenvectors))
    return DensityOperator._stored(_hermitized(m), eig.eigenvalues, eig.eigenvectors)


class DensityStack(_Record, Sequence[DensityOperator]):
    """A validated stack of B density operators of one dimension.

    Construction checks a (B, n, n) stack of matrices as DensityOperator checks
    one, with one eigensolve for the whole stack; a failure raises
    ValidationError without saying which matrix failed (`first_failure` with
    DensityOperator as the check names it).  The stack keeps the hermitized
    matrices (B, n, n), their ascending eigenvalues (B, n) and eigenvectors
    (B, n, n), all read-only.  It reads as a sequence of DensityOperator views
    into these arrays: len, index and iteration; a slice is a DensityStack
    view.
    """

    __slots__ = ("matrices", "eigenvalues", "eigenvectors")

    def __init__(self, matrices, psd_atol: float = PSD_ATOL):
        m, eig = _checked(matrices, psd_atol, stack=True)
        self.__setstate__((_hermitized(m), eig.eigenvalues, eig.eigenvectors))

    @property
    def dim(self) -> int:
        return self.matrices.shape[-1]

    def __len__(self) -> int:
        return len(self.matrices)

    def __getitem__(self, index):
        if isinstance(index, slice):
            view = DensityStack
        else:
            view, index = DensityOperator, operator.index(index)
        arrays = self.matrices[index], self.eigenvalues[index], self.eigenvectors[index]
        return view._stored(*arrays)  # views of a validated stack's arrays, kept without a copy

    def __repr__(self) -> str:
        return f"DensityStack(len={len(self)}, dim={self.dim})"


class ProperMixture(_Record):
    """A mixture sum_k p_k |ket_k><ket_k| with normalized, possibly
    non-orthogonal kets, built from (p_k, ket_k) pairs and kept as two
    read-only arrays: the weights (K,) and the kets as rows (K, n)."""

    __slots__ = ("weights", "kets")

    def __init__(self, terms):
        terms = tuple(terms)
        if not terms:
            raise ValidationError("mixture needs at least one term")
        dim = as_ket(terms[0][1]).size
        if not all(is_finite_real(w) for w, _ in terms):
            raise ValidationError("mixture weights must be finite real numbers")
        weights = np.array([float(w) for w, _ in terms])
        kets = np.array([require_unit_ket(k, "mixture ket", dim) for _, k in terms])
        if not np.all(weights >= -WEIGHT_ATOL):
            raise ValidationError("mixture weights must be non-negative numbers")
        total = float(weights.sum())
        if not abs(total - 1.0) <= WEIGHT_ATOL:
            raise ValidationError(f"mixture weights must sum to 1, got {total!r}")
        for a in (weights, kets):
            a.setflags(write=False)
        self.__setstate__((weights, kets))

    @property
    def dim(self) -> int:
        return self.kets.shape[1]


def mixture_to_density(m: ProperMixture) -> DensityOperator:
    """The density operator sum_k p_k |ket_k><ket_k| of a proper mixture."""
    return DensityOperator((m.kets.T * m.weights) @ m.kets.conj())


States = DensityOperator | Sequence[DensityOperator]  # one state, or a sequence of them


def _required(value, cls: type):
    """value if it is an instance of cls; anything else raises ValidationError naming both types."""
    if not isinstance(value, cls):
        article = "an" if cls.__name__[0] in "AEIOU" else "a"
        raise ValidationError(f"expected {article} {cls.__name__}, got {type(value).__name__}")
    return value


def require_state(d) -> DensityOperator:
    """d, the input of a single-state entry point, if it is a DensityOperator; anything
    else, a matrix included, raises ValidationError."""
    return _required(d, DensityOperator)


def stacked(d: States) -> DensityStack:
    """The states as one non-empty DensityStack, the one input of the per-state
    kernels: a DensityStack as it is; one density operator as a stack of one,
    viewing its arrays; a sequence of density operators of one dimension
    stacked anew.  Anything else, a matrix or a stack of matrices included,
    raises ValidationError."""
    if isinstance(d, DensityOperator):
        d = DensityStack._stored(d.matrix[None], d.eigenvalues[None], d.eigenvectors[None])
    elif not isinstance(d, DensityStack):
        states = list(d) if np.iterable(d) else [d]
        if not all(isinstance(s, DensityOperator) for s in states):
            raise ValidationError(f"expected a DensityOperator or a sequence of them, got {type(d).__name__}")
        if any(s.dim != states[0].dim for s in states):
            raise ShapeError("expected density operators of one dimension")
        arrays = [np.array([getattr(s, a) for s in states]) for a in DensityOperator.__slots__]
        for a in arrays:
            a.setflags(write=False)  # built here, so the stack keeps them without a copy
        d = DensityStack._stored(*arrays)
    if not len(d):
        raise ShapeError("expected a non-empty sequence of density operators")
    return d


def per_state(d: States, values: np.ndarray) -> float | np.ndarray:
    """A per-state kernel's (B,) result on `stacked(d)`: a float for one
    density operator, the array for a sequence of them."""
    return float(values[0]) if isinstance(d, DensityOperator) else values


def purity(d: States) -> float | np.ndarray:
    """Tr(rho^2); equals 1 exactly for pure states, less for mixtures.

    Of one DensityOperator, a float; of a sequence of them (a DensityStack
    included), an array holding each state's value, bit for bit the value it
    gets alone."""
    m = stacked(d).matrices
    return per_state(d, np.trace(m @ m, axis1=1, axis2=2).real)


class GramFactor(_Record):
    """Scaled coefficient matrix of a proper mixture in an orthonormal basis.

    Row k holds sqrt(p_k) times the expansion coefficients of ket k, so the
    squared norm of row k is the weight p_k and
    rho_mn = sum_k coeff[k, m] conj(coeff[k, n]) in the stored basis.  Both
    arrays, the basis (n, n) and the coefficients (K, n), are kept read-only.
    """

    __slots__ = ("coeff", "basis")

    def __init__(self, coeff, basis):  # basis: the basis kets as columns
        basis = as_square(basis)
        coeff = as_matrix(coeff)
        if coeff.shape[1] != len(basis):
            raise ShapeError(f"expected a (K, {len(basis)}) coefficient matrix, got shape {coeff.shape}")
        self.__setstate__((coeff, basis))

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

    coeff[k, m] = sqrt(p_k) <basis_m | ket_k>, for all K kets as one product.
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
    k = require_hermitian(obs, require_state(d).dim)
    return float(np.trace(d.matrix @ k).real)


def evolve_unitary(d: DensityOperator, h, t: float) -> DensityOperator:
    """Hamiltonian evolution rho(t) = e^{-iHt} rho e^{iHt}.

    Built from the spectral calculus of H, so trace, purity and the full
    spectrum are preserved to roundoff: the result keeps rho's eigenvalues,
    with eigenvectors U V, and only H is solved.
    """
    if not is_finite_real(t):
        raise ValidationError(f"t must be finite and real, got {t!r}")
    hm = require_hermitian(h, require_state(d).dim)
    u = apply_matrix_function(hm, lambda lam: cmath.exp(-1j * lam * t))
    vectors = u @ d.eigenvectors
    vectors.setflags(write=False)  # built here, so the state keeps it without a copy
    return _with_spectrum(u @ d.matrix @ u.conj().T, d.eigenvalues, vectors)


def measurement_channel(d: DensityOperator, basis) -> DensityOperator:
    """Von Neumann measurement in an orthonormal basis: rho -> sum_m R_m rho R_m.

    The result is diagonal in the measurement basis with diagonal entries
    equal to the pre-measurement outcome probabilities; the trace is
    preserved and the map is not unitary.
    """
    return DensityOperator(pinch(require_state(d).matrix, require_basis(basis, d.dim), np.eye(d.dim)))
