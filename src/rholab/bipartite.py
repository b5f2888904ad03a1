"""Tensor-product states, entanglement detection, partial traces, and
local measurement on two-factor systems.

Index convention: a bipartite amplitude vector stores C[m, n] at flat index
m * dim_b + n, i.e. row-major with the a-factor index major.  This pins the
column (0, 1, 0, 0)^T for |z+>|z->, and np.kron on 1-D arrays reproduces it.
An operator on the joint space, viewed as the factor tensor (dim_a, dim_b,
dim_a, dim_b), holds op_{(m,n),(k,l)} at [m, n, k, l].
"""

from __future__ import annotations

import math

import numpy as np

from .density import DensityOperator, _with_spectrum, require_state
from .errors import ShapeError, ValidationError
from .linalg import (_Record, _ValueRecord, _required, as_ket, as_kets, as_square, hermitian_eig, in_basis, is_integer,
                     max_deviation, pinch, require_basis, require_finite, require_unit_ket)

# Singular values below this count as zero when deciding Schmidt rank;
# separates genuine rank from eigensolver noise at this scale.
SCHMIDT_RANK_TOL = 1e-9


class BipartiteSpace(_ValueRecord):
    """Dimensions of the two tensor factors: integers (not bools), each at least 1.
    Compares and hashes by value."""

    __slots__ = ("dim_a", "dim_b")

    def __init__(self, dim_a: int, dim_b: int):
        if not all(is_integer(d) and d >= 1 for d in (dim_a, dim_b)):
            dims = f"{dim_a!r}, {dim_b!r}"
            raise ValidationError(f"factor dimensions must be integers of at least 1, got {dims}")
        self.__setstate__((dim_a, dim_b))

    @property
    def dim(self) -> int:
        return self.dim_a * self.dim_b


class BipartiteKet(_Record):
    """A normalized pure state on a bipartite space."""

    __slots__ = ("space", "amplitudes")

    def __init__(self, space: BipartiteSpace, amplitudes):
        if not isinstance(space, BipartiteSpace):
            raise ValidationError(f"space must be a BipartiteSpace, got {type(space).__name__}")
        self.__setstate__((space, require_unit_ket(amplitudes, "bipartite ket", space.dim)))

    def coefficient_matrix(self) -> np.ndarray:
        """Amplitudes reshaped to C[m, n] over (a-index, b-index)."""
        return self.amplitudes.reshape(self.space.dim_a, self.space.dim_b)

    def projector(self) -> np.ndarray:
        return np.outer(self.amplitudes, self.amplitudes.conj())

    def density(self) -> DensityOperator:
        """The pure state |k><k|, with its spectrum in closed form, no eigensolve:
        eigenvalue <k|k> on u = k/|k| and 0 on the other columns of the
        Householder reflector H = I - 2 v v^dag/|v|^2, v = u + phase(u_n) e_n
        (phase 1 where u_n = 0), which maps u to -phase(u_n) e_n; column n, a
        multiple of u, is replaced by u."""
        k = self.amplitudes
        norm2 = np.vdot(k, k).real
        u = k / math.sqrt(norm2)
        v = u.copy()
        v[-1] += u[-1] / abs(u[-1]) if u[-1] else 1.0
        vectors = np.eye(k.size, dtype=complex) - np.outer(v, v.conj() * (2.0 / np.vdot(v, v).real))
        vectors[:, -1] = u
        values = np.zeros(k.size)
        values[-1] = norm2
        for a in (values, vectors):
            a.setflags(write=False)  # built here, so the state keeps them without a copy
        return _with_spectrum(self.projector(), values, vectors)


def product_state(a_ket, b_ket) -> BipartiteKet:
    """The product state with coefficients C[m, n] = A_m B_n."""
    a = require_unit_ket(a_ket, "factor ket a")
    b = require_unit_ket(b_ket, "factor ket b")
    return BipartiteKet(BipartiteSpace(a.size, b.size), np.kron(a, b))


def singlet() -> BipartiteKet:
    """The two-spin total-spin-zero state 2^{-1/2}(|+->-|-+>), unique up to phase."""
    amps = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / math.sqrt(2.0)
    return BipartiteKet(BipartiteSpace(2, 2), amps)


class SchmidtForm(_Record):
    """Diagonal biorthogonal form sum_k c_k |a_k>|b_k> of a bipartite ket.

    Coefficients are positive and descending; only coefficients above
    SCHMIDT_RANK_TOL are kept, so `rank` certifies entanglement (rank 1
    if and only if the state is a product state).  The coefficients (R,)
    and the kets as rows, a_kets (R, dim_a) and b_kets (R, dim_b), are kept
    read-only.
    """

    __slots__ = ("coefficients", "a_kets", "b_kets")

    def __init__(self, coefficients, a_kets, b_kets):
        c = np.asarray(coefficients, dtype=float)
        a, b = np.asarray(a_kets, dtype=complex), np.asarray(b_kets, dtype=complex)
        if c.ndim != 1 or a.ndim != 2 or b.ndim != 2 or not len(a) == len(b) == c.size:
            raise ShapeError(
                "expected (R,) coefficients, (R, dim_a) a-kets and (R, dim_b) b-kets, "
                f"got shapes {c.shape}, {a.shape} and {b.shape}"
            )
        self.__setstate__((c, a, b))

    @property
    def rank(self) -> int:
        return int(self.coefficients.size)

    def reconstruct(self) -> np.ndarray:
        """Flat amplitudes of sum_k c_k |a_k>|b_k>."""
        return np.einsum("k,km,kn->mn", self.coefficients, self.a_kets, self.b_kets).reshape(-1)


def schmidt(k: BipartiteKet) -> SchmidtForm:
    """Schmidt decomposition via the Hermitian eigenproblem of C^dag C.

    The b-kets come from the eigenvectors of C^dag C; each coefficient is
    evaluated as the image norm |C v| rather than sqrt(eigenvalue), which
    is the same number but avoids the sqrt(eps) noise floor of the squared
    form, keeping the rank threshold meaningful.
    """
    c = _required(k, BipartiteKet).coefficient_matrix()
    v = hermitian_eig(c.conj().T @ c).eigenvectors
    images = c @ v
    sigma = np.linalg.norm(images, axis=0)
    order = np.argsort(-sigma, kind="stable")
    order = order[sigma[order] > SCHMIDT_RANK_TOL]
    kept = sigma[order]
    a_kets = images.T[order] / kept[:, None]
    b_kets = v.T[order].conj()
    for a in (kept, a_kets, b_kets):
        a.setflags(write=False)  # built here, so the form keeps them without a copy
    return SchmidtForm._stored(kept, a_kets, b_kets)


def partial_trace_b(op, space: BipartiteSpace) -> np.ndarray:
    """Trace out the b factor: (Tr^b op)_{mk} = sum_n op_{(m,n),(k,n)}."""
    _required(space, BipartiteSpace)
    blocks = as_square(op, space.dim).reshape(space.dim_a, space.dim_b, space.dim_a, space.dim_b)
    return np.einsum("mnkn->mk", blocks)


def partial_trace_a(op, space: BipartiteSpace) -> np.ndarray:
    """Trace out the a factor: (Tr^a op)_{nl} = sum_m op_{(m,n),(m,l)}."""
    _required(space, BipartiteSpace)
    blocks = as_square(op, space.dim).reshape(space.dim_a, space.dim_b, space.dim_a, space.dim_b)
    return np.einsum("mnml->nl", blocks)


def _product_factors(k: BipartiteKet) -> tuple[np.ndarray, np.ndarray]:
    form = schmidt(k)
    if form.rank != 1:
        raise ValidationError(f"expected a product state, got Schmidt rank {form.rank}")
    return form.a_kets[0], form.b_kets[0]


def overlap_residue(alpha: complex, psi1: BipartiteKet, beta: complex, psi2: BipartiteKet) -> np.ndarray:
    """Reduced a-side matrix of |psi><psi| for psi = alpha psi1 + beta psi2.

    psi1 = |F1>|X1> and psi2 = |F2>|X2> must be product states.  Evaluates
    the closed form

        |alpha|^2 P_F1 + |beta|^2 P_F2
            + (alpha conj(beta) <X2|X1> |F1><F2| + h.c.)

    and checks it against the partial trace of the outer product; the cross
    term vanishes exactly when the b-side overlap <X2|X1> is zero.
    """
    f1, x1 = _product_factors(psi1)
    f2, x2 = _product_factors(psi2)
    if psi1.space != psi2.space:
        raise ShapeError("both components must live on the same bipartite space")
    b_overlap = complex(np.vdot(x2, x1))
    p1, p2 = np.outer(f1, f1.conj()), np.outer(f2, f2.conj())

    def closed_form() -> np.ndarray:  # |alpha|^2 overflows for |alpha| above ~1e154
        cross = alpha * np.conj(beta) * b_overlap * np.outer(f1, f2.conj())
        return np.abs(alpha) ** 2 * p1 + np.abs(beta) ** 2 * p2 + cross + cross.conj().T

    closed = require_finite(closed_form, "reduced matrix of alpha psi1 + beta psi2")
    psi = alpha * psi1.amplitudes + beta * psi2.amplitudes
    dev = max_deviation(lambda: closed - partial_trace_b(np.outer(psi, psi.conj()), psi1.space))
    if not dev <= 1e-11:
        raise ArithmeticError("closed-form reduced matrix disagrees with partial trace")
    return closed


def _ket_dim(basis) -> int:
    """The size of a basis's first ket; require_basis then checks every ket against it."""
    if not np.iterable(basis) or len(basis) == 0:
        as_kets(basis)  # raises: ShapeError for a scalar, ValidationError for no kets
    return as_ket(basis[0]).size


def _infer_space(d: DensityOperator, basis_a, basis_b) -> BipartiteSpace:
    require_state(d)
    if basis_a is not None:
        dim_a = _ket_dim(basis_a)
    elif basis_b is not None:
        dim_a = d.dim // _ket_dim(basis_b)
    else:
        raise ValidationError("at least one factor basis is required")
    if dim_a < 1 or d.dim % dim_a != 0:
        raise ShapeError(f"factor dimension {dim_a} does not divide full dimension {d.dim}")
    return BipartiteSpace(dim_a, d.dim // dim_a)


def _factor_frame(basis, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Basis columns and block mask of one factor; no basis is one block."""
    if basis is None:
        return np.eye(dim, dtype=complex), np.ones((dim, dim))
    return require_basis(basis, dim), np.eye(dim)


def local_measurement(d: DensityOperator, basis_a=None, basis_b=None) -> DensityOperator:
    """Projective measurement on one or both factors.

    Projectors are R_m x R_n built from the given bases; a missing basis
    means the identity on that factor.  The output is sum R rho R over the
    joint projector set, one call of the shared pinching kernel `pinch` in the
    basis B_a x B_b.
    """
    space = _infer_space(d, basis_a, basis_b)
    ua, mask_a = _factor_frame(basis_a, space.dim_a)
    ub, mask_b = _factor_frame(basis_b, space.dim_b)
    return DensityOperator(pinch(d.matrix, np.kron(ua, ub), np.kron(mask_a, mask_b)))


def measurement_probabilities(d: DensityOperator, basis_a, basis_b) -> np.ndarray:
    """Joint outcome probabilities p[m, n] = Tr(rho R_m x R_n).

    Both bases must be complete, so the probabilities sum to 1.  They are the
    diagonal of rho in the basis B_a x B_b (`in_basis`); no measured state is built.
    """
    space = _infer_space(d, basis_a, basis_b)
    u = np.kron(require_basis(basis_a, space.dim_a), require_basis(basis_b, space.dim_b))
    return np.diagonal(in_basis(d.matrix, u)).real.reshape(space.dim_a, space.dim_b)


def no_signalling_check(d: DensityOperator, basis_a) -> tuple[np.ndarray, np.ndarray]:
    """Reduced b-side density before and after an a-side measurement.

    The two returned matrices are equal (to roundoff): a local measurement
    on a leaves the b observer's density operator unchanged.  Both are plain
    matrices; no state is built for the measured one.  The after matrix is
    sum_m (<a_m| x I) rho (|a_m> x I), one contraction of the basis B_a with
    rho's factor tensor: the b-side marginal of the measured state, without
    building it or the joint basis B_a x I.
    """
    space = _infer_space(d, basis_a, None)
    u = require_basis(basis_a, space.dim_a)
    blocks = d.matrix.reshape(space.dim_a, space.dim_b, space.dim_a, space.dim_b)
    return partial_trace_a(d.matrix, space), np.einsum("im,injl,jm->nl", u.conj(), blocks, u)
