"""Dense complex linear algebra primitives.

Everything downstream is built from the handful of operations here:
products, adjoints, traces, Kronecker products, dyads, and a Hermitian
eigensolver with the spectral function calculus f(A) = sum f(a_v) P_v.
Matrices are plain complex128 numpy arrays; kets are 1-D arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, ShapeError, ValidationError

HERMITIAN_ATOL = 1e-10
KET_NORM_ATOL = 1e-12
BASIS_ATOL = 1e-10

# Cyclic Jacobi parameters: off-diagonal Frobenius norm below _JACOBI_OFF_TOL
# counts as diagonal; matrices here are O(1) and at most 16x16 or so.
_JACOBI_OFF_TOL = 1e-13
_MAX_SWEEPS = 100


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-D complex array with finite entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValidationError("matrix entries must be finite")
    return m


def as_square(a) -> np.ndarray:
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {m.shape}")
    return m


def as_ket(v) -> np.ndarray:
    """Coerce to a 1-D complex column of amplitudes."""
    k = np.asarray(v, dtype=complex)
    if k.ndim == 2 and 1 in k.shape:
        k = k.reshape(-1)
    if k.ndim != 1 or k.size == 0:
        raise ShapeError(f"expected a ket (1-D amplitudes), got shape {np.shape(v)}")
    if not np.all(np.isfinite(k.real)) or not np.all(np.isfinite(k.imag)):
        raise ValidationError("ket amplitudes must be finite")
    return k


def require_unit_ket(v, what: str = "ket") -> np.ndarray:
    """Coerce to a ket and require unit norm."""
    k = as_ket(v)
    norm = float(np.linalg.norm(k))
    if abs(norm - 1.0) > KET_NORM_ATOL:
        raise ValidationError(f"{what} not normalized: |k| = {norm!r}")
    return k


def require_basis(basis, dim: int) -> np.ndarray:
    """Stack basis kets as columns and require an orthonormal complete set
    in dimension dim."""
    kets = [as_ket(k) for k in basis]
    if not kets:
        raise ValidationError("basis must not be empty")
    b = np.column_stack(kets)
    if b.shape[0] != dim:
        raise ShapeError(f"basis kets have dimension {b.shape[0]}, expected {dim}")
    if b.shape[1] != dim:
        raise ValidationError(f"basis is incomplete: {b.shape[1]} kets in dimension {dim}")
    dev = float(np.max(np.abs(b.conj().T @ b - np.eye(dim))))
    if dev > BASIS_ATOL:
        raise ValidationError(f"basis is not orthonormal: max deviation {dev:.3e}")
    return b


def matmul(a, b) -> np.ndarray:
    """Matrix product a.b."""
    am, bm = as_matrix(a), as_matrix(b)
    if am.shape[1] != bm.shape[0]:
        raise ShapeError(f"cannot multiply shapes {am.shape} and {bm.shape}")
    return am @ bm


def adjoint(a) -> np.ndarray:
    """Conjugate transpose."""
    return as_matrix(a).conj().T


def trace(a) -> complex:
    """Sum of the diagonal of a square matrix."""
    return complex(np.trace(as_square(a)))


def kron(a, b) -> np.ndarray:
    """Kronecker product: each entry of a multiplies the whole of b."""
    return np.kron(as_matrix(a), as_matrix(b))


def dyad(psi, phi) -> np.ndarray:
    """Outer product |psi><phi|."""
    return np.outer(as_ket(psi), as_ket(phi).conj())


def projector(ket) -> np.ndarray:
    """Projector |k><k| onto a normalized ket."""
    k = require_unit_ket(ket, "projector ket")
    return np.outer(k, k.conj())


def require_hermitian(a) -> np.ndarray:
    m = as_square(a)
    dev = float(np.max(np.abs(m - m.conj().T)))
    if dev > HERMITIAN_ATOL:
        raise ValidationError(f"matrix is not Hermitian: max |A - A^dag| = {dev:.3e}")
    return m


@dataclass(frozen=True)
class HermitianEig:
    """Full spectrum of a Hermitian matrix.

    eigenvalues are real and ascending; eigenvector k is the k-th column of
    `eigenvectors` and the columns are orthonormal.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        """Sum of eigenvalue-weighted projectors, sum_v a_v P_v."""
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


def _off_diagonal_norm(m: np.ndarray) -> float:
    off = m - np.diag(np.diag(m))
    return float(np.linalg.norm(off))


def _jacobi_rotate(work: np.ndarray, vecs: np.ndarray, p: int, q: int) -> None:
    """Zero work[p, q] with a two-sided unitary rotation; accumulate into vecs."""
    apq = work[p, q]
    r = abs(apq)
    phase = apq / r
    app = work[p, p].real
    aqq = work[q, q].real
    tau = (aqq - app) / (2.0 * r)
    if tau >= 0.0:
        t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
    else:
        t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
    c = 1.0 / math.sqrt(1.0 + t * t)
    s = t * c

    # The rotation is J = identity except J[p,p]=c, J[p,q]=s,
    # J[q,p]=-s*conj(phase), J[q,q]=c*conj(phase); work <- J^dag work J.
    col_p = work[:, p].copy()
    col_q = work[:, q].copy()
    work[:, p] = c * col_p - s * np.conj(phase) * col_q
    work[:, q] = s * col_p + c * np.conj(phase) * col_q
    row_p = work[p, :].copy()
    row_q = work[q, :].copy()
    work[p, :] = c * row_p - s * phase * row_q
    work[q, :] = s * row_p + c * phase * row_q
    work[p, q] = 0.0
    work[q, p] = 0.0
    work[p, p] = work[p, p].real
    work[q, q] = work[q, q].real

    col_p = vecs[:, p].copy()
    col_q = vecs[:, q].copy()
    vecs[:, p] = c * col_p - s * np.conj(phase) * col_q
    vecs[:, q] = s * col_p + c * np.conj(phase) * col_q


def hermitian_eig(a) -> HermitianEig:
    """Eigendecompose a Hermitian matrix by cyclic Jacobi rotations.

    Sweeps zero one off-diagonal entry at a time with 2x2 unitary rotations
    until the off-diagonal Frobenius norm drops below 1e-13.  Robust and
    dependency-free at the matrix sizes used here.
    """
    m = require_hermitian(a)
    n = m.shape[0]
    work = (m + m.conj().T) / 2.0
    vecs = np.eye(n, dtype=complex)
    if n > 1:
        skip = _JACOBI_OFF_TOL / (4.0 * n * n)
        for _ in range(_MAX_SWEEPS):
            if _off_diagonal_norm(work) < _JACOBI_OFF_TOL:
                break
            for p in range(n - 1):
                for q in range(p + 1, n):
                    if abs(work[p, q]) > skip:
                        _jacobi_rotate(work, vecs, p, q)
        else:
            raise ArithmeticError("Jacobi iteration failed to converge")
    eigvals = np.diag(work).real.copy()
    order = np.argsort(eigvals, kind="stable")
    return HermitianEig(eigvals[order], vecs[:, order])


def apply_matrix_function(a, f: Callable[[float], complex]) -> np.ndarray:
    """Evaluate f(A) = sum f(a_v) P_v for Hermitian A.

    f is a scalar function of the (real) eigenvalues; complex return values
    are allowed.  If f is undefined or non-finite at an eigenvalue, a
    DomainError is raised.
    """
    eig = hermitian_eig(a)
    values = np.empty(eig.eigenvalues.size, dtype=complex)
    for i, lam in enumerate(eig.eigenvalues):
        try:
            val = complex(f(float(lam)))
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise DomainError(f"function undefined at eigenvalue {lam!r}: {exc}") from exc
        if not (math.isfinite(val.real) and math.isfinite(val.imag)):
            raise DomainError(f"function not finite at eigenvalue {lam!r}")
        values[i] = val
    v = eig.eigenvectors
    return (v * values) @ v.conj().T
