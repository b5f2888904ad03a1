"""Dense complex linear algebra primitives.

Everything downstream is built from the handful of operations here:
products, adjoints, traces, Kronecker products, dyads, and a Hermitian
eigensolver with the spectral function calculus f(A) = sum f(a_v) P_v.
Matrices are plain complex128 numpy arrays; kets are 1-D arrays.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, ShapeError, ValidationError

HERMITIAN_ATOL = 1e-10
KET_NORM_ATOL = 1e-12
BASIS_ATOL = 1e-10

# Round-robin (Brent-Luk) Jacobi, one dense rotation per round: an off-diagonal
# Frobenius norm below _JACOBI_OFF_TOL counts as diagonal; matrices here are O(1), at most ~16x16.
_JACOBI_OFF_TOL = 1e-13
_MAX_SWEEPS = 100


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-D complex array with finite entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise ValidationError("matrix entries must be finite")
    return m


def as_square(a) -> np.ndarray:
    m = as_matrix(a)
    if m.shape[0] != m.shape[1] or m.size == 0:
        raise ShapeError(f"expected a non-empty square matrix, got shape {m.shape}")
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


def in_basis(a: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The matrix u^dag a u of a in the orthonormal basis of u's columns."""
    return u.conj().T @ a @ u


def pinch(a: np.ndarray, u: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """sum_m R_m a R_m over the projectors R_m onto the blocks of u's orthonormal
    columns that the 0/1 mask marks: u (blocks * u^dag a u) u^dag."""
    return u @ (blocks * in_basis(a, u)) @ u.conj().T


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


@functools.cache
def _round_robin(n: int) -> tuple[tuple[np.ndarray, ...], np.ndarray, np.ndarray]:
    """Read-only flat-index tables of a Jacobi sweep in dimension n: per round, a (4, pairs) array
    of the (p, p), (p, q), (q, p), (q, q) entries of disjoint pairs p < q; the upper triangle; the
    identity.  Circle method: n - 1 rounds, or n for odd n, where a phantom partner n is a bye."""
    m = n + n % 2
    ring = list(range(m))
    rounds = []
    for _ in range(m - 1):
        pairs = [sorted(pq) for pq in zip(ring[: m // 2], ring[::-1]) if max(pq) < n]
        p, q = np.array(pairs, dtype=int).reshape(-1, 2).T
        rounds.append(np.stack([p * n + p, p * n + q, q * n + p, q * n + q]))
        ring.insert(1, ring.pop())
    upper = np.flatnonzero(np.triu(np.ones((n, n)), 1))
    identity = np.eye(n, dtype=complex)
    for t in (*rounds, upper, identity):
        t.setflags(write=False)
    return tuple(rounds), upper, identity


def hermitian_eig(a) -> HermitianEig:
    """Eigendecompose a Hermitian matrix by round-robin Jacobi rotations.

    A sweep visits every (p, q) pair once, in rounds of disjoint pairs (the
    parallel ordering of Brent and Luk, 1985); the 2x2 rotations of a round
    act together as one dense unitary J, W <- J^dag W J.  Sweeps stop when
    the off-diagonal Frobenius norm drops below 1e-13.  Dependency-free at
    the matrix sizes used here; overflow raises ArithmeticError.
    """
    m = require_hermitian(a)
    n = m.shape[0]
    rounds, upper, identity = _round_robin(n)
    skip = _JACOBI_OFF_TOL / (4.0 * n * n)
    # Overflow raises as soon as the working matrix or spectrum is not finite; the squared
    # off-diagonal norm overflows first (entries above ~1e154), so alone it proves nothing.
    with np.errstate(over="ignore", invalid="ignore"):
        work = (m + m.conj().T) / 2.0
        vecs = identity
        for _ in range(_MAX_SWEEPS):
            off = work.take(upper)
            off2 = 2.0 * np.vdot(off, off).real
            if off2 < _JACOBI_OFF_TOL**2:
                break
            if not math.isfinite(off2) and not np.isfinite(work).all():
                raise ArithmeticError("Jacobi iteration overflowed: the working matrix is not finite")
            for idx in rounds:
                pp, pq, _, qq = work.take(idx)
                r = np.abs(pq)
                big = r > skip
                half = (qq.real - pp.real) / 2.0
                # tan(theta) = g r: the smallest rotation, |theta| <= pi/4; g = 0 under skip.
                g = np.divide(np.copysign(1.0, half), np.abs(half) + np.hypot(r, half),
                              out=np.zeros(r.size), where=big)
                c = 1.0 / np.hypot(1.0, g * r)
                se = c * g * pq  # sin(theta) times the phase of work[p, q]
                j = identity.copy()  # 2x2 blocks [[c, se], [-conj(se), c]] at (p, q)
                np.put(j, idx, np.concatenate((c, se, -se.conj(), c)))
                work = j.conj().T @ work @ j
                work.ravel()[idx[1:3, big]] = 0.0  # a product is C-contiguous
                vecs = vecs @ j
        else:
            raise ArithmeticError("Jacobi iteration failed to converge")
    eigvals = np.diag(work).real
    if not np.isfinite(eigvals).all():
        raise ArithmeticError("Jacobi iteration overflowed: the eigenvalues are not finite")
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
