"""Dense complex linear algebra primitives.

Everything downstream is built from the handful of operations here:
products, adjoints, traces, Kronecker products, dyads, and a Hermitian
eigensolver with the spectral function calculus f(A) = sum f(a_v) P_v.
Matrices are plain complex128 numpy arrays; kets are 1-D arrays.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .errors import DomainError, ShapeError, ValidationError

HERMITIAN_ATOL = 1e-10
KET_NORM_ATOL = 1e-12
BASIS_ATOL = 1e-10

# Round-robin (Brent-Luk) Jacobi, one dense rotation per round: an off-diagonal
# Frobenius norm below _JACOBI_OFF_TOL counts as diagonal; matrices here are O(1), at most ~16x16.
_JACOBI_OFF_TOL = 1e-13
_MAX_SWEEPS = 100


def _complex_array(a, what: str) -> np.ndarray:
    """np.asarray(a, dtype=complex), raising ValidationError where numpy cannot
    read a as complex: ragged nesting, or an entry that is not a number."""
    try:
        return np.asarray(a, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{what} must be numbers readable as complex: {exc}") from exc


def as_matrix(a, *, stack: bool = False) -> np.ndarray:
    """Coerce to a 2-D complex array with finite entries; with `stack`, a 3-D
    stack of such matrices is accepted as well."""
    m = _complex_array(a, "matrix entries")
    if m.ndim != 2 and not (stack and m.ndim == 3):
        want = "a 2-D matrix or a 3-D stack of them" if stack else "a 2-D matrix"
        raise ShapeError(f"expected {want}, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise ValidationError("matrix entries must be finite")
    return m


def as_square(a, dim: int | None = None, *, stack: bool = False) -> np.ndarray:
    """Coerce to a non-empty square matrix with finite entries, dim x dim if
    dim is given: the one check of an operator against a state's dimension.
    With `stack`, a (B, n, n) stack of such matrices is accepted as well."""
    m = as_matrix(a, stack=stack)
    n = m.shape[-1]
    if m.shape[-2] != n or m.size == 0 or dim is not None and n != dim:
        want = "a non-empty square matrix" if dim is None else f"a {dim}x{dim} matrix"
        raise ShapeError(f"expected {want}, got shape {m.shape}")
    return m


def as_square_stack(ops, dim: int | None = None) -> np.ndarray:
    """A set of operators as one (K, n, n) stack, each checked by as_square against dim,
    else the first one's dimension: a (K, n, n) array at once, a sequence stacked anew,
    read-only, no operators as (0, dim, dim)."""
    if isinstance(ops, np.ndarray) and ops.ndim == 3 and len(ops):
        return as_square(ops, dim, stack=True)
    ops = list(ops)
    if not ops and dim is None:
        raise ValidationError("an operator set without a dimension needs at least one operator")
    dim = dim or as_square(ops[0]).shape[0]
    stack = np.array([as_square(op, dim) for op in ops] or np.empty((0, dim, dim)), dtype=complex)
    stack.setflags(write=False)
    return stack


def frozen(a: np.ndarray) -> np.ndarray:
    """a if it is read-only and owns its memory, or is a view of a read-only array
    that does, else a read-only copy: how a validated value stores an array, so no
    caller's array aliases it and its checks keep holding.  Arrays rholab builds are
    marked read-only where they are built, and pass without a copy."""
    flags = a.flags
    owner = a.base if not flags.owndata and isinstance(a.base, np.ndarray) else a
    if flags.writeable or owner.flags.writeable or not owner.flags.owndata:
        a = a.copy()
        a.setflags(write=False)
    return a


def require_finite(compute: Callable[[], np.ndarray | float], what: str) -> np.ndarray | float:
    """compute() with overflow silenced; raise ValidationError unless its result, an
    array or a real number, is finite (entries near the float limit overflow)."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = compute()
    # math.isfinite: a number per emitted sample (an entropy rate) stays cheap.
    if not (np.isfinite(out).all() if isinstance(out, np.ndarray) else math.isfinite(out)):
        raise ValidationError(f"{what} overflows or is not finite")
    return out


def max_deviation(diff: Callable[[], np.ndarray]) -> float:
    """max |diff()|, where diff computes the difference from a target, products
    included.  It runs with overflow and invalid operations silenced: entries
    near the float limit give an inf or NaN deviation instead of a warning, and
    a test written `deviation <= atol` fails for both."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.abs(diff()).max())


def require_close(diff: Callable[[], np.ndarray], atol: float, what: str) -> None:
    """Raise ValidationError unless max_deviation(diff) <= atol."""
    dev = max_deviation(diff)
    if not dev <= atol:  # an overflowed (inf or NaN) deviation fails too
        raise ValidationError(f"{what}: max deviation {dev:.3e}")


def first_failure(check: Callable, items: Iterable) -> tuple[int, ValidationError] | None:
    """The index of the first item that check(item) rejects with ValidationError, and
    that error; None when check accepts every item.  It names the culprit after a
    check of a whole stack has failed without saying which member failed."""
    for i, item in enumerate(items):
        try:
            check(item)
        except ValidationError as exc:
            return i, exc
    return None


def is_integer(x) -> bool:
    """Whether x is an integer: a numbers.Integral (numpy integers included) but not a bool."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def is_finite_real(x) -> bool:
    """Whether x is a finite real number: a numbers.Real (numpy's included) but not a bool."""
    try:
        return isinstance(x, numbers.Real) and not isinstance(x, bool) and math.isfinite(x)
    except OverflowError:  # an integer beyond the float range
        return False


def as_ket(v, dim: int | None = None) -> np.ndarray:
    """Coerce to a non-empty 1-D complex column of finite amplitudes, dim of
    them if dim is given: the one check of a ket against a dimension."""
    k = _complex_array(v, "ket amplitudes")
    if k.ndim == 2 and 1 in k.shape:
        k = k.reshape(-1)
    if k.ndim != 1 or k.size == 0 or dim is not None and k.size != dim:
        want = "a ket (1-D amplitudes)" if dim is None else f"a ket of {dim} amplitudes"
        raise ShapeError(f"expected {want}, got shape {np.shape(v)}")
    if not np.isfinite(k).all():
        raise ValidationError("ket amplitudes must be finite")
    return k


def require_unit_ket(v, what: str = "ket", dim: int | None = None) -> np.ndarray:
    """as_ket(v, dim), required to have unit norm."""
    k = as_ket(v, dim)
    require_close(lambda: np.linalg.norm(k) - 1.0, KET_NORM_ATOL, f"{what} not normalized")
    return k


def as_kets(basis, dim: int | None = None) -> list[np.ndarray]:
    """The kets of a basis, each coerced by as_ket(k, dim): a scalar, which
    holds no kets, raises ShapeError, and an empty basis ValidationError."""
    if not np.iterable(basis):
        raise ShapeError(f"expected a basis (a sequence of kets), got {type(basis).__name__}")
    kets = [as_ket(k, dim) for k in basis]
    if not kets:
        raise ValidationError("basis must not be empty")
    return kets


def require_basis(basis, dim: int) -> np.ndarray:
    """Stack basis kets as columns and require an orthonormal complete set
    in dimension dim."""
    b = np.column_stack(as_kets(basis, dim))
    if b.shape[1] != dim:
        raise ValidationError(f"basis is incomplete: {b.shape[1]} kets in dimension {dim}")
    require_close(lambda: b.conj().T @ b - np.eye(dim), BASIS_ATOL, "basis is not orthonormal")
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
    """Kronecker product: each entry of a multiplies the whole of b.  A product
    that overflows raises ValidationError."""
    a, b = as_matrix(a), as_matrix(b)
    return require_finite(lambda: np.kron(a, b), "Kronecker product")


def dyad(psi, phi) -> np.ndarray:
    """Outer product |psi><phi|."""
    return np.outer(as_ket(psi), as_ket(phi).conj())


def projector(ket) -> np.ndarray:
    """Projector |k><k| onto a normalized ket."""
    k = require_unit_ket(ket, "projector ket")
    return np.outer(k, k.conj())


def require_hermitian(a, dim: int | None = None, *, stack: bool = False) -> np.ndarray:
    """as_square(a, dim, stack=stack), required Hermitian to HERMITIAN_ATOL."""
    m = as_square(a, dim, stack=stack)
    require_close(lambda: m - m.conj().swapaxes(-1, -2), HERMITIAN_ATOL, "matrix is not Hermitian")
    return m


@dataclass(frozen=True, eq=False)
class HermitianEig:
    """Full spectrum of a Hermitian matrix, or of each matrix of a stack.

    eigenvalues are real and ascending; eigenvector k is the k-th column of
    `eigenvectors` and the columns are orthonormal.  For a (B, n, n) stack
    both arrays carry the leading stack axis.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        """Sum of eigenvalue-weighted projectors, sum_v a_v P_v."""
        v = self.eigenvectors
        return (v * self.eigenvalues[..., None, :]) @ v.conj().swapaxes(-1, -2)


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
        rounds.append(frozen(np.stack([p * n + p, p * n + q, q * n + p, q * n + q])))
        ring.insert(1, ring.pop())
    upper = np.flatnonzero(np.triu(np.ones((n, n)), 1))
    return tuple(rounds), frozen(upper), frozen(np.eye(n, dtype=complex))


# n -> _stacked's tables for the largest stack of n x n matrices solved so far; a smaller stack
# uses prefix views, so the process keeps one set of tables per n.
_STACKED: dict[int, tuple[tuple[np.ndarray, ...], np.ndarray, np.ndarray]] = {}


def _stacked(n: int, count: int) -> tuple[tuple[np.ndarray, ...], np.ndarray, np.ndarray]:
    """_round_robin(n) for a C-contiguous stack of `count` n x n matrices, read-only: each
    flat-index table repeated per matrix and shifted by b n^2 for matrix b, the upper
    triangle as one row per matrix, and the identity stacked."""
    tables = _STACKED.get(n)
    if tables is None or len(tables[2]) < count:
        rounds, upper, identity = _round_robin(n)
        shift = n * n * np.arange(count)[:, None]
        tables = _STACKED[n] = (
            tuple(frozen((idx[:, None, :] + shift).reshape(4, -1)) for idx in rounds),
            frozen(upper + shift), frozen(np.repeat(identity[None], count, axis=0)))
    rounds, upper, identity = tables
    if count == len(identity):
        return tables
    pairs = len(rounds[0][0]) // len(identity)  # per matrix and round: matrix b's columns come b-th
    return tuple(idx[:, : count * pairs] for idx in rounds), upper[:count], identity[:count]


def hermitian_eig(a) -> HermitianEig:
    """Eigendecompose a Hermitian matrix, or each matrix of a (B, n, n) stack,
    by round-robin Jacobi rotations.

    A sweep visits every (p, q) pair once, in rounds of disjoint pairs (the
    parallel ordering of Brent and Luk, 1985); the 2x2 rotations of a round
    act together as one dense unitary J, W <- J^dag W J, and on a stack one
    batched product rotates every matrix that is still active.  A matrix stops
    when its off-diagonal Frobenius norm drops below 1e-13, and leaves the
    stack at that sweep boundary: each matrix gets exactly the rotations it
    gets alone, so a stack's eigenpairs equal the one-at-a-time ones bit for
    bit.  Dependency-free at the matrix sizes used here.  Overflow, or no
    convergence, in any matrix of a stack raises ArithmeticError for the
    stack.  The returned arrays are read-only and owned by the result.
    """
    m = require_hermitian(a, stack=True)
    n = m.shape[-1]
    if m.ndim == 2:
        rounds, upper, eye = _round_robin(n)
    else:
        rounds, upper, eye = _stacked(n, len(m))
        rest = np.arange(len(m))  # the matrices still rotating
        values, vectors = np.empty(m.shape[:-1]), np.empty_like(m)
    skip = _JACOBI_OFF_TOL / (4.0 * n * n)
    # Overflow raises as soon as the working matrix or spectrum is not finite; the squared
    # off-diagonal norm overflows first (entries above ~1e154), so alone it proves nothing.
    with np.errstate(over="ignore", invalid="ignore"):
        work = (m + m.conj().swapaxes(-1, -2)) / 2.0
        vecs = eye
        for _ in range(_MAX_SWEEPS):
            # Each matrix's squared off-diagonal norm by one row-wise sum, on both paths: a
            # matrix of a stack gets the value it gets alone, so it stops where it stops alone.
            off2 = 2.0 * np.add.reduce(np.square(work.take(upper).view(float)), -1)
            if m.ndim == 3:  # the matrices that pass the stop test leave at this sweep boundary
                done = off2 < _JACOBI_OFF_TOL**2
                values[rest[done]] = work[done].diagonal(0, -2, -1).real
                vectors[rest[done]] = vecs[done]
                rest, work, vecs, off2 = rest[~done], work[~done], vecs[~done], off2[~done]
                if 0 < rest.size < done.size:
                    rounds, upper, eye = _stacked(n, rest.size)
                off2 = off2.max(initial=0.0)  # the stop test and overflow check of those left
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
                j = eye.copy()  # 2x2 blocks [[c, se], [-conj(se), c]] at (p, q)
                np.put(j, idx, np.concatenate((c, se, -se.conj(), c)))
                work = j.conj().swapaxes(-1, -2) @ work @ j
                work.ravel()[idx[1:3, big]] = 0.0  # a product is C-contiguous
                vecs = vecs @ j
        else:
            raise ArithmeticError("Jacobi iteration failed to converge")
    if m.ndim == 2:
        values = work.diagonal().real
        order = np.argsort(values, kind="stable")
        values, vectors = values[order], vecs.take(order, -1)  # take: a C-ordered copy
    else:
        order = np.argsort(values, axis=-1, kind="stable")
        row = n * np.arange(len(m))[:, None]  # b n: where matrix b's values start
        values = values.take(row + order)  # flat: b n + order[b, j]
        vectors = vectors.take(n * (row + np.arange(n))[:, :, None] + order[:, None, :])
    if not np.isfinite(values).all():
        raise ArithmeticError("Jacobi iteration overflowed: the eigenvalues are not finite")
    values.setflags(write=False)
    vectors.setflags(write=False)
    return HermitianEig(values, vectors)


def apply_matrix_function(a, f: Callable[[float], complex]) -> np.ndarray:
    """Evaluate f(A) = sum f(a_v) P_v for Hermitian A.

    f is a scalar function of the (real) eigenvalues; complex return values
    are allowed.  If f is undefined or non-finite at an eigenvalue, a
    DomainError is raised.
    """
    eig = hermitian_eig(as_square(a))
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
