"""Spin-1/2 and spin-1 operators, states, and the direction-n Pauli operator.

Conventions follow the column representation |1> = |z+> = (1, 0)^T and
|0> = |z-> = (0, 1)^T, so sigma_z = diag(1, -1) and
|x+-> = 2^{-1/2}(|1> +- |0>), |y+-> = 2^{-1/2}(|1> +- i|0>).

The spin-1 matrices use basis order (|z->, |z0>, |z+>) and are pinned to
the conventional display in that order, in which S_z = diag(1, 0, -1).
The labeling tension this creates (the matrix assigns eigenvalue +1 to the
first basis ket, labeled |z->) is deliberate and left unresolved; all
identities exported here are basis-order consistent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError, ValidationError
from .linalg import hermitian_eig

UNIT_ATOL = 1e-12

_SQRT1_2 = 1.0 / math.sqrt(2.0)

_PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli(axis: str) -> np.ndarray:
    """The 2x2 spin matrix for axis 'x', 'y' or 'z'."""
    try:
        return _PAULI[axis].copy()
    except KeyError:
        raise ValueError(f"axis must be one of 'x', 'y', 'z', got {axis!r}") from None


def _require_real(components) -> None:
    # A complex component would pass the norm check unconjugated: (1, 1j, 1) sums to 1.
    if any(map(np.iscomplexobj, components)):
        raise ValidationError(f"components must be real, got {tuple(components)!r}")


@dataclass(frozen=True)
class UnitVector3:
    """A unit vector in coordinate space, e.g. a detector orientation; a complex
    component raises ValidationError."""

    nx: float
    ny: float
    nz: float

    def __post_init__(self):
        _require_real((self.nx, self.ny, self.nz))
        norm_sq = self.nx**2 + self.ny**2 + self.nz**2
        if not abs(norm_sq - 1.0) <= 2.0 * UNIT_ATOL:  # also rejects NaN
            raise ValidationError(f"not a unit vector: |n|^2 = {norm_sq!r}")

    @classmethod
    def from_iterable(cls, values) -> "UnitVector3":
        """From three real numbers or numeric strings; any other count raises ShapeError."""
        components = np.asarray(tuple(values))
        if components.shape != (3,):
            raise ShapeError(f"expected 3 components, got shape {components.shape}")
        _require_real(components)
        return cls(*map(float, components))

    @classmethod
    def from_spherical(cls, theta: float, phi: float) -> "UnitVector3":
        return cls(math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta))

    def as_array(self) -> np.ndarray:
        return np.array([self.nx, self.ny, self.nz])

    def dot(self, other: "UnitVector3") -> float:
        return self.nx * other.nx + self.ny * other.ny + self.nz * other.nz


X_AXIS = UnitVector3(1.0, 0.0, 0.0)
Y_AXIS = UnitVector3(0.0, 1.0, 0.0)
Z_AXIS = UnitVector3(0.0, 0.0, 1.0)


@dataclass(frozen=True, eq=False)
class SpinHalfBasis:
    """The six spin-1/2 kets |x+->, |y+->, |z+-> as 1-D amplitude arrays."""

    x_plus: np.ndarray
    x_minus: np.ndarray
    y_plus: np.ndarray
    y_minus: np.ndarray
    z_plus: np.ndarray
    z_minus: np.ndarray

    def axis_pair(self, axis: str) -> tuple[np.ndarray, np.ndarray]:
        return getattr(self, f"{axis}_plus"), getattr(self, f"{axis}_minus")


def spin_half_basis() -> SpinHalfBasis:
    kets = np.array(
        [
            [_SQRT1_2, _SQRT1_2],
            [_SQRT1_2, -_SQRT1_2],
            [_SQRT1_2, 1j * _SQRT1_2],
            [_SQRT1_2, -1j * _SQRT1_2],
            [1.0, 0.0],
            [0.0, 1.0],
        ],
        dtype=complex,
    )
    kets.setflags(write=False)  # the kets are read-only views of it
    return SpinHalfBasis(*kets)


def sigma_n(n: UnitVector3) -> np.ndarray:
    """Spin measurement operator along n: [[nz, n_perp*], [n_perp, -nz]]."""
    n_perp = n.nx + 1j * n.ny
    return np.array([[n.nz, np.conj(n_perp)], [n_perp, -n.nz]], dtype=complex)


def _fix_phase(ket: np.ndarray) -> np.ndarray:
    """Rescale so the first nonzero component is real and non-negative."""
    for c in ket:
        if abs(c) > 0.0:
            return ket * (abs(c) / c)
    return ket


def sigma_n_eigenkets(n: UnitVector3) -> tuple[np.ndarray, np.ndarray]:
    """Normalized eigenkets of sigma_n for eigenvalues +1 and -1.

    Uses the half-angle parameterization (cos(theta/2), e^{i phi} sin(theta/2)),
    which stays regular at the poles n_z = +-1 where the closed forms with
    1/(1 +- n_z) denominators blow up.
    """
    theta = math.atan2(math.hypot(n.nx, n.ny), n.nz)
    phi = math.atan2(n.ny, n.nx)
    half = theta / 2.0
    e_phi = complex(math.cos(phi), math.sin(phi))
    plus = np.array([math.cos(half), e_phi * math.sin(half)], dtype=complex)
    minus = np.array([math.sin(half), -e_phi * math.cos(half)], dtype=complex)
    return _fix_phase(plus), _fix_phase(minus)


@dataclass(frozen=True, eq=False)
class SpinOneSet:
    """Spin-1 matrices, their squares, and the nine eigenprojectors P[axis, value]."""

    sx: np.ndarray
    sy: np.ndarray
    sz: np.ndarray
    sx2: np.ndarray
    sy2: np.ndarray
    sz2: np.ndarray
    projectors: dict[tuple[str, int], np.ndarray] = field(repr=False)

    def spin(self, axis: str) -> np.ndarray:
        return getattr(self, f"s{axis}")

    def spin_squared(self, axis: str) -> np.ndarray:
        return getattr(self, f"s{axis}2")

    def projector(self, axis: str, value: int) -> np.ndarray:
        return self.projectors[(axis, value)]


def spin_one_set() -> SpinOneSet:
    """Spin-1 operator set over basis order (|z->, |z0>, |z+>).

    S_x, S_y, S_z are pinned entrywise; the eigenprojectors are built from
    the (non-degenerate) spectrum of each operator, so each P[xi, lambda]
    satisfies S_xi P = lambda P.
    """
    sx = _SQRT1_2 * np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex)
    sy = 1j * _SQRT1_2 * np.array([[0, -1, 0], [1, 0, -1], [0, 1, 0]], dtype=complex)
    sz = np.array([[1, 0, 0], [0, 0, 0], [0, 0, -1]], dtype=complex)

    projectors: dict[tuple[str, int], np.ndarray] = {}
    for axis, op in (("x", sx), ("y", sy), ("z", sz)):
        eig = hermitian_eig(op)
        for k, lam in enumerate(eig.eigenvalues):
            value = int(round(lam))
            v = eig.eigenvectors[:, k]
            projectors[(axis, value)] = np.outer(v, v.conj())

    ops = (sx, sy, sz, sx @ sx, sy @ sy, sz @ sz)
    for a in (*ops, *projectors.values()):
        a.setflags(write=False)
    return SpinOneSet(*ops, projectors=projectors)


def simultaneous_eigenbasis() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Three orthonormal kets that are joint eigenkets of S_x^2, S_y^2, S_z^2.

    The squared spin-1 operators commute, and each returned ket carries a
    permutation of the eigenvalue triple (1, 1, 0).
    """
    kets = np.array(
        [[_SQRT1_2, 0.0, _SQRT1_2], [0.0, 1.0, 0.0], [-_SQRT1_2, 0.0, _SQRT1_2]], dtype=complex
    )
    kets.setflags(write=False)  # the kets are read-only views of it
    return tuple(kets)
