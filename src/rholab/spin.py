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

import contextlib
import math

import numpy as np

from .errors import ShapeError, ValidationError
from .linalg import _Record, _ValueRecord, hermitian_eig, is_finite_real, is_integer

UNIT_ATOL = 1e-12

_SQRT1_2 = 1.0 / math.sqrt(2.0)

_PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


_AXES = ("x", "y", "z")


def pauli(axis: str) -> np.ndarray:
    """The 2x2 spin matrix for axis 'x', 'y' or 'z'."""
    try:
        return _PAULI[axis].copy()
    except KeyError:
        raise ValueError(f"axis must be one of 'x', 'y', 'z', got {axis!r}") from None


class UnitVector3(_ValueRecord):
    """A unit vector in coordinate space, e.g. a detector orientation; a
    component that is not a finite real number (complex, a string, None, a
    bool, NaN) raises ValidationError.  Compares and hashes by value."""

    __slots__ = ("nx", "ny", "nz")

    def __init__(self, nx: float, ny: float, nz: float):
        components = (nx, ny, nz)
        # A complex component would pass the norm check unconjugated: (1, 1j, 1) sums to 1.
        if not all(map(is_finite_real, components)):
            raise ValidationError(f"components must be real numbers, finite and not bool, got {components!r}")
        norm_sq = nx**2 + ny**2 + nz**2
        if not abs(norm_sq - 1.0) <= 2.0 * UNIT_ATOL:  # also rejects NaN
            raise ValidationError(f"not a unit vector: |n|^2 = {norm_sq!r}")
        self.__setstate__(components)

    @classmethod
    def from_iterable(cls, values) -> "UnitVector3":
        """From three real numbers or numeric strings; any other count raises
        ShapeError, and any other component ValidationError."""
        components = np.asarray(tuple(values))
        if components.shape != (3,):
            raise ShapeError(f"expected 3 components, got shape {components.shape}")
        reals = None
        if not np.iscomplexobj(components):  # float() would drop the imaginary part
            with contextlib.suppress(TypeError, ValueError):  # float(None), float("x")
                reals = [float(c) for c in components]
        if reals is None:
            raise ValidationError(f"components must be real numbers, got {tuple(components)!r}")
        return cls(*reals)

    @classmethod
    def from_spherical(cls, theta: float, phi: float) -> "UnitVector3":
        """From polar angle theta and azimuth phi; an angle that is not a finite real
        number (complex, a string, a bool, NaN or inf) raises ValidationError."""
        if not (is_finite_real(theta) and is_finite_real(phi)):
            raise ValidationError(f"angles must be real numbers, finite and not bool, got {theta!r} and {phi!r}")
        return cls(math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta))

    def as_array(self) -> np.ndarray:
        return np.array([self.nx, self.ny, self.nz])

    def dot(self, other: "UnitVector3") -> float:
        return self.nx * other.nx + self.ny * other.ny + self.nz * other.nz


X_AXIS = UnitVector3(1.0, 0.0, 0.0)
Y_AXIS = UnitVector3(0.0, 1.0, 0.0)
Z_AXIS = UnitVector3(0.0, 0.0, 1.0)


class SpinHalfBasis(_Record):
    """The six spin-1/2 kets |x+->, |y+->, |z+-> as 1-D amplitude arrays."""

    __slots__ = ("x_plus", "x_minus", "y_plus", "y_minus", "z_plus", "z_minus")

    def __init__(self, x_plus, x_minus, y_plus, y_minus, z_plus, z_minus):
        self.__setstate__((x_plus, x_minus, y_plus, y_minus, z_plus, z_minus))

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


class SpinOneSet(_Record):
    """Spin-1 matrices, their squares, and the nine eigenprojectors as one read-only
    (3, 3, 3, 3) stack: projectors[i, value + 1] is P[axis, value] for the i-th of the
    axes x, y, z and the value -1, 0 or 1."""

    __slots__ = ("sx", "sy", "sz", "sx2", "sy2", "sz2", "projectors")

    def __init__(self, sx, sy, sz, sx2, sy2, sz2, projectors: np.ndarray):
        self.__setstate__((sx, sy, sz, sx2, sy2, sz2, projectors))

    def __repr__(self) -> str:  # without the projectors
        spins = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__[:-1])
        return f"SpinOneSet({spins})"

    def spin(self, axis: str) -> np.ndarray:
        return getattr(self, f"s{axis}")

    def spin_squared(self, axis: str) -> np.ndarray:
        return getattr(self, f"s{axis}2")

    def projector(self, axis: str, value: int) -> np.ndarray:
        """P[axis, value] for axis 'x', 'y' or 'z' and the integer value -1, 0 or 1."""
        if axis not in _AXES or not (is_integer(value) and -1 <= value <= 1):
            raise ValueError("axis must be one of 'x', 'y', 'z' and value one of -1, 0, 1, "
                             f"got {axis!r} and {value!r}")
        return self.projectors[_AXES.index(axis), value + 1]


def spin_one_set() -> SpinOneSet:
    """Spin-1 operator set over basis order (|z->, |z0>, |z+>).

    S_x, S_y, S_z are pinned entrywise; the eigenprojectors are built from
    the (non-degenerate) spectrum of each operator, so each P[xi, lambda]
    satisfies S_xi P = lambda P.
    """
    sx = _SQRT1_2 * np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex)
    sy = 1j * _SQRT1_2 * np.array([[0, -1, 0], [1, 0, -1], [0, 1, 0]], dtype=complex)
    sz = np.array([[1, 0, 0], [0, 0, 0], [0, 0, -1]], dtype=complex)

    # v[i, k]: the eigenket of axis i for the value k - 1, the eigenvalues ascending.
    v = hermitian_eig(np.array([sx, sy, sz])).eigenvectors.swapaxes(1, 2)
    projectors = v[..., :, None] * v.conj()[..., None, :]

    ops = (sx, sy, sz, sx @ sx, sy @ sy, sz @ sz)
    for a in (*ops, projectors):
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
