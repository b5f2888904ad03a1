import math

import numpy as np
import pytest

from rholab import (
    ShapeError,
    UnitVector3,
    ValidationError,
    X_AXIS,
    Z_AXIS,
    hermitian_eig,
    pauli,
    sigma_n,
    sigma_n_eigenkets,
    simultaneous_eigenbasis,
    spin_half_basis,
    spin_one_set,
)
from conftest import random_unit_vector

SQRT1_2 = 1.0 / math.sqrt(2.0)


class TestPauli:
    def test_action_on_basis(self):
        kets = spin_half_basis()
        assert np.allclose(pauli("x") @ kets.z_plus, kets.z_minus)
        assert np.allclose(pauli("x") @ kets.z_minus, kets.z_plus)
        assert np.allclose(pauli("y") @ kets.z_plus, 1j * kets.z_minus)
        assert np.allclose(pauli("y") @ kets.z_minus, -1j * kets.z_plus)

    def test_sigma_z_diagonal(self):
        assert np.array_equal(pauli("z"), np.diag([1.0, -1.0]))

    def test_projector_difference(self):
        kets = spin_half_basis()
        for axis in "xyz":
            plus, minus = kets.axis_pair(axis)
            diff = np.outer(plus, plus.conj()) - np.outer(minus, minus.conj())
            assert np.max(np.abs(pauli(axis) - diff)) < 1e-14

    def test_squares_and_anticommutation(self):
        for axis in "xyz":
            assert np.max(np.abs(pauli(axis) @ pauli(axis) - np.eye(2))) < 1e-14
        anti = pauli("x") @ pauli("y") + pauli("y") @ pauli("x")
        assert np.max(np.abs(anti)) < 1e-14

    def test_unknown_axis(self):
        with pytest.raises(ValueError):
            pauli("w")


class TestUnitVector:
    def test_rejects_non_unit(self):
        with pytest.raises(ValidationError):
            UnitVector3(1.0, 1.0, 0.0)

    @pytest.mark.parametrize("coords", [(math.nan, 0.0, 1.0), (0.0, 0.0, math.nan)])
    def test_rejects_nan(self, coords):
        with pytest.raises(ValidationError):
            UnitVector3(*coords)

    @pytest.mark.parametrize("coords", [(True, 0, 0), (0.0, False, 1.0), (10**400, 0, 0)],
                             ids=["true", "false", "huge-int"])
    def test_rejects_bool_and_out_of_range_components(self, coords):
        with pytest.raises(ValidationError, match="must be real numbers"):
            UnitVector3(*coords)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: UnitVector3(1, 1j, 1),  # |n|^2 summed unconjugated is 1
            lambda: UnitVector3(0.0, 0.0, np.complex128(1.0)),
            lambda: UnitVector3.from_iterable(np.array([0, 0, 1 + 0j])),
            lambda: UnitVector3.from_iterable([1, 1j, 1]),
        ],
        ids=["complex", "numpy-complex", "from_iterable-complex-array", "from_iterable-complex"],
    )
    def test_rejects_complex_component(self, build):
        with pytest.raises(ValidationError, match="must be real"):
            build()

    @pytest.mark.parametrize(
        "build",
        [
            lambda: UnitVector3("1", 0, 0),
            lambda: UnitVector3(0, None, 1),
            lambda: UnitVector3(0, 0, [1.0]),
            lambda: UnitVector3.from_iterable(["1", None, 0]),
            lambda: UnitVector3.from_iterable(["x", "0", "1"]),
        ],
        ids=["string", "none", "list", "from_iterable-none", "from_iterable-non-numeric-string"],
    )
    def test_rejects_non_numeric_component(self, build):
        with pytest.raises(ValidationError, match="must be real numbers"):
            build()

    @pytest.mark.parametrize("values", [[1, 0], [0, 0, 1, 0], [], [[0, 0, 1]]])
    def test_from_iterable_needs_three_components(self, values):
        with pytest.raises(ShapeError):
            UnitVector3.from_iterable(values)

    def test_from_iterable_takes_real_numbers_and_numeric_strings(self):
        for values in ([0, 0, 1], np.array([0.0, 0.0, 1.0]), ["0", "0", "1"], iter((0.0, 0.0, 1.0))):
            assert UnitVector3.from_iterable(values) == Z_AXIS

    def test_spherical(self):
        n = UnitVector3.from_spherical(0.7, 1.3)
        assert n.nz == pytest.approx(math.cos(0.7))
        assert n.dot(n) == pytest.approx(1.0)


class TestSpinHalfBasis:
    def test_pinned_columns(self):
        kets = spin_half_basis()
        assert np.allclose(kets.x_plus, [SQRT1_2, SQRT1_2])
        assert np.allclose(kets.x_minus, [SQRT1_2, -SQRT1_2])
        assert np.allclose(kets.y_plus, [SQRT1_2, 1j * SQRT1_2])
        assert np.allclose(kets.y_minus, [SQRT1_2, -1j * SQRT1_2])
        assert np.allclose(kets.z_plus, [1.0, 0.0])
        assert np.allclose(kets.z_minus, [0.0, 1.0])

    def test_normalized_and_axis_orthogonal(self):
        kets = spin_half_basis()
        for axis in "xyz":
            plus, minus = kets.axis_pair(axis)
            assert np.linalg.norm(plus) == pytest.approx(1.0, abs=1e-15)
            assert np.linalg.norm(minus) == pytest.approx(1.0, abs=1e-15)
            assert abs(np.vdot(plus, minus)) < 1e-15

    def test_arrays_read_only(self):
        kets = spin_half_basis()
        with pytest.raises(ValueError):
            kets.z_plus[0] = 2.0


class TestSigmaN:
    def test_axis_limits(self):
        assert np.allclose(sigma_n(Z_AXIS), pauli("z"))
        assert np.allclose(sigma_n(X_AXIS), pauli("x"))
        assert np.allclose(sigma_n(UnitVector3(0, 1, 0)), pauli("y"))

    def test_algebraic_properties(self):
        rng = np.random.default_rng(30)
        for _ in range(20):
            op = sigma_n(random_unit_vector(rng))
            assert np.max(np.abs(op - op.conj().T)) < 1e-14
            assert abs(np.trace(op)) < 1e-14
            assert np.max(np.abs(op @ op - np.eye(2))) < 1e-14

    def test_spectrum(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            eig = hermitian_eig(sigma_n(random_unit_vector(rng)))
            assert np.allclose(eig.eigenvalues, [-1.0, 1.0], atol=1e-13)


class TestSigmaNEigenkets:
    def test_z_axis(self):
        kets = spin_half_basis()
        plus, minus = sigma_n_eigenkets(Z_AXIS)
        assert np.allclose(plus, kets.z_plus)
        assert np.allclose(minus, kets.z_minus)

    def test_minus_ket_limit_near_pole(self):
        # theta -> 0 along phi = 0: the second minus-ket component tends to -1,
        # matching the |x-> column.
        for theta in (1e-4, 1e-6, 1e-8):
            n = UnitVector3.from_spherical(theta, 0.0)
            _, minus = sigma_n_eigenkets(n)
            assert minus[1].real < -0.99999999
            assert abs(minus[1].imag) < 1e-12

    def test_eigen_relation_and_orthogonality(self):
        rng = np.random.default_rng(32)
        for _ in range(50):
            n = random_unit_vector(rng)
            op = sigma_n(n)
            plus, minus = sigma_n_eigenkets(n)
            assert np.max(np.abs(op @ plus - plus)) < 1e-13
            assert np.max(np.abs(op @ minus + minus)) < 1e-13
            assert abs(np.vdot(plus, minus)) < 1e-12

    def test_matches_eigensolver_projectors(self):
        # Basis-free cross-check against the Jacobi eigensolver.
        rng = np.random.default_rng(33)
        for _ in range(10):
            n = random_unit_vector(rng)
            plus, minus = sigma_n_eigenkets(n)
            eig = hermitian_eig(sigma_n(n))
            p_minus = np.outer(eig.eigenvectors[:, 0], eig.eigenvectors[:, 0].conj())
            p_plus = np.outer(eig.eigenvectors[:, 1], eig.eigenvectors[:, 1].conj())
            assert np.max(np.abs(np.outer(plus, plus.conj()) - p_plus)) < 1e-12
            assert np.max(np.abs(np.outer(minus, minus.conj()) - p_minus)) < 1e-12

    def test_phase_convention(self):
        rng = np.random.default_rng(34)
        for _ in range(20):
            for ket in sigma_n_eigenkets(random_unit_vector(rng)):
                leading = next(c for c in ket if abs(c) > 0)
                assert leading.imag == pytest.approx(0.0, abs=1e-15)
                assert leading.real >= 0.0

    def test_continuity_at_north_pole(self):
        for eps in (1e-6, 1e-9):
            nz = 1.0 - eps
            r = math.sqrt(1.0 - nz * nz)
            n = UnitVector3(r * math.cos(0.3), r * math.sin(0.3), nz)
            plus, _ = sigma_n_eigenkets(n)
            overlap = abs(np.vdot(spin_half_basis().z_plus, plus)) ** 2
            assert overlap >= 1.0 - 1e-5


class TestSpinOne:
    def test_pinned_matrices(self):
        s = spin_one_set()
        assert np.allclose(s.sx, SQRT1_2 * np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]]))
        assert np.allclose(
            s.sy, 1j * SQRT1_2 * np.array([[0, -1, 0], [1, 0, -1], [0, 1, 0]])
        )
        assert np.allclose(s.sz, np.diag([1.0, 0.0, -1.0]))

    def test_squares_match_display(self):
        s = spin_one_set()
        assert np.allclose(s.sx2, 0.5 * np.array([[1, 0, 1], [0, 2, 0], [1, 0, 1]]), atol=1e-14)
        assert np.allclose(s.sy2, 0.5 * np.array([[1, 0, -1], [0, 2, 0], [-1, 0, 1]]), atol=1e-14)
        assert np.allclose(s.sz2, np.diag([1.0, 0.0, 1.0]), atol=1e-14)

    def test_total_spin(self):
        s = spin_one_set()
        assert np.max(np.abs(s.sx2 + s.sy2 + s.sz2 - 2.0 * np.eye(3))) < 1e-14

    def test_squared_spins_commute(self):
        s = spin_one_set()
        for a in "xyz":
            for b in "xyz":
                comm = s.spin_squared(a) @ s.spin_squared(b) - s.spin_squared(b) @ s.spin_squared(a)
                assert np.max(np.abs(comm)) < 1e-13

    def test_square_plus_zero_projector(self):
        s = spin_one_set()
        for axis in "xyz":
            total = s.spin_squared(axis) + s.projector(axis, 0)
            assert np.max(np.abs(total - np.eye(3))) < 1e-13

    def test_zero_projector_partition(self):
        s = spin_one_set()
        total = s.projector("x", 0) + s.projector("y", 0) + s.projector("z", 0)
        assert np.max(np.abs(total - np.eye(3))) < 1e-13

    def test_axis_partitions_of_unity(self):
        s = spin_one_set()
        for axis in "xyz":
            total = sum(s.projector(axis, v) for v in (-1, 0, 1))
            assert np.max(np.abs(total - np.eye(3))) < 1e-13

    def test_x_plus_projector_display(self):
        s = spin_one_set()
        r2 = math.sqrt(2.0)
        expected = 0.25 * np.array([[1, r2, 1], [r2, 2, r2], [1, r2, 1]])
        assert np.max(np.abs(s.projector("x", 1) - expected)) < 1e-13
        expected_minus = 0.25 * np.array([[1, -r2, 1], [-r2, 2, -r2], [1, -r2, 1]])
        assert np.max(np.abs(s.projector("x", -1) - expected_minus)) < 1e-13

    def test_zero_spin_projector_products_vanish(self):
        s = spin_one_set()
        for a in "xyz":
            for b in "xyz":
                if a != b:
                    prod = s.projector(a, 0) @ s.projector(b, 0)
                    assert np.max(np.abs(prod)) < 1e-13

    def test_projector_eigen_relation(self):
        s = spin_one_set()
        for axis in "xyz":
            for value in (-1, 0, 1):
                p = s.projector(axis, value)
                assert np.max(np.abs(s.spin(axis) @ p - value * p)) < 1e-13


class TestSimultaneousEigenbasis:
    def test_contains_displayed_ket(self):
        kets = simultaneous_eigenbasis()
        target = np.array([SQRT1_2, 0.0, SQRT1_2])
        assert any(abs(abs(np.vdot(target, k)) - 1.0) < 1e-12 for k in kets)

    def test_orthonormal(self):
        kets = simultaneous_eigenbasis()
        for i, a in enumerate(kets):
            for j, b in enumerate(kets):
                expected = 1.0 if i == j else 0.0
                assert abs(np.vdot(a, b) - expected) < 1e-12

    def test_eigenvalue_triples(self):
        s = spin_one_set()
        for ket in simultaneous_eigenbasis():
            triple = []
            for axis in "xyz":
                image = s.spin_squared(axis) @ ket
                lam = float(np.vdot(ket, image).real)
                assert np.max(np.abs(image - lam * ket)) < 1e-13
                triple.append(round(lam))
            assert sorted(triple) == [0, 1, 1]
            assert sum(triple) == 2
