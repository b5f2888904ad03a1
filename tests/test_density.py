import math

import numpy as np
import pytest

from rholab import (
    DensityOperator,
    ProperMixture,
    ShapeError,
    ValidationError,
    evolve_unitary,
    expectation,
    gram_factor,
    hermitian_eig,
    measurement_channel,
    mixture_to_density,
    pauli,
    projector,
    purity,
    remix,
    spin_half_basis,
)
from rholab import linalg
from rholab.density import ZERO_WEIGHT_TOL, density_stack
from conftest import (
    random_density,
    random_hermitian,
    random_ket,
    random_mixture,
    random_unitary,
)

KETS = spin_half_basis()


def projector_sum(mixture: ProperMixture) -> np.ndarray:
    """Oracle: the density as an explicit weighted sum of outer products."""
    dim = mixture.dim
    out = np.zeros((dim, dim), dtype=complex)
    for w, k in zip(mixture.weights, mixture.kets):
        for i in range(dim):
            for j in range(dim):
                out[i, j] += w * k[i] * np.conj(k[j])
    return out


class TestDensityValidation:
    def test_accepts_valid(self):
        d = DensityOperator(np.eye(3) / 3.0)
        assert d.dim == 3
        assert d.matrix.flags.writeable is False
        assert not d.eigenvalues.flags.writeable and not d.eigenvectors.flags.writeable
        assert not hasattr(d, "__dict__")

    def test_keeps_the_spectrum_it_validated(self):
        rng = np.random.default_rng(20)
        states = [random_density(rng, n).matrix for n in (2, 4, 8, 16)]
        states += [projector(random_ket(rng, 4)), np.eye(5) / 5.0]
        for rho in states:
            d = DensityOperator(rho)
            m = np.asarray(rho, dtype=complex)
            eig = hermitian_eig((m + m.conj().T) / 2.0)
            assert np.array_equal(d.eigenvectors, eig.eigenvectors)
            assert np.array_equal(d.eigenvalues, eig.eigenvalues)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            DensityOperator(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValidationError):
            DensityOperator(np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValidationError):
            DensityOperator(np.diag([1.5, -0.5]))


# 3 x 3 matrices, each failing one density check.
INVALID = {
    "non-finite": np.diag([np.nan, 0.5, 0.5]),
    "trace": np.eye(3) / 2.0,
    "non-hermitian": np.eye(3) / 3.0 + np.triu(np.full((3, 3), 0.1), 1),
    "spectrum": np.diag([1.5e308, -1.5e308, 1.0]),  # hermitizing overflows
    "negative": np.diag([1.2, -0.1, -0.1]),
}


class TestDensityStack:
    def test_valid_stack_matches_one_at_a_time(self):
        rng = np.random.default_rng(27)
        stack = np.array([random_density(rng, 4).matrix for _ in range(5)])
        states, error = density_stack(stack)
        assert error is None and len(states) == 5
        for d, rho in zip(states, stack):
            alone = DensityOperator(rho)
            for attr in ("matrix", "eigenvalues", "eigenvectors"):
                a = getattr(d, attr)
                assert np.array_equal(a, getattr(alone, attr))
                assert not a.flags.writeable and a.base is getattr(states[0], attr).base

    @pytest.mark.parametrize("later", list(INVALID))
    @pytest.mark.parametrize("first", list(INVALID))
    def test_reports_the_first_invalid_matrix(self, first, later):
        valid = np.eye(3) / 3.0
        stack = np.array([valid, INVALID[first], valid, INVALID[later]], dtype=complex)
        with pytest.raises(ValidationError) as alone:
            DensityOperator(stack[1])
        states, error = density_stack(stack)
        assert len(states) == 1 and np.array_equal(states[0].matrix, valid)
        assert type(error) is type(alone.value) and str(error) == str(alone.value)


class TestMixtureToDensity:
    def test_worked_example_matrix(self):
        # Equal mixture of the x+ and y+ projectors.  The projector-sum
        # oracle fixes the off-diagonal as (1 - i)/4 in the top right; the
        # transposed variant sometimes quoted corresponds to the a^dag.a
        # matrix-product convention, not to the projector sum.
        mixture = ProperMixture([(0.5, KETS.x_plus), (0.5, KETS.y_plus)])
        expected = projector_sum(mixture)
        assert np.allclose(
            expected,
            np.array([[0.5, 0.25 - 0.25j], [0.25 + 0.25j, 0.5]]),
            atol=1e-15,
        )
        assert np.max(np.abs(mixture_to_density(mixture).matrix - expected)) < 1e-14
        off = mixture_to_density(mixture).matrix[0, 1]
        assert abs(abs(off) - math.sqrt(2.0) / 4.0) < 1e-14

    def test_pure_single_term(self):
        d = mixture_to_density(ProperMixture([(1.0, KETS.z_plus)]))
        assert np.allclose(d.matrix, np.diag([1.0, 0.0]))

    def test_alternative_mixture_same_matrix(self):
        first = ProperMixture([(0.5, KETS.x_plus), (0.5, KETS.y_plus)])
        chi1 = (KETS.x_plus + KETS.y_plus) / math.sqrt(3.0)
        chi2 = KETS.x_plus - KETS.y_plus
        second = ProperMixture([(0.75, chi1), (0.25, chi2)])
        dev = np.max(np.abs(mixture_to_density(first).matrix - mixture_to_density(second).matrix))
        assert dev < 1e-14

    def test_validation_triad_on_random_mixtures(self):
        rng = np.random.default_rng(40)
        for _ in range(1000):
            n = int(rng.integers(2, 7))
            terms = int(rng.integers(1, 5))
            mixture = random_mixture(rng, n, terms)
            d = mixture_to_density(mixture)  # construction validates all three
            assert np.max(np.abs(d.matrix - projector_sum(mixture))) < 1e-12

    def test_rejects_bad_weights(self):
        with pytest.raises(ValidationError):
            ProperMixture([(0.7, KETS.z_plus), (0.7, KETS.z_minus)])

    def test_rejects_nan_weight(self):
        with pytest.raises(ValidationError):
            ProperMixture([(math.nan, KETS.z_plus)])

    def test_rejects_unnormalized_ket(self):
        with pytest.raises(ValidationError):
            ProperMixture([(1.0, np.array([1.0, 1.0]))])


class TestPurity:
    def test_pure_projector(self):
        rng = np.random.default_rng(41)
        d = DensityOperator(projector(random_ket(rng, 4)))
        assert purity(d) == pytest.approx(1.0, abs=1e-12)
        assert d.is_pure()

    def test_maximally_mixed(self):
        assert purity(DensityOperator(np.eye(2) / 2.0)) == pytest.approx(0.5, abs=1e-14)

    def test_orthogonal_mixture(self):
        # diagonal-form oracle: sum of squared weights
        d = mixture_to_density(
            ProperMixture([(0.75, KETS.z_plus), (0.25, KETS.z_minus)])
        )
        assert purity(d) == pytest.approx(0.75**2 + 0.25**2, abs=1e-14)
        assert purity(d) == pytest.approx(5.0 / 8.0, abs=1e-14)

    def test_pure_classification_threshold(self):
        rng = np.random.default_rng(55)
        assert DensityOperator(projector(random_ket(rng, 3))).is_pure()
        assert not DensityOperator(np.eye(2) / 2.0).is_pure()
        nearly_pure = DensityOperator(np.diag([1.0 - 1e-6, 1e-6]))
        assert not nearly_pure.is_pure()  # purity 1 - 2e-6 + ... < 1 - 1e-9


class TestGramFactor:
    def test_worked_example_rows(self):
        mixture = ProperMixture([(0.5, KETS.x_plus), (0.5, KETS.y_plus)])
        g = gram_factor(mixture, [KETS.z_plus, KETS.z_minus])
        unscaled = g.coeff * math.sqrt(2.0)  # divide out sqrt(1/2)
        expected = np.array(
            [[math.sqrt(0.5), math.sqrt(0.5)], [math.sqrt(0.5), 1j * math.sqrt(0.5)]]
        )
        assert np.max(np.abs(unscaled - expected)) < 1e-14

    def test_pure_state_single_row(self):
        g = gram_factor(ProperMixture([(1.0, KETS.z_plus)]), [KETS.z_plus, KETS.z_minus])
        assert np.allclose(g.coeff, [[1.0, 0.0]])

    def test_row_norms_are_weights(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            mixture = random_mixture(rng, 4, 3)
            u = random_unitary(rng, 4)
            g = gram_factor(mixture, [u[:, i] for i in range(4)])
            assert np.max(np.abs(g.weights - mixture.weights)) < 1e-12

    def test_reconstruction_matches_density(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            mixture = random_mixture(rng, 3, 4)
            u = random_unitary(rng, 3)
            g = gram_factor(mixture, [u[:, i] for i in range(3)])
            dev = np.max(np.abs(g.reconstruct() - mixture_to_density(mixture).matrix))
            assert dev < 1e-12

    def test_equals_the_per_term_rows(self):
        # Row k is sqrt(p_k) times the coefficients of ket k, one term at a time.
        rng = np.random.default_rng(47)
        mixture, b = random_mixture(rng, 4, 3), random_unitary(rng, 4)
        g = gram_factor(mixture, list(b.T))
        rows = [np.sqrt(w) * (b.conj().T @ k) for w, k in zip(mixture.weights, mixture.kets)]
        assert np.max(np.abs(g.coeff - np.array(rows))) < 64 * np.finfo(float).eps

    def test_rejects_non_orthonormal_basis(self):
        mixture = ProperMixture([(1.0, KETS.z_plus)])
        with pytest.raises(ValidationError):
            gram_factor(mixture, [KETS.z_plus, KETS.x_plus])


class TestRemix:
    def test_identity_returns_original(self):
        mixture = ProperMixture([(0.5, KETS.x_plus), (0.5, KETS.y_plus)])
        g = gram_factor(mixture, [KETS.z_plus, KETS.z_minus])
        back = remix(g, np.eye(2))
        assert np.max(np.abs(back.weights - mixture.weights)) < 1e-14
        for new, old in zip(back.kets, mixture.kets):
            assert np.max(np.abs(new - old)) < 1e-14

    def test_worked_example(self):
        mixture = ProperMixture([(0.5, KETS.x_plus), (0.5, KETS.y_plus)])
        g = gram_factor(mixture, [KETS.z_plus, KETS.z_minus])
        u = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
        out = remix(g, u)
        assert np.allclose(out.weights, [0.75, 0.25], atol=1e-12)
        chi1 = (KETS.x_plus + KETS.y_plus) / math.sqrt(3.0)
        chi2 = KETS.x_plus - KETS.y_plus
        assert np.max(np.abs(out.kets[0] - chi1)) < 1e-12
        assert np.max(np.abs(out.kets[1] - chi2)) < 1e-12

    def test_density_invariance_under_random_unitaries(self):
        rng = np.random.default_rng(44)
        mixture = random_mixture(rng, 3, 3)
        rho = mixture_to_density(mixture).matrix
        g = gram_factor(mixture, list(np.eye(3, dtype=complex).T))
        for _ in range(50):
            out = remix(g, random_unitary(rng, 3))
            assert np.max(np.abs(mixture_to_density(out).matrix - rho)) < 1e-11

    def test_equals_the_per_row_construction(self):
        # One row of u . coeff at a time: its squared norm is the weight, the
        # renormalized row in the stored basis the ket, and vanishing rows drop.
        rng = np.random.default_rng(48)
        ket = random_ket(rng, 3)
        mixtures = [random_mixture(rng, 3, 3), ProperMixture([(0.25, ket), (0.75, ket)])]
        unitaries = [random_unitary(rng, 3), np.array([[0.75**0.5, -0.5], [0.5, 0.75**0.5]])]
        for mixture, u in zip(mixtures, unitaries):
            g = gram_factor(mixture, list(random_unitary(rng, 3).T))
            terms = []
            for row in u @ g.coeff:
                weight = float(np.sum(np.abs(row) ** 2))
                if weight >= ZERO_WEIGHT_TOL:
                    terms.append((weight, g.basis @ row / np.sqrt(weight)))
            out = remix(g, u)
            assert len(out.weights) == len(terms)
            for got, want in zip((out.weights, out.kets), zip(*terms)):
                assert np.max(np.abs(got - np.array(want))) < 64 * np.finfo(float).eps

    def test_zero_weight_rows_dropped(self):
        mixture = ProperMixture([(0.5, KETS.z_plus), (0.5, KETS.z_plus)])
        g = gram_factor(mixture, [KETS.z_plus, KETS.z_minus])
        u = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
        out = remix(g, u)
        assert len(out.weights) == 1
        assert out.weights[0] == pytest.approx(1.0, abs=1e-14)

    def test_rejects_non_unitary(self):
        g = gram_factor(ProperMixture([(1.0, KETS.z_plus)]), [KETS.z_plus, KETS.z_minus])
        with pytest.raises(ValidationError):
            remix(g, np.array([[2.0]]))

    def test_rejects_non_finite_unitary_up_front(self):
        g = gram_factor(
            ProperMixture([(0.5, KETS.z_plus), (0.5, KETS.z_minus)]),
            [KETS.z_plus, KETS.z_minus],
        )
        u = np.eye(2)
        u[0, 0] = math.nan
        with pytest.raises(ValidationError, match="matrix entries must be finite"):
            remix(g, u)

    def test_rejects_overflowing_unitary(self):
        # u^dag u overflows to NaN: rejected as a non-unitary, with no RuntimeWarning.
        g = gram_factor(
            ProperMixture([(0.5, KETS.z_plus), (0.5, KETS.z_minus)]),
            [KETS.z_plus, KETS.z_minus],
        )
        with pytest.raises(ValidationError, match="orthonormal"):
            remix(g, 1e200 * (1 + 1j) * np.eye(2))

    def test_rejects_wrong_shape(self):
        g = gram_factor(
            ProperMixture([(0.5, KETS.z_plus), (0.5, KETS.z_minus)]),
            [KETS.z_plus, KETS.z_minus],
        )
        with pytest.raises(ShapeError):
            remix(g, np.eye(3))


class TestExpectation:
    def test_maximally_mixed_z(self):
        assert expectation(DensityOperator(np.eye(2) / 2), pauli("z")) == pytest.approx(0.0)

    def test_projector_expectation_is_overlap(self):
        rng = np.random.default_rng(45)
        d = DensityOperator(projector(KETS.z_plus))
        for _ in range(10):
            chi = random_ket(rng, 2)
            value = expectation(d, projector(chi))
            assert value == pytest.approx(abs(np.vdot(chi, KETS.z_plus)) ** 2, abs=1e-12)

    def test_mixture_form_agrees_with_trace_form(self):
        rng = np.random.default_rng(46)
        for _ in range(100):
            n = int(rng.integers(2, 5))
            mixture = random_mixture(rng, n, 3)
            obs = random_hermitian(rng, n)
            via_mixture = sum(
                w * np.vdot(k, obs @ k).real for w, k in zip(mixture.weights, mixture.kets)
            )
            via_trace = expectation(mixture_to_density(mixture), obs)
            assert abs(via_mixture - via_trace) < 1e-11

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            expectation(DensityOperator(np.eye(2) / 2), np.eye(3))

    def test_result_real(self):
        rng = np.random.default_rng(47)
        d = random_density(rng, 4)
        value = expectation(d, random_hermitian(rng, 4))
        assert isinstance(value, float)


class TestEvolveUnitary:
    def test_zero_time_identity(self):
        rng = np.random.default_rng(48)
        d = random_density(rng, 3)
        out = evolve_unitary(d, random_hermitian(rng, 3), 0.0)
        assert np.max(np.abs(out.matrix - d.matrix)) < 1e-14

    def test_larmor_rotation_endpoints(self):
        # Oracle: U = diag(e^{-it}, e^{it}) applied to |x+>.  At t = pi/2
        # (Bloch rotation angle pi) this lands on |x->; at t = 3 pi/4 it
        # lands on |y->.
        d = DensityOperator(projector(KETS.x_plus))
        out = evolve_unitary(d, pauli("z"), math.pi / 2.0)
        u = np.diag([np.exp(-1j * math.pi / 2), np.exp(1j * math.pi / 2)])
        oracle = u @ d.matrix @ u.conj().T
        assert np.max(np.abs(out.matrix - oracle)) < 1e-12
        assert np.max(np.abs(out.matrix - projector(KETS.x_minus))) < 1e-10

        out2 = evolve_unitary(d, pauli("z"), 3.0 * math.pi / 4.0)
        assert np.max(np.abs(out2.matrix - projector(KETS.y_minus))) < 1e-10

    def test_spectrum_and_purity_preserved(self):
        rng = np.random.default_rng(49)
        for _ in range(10):
            d = random_density(rng, 4)
            h = random_hermitian(rng, 4)
            t = float(rng.uniform(-3.0, 3.0))
            out = evolve_unitary(d, h, t)
            assert abs(purity(out) - purity(d)) < 1e-11
            before = hermitian_eig(d.matrix).eigenvalues
            after = hermitian_eig(out.matrix).eigenvalues
            assert np.max(np.abs(before - after)) < 1e-10
            assert abs(np.trace(out.matrix) - 1.0) < 1e-12

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_time_before_solving(self, t, monkeypatch):
        def solve(a):
            raise AssertionError("the eigensolver ran before t was checked")

        monkeypatch.setattr(linalg, "hermitian_eig", solve)
        with pytest.raises(ValidationError, match="t must be finite"):
            evolve_unitary(DensityOperator(np.eye(2) / 2.0), pauli("z"), t)


class TestMeasurementChannel:
    def test_diagonal_fixed_point(self):
        d = DensityOperator(np.diag([0.2, 0.3, 0.5]))
        basis = list(np.eye(3, dtype=complex).T)
        out = measurement_channel(d, basis)
        assert np.max(np.abs(out.matrix - d.matrix)) < 1e-14

    def test_x_plus_in_z_basis(self):
        # Born oracle: |<z+|x+>|^2 = |<z-|x+>|^2 = 1/2
        d = DensityOperator(projector(KETS.x_plus))
        out = measurement_channel(d, [KETS.z_plus, KETS.z_minus])
        assert np.max(np.abs(out.matrix - np.eye(2) / 2.0)) < 1e-13

    def test_diagonal_entries_are_probabilities(self):
        rng = np.random.default_rng(50)
        d = random_density(rng, 3)
        u = random_unitary(rng, 3)
        basis = [u[:, i] for i in range(3)]
        out = measurement_channel(d, basis)
        for i in range(3):
            prob = float(np.vdot(basis[i], d.matrix @ basis[i]).real)
            assert np.vdot(basis[i], out.matrix @ basis[i]).real == pytest.approx(prob, abs=1e-12)
            for j in range(3):
                if i != j:
                    assert abs(np.vdot(basis[i], out.matrix @ basis[j])) < 1e-12

    def test_projector_weighting_form_equivalent(self):
        # sum_m R_m Tr(rho R_m) computed independently equals sum_m R_m rho R_m
        rng = np.random.default_rng(51)
        for _ in range(20):
            d = random_density(rng, 4)
            u = random_unitary(rng, 4)
            basis = [u[:, i] for i in range(4)]
            weighted = np.zeros((4, 4), dtype=complex)
            for k in basis:
                r = np.outer(k, k.conj())
                weighted += r * np.trace(d.matrix @ r)
            out = measurement_channel(d, basis)
            assert np.max(np.abs(out.matrix - weighted)) < 1e-12

    def test_trace_preserved_and_purity_never_increases(self):
        rng = np.random.default_rng(52)
        for _ in range(20):
            d = random_density(rng, 3)
            u = random_unitary(rng, 3)
            out = measurement_channel(d, [u[:, i] for i in range(3)])
            assert abs(np.trace(out.matrix) - 1.0) < 1e-12
            assert purity(out) <= purity(d) + 1e-12

    def test_collapse_of_pure_state_not_unitary(self):
        rng = np.random.default_rng(53)
        d = DensityOperator(projector(KETS.x_plus))
        out = measurement_channel(d, [KETS.z_plus, KETS.z_minus])
        assert purity(out) < 1.0 - 1e-6
        del rng

    def test_incomplete_basis_rejected(self):
        d = DensityOperator(np.eye(3) / 3)
        with pytest.raises(ValidationError):
            measurement_channel(d, list(np.eye(3, dtype=complex).T[:2]))


class TestClosure:
    def test_channels_agree_on_distinct_mixtures_of_same_density(self):
        # Build two distinct proper mixtures of one density (spectral form
        # and a unitary remix); measurement and unitary evolution must send
        # both to the same output.
        rng = np.random.default_rng(54)
        for _ in range(100):
            n = int(rng.integers(2, 5))
            d = random_density(rng, n)
            eig = hermitian_eig(d.matrix)
            spectral = ProperMixture(
                [(float(w), eig.eigenvectors[:, i]) for i, w in enumerate(eig.eigenvalues)]
            )
            g = gram_factor(spectral, list(np.eye(n, dtype=complex).T))
            alternative = remix(g, random_unitary(rng, n))

            d1 = mixture_to_density(spectral)
            d2 = mixture_to_density(alternative)
            u = random_unitary(rng, n)
            basis = [u[:, i] for i in range(n)]

            m1 = measurement_channel(d1, basis).matrix
            m2 = measurement_channel(d2, basis).matrix
            assert np.max(np.abs(m1 - m2)) < 1e-11

            h = random_hermitian(rng, n)
            u1 = evolve_unitary(d1, h, 0.7).matrix
            u2 = evolve_unitary(d2, h, 0.7).matrix
            assert np.max(np.abs(u1 - u2)) < 1e-11
