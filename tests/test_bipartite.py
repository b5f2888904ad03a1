import math

import numpy as np
import pytest

from rholab import (
    BipartiteKet,
    BipartiteSpace,
    DensityOperator,
    ShapeError,
    ValidationError,
    hermitian_eig,
    local_measurement,
    measurement_probabilities,
    no_signalling_check,
    overlap_residue,
    partial_trace_a,
    partial_trace_b,
    product_state,
    projector,
    purity,
    schmidt,
    singlet,
    spin_half_basis,
    von_neumann_entropy,
)
from rholab.bipartite import SCHMIDT_RANK_TOL
from conftest import (
    random_complex,
    random_density,
    random_ket,
    random_unitary,
)

KETS = spin_half_basis()
SQRT1_2 = 1.0 / math.sqrt(2.0)


def two_term_entangled(rng, dim_a=2, dim_b=2):
    """2^{-1/2}(|f1>|x1> + |f2>|x2>) with orthonormal pairs on both sides."""
    ua = random_unitary(rng, dim_a)
    ub = random_unitary(rng, dim_b)
    amps = SQRT1_2 * (np.kron(ua[:, 0], ub[:, 0]) + np.kron(ua[:, 1], ub[:, 1]))
    return BipartiteKet(BipartiteSpace(dim_a, dim_b), amps), ua, ub


class TestProductState:
    def test_plus_minus_column(self):
        k = product_state(KETS.z_plus, KETS.z_minus)
        assert np.allclose(k.amplitudes, [0, 1, 0, 0])

    def test_x_plus_pair(self):
        k = product_state(KETS.x_plus, KETS.x_plus)
        # Kronecker oracle: all four amplitudes are 1/2
        assert np.allclose(k.amplitudes, np.full(4, 0.5))

    def test_schmidt_rank_one(self):
        rng = np.random.default_rng(60)
        for _ in range(10):
            k = product_state(random_ket(rng, 3), random_ket(rng, 4))
            assert schmidt(k).rank == 1

    def test_rejects_unnormalized(self):
        with pytest.raises(ValidationError):
            product_state(np.array([1.0, 1.0]), KETS.z_plus)


class TestSinglet:
    def test_amplitudes(self):
        assert np.allclose(singlet().amplitudes, SQRT1_2 * np.array([0, 1, -1, 0]))

    def test_norm(self):
        assert np.linalg.norm(singlet().amplitudes) == pytest.approx(1.0, abs=1e-15)

    def test_schmidt_coefficients(self):
        # oracle: C^dag C = I/2 for the singlet coefficient matrix
        c = singlet().coefficient_matrix()
        assert np.allclose(c.conj().T @ c, np.eye(2) / 2.0)
        form = schmidt(singlet())
        assert form.rank == 2
        assert np.allclose(form.coefficients, [SQRT1_2, SQRT1_2], atol=1e-12)


class TestSchmidt:
    def test_four_term_product_is_rank_one(self):
        rng = np.random.default_rng(61)
        a = random_ket(rng, 2)
        b = random_ket(rng, 2)
        # all four |i>|j> terms present: still a product state
        amps = np.zeros(4, dtype=complex)
        for i in range(2):
            for j in range(2):
                amps[2 * i + j] = a[i] * b[j]
        k = BipartiteKet(BipartiteSpace(2, 2), amps)
        assert schmidt(k).rank == 1

        # deleting any one term makes it entangled
        for drop in range(4):
            reduced = amps.copy()
            reduced[drop] = 0.0
            reduced /= np.linalg.norm(reduced)
            k2 = BipartiteKet(BipartiteSpace(2, 2), reduced)
            assert schmidt(k2).rank == 2

    def test_reconstruction_round_trip(self):
        rng = np.random.default_rng(62)
        for dim_a, dim_b in ((2, 2), (2, 3), (3, 2), (3, 4)):
            amps = random_ket(rng, dim_a * dim_b)
            k = BipartiteKet(BipartiteSpace(dim_a, dim_b), amps)
            form = schmidt(k)
            assert np.max(np.abs(form.reconstruct() - amps)) < 1e-10
            assert abs(np.sum(form.coefficients**2) - 1.0) < 1e-10

    def test_equals_the_per_term_construction(self):
        # The stack expressions against one eigenvector of C^dag C at a time, kept
        # above SCHMIDT_RANK_TOL and sorted by coefficient: the sums may round
        # differently, so agreement is to a few ulps of these unit-scale values.
        tol = 64 * np.finfo(float).eps
        rng = np.random.default_rng(64)
        kets = [BipartiteKet(BipartiteSpace(m, n), random_ket(rng, m * n))
                for m, n in ((2, 2), (2, 3), (3, 2), (3, 4), (4, 4))]
        ua, ub = random_unitary(rng, 4), random_unitary(rng, 4)
        rank_two = 0.8 * np.kron(ua[:, 0], ub[:, 0]) + 0.6 * np.kron(ua[:, 1], ub[:, 1])
        kets.append(BipartiteKet(BipartiteSpace(4, 4), rank_two))  # two of four terms dropped
        for k in kets:
            c = k.coefficient_matrix()
            terms = []
            for v in hermitian_eig(c.conj().T @ c).eigenvectors.T:
                sigma = float(np.linalg.norm(c @ v))
                if sigma > SCHMIDT_RANK_TOL:
                    terms.append((sigma, c @ v / sigma, v.conj()))
            terms.sort(key=lambda t: -t[0])
            form = schmidt(k)
            assert form.rank == len(terms)
            for got, want in zip((form.coefficients, form.a_kets, form.b_kets), zip(*terms)):
                assert np.max(np.abs(got - np.array(want))) < tol
            rebuilt = sum(w * np.kron(a, b) for w, a, b in terms)
            assert np.max(np.abs(form.reconstruct() - rebuilt)) < tol

    def test_biorthogonal_kets(self):
        rng = np.random.default_rng(63)
        k = BipartiteKet(BipartiteSpace(3, 3), random_ket(rng, 9))
        form = schmidt(k)
        for i, a in enumerate(form.a_kets):
            for j, b in enumerate(form.a_kets):
                expected = 1.0 if i == j else 0.0
                assert abs(np.vdot(a, b) - expected) < 1e-10
        for i, a in enumerate(form.b_kets):
            for j, b in enumerate(form.b_kets):
                expected = 1.0 if i == j else 0.0
                assert abs(np.vdot(a, b) - expected) < 1e-10


class TestPartialTrace:
    def test_kron_left_inverse(self):
        rng = np.random.default_rng(64)
        for _ in range(20):
            da, db = (int(d) for d in rng.integers(2, 4, size=2))
            rho_a = random_density(rng, da).matrix
            rho_b = random_density(rng, db).matrix
            space = BipartiteSpace(da, db)
            assert np.max(np.abs(partial_trace_b(np.kron(rho_a, rho_b), space) - rho_a)) < 1e-12
            assert np.max(np.abs(partial_trace_a(np.kron(rho_a, rho_b), space) - rho_b)) < 1e-12

    def test_singlet_reduces_to_maximally_mixed(self):
        s = singlet()
        assert np.max(np.abs(partial_trace_b(s.projector(), s.space) - np.eye(2) / 2)) < 1e-13
        assert np.max(np.abs(partial_trace_a(s.projector(), s.space) - np.eye(2) / 2)) < 1e-13

    def test_entangled_two_term_state(self):
        rng = np.random.default_rng(65)
        psi, ua, _ = two_term_entangled(rng)
        reduced = partial_trace_b(psi.projector(), psi.space)
        expected = 0.5 * (
            np.outer(ua[:, 0], ua[:, 0].conj()) + np.outer(ua[:, 1], ua[:, 1].conj())
        )
        assert np.max(np.abs(reduced - expected)) < 1e-12

    def test_trace_preservation_and_linearity(self):
        rng = np.random.default_rng(66)
        space = BipartiteSpace(2, 3)
        x = random_complex(rng, (6, 6))
        y = random_complex(rng, (6, 6))
        assert abs(np.trace(partial_trace_a(x, space)) - np.trace(x)) < 1e-12
        assert abs(np.trace(partial_trace_b(x, space)) - np.trace(x)) < 1e-12
        combined = partial_trace_b(2.0 * x + 1j * y, space)
        assert np.max(np.abs(combined - 2.0 * partial_trace_b(x, space) - 1j * partial_trace_b(y, space))) < 1e-12

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            partial_trace_b(np.eye(5), BipartiteSpace(2, 2))

    def test_reduced_purity_detects_entanglement(self):
        rng = np.random.default_rng(67)
        psi, _, _ = two_term_entangled(rng)
        reduced = DensityOperator(partial_trace_b(psi.projector(), psi.space))
        assert purity(reduced) <= 1.0 - 1e-6
        prod = product_state(random_ket(rng, 2), random_ket(rng, 2))
        reduced_p = DensityOperator(partial_trace_b(prod.projector(), prod.space))
        assert purity(reduced_p) == pytest.approx(1.0, abs=1e-10)

    def test_entropy_additivity_of_kron(self):
        rng = np.random.default_rng(68)
        for _ in range(10):
            rho_a = random_density(rng, 2)
            rho_b = random_density(rng, 3)
            joint = DensityOperator(np.kron(rho_a.matrix, rho_b.matrix))
            total = von_neumann_entropy(joint)
            assert abs(total - von_neumann_entropy(rho_a) - von_neumann_entropy(rho_b)) < 1e-10


class TestOverlapResidue:
    def test_orthogonal_b_parts_kill_cross_term(self):
        rng = np.random.default_rng(69)
        f1, f2 = random_ket(rng, 2), random_ket(rng, 2)
        ub = random_unitary(rng, 2)
        psi1 = product_state(f1, ub[:, 0])
        psi2 = product_state(f2, ub[:, 1])
        alpha, beta = SQRT1_2, SQRT1_2
        out = overlap_residue(alpha, psi1, beta, psi2)
        expected = 0.5 * (np.outer(f1, f1.conj()) + np.outer(f2, f2.conj()))
        assert np.max(np.abs(out - expected)) < 1e-12

    def test_identical_b_parts_collapse_to_one_factor(self):
        rng = np.random.default_rng(70)
        f1, f2 = random_ket(rng, 2), random_ket(rng, 2)
        x = random_ket(rng, 2)
        psi1 = product_state(f1, x)
        psi2 = product_state(f2, x)
        alpha, beta = 0.6, 0.8
        combined = alpha * f1 + beta * f2
        out = overlap_residue(alpha, psi1, beta, psi2)
        assert np.max(np.abs(out - np.outer(combined, combined.conj()))) < 1e-11

    def test_matches_direct_partial_trace(self):
        rng = np.random.default_rng(71)
        for _ in range(20):
            psi1 = product_state(random_ket(rng, 3), random_ket(rng, 2))
            psi2 = product_state(random_ket(rng, 3), random_ket(rng, 2))
            alpha = complex(rng.normal(), rng.normal())
            beta = complex(rng.normal(), rng.normal())
            combined = alpha * psi1.amplitudes + beta * psi2.amplitudes
            direct = partial_trace_b(np.outer(combined, combined.conj()), psi1.space)
            out = overlap_residue(alpha, psi1, beta, psi2)
            assert np.max(np.abs(out - direct)) < 1e-11

    def test_rejects_entangled_component(self):
        with pytest.raises(ValidationError):
            overlap_residue(1.0, singlet(), 0.0, product_state(KETS.z_plus, KETS.z_plus))


class TestLocalMeasurement:
    def test_one_sided_measurement_of_entangled_state(self):
        rng = np.random.default_rng(72)
        psi, ua, ub = two_term_entangled(rng)
        basis_b = [ub[:, i] for i in range(2)]
        out = local_measurement(psi.density(), basis_b=basis_b)
        expected = 0.5 * (
            np.kron(np.outer(ua[:, 0], ua[:, 0].conj()), np.outer(ub[:, 0], ub[:, 0].conj()))
            + np.kron(np.outer(ua[:, 1], ua[:, 1].conj()), np.outer(ub[:, 1], ub[:, 1].conj()))
        )
        assert np.max(np.abs(out.matrix - expected)) < 1e-12

    def test_product_eigenbasis_fixed_point(self):
        d = DensityOperator(np.diag([0.1, 0.2, 0.3, 0.4]))
        basis = list(np.eye(2, dtype=complex).T)
        out = local_measurement(d, basis_a=basis, basis_b=basis)
        assert np.max(np.abs(out.matrix - d.matrix)) < 1e-13

    def test_singlet_measured_on_b_in_z_basis(self):
        # the measured singlet becomes the equal mixture of |+-> and |-+>
        out = local_measurement(singlet().density(), basis_b=[KETS.z_plus, KETS.z_minus])
        expected = 0.5 * np.diag([0.0, 1.0, 1.0, 0.0]).astype(complex)
        assert np.max(np.abs(out.matrix - expected)) < 1e-13

    def test_double_contraction_form_matches_channel(self):
        # p_mn = A^m : rho : B^n computed at the index level, then
        # sum p_mn R_m x R_n, against the direct R rho R channel.
        rng = np.random.default_rng(73)
        for _ in range(20):
            d = random_density(rng, 4)
            ua = random_unitary(rng, 2)
            ub = random_unitary(rng, 2)
            basis_a = [ua[:, i] for i in range(2)]
            basis_b = [ub[:, i] for i in range(2)]
            rho = d.matrix.reshape(2, 2, 2, 2)  # (m', n', k', l')
            rebuilt = np.zeros((4, 4), dtype=complex)
            for m in range(2):
                a_mat = np.einsum("m,k->mk", basis_a[m].conj(), basis_a[m])  # A^m_{m'k'}
                for n in range(2):
                    b_mat = np.einsum("m,k->mk", basis_b[n].conj(), basis_b[n])
                    p = np.einsum("mk,mnkl,nl->", a_mat, rho, b_mat)
                    assert abs(p.imag) < 1e-12
                    r = np.kron(
                        np.outer(basis_a[m], basis_a[m].conj()),
                        np.outer(basis_b[n], basis_b[n].conj()),
                    )
                    rebuilt += p.real * r
            out = local_measurement(d, basis_a=basis_a, basis_b=basis_b)
            assert np.max(np.abs(out.matrix - rebuilt)) < 1e-11

    def test_trace_and_purity(self):
        rng = np.random.default_rng(74)
        for _ in range(10):
            d = random_density(rng, 4)
            u = random_unitary(rng, 2)
            basis = [u[:, i] for i in range(2)]
            out = local_measurement(d, basis_a=basis)
            assert abs(np.trace(out.matrix) - 1.0) < 1e-12
            assert purity(out) <= purity(d) + 1e-12

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(75)
        d = random_density(rng, 6)
        ua = random_unitary(rng, 2)
        ub = random_unitary(rng, 3)
        probs = measurement_probabilities(d, [ua[:, i] for i in range(2)], [ub[:, i] for i in range(3)])
        assert probs.shape == (2, 3)
        assert np.all(probs >= -1e-12)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_wrong_dimension_factor_basis_rejected(self):
        d = DensityOperator(np.eye(4) / 4)
        qutrit = list(np.eye(3, dtype=complex))
        with pytest.raises(ShapeError):
            measurement_probabilities(d, [KETS.z_plus, KETS.z_minus], qutrit)

    def test_incomplete_basis_rejected(self):
        d = DensityOperator(np.eye(4) / 4)
        with pytest.raises(ValidationError):
            local_measurement(d, basis_a=[KETS.z_plus])


class TestNoSignalling:
    def test_singlet_any_a_basis(self):
        for basis in ([KETS.z_plus, KETS.z_minus], [KETS.x_plus, KETS.x_minus]):
            before, after = no_signalling_check(singlet().density(), basis)
            assert np.max(np.abs(before - np.eye(2) / 2)) < 1e-13
            assert np.max(np.abs(after - np.eye(2) / 2)) < 1e-13

    def test_product_state(self):
        rng = np.random.default_rng(76)
        b_ket = random_ket(rng, 2)
        d = product_state(random_ket(rng, 2), b_ket).density()
        before, after = no_signalling_check(d, [KETS.x_plus, KETS.x_minus])
        assert np.max(np.abs(before - projector(b_ket))) < 1e-12
        assert np.max(np.abs(after - projector(b_ket))) < 1e-12

    def test_random_entangled_trials(self):
        rng = np.random.default_rng(77)
        worst = 0.0
        for _ in range(200):
            d = random_density(rng, 4)
            u = random_unitary(rng, 2)
            before, after = no_signalling_check(d, [u[:, 0], u[:, 1]])
            worst = max(worst, float(np.max(np.abs(before - after))))
        assert worst < 1e-11


class TestIndexConvention:
    def test_round_trip(self):
        rng = np.random.default_rng(78)
        for _ in range(10):
            a = random_ket(rng, 3)
            b = random_ket(rng, 2)
            k = product_state(a, b)
            form = schmidt(k)
            assert np.max(np.abs(form.reconstruct() - k.amplitudes)) < 1e-10

    def test_coefficient_matrix_layout(self):
        k = product_state(KETS.z_minus, KETS.z_plus)  # index 1*2+0 = 2
        assert np.allclose(k.amplitudes, [0, 0, 1, 0])
        c = k.coefficient_matrix()
        assert c[1, 0] == pytest.approx(1.0)
