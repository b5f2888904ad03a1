import cmath
import functools
import math
import tracemalloc

import numpy as np
import pytest

from rholab import (
    DensityOperator,
    DensityStack,
    LindbladGenerator,
    ProperMixture,
    ShapeError,
    ValidationError,
    entropy_production,
    entropy_rate_hamiltonian,
    evolve_chunks,
    evolve_lindblad,
    evolve_unitary,
    expectation,
    gram_factor,
    hermitian_eig,
    jump_entropy_rate,
    lindblad_apply,
    local_measurement,
    measurement_channel,
    measurement_probabilities,
    mixture_to_density,
    no_signalling_check,
    pauli,
    projector,
    purity,
    remix,
    spin_half_basis,
    von_neumann_entropy,
)
from rholab import linalg
from rholab.channels import chunk_length
from rholab.density import ZERO_WEIGHT_TOL, stacked
from rholab.linalg import first_failure
from conftest import (
    count_eigensolves,
    random_density,
    random_density_stack,
    random_hermitian,
    random_ket,
    random_mixture,
    random_unitary,
    traced_peak,
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
    @pytest.mark.parametrize("psd_atol", [math.nan, math.inf, -1e-10, "1e-10", 1j, True],
                             ids=["nan", "inf", "negative", "string", "complex", "bool"])
    def test_psd_floor_is_a_finite_non_negative_real(self, psd_atol):
        # An eigenvalue of -0.5 passes no real floor; nor may a NaN or infinite one let it.
        with pytest.raises(ValidationError, match="psd_atol"):
            DensityOperator(np.diag([1.5, -0.5]), psd_atol)
        with pytest.raises(ValidationError, match="psd_atol"):
            DensityStack(np.diag([1.5, -0.5])[None], psd_atol)
        assert DensityOperator(np.eye(2) / 2, 0).dim == DensityOperator(np.eye(2) / 2, np.float32(1e-3)).dim == 2

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
        states = DensityStack(stack)
        assert len(states) == 5
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
        with pytest.raises(ValidationError):
            DensityStack(stack)
        with pytest.raises(ValidationError) as alone:
            DensityOperator(stack[1])
        index, error = first_failure(DensityOperator, stack)
        assert index == 1
        assert type(error) is type(alone.value) and str(error) == str(alone.value)

    def test_reports_an_invalid_first_matrix_at_index_0(self):
        for first in INVALID.values():
            stack = np.array([first, np.eye(3) / 3.0, INVALID["negative"]], dtype=complex)
            with pytest.raises(ValidationError) as alone:
                DensityOperator(stack[0])
            index, error = first_failure(DensityOperator, stack)
            assert index == 0 and str(error) == str(alone.value)
            assert first_failure(DensityOperator, stack[1:2]) is None

    def test_reads_as_a_sequence_of_density_operators(self):
        rng = np.random.default_rng(30)
        matrices = np.array([random_density(rng, 3).matrix for _ in range(5)])
        stack = DensityStack(matrices)
        alone = [DensityOperator(m) for m in matrices]
        reads = {
            "iteration": (list(stack), alone),
            "index": ([stack[0], stack[3]], [alone[0], alone[3]]),
            "negative index": ([stack[-1], stack[-5]], [alone[-1], alone[-5]]),
            "slice": (list(stack[1:5:2]), alone[1:5:2]),
        }
        assert len(stack) == 5 and stack.dim == 3
        for what, (got, want) in reads.items():
            assert all(type(d) is DensityOperator for d in got), what
            assert len(got) == len(want), what
            for d, a in zip(got, want):
                for attr in ("matrix", "eigenvalues", "eigenvectors"):
                    assert np.array_equal(getattr(d, attr), getattr(a, attr)), (what, attr)
                    assert np.shares_memory(getattr(d, attr), stack.matrices if attr == "matrix"
                                            else getattr(stack, attr)), (what, attr)
        with pytest.raises(IndexError):
            stack[5]
        with pytest.raises(TypeError):
            stack[np.array([0, 1])]  # one state, or a slice; no fancy indexing

    def test_passes_through_stacked_and_slices_are_views(self):
        rng = np.random.default_rng(31)
        stack = DensityStack(np.array([random_density(rng, 2).matrix for _ in range(4)]))
        part = stack[1:3]
        assert isinstance(part, DensityStack) and len(part) == 2
        assert stacked(stack) is stack and stacked(part) is part
        for attr in ("matrices", "eigenvalues", "eigenvectors"):
            whole, view = getattr(stack, attr), getattr(part, attr)
            assert np.shares_memory(view, whole) and not view.flags.writeable
            assert np.array_equal(view, whole[1:3])
        assert purity(part).tolist() == purity(stack).tolist()[1:3]
        with pytest.raises(ShapeError):
            purity(stack[:0])

    def test_is_read_only(self):
        stack = DensityStack(np.array([np.eye(2) / 2.0]))
        with pytest.raises(AttributeError):
            stack.matrices = np.zeros((1, 2, 2))
        with pytest.raises(ValueError):
            stack.eigenvalues[0, 0] = 1.0

    @pytest.mark.parametrize("n", [16, 8, 4, 3, 2])
    def test_full_chunk_peak_memory(self, n):
        # The solve holds the active matrices, their eigenvectors and one rotation; a
        # stack is compacted only at a boundary where some matrix leaves.  Measured 4.1x
        # to 4.3x of the chunk; 6.4x (d = 16) to 8.2x (d = 2) with a compaction at every
        # boundary, a full-size output stack and two rotation buffers per round.
        matrices = random_density_stack(np.random.default_rng(33 + n), n, chunk_length(n))
        assert matrices.nbytes >= 65_000
        assert traced_peak(lambda: DensityStack(matrices)) <= 5.5 * matrices.nbytes

    @staticmethod
    @functools.cache
    def _traced_256_states() -> tuple[int, int, int]:
        """The bytes a DensityStack of 256 random d = 16 states leaves once dropped, its
        construction's tracemalloc peak, and the input's size, after a 16-state solve."""
        rng = np.random.default_rng(34)
        DensityStack(random_density_stack(rng, 16, 16))
        matrices = random_density_stack(rng, 16, 256)
        tracemalloc.start()
        try:
            stack = DensityStack(matrices)
            peak = tracemalloc.get_traced_memory()[1]
            del stack
            return tracemalloc.get_traced_memory()[0], peak, matrices.nbytes
        finally:
            tracemalloc.stop()

    # The solver keeps one matrix's tables per dimension and derives a stack's from them
    # as it runs, so a stack larger than any solved before fills no table and holds no
    # identity per matrix.  Measured here: 0.7 KB kept and a peak of 4.1x the input;
    # 2.28 MB kept and 6.2x while tables for the largest stack were kept per dimension.
    def test_a_dropped_stack_leaves_nothing_behind(self):
        kept, _, _ = self._traced_256_states()
        assert kept < 16_000

    def test_a_large_stack_peaks_near_four_copies(self):
        _, peak, nbytes = self._traced_256_states()
        assert peak <= 4.5 * nbytes

    def test_construction_checks_the_whole_stack(self):
        with pytest.raises(ShapeError, match=r"expected a \(B, n, n\) stack"):
            DensityStack(np.eye(2) / 2.0)
        with pytest.raises(ValidationError, match="density is not positive"):
            DensityStack(np.array([np.eye(3) / 3.0, INVALID["negative"]]))


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

    @pytest.mark.parametrize("weight", [True, "1", 1 + 0j, 1j, math.inf], ids=repr)
    def test_rejects_weights_that_are_not_finite_reals(self, weight):
        with pytest.raises(ValidationError, match="finite real"):
            ProperMixture([(weight, KETS.z_plus)])

    def test_accepts_numpy_weights(self):
        m = ProperMixture([(np.float32(0.5), KETS.z_plus), (np.int64(0), KETS.x_plus), (np.float64(0.5), KETS.z_minus)])
        assert m.weights.tolist() == [0.5, 0.0, 0.5]

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

    @pytest.mark.parametrize("n", [2, 4, 16])
    def test_keeps_the_spectrum_and_solves_only_h(self, n, monkeypatch):
        # The eigenvalues of rho and the eigenvectors U V: one solve, that of H.
        rng = np.random.default_rng(50 + n)
        d, h = random_density(rng, n), random_hermitian(rng, n)
        calls = count_eigensolves(monkeypatch)
        out = evolve_unitary(d, h, 0.7)
        assert calls == [1]
        values, vectors = out.eigenvalues, out.eigenvectors
        assert values.tobytes() == d.eigenvalues.tobytes()
        assert np.max(np.abs(values - np.linalg.eigvalsh(out.matrix))) <= 1e-13
        assert np.max(np.abs(vectors.conj().T @ vectors - np.eye(n))) <= 1e-13
        assert np.max(np.abs((vectors * values) @ vectors.conj().T - out.matrix)) <= 1e-13
        u = linalg.apply_matrix_function(h, lambda lam: cmath.exp(-1j * lam * 0.7))  # as evolve_unitary
        assert out.matrix.tobytes() == DensityOperator(u @ d.matrix @ u.conj().T).matrix.tobytes()
        assert not any(a.flags.writeable for a in (out.matrix, values, vectors))

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_time_before_solving(self, t, monkeypatch):
        def solve(a):
            raise AssertionError("the eigensolver ran before t was checked")

        monkeypatch.setattr(linalg, "hermitian_eig", solve)
        with pytest.raises(ValidationError, match="t must be finite"):
            evolve_unitary(DensityOperator(np.eye(2) / 2.0), pauli("z"), t)

    @pytest.mark.parametrize("t", [1j, "1", True], ids=["complex", "string", "bool"])
    def test_rejects_a_time_that_is_not_a_real_number(self, t):
        with pytest.raises(ValidationError, match="t must be finite and real"):
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


_G = LindbladGenerator(pauli("z"), [pauli("z")])
_I2 = np.eye(2)
# Every public function that takes a state, with its other arguments valid.
STATE_CALLS = {
    "evolve_lindblad": lambda d: evolve_lindblad(_G, d, 1.0, 0.1),
    "evolve_chunks": lambda d: evolve_chunks(_G, d, 1.0, 0.1),
    "lindblad_apply": lambda d: lindblad_apply(_G, d),
    "evolve_unitary": lambda d: evolve_unitary(d, _I2, 1.0),
    "expectation": lambda d: expectation(d, _I2),
    "entropy_rate_hamiltonian": lambda d: entropy_rate_hamiltonian(d, _I2),
    "von_neumann_entropy": von_neumann_entropy,
    "purity": purity,
    "jump_entropy_rate": lambda d: jump_entropy_rate(d, [pauli("z")]),
    "entropy_production": lambda d: entropy_production(d, [pauli("z")]),
    "measurement_channel": lambda d: measurement_channel(d, _I2),
    "local_measurement": lambda d: local_measurement(d, _I2),
    "no_signalling_check": lambda d: no_signalling_check(d, _I2),
    "measurement_probabilities": lambda d: measurement_probabilities(d, _I2, [[1.0]]),
}


@pytest.mark.parametrize("state", [np.eye(2) / 2.0, None], ids=["matrix", "None"])
@pytest.mark.parametrize("call", STATE_CALLS.values(), ids=STATE_CALLS.keys())
def test_a_state_that_is_not_a_density_operator_raises_validation_error(call, state):
    # A matrix is not a state: validate it with DensityOperator (or DensityStack) first.
    with pytest.raises(ValidationError, match=r"^expected a DensityOperator( or a sequence of them)?, got (ndarray|NoneType)$"):
        call(state)
    call(DensityOperator(np.eye(2) / 2.0))


def test_a_sequence_of_states_holds_only_density_operators():
    with pytest.raises(ValidationError, match="^expected a DensityOperator or a sequence of them, got list$"):
        purity([DensityOperator(np.eye(2) / 2.0), np.eye(2) / 2.0])
