import math
import warnings

import numpy as np
import pytest

from rholab import (
    DensityOperator,
    DensityStack,
    LindbladGenerator,
    ShapeError,
    ValidationError,
    apply_matrix_function,
    entropy_production,
    entropy_rate_hamiltonian,
    evolve_lindblad,
    evolve_unitary,
    jump_entropy_rate,
    projector,
    purity,
    von_neumann_entropy,
)
from conftest import count_eigensolves, random_density, random_hermitian, random_complex, random_ket


def _stencil(generator, d0, dt):
    s0, s1, s2 = von_neumann_entropy(evolve_lindblad(generator, d0, 2.0 * dt, dt).states)
    return (-3.0 * s0 + 4.0 * s1 - s2) / (2.0 * dt)


def one_sided_entropy_derivative(generator, d0, dt):
    """dS/dt at t = 0 along the flow: Richardson-extrapolated one-sided
    second-order stencil (leading error O(dt^3))."""
    return (4.0 * _stencil(generator, d0, dt / 2.0) - _stencil(generator, d0, dt)) / 3.0


class TestVonNeumannEntropy:
    def test_pure_state_zero(self):
        rng = np.random.default_rng(100)
        for n in (2, 3, 5):
            d = DensityOperator(projector(random_ket(rng, n)))
            assert von_neumann_entropy(d) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed_qubit(self):
        d = DensityOperator(np.eye(2) / 2.0)
        assert von_neumann_entropy(d) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_additivity(self):
        rng = np.random.default_rng(101)
        for _ in range(10):
            a = random_density(rng, 2)
            b = random_density(rng, 3)
            joint = DensityOperator(np.kron(a.matrix, b.matrix))
            total = von_neumann_entropy(a) + von_neumann_entropy(b)
            assert abs(von_neumann_entropy(joint) - total) < 1e-10

    def test_bounds_over_random_densities(self):
        rng = np.random.default_rng(102)
        for _ in range(1000):
            n = int(rng.integers(2, 7))
            s = von_neumann_entropy(random_density(rng, n))
            assert 0.0 <= s <= math.log(n) + 1e-12

    def test_invariant_under_unitary_evolution(self):
        rng = np.random.default_rng(103)
        for _ in range(10):
            d = random_density(rng, 4)
            h = random_hermitian(rng, 4)
            t = float(rng.uniform(-2.0, 2.0))
            assert abs(von_neumann_entropy(evolve_unitary(d, h, t)) - von_neumann_entropy(d)) < 1e-9

    def test_diagonal_log_consistency(self):
        # the matrix log of a diagonal density is the elementwise log
        p = np.array([0.1, 0.2, 0.3, 0.4])
        d = DensityOperator(np.diag(p))
        log_rho = apply_matrix_function(d.matrix, math.log)
        assert np.max(np.abs(log_rho - np.diag(np.log(p)))) < 1e-12
        assert von_neumann_entropy(d) == pytest.approx(-np.sum(p * np.log(p)), abs=1e-12)


class TestHamiltonianRate:
    def test_vanishes_for_full_rank(self):
        rng = np.random.default_rng(104)
        for _ in range(20):
            d = random_density(rng, 4)
            h = random_hermitian(rng, 4)
            assert abs(entropy_rate_hamiltonian(d, h)) < 1e-9

    def test_zero_hamiltonian(self):
        rng = np.random.default_rng(105)
        d = random_density(rng, 3)
        assert entropy_rate_hamiltonian(d, np.zeros((3, 3))) == 0.0

    def test_finite_difference_along_unitary_flow(self):
        rng = np.random.default_rng(106)
        d = random_density(rng, 3)
        h = random_hermitian(rng, 3)
        dt = 1e-5
        s_plus = von_neumann_entropy(evolve_unitary(d, h, dt))
        s_minus = von_neumann_entropy(evolve_unitary(d, h, -dt))
        assert abs((s_plus - s_minus) / (2.0 * dt)) < 1e-6

    def test_vanishes_without_warning_on_rank_deficient_input(self):
        """log rho is taken on the support alone, so a pure state and a rank-2 d=3
        state give a numerical zero and no RuntimeWarning."""
        rng = np.random.default_rng(107)
        pure = DensityOperator(projector(random_ket(rng, 3)))
        u = np.linalg.qr(random_complex(rng, (3, 3)))[0]
        rank2 = DensityOperator(u @ np.diag([0.7, 0.3, 0.0]) @ u.conj().T)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for d in (pure, rank2):
                assert abs(entropy_rate_hamiltonian(d, random_hermitian(rng, 3))) < 1e-12


class TestEntropyProduction:
    def test_zero_jumps(self):
        rng = np.random.default_rng(108)
        assert entropy_production(random_density(rng, 3), []) == 0.0

    def test_maximally_mixed_stationary(self):
        rng = np.random.default_rng(109)
        d = DensityOperator(np.eye(3) / 3.0)
        jumps = [random_hermitian(rng, 3)]
        assert entropy_production(d, jumps) == pytest.approx(0.0, abs=1e-12)

    def test_non_negative_over_random_sets(self):
        rng = np.random.default_rng(110)
        for _ in range(500):
            n = int(rng.integers(2, 5))
            d = random_density(rng, n)
            jumps = [random_hermitian(rng, n) for _ in range(int(rng.integers(1, 4)))]
            assert entropy_production(d, jumps) >= -1e-12

    def test_matches_integrator_finite_difference(self):
        rng = np.random.default_rng(111)
        for _ in range(5):
            d = random_density(rng, 3)
            jump = random_hermitian(rng, 3)
            generator = LindbladGenerator(np.zeros((3, 3)), [jump])
            production = entropy_production(d, [jump])
            fd = one_sided_entropy_derivative(generator, d, 1e-4)
            assert abs(production - fd) < 1e-5

    def test_rejects_non_finite_jump(self):
        with pytest.raises(ValidationError, match="finite"):
            jump_entropy_rate(DensityOperator(np.eye(2) / 2.0), [np.full((2, 2), np.nan)])

    def test_rejects_non_hermitian_jump(self):
        rng = np.random.default_rng(112)
        with pytest.raises(ValidationError):
            entropy_production(random_density(rng, 3), [random_complex(rng, (3, 3))])

    def test_degenerate_spectrum_with_jitter(self):
        # degenerate p-blocks are outside the asserted regime; a documented
        # 1e-10 jitter restores a simple spectrum
        rng = np.random.default_rng(113)
        base = np.diag([0.5, 0.5, 0.0])
        jitter = random_hermitian(rng, 3) * 1e-10
        jitter -= np.eye(3) * np.trace(jitter) / 3.0
        d = DensityOperator(base + jitter, psd_atol=1e-9)
        jumps = [random_hermitian(rng, 3)]
        with pytest.warns(RuntimeWarning):
            value = entropy_production(d, jumps)
        assert value >= -1e-12


class TestJumpEntropyRate:
    def test_reduces_to_production_for_hermitian(self):
        rng = np.random.default_rng(114)
        for _ in range(10):
            d = random_density(rng, 3)
            jumps = [random_hermitian(rng, 3) for _ in range(2)]
            assert jump_entropy_rate(d, jumps) == pytest.approx(
                entropy_production(d, jumps), abs=1e-10
            )

    def test_matches_integrator_for_general_jumps(self):
        rng = np.random.default_rng(115)
        for _ in range(5):
            d = random_density(rng, 3)
            jump = random_complex(rng, (3, 3))
            generator = LindbladGenerator(np.zeros((3, 3)), [jump])
            rate = jump_entropy_rate(d, [jump])
            fd = one_sided_entropy_derivative(generator, d, 3e-5)
            assert abs(rate - fd) < 1e-5


def _mixed_ranks(rng, n):
    """Full-rank states with a pure one and a rank-2 one among them."""
    states = [random_density(rng, n) for _ in range(5)]
    states.insert(1, DensityOperator(projector(random_ket(rng, n))))
    ket_a, ket_b = random_ket(rng, n), random_ket(rng, n)
    states.insert(4, DensityOperator(0.3 * projector(ket_a) + 0.7 * projector(ket_b)))
    return states


class TestSequenceForm:
    """A sequence of states runs the one stacked kernel: each state's value is
    the value of the one-state call, bit for bit."""

    @pytest.mark.parametrize("n", [2, 4, 16])
    def test_equals_the_one_state_calls(self, n):
        rng = np.random.default_rng(117 + n)
        states = _mixed_ranks(rng, n)
        general = [random_complex(rng, (n, n)) for _ in range(3)]
        hermitian = [random_hermitian(rng, n) for _ in range(2)]
        calls = {
            "purity": purity,
            "von_neumann_entropy": von_neumann_entropy,
            "jump_entropy_rate": lambda d: jump_entropy_rate(d, general),
            "entropy_production": lambda d: entropy_production(d, hermitian),
        }
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the pure and rank-2 states
            for name, call in calls.items():
                values = call(states)
                singles = [call(d) for d in states]
                assert isinstance(values, np.ndarray) and values.shape == (len(states),), name
                assert all(type(x) is float for x in singles), name
                assert values.tolist() == singles, name

    @pytest.mark.parametrize("n", [2, 4, 16])
    def test_a_density_stack_equals_the_list_of_its_states(self, n):
        rng = np.random.default_rng(121 + n)
        stack = DensityStack(np.array([d.matrix for d in _mixed_ranks(rng, n)]))
        general = [random_complex(rng, (n, n)) for _ in range(3)]
        hermitian = [random_hermitian(rng, n) for _ in range(2)]
        calls = {
            "purity": purity,
            "von_neumann_entropy": von_neumann_entropy,
            "jump_entropy_rate": lambda d: jump_entropy_rate(d, general),
            "entropy_production": lambda d: entropy_production(d, hermitian),
        }
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the pure and rank-2 states
            for name, call in calls.items():
                values = call(stack)
                assert isinstance(values, np.ndarray) and values.shape == (len(stack),), name
                assert values.tolist() == call(list(stack)).tolist() == [call(d) for d in stack], name

    def test_mixed_ranks_warn_once_with_the_one_state_message(self):
        rng = np.random.default_rng(118)
        states = _mixed_ranks(rng, 3)
        jumps = [random_complex(rng, (3, 3))]
        message = (
            r"^density is rank-deficient; eigenvalues floored at 1e-14 before log "
            r"\(result is regularized\)$"
        )
        with pytest.warns(RuntimeWarning, match=message) as caught:
            jump_entropy_rate(states, jumps)
        assert len(caught) == 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the full-rank states alone do not warn
            jump_entropy_rate([states[0], states[2]], jumps)

    def test_empty_jump_set_gives_exactly_zero(self):
        rng = np.random.default_rng(119)
        states = [random_density(rng, 3) for _ in range(4)]
        no_jumps = LindbladGenerator(random_hermitian(rng, 3)).jump_ops
        assert no_jumps.shape == (0, 3, 3)
        for jumps in ([], (), no_jumps):
            assert jump_entropy_rate(states[0], jumps) == 0.0
            assert entropy_production(states[0], jumps) == 0.0
            assert jump_entropy_rate(states, jumps).tolist() == [0.0] * 4

    def test_rejects_an_empty_or_mixed_sequence(self):
        rng = np.random.default_rng(120)
        with pytest.raises(ShapeError):
            purity([])
        with pytest.raises(ShapeError):
            von_neumann_entropy([random_density(rng, 2), random_density(rng, 3)])


def test_rates_reuse_the_validated_spectrum(monkeypatch):
    """The entropy rates read the spectrum each DensityOperator solved at
    construction and never call the eigensolver again."""
    rng = np.random.default_rng(116)
    d = random_density(rng, 4)
    h = random_hermitian(rng, 4)
    hermitian_jumps = [random_hermitian(rng, 4)]
    general_jumps = [random_complex(rng, (4, 4))]

    calls = count_eigensolves(monkeypatch)
    entropy_rate_hamiltonian(d, h)
    entropy_production(d, hermitian_jumps)
    jump_entropy_rate(d, general_jumps)
    assert calls == []
    random_density(rng, 2)  # the patch does reach the eigensolver
    assert calls == [1]
