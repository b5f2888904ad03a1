import copy
import dataclasses
import math
import operator
import pickle
import tracemalloc

import numpy as np
import pytest

import rholab
from rholab import (
    BipartiteKet,
    BipartiteSpace,
    DetectorPair,
    DensityOperator,
    DensityStack,
    DomainError,
    GramFactor,
    KrausChannel,
    LindbladGenerator,
    ProperMixture,
    SchmidtForm,
    ShapeError,
    Superoperator,
    UnitVector3,
    ValidationError,
    X_AXIS,
    Z_AXIS,
    adjoint,
    apply_matrix_function,
    dyad,
    eigenmatrix_decompose,
    entropy_production,
    entropy_rate_hamiltonian,
    evolve_lindblad,
    evolve_unitary,
    expectation,
    filter_inequality_demo,
    ghz_check,
    gram_factor,
    hermitian_eig,
    jump_entropy_rate,
    kraus_from_decomposition,
    kron,
    lindblad_apply,
    matmul,
    no_cloning_demo,
    overlap_residue,
    partial_trace_a,
    partial_trace_b,
    pauli,
    product_state,
    projector,
    remix,
    schmidt,
    sigma_n,
    simultaneous_eigenbasis,
    singlet,
    spin_half_basis,
    spin_one_set,
    superop_from_kraus,
    trace,
)
from rholab import channels, linalg
from rholab.cli import Scenario
from conftest import count_sweeps, random_hermitian, random_complex, random_ket, random_unit_vector, random_unitary


# Entries whose squared modulus overflows: |BIG|^2 = 2e400.
BIG = 1e200 * (1 + 1j)


def _eig_cases() -> dict[str, np.ndarray]:
    """Random Hermitian matrices and degenerate or clustered spectra."""
    rng = np.random.default_rng(21)
    cases = {f"random-{n}": random_hermitian(rng, n) for n in (*range(2, 17), 24, 32)}
    spin = spin_one_set()
    ghz = np.zeros(8)
    ghz[[0, 7]] = 1.0 / math.sqrt(2.0)
    clustered = np.linspace(0.0, 1.0, 16)
    clustered[1] = clustered[0] + 1e-9
    clustered[3] = clustered[2] + 1e-12
    u = random_unitary(rng, 16)
    cases.update({
        "identity-16": np.eye(16),
        "spin-one-sx": spin.sx,
        "spin-one-sx2": spin.sx2,
        "xxx": kron(kron(pauli("x"), pauli("x")), pauli("x")),
        "ghz-projector-x-I2": kron(np.outer(ghz, ghz), np.eye(2)),
        "rank-one-16": projector(random_ket(rng, 16)),
        "clustered-16": (u * clustered) @ u.conj().T,
        # Its squared off-diagonal norm overflows; the matrix does not.
        "random-8-times-1e200": 1e200 * random_hermitian(rng, 8),
    })
    return cases


EIG_CASES = _eig_cases()


def hand_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Independent O(n^3) triple-loop product used as the oracle."""
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m), dtype=complex)
    for i in range(n):
        for j in range(m):
            for p in range(k):
                out[i, j] += a[i, p] * b[p, j]
    return out


class TestMatmul:
    def test_identity(self):
        assert np.array_equal(matmul(np.eye(2), pauli("x")), pauli("x"))

    def test_pauli_squares_to_identity(self):
        expected = hand_product(pauli("x"), pauli("x"))
        assert np.allclose(expected, np.eye(2))
        assert np.allclose(matmul(pauli("x"), pauli("x")), expected)

    def test_xy_gives_i_z(self):
        expected = hand_product(pauli("x"), pauli("y"))
        assert np.allclose(expected, 1j * pauli("z"))
        assert np.allclose(matmul(pauli("x"), pauli("y")), expected)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            matmul(np.eye(2), np.eye(3))

    def test_random_vs_hand_product(self):
        rng = np.random.default_rng(10)
        a = random_complex(rng, (3, 4))
        b = random_complex(rng, (4, 2))
        assert np.allclose(matmul(a, b), hand_product(a, b), atol=1e-13)


class TestAdjoint:
    def test_dyad_adjoint_swaps_states(self):
        kets = spin_half_basis()
        d = dyad(kets.z_plus, kets.z_minus)  # |1><0|
        assert np.allclose(adjoint(d), dyad(kets.z_minus, kets.z_plus))

    def test_hermitian_fixed_point(self):
        assert np.array_equal(adjoint(pauli("y")), pauli("y"))

    def test_real_transpose(self):
        assert np.array_equal(adjoint([[0, 1], [0, 0]]), np.array([[0, 0], [1, 0]]))

    def test_involution(self):
        rng = np.random.default_rng(11)
        a = random_complex(rng, (3, 5))
        assert np.allclose(adjoint(adjoint(a)), a)

    def test_reversed_product(self):
        rng = np.random.default_rng(12)
        a = random_complex(rng, (3, 3))
        b = random_complex(rng, (3, 3))
        assert np.allclose(adjoint(a @ b), adjoint(b) @ adjoint(a))


class TestTrace:
    def test_projector_trace_is_one(self):
        rng = np.random.default_rng(13)
        for n in (2, 3, 5):
            assert trace(projector(random_ket(rng, n))) == pytest.approx(1.0, abs=1e-13)

    def test_identity(self):
        assert trace(np.eye(7)) == pytest.approx(7.0)

    def test_xy_traceless(self):
        prod = hand_product(pauli("x"), pauli("y"))
        assert sum(prod[i, i] for i in range(2)) == 0
        assert trace(matmul(pauli("x"), pauli("y"))) == 0

    def test_non_square(self):
        with pytest.raises(ShapeError):
            trace(np.ones((2, 3)))

    def test_cyclic_invariance(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            a, b, c = (random_complex(rng, (4, 4)) for _ in range(3))
            t1 = trace(a @ b @ c)
            assert abs(t1 - trace(b @ c @ a)) < 1e-12
            assert abs(t1 - trace(c @ a @ b)) < 1e-12

    def test_hermitian_reversal_conjugates(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            a, b, c = (random_hermitian(rng, 4) for _ in range(3))
            assert abs(trace(a @ b @ c) - np.conj(trace(c @ b @ a))) < 1e-12

    def test_similarity_invariance(self):
        rng = np.random.default_rng(16)
        a = random_complex(rng, (4, 4))
        s = random_complex(rng, (4, 4)) + 4 * np.eye(4)
        assert abs(trace(np.linalg.inv(s) @ a @ s) - trace(a)) < 1e-11


class TestKron:
    def test_plus_minus_column(self):
        kets = spin_half_basis()
        col = kron(kets.z_plus.reshape(2, 1), kets.z_minus.reshape(2, 1))
        assert np.allclose(col.reshape(-1), [0, 1, 0, 0])

    def test_identity_blocks(self):
        assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_trace_multiplicative(self):
        rng = np.random.default_rng(17)
        x = random_complex(rng, (3, 3))
        rho = x @ x.conj().T
        rho /= np.trace(rho)
        assert abs(trace(kron(pauli("z"), rho))) < 1e-13
        a = random_complex(rng, (2, 2))
        assert abs(trace(kron(a, rho)) - trace(a) * trace(rho)) < 1e-12

    def test_block_layout(self):
        a = np.array([[1, 2], [3, 4]])
        b = np.array([[0, 1], [1, 0]])
        out = kron(a, b)
        assert np.array_equal(out[:2, :2], 1 * b)
        assert np.array_equal(out[:2, 2:], 2 * b)


class TestHermitianEig:
    def test_sigma_z(self):
        eig = hermitian_eig(pauli("z"))
        assert np.allclose(eig.eigenvalues, [-1.0, 1.0])
        # ascending order puts |z-> first
        assert abs(abs(eig.eigenvectors[1, 0]) - 1.0) < 1e-14
        assert abs(abs(eig.eigenvectors[0, 1]) - 1.0) < 1e-14

    def test_sigma_n_spectrum(self):
        rng = np.random.default_rng(18)
        for _ in range(10):
            eig = hermitian_eig(sigma_n(random_unit_vector(rng)))
            assert np.allclose(eig.eigenvalues, [-1.0, 1.0], atol=1e-13)

    def test_spin_one_squared_spectrum(self):
        eig = hermitian_eig(spin_one_set().sx2)
        assert np.allclose(eig.eigenvalues, [0.0, 1.0, 1.0], atol=1e-13)

    def test_reconstruction(self):
        for name, a in EIG_CASES.items():
            scale = max(1.0, np.linalg.norm(a, 2))
            assert np.max(np.abs(hermitian_eig(a).reconstruct() - a)) < 1e-12 * scale, name

    def test_orthonormal_eigenvectors(self):
        for name, a in EIG_CASES.items():
            v = hermitian_eig(a).eigenvectors
            assert np.max(np.abs(v.conj().T @ v - np.eye(v.shape[0]))) < 1e-12, name

    def test_matches_lapack(self):
        for name, a in EIG_CASES.items():
            scale = max(1.0, np.linalg.norm(a, 2))
            err = np.max(np.abs(hermitian_eig(a).eigenvalues - np.linalg.eigvalsh(a)))
            assert err < 1e-13 * scale, name

    def test_converges_within_ten_sweeps(self, monkeypatch):
        monkeypatch.setattr(linalg, "_MAX_SWEEPS", 10)
        for a in EIG_CASES.values():
            hermitian_eig(a)

    def test_one_sweep_does_not_converge(self, monkeypatch):
        monkeypatch.setattr(linalg, "_MAX_SWEEPS", 1)
        with pytest.raises(ArithmeticError, match="failed to converge"):
            hermitian_eig(random_hermitian(np.random.default_rng(26), 8))

    @pytest.mark.parametrize("n", range(2, 18))
    def test_round_robin_covers_every_pair_once(self, n):
        rounds, upper, _ = linalg._round_robin(n)
        assert len(rounds) == n - 1 + n % 2
        seen = []
        for idx in rounds:
            p, q = np.divmod(idx[1], n)
            assert np.all(p < q)
            assert np.unique(np.concatenate([p, q])).size == 2 * p.size  # disjoint
            assert np.array_equal(idx, [p * n + p, p * n + q, q * n + p, q * n + q])
            seen += zip(p.tolist(), q.tolist())
        assert sorted(seen) == [(p, q) for p in range(n) for q in range(p + 1, n)]
        assert np.array_equal(upper, sorted(p * n + q for p, q in seen))

    @pytest.mark.parametrize("a", [[[1e308, 1e308], [1e308, -1e308]], [[1.5e308]]],
                             ids=["2x2", "1x1"])
    def test_overflow_raises_one_arithmetic_error(self, a, monkeypatch):
        # Raised before a second sweep, with no RuntimeWarning (tier-1 makes
        # warnings errors) and never as a non-finite spectrum.
        monkeypatch.setattr(linalg, "_MAX_SWEEPS", 1)
        with pytest.raises(ArithmeticError, match="overflowed"):
            hermitian_eig(a)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_eigen_relation(self):
        rng = np.random.default_rng(25)
        for n in (2, 5, 8):
            a = random_hermitian(rng, n)
            eig = hermitian_eig(a)
            for k in range(n):
                v = eig.eigenvectors[:, k]
                residual = np.max(np.abs(a @ v - eig.eigenvalues[k] * v))
                assert residual < 1e-12


class TestStacks:
    """hermitian_eig and the shape checks on a (B, n, n) stack of matrices."""

    @staticmethod
    def _eig_stacks() -> dict[int, list[np.ndarray]]:
        """EIG_CASES grouped by dimension; d = 16 holds identity-16 (no sweep)
        together with clustered-16."""
        stacks: dict[int, list[np.ndarray]] = {}
        for a in EIG_CASES.values():
            stacks.setdefault(len(a), []).append(np.asarray(a, dtype=complex))
        return stacks

    @staticmethod
    def _staggered() -> list[np.ndarray]:
        """Five d = 16 matrices that leave a stack at sweeps 7, 1, 7, 7 and 3: a random
        Hermitian matrix, a pure product state, a rank-3 one, a random density matrix
        and a perturbed diagonal one."""
        rng = np.random.default_rng(32)
        ket = np.array([1.0])
        for _ in range(4):
            ket = np.kron(ket, [math.cos(math.pi / 6), np.exp(1j * math.pi / 4) * math.sin(math.pi / 6)])
        low = random_complex(rng, (16, 3))
        full = random_complex(rng, (16, 16))
        return [random_hermitian(rng, 16), np.outer(ket, ket.conj()), low @ low.conj().T, full @ full.conj().T,
                np.diag(np.arange(16.0)) + 1e-3 * random_hermitian(rng, 16)]

    def test_stack_matches_one_at_a_time_bitwise(self, monkeypatch):
        # The staggered stack's matrices leave out of order at sweep boundaries 1, 3 and
        # 7, and none leaves at 2, 4, 5 or 6.
        sweeps = count_sweeps(monkeypatch)
        for n, mats in [*self._eig_stacks().items(), (16, self._staggered())]:
            sweeps.clear()
            eig = hermitian_eig(np.array(mats))
            stack_sweeps = sweeps[:]
            assert eig.eigenvalues.shape == (len(mats), n)
            for k, a in enumerate(mats):
                alone = hermitian_eig(a)
                assert np.array_equal(eig.eigenvalues[k], alone.eigenvalues), (n, k)
                assert np.array_equal(eig.eigenvectors[k], alone.eigenvectors), (n, k)
        assert stack_sweeps == [5, 4, 4, 3, 3, 3, 3]
        assert sweeps[len(stack_sweeps):] == [1] * (7 + 1 + 7 + 7 + 3)  # one at a time

    def test_results_are_read_only_and_owned(self):
        rng = np.random.default_rng(28)
        for a in (random_hermitian(rng, 3), np.array([random_hermitian(rng, 3) for _ in range(4)])):
            eig = hermitian_eig(a)
            for v in (eig.eigenvalues, eig.eigenvectors):
                assert not v.flags.writeable and v.flags.owndata

    def test_reconstruction(self):
        rng = np.random.default_rng(29)
        stack = np.array([random_hermitian(rng, 5) for _ in range(6)])
        assert np.max(np.abs(hermitian_eig(stack).reconstruct() - stack)) < 1e-12

    def test_converges_within_ten_sweeps(self, monkeypatch):
        monkeypatch.setattr(linalg, "_MAX_SWEEPS", 10)
        for mats in self._eig_stacks().values():
            hermitian_eig(np.array(mats))

    def test_one_unconverged_matrix_fails_the_stack(self, monkeypatch):
        monkeypatch.setattr(linalg, "_MAX_SWEEPS", 1)
        stack = np.array([np.eye(8), random_hermitian(np.random.default_rng(26), 8), np.eye(8)])
        with pytest.raises(ArithmeticError, match="failed to converge"):
            hermitian_eig(stack)

    @pytest.mark.parametrize("a", [[[1e308, 1e308], [1e308, -1e308]], [[1.5e308]]], ids=["2x2", "1x1"])
    def test_one_overflowing_matrix_fails_the_stack(self, a, monkeypatch):
        monkeypatch.setattr(linalg, "_MAX_SWEEPS", 1)
        benign = np.eye(len(a)) / len(a)
        with pytest.raises(ArithmeticError, match="overflowed"):
            hermitian_eig(np.array([benign, a, benign]))

    def test_one_non_hermitian_matrix_fails_the_stack(self):
        stack = np.array([np.eye(2), [[0.0, 1.0], [0.0, 0.0]], np.eye(2)])
        with pytest.raises(ValidationError, match="matrix is not Hermitian"):
            hermitian_eig(stack)
        with pytest.raises(ValidationError, match="matrix is not Hermitian"):
            linalg.require_hermitian(stack, stack=True)

    def test_shape_checks_take_a_stack_only_when_asked(self):
        stack = np.zeros((3, 2, 2))
        assert linalg.as_square(stack, 2, stack=True).shape == (3, 2, 2)
        assert linalg.require_hermitian(stack, 2, stack=True).shape == (3, 2, 2)
        assert linalg.as_square(np.eye(2), 2, stack=True).shape == (2, 2)
        with pytest.raises(ShapeError, match="expected a 2-D matrix, got ndim=3"):
            linalg.as_square(stack)
        with pytest.raises(ShapeError, match=r"expected a 3x3 matrix, got shape \(3, 2, 2\)"):
            linalg.as_square(stack, 3, stack=True)
        with pytest.raises(ShapeError, match=r"got shape \(3, 2, 3\)"):
            linalg.as_square(np.zeros((3, 2, 3)), stack=True)
        with pytest.raises(ShapeError, match="got ndim=4"):
            hermitian_eig(np.zeros((1, 3, 2, 2)))
        with pytest.raises(ShapeError, match=r"non-empty square matrix, got shape \(0, 2, 2\)"):
            hermitian_eig(np.zeros((0, 2, 2)))
        with pytest.raises(ValidationError, match="must be finite"):
            hermitian_eig(np.array([np.eye(2), [[np.nan, 0.0], [0.0, 1.0]]]))


class TestEntryValidation:
    @pytest.mark.parametrize(
        "consume",
        [linalg.require_hermitian, hermitian_eig, lambda m: apply_matrix_function(m, abs), DensityOperator],
        ids=["require_hermitian", "hermitian_eig", "apply_matrix_function", "DensityOperator"],
    )
    def test_rejects_empty_matrix(self, consume):
        with pytest.raises(ShapeError):
            consume(np.zeros((0, 0)))

    def test_rejects_non_finite_entries(self):
        bad = np.array([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(ValidationError):
            matmul(bad, np.eye(2))
        with pytest.raises(ValidationError):
            trace(np.array([[np.inf, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize(
        "entries",
        [[[0.0, 1e308], [-1e308, 0.0]], [[0.0, 1e308 + 1e308j], [-1e308 + 1e308j, 0.0]]],
        ids=["real", "complex"],
    )
    def test_overflowing_deviation_is_non_hermitian(self, entries):
        # A - A^dag overflows to inf: a ValidationError, and no RuntimeWarning
        # (which tier-1's filterwarnings = error would raise instead).
        with pytest.raises(ValidationError, match="not Hermitian"):
            linalg.require_hermitian(np.array(entries))

    @pytest.mark.parametrize(
        "check",
        [
            lambda: linalg.require_basis([[BIG, BIG], [BIG, -BIG]], 2),
            lambda: linalg.require_unit_ket([BIG, 1.0]),
            lambda: DensityOperator(np.diag([1e308, 1e308, -1e308, -1e308, 1.0])),
            lambda: DensityOperator(np.diag([1e308, -1e308, 1.0])),
            lambda: LindbladGenerator(np.zeros((2, 2)), [1e200 * np.eye(2)]),
            lambda: entropy_production(DensityOperator(np.diag([0.3, 0.7])), [1e200 * pauli("x")]),
            lambda: jump_entropy_rate(DensityOperator(np.diag([0.3, 0.7])), [1e200 * pauli("x")]),
            # |L_mn|^2 = 9e306 is finite, its product with log p_n - log p_m is not.
            lambda: entropy_production(DensityOperator(np.diag([1e-12, 1 - 1e-12])), [3e153 * pauli("x")]),
            lambda: jump_entropy_rate(DensityOperator(np.diag([1e-12, 1 - 1e-12])), [3e153 * pauli("x")]),
            lambda: overlap_residue(
                1e200, product_state([1, 0], [1, 0]), 1.0, product_state([0, 1], [0, 1])
            ),
            lambda a=1e300 * np.array([[1.0, 2.0], [3.0, 4.0]]): kron(a, a),
        ],
        ids=[
            "require_basis",
            "require_unit_ket",
            "DensityOperator-trace",
            "DensityOperator-spectrum",
            "LindbladGenerator-effective_hamiltonian",
            "entropy_production",
            "jump_entropy_rate",
            "entropy_production-rate",
            "jump_entropy_rate-rate",
            "overlap_residue",
            "kron",
        ],
    )
    def test_overflow_raises_validation_error(self, check):
        # A check's products (or the hermitized matrix) overflow to inf or NaN: a
        # ValidationError, and no RuntimeWarning (which filterwarnings = error
        # would raise instead).
        with pytest.raises(ValidationError):
            check()

    def test_rejects_wrong_rank(self):
        with pytest.raises(ShapeError):
            adjoint(np.zeros(3))

    @pytest.mark.parametrize(
        "matrix, ket",
        [([[1, 0], [0]], [[1], [0, 1]]), ([["x", 0], [0, 1]], ["x", 1]), ([[None, 0], [0, 1]], [None, 1])],
        ids=["ragged", "non-numeric", "None"],
    )
    @pytest.mark.parametrize(
        "consume",
        [
            lambda m, k: DensityOperator(m),
            lambda m, k: hermitian_eig(m),
            lambda m, k: kron(np.eye(2), m),
            lambda m, k: dyad(k, [1, 0]),
            lambda m, k: KrausChannel([np.eye(2), m]),
            lambda m, k: LindbladGenerator(np.zeros((2, 2)), [m]),
            lambda m, k: BipartiteKet(BipartiteSpace(1, 2), k),
            lambda m, k: ProperMixture([(1.0, k)]),
        ],
        ids=["DensityOperator", "hermitian_eig", "kron", "dyad", "KrausChannel", "LindbladGenerator",
             "BipartiteKet", "ProperMixture"],
    )
    def test_entries_not_readable_as_complex(self, consume, matrix, ket):
        # as_matrix and as_ket, where every matrix and ket is coerced, raise
        # ValidationError, not numpy's bare ValueError or TypeError.
        with pytest.raises(ValidationError):
            consume(matrix, ket)


def _dimension_mismatches():
    """Every public call that pairs a state with an operator, one of them 2 x 2
    and the other 3 x 3."""
    d2, eye3 = DensityOperator(np.eye(2) / 2.0), np.eye(3)
    d3, g2 = DensityOperator(eye3 / 3.0), LindbladGenerator(np.eye(2))
    identity = KrausChannel([np.eye(2)])
    factor = gram_factor(ProperMixture([(0.5, [1, 0]), (0.5, [0, 1])]), np.eye(2))
    space = BipartiteSpace(2, 1)
    return {
        "expectation": lambda: expectation(d2, eye3),
        "evolve_unitary": lambda: evolve_unitary(d2, eye3, 1.0),
        "entropy_rate_hamiltonian": lambda: entropy_rate_hamiltonian(d2, eye3),
        "entropy_production": lambda: entropy_production(d2, [eye3]),
        "jump_entropy_rate": lambda: jump_entropy_rate(d2, [eye3]),
        "lindblad_apply": lambda: lindblad_apply(g2, d3),
        "evolve_lindblad": lambda: evolve_lindblad(g2, d3, 1.0, 0.5),
        "LindbladGenerator": lambda: LindbladGenerator(np.eye(2), [eye3]),
        "KrausChannel": lambda: KrausChannel([np.eye(2), eye3]),
        "KrausChannel.apply": lambda: identity.apply(eye3 / 3.0),
        "Superoperator.apply": lambda: superop_from_kraus(identity).apply(eye3 / 3.0),
        "EigenmatrixDecomposition.apply": lambda: eigenmatrix_decompose(
            superop_from_kraus(identity)
        ).apply(eye3 / 3.0),
        "partial_trace_a": lambda: partial_trace_a(eye3, space),
        "partial_trace_b": lambda: partial_trace_b(eye3, space),
        "remix": lambda: remix(factor, eye3),
    }


class TestDimensionAgreement:
    @pytest.mark.parametrize("name", list(_dimension_mismatches()))
    def test_mismatch_raises_shape_error(self, name):
        with pytest.raises(ShapeError, match=r"expected a 2x2 matrix, got shape \(3, 3\)"):
            _dimension_mismatches()[name]()

    @pytest.mark.parametrize(
        "build",
        [
            lambda: SchmidtForm([1.0, 0.5], [[1, 0]], [[0, 1], [1, 0]]),  # one a-ket, two terms
            lambda: GramFactor(np.ones((2, 3)), np.eye(2)),  # three coefficients per row, n = 2
            lambda: GramFactor(np.ones((2, 2)), np.ones((2, 3))),  # a basis that is not square
        ],
        ids=["schmidt-rows", "gram-columns", "gram-basis"],
    )
    def test_inconsistent_array_shapes_rejected_at_construction(self, build):
        with pytest.raises(ShapeError):
            build()


def _built_from_caller_arrays():
    """Every value object that stores arrays, built from writable caller
    arrays: name -> (the caller's arrays, a build returning the object and the
    names of its array attributes)."""
    rho = np.diag([0.25, 0.75]).astype(complex)
    stack = np.array([rho, np.eye(2) / 2.0])
    amps = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / math.sqrt(2.0)
    tensor = np.eye(4, dtype=complex).reshape(2, 2, 2, 2)
    k0, k1 = np.array([1.0, 0.0], dtype=complex), np.array([0.0, 1.0], dtype=complex)
    kraus = np.eye(2, dtype=complex)
    h, jump = pauli("x"), np.array([[0, 1], [0, 0]], dtype=complex)
    values, matrices = np.array([2.0, 0.0, 0.0, 0.0]), np.eye(4, dtype=complex).reshape(4, 2, 2)
    coefficients = np.full(2, math.sqrt(0.5))
    coeff, basis = np.diag(coefficients).astype(complex), np.eye(2, dtype=complex)
    return {
        "DensityOperator": (
            [rho],
            lambda: (DensityOperator(rho), ("matrix", "eigenvalues", "eigenvectors")),
        ),
        "DensityStack": (
            [stack],
            lambda: (DensityStack(stack), ("matrices", "eigenvalues", "eigenvectors")),
        ),
        "BipartiteKet": ([amps], lambda: (BipartiteKet(BipartiteSpace(2, 2), amps), ("amplitudes",))),
        "Superoperator": ([tensor], lambda: (Superoperator(2, tensor), ("tensor",))),
        "ProperMixture": (
            [k0, k1],
            lambda: (ProperMixture([(0.5, k0), (0.5, k1)]), ("weights", "kets")),
        ),
        "SchmidtForm": (
            [coefficients, k0, k1],
            lambda: (SchmidtForm(coefficients, [k0, k1], [k1, k0]), ("coefficients", "a_kets", "b_kets")),
        ),
        "GramFactor": (
            [coeff, basis],
            lambda: (GramFactor(coeff, basis), ("coeff", "basis")),
        ),
        "KrausChannel": ([kraus], lambda: (KrausChannel([kraus]), ("kraus_ops",))),
        "EigenmatrixDecomposition": (
            [values, matrices],
            lambda: (
                channels.EigenmatrixDecomposition(2, values, matrices),
                ("eigenvalues", "eigenmatrices"),
            ),
        ),
        "LindbladGenerator": (
            [h, jump],
            lambda: (LindbladGenerator(h, [jump]), ("hamiltonian", "jump_ops", "effective_hamiltonian")),
        ),
    }


class TestOwnership:
    @pytest.mark.parametrize("name", list(_built_from_caller_arrays()))
    def test_mutating_caller_arrays_changes_nothing(self, name):
        caller, build = _built_from_caller_arrays()[name]
        value, attrs = build()
        stored = [getattr(value, attr) for attr in attrs]
        before = [a.copy() for a in stored]
        for a in caller:
            a[...] = 7.0
        for a, b in zip(stored, before):
            assert not a.flags.writeable
            assert np.array_equal(a, b)

    def test_constants_are_read_only(self):
        spin_one = spin_one_set()
        rounds, upper, identity = linalg._round_robin(4)
        arrays = [
            *spin_half_basis().axis_pair("y"),
            spin_one.sx,
            spin_one.sz2,
            spin_one.projectors,
            *simultaneous_eigenbasis(),
            *rounds,
            upper,
            identity,
        ]
        assert not any(a.flags.writeable for a in arrays)


    def test_stores_what_it_builds_without_a_copy(self, monkeypatch):
        # Arrays rholab builds are marked read-only where they are built, so
        # storing them through frozen, the one store path of a value object,
        # keeps the built array itself.
        stored = []
        frozen = linalg.frozen

        def spy(a):
            stored.append((a, frozen(a)))
            return stored[-1][1]

        mixture, ket = ProperMixture([(0.5, [1, 0]), (0.5, [0, 1])]), singlet()
        rho, h, jump, k0, k1 = (np.array(a, dtype=complex) for a in (
            np.diag([0.25, 0.75]), pauli("x"), [[0, 1], [0, 0]], np.diag([1.0, 0.6]), [[0, 0.8], [0, 0]]
        ))
        for a in (rho, h, jump, k0, k1):
            a.setflags(write=False)

        def build():
            DensityOperator(rho)
            DensityStack(np.array([rho, rho]))
            LindbladGenerator(h, [jump])
            kraus_from_decomposition(eigenmatrix_decompose(superop_from_kraus(KrausChannel([k0, k1]))))
            gram_factor(mixture, np.eye(2))
            schmidt(ket)

        build()  # fills the eigensolver's cached tables, which are frozen once
        monkeypatch.setattr(linalg, "frozen", spy)
        build()
        # 3 arrays of the density operator, 3 of the density stack, 3 of the generator, the
        # caller's Kraus set as one stack, the superoperator's tensor, its sorted eigenvalues
        # and eigenmatrix stack, the stack of Kraus operators built from its spectrum, the Gram
        # factor's coefficients and basis, and the Schmidt form's three arrays; and the
        # eigenvalues and eigenvectors of the four spectra solved on the way (the
        # superoperator's is that of the 2 x 2 matrix its rank-2 Choi matrix reduces to).
        assert len(stored) == 27
        assert all(np.shares_memory(out, a) for a, out in stored)
        spin_one = spin_one_set()
        constants = [
            *spin_half_basis().axis_pair("x"),
            spin_one.sy,
            spin_one.sx2,
            spin_one.projectors,
            *simultaneous_eigenbasis(),
        ]
        assert all(linalg.frozen(a) is a for a in constants)


# The value objects that compare and hash by value; every other one does by identity.
_BY_VALUE = {"UnitVector3", "BipartiteSpace", "DetectorPair", "FilterInequalityReport"}

_REPRS = {
    "UnitVector3": "UnitVector3(nx=0, ny=0, nz=1)",
    "BipartiteSpace": "BipartiteSpace(dim_a=2, dim_b=2)",
    "DetectorPair": "DetectorPair(a=UnitVector3(nx=0.0, ny=0.0, nz=1.0), b=UnitVector3(nx=1.0, ny=0.0, nz=0.0))",
    "DensityOperator": "DensityOperator(dim=2)",
    "DensityStack": "DensityStack(len=2, dim=2)",
    "Trajectory": "Trajectory(len=3)",
}

# Fields the repr leaves out.
_UNSHOWN = {"LindbladGenerator": "effective_hamiltonian", "SpinOneSet": "projectors"}


def _value_objects():
    """A build of every value class of rholab.__all__, and of cli.Scenario, each call
    a new object of the same value."""
    builds = {name: lambda b=build: b()[0] for name, (_, build) in _built_from_caller_arrays().items()}
    builds["HermitianEig"] = lambda: hermitian_eig(pauli("x"))
    builds["SpinHalfBasis"] = spin_half_basis
    builds["SpinOneSet"] = spin_one_set
    builds["GhzReport"] = ghz_check
    builds["NoCloningReport"] = no_cloning_demo
    builds["Trajectory"] = lambda: evolve_lindblad(
        LindbladGenerator(pauli("z"), [pauli("x")]), DensityOperator(np.eye(2) / 2.0), 0.2, 0.1
    )
    builds["UnitVector3"] = lambda: UnitVector3(0, 0, 1)
    builds["BipartiteSpace"] = lambda: BipartiteSpace(2, 2)
    builds["DetectorPair"] = lambda: DetectorPair(Z_AXIS, X_AXIS)
    builds["FilterInequalityReport"] = filter_inequality_demo
    rho, generator = DensityOperator(np.eye(2) / 2.0), LindbladGenerator(pauli("z"), [pauli("x")])
    builds["Scenario"] = lambda: Scenario(rho, generator, 1.0, 0.1, 1)
    return builds


def _same(a, b) -> bool:
    """Whether b holds what a holds: equal arrays, and value objects field by field."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if type(a).__module__.startswith("rholab."):
        return all(_same(getattr(a, f), getattr(b, f)) for f in type(a).__slots__)
    return a == b


def _arrays(value):
    """Every array reachable through value's fields, in nested records, tuples, lists and dicts."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list, dict)):
        for item in value.values() if isinstance(value, dict) else value:
            yield from _arrays(item)
    elif type(value).__module__.startswith("rholab."):
        for field in type(value).__slots__:
            yield from _arrays(getattr(value, field))


def test_value_classes_are_tabled():
    classes = {name for name in rholab.__all__ if isinstance(getattr(rholab, name), type)}
    classes -= {name for name in classes if issubclass(getattr(rholab, name), Exception)}
    assert set(_value_objects()) == classes | {"Scenario"}


@pytest.mark.parametrize("name", [name for name in _value_objects() if name not in _BY_VALUE])
def test_array_value_objects_compare_and_hash_by_identity(name):
    # Comparing their arrays field by field would raise (the truth value of an
    # array is ambiguous), and arrays are unhashable.
    build = _value_objects()[name]
    a, b = build(), build()
    assert a == a and not a == b and a != b
    assert {a: 1, b: 2}[a] == 1


@pytest.mark.parametrize("name", list(_value_objects()))
def test_value_objects_are_immutable_records(name):
    # Plain slotted classes, not dataclasses, whose generated code would slow every
    # `import rholab` by about 10 ms.
    build = _value_objects()[name]
    value = build()
    assert not dataclasses.is_dataclass(value) and not hasattr(value, "__dict__")
    field = type(value).__slots__[0]
    with pytest.raises(AttributeError, match=f"^cannot assign to field '{field}'$"):
        setattr(value, field, None)
    with pytest.raises(AttributeError, match=f"^cannot delete field '{field}'$"):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = None
    # Every array it holds is read-only, also in a copy or an unpickled value; a shallow
    # copy shares them.
    assert not any(a.flags.writeable for a in _arrays(value))
    for back in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert _same(value, back)
        assert not any(a.flags.writeable for a in _arrays(back))
        if name in _BY_VALUE:
            assert back == value
    assert all(map(operator.is_, _arrays(value), _arrays(copy.copy(value))))
    if name in _BY_VALUE:
        other = build()
        assert other == value and not other != value and hash(other) == hash(value)
        assert {value: 1}[other] == 1
    if name in _REPRS:
        assert repr(value) == _REPRS[name]
    if name in _UNSHOWN:
        assert repr(value).startswith(f"{name}(") and _UNSHOWN[name] not in repr(value)


def test_deepcopy_copies_each_array_once():
    # A 64 x 64 density operator holds 132 KB of arrays (matrix, eigenvalues and
    # eigenvectors).  Its deep copy allocates each array once, not a writable copy and
    # then a read-only copy of that, and shares no memory with the original.
    value = DensityOperator(np.eye(64) / 64)
    arrays = list(_arrays(value))
    size = sum(a.nbytes for a in arrays)
    tracemalloc.start()
    try:
        back = copy.deepcopy(value)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert size > 130_000 and peak <= 1.2 * size
    copies = list(_arrays(back))
    assert len(copies) == len(arrays) == 3
    for a, b in zip(arrays, copies):
        assert np.array_equal(a, b) and not b.flags.writeable and not np.shares_memory(a, b)


class TestKetDimension:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: ProperMixture([(0.5, [1, 0]), (0.5, [0, 0, 1])]),
            lambda: BipartiteKet(BipartiteSpace(2, 1), [0, 0, 1]),
            lambda: gram_factor(ProperMixture([(1.0, [1, 0])]), np.eye(3)),
        ],
        ids=["ProperMixture", "BipartiteKet", "gram_factor"],
    )
    def test_mismatch_raises_shape_error(self, build):
        with pytest.raises(ShapeError, match=r"^expected a ket of 2 amplitudes, got shape \(3,\)$"):
            build()


class TestMatrixFunction:
    def test_projector_square(self):
        rng = np.random.default_rng(22)
        p = projector(random_ket(rng, 3))
        assert np.max(np.abs(apply_matrix_function(p, lambda x: x * x) - p)) < 1e-13

    def test_diagonal_exp(self):
        out = apply_matrix_function(pauli("z"), math.exp)
        assert np.allclose(out, np.diag([math.e, 1.0 / math.e]))

    def test_square_matches_product(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            a = random_hermitian(rng, 5)
            assert np.max(np.abs(apply_matrix_function(a, lambda x: x * x) - a @ a)) < 1e-12

    def test_commutes_with_argument(self):
        rng = np.random.default_rng(24)
        a = random_hermitian(rng, 6)
        f = apply_matrix_function(a, math.tanh)
        assert np.max(np.abs(f @ a - a @ f)) < 1e-10

    def test_domain_error(self):
        singular = np.diag([1.0, 0.0])
        with pytest.raises(DomainError):
            apply_matrix_function(singular, math.log)
        with pytest.raises(DomainError):
            apply_matrix_function(np.diag([1.0, -2.0]), lambda x: 1.0 / (x + 2.0))
