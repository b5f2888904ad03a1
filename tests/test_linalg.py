import math

import numpy as np
import pytest

from rholab import (
    DensityOperator,
    DomainError,
    ShapeError,
    ValidationError,
    adjoint,
    apply_matrix_function,
    dyad,
    hermitian_eig,
    kron,
    matmul,
    pauli,
    projector,
    sigma_n,
    spin_half_basis,
    spin_one_set,
    trace,
)
from rholab import linalg
from conftest import random_hermitian, random_complex, random_ket, random_unit_vector, random_unitary


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

    def test_rejects_wrong_rank(self):
        with pytest.raises(ShapeError):
            adjoint(np.zeros(3))


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
