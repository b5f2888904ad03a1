import logging
import math
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np
import pytest

import rholab
from rholab import (
    DensityOperator,
    DensityStack,
    IntegrationError,
    KrausChannel,
    LindbladGenerator,
    NotCompletelyPositiveError,
    ShapeError,
    Superoperator,
    Trajectory,
    ValidationError,
    eigenmatrix_decompose,
    evolve_lindblad,
    evolve_unitary,
    generator_matrix,
    kraus_from_decomposition,
    lindblad_apply,
    lindblad_spectrum,
    measurement_channel,
    pauli,
    projector,
    purity,
    spin_half_basis,
    superop_from_kraus,
    von_neumann_entropy,
)
from rholab import channels
from rholab.channels import MAX_SAMPLES, MAX_STEPS, step_schedule
from rholab.density import stacked
from rholab.cli import Scenario, load_scenario, trajectory_rows
from conftest import (
    count_eigensolves,
    random_density,
    random_hermitian,
    random_complex,
    random_kraus_channel,
    random_unitary,
    spy_eigensolves,
    time_limit,
)

REPO = Path(__file__).resolve().parents[1]
KETS = spin_half_basis()


def transpose_superoperator(n: int) -> Superoperator:
    tensor = np.zeros((n, n, n, n), dtype=complex)
    for m in range(n):
        for l in range(n):
            tensor[m, l, l, m] = 1.0
    return Superoperator(n, tensor)


def basis_matrices(n: int):
    for i in range(n):
        for j in range(n):
            e = np.zeros((n, n), dtype=complex)
            e[i, j] = 1.0
            yield e


class TestKrausChannel:
    def test_rejects_incomplete_set(self):
        with pytest.raises(ValidationError):
            KrausChannel([0.5 * np.eye(2)])

    @pytest.mark.parametrize("ops", [[], (), iter([])], ids=["list", "tuple", "iterator"])
    def test_rejects_empty_set(self, ops):
        with pytest.raises(ValidationError, match="needs at least one operator"):
            KrausChannel(ops)

    def test_overflowing_completeness_rejected(self):
        # sum K(dag)K overflows to NaN: a ValidationError, with no RuntimeWarning.
        with pytest.raises(ValidationError, match="incomplete Kraus set"):
            KrausChannel([1e200 * (1 + 1j) * np.eye(2)])

    def test_identity_channel(self):
        ch = KrausChannel([np.eye(3)])
        rng = np.random.default_rng(120)
        rho = random_density(rng, 3).matrix
        assert np.allclose(ch.apply(rho), rho)

    def test_unitary_channel_preserves_purity(self):
        rng = np.random.default_rng(121)
        u = random_unitary(rng, 3)
        ch = KrausChannel([u])
        d = random_density(rng, 3)
        out = DensityOperator(ch.apply(d.matrix))
        assert purity(out) == pytest.approx(purity(d), abs=1e-12)


class TestSuperoperator:
    def test_rejects_non_finite_tensor(self):
        tensor = superop_from_kraus(KrausChannel([np.eye(2)])).tensor.copy()
        tensor[0, 1, 0, 1] = math.nan
        with pytest.raises(ValidationError, match="finite"):
            Superoperator(2, tensor)

    @pytest.mark.parametrize("dim", [2.0, True, "2", 0, -1, None], ids=repr)
    def test_dimension_must_be_a_positive_integer(self, dim):
        with pytest.raises(ValidationError, match="dim must be an integer"):
            Superoperator(dim, np.zeros((2, 2, 2, 2)))
        with pytest.raises(ValidationError, match="dim must be an integer"):
            channels.EigenmatrixDecomposition(dim, np.zeros(4), np.eye(4).reshape(4, 2, 2))
        assert Superoperator(np.int64(2), np.zeros((2, 2, 2, 2))).dim == 2

    @pytest.mark.parametrize("tensor", [[[[["a"]]]], [[1, 2], [3]]], ids=["string", "ragged"])
    def test_entries_not_readable_as_complex_raise_validation_error(self, tensor):
        with pytest.raises(ValidationError, match="^coefficient tensor entries must be numbers readable as complex"):
            Superoperator(len(tensor), tensor)

    def test_from_kraus_identity(self):
        s = superop_from_kraus(KrausChannel([np.eye(2)]))
        rng = np.random.default_rng(122)
        x = random_complex(rng, (2, 2))
        assert np.allclose(s.apply(x), x)
        assert s.is_hermiticity_preserving()
        assert s.is_trace_preserving()

    def test_projective_channel_is_dephasing(self):
        # r4 oracle: the z projective channel equals measurement_channel
        p_plus = projector(KETS.z_plus)
        p_minus = projector(KETS.z_minus)
        s = superop_from_kraus(KrausChannel([p_plus, p_minus]))
        rng = np.random.default_rng(123)
        for _ in range(10):
            d = random_density(rng, 2)
            expected = measurement_channel(d, [KETS.z_plus, KETS.z_minus]).matrix
            assert np.max(np.abs(s.apply(d.matrix) - expected)) < 1e-12
            out = s.apply(d.matrix)
            assert abs(out[0, 1]) < 1e-14 and abs(out[1, 0]) < 1e-14

    def test_action_matches_kraus_sum(self):
        rng = np.random.default_rng(124)
        ch = random_kraus_channel(rng, 3, 2)
        s = superop_from_kraus(ch)
        for _ in range(5):
            x = random_complex(rng, (3, 3))
            assert np.max(np.abs(s.apply(x) - ch.apply(x))) < 1e-12

    def test_transpose_map_action(self):
        s = transpose_superoperator(2)
        rng = np.random.default_rng(125)
        x = random_complex(rng, (2, 2))
        assert np.allclose(s.apply(x), x.T)
        assert s.is_hermiticity_preserving()
        assert s.is_trace_preserving()


class TestEigenmatrixDecomposition:
    def test_identity_superoperator(self):
        for n in (2, 3):
            dec = eigenmatrix_decompose(superop_from_kraus(KrausChannel([np.eye(n)])))
            assert dec.eigenvalues[0] == pytest.approx(n, abs=1e-10)
            assert np.max(np.abs(dec.eigenvalues[1:])) < 1e-10
            e1 = dec.eigenmatrices[0]
            phase = np.trace(e1) / abs(np.trace(e1))
            assert np.max(np.abs(e1 / phase - np.eye(n) / math.sqrt(n))) < 1e-10

    def test_trace_sum_rule(self):
        rng = np.random.default_rng(126)
        for n, k in ((2, 2), (2, 4), (3, 3)):
            dec = eigenmatrix_decompose(superop_from_kraus(random_kraus_channel(rng, n, k)))
            assert abs(dec.eigenvalues.sum() - n) < 1e-9
            assert dec.is_completely_positive

    def test_transpose_map_not_completely_positive(self):
        s = transpose_superoperator(2)
        dec = eigenmatrix_decompose(s)
        # direct 4x4 oracle: the flattened matrix is the swap, spectrum
        # (1, 1, 1, -1)
        oracle = np.linalg.eigvalsh(s.as_matrix())
        assert np.allclose(sorted(oracle), [-1.0, 1.0, 1.0, 1.0], atol=1e-12)
        assert np.allclose(sorted(dec.eigenvalues), sorted(oracle), atol=1e-10)
        assert not dec.is_completely_positive

    def test_eigenmatrix_orthonormality(self):
        rng = np.random.default_rng(127)
        dec = eigenmatrix_decompose(superop_from_kraus(random_kraus_channel(rng, 3, 3)))
        mats = dec.eigenmatrices
        for i in range(len(mats)):
            for j in range(len(mats)):
                expected = 1.0 if i == j else 0.0
                inner = np.trace(mats[i] @ mats[j].conj().T)
                assert abs(inner - expected) < 1e-10

    def test_reconstruction_matches_action(self):
        rng = np.random.default_rng(128)
        s = superop_from_kraus(random_kraus_channel(rng, 3, 2))
        dec = eigenmatrix_decompose(s)
        for e in basis_matrices(3):
            assert np.max(np.abs(dec.apply(e) - s.apply(e))) < 1e-9

    def test_rejects_non_hermiticity_preserving(self):
        tensor = np.zeros((2, 2, 2, 2), dtype=complex)
        tensor[0, 0, 0, 0] = 1.0
        tensor[0, 1, 1, 0] = 1.0j  # breaks M_mknl = conj(M_nlmk)
        with pytest.raises(ValidationError):
            eigenmatrix_decompose(Superoperator(2, tensor))

    def test_rejects_wrong_eigenvalue_count(self):
        with pytest.raises(ShapeError, match=r"expected 4 eigenvalues, got shape \(2,\)"):
            channels.EigenmatrixDecomposition(2, [1.0, 2.0], np.eye(4).reshape(4, 2, 2))

    @pytest.mark.parametrize(
        "values",
        [[1j, 0, 0, 0], [2.0, 0, 0, 1e-3j], [np.nan, 0, 0, 0], [np.inf, 0, 0, 0]],
        ids=["imaginary", "imaginary-part", "nan", "inf"],
    )
    def test_rejects_non_real_eigenvalues(self, values):
        with pytest.raises(ValidationError, match="eigenvalues must be finite real numbers"):
            channels.EigenmatrixDecomposition(2, values, np.eye(4).reshape(4, 2, 2))

    @pytest.mark.parametrize("values", [["a"], [None]], ids=["string", "None"])
    def test_rejects_non_numeric_eigenvalues(self, values):
        with pytest.raises(ValidationError, match="^eigenvalues must be finite real numbers$"):
            channels.EigenmatrixDecomposition(1, values, [[[1.0]]])

    def test_stores_real_eigenvalues(self):
        values = np.array([2.0, 0, 0, 0], dtype=complex)
        dec = channels.EigenmatrixDecomposition(2, values, np.eye(4).reshape(4, 2, 2))
        assert dec.eigenvalues.dtype == np.float64
        assert np.array_equal(dec.eigenvalues, [2.0, 0, 0, 0])

    def test_choi_rank_bound(self):
        rng = np.random.default_rng(129)
        for n in (2, 3):
            dec = eigenmatrix_decompose(superop_from_kraus(random_kraus_channel(rng, n, 4)))
            assert np.sum(dec.eigenvalues > 1e-9) <= n * n


def near_dependent_pair(rng: np.random.Generator, n: int, eps: float) -> KrausChannel:
    """K1 and K2 = K1 + eps * noise, both times S^(-1/2) with S = K1(dag)K1 + K2(dag)K2 so
    that they are complete; eps = 0 gives two equal operators, a Gram matrix of rank 1."""
    k1 = random_complex(rng, (n, n))
    pair = [k1, k1 + eps * random_complex(rng, (n, n))]
    w, v = np.linalg.eigh(sum(k.conj().T @ k for k in pair))
    inv_sqrt = (v / np.sqrt(w)) @ v.conj().T
    return KrausChannel([k @ inv_sqrt for k in pair])


GRAM_CASES = {
    **{f"N{n}-r{r}": (n, r, None) for n in (2, 3, 4, 5) for r in range(1, n * n)},
    **{f"near-{eps:g}": (3, 2, eps) for eps in (1e-3, 1e-5, 1e-7, 1e-9, 1e-11, 1e-13, 0.0)},
}


def indefinite_map(rng: np.random.Generator, n: int, r: int) -> np.ndarray:
    """A Hermitian N^2 x N^2 matrix sum_i w_i v_i v_i(dag) of rank r, from r random v_i and
    weights of alternating sign, the first negative."""
    v = random_complex(rng, (r, n * n))
    w = rng.uniform(0.5, 2.0, size=r) * np.where(np.arange(r) % 2, 1.0, -1.0)
    c = (v.T * w) @ v.conj()
    return (c + c.conj().T) / 2.0


TENSOR_CASES = {f"N{n}-r{r}": (n, r) for n in (2, 3, 4) for r in range(1, n * n)}


class TestGramRoute:
    @pytest.mark.parametrize("case", list(GRAM_CASES))
    def test_accuracy_against_lapack(self, case):
        # Every rank 1 ... N^2 - 1 at N = 2 ... 5, and near-dependent pairs down to two
        # equal operators: the spectrum, orthonormality, eigen-residuals and the Kraus
        # round trip hold to 1e-13 (times |C| where C scales them).
        n, r, eps = GRAM_CASES[case]
        rng = np.random.default_rng(160 + 100 * n + r if eps is None else 170)
        channel = random_kraus_channel(rng, n, r) if eps is None else near_dependent_pair(rng, n, eps)
        s = superop_from_kraus(channel)
        dec = eigenmatrix_decompose(s)
        c = s.as_matrix()
        scale = np.linalg.norm(c, 2)
        e = dec.eigenmatrices.reshape(n * n, n * n)  # row i: E^i flattened
        assert np.max(np.abs(dec.eigenvalues - np.linalg.eigvalsh(c)[::-1])) <= 1e-13 * scale
        assert np.max(np.abs(e.conj() @ e.T - np.eye(n * n))) <= 1e-13
        assert np.max(np.abs(c @ e.T - e.T * dec.eigenvalues)) <= 1e-13 * scale
        back = superop_from_kraus(kraus_from_decomposition(dec))
        assert np.max(np.abs(back.tensor - s.tensor)) <= 1e-13

    @pytest.mark.parametrize("n, r", [(2, 1), (2, 3), (3, 2), (4, 4), (4, 15)])
    def test_a_kraus_built_map_solves_one_r_by_r_gram_matrix(self, monkeypatch, n, r):
        s = superop_from_kraus(random_kraus_channel(np.random.default_rng(180 + r), n, r))
        shapes = spy_eigensolves(monkeypatch)
        eigenmatrix_decompose(s)
        assert shapes == [(r, r)]

    @pytest.mark.parametrize("n, r", [(2, 4), (2, 5), (3, 9)])
    def test_r_of_at_least_n_squared_solves_the_choi_matrix(self, monkeypatch, n, r):
        s = superop_from_kraus(random_kraus_channel(np.random.default_rng(190 + r), n, r))
        shapes = spy_eigensolves(monkeypatch)
        dec = eigenmatrix_decompose(s)
        assert shapes == [(n * n, n * n)]
        assert np.max(np.abs(dec.eigenvalues - np.linalg.eigvalsh(s.as_matrix())[::-1])) <= 1e-13 * n

    def test_a_low_rank_map_built_from_a_tensor_solves_its_range(self, monkeypatch):
        channel = random_kraus_channel(np.random.default_rng(195), 3, 2)
        kraus_built = superop_from_kraus(channel)
        s = Superoperator(3, kraus_built.tensor)
        shapes = spy_eigensolves(monkeypatch)
        from_tensor, from_kraus = eigenmatrix_decompose(s), eigenmatrix_decompose(kraus_built)
        assert shapes == [(2, 2), (2, 2)]
        assert np.max(np.abs(from_tensor.eigenvalues - from_kraus.eigenvalues)) <= 1e-13
        assert np.max(np.abs(from_tensor.apply(np.eye(3)) - from_kraus.apply(np.eye(3)))) <= 1e-13

    @pytest.mark.parametrize("n, r", [(2, 1), (2, 3), (3, 2), (4, 4), (4, 15), (3, 9)])
    def test_a_kraus_built_map_decomposes_as_its_tensor_does(self, n, r):
        # One route: how a map was built does not change a bit of its decomposition.
        kraus_built = superop_from_kraus(random_kraus_channel(np.random.default_rng(230 + r), n, r))
        from_kraus = eigenmatrix_decompose(kraus_built)
        from_tensor = eigenmatrix_decompose(Superoperator(n, kraus_built.tensor))
        assert np.array_equal(from_kraus.eigenvalues, from_tensor.eigenvalues)
        assert np.array_equal(from_kraus.eigenmatrices, from_tensor.eigenmatrices)

    @pytest.mark.parametrize("case", list(TENSOR_CASES))
    def test_tensor_accuracy_against_lapack(self, monkeypatch, case):
        # Every rank 1 ... N^2 - 1 at N = 2 ... 4, weights of alternating sign (rank 1: one
        # negative): the order, spectrum, orthonormality and eigen-residuals hold to 1e-13
        # (times |C| where C scales them).  One r x r matrix is solved.
        n, r = TENSOR_CASES[case]
        c = indefinite_map(np.random.default_rng(200 + 10 * n + r), n, r)
        shapes = spy_eigensolves(monkeypatch)
        dec = eigenmatrix_decompose(Superoperator(n, c.reshape(n, n, n, n)))
        assert shapes == [(r, r)]
        scale = np.linalg.norm(c, 2)
        e = dec.eigenmatrices.reshape(n * n, n * n)  # row i: E^i flattened
        assert np.all(np.diff(dec.eigenvalues) <= 0.0)
        assert np.max(np.abs(dec.eigenvalues - np.linalg.eigvalsh(c)[::-1])) <= 1e-13 * scale
        assert np.max(np.abs(e.conj() @ e.T - np.eye(n * n))) <= 1e-13
        assert np.max(np.abs(c @ e.T - e.T * dec.eigenvalues)) <= 1e-13 * scale

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_a_full_rank_map_built_from_a_tensor_solves_the_choi_matrix(self, monkeypatch, n):
        c = random_hermitian(np.random.default_rng(210 + n), n * n)
        shapes = spy_eigensolves(monkeypatch)
        dec = eigenmatrix_decompose(Superoperator(n, c.reshape(n, n, n, n)))
        assert shapes == [(n * n, n * n)]
        assert np.max(np.abs(dec.eigenvalues - np.linalg.eigvalsh(c)[::-1])) <= 1e-13 * np.linalg.norm(c, 2)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_the_zero_map_solves_nothing(self, monkeypatch, n):
        shapes = spy_eigensolves(monkeypatch)
        dec = eigenmatrix_decompose(Superoperator(n, np.zeros((n, n, n, n))))
        assert shapes == []
        e = dec.eigenmatrices.reshape(n * n, n * n)
        assert np.array_equal(dec.eigenvalues, np.zeros(n * n))
        assert np.max(np.abs(e.conj() @ e.T - np.eye(n * n))) <= 1e-13

    @pytest.mark.parametrize("scale", [1e-200, 1e307])
    def test_the_spectrum_does_not_depend_on_the_scale_of_the_map(self, scale):
        # C = vec(K) vec(K)(dag) times scale, exactly Hermitian.  At 1e-200 every entry of C
        # was below the solver's absolute stop test, and its diagonal was returned as the
        # spectrum: 2.11e-200 for 3.47e-200, and kernel eigenvalues near 1e-201.
        v = random_complex(np.random.default_rng(0), (2, 2)).reshape(-1)
        c = np.outer(v, v.conj()) * scale
        c = c / 2 + c.conj().T / 2
        dec = eigenmatrix_decompose(Superoperator(2, c.reshape(2, 2, 2, 2)))
        expected = np.linalg.eigvalsh(c)[::-1]
        assert np.max(np.abs(dec.eigenvalues - expected)) <= 1e-13 * expected[0]
        e = dec.eigenmatrices.reshape(4, 4)
        assert np.max(np.abs(e.conj() @ e.T - np.eye(4))) <= 1e-13

    def test_a_spectrum_past_the_largest_float_raises(self):
        # C = +-1e308 times the all-ones 4 x 4 matrix: its eigenvalue +-4e308 is not a float.
        for sign in (1.0, -1.0):
            c = np.full((4, 4), sign * 1e308 + 0j)
            with pytest.raises(ArithmeticError, match="^the map's eigenvalues are not finite$"):
                eigenmatrix_decompose(Superoperator(2, c.reshape(2, 2, 2, 2)))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_a_full_rank_map_at_1e_minus_200_keeps_its_spectrum(self, n):
        # A full-rank indefinite map solves an N^2 x N^2 S, scaled as a low-rank one is.
        c = indefinite_map(np.random.default_rng(220 + n), n, n * n) * 1e-200
        dec = eigenmatrix_decompose(Superoperator(n, c.reshape(n, n, n, n)))
        scale = np.linalg.norm(c, 2)
        e = dec.eigenmatrices.reshape(n * n, n * n)
        assert np.max(np.abs(dec.eigenvalues - np.linalg.eigvalsh(c)[::-1])) <= 1e-13 * scale
        assert np.max(np.abs(e.conj() @ e.T - np.eye(n * n))) <= 1e-13
        assert np.max(np.abs(c @ e.T - e.T * dec.eigenvalues)) <= 1e-13 * scale


class TestKrausRoundTrip:
    def test_identity_round_trip(self):
        s = superop_from_kraus(KrausChannel([np.eye(2)]))
        back = kraus_from_decomposition(eigenmatrix_decompose(s))
        rng = np.random.default_rng(130)
        x = random_complex(rng, (2, 2))
        assert np.max(np.abs(back.apply(x) - x)) < 1e-10

    def test_random_channel_round_trip(self):
        rng = np.random.default_rng(131)
        for n, k in ((2, 3), (3, 3), (3, 4)):
            ch = random_kraus_channel(rng, n, k)
            s = superop_from_kraus(ch)
            back = kraus_from_decomposition(eigenmatrix_decompose(s))
            for e in basis_matrices(n):
                assert np.max(np.abs(back.apply(e) - s.apply(e))) < 1e-9

    def test_output_completeness(self):
        rng = np.random.default_rng(132)
        ch = random_kraus_channel(rng, 3, 3)
        back = kraus_from_decomposition(eigenmatrix_decompose(superop_from_kraus(ch)))
        total = sum(k.conj().T @ k for k in back.kraus_ops)
        assert np.max(np.abs(total - np.eye(3))) < 1e-9

    def test_transpose_map_rejected(self):
        dec = eigenmatrix_decompose(transpose_superoperator(2))
        with pytest.raises(NotCompletelyPositiveError):
            kraus_from_decomposition(dec)

    def test_composition_stays_cptp(self):
        rng = np.random.default_rng(133)
        first = random_kraus_channel(rng, 2, 2)
        second = random_kraus_channel(rng, 2, 3)
        composed = KrausChannel(
            [k2 @ k1 for k1 in first.kraus_ops for k2 in second.kraus_ops]
        )
        dec = eigenmatrix_decompose(superop_from_kraus(composed))
        assert dec.is_completely_positive
        assert abs(dec.eigenvalues.sum() - 2.0) < 1e-8


class TestLindbladApply:
    def test_reduces_to_commutator_without_jumps(self):
        rng = np.random.default_rng(134)
        h = random_hermitian(rng, 3)
        d = random_density(rng, 3)
        g = LindbladGenerator(h, [])
        expected = -1j * (h @ d.matrix - d.matrix @ h)
        assert np.max(np.abs(lindblad_apply(g, d) - expected)) < 1e-13

    def test_maximally_mixed_stationary_for_hermitian_jumps(self):
        # direct-substitution oracle: L rho L = L^2/N = {L(dag)L, rho}/2
        rng = np.random.default_rng(135)
        jumps = [random_hermitian(rng, 3) for _ in range(2)]
        g = LindbladGenerator(np.zeros((3, 3)), jumps)
        d = DensityOperator(np.eye(3) / 3.0)
        assert np.max(np.abs(lindblad_apply(g, d))) < 1e-13

    def test_traceless_and_hermitian_output(self):
        rng = np.random.default_rng(136)
        for _ in range(200):
            n = int(rng.integers(2, 5))
            g = LindbladGenerator(
                random_hermitian(rng, n),
                [random_complex(rng, (n, n)) for _ in range(int(rng.integers(0, 3)))],
            )
            out = lindblad_apply(g, random_density(rng, n))
            assert abs(np.trace(out)) < 1e-12
            assert np.max(np.abs(out - out.conj().T)) < 1e-12

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(137)
        g = LindbladGenerator(np.zeros((2, 2)), [])
        with pytest.raises(ShapeError):
            lindblad_apply(g, random_density(rng, 3))

    def test_operator_sets_are_read_only_stacks(self):
        rng = np.random.default_rng(139)
        jumps = [random_complex(rng, (3, 3)) for _ in range(2)]
        channel = random_kraus_channel(rng, 3, 4)
        decomposition = eigenmatrix_decompose(superop_from_kraus(channel))
        sets = [
            (LindbladGenerator(np.zeros((3, 3)), jumps).jump_ops, (2, 3, 3)),
            (LindbladGenerator(np.zeros((3, 3))).jump_ops, (0, 3, 3)),
            (channel.kraus_ops, (4, 3, 3)),
            (decomposition.eigenmatrices, (9, 3, 3)),
        ]
        for ops, shape in sets:
            assert isinstance(ops, np.ndarray) and ops.shape == shape and not ops.flags.writeable
            assert len(ops) == shape[0] and len(list(ops)) == shape[0]
        assert np.array_equal(sets[0][0], jumps)
        rho = random_density(rng, 3).matrix
        kraus_sum = sum(k @ rho @ k.conj().T for k in channel.kraus_ops)
        assert np.max(np.abs(channel.apply(rho) - kraus_sum)) < 1e-15
        spectral_sum = sum(
            lam * (e @ rho @ e.conj().T)
            for lam, e in zip(decomposition.eigenvalues, decomposition.eigenmatrices)
        )
        assert np.max(np.abs(decomposition.apply(rho) - spectral_sum)) < 1e-14

    @pytest.mark.parametrize("k", [0, 1, 3, 8])
    @pytest.mark.parametrize("n", [2, 4, 16])
    def test_flow_equals_the_term_by_term_sum(self, n, k):
        # The two evaluators of K and the jump stack, the flow on one matrix (its jump
        # sum as two matrix products) and the supermatrix, against the commutator plus
        # dissipator written out one operator at a time.
        rng = np.random.default_rng(140 + 10 * n + k)
        h = random_hermitian(rng, n)
        jumps = [random_complex(rng, (n, n)) for _ in range(k)]
        g = LindbladGenerator(h, jumps)
        flow = channels._generator_flow(g)
        rho = random_density(rng, n).matrix
        cases = [
            (flow(rho), explicit_flow(h, jumps, rho)),
            (
                generator_matrix(g),
                np.column_stack([explicit_flow(h, jumps, e).reshape(-1) for e in basis_matrices(n)]),
            ),
        ]
        for got, expected in cases:
            assert got.shape == expected.shape
            assert np.max(np.abs(got - expected)) <= 1e-13 * max(1.0, np.max(np.abs(expected)))

    def test_generator_validation(self):
        rng = np.random.default_rng(138)
        with pytest.raises(ValidationError):
            LindbladGenerator(random_complex(rng, (2, 2)), [])
        with pytest.raises(ShapeError):
            LindbladGenerator(np.zeros((2, 2)), [np.zeros((3, 3))])


def dephasing_generator(gamma: float) -> LindbladGenerator:
    return LindbladGenerator(np.zeros((2, 2)), [math.sqrt(gamma) * pauli("z")])


def explicit_flow(h, jumps, rho):
    """-i[H, rho] + sum_k (L rho L(dag) - 1/2 {L(dag) L, rho}), term by term."""
    out = -1j * (h @ rho - rho @ h)
    for op in jumps:
        gram = op.conj().T @ op
        out = out + op @ rho @ op.conj().T - 0.5 * (gram @ rho + rho @ gram)
    return out


def rk4_step(h, jumps, rho, dt):
    """Stage-wise classical RK4: the reference for the Taylor propagator."""
    k1 = explicit_flow(h, jumps, rho)
    k2 = explicit_flow(h, jumps, rho + 0.5 * dt * k1)
    k3 = explicit_flow(h, jumps, rho + 0.5 * dt * k2)
    k4 = explicit_flow(h, jumps, rho + dt * k3)
    return rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rk4_trajectory(h, jumps, rho0, t_end, dt, sample_every):
    """Emitted (time, matrix) pairs of stage-wise RK4 with the integrator's
    schedule and its hermitize-and-renormalize after every step."""
    n_full = int(math.floor(t_end / dt + 1e-12))
    remainder = t_end - n_full * dt
    steps = [dt] * n_full + ([remainder] if remainder > 1e-12 else [])
    rho = np.array(rho0, dtype=complex)
    out = [(0.0, rho)]
    t = 0.0
    for i, step in enumerate(steps, start=1):
        rho = rk4_step(h, jumps, rho, step)
        rho = (rho + rho.conj().T) / 2.0
        rho = rho / np.trace(rho).real
        t += step
        if i % sample_every == 0 or i == len(steps):
            out.append((t, rho))
    return out


def drifting(monkeypatch, per_step: float, after: int = 0) -> list:
    """Patch the propagator to scale rho by 1 + 1e-6 when it applies more than one
    step, which fails the drift check and replays the interval, and by 1 + per_step
    when it applies one.  A batch of intervals written into `out` has its sample
    after + 1 scaled the same way in place, so that sample drifts.  Returns a list
    that gains, per application, the number of intervals it writes into `out`, or
    None for a single interval."""
    build, applied = channels._taylor_propagator, []

    def propagator(g, dt, remainder=0.0):
        propagate = build(g, dt, remainder)

        def drifted(rho, full, last, out=None):
            result = propagate(rho, full, last, out)
            applied.append(None if out is None else len(out))
            scaled = result if out is None else result[after:after + 1]
            scaled *= 1.0 + (1e-6 if full > 1 else per_step)
            return result

        return drifted

    monkeypatch.setattr(channels, "_taylor_propagator", propagator)
    return applied


def batched_and_stepped_peaks(monkeypatch, run: Callable[[], object]) -> tuple[int, int]:
    """The tracemalloc peaks of run() as it is, and with every interval stepped alone:
    the batch is filled with NaN, which fails the check at its first sample."""

    def peak() -> int:
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak()  # fills the eigensolver's cached tables
    batched = peak()
    build = channels._taylor_propagator

    def unbatched(g, dt, remainder=0.0):
        propagate = build(g, dt, remainder)
        return lambda rho, full, last, out=None: propagate(rho, full, last) if out is None else out.fill(np.nan)

    monkeypatch.setattr(channels, "_taylor_propagator", unbatched)
    return batched, peak()


class TestEvolveLindblad:
    def test_dephasing_against_closed_form(self):
        gamma = 1.0
        d0 = DensityOperator(projector(KETS.x_plus))
        samples = evolve_lindblad(dephasing_generator(gamma), d0, 2.0, 0.01, sample_every=10)
        for t, raw_trace, state in zip(samples.times, samples.raw_traces, samples.states):
            expected = 0.5 * math.exp(-2.0 * gamma * t)
            assert abs(state.matrix[0, 1] - expected) < 1e-8
            assert abs(raw_trace - 1.0) < 1e-12
            assert state.eigenvalues[0] > -1e-12

    def test_hamiltonian_only_matches_unitary_evolution(self):
        rng = np.random.default_rng(139)
        h = random_hermitian(rng, 3)
        d0 = random_density(rng, 3)
        g = LindbladGenerator(h, [])
        samples = evolve_lindblad(g, d0, 1.0, 0.001)
        expected = evolve_unitary(d0, h, 1.0)
        assert np.max(np.abs(samples.states[-1].matrix - expected.matrix)) < 1e-7

    def test_entropy_non_decreasing_for_hermitian_jumps(self):
        rng = np.random.default_rng(140)
        d0 = random_density(rng, 3)
        g = LindbladGenerator(
            random_hermitian(rng, 3), [0.7 * random_hermitian(rng, 3)]
        )
        samples = evolve_lindblad(g, d0, 1.0, 0.01, sample_every=5)
        entropies = von_neumann_entropy(samples.states)
        for prev, nxt in zip(entropies, entropies[1:]):
            assert nxt >= prev - 1e-8

    def test_fourth_order_convergence(self):
        gamma = 1.0
        d0 = DensityOperator(projector(KETS.x_plus))
        exact = 0.5 * math.exp(-2.0 * gamma * 2.0)

        def endpoint_error(dt):
            samples = evolve_lindblad(dephasing_generator(gamma), d0, 2.0, dt, sample_every=10**9)
            return abs(samples.states[-1].matrix[0, 1].real - exact)

        coarse = endpoint_error(0.1)
        fine = endpoint_error(0.05)
        assert coarse / fine >= 8.0

    def test_strong_dephasing_reaches_measurement_fixed_point(self):
        # jump operators sqrt(gamma) P_m for a complete projector set drive
        # rho to the measurement-channel output for gamma t >> 1
        rng = np.random.default_rng(141)
        u = random_unitary(rng, 3)
        basis = [u[:, i] for i in range(3)]
        gamma = 30.0
        jumps = [math.sqrt(gamma) * np.outer(k, k.conj()) for k in basis]
        g = LindbladGenerator(np.zeros((3, 3)), jumps)
        d0 = random_density(rng, 3)
        samples = evolve_lindblad(g, d0, 1.0, 0.002, sample_every=10**9)
        fixed_point = measurement_channel(d0, basis).matrix
        assert np.max(np.abs(samples.states[-1].matrix - fixed_point)) < 1e-4

    def test_sampling_cadence_and_endpoint(self):
        d0 = DensityOperator(np.eye(2) / 2)
        samples = evolve_lindblad(dephasing_generator(0.5), d0, 0.25, 0.1, sample_every=2)
        times = samples.times.tolist()
        assert times[0] == 0.0
        assert times[-1] == pytest.approx(0.25, abs=1e-12)

    def test_argument_validation(self):
        d0 = DensityOperator(np.eye(2) / 2)
        g = dephasing_generator(1.0)
        with pytest.raises(ValidationError):
            evolve_lindblad(g, d0, 1.0, -0.1)
        with pytest.raises(ValidationError):
            evolve_lindblad(g, d0, -1.0, 0.1)
        with pytest.raises(ValidationError):
            evolve_lindblad(g, d0, 1.0, 0.1, sample_every=0)
        # Non-finite times, and a finite dt whose t_end/dt overflows.
        for t_end, dt in [(math.nan, 0.1), (math.inf, 0.1), (1.0, math.nan), (1.0, math.inf), (1.0, 1e-320)]:
            with pytest.raises(ValidationError):
                evolve_lindblad(g, d0, t_end, dt)

    @pytest.mark.parametrize(
        "t_end, dt, sample_every",
        [
            (1.0, 0.1, 2.5),
            (1.0, 0.1, np.float64(2)),
            (1.0, 0.1, "3"),
            (1.0, 0.1, True),
            ("1.0", 0.1, 1),
            (1 + 0j, 0.1, 1),
            (10**400, 0.1, 1),
            (1.0, "0.1", 1),
            (1.0, 10**400, 1),
            (1.0, True, 1),
        ],
        ids=["every-float", "every-numpy-float", "every-string", "every-bool", "t_end-string",
             "t_end-complex", "t_end-huge-int", "dt-string", "dt-huge-int", "dt-bool"],
    )
    def test_schedule_arguments_of_the_wrong_type_raise_validation_error(self, t_end, dt, sample_every):
        d0 = DensityOperator(np.eye(2) / 2)
        with pytest.raises(ValidationError):
            step_schedule(t_end, dt, sample_every)
        with pytest.raises(ValidationError):
            evolve_lindblad(dephasing_generator(1.0), d0, t_end, dt, sample_every)

    def test_schedule_takes_numpy_and_integer_numbers(self):
        # Real numbers of any type give the run their float values give.
        d0 = DensityOperator(projector(KETS.x_plus))
        g = dephasing_generator(1.0)
        expected = evolve_lindblad(g, d0, 1.0, 0.25, 2)
        for args in ((1, np.float64(0.25), np.int64(2)), (np.float32(1.0), 0.25, np.uint8(2))):
            got = evolve_lindblad(g, d0, *args)
            assert got.times.tobytes() == expected.times.tobytes()
            assert got.states.matrices.tobytes() == expected.states.matrices.tobytes()

    @pytest.mark.parametrize(
        "dim, sample_every, count",
        [pytest.param(dim, 4, 2, id=str(dim)) for dim in (1, 2, 3, 4, 8, 16)]
        + [
            pytest.param(dim, every, 2, id=f"{dim}-every-{every}")
            for dim in (1, 2, 8, 16)
            for every in (1, 10**9)
        ]
        + [pytest.param(16, 4, 0, id="16-no-jumps")],
    )
    def test_matches_stagewise_rk4(self, dim, sample_every, count, monkeypatch):
        # The step tabulated as T and applied directly, on either side of the
        # size threshold, and a t_end that leaves a shorter final step.  Sample
        # intervals of one step, of four, and one interval holding every step.
        # Applied directly, an empty jump set leaves the flow's row of L^k rho empty.
        rng = np.random.default_rng(150 + dim)
        scale = 1.0 / math.sqrt(dim)
        h = scale * random_hermitian(rng, dim)
        jumps = [scale * random_complex(rng, (dim, dim)) for _ in range(count)]
        d0 = random_density(rng, dim)
        generator_built = []
        real_generator_matrix = channels.generator_matrix
        monkeypatch.setattr(
            channels,
            "generator_matrix",
            lambda g: generator_built.append(g.dim) or real_generator_matrix(g),
        )
        samples = evolve_lindblad(
            LindbladGenerator(h, jumps), d0, 0.105, 0.01, sample_every=sample_every
        )
        # Up to d = 8 one supermatrix per run, from which T of both step lengths is
        # tabulated; no N^2 x N^2 array at d = 16.
        assert generator_built == ([] if dim == 16 else [dim])
        expected = rk4_trajectory(h, jumps, d0.matrix, 0.105, 0.01, sample_every)
        assert samples.times.tolist() == pytest.approx([t for t, _ in expected], abs=1e-15)
        assert samples.times[-1] == pytest.approx(0.105, abs=1e-15)
        for state, (_, rho) in zip(samples.states, expected):
            assert np.max(np.abs(state.matrix - rho)) < 1e-12

    @pytest.mark.parametrize("dim, t_end, sample_every", [(2, 4.0, 1), (8, 0.3, 3)], ids=["2-4001", "8-every-3"])
    def test_batched_intervals_match_stagewise_rk4(self, dim, t_end, sample_every):
        # Every full-length interval is propagated at once, by doubling on the states,
        # and cleaned up a chunk at a time.  The reference steps one renormalized
        # interval at a time: each entry of each state stays within 1e-12 of it, and
        # the sample times are the same sums of dt, bit for bit.  4001 samples at d = 2
        # (amplitude damping, four chunks) and 101 at d = 8 (two chunks).
        if dim == 2:
            s = load_scenario(str(REPO / "scenarios" / "amplitude_damping.json"))
            g, d0 = s.generator, s.rho0
        else:
            rng = np.random.default_rng(162)
            scale = 1.0 / math.sqrt(dim)
            g = LindbladGenerator(scale * random_hermitian(rng, dim), [scale * random_complex(rng, (dim, dim))])
            d0 = random_density(rng, dim)
        samples = evolve_lindblad(g, d0, t_end, 0.001, sample_every)
        expected = rk4_trajectory(g.hamiltonian, g.jump_ops, d0.matrix, t_end, 0.001, sample_every)
        assert len(samples) == {2: 4001, 8: 101}[dim]
        assert samples.times.tolist() == [t for t, _ in expected]
        assert np.max(np.abs(samples.states.matrices - np.array([rho for _, rho in expected]))) <= 1e-12
        assert np.max(np.abs(samples.raw_traces - 1.0)) <= 1e-12

    @pytest.mark.parametrize("dim, after", [(2, 0), (2, 7), (16, 0), (16, 7)])
    def test_a_drift_inside_the_batch_steps_every_later_interval_alone(self, monkeypatch, dim, after):
        # 2.0 / 0.01 sampled every 5 steps is 40 full-length intervals, one batch, and
        # 41 samples in chunks of 16.  A propagator that drifts at sample after + 1 fails
        # the check there: samples 1 to after keep their batched states, and every later
        # interval, also in the later chunks whose batched states would pass, is stepped
        # alone and replayed as five steps.  With a one-step replay that passes, the run
        # ends with the times of the undrifted run, bit for bit; with one that drifts by
        # 1e-3, it fails at the first replayed step, as a run stepped alone would.  At
        # d = 16 the batch is propagated in operator form (the first of four qubits
        # dephased), and the same holds.
        monkeypatch.setattr(channels, "CHUNK_ENTRIES", 16 * dim**2)
        d0, g = DensityOperator(projector(KETS.x_plus)), dephasing_generator(1.0)
        if dim == 16:
            d0 = DensityOperator(projector(np.kron(KETS.x_plus, np.eye(8)[0])))
            g = LindbladGenerator(np.zeros((16, 16)), [np.kron(pauli("z"), np.eye(8))])
        reference = evolve_lindblad(g, d0, 2.0, 0.01, sample_every=5)
        applied = drifting(monkeypatch, per_step=0.0, after=after)
        trajectory = evolve_lindblad(g, d0, 2.0, 0.01, sample_every=5)
        assert applied == [40] + [None] * 6 * (40 - after)
        assert trajectory.times.tobytes() == reference.times.tobytes()
        kept = slice(0, after + 1)
        assert trajectory.states.matrices[kept].tobytes() == reference.states.matrices[kept].tobytes()
        assert np.max(np.abs(trajectory.states.matrices - reference.states.matrices)) < 1e-12
        monkeypatch.undo()
        applied = drifting(monkeypatch, per_step=1e-3, after=after)
        t = 0.0
        for _ in range(5 * after + 1):
            t += 0.01
        with pytest.raises(IntegrationError, match=rf"^trace drift 1\.000e-03 exceeds 1e-07 at t={t:.6g}$") as info:
            evolve_lindblad(g, d0, 2.0, 0.01, sample_every=5)
        assert info.value.time == t and applied == [40, None, None]

    def test_batch_powers_raise_the_peak_by_at_most_one_d4_array(self, monkeypatch):
        # At d = 8, T and each of its powers is a 64 x 64 complex array (64 KiB).  1000
        # intervals of 4 steps are propagated at once, with powers up to T^2048, and the
        # run peaks no higher than one whose every interval is stepped alone (the batch is
        # filled with NaN, which fails the check at its first sample), plus one such
        # array.  Keeping the ten powers would add 0.15 MB.
        rng = np.random.default_rng(163)
        g = LindbladGenerator(random_hermitian(rng, 8), [0.3 * random_complex(rng, (8, 8))])
        d0 = random_density(rng, 8)
        batched, stepped = batched_and_stepped_peaks(monkeypatch, lambda: evolve_lindblad(g, d0, 4.0, 0.001, 4))
        assert batched <= stepped + 16 * 8**4

    def test_an_operator_form_batch_keeps_no_extra_state(self, monkeypatch):
        # At d = 16 each of 200 intervals of 2 steps is propagated from the state before
        # it, read back from the trajectory's own array, and the run peaks no higher than
        # one whose every interval is stepped alone, plus one 16 x 16 complex array.
        rng = np.random.default_rng(164)
        g = LindbladGenerator(random_hermitian(rng, 16), [0.3 * random_complex(rng, (16, 16))])
        d0 = random_density(rng, 16)
        batched, stepped = batched_and_stepped_peaks(monkeypatch, lambda: evolve_lindblad(g, d0, 0.4, 0.001, 2))
        assert batched <= stepped + 16 * 16**2

    @pytest.mark.parametrize("replayed", [False, True])
    def test_sample_times_do_not_depend_on_sample_every(self, monkeypatch, replayed):
        # 0.105 / 0.01 is ten full steps and a shorter one.  Sampled every step and
        # every fourth step, the shared samples (steps 0, 4 and 8) and the end have
        # the same times bit for bit, also when every interval of more than one step
        # drifts and is replayed one step at a time.  The clock sums its steps, so the
        # end is near t_end but not at it.
        if replayed:
            drifting(monkeypatch, per_step=0.0)
        d0 = DensityOperator(projector(KETS.x_plus))
        every, fourth = (evolve_lindblad(dephasing_generator(1.0), d0, 0.105, 0.01, sample_every=k).times
                         for k in (1, 4))
        assert (len(every), len(fourth)) == (12, 4)
        assert every[:9:4].tobytes() == fourth[:3].tobytes() and every[-1] == fourth[-1]
        assert every[-1] == pytest.approx(0.105, abs=1e-15) and every[-1] != 0.105

    def test_sample_times_are_the_sum_of_the_steps_one_at_a_time(self):
        # dt = 0.001 is not a power of two, so the order of the sum shows in the last
        # bits (adding it 10^6 times does not give 10^6 * 0.001).  Over 10^6 full steps, with and without a shorter
        # last one, and sampled every 1, 7 and 10^4 steps, the times are those of a Python
        # loop adding one step at a time, bit for bit; so are those of a run.
        n_full, remainder = step_schedule(1000.0004, 0.001, 10**4)
        assert n_full == 10**6 and remainder > 0.0
        clock = np.empty(n_full + 2)  # clock[i]: the time after i steps, the last the remainder
        clock[0] = t = 0.0
        for i in range(1, n_full + 1):
            t += 0.001
            clock[i] = t
        clock[-1] = t + remainder
        assert clock[n_full] != n_full * 0.001
        for every in (1, 7, 10**4):
            for last in (0.0, remainder):
                n_steps = n_full + (last > 0.0)
                expected = clock[np.append(np.arange(0, n_steps, every), n_steps)]
                assert channels._sample_times(n_full, last, 0.001, every).tobytes() == expected.tobytes()
        d0 = DensityOperator(projector(KETS.x_plus))
        run = evolve_lindblad(dephasing_generator(1.0), d0, 1000.0004, 0.001, 10**4)
        assert run.times.tobytes() == clock[np.append(np.arange(0, n_full + 1, 10**4), n_full + 1)].tobytes()

    @pytest.mark.parametrize("dim", [2, 8, 16])
    def test_one_propagator_application_per_sample_interval(self, dim, monkeypatch):
        # 0.105 / 0.01 is ten full steps and a shorter one; with sample_every = 4
        # the intervals hold 4, 4 and 3 steps.  The two full-length intervals are one
        # application that writes both states into `out`, and the last interval is
        # another: two applications, not eleven, where T is tabulated (d <= 8) and in
        # operator form (d = 16) alike.
        rng = np.random.default_rng(160 + dim)
        g = LindbladGenerator(random_hermitian(rng, dim), [random_complex(rng, (dim, dim))])
        applied = []
        real_propagator = channels._taylor_propagator

        def counting_propagator(*args):
            propagate = real_propagator(*args)
            return lambda *call: applied.append(call) or propagate(*call)

        monkeypatch.setattr(channels, "_taylor_propagator", counting_propagator)
        samples = evolve_lindblad(g, random_density(rng, dim), 0.105, 0.01, sample_every=4)
        assert len(samples) == 4
        calls = [(full, last, len(out[0]) if out else None) for _, full, last, *out in applied]
        assert calls == [(4, False, 2), (2, True, None)]

    @pytest.mark.parametrize("source", ["dephasing", "precession", "amplitude_damping", 2, 4, 8])
    def test_taylor_table_equals_horner_on_the_identity(self, source):
        # T starts Horner from I + (h/4) G, not from G @ I; T stays the same bytes,
        # and the propagator's one-step matvec reads T's columns back exactly.
        if isinstance(source, str):
            g = load_scenario(str(REPO / "scenarios" / f"{source}.json")).generator
        else:
            rng = np.random.default_rng(170 + source)
            g = LindbladGenerator(random_hermitian(rng, source), [random_complex(rng, (source, source))])
        g_mat, n = generator_matrix(g), g.dim
        eye = np.eye(n * n, dtype=complex)
        for h in (0.001, 0.01, 0.37):
            old = channels._taylor_polynomial(g_mat.__matmul__, eye, h)  # first product g_mat @ eye
            assert channels._taylor_polynomial(g_mat.__matmul__, eye, h, g_mat).tobytes() == old.tobytes()
            propagate = channels._taylor_propagator(g, h)
            columns = [propagate(e.reshape(n, n), 1, False).reshape(-1) for e in eye]
            assert np.array_equal(np.column_stack(columns), old)

    def test_step_cap(self):
        assert step_schedule(MAX_STEPS * 0.5, 0.5, MAX_STEPS) == (MAX_STEPS, 0.0)
        with pytest.raises(ValidationError, match="cap"):
            step_schedule((MAX_STEPS + 1) * 0.5, 0.5, MAX_STEPS)
        with pytest.raises(ValidationError, match="cap"):
            step_schedule(MAX_STEPS * 0.5 + 0.25, 0.5, MAX_STEPS)  # the partial step is one too many

    @pytest.mark.parametrize("sample_every", [1, 3])
    def test_sample_cap(self, sample_every):
        # Step 0 plus MAX_SAMPLES - 1 emitting steps is exactly the cap; one
        # more step emits one sample too many (at t_end, if not on the cadence).
        steps = (MAX_SAMPLES - 1) * sample_every
        assert step_schedule(steps * 0.5, 0.5, sample_every) == (steps, 0.0)
        with pytest.raises(ValidationError, match="cap"):
            step_schedule((steps + 1) * 0.5, 0.5, sample_every)
        with pytest.raises(ValidationError, match="cap"):
            step_schedule(steps * 0.5 + 0.25, 0.5, sample_every)

    def test_too_many_samples_rejected_before_work(self):
        # 10^6 steps, within MAX_STEPS, but each one emits a sample.
        d0 = DensityOperator(projector(KETS.x_plus))
        with time_limit(5.0):
            with pytest.raises(ValidationError, match="cap"):
                evolve_lindblad(dephasing_generator(1.0), d0, 1e4, 0.01, sample_every=1)

    def test_huge_step_count_rejected_before_work(self):
        d0 = DensityOperator(projector(KETS.x_plus))
        with time_limit(5.0):
            with pytest.raises(ValidationError, match="cap"):
                evolve_lindblad(dephasing_generator(1.0), d0, 1e13, 0.01, sample_every=10**9)

    def test_unstable_step_raises_integration_error(self):
        d0 = DensityOperator(projector(KETS.x_plus))
        with pytest.raises(IntegrationError) as info:
            evolve_lindblad(dephasing_generator(1.0), d0, 50.0, 5.0)
        assert info.value.time > 0.0

    def test_non_finite_step_raises_at_that_step(self):
        # dt = 5 grows the off-diagonals ~291x per step until the trace turns
        # NaN at step 127; the run stops there, without numpy warnings.
        d0 = DensityOperator(projector(KETS.x_plus))
        with pytest.raises(IntegrationError) as info:
            evolve_lindblad(dephasing_generator(1.0), d0, 5000.0, 5.0, sample_every=1000)
        assert info.value.time == pytest.approx(635.0)

    def test_invalid_emitted_state_raises_at_its_time(self):
        # dt = 5 multiplies the off-diagonals ~291x per step: the state emitted
        # at t = 5 has eigenvalue 0.5 - 145.5.
        d0 = DensityOperator(projector(KETS.x_plus))
        message = r"^emitted state invalid \(density is not positive: min eigenvalue = -1\.450e\+02\)"
        with pytest.raises(IntegrationError, match=message + " at t=5$") as info:
            evolve_lindblad(dephasing_generator(1.0), d0, 5000.0, 5.0, sample_every=1)
        assert info.value.time == 5.0

    def test_invalid_state_wins_over_a_later_drift_failure_in_its_chunk(self, monkeypatch):
        # Sampled every 100 steps, the state at t = 500 is not positive, the one at
        # t = 1000 is not finite, and the trace turns NaN at t = 1005, while samples
        # 0-2 are still pending in the first chunk.
        assert channels.chunk_length(2) > 3
        d0 = DensityOperator(projector(KETS.x_plus))

        def run():
            return evolve_lindblad(dephasing_generator(1.0), d0, 5000.0, 5.0, sample_every=100)

        calls = count_eigensolves(monkeypatch)
        with pytest.raises(IntegrationError, match="^emitted state invalid .* at t=500$"):
            run()
        assert calls == [1]  # samples 1-2 fail their finite check unsolved; sample 0 on d0's spectrum, 1 alone
        # A stack check that accepts every state leaves the drift failure to be reported.
        unchecked = lambda m, psd_atol, stack: (m, SimpleNamespace(eigenvalues=m[..., 0].real, eigenvectors=m))  # noqa: E731
        monkeypatch.setattr(channels, "_checked", unchecked)
        with pytest.raises(IntegrationError, match="^trace drift nan exceeds 1e-07 at t=1005$"):
            run()

    def test_invalid_state_wins_over_a_drift_failure_chunks_later(self, monkeypatch):
        # In chunks of 16 d = 2 states, sampled every step: the state at t = 5 (chunk 0)
        # is not positive and the trace turns NaN at t = 635 (sample 127, chunk 7).
        # The earliest failing sample is the error, found by one solve of chunk 0 after
        # sample 0 (checked on d0's spectrum) and the first invalid state of it checked alone.
        monkeypatch.setattr(channels, "CHUNK_ENTRIES", 16 * 2**2)
        d0 = DensityOperator(projector(KETS.x_plus))
        calls = count_eigensolves(monkeypatch)
        message = r"^emitted state invalid \(density is not positive: min eigenvalue = -1\.450e\+02\) at t=5$"
        with pytest.raises(IntegrationError, match=message) as info:
            evolve_lindblad(dephasing_generator(1.0), d0, 5000.0, 5.0, sample_every=1)
        assert info.value.time == 5.0
        assert calls == [15, 1]

    def test_a_replay_that_passes_keeps_the_chunks_full(self, monkeypatch):
        # A propagator that scales rho by 1 + 1e-6 over more than one step fails the
        # drift check in every 5-step interval, and the one-step replay passes: 41
        # samples, kept in full chunks of 16 (a budget of 16 d = 2 states) and one
        # shorter last chunk.
        monkeypatch.setattr(channels, "CHUNK_ENTRIES", 16 * 2**2)
        drifting(monkeypatch, per_step=0.0)
        d0 = DensityOperator(projector(KETS.x_plus))
        calls = count_eigensolves(monkeypatch)
        trajectory = evolve_lindblad(dephasing_generator(1.0), d0, 2.0, 0.01, sample_every=5)
        assert calls == [15, 16, 9]  # sample 0 takes d0's spectrum
        assert trajectory.times.tolist() == pytest.approx([0.05 * i for i in range(41)], abs=1e-12)

    def test_cumulative_drift_adds_every_replayed_step(self, monkeypatch, caplog):
        # Every 5-step interval drifts by 1e-6 and is replayed as five steps that drift
        # by 1e-9 each: 40 intervals add 200 step drifts, not 40.
        drifting(monkeypatch, per_step=1e-9)
        d0 = DensityOperator(projector(KETS.x_plus))
        with caplog.at_level(logging.DEBUG, logger=channels.__name__):
            evolve_lindblad(dephasing_generator(1.0), d0, 2.0, 0.01, sample_every=5)
        (record,) = [r for r in caplog.records if r.name == channels.__name__]
        assert record.getMessage() == "lindblad trajectory: 200 steps, cumulative trace correction 2.000e-07"

    def test_first_invalid_state_may_open_the_second_chunk(self):
        # RK4 with dt = 1.5 multiplies the dephasing coherence by
        # 1 - 3 + 9/2 - 9/2 + 27/8 = 1.375 per step.  From c0 = 0.5 / 1.375^(C - 1/2),
        # samples 0 .. C - 1 are positive and sample C, the first of the second
        # chunk of C = 1024 d = 2 states, has eigenvalue 0.5 - 0.5 * 1.375^(1/2) = -0.086.
        chunk, dt = channels.chunk_length(2), 1.5
        c0 = 0.5 / 1.375 ** (chunk - 0.5)
        d0 = DensityOperator(np.array([[0.5, c0], [c0, 0.5]]))
        g = dephasing_generator(1.0)
        assert len(evolve_lindblad(g, d0, (chunk - 1) * dt, dt)) == chunk
        with pytest.raises(IntegrationError, match=r"min eigenvalue = -8\.630e-02\)") as info:
            evolve_lindblad(g, d0, (chunk + 3) * dt, dt)
        assert info.value.time == chunk * dt

    @pytest.mark.parametrize("k", [1, 2, 7])
    def test_an_invalid_first_chunk_state_names_its_time(self, monkeypatch, k):
        # As above, from c0 = 0.5 / 1.375^(k - 1/2) sample k is the first state that is
        # not positive.  The first chunk solves samples 1 to k + 3 as one stack, and the
        # failing state, checked alone, is named at its own time, not one sample early.
        dt = 1.5
        c0 = 0.5 / 1.375 ** (k - 0.5)
        d0 = DensityOperator(np.array([[0.5, c0], [c0, 0.5]]))
        calls = count_eigensolves(monkeypatch)
        with pytest.raises(IntegrationError, match=rf"min eigenvalue = -8\.630e-02\) at t={k * dt:g}$") as info:
            evolve_lindblad(dephasing_generator(1.0), d0, (k + 3) * dt, dt)
        assert info.value.time == k * dt
        assert calls == [k + 3] + [1] * k

    @pytest.mark.parametrize("t_end", [0.0, 1.0])
    def test_a_loosely_validated_rho0_fails_at_t0(self, t_end):
        # A d0 accepted with psd_atol = 1e-3 is still held to the integrator's floor of
        # 10 MIN_EIGENVALUE_TOL at sample 0, on the spectrum its validation solved.
        d0 = DensityOperator(np.diag([1.0001, -0.0001]), psd_atol=1e-3)
        assert d0.eigenvalues[0] == pytest.approx(-1e-4)
        message = r"^emitted state invalid \(density is not positive: min eigenvalue = -1\.000e-04\) at t=0$"
        with pytest.raises(IntegrationError, match=message) as info:
            evolve_lindblad(dephasing_generator(1.0), d0, t_end, 0.1)
        assert info.value.time == 0.0

    def test_sample_0_is_held_to_the_floor_alone(self, monkeypatch):
        # Sample 0 checks only d0's smallest eigenvalue against -10 MIN_EIGENVALUE_TOL, with
        # no solve: exactly at the floor it passes, one ulp below it fails at t = 0 with
        # the message of a solve of it alone.
        floor = 10.0 * channels.MIN_EIGENVALUE_TOL
        at, below = (DensityOperator(np.diag([1.0 + e, -e]), psd_atol=1e-3) for e in (floor, np.nextafter(floor, 1.0)))
        assert at.eigenvalues[0] == -floor and below.eigenvalues[0] < -floor
        calls = count_eigensolves(monkeypatch)
        assert evolve_lindblad(dephasing_generator(1.0), at, 0.0, 0.1).states.eigenvalues[0, 0] == -floor
        assert calls == []
        message = r"^emitted state invalid \(density is not positive: min eigenvalue = -1\.000e-06\) at t=0$"
        with pytest.raises(IntegrationError, match=message) as info:
            evolve_lindblad(dephasing_generator(1.0), below, 0.0, 0.1)
        assert info.value.time == 0.0
        assert calls == [1]  # the failing sample 0, named by a solve of it alone

    def test_sample_0_keeps_the_spectrum_of_d0(self, monkeypatch):
        # A d0 whose spectrum comes from its construction (evolve_unitary keeps rho's
        # eigenvalues) passes it on to sample 0 bit for bit; only samples 1 to 5 are solved.
        rng = np.random.default_rng(151)
        d0 = evolve_unitary(random_density(rng, 4), random_hermitian(rng, 4), 0.7)
        g = LindbladGenerator(random_hermitian(rng, 4), [0.3 * random_complex(rng, (4, 4))])
        calls = count_eigensolves(monkeypatch)
        states = evolve_lindblad(g, d0, 0.5, 0.1).states
        assert calls == [5]
        for field, kept in zip(("matrix", "eigenvalues", "eigenvectors"), (d0.matrix, d0.eigenvalues, d0.eigenvectors)):
            assert getattr(states[0], field).tobytes() == kept.tobytes(), field

    def test_blow_up_inside_an_interval_raises_at_that_step(self):
        # d = 16 takes the operator-form path.  Dephasing the first of four
        # qubits with dt = 5 turns the trace NaN at step 126, deep inside the
        # one 200-step interval: the error names t = 630, not t_end.
        jump = np.kron(pauli("z"), np.eye(8))
        ket = np.kron(KETS.x_plus, np.eye(8)[0])
        g = LindbladGenerator(np.zeros((16, 16)), [jump])
        with pytest.raises(IntegrationError) as info:
            evolve_lindblad(g, DensityOperator(projector(ket)), 1000.0, 5.0, sample_every=10**9)
        assert info.value.time == pytest.approx(630.0)

    @pytest.mark.parametrize("dim", [2, 16])
    def test_flow_built_once_per_run(self, monkeypatch, dim):
        # d = 2 builds the supermatrix once and tabulates T from it, a remainder step
        # included, without the flow; d = 16 builds the flow once and applies it four
        # times per operator-form step.
        built, applied, matrices = [], [], []
        build, build_matrix = channels._generator_flow, channels.generator_matrix

        def spy(g):
            built.append(g)
            flow = build(g)
            return lambda rho: applied.append(rho.shape) or flow(rho)

        monkeypatch.setattr(channels, "_generator_flow", spy)
        monkeypatch.setattr(channels, "generator_matrix", lambda g: matrices.append(g) or build_matrix(g))
        rng = np.random.default_rng(146)
        g = LindbladGenerator(random_hermitian(rng, dim), [0.1 * random_complex(rng, (dim, dim))])
        samples = evolve_lindblad(g, random_density(rng, dim), 0.25, 0.1)
        assert len(samples) == 4
        if dim == 2:
            assert matrices == [g] and built == []
        else:
            assert matrices == [] and built == [g] and len(applied) == 12


class TestEvolveChunks:
    """evolve_chunks integrates at the call and validates a chunk per step of iteration;
    evolve_lindblad gathers its chunks."""

    @pytest.mark.parametrize("t_end, dt, sample_every", [
        (1.0, -0.1, 1), (math.nan, 0.1, 1), (1.0, 0.1, 0), (1.0, 0.1, 2.5), (1e13, 0.01, 10**9),
    ], ids=["negative-dt", "nan-t_end", "every-zero", "every-float", "step-cap"])
    def test_a_bad_schedule_raises_at_the_call(self, monkeypatch, t_end, dt, sample_every):
        built = []
        monkeypatch.setattr(channels, "_taylor_propagator", lambda *args: built.append(args))
        with pytest.raises(ValidationError):
            channels.evolve_chunks(dephasing_generator(1.0), DensityOperator(np.eye(2) / 2), t_end, dt, sample_every)
        assert built == []

    @pytest.mark.parametrize("dim, samples", [(2, 1023), (2, 1024), (2, 1025), (16, 15), (16, 16), (16, 17)])
    def test_gathered_chunks_are_the_trajectory(self, monkeypatch, dim, samples):
        # Runs that end inside, at and just past a chunk of chunk_length(dim) states.  The
        # run is propagated before the call returns and validated only as it is iterated,
        # with the solves of evolve_lindblad, one per chunk; sample 0 takes d0's spectrum.
        rng = np.random.default_rng(dim * samples)
        g = LindbladGenerator(random_hermitian(rng, dim), [0.3 * random_complex(rng, (dim, dim))])
        d0, t_end, dt = random_density(rng, dim), (samples - 1) / 1024, 1 / 1024
        calls = count_eigensolves(monkeypatch)
        trajectory = evolve_lindblad(g, d0, t_end, dt)
        solves, chunk = calls.copy(), channels.chunk_length(dim)
        calls.clear()
        build, built = channels._taylor_propagator, []
        monkeypatch.setattr(channels, "_taylor_propagator", lambda *args: built.append(args) or build(*args))
        stream = channels.evolve_chunks(g, d0, t_end, dt)
        assert (len(stream), len(built), calls) == (samples, 1, [])
        chunks = list(stream)
        lengths = [min(chunk, samples - i) for i in range(0, samples, chunk)]
        assert [len(times) for times, _, _ in chunks] == lengths
        assert calls == solves == [lengths[0] - 1] + lengths[1:]
        gathered = [np.concatenate(parts) for parts in zip(*(
            (times, raw_traces, states.matrices, states.eigenvalues, states.eigenvectors)
            for times, raw_traces, states in chunks))]
        expected = [trajectory.times, trajectory.raw_traces, trajectory.states.matrices,
                    trajectory.states.eigenvalues, trajectory.states.eigenvectors]
        assert [a.tobytes() for a in gathered] == [a.tobytes() for a in expected]

    def test_an_invalid_state_raises_when_iteration_reaches_its_chunk(self, monkeypatch):
        # As in test_first_invalid_state_may_open_the_second_chunk: sample C, the first of
        # the second chunk of C states, is not positive.  The first chunk is yielded.
        chunk, dt = channels.chunk_length(2), 1.5
        c0 = 0.5 / 1.375 ** (chunk - 0.5)
        d0 = DensityOperator(np.array([[0.5, c0], [c0, 0.5]]))
        calls = count_eigensolves(monkeypatch)
        chunks = iter(channels.evolve_chunks(dephasing_generator(1.0), d0, (chunk + 3) * dt, dt))
        assert calls == []
        times, _, states = next(chunks)
        assert len(states) == chunk and times[-1] == (chunk - 1) * dt
        with pytest.raises(IntegrationError, match=r"min eigenvalue = -8\.630e-02\)") as info:
            next(chunks)
        assert info.value.time == chunk * dt

    def test_a_drift_failure_raises_once_the_chunks_before_it_are_validated(self, monkeypatch):
        # In chunks of 16 d = 2 states, 41 samples: the drift check fails at sample 21, in
        # the second chunk, and its one-step replay drifts by 1e-3.  The call returns; the
        # first step of iteration validates samples 0 to 20 and raises, yielding no chunk.
        monkeypatch.setattr(channels, "CHUNK_ENTRIES", 16 * 2**2)
        drifting(monkeypatch, per_step=1e-3, after=20)
        d0 = DensityOperator(projector(KETS.x_plus))
        calls = count_eigensolves(monkeypatch)
        chunks = iter(channels.evolve_chunks(dephasing_generator(1.0), d0, 2.0, 0.01, sample_every=5))
        assert calls == []
        t = 0.0
        for _ in range(5 * 20 + 1):
            t += 0.01
        with pytest.raises(IntegrationError, match=rf"^trace drift 1\.000e-03 exceeds 1e-07 at t={t:.6g}$") as info:
            next(chunks)
        assert info.value.time == t and calls == [15, 5]  # sample 0 takes d0's spectrum


class TestTrajectory:
    @staticmethod
    def _run() -> Trajectory:
        # 13 samples at d = 3.
        rng = np.random.default_rng(147)
        g = LindbladGenerator(random_hermitian(rng, 3), [0.3 * random_complex(rng, (3, 3))])
        return evolve_lindblad(g, random_density(rng, 3), 0.12, 0.01)

    def test_sample_i_is_entry_i_of_each_array(self):
        trajectory = self._run()
        times, raw_traces, states = trajectory.times, trajectory.raw_traces, trajectory.states
        assert isinstance(trajectory, Trajectory) and len(trajectory) == len(states) == 13
        assert times.tolist() == pytest.approx([0.01 * i for i in range(13)], abs=1e-15)
        assert times.shape == raw_traces.shape == (13,) and times.dtype == raw_traces.dtype == float
        for what, i in {"index": 3, "last": -1, "negative": -13}.items():
            state = states[i]
            assert np.array_equal(state.matrix, states.matrices[i]), what
            assert state.eigenvalues[0] == states.eigenvalues[i, 0], what
        assert np.array_equal(states[3:12:2].matrices, states.matrices[3:12:2])
        for i in (-14, 13):
            with pytest.raises(IndexError):
                states[i]
        # The list view is gone: a trajectory is read through its arrays only.
        for read in (lambda: trajectory[0], lambda: trajectory[3:12:2], lambda: iter(trajectory)):
            with pytest.raises(TypeError):
                read()
        assert not hasattr(rholab, "LindbladSample") and not hasattr(channels, "LindbladSample")

    def test_states_equal_density_operators_of_the_same_matrices(self):
        trajectory = self._run()
        for state in [*trajectory.states[::4], trajectory.states[-1]]:
            alone = DensityOperator(state.matrix, 10.0 * channels.MIN_EIGENVALUE_TOL)
            for attr in ("matrix", "eigenvalues", "eigenvectors"):
                assert np.array_equal(getattr(state, attr), getattr(alone, attr)), attr
        assert isinstance(trajectory.states, DensityStack)
        assert all(np.shares_memory(s.matrix, trajectory.states.matrices) for s in trajectory.states)

    def test_is_read_only_and_checks_its_lengths(self):
        trajectory = self._run()
        times, raw_traces, states = trajectory.times, trajectory.raw_traces, trajectory.states
        for name in ("times", "raw_traces", "states"):
            with pytest.raises(AttributeError):
                setattr(trajectory, name, getattr(trajectory, name))
        assert not (times.flags.writeable or raw_traces.flags.writeable or states.matrices.flags.writeable)
        # Built by hand from sequences and a caller's writable array, which it copies.
        mine = times.copy()
        rebuilt = Trajectory(mine, raw_traces.tolist(), states)
        mine[0] = 99.0
        assert (rebuilt.times.tolist(), rebuilt.raw_traces.tolist()) == (times.tolist(), raw_traces.tolist())
        assert rebuilt.states is states and not rebuilt.times.flags.writeable
        for bad in ((times[:-1], raw_traces, states), (times, raw_traces[1:], states),
                    (times, raw_traces, states[:-1]), (times[None], raw_traces[None], states),
                    (times, raw_traces, list(states))):
            with pytest.raises(ShapeError):
                Trajectory(*bad)

    def test_times_and_raw_traces_are_finite_reals(self):
        trajectory = self._run()
        times, raw_traces, states = trajectory.times, trajectory.raw_traces, trajectory.states
        for bad in (1j, math.nan, math.inf, "0.5"):
            entries = times.tolist()
            entries[5] = bad
            with pytest.raises(ValidationError, match="finite real"):
                Trajectory(entries, raw_traces, states)
            with pytest.raises(ValidationError, match="finite real"):
                Trajectory(times, entries, states)
        with pytest.raises(ValidationError, match="finite real"):
            Trajectory(np.ones(13, dtype=bool), raw_traces, states)
        assert Trajectory(range(13), raw_traces, states).times.tolist() == list(range(13))

    def test_states_are_one_stack_of_one_dimension(self):
        # The states are one DensityStack, so two d = 2 states and two d = 3 states,
        # which no stack holds, make no trajectory; nor does an empty stack.
        rng = np.random.default_rng(148)
        mixed = [random_density(rng, 2), random_density(rng, 2), random_density(rng, 3), random_density(rng, 3)]
        with pytest.raises(ShapeError):
            Trajectory(range(4), [1.0] * 4, mixed)
        with pytest.raises(ShapeError):
            stacked(mixed)
        with pytest.raises(ValidationError):
            DensityStack([s.matrix for s in mixed])
        with pytest.raises(ShapeError):
            DensityStack(np.empty((0, 2, 2)))


class TestChunkLength:
    def test_a_chunk_holds_a_fixed_number_of_matrix_entries(self):
        lengths = {d: channels.chunk_length(d) for d in (1, 2, 3, 4, 8, 16, 64, 65, 100)}
        assert lengths == {1: 4096, 2: 1024, 3: 455, 4: 256, 8: 64, 16: 16, 64: 1, 65: 1, 100: 1}

    @pytest.mark.parametrize("name", ["dephasing", "precession", "amplitude_damping"])
    def test_a_shipped_trajectory_is_one_chunk(self, monkeypatch, name):
        s = load_scenario(str(REPO / "scenarios" / f"{name}.json"))
        calls = count_eigensolves(monkeypatch)
        trajectory = evolve_lindblad(s.generator, s.rho0, s.t_end, s.dt, s.sample_every)
        assert calls == [len(trajectory) - 1] and len(trajectory) in (21, 33)  # sample 0 takes rho0's spectrum

    def test_a_long_run_takes_one_solve_per_chunk(self, monkeypatch):
        # dt = 0.001 with sample_every = 1 is 4001 d = 2 samples: three full chunks of
        # 1024 states and the rest.  Sample 0 takes rho0's spectrum, so the first solves 1023.
        s = load_scenario(str(REPO / "scenarios" / "amplitude_damping.json"))
        calls = count_eigensolves(monkeypatch)
        assert len(evolve_lindblad(s.generator, s.rho0, s.t_end, 0.001)) == 4001
        assert calls == [1023, 1024, 1024, 929]

    @pytest.mark.parametrize("dim, t_end, dt, seed", [(2, 2.0, 0.001, 148), (4, 3.0, 0.01, 149)])
    def test_chunk_length_changes_no_output_bit(self, monkeypatch, dim, t_end, dt, seed):
        # 2001 samples at d = 2 and 301 at d = 4, run as shipped and in chunks of 16.
        rng = np.random.default_rng(seed)
        g = LindbladGenerator(random_hermitian(rng, dim), [0.3 * random_complex(rng, (dim, dim))])
        scenario = Scenario(random_density(rng, dim), g, t_end, dt, 1)
        calls = count_eigensolves(monkeypatch)

        def run():
            calls.clear()
            trajectory = evolve_lindblad(g, scenario.rho0, t_end, dt)
            solves = calls.copy()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                return solves, trajectory, list(trajectory_rows(scenario))

        shipped_solves, shipped, shipped_rows = run()
        monkeypatch.setattr(channels, "CHUNK_ENTRIES", 16 * dim**2)
        small_solves, small, small_rows = run()
        assert (shipped_solves, small_solves) == {2: ([1023, 977], [15] + [16] * 124 + [1]),
                                                  4: ([255, 45], [15] + [16] * 17 + [13])}[dim]
        assert (shipped.times.tolist(), shipped.raw_traces.tolist()) == (small.times.tolist(), small.raw_traces.tolist())
        for attr in ("matrices", "eigenvalues", "eigenvectors"):
            assert getattr(shipped.states, attr).tobytes() == getattr(small.states, attr).tobytes(), attr
        assert np.array(shipped_rows).tobytes() == np.array(small_rows).tobytes()


_STATE = DensityOperator(np.eye(2) / 2.0)

WRONG_TYPE_CALLS = {
    "eigenmatrix_decompose": (lambda: eigenmatrix_decompose(np.eye(4)), "a Superoperator, got ndarray"),
    "superop_from_kraus": (lambda: superop_from_kraus([np.eye(2)]), "a KrausChannel, got list"),
    "kraus_from_decomposition": (lambda: kraus_from_decomposition(np.eye(2)), "an EigenmatrixDecomposition, got ndarray"),
    "lindblad_apply": (lambda: lindblad_apply(np.eye(2), _STATE), "a LindbladGenerator, got ndarray"),
    "generator_matrix": (lambda: generator_matrix(None), "a LindbladGenerator, got NoneType"),
    "lindblad_spectrum": (lambda: lindblad_spectrum(None), "a LindbladGenerator, got NoneType"),
    "evolve_lindblad": (lambda: evolve_lindblad(None, _STATE, 1, 0.1), "a LindbladGenerator, got NoneType"),
}


@pytest.mark.parametrize("call, expected", WRONG_TYPE_CALLS.values(), ids=WRONG_TYPE_CALLS.keys())
def test_an_argument_of_the_wrong_type_raises_validation_error(call, expected):
    with pytest.raises(ValidationError, match=f"^expected {expected}$"):
        call()


class TestLindbladSpectrum:
    def test_trivial_generator(self):
        g = LindbladGenerator(np.zeros((2, 2)), [])
        spectrum = lindblad_spectrum(g)
        assert all(abs(lam) < 1e-12 for lam, _ in spectrum)

    def test_dephasing_spectrum(self):
        gamma = 0.8
        spectrum = lindblad_spectrum(dephasing_generator(gamma))
        values = sorted((lam.real for lam, _ in spectrum), reverse=True)
        assert np.allclose(values, [0.0, 0.0, -2.0 * gamma, -2.0 * gamma], atol=1e-12)
        assert all(abs(lam.imag) < 1e-12 for lam, _ in spectrum)

    def test_traceless_eigenmatrices(self):
        rng = np.random.default_rng(142)
        g = LindbladGenerator(random_hermitian(rng, 2), [random_complex(rng, (2, 2))])
        for lam, q in lindblad_spectrum(g):
            if abs(lam) > 1e-9:
                assert abs(np.trace(q)) < 1e-9

    def test_zero_eigenvalue_exists(self):
        rng = np.random.default_rng(143)
        g = LindbladGenerator(
            random_hermitian(rng, 3), [random_complex(rng, (3, 3)) for _ in range(2)]
        )
        assert min(abs(lam) for lam, _ in lindblad_spectrum(g)) < 1e-9

    def test_eigenpairs_satisfy_flow(self):
        # each pair gives an exact solution e^{lam t} q of the flow
        rng = np.random.default_rng(146)
        g = LindbladGenerator(random_hermitian(rng, 2), [random_complex(rng, (2, 2))])
        mat = generator_matrix(g)
        for lam, q in lindblad_spectrum(g):
            flow = (mat @ q.reshape(-1)).reshape(2, 2)
            assert np.max(np.abs(flow - lam * q)) < 1e-11

    def test_spectral_reconstruction_matches_integrator(self):
        rng = np.random.default_rng(144)
        for _ in range(5):
            n = 2
            g = LindbladGenerator(
                random_hermitian(rng, n), [0.8 * random_complex(rng, (n, n))]
            )
            d0 = random_density(rng, n)
            spectrum = lindblad_spectrum(g)
            basis = np.column_stack([q.reshape(-1) for _, q in spectrum])
            coeffs = np.linalg.solve(basis, d0.matrix.reshape(-1))
            t = 0.5
            rebuilt = sum(
                c * np.exp(lam * t) * q
                for c, (lam, q) in zip(coeffs, spectrum)
            )
            samples = evolve_lindblad(g, d0, t, 0.0005, sample_every=10**9)
            assert np.max(np.abs(rebuilt - samples.states[-1].matrix)) < 1e-6

    def test_pairs_in_the_documented_order(self):
        # Descending real part, then descending imaginary part, ties in the order eig
        # gives them: Python's stable sort of eig's pairs.  The zero generator ties every
        # eigenvalue, a dephasing generator ties them in pairs.
        rng = np.random.default_rng(148)
        generators = [LindbladGenerator(np.zeros((3, 3)), []), dephasing_generator(0.8)]
        generators += [LindbladGenerator(np.diag(np.arange(n) * 1.0), [np.diag(np.arange(n) * 0.5)]) for n in (3, 4)]
        generators += [LindbladGenerator(random_hermitian(rng, n), [random_complex(rng, (n, n))]) for n in (1, 2, 5)]
        for g in generators:
            values, vectors = np.linalg.eig(generator_matrix(g))
            order = sorted(range(len(values)), key=lambda i: (-values[i].real, -values[i].imag))
            pairs = lindblad_spectrum(g)
            assert [lam for lam, _ in pairs] == [complex(values[i]) for i in order]
            for (_, q), i in zip(pairs, order):
                assert np.array_equal(q, vectors[:, i].reshape(g.dim, g.dim))

    @pytest.mark.parametrize("dim", [2, 4, 16])
    def test_generator_matrix_matches_kronecker_form(self, dim):
        # vec(A X B) = kron(A, B^T) vec(X) over row-major vec, term by term.
        rng = np.random.default_rng(147 + dim)
        scale = 1.0 / math.sqrt(dim)
        h = scale * random_hermitian(rng, dim)
        jumps = [scale * random_complex(rng, (dim, dim)) for _ in range(3)]
        eye = np.eye(dim)
        expected = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
        for op in jumps:
            gram = op.conj().T @ op
            expected += np.kron(op, op.conj()) - 0.5 * (np.kron(gram, eye) + np.kron(eye, gram.T))
        assert np.max(np.abs(generator_matrix(LindbladGenerator(h, jumps)) - expected)) < 1e-13

    @pytest.mark.parametrize("dim", [1, 3])
    def test_generator_matrix_consistency(self, dim):
        # Column (i, j) of the matrix is the flow of the basis matrix E_ij,
        # written out as commutator plus dissipator.
        rng = np.random.default_rng(145)
        h = random_hermitian(rng, dim)
        jumps = [random_complex(rng, (dim, dim)) for _ in range(2)]
        g = LindbladGenerator(h, jumps)
        explicit = np.column_stack([explicit_flow(h, jumps, e).reshape(-1) for e in basis_matrices(dim)])
        assert np.max(np.abs(generator_matrix(g) - explicit)) < 1e-12
        d = random_density(rng, dim)
        assert np.max(np.abs(lindblad_apply(g, d) - explicit_flow(h, jumps, d.matrix))) < 1e-12
