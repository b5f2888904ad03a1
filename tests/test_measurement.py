"""Every projective measurement goes through the one pinching kernel
`linalg.pinch`; these tests hold it to the per-projector formulas
sum_m R_m rho R_m and <a_m b_n|rho|a_m b_n>, written out term by term."""

import numpy as np
import pytest

from rholab import (
    DensityOperator,
    ProperMixture,
    ShapeError,
    ValidationError,
    gram_factor,
    local_measurement,
    measurement_channel,
    measurement_probabilities,
    no_signalling_check,
    partial_trace_a,
)
from rholab.bipartite import BipartiteSpace
from rholab.linalg import pinch
from conftest import count_eigensolves, random_density, random_unitary

SHAPES = [(2, 2), (2, 3), (3, 2), (4, 4)]
SIDES = ["a", "b", "both"]


def reference_channel(rho, basis):
    """sum_m R_m rho R_m with R_m = |b_m><b_m|."""
    out = np.zeros_like(rho)
    for k in basis:
        r = np.outer(k, k.conj())
        out += r @ rho @ r
    return out


def reference_factor_projectors(basis, dim):
    if basis is None:
        return [np.eye(dim, dtype=complex)]
    return [np.outer(k, k.conj()) for k in basis]


def reference_local(rho, basis_a, basis_b, dim_a, dim_b):
    """sum (R_m x R_n) rho (R_m x R_n); a missing basis is the identity."""
    out = np.zeros_like(rho)
    for pa in reference_factor_projectors(basis_a, dim_a):
        for pb in reference_factor_projectors(basis_b, dim_b):
            r = np.kron(pa, pb)
            out += r @ rho @ r
    return out


def reference_probabilities(rho, basis_a, basis_b):
    """p[m, n] = <a_m b_n| rho |a_m b_n>."""
    probs = np.empty((len(basis_a), len(basis_b)))
    for m, a in enumerate(basis_a):
        for n, b in enumerate(basis_b):
            joint = np.kron(a, b)
            probs[m, n] = np.vdot(joint, rho @ joint).real
    return probs


def random_basis(rng, dim):
    u = random_unitary(rng, dim)
    return [u[:, i] for i in range(dim)]


@pytest.mark.parametrize("dim_a,dim_b", SHAPES)
class TestAgainstPerProjectorReference:
    def test_measurement_channel(self, dim_a, dim_b):
        rng = np.random.default_rng(400 + 10 * dim_a + dim_b)
        for _ in range(5):
            d = random_density(rng, dim_a * dim_b)
            basis = random_basis(rng, d.dim)
            out = measurement_channel(d, basis)
            assert isinstance(out, DensityOperator)
            assert np.max(np.abs(out.matrix - reference_channel(d.matrix, basis))) < 1e-12

    @pytest.mark.parametrize("side", SIDES)
    def test_local_measurement(self, dim_a, dim_b, side):
        rng = np.random.default_rng(500 + 10 * dim_a + dim_b)
        for _ in range(5):
            d = random_density(rng, dim_a * dim_b)
            basis_a = random_basis(rng, dim_a) if side in ("a", "both") else None
            basis_b = random_basis(rng, dim_b) if side in ("b", "both") else None
            out = local_measurement(d, basis_a=basis_a, basis_b=basis_b)
            assert isinstance(out, DensityOperator)
            expected = reference_local(d.matrix, basis_a, basis_b, dim_a, dim_b)
            assert np.max(np.abs(out.matrix - expected)) < 1e-12

    def test_measurement_probabilities(self, dim_a, dim_b):
        rng = np.random.default_rng(600 + 10 * dim_a + dim_b)
        for _ in range(5):
            d = random_density(rng, dim_a * dim_b)
            basis_a = random_basis(rng, dim_a)
            basis_b = random_basis(rng, dim_b)
            probs = measurement_probabilities(d, basis_a, basis_b)
            expected = reference_probabilities(d.matrix, basis_a, basis_b)
            assert probs.shape == (dim_a, dim_b)
            assert np.max(np.abs(probs - expected)) < 1e-12

    def test_no_signalling_check(self, dim_a, dim_b):
        rng = np.random.default_rng(700 + 10 * dim_a + dim_b)
        space = BipartiteSpace(dim_a, dim_b)
        for _ in range(5):
            d = random_density(rng, dim_a * dim_b)
            basis_a = random_basis(rng, dim_a)
            before, after = no_signalling_check(d, basis_a)
            measured = reference_local(d.matrix, basis_a, None, dim_a, dim_b)
            assert np.max(np.abs(before - partial_trace_a(d.matrix, space))) < 1e-12
            assert np.max(np.abs(after - partial_trace_a(measured, space))) < 1e-12


class TestPinch:
    def test_all_ones_mask_is_identity_map(self):
        rng = np.random.default_rng(801)
        d = random_density(rng, 4)
        u = random_unitary(rng, 4)
        assert np.max(np.abs(pinch(d.matrix, u, np.ones((4, 4))) - d.matrix)) < 1e-12

    def test_block_mask_is_degenerate_projector_sum(self):
        # blocks {0, 1} and {2}: R_0 has rank two, R_1 rank one
        rng = np.random.default_rng(802)
        d = random_density(rng, 3)
        u = random_unitary(rng, 3)
        blocks = np.zeros((3, 3))
        blocks[:2, :2] = 1.0
        blocks[2, 2] = 1.0
        r0 = u[:, :2] @ u[:, :2].conj().T
        r1 = np.outer(u[:, 2], u[:, 2].conj())
        expected = r0 @ d.matrix @ r0 + r1 @ d.matrix @ r1
        assert np.max(np.abs(pinch(d.matrix, u, blocks) - expected)) < 1e-12


def test_no_signalling_check_builds_no_state(monkeypatch):
    """The measured intermediate stays a plain matrix: no validation, so no
    eigensolve."""
    rng = np.random.default_rng(803)
    d = random_density(rng, 4)
    basis_a = random_basis(rng, 2)

    calls = count_eigensolves(monkeypatch)
    no_signalling_check(d, basis_a)
    assert calls == []
    local_measurement(d, basis_a=basis_a)  # the patch does reach the eigensolver
    assert calls == [1]


@pytest.mark.parametrize(
    "measure",
    [
        lambda d, basis: measurement_channel(d, [np.kron(a, b) for a in basis for b in basis]),
        lambda d, basis: local_measurement(d, basis_a=basis),
        lambda d, basis: local_measurement(d, basis_b=basis),
        lambda d, basis: measurement_probabilities(d, basis, basis),
        lambda d, basis: no_signalling_check(d, basis),
    ],
    ids=["channel", "local_a", "local_b", "probabilities", "no_signalling"],
)
class TestBadBases:
    def test_empty_basis_rejected(self, measure):
        d = DensityOperator(np.eye(4) / 4)
        with pytest.raises(ValidationError, match="basis must not be empty"):
            measure(d, [])

    def test_non_orthonormal_basis_rejected(self, measure):
        d = DensityOperator(np.eye(4) / 4)
        skew = [np.array([1.0, 0.0]), np.array([1.0, 1.0]) / np.sqrt(2.0)]
        with pytest.raises(ValidationError):
            measure(d, skew)

    def test_wrong_dimension_basis_rejected(self, measure):
        d = DensityOperator(np.eye(4) / 4)
        qutrit = list(np.eye(3, dtype=complex))
        with pytest.raises(ShapeError):
            measure(d, qutrit)


@pytest.mark.parametrize("scalar", [0, 1.5, np.float64(1.0), np.array(2.0)], ids=["int", "float", "numpy", "0-d"])
@pytest.mark.parametrize(
    "measure",
    [
        measurement_channel,
        lambda d, basis: local_measurement(d, basis_a=basis),
        lambda d, basis: local_measurement(d, basis_b=basis),
        lambda d, basis: measurement_probabilities(d, basis, basis),
        no_signalling_check,
        lambda d, basis: gram_factor(ProperMixture([(1.0, d.eigenvectors[:, 0])]), basis),
    ],
    ids=["channel", "local_a", "local_b", "probabilities", "no_signalling", "gram_factor"],
)
def test_scalar_basis_raises_shape_error(measure, scalar):
    with pytest.raises(ShapeError, match="expected a basis"):
        measure(DensityOperator(np.eye(4) / 4), scalar)
