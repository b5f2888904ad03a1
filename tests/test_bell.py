import math
import pickle
import tracemalloc

import numpy as np
import pytest

from rholab import (
    DetectorPair,
    GhzReport,
    UnitVector3,
    ValidationError,
    X_AXIS,
    Z_AXIS,
    chsh_value,
    empirical_correlation,
    filter_inequality_demo,
    ghz_check,
    ghz_state,
    hermitian_eig,
    joint_outcome_probabilities,
    joint_up_probability,
    maximal_chsh_orientations,
    no_cloning_demo,
    pair_operator,
    pauli,
    sample_events,
    sigma_n,
    singlet,
    singlet_correlation,
    singlet_variance,
    spin_half_basis,
)
from rholab import bell
from conftest import random_rotation, random_unit_vector, rotated

KETS = spin_half_basis()
SQRT1_2 = 1.0 / math.sqrt(2.0)


def closed_form_eigenvectors(a: UnitVector3):
    """The four displayed eigenvectors of (sigma.a x sigma_z), as
    (eigenvalue, ket) pairs; requires a_perp != 0."""
    az = a.nz
    ap = a.nx + 1j * a.ny
    v1 = math.sqrt((1 - az) / 2) * np.array([0, (az + 1) / ap, 0, 1])
    v2 = math.sqrt((1 + az) / 2) * np.array([(az - 1) / ap, 0, 1, 0])
    v3 = math.sqrt((1 + az) / 2) * np.array([0, (az - 1) / ap, 0, 1])
    v4 = math.sqrt((1 - az) / 2) * np.array([(az + 1) / ap, 0, 1, 0])
    return [(-1.0, v1), (-1.0, v2), (1.0, v3), (1.0, v4)]


def planar_unit(rng) -> UnitVector3:
    """Random unit vector with a_perp bounded away from zero."""
    while True:
        v = random_unit_vector(rng)
        if math.hypot(v.nx, v.ny) > 1e-2:
            return v


class TestSingletCorrelation:
    def test_aligned_detectors(self):
        assert singlet_correlation(DetectorPair(Z_AXIS, Z_AXIS)) == pytest.approx(-1.0, abs=1e-12)

    def test_orthogonal_detectors(self):
        assert singlet_correlation(DetectorPair(Z_AXIS, X_AXIS)) == pytest.approx(0.0, abs=1e-12)

    def test_random_pairs_match_dot_product(self):
        rng = np.random.default_rng(80)
        worst = 0.0
        for _ in range(100):
            a, b = random_unit_vector(rng), random_unit_vector(rng)
            worst = max(worst, abs(singlet_correlation(DetectorPair(a, b)) + a.dot(b)))
        assert worst < 1e-12


class TestSingletVariance:
    def test_aligned(self):
        assert singlet_variance(DetectorPair(Z_AXIS, Z_AXIS)) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal(self):
        assert singlet_variance(DetectorPair(Z_AXIS, X_AXIS)) == pytest.approx(1.0, abs=1e-12)

    def test_random_pair_closed_form(self):
        rng = np.random.default_rng(81)
        for _ in range(30):
            a, b = random_unit_vector(rng), random_unit_vector(rng)
            var = singlet_variance(DetectorPair(a, b))
            assert abs(var - (1.0 - a.dot(b) ** 2)) < 1e-12

    def test_spectral_oracle(self):
        # Eigenvector route: var = sum_n |<V_n|psi>|^2 (lambda_n - <S>)^2
        rng = np.random.default_rng(82)
        psi = singlet().amplitudes
        for _ in range(10):
            a = planar_unit(rng)
            mean = -a.nz  # b = z
            oracle = sum(
                abs(np.vdot(v, psi)) ** 2 * (lam - mean) ** 2
                for lam, v in closed_form_eigenvectors(a)
            )
            assert abs(singlet_variance(DetectorPair(a, Z_AXIS)) - oracle) < 1e-12


class TestPairOperatorSpectrum:
    def test_doubly_degenerate_eigenvalues(self):
        rng = np.random.default_rng(83)
        for _ in range(20):
            a = random_unit_vector(rng)
            eig = hermitian_eig(pair_operator(DetectorPair(a, Z_AXIS)))
            assert np.allclose(eig.eigenvalues, [-1.0, -1.0, 1.0, 1.0], atol=1e-12)

    def test_closed_form_eigenvectors(self):
        rng = np.random.default_rng(84)
        for _ in range(10):
            a = planar_unit(rng)
            s = pair_operator(DetectorPair(a, Z_AXIS))
            for lam, v in closed_form_eigenvectors(a):
                assert abs(np.linalg.norm(v) - 1.0) < 1e-12
                assert np.max(np.abs(s @ v - lam * v)) < 1e-12

    def test_overlap_weights(self):
        rng = np.random.default_rng(85)
        psi = singlet().amplitudes
        for _ in range(20):
            a = planar_unit(rng)
            weights = {-1.0: 0.0, 1.0: 0.0}
            total = 0.0
            for lam, v in closed_form_eigenvectors(a):
                w = abs(np.vdot(v, psi)) ** 2
                weights[lam] += w
                total += w
                expected = (1 + a.nz) / 4 if lam == -1.0 else (1 - a.nz) / 4
                assert abs(w - expected) < 1e-10
            assert abs(total - 1.0) < 1e-10
            assert abs(weights[-1.0] - (1 + a.nz) / 2) < 1e-10
            assert abs(weights[1.0] - (1 - a.nz) / 2) < 1e-10


class TestJointUpProbability:
    def test_endpoints(self):
        assert joint_up_probability(0.0) == pytest.approx(0.0, abs=1e-12)
        assert joint_up_probability(math.pi / 2) == pytest.approx(0.25, abs=1e-12)

    def test_quoted_values(self):
        assert f"{joint_up_probability(math.pi / 2):.3f}" == "0.250"
        assert f"{2 * joint_up_probability(math.pi / 4):.3f}" == "0.146"
        assert joint_up_probability(math.pi / 4) == pytest.approx(0.0732, abs=5e-5)

    def test_closed_form_on_grid(self):
        for alpha in np.linspace(0.0, math.pi, 100):
            expected = 0.5 * math.sin(alpha / 2.0) ** 2
            assert abs(joint_up_probability(float(alpha)) - expected) < 1e-12

    def test_domain(self):
        with pytest.raises(ValidationError):
            joint_up_probability(-0.1)
        with pytest.raises(ValidationError):
            joint_up_probability(3.5)

    @pytest.mark.parametrize("alpha", ["1", 1j, True], ids=["string", "complex", "bool"])
    def test_rejects_an_angle_that_is_not_a_real_number(self, alpha):
        with pytest.raises(ValidationError, match="alpha"):
            joint_up_probability(alpha)


class TestChsh:
    def test_maximal_orientations(self):
        value = chsh_value(*maximal_chsh_orientations())
        assert value == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)

    def test_degenerate_settings_bounded_by_two(self):
        rng = np.random.default_rng(86)
        for _ in range(20):
            a = random_unit_vector(rng)
            b = random_unit_vector(rng)
            assert abs(chsh_value(a, a, b, b)) <= 2.0 + 1e-12

    def test_tsirelson_bound_scan(self):
        rng = np.random.default_rng(87)
        bound = 2.0 * math.sqrt(2.0) + 1e-9
        worst = 0.0
        for _ in range(10_000):
            vs = [random_unit_vector(rng) for _ in range(4)]
            worst = max(worst, abs(chsh_value(*vs)))
        assert worst <= bound

    def test_rotational_invariance(self):
        rng = np.random.default_rng(88)
        base = maximal_chsh_orientations()
        reference = chsh_value(*base)
        for _ in range(10):
            r = random_rotation(rng)
            value = chsh_value(*(rotated(r, v) for v in base))
            assert abs(value - reference) < 1e-10


class TestSampling:
    def test_aligned_detectors_always_opposite(self):
        events = sample_events(DetectorPair(Z_AXIS, Z_AXIS), 200, seed=5)
        assert np.array_equal(events.outcome_a, -events.outcome_b)

    def test_joint_law_matches_half_angle(self):
        rng = np.random.default_rng(89)
        for _ in range(10):
            a, b = random_unit_vector(rng), random_unit_vector(rng)
            probs = joint_outcome_probabilities(DetectorPair(a, b))
            cos_theta = a.dot(b)
            same = 0.5 * (1 - cos_theta) / 2  # P(+,+) = P(-,-)
            diff = 0.5 * (1 + cos_theta) / 2
            assert abs(probs[0, 0] - same) < 1e-12
            assert abs(probs[1, 1] - same) < 1e-12
            assert abs(probs[0, 1] - diff) < 1e-12
            assert abs(probs[1, 0] - diff) < 1e-12

    def test_statistics_at_large_n(self):
        n = 100_000
        a = Z_AXIS
        b = UnitVector3(math.sin(1.0), 0.0, math.cos(1.0))
        events = sample_events(DetectorPair(a, b), n, seed=42)
        corr = empirical_correlation(events)
        target = -a.dot(b)
        sigma_corr = math.sqrt((1.0 - target**2) / n)
        assert abs(corr - target) <= 3.0 * sigma_corr
        sigma_marginal = math.sqrt(0.25 / n)
        for side in ("outcome_a", "outcome_b"):
            frequency = np.mean(events[side] == 1)
            assert abs(frequency - 0.5) <= 3.0 * sigma_marginal

    def test_seed_determinism(self):
        pair = DetectorPair(Z_AXIS, X_AXIS)
        first = sample_events(pair, 1000, seed=7)
        second = sample_events(pair, 1000, seed=7)
        assert np.array_equal(first, second)

    def test_different_seeds_statistically_consistent(self):
        n = 50_000
        pair = DetectorPair(Z_AXIS, UnitVector3(math.sin(0.8), 0, math.cos(0.8)))
        c1 = empirical_correlation(sample_events(pair, n, seed=1))
        c2 = empirical_correlation(sample_events(pair, n, seed=2))
        target = -pair.a.dot(pair.b)
        sigma = math.sqrt((1.0 - target**2) / n)
        assert abs(c1 - c2) <= 4.0 * sigma * math.sqrt(2.0)

    def test_event_table(self):
        n = 1000
        events = sample_events(DetectorPair(Z_AXIS, X_AXIS), n, seed=3)
        assert len(events) == n
        for side in ("outcome_a", "outcome_b"):
            column = events[side]
            assert column.dtype == np.int8
            assert set(np.unique(column).tolist()) == {-1, 1}
        assert not events.flags.writeable
        with pytest.raises(ValueError):
            events.outcome_a[0] = 0
        product = events.outcome_a.astype(float) * events.outcome_b
        assert empirical_correlation(events) == np.mean(product)
        with pytest.raises(ValidationError):
            empirical_correlation(events[:0])

    def test_rejects_bad_n(self):
        with pytest.raises(ValidationError):
            sample_events(DetectorPair(Z_AXIS, X_AXIS), 0, seed=1)
        # Refused before anything is drawn: 10**15 draws would need petabytes.
        with pytest.raises(ValidationError, match="cap"):
            sample_events(DetectorPair(Z_AXIS, X_AXIS), 10**15, seed=1)

    @pytest.mark.parametrize("n, seed", [(2.5, 1), ("3", 1), (True, 1), (None, 1), (10, 1.5), (10, "1"),
                                         (10, False), (10.0, 1)])
    def test_rejects_non_integer_n_and_seed(self, n, seed):
        with pytest.raises(ValidationError, match="must be an integer"):
            sample_events(DetectorPair(Z_AXIS, X_AXIS), n, seed)

    def test_accepts_numpy_integers(self):
        pair = DetectorPair(Z_AXIS, X_AXIS)
        events = sample_events(pair, np.int64(10), np.uint32(7))
        assert np.array_equal(events, sample_events(pair, 10, 7))

    def test_rejects_negative_seed(self):
        with pytest.raises(ValidationError, match="seed must be a non-negative integer, got -1"):
            sample_events(DetectorPair(Z_AXIS, X_AXIS), 10, seed=-1)

    @pytest.mark.parametrize("seed", [0, 42, 2**63 - 2])
    @pytest.mark.parametrize("n", [1, 1023, 1024, 1025])
    def test_draws_equal_generator_choice(self, n, seed):
        # The same Philox stream mapped through Generator.choice, on random pairs and on
        # the laws of a = b and a = -b, whose zero probabilities tie entries of the
        # cumulative law.
        rng = np.random.default_rng(92)
        a = random_unit_vector(rng)
        minus_a = UnitVector3(-a.nx, -a.ny, -a.nz)
        pairs = [(a, a), (a, minus_a), (Z_AXIS, Z_AXIS), (Z_AXIS, UnitVector3(0.0, 0.0, -1.0))]
        pairs += [(random_unit_vector(rng), random_unit_vector(rng)) for _ in range(4)]
        outcomes = np.array([(1, 1), (1, -1), (-1, 1), (-1, -1)], dtype=np.int8)
        for a, b in pairs:
            pair = DetectorPair(a, b)
            probs = np.clip(joint_outcome_probabilities(pair).reshape(-1), 0.0, None)
            draws = np.random.Generator(np.random.Philox(seed)).choice(4, size=n, p=probs / probs.sum())
            events = sample_events(pair, n, seed)
            assert type(events) is np.recarray and not events.flags.writeable
            assert events.outcome_a.dtype == events.outcome_b.dtype == np.int8
            assert np.array_equal(events.outcome_a, outcomes[draws, 0])
            assert np.array_equal(events.outcome_b, outcomes[draws, 1])

    def test_peak_memory_per_event(self):
        pair, n = DetectorPair(Z_AXIS, X_AXIS), 200_000
        sample_events(pair, 1, 1)  # so that no first-call cache counts
        tracemalloc.start()
        try:
            sample_events(pair, n, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / n < 16


class TestGhz:
    def test_state_normalized(self):
        assert np.linalg.norm(ghz_state()) == pytest.approx(1.0, abs=1e-15)

    def test_eigenvalue_pattern(self):
        report = ghz_check()
        assert report.passed
        assert report.max_residual <= 1e-12
        assert report.eigenvalues["xyy"] == pytest.approx(1.0, abs=1e-12)
        assert report.eigenvalues["yxy"] == pytest.approx(1.0, abs=1e-12)
        assert report.eigenvalues["yyx"] == pytest.approx(1.0, abs=1e-12)
        assert report.eigenvalues["xxx"] == pytest.approx(-1.0, abs=1e-12)

    @pytest.mark.parametrize("atol", [math.nan, math.inf, -1e-12, "x", None, True, 1j])
    def test_rejects_an_atol_that_is_not_a_non_negative_finite_real(self, atol):
        with pytest.raises(ValidationError, match="^atol must be a non-negative finite real number"):
            ghz_check(atol)

    def test_classical_claim_contradicted(self):
        report = ghz_check()
        assert report.classical_xxx_product == 1.0
        assert report.eigenvalues["xxx"] < 0.0

    def test_eigenvalues_and_expected_are_read_only(self):
        # A report that passed cannot be edited into one that claims other eigenvalues,
        # also after a copy or unpickling; a caller's dicts are copied.
        report = ghz_check()
        for mapping in (report.eigenvalues, report.expected, pickle.loads(pickle.dumps(report)).eigenvalues):
            with pytest.raises(TypeError):
                mapping["xxx"] = 5.0
            with pytest.raises(TypeError):
                del mapping["xxx"]
        assert report.passed and report.eigenvalues["xxx"] == pytest.approx(-1.0, abs=1e-12)
        mine = {"xxx": -1.0}
        built = GhzReport(mine, mine, 0.0, 1.0, True)
        mine["xxx"] = 5.0
        assert built.eigenvalues == built.expected == {"xxx": -1.0}

    def test_operator_construction(self):
        xyy = np.kron(pauli("x"), np.kron(pauli("y"), pauli("y")))
        psi = ghz_state()
        assert np.max(np.abs(xyy @ psi - psi)) < 1e-14


class TestNoCloning:
    def test_basis_kets_clone_exactly(self):
        report = no_cloning_demo()
        assert report.basis_fidelities == pytest.approx((1.0, 1.0), abs=1e-15)

    def test_superposition_fidelity_half(self):
        report = no_cloning_demo()
        # independent 4-amplitude oracle: <target|out> with
        # out = (|11> + |00>)/sqrt2 and target = |x+>|x+>
        out = np.zeros(4, dtype=complex)
        out[0] = SQRT1_2  # |1>|1>
        out[3] = SQRT1_2  # |0>|0>
        target = np.full(4, 0.5, dtype=complex)
        overlap = sum(np.conj(target[i]) * out[i] for i in range(4))
        assert abs(overlap - SQRT1_2) < 1e-15
        assert report.fidelity == pytest.approx(abs(overlap) ** 2, abs=1e-12)
        assert report.fidelity == pytest.approx(0.5, abs=1e-12)

    def test_output_lacks_cross_terms(self):
        report = no_cloning_demo()
        assert abs(report.cross_amplitudes[0]) < 1e-15
        assert abs(report.cross_amplitudes[1]) < 1e-15

    def test_builds_the_spin_half_basis_once(self, monkeypatch):
        built, build = [], bell.spin_half_basis
        monkeypatch.setattr(bell, "spin_half_basis", lambda: built.append(1) or build())
        no_cloning_demo()
        assert built == [1]

    def test_output_amplitudes(self):
        report = no_cloning_demo()
        assert np.allclose(report.output_amplitudes, [SQRT1_2, 0, 0, SQRT1_2])
        assert np.allclose(report.target_amplitudes, np.full(4, 0.5))


class TestFilterInequality:
    def test_quoted_values(self):
        report = filter_inequality_demo()
        assert report.p_full_span == pytest.approx(0.25, abs=1e-12)
        assert report.doubled_p_half_span == pytest.approx(math.sin(math.pi / 8) ** 2, abs=1e-12)
        assert f"{report.doubled_p_half_span:.3f}" == "0.146"
        assert report.violates_realist_bound
        assert report.margin > 0.1

    def test_violation_on_grid(self):
        # P(alpha) > 2 P(alpha/2) across the angular range
        for alpha in np.linspace(0.01, math.pi / 2, 50):
            p_full = joint_up_probability(float(alpha))
            p_half = joint_up_probability(float(alpha) / 2.0)
            assert p_full > 2.0 * p_half


class TestDetectorTypes:
    def test_sigma_n_consistency(self):
        rng = np.random.default_rng(90)
        a = random_unit_vector(rng)
        op = pair_operator(DetectorPair(a, Z_AXIS))
        assert np.allclose(op, np.kron(sigma_n(a), pauli("z")))

    @pytest.mark.parametrize(
        "a, b",
        [(1, 2), ("z", Z_AXIS), (Z_AXIS, np.array([0, 0, 1.0])), (X_AXIS, None)],
        ids=["ints", "string", "array", "none"],
    )
    def test_rejects_orientations_that_are_not_unit_vectors(self, a, b):
        with pytest.raises(ValidationError, match="must be UnitVector3"):
            DetectorPair(a, b)
