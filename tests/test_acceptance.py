"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they stream; without -s pytest shows them for failing tests only.
"""

import math

import numpy as np
import pytest

import rholab as rl
from conftest import (
    random_density,
    random_hermitian,
    random_kraus_channel,
    random_unit_vector,
    random_unitary,
)

KETS = rl.spin_half_basis()
SQRT1_2 = 1.0 / math.sqrt(2.0)


def report(number: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {number:2d}: {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {number}: {name} {detail}"


def test_01_chsh_tsirelson_value():
    value = rl.chsh_value(*rl.maximal_chsh_orientations())
    dev = abs(value - 2.0 * math.sqrt(2.0))
    report(1, "CHSH value 2*sqrt(2) on the maximal orientations", dev < 1e-12, f"|dev|={dev:.2e}")


def test_02_singlet_correlation_and_variance_law():
    rng = np.random.default_rng(2024)
    worst_c = worst_v = 0.0
    for _ in range(100):
        a, b = random_unit_vector(rng), random_unit_vector(rng)
        pair = rl.DetectorPair(a, b)
        worst_c = max(worst_c, abs(rl.singlet_correlation(pair) + a.dot(b)))
        worst_v = max(worst_v, abs(rl.singlet_variance(pair) - (1.0 - a.dot(b) ** 2)))
    ok = worst_c < 1e-12 and worst_v < 1e-12
    report(2, "singlet correlation -a.b and variance 1-(a.b)^2", ok,
           f"corr dev={worst_c:.2e}, var dev={worst_v:.2e}")


def test_03_joint_probability_law_and_quoted_values():
    worst = max(
        abs(rl.joint_up_probability(float(alpha)) - 0.5 * math.sin(float(alpha) / 2.0) ** 2)
        for alpha in np.linspace(0.0, math.pi, 100)
    )
    printed_full = f"{rl.joint_up_probability(math.pi / 2):.3f}"
    printed_half = f"{2.0 * rl.joint_up_probability(math.pi / 4):.3f}"
    ok = worst < 1e-12 and printed_full == "0.250" and printed_half == "0.146"
    report(3, "joint up-probability sin(alpha/2)^2/2 with quoted decimals", ok,
           f"grid dev={worst:.2e}, P(pi/2)={printed_full}, 2P(pi/4)={printed_half}")


def test_04_ghz_eigenvalue_pattern():
    result = rl.ghz_check(atol=1e-12)
    ok = result.passed and result.eigenvalues["xxx"] < 0
    report(4, "GHZ stabilizers +1,+1,+1 and all-x -1", ok,
           f"max residual={result.max_residual:.2e}")


def test_05_nonuniqueness_worked_example():
    first = rl.ProperMixture([(0.5, KETS.x_plus), (0.5, KETS.y_plus)])
    chi1 = (KETS.x_plus + KETS.y_plus) / math.sqrt(3.0)
    chi2 = KETS.x_plus - KETS.y_plus
    second = rl.ProperMixture([(0.75, chi1), (0.25, chi2)])
    rho1 = rl.mixture_to_density(first).matrix
    rho2 = rl.mixture_to_density(second).matrix
    density_dev = float(np.max(np.abs(rho1 - rho2)))

    g = rl.gram_factor(first, [KETS.z_plus, KETS.z_minus])
    u = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    out = rl.remix(g, u)
    weight_dev = float(np.max(np.abs(np.sort(out.weights)[::-1] - np.array([0.75, 0.25]))))
    ok = density_dev < 1e-12 and weight_dev < 1e-12
    report(5, "mixture non-uniqueness worked example and remix weights", ok,
           f"density dev={density_dev:.2e}, weight dev={weight_dev:.2e}")


def test_06_partial_trace():
    s = rl.singlet()
    singlet_dev = float(np.max(np.abs(
        rl.partial_trace_b(s.projector(), s.space) - np.eye(2) / 2.0)))
    rng = np.random.default_rng(2025)
    worst = 0.0
    for _ in range(100):
        da, db = (int(d) for d in rng.integers(2, 4, size=2))
        rho_a = random_density(rng, da).matrix
        rho_b = random_density(rng, db).matrix
        out = rl.partial_trace_b(np.kron(rho_a, rho_b), rl.BipartiteSpace(da, db))
        worst = max(worst, float(np.max(np.abs(out - rho_a))))
    ok = singlet_dev < 1e-12 and worst < 1e-12
    report(6, "partial trace: singlet to I/2 and kron left-inverse", ok,
           f"singlet dev={singlet_dev:.2e}, kron dev={worst:.2e}")


def test_07_no_signalling():
    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(200):
        d = random_density(rng, 4)
        u = random_unitary(rng, 2)
        before, after = rl.no_signalling_check(d, [u[:, 0], u[:, 1]])
        worst = max(worst, float(np.max(np.abs(before - after))))
    report(7, "no-signalling: reduced b-density untouched by a-side measurement",
           worst < 1e-11, f"max dev={worst:.2e}")


def test_08_entropy():
    rng = np.random.default_rng(2027)
    pure = rl.von_neumann_entropy(rl.DensityOperator(rl.projector(KETS.x_plus)))
    mixed = rl.von_neumann_entropy(rl.DensityOperator(np.eye(2) / 2.0))
    additivity = 0.0
    for _ in range(25):
        a = random_density(rng, 2)
        b = random_density(rng, 3)
        joint = rl.DensityOperator(np.kron(a.matrix, b.matrix))
        additivity = max(additivity, abs(
            rl.von_neumann_entropy(joint)
            - rl.von_neumann_entropy(a) - rl.von_neumann_entropy(b)))
    invariance = 0.0
    for _ in range(25):
        d = random_density(rng, 3)
        h = random_hermitian(rng, 3)
        t = float(rng.uniform(-2.0, 2.0))
        invariance = max(invariance, abs(
            rl.von_neumann_entropy(rl.evolve_unitary(d, h, t)) - rl.von_neumann_entropy(d)))
    ok = (
        abs(pure) < 1e-12
        and abs(mixed - math.log(2.0)) < 1e-12
        and additivity < 1e-10
        and invariance < 1e-9
    )
    report(8, "entropy: pure zero, log 2, additivity, unitary invariance", ok,
           f"pure={pure:.2e}, log2 dev={abs(mixed - math.log(2)):.2e}, "
           f"add dev={additivity:.2e}, inv dev={invariance:.2e}")


def test_09_lindblad_trajectories():
    gamma = 1.0
    dephasing = rl.LindbladGenerator(np.zeros((2, 2)), [math.sqrt(gamma) * rl.pauli("z")])
    d0 = rl.DensityOperator(rl.projector(KETS.x_plus))
    samples = rl.evolve_lindblad(dephasing, d0, 2.0, 0.01, sample_every=10)
    decay_dev = max(
        abs(state.matrix[0, 1] - 0.5 * math.exp(-2.0 * gamma * t)) for t, state in zip(samples.times, samples.states)
    )
    trace_dev = float(np.abs(samples.raw_traces - 1.0).max())
    min_eig = float(samples.states.eigenvalues[:, 0].min())

    rng = np.random.default_rng(2028)
    entropy_ok = True
    for _ in range(50):
        n = int(rng.integers(2, 4))
        generator = rl.LindbladGenerator(
            random_hermitian(rng, n),
            [0.8 * random_hermitian(rng, n) for _ in range(int(rng.integers(1, 3)))],
        )
        start = random_density(rng, n)
        trajectory = rl.evolve_lindblad(generator, start, 0.5, 0.01, sample_every=5)
        trace_dev = max(trace_dev, float(np.abs(trajectory.raw_traces - 1.0).max()))
        min_eig = min(min_eig, float(trajectory.states.eigenvalues[:, 0].min()))
        entropies = rl.von_neumann_entropy(trajectory.states)
        entropy_ok = entropy_ok and all(
            later >= earlier - 1e-8 for earlier, later in zip(entropies, entropies[1:])
        )
    ok = decay_dev < 1e-6 and trace_dev < 1e-8 and min_eig > -1e-7 and entropy_ok
    report(9, "Lindblad: dephasing decay, trace/positivity, entropy growth", ok,
           f"decay dev={decay_dev:.2e}, trace dev={trace_dev:.2e}, min eig={min_eig:.2e}")


def test_10_cptp_round_trip():
    rng = np.random.default_rng(2029)
    ok = True
    detail = []
    for n, k in ((2, 2), (2, 4), (3, 3), (3, 4)):
        channel = random_kraus_channel(rng, n, k)
        sop = rl.superop_from_kraus(channel)
        dec = rl.eigenmatrix_decompose(sop)
        sum_dev = abs(float(dec.eigenvalues.sum()) - n)
        min_eig = float(dec.eigenvalues.min())
        back = rl.kraus_from_decomposition(dec)
        action_dev = 0.0
        for i in range(n):
            for j in range(n):
                e = np.zeros((n, n), dtype=complex)
                e[i, j] = 1.0
                action_dev = max(action_dev, float(np.max(np.abs(back.apply(e) - sop.apply(e)))))
        ok = ok and min_eig >= -1e-9 and sum_dev < 1e-8 and action_dev < 1e-9
        detail.append(f"N={n},k={k}: sum dev={sum_dev:.1e}, act dev={action_dev:.1e}")

    transpose = np.zeros((2, 2, 2, 2), dtype=complex)
    for m in range(2):
        for l in range(2):
            transpose[m, l, l, m] = 1.0
    dec_t = rl.eigenmatrix_decompose(rl.Superoperator(2, transpose))
    ok = ok and not dec_t.is_completely_positive
    report(10, "CPTP round trip and transpose-map rejection", ok, "; ".join(detail))


def test_11_monte_carlo():
    n = 100_000
    a = rl.UnitVector3(0.0, 0.0, 1.0)
    b = rl.UnitVector3(math.sin(1.0), 0.0, math.cos(1.0))
    pair = rl.DetectorPair(a, b)
    events = rl.sample_events(pair, n, seed=42)
    target = -a.dot(b)
    corr = rl.empirical_correlation(events)
    sigma_corr = math.sqrt((1.0 - target**2) / n)
    sigma_marginal = math.sqrt(0.25 / n)
    freq_a = float(np.mean(events.outcome_a == 1))
    freq_b = float(np.mean(events.outcome_b == 1))
    repeat = rl.sample_events(pair, n, seed=42)
    deterministic = np.array_equal(events, repeat)
    ok = (
        abs(corr - target) <= 3.0 * sigma_corr
        and abs(freq_a - 0.5) <= 3.0 * sigma_marginal
        and abs(freq_b - 0.5) <= 3.0 * sigma_marginal
        and deterministic
    )
    report(11, "Monte Carlo: 3-sigma correlation/marginals, deterministic seed", ok,
           f"corr dev={abs(corr - target):.2e} (3sig={3*sigma_corr:.2e}), "
           f"marginals=({freq_a:.4f},{freq_b:.4f})")


def test_12_no_cloning_fidelity():
    result = rl.no_cloning_demo()
    dev = abs(result.fidelity - 0.5)
    cross = max(abs(result.cross_amplitudes[0]), abs(result.cross_amplitudes[1]))
    ok = dev < 1e-12 and cross < 1e-12
    report(12, "no-cloning: linear basis clone has fidelity 1/2 on |x+>", ok,
           f"fidelity dev={dev:.2e}, cross={cross:.2e}")


def test_13_spin_one_identities():
    s = rl.spin_one_set()
    eye = np.eye(3)
    worst = 0.0
    for axis in "xyz":
        worst = max(worst, float(np.max(np.abs(
            s.spin_squared(axis) - (eye - s.projector(axis, 0))))))
    for a in "xyz":
        for b in "xyz":
            comm = s.spin_squared(a) @ s.spin_squared(b) - s.spin_squared(b) @ s.spin_squared(a)
            worst = max(worst, float(np.max(np.abs(comm))))
    partition = s.projector("x", 0) + s.projector("y", 0) + s.projector("z", 0)
    worst = max(worst, float(np.max(np.abs(partition - eye))))
    report(13, "spin-1: squares vs zero-projectors, commutation, partition", worst < 1e-12,
           f"max dev={worst:.2e}")


def test_14_closure_property():
    rng = np.random.default_rng(2030)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 5))
        d = random_density(rng, n)
        eig = rl.hermitian_eig(d.matrix)
        spectral = rl.ProperMixture(
            [(float(w), eig.eigenvectors[:, i]) for i, w in enumerate(eig.eigenvalues)]
        )
        g = rl.gram_factor(spectral, list(np.eye(n, dtype=complex).T))
        alternative = rl.remix(g, random_unitary(rng, n))
        d1 = rl.mixture_to_density(spectral)
        d2 = rl.mixture_to_density(alternative)

        u = random_unitary(rng, n)
        basis = [u[:, i] for i in range(n)]
        worst = max(worst, float(np.max(np.abs(
            rl.measurement_channel(d1, basis).matrix - rl.measurement_channel(d2, basis).matrix))))
        h = random_hermitian(rng, n)
        worst = max(worst, float(np.max(np.abs(
            rl.evolve_unitary(d1, h, 0.9).matrix - rl.evolve_unitary(d2, h, 0.9).matrix))))
    report(14, "closed evolution: channels agree on distinct mixtures of one density",
           worst < 1e-11, f"max dev={worst:.2e}")
