"""Singlet statistics, CHSH and filter inequalities, GHZ contradiction,
no-cloning, and seeded Monte Carlo outcome sampling.

The joint outcome law used for sampling is computed from projector
expectations on the singlet (via the bipartite machinery), never from the
closed-form trigonometry, so the analytic and Monte Carlo paths stay
independent.  Sampling uses numpy's Philox bit generator: a 64-bit
counter-based generator with a published algorithm and a stable,
platform-independent stream for a given seed.
"""

from __future__ import annotations

import math
from types import MappingProxyType

import numpy as np

from .bipartite import measurement_probabilities, singlet
from .errors import ValidationError
from .linalg import _Record, _ValueRecord, is_finite_real, is_integer
from .spin import SpinHalfBasis, UnitVector3, X_AXIS, Z_AXIS, sigma_n, sigma_n_eigenkets, spin_half_basis

_SQRT1_2 = 1.0 / math.sqrt(2.0)

# Most events one sample_events call draws.  A call peaks near 11 bytes per
# event (the float64 uniforms, the int8 draws and the events; tracemalloc reads
# 11.0 B/event at 10^7), so the cap bounds it near 110 MB.
MAX_EVENTS = 10**7

# The event of each outcome index 2 * (outcome_a < 0) + (outcome_b < 0).
_EVENTS = np.array([(1, 1), (1, -1), (-1, 1), (-1, -1)],
                   dtype=[("outcome_a", np.int8), ("outcome_b", np.int8)])


class DetectorPair(_ValueRecord):
    """Orientations of the two spin detectors; anything but two UnitVector3
    raises ValidationError.  Compares and hashes by value."""

    __slots__ = ("a", "b")

    def __init__(self, a: UnitVector3, b: UnitVector3):
        if not (isinstance(a, UnitVector3) and isinstance(b, UnitVector3)):
            raise ValidationError(f"a and b must be UnitVector3, got {type(a).__name__} and {type(b).__name__}")
        self.__setstate__((a, b))


def pair_operator(p: DetectorPair) -> np.ndarray:
    """The product observable (sigma_1 . a)(sigma_2 . b) on the joint space."""
    return np.kron(sigma_n(p.a), sigma_n(p.b))


def singlet_correlation(p: DetectorPair) -> float:
    """<(sigma_1 . a)(sigma_2 . b)> in the singlet; equals -a . b."""
    psi = singlet().amplitudes
    op = pair_operator(p)
    return float(np.vdot(psi, op @ psi).real)


def singlet_variance(p: DetectorPair) -> float:
    """Variance of the product observable in the singlet; equals 1 - (a . b)^2."""
    psi = singlet().amplitudes
    op = pair_operator(p)
    mean = float(np.vdot(psi, op @ psi).real)
    mean_sq = float(np.vdot(psi, op @ (op @ psi)).real)
    return mean_sq - mean * mean


def joint_up_probability(alpha: float) -> float:
    """P(both spins up) with detector 1 on z and detector 2 at angle alpha
    from the vertical (in the x-z plane); equals sin(alpha/2)^2 / 2."""
    if not (is_finite_real(alpha) and 0.0 <= alpha <= math.pi):
        raise ValidationError(f"alpha must lie in [0, pi], got {alpha!r}")
    b = UnitVector3(math.sin(alpha), 0.0, math.cos(alpha))
    kets = spin_half_basis()
    b_plus, _ = sigma_n_eigenkets(b)
    phi = np.kron(kets.z_plus, b_plus)
    overlap = np.vdot(singlet().amplitudes, phi)
    return float(abs(overlap) ** 2)


def chsh_value(a0: UnitVector3, a1: UnitVector3, b0: UnitVector3, b1: UnitVector3) -> float:
    """<X> = <A0 B0> + <A1 B0> + <A0 B1> - <A1 B1> in the singlet.

    Any assignment of pre-existing +-1 values bounds this by 2; the quantum
    maximum over orientations is 2 sqrt(2).
    """
    return (
        singlet_correlation(DetectorPair(a0, b0))
        + singlet_correlation(DetectorPair(a1, b0))
        + singlet_correlation(DetectorPair(a0, b1))
        - singlet_correlation(DetectorPair(a1, b1))
    )


def maximal_chsh_orientations() -> tuple[UnitVector3, UnitVector3, UnitVector3, UnitVector3]:
    """The orientation set a0=z, a1=x, b0=-(x+z)/sqrt2, b1=(x-z)/sqrt2,
    which attains the quantum maximum 2 sqrt(2)."""
    return (
        Z_AXIS,
        X_AXIS,
        UnitVector3(-_SQRT1_2, 0.0, -_SQRT1_2),
        UnitVector3(_SQRT1_2, 0.0, -_SQRT1_2),
    )


def joint_outcome_probabilities(p: DetectorPair) -> np.ndarray:
    """2x2 joint law prob[i, j] for outcomes (+1, -1) x (+1, -1).

    Row/column index 0 means outcome +1.  Computed as projector expectations
    on the singlet density via the local measurement machinery.
    """
    a_plus, a_minus = sigma_n_eigenkets(p.a)
    b_plus, b_minus = sigma_n_eigenkets(p.b)
    probs = measurement_probabilities(
        singlet().density(), [a_plus, a_minus], [b_plus, b_minus]
    )
    return probs


def sample_events(p: DetectorPair, n: int, seed: int) -> np.recarray:
    """Draw n independent coincidences from the exact joint law.

    Returns a read-only record array of n rows with int8 columns
    `outcome_a` and `outcome_b`, each +1 or -1.  Reproducible per seed; the
    empirical correlation converges to -a . b.
    Raises ValidationError unless n and seed are integers (not bools) with
    1 <= n <= MAX_EVENTS and seed >= 0.
    """
    for name, value in (("n", n), ("seed", seed)):
        if not is_integer(value):
            raise ValidationError(f"{name} must be an integer, got {value!r}")
    if n < 1:
        raise ValidationError(f"need at least one event, got n={n!r}")
    if n > MAX_EVENTS:
        raise ValidationError(f"n={n!r} exceeds the event cap of {MAX_EVENTS}")
    if seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed!r}")
    probs = np.clip(joint_outcome_probabilities(p).reshape(-1), 0.0, None)
    cdf = (probs / probs.sum()).cumsum()
    cdf /= cdf[-1]
    if not np.isfinite(cdf).all():
        raise ValidationError(f"joint outcome law is not finite: {probs!r}")
    u = np.random.Generator(np.random.Philox(seed)).random(n)
    draws = np.zeros(n, dtype=np.int8)  # how many cdf[k] are <= u: Generator.choice's index
    for c in cdf[:3]:  # cdf[3] is 1 > u
        draws += u >= c
    events = _EVENTS[draws].view(np.recarray)
    events.flags.writeable = False
    return events


def empirical_correlation(events: np.recarray) -> float:
    """Mean product of the two outcomes over an event table."""
    if len(events) == 0:
        raise ValidationError("no events to average")
    return float(np.mean(events.outcome_a * events.outcome_b))


_GHZ_LABELS = ("xyy", "yxy", "yyx", "xxx")


class GhzReport(_Record):
    """Stabilizer eigenvalues of the three-spin state 2^{-1/2}(|---> - |+++>).

    The three mixed operators fix the state with eigenvalue +1, which under
    a value-assignment (realist) reading forces the product a_x b_x c_x = +1;
    the all-x operator has eigenvalue -1 instead.  `eigenvalues` and `expected`
    map each label to its value, each a read-only MappingProxyType view of a copy
    of the dict given.
    """

    __slots__ = ("eigenvalues", "expected", "max_residual", "classical_xxx_product", "passed")

    def __init__(self, eigenvalues: dict[str, float], expected: dict[str, float], max_residual: float,
                 classical_xxx_product: float, passed: bool):
        self.__setstate__((eigenvalues, expected, max_residual, classical_xxx_product, passed))

    def __getstate__(self) -> tuple:  # the mappings as dicts, which pickle
        return (dict(self.eigenvalues), dict(self.expected), *super().__getstate__()[2:])

    def __setstate__(self, state) -> None:
        eigenvalues, expected, *rest = state
        super().__setstate__((MappingProxyType(dict(eigenvalues)), MappingProxyType(dict(expected)), *rest))


def ghz_state() -> np.ndarray:
    """Amplitudes of 2^{-1/2}(|---> - |+++>) over the 8-dimensional space."""
    amps = np.zeros(8, dtype=complex)
    amps[7] = _SQRT1_2  # |->|->|->
    amps[0] = -_SQRT1_2  # |+>|+>|+>
    return amps


def _three_spin_operator(label: str) -> np.ndarray:
    from .spin import pauli

    op = pauli(label[0])
    for axis in label[1:]:
        op = np.kron(op, pauli(axis))
    return op


def ghz_check(atol: float = 1e-12) -> GhzReport:
    """Verify the GHZ eigenvalue pattern (+1, +1, +1, -1) on the four
    three-spin products xyy, yxy, yyx, xxx, to within atol, a non-negative
    finite real number."""
    if not (is_finite_real(atol) and atol >= 0):
        raise ValidationError(f"atol must be a non-negative finite real number, got {atol!r}")
    psi = ghz_state()
    expected = {"xyy": 1.0, "yxy": 1.0, "yyx": 1.0, "xxx": -1.0}
    eigenvalues = {}
    max_residual = 0.0
    for label in _GHZ_LABELS:
        op = _three_spin_operator(label)
        image = op @ psi
        eigenvalues[label] = float(np.vdot(psi, image).real)
        residual = float(np.max(np.abs(image - expected[label] * psi)))
        max_residual = max(max_residual, residual)
    passed = max_residual <= atol
    return GhzReport(
        eigenvalues=eigenvalues,
        expected=expected,
        max_residual=max_residual,
        classical_xxx_product=1.0,
        passed=passed,
    )


class NoCloningReport(_Record):
    """Linear basis-cloning map applied to a superposition.

    The map is fixed by cloning |1> and |0> exactly (phases zero); applied
    to |x+> it emits 2^{-1/2}(|11> + |00>), which lacks the cross terms of
    the true clone |x+>|x+> and has squared overlap 1/2 with it.
    """

    __slots__ = ("output_amplitudes", "target_amplitudes", "fidelity", "cross_amplitudes", "basis_fidelities")

    def __init__(self, output_amplitudes: np.ndarray, target_amplitudes: np.ndarray, fidelity: float,
                 cross_amplitudes: tuple[complex, complex], basis_fidelities: tuple[float, float]):
        self.__setstate__((output_amplitudes, target_amplitudes, fidelity, cross_amplitudes, basis_fidelities))


def _clone_linearly(ket: np.ndarray, kets: SpinHalfBasis) -> np.ndarray:
    """Image of |ket>|blank> under the linear extension of basis cloning, in the z basis of kets."""
    out = ket[0] * np.kron(kets.z_plus, kets.z_plus)
    out = out + ket[1] * np.kron(kets.z_minus, kets.z_minus)
    return out


def no_cloning_demo() -> NoCloningReport:
    kets = spin_half_basis()
    basis_fidelities = []
    for basis_ket in (kets.z_plus, kets.z_minus):
        target = np.kron(basis_ket, basis_ket)
        out = _clone_linearly(basis_ket, kets)
        basis_fidelities.append(float(abs(np.vdot(target, out)) ** 2))

    out = _clone_linearly(kets.x_plus, kets)
    target = np.kron(kets.x_plus, kets.x_plus)
    fidelity = float(abs(np.vdot(target, out)) ** 2)
    for a in (out, target):
        a.setflags(write=False)  # built here, so the report keeps them without a copy
    return NoCloningReport(
        output_amplitudes=out,
        target_amplitudes=target,
        fidelity=fidelity,
        cross_amplitudes=(complex(out[1]), complex(out[2])),
        basis_fidelities=(basis_fidelities[0], basis_fidelities[1]),
    )


class FilterInequalityReport(_ValueRecord):
    """Spin-filter passage probabilities against the realist segment bound.

    A realist reading requires P(full span) <= 2 P(half span); the quantum
    law P(alpha) = sin(alpha/2)^2 / 2 violates it.  Compares and hashes by value.
    """

    __slots__ = ("p_full_span", "doubled_p_half_span", "violates_realist_bound", "margin")

    def __init__(self, p_full_span: float, doubled_p_half_span: float, violates_realist_bound: bool,
                 margin: float):
        self.__setstate__((p_full_span, doubled_p_half_span, violates_realist_bound, margin))


def filter_inequality_demo() -> FilterInequalityReport:
    p_full = joint_up_probability(math.pi / 2.0)
    doubled_half = 2.0 * joint_up_probability(math.pi / 4.0)
    return FilterInequalityReport(
        p_full_span=p_full,
        doubled_p_half_span=doubled_half,
        violates_realist_bound=p_full > doubled_half,
        margin=p_full - doubled_half,
    )
