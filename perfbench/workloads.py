"""The four benchmark workloads: seeded inputs, one timed pass, output checks.

Each workload writes its inputs into a work directory and a `manifest.json`
that `probe.py` reads to time set-up in a fresh interpreter.  Input
generation and the expected outputs use numpy only; the program sees nothing
but the generated inputs.  A pass calls the program through module
attributes (`rl.cli.main`, `rl.channels.eigenmatrix_decompose`, ...) so that
the traced run's wrappers see every call.

Why each workload exists (see README.md for the layer mapping):

* evolve-shipped -- the real CLI traffic: `rholab evolve` on the three shipped
  d=2 scenarios.  RK4 stepping dominates, the eigensolver is small, so an
  integrator change shows here and an eigensolver change barely does.
* evolve-d16 -- `rholab evolve` on a seeded 4-qubit (d=16) scenario.  Two d=16
  Jacobi solves per emitted sample dominate, so an eigensolver change shows
  here and an integrator change barely does.  Its pure product rho0 runs the
  rank-deficient floor path.
* sample-events -- `rholab sample` on a seeded orientation pair: per-event
  Python objects and CSV formatting, with one eigensolve per command.
* analysis -- library calls on dense, unstructured, low-rank or indefinite
  inputs (superoperators up to 16x16, Gram matrices, reduced states) where no
  result can be reused; the only workload that measures `bipartite`.
"""

from __future__ import annotations

import json
import math
import traceback
from pathlib import Path

import numpy as np

import oracles

PINNED = Path(__file__).resolve().parent / "pinned"
SHIPPED_SCENARIOS = ("dephasing", "precession", "amplitude_damping")


def _run_op(fn):
    """Run one operation; an exception becomes its output and counts as failed."""
    try:
        return fn()
    except Exception as exc:  # the harness must keep going to count failures
        exc.trace_text = traceback.format_exc()
        return exc


def _failed(output) -> list[str] | None:
    if isinstance(output, Exception):
        return [f"raised {output!r}\n{getattr(output, 'trace_text', '')}"]
    return None


def _complex_json(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def _unit_vector_text(rng: np.random.Generator) -> str:
    """A random unit vector as three 17-significant-digit numbers.

    Redrawn until |n|^2 is within 1e-15 of 1 after the round trip through
    text, far inside any unit-norm tolerance, so the program accepts it as
    given.
    """
    while True:
        v = rng.normal(size=3)
        v = v / np.linalg.norm(v)
        text = ",".join(f"{x:.17g}" for x in v)
        parsed = [float(x) for x in text.split(",")]
        if abs(sum(x * x for x in parsed) - 1.0) <= 1e-15:
            return text


def _random_unitary(rng: np.random.Generator, n: int, m: int | None = None) -> np.ndarray:
    """n x m isometry (m <= n) from the QR of a complex Gaussian matrix."""
    m = n if m is None else m
    z = rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _random_kraus(rng: np.random.Generator, d: int, r: int) -> list[np.ndarray]:
    """r Kraus operators stacked in an rd x d isometry, so sum K^dag K = I."""
    v = _random_unitary(rng, r * d, d)
    return [v[j * d:(j + 1) * d, :] for j in range(r)]


def _random_density(rng: np.random.Generator, d: int) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = z @ z.conj().T
    return rho / np.trace(rho).real


class Workload:
    name = ""

    def __init__(self, root: Path, work: Path, seed: int, short: bool):
        self.work = work
        self.rng = np.random.default_rng(seed)

    def write_manifest(self, manifest: dict) -> None:
        (self.work / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")

    def run_pass(self, rl) -> list:
        """Run one pass of the program; returns one output per operation."""
        raise NotImplementedError

    def check(self, outputs) -> list[list[str]]:
        """Failure messages per operation of one pass (empty if correct)."""
        return [_failed(out) or self.check_op(i, out) for i, out in enumerate(outputs)]

    def check_op(self, i: int, output) -> list[str]:
        raise NotImplementedError

    def output_bytes(self, outputs) -> int:
        return 0


class _Evolve(Workload):
    """Shared pass and check for the two `rholab evolve` workloads."""

    def __init__(self, root, work, seed, short):
        super().__init__(root, work, seed, short)
        self.jobs = []  # (scenario path, output path, expected table, tolerance, dim)

    def run_pass(self, rl):
        return [_run_op(lambda s=s, o=o: rl.cli.main(["evolve", "--scenario", str(s), "--out", str(o)]))
                for s, o, *_ in self.jobs]

    def check_op(self, i, code):
        scenario, out, expected, tol, dim = self.jobs[i]
        if code != 0:
            return [f"{scenario}: exit code {code}"]
        return oracles.check_trajectory(out, expected, tol, dim)

    def output_bytes(self, outputs):
        return sum(out.stat().st_size for _, out, *_ in self.jobs if out.exists())


class EvolveShipped(_Evolve):
    name = "evolve-shipped"
    ROUNDS = 3  # the three scenarios, repeated to fill a pass

    def __init__(self, root, work, seed, short):
        super().__init__(root, work, seed, short)
        order = self.rng.permutation(len(SHIPPED_SCENARIOS))
        scenarios = [SHIPPED_SCENARIOS[i] for i in order]
        pinned = {s: oracles.read_trajectory(PINNED / f"{s}.csv") for s in scenarios}
        for r in range(1 if short else self.ROUNDS):
            for s in scenarios:
                path = root / "scenarios" / f"{s}.json"
                self.jobs.append((path, work / f"{s}-{r}.csv", pinned[s], oracles.SHIPPED_TOL, 2))
        self.write_manifest({"scenarios": [str(root / "scenarios" / f"{s}.json") for s in scenarios]})


class EvolveD16(_Evolve):
    name = "evolve-d16"
    QUBITS = 4
    DT = 1.0 / 64.0  # exact in binary, so t_end / dt is an exact step count
    STEPS = 30
    SHORT_STEPS = 10
    SAMPLE_EVERY = 5

    def __init__(self, root, work, seed, short):
        super().__init__(root, work, seed, short)
        h, jumps, rho0 = self._ising_chain()
        steps = self.SHORT_STEPS if short else self.STEPS
        scenario = {
            "dim": rho0.shape[0],
            "rho0": _complex_json(rho0),
            "hamiltonian": _complex_json(h),
            "jump_ops": [_complex_json(op) for op in jumps],
            "t_end": steps * self.DT,
            "dt": self.DT,
            "sample_every": self.SAMPLE_EVERY,
        }
        path = work / "d16.json"
        path.write_text(json.dumps(scenario), encoding="utf-8")
        expected = oracles.propagate(h, jumps, rho0, self.DT, steps, self.SAMPLE_EVERY)
        self.jobs.append((path, work / "d16.csv", expected, oracles.D16_TOL, rho0.shape[0]))
        self.write_manifest({"scenarios": [str(path)]})

    def _ising_chain(self):
        """Ising chain with random couplings and transverse fields, per-site
        decay and dephasing (rates bounded away from 0 so the state is full
        rank after the first step), and a pure product rho0.

        rho0 puts every site in one fixed generic state: the initial state
        sets most of the Jacobi sweep count, so a random one would make the
        cost of a pass vary from seed to seed (Jacobi rotations per pass spread 8%
        between quartiles over 20 seeds, against 2-4% with the couplings
        alone random)."""
        n = self.QUBITS
        rng = self.rng
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        z = np.diag([1.0, -1.0]).astype(complex)
        lower = np.array([[0, 0], [1, 0]], dtype=complex)  # |z+> = (1, 0) -> |z->

        def site(op, i):
            out = np.eye(1, dtype=complex)
            for j in range(n):
                out = np.kron(out, op if j == i else np.eye(2))
            return out

        h = sum(rng.uniform(0.8, 1.2) * site(z, i) @ site(z, i + 1) for i in range(n - 1))
        h = h + sum(rng.uniform(0.8, 1.2) * site(x, i) for i in range(n))
        jumps = [math.sqrt(rng.uniform(0.25, 0.35)) * site(lower, i) for i in range(n)]
        jumps += [math.sqrt(rng.uniform(0.25, 0.35)) * site(z, i) for i in range(n)]
        ket = np.ones(1, dtype=complex)
        for _ in range(n):  # Bloch angles theta = pi/3, phi = pi/4
            ket = np.kron(ket, [math.cos(math.pi / 6), np.exp(1j * math.pi / 4) * math.sin(math.pi / 6)])
        return h, jumps, np.outer(ket, ket.conj())


class SampleEvents(Workload):
    name = "sample-events"
    N = 50_000
    SHORT_N = 2_000
    DEFAULT_SEED_SHA = "sample_default_seed.sha256"

    def __init__(self, root, work, seed, short):
        super().__init__(root, work, seed, short)
        self.a = _unit_vector_text(self.rng)
        self.b = _unit_vector_text(self.rng)
        self.n = self.SHORT_N if short else self.N
        self.sample_seed = int(self.rng.integers(0, 2**63 - 1))
        self.out = work / "events.csv"
        self.argv = [
            # `--a=` form: a leading minus would otherwise read as an option.
            "sample", f"--a={self.a}", f"--b={self.b}", "--n", str(self.n),
            "--seed", str(self.sample_seed), "--out", str(self.out),
        ]
        self.sha256 = self.pinned_sha256(seed, short)
        self.write_manifest({"argv": self.argv})

    @classmethod
    def pinned_sha256(cls, seed: int, short: bool) -> str | None:
        """The pinned file hash, which exists for the full-size default seed."""
        if short or seed != DEFAULT_SEED:
            return None
        return (PINNED / cls.DEFAULT_SEED_SHA).read_text(encoding="ascii").split()[0]

    def run_pass(self, rl):
        return [_run_op(lambda: rl.cli.main(self.argv))]

    def check_op(self, i, code):
        if code != 0:
            return [f"sample: exit code {code}"]
        return oracles.check_events(self.out, self.a, self.b, self.n, self.sample_seed, self.sha256)

    def output_bytes(self, outputs):
        return self.out.stat().st_size if self.out.exists() else 0


class Analysis(Workload):
    name = "analysis"
    CHANNEL_DIMS = (2, 3, 4)  # superoperators of 4x4, 9x9 and 16x16
    STATES = 8
    SPECTRUM_DIM = 4

    def __init__(self, root, work, seed, short):
        super().__init__(root, work, seed, short)
        rng = self.rng
        arrays = {}
        self.ops = []
        for d in self.CHANNEL_DIMS:
            # Kraus ranks 1 (a unitary channel, rank-1 Choi), 2 and d.
            for r in (1,) if short else (1, 2, d):
                kraus = _random_kraus(rng, d, r)
                states = [_random_density(rng, d) for _ in range(2)]
                arrays[f"kraus_{len(self.ops)}"] = np.array(kraus)
                self.ops.append(("channel", kraus, states))
            # An indefinite hermiticity-preserving map: one negative weight.
            basis = _random_kraus(rng, d, d)
            weights = [1.0] * (d - 1) + [-0.5]
            matrix = sum(w * np.outer(k.reshape(-1), k.reshape(-1).conj()) for w, k in zip(weights, basis))
            tensor = matrix.reshape(d, d, d, d)
            arrays[f"map_{len(self.ops)}"] = tensor
            self.ops.append(("map", d, tensor, matrix))
        d = self.SPECTRUM_DIM
        hz = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        h = (hz + hz.conj().T) / 4.0
        jumps = [0.5 * (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) for _ in range(2)]
        arrays[f"generator_{len(self.ops)}"] = np.array([h] + jumps)
        self.ops.append(("spectrum", h, jumps))
        for _ in range(1 if short else self.STATES):
            amps = rng.normal(size=16) + 1j * rng.normal(size=16)
            amps = amps / np.linalg.norm(amps)
            basis = _random_unitary(rng, 4)
            arrays[f"state_{len(self.ops)}"] = np.vstack([amps.reshape(4, 4), basis])
            self.ops.append(("state", amps, basis))
        np.savez(work / "inputs.npz", **arrays)
        self.write_manifest({"inputs": str(work / "inputs.npz")})

    def run_pass(self, rl):
        return [_run_op(lambda op=op: self._run(rl, op)) for op in self.ops]

    @staticmethod
    def _run(rl, op):
        channels, bipartite = rl.channels, rl.bipartite
        kind = op[0]
        if kind == "channel":
            _, kraus, states = op
            sup = channels.superop_from_kraus(channels.KrausChannel(kraus))
            dec = channels.eigenmatrix_decompose(sup)
            rebuilt = channels.kraus_from_decomposition(dec)
            return dec.eigenvalues, rebuilt.kraus_ops, rebuilt.apply(states[0])
        if kind == "map":
            _, d, tensor, _ = op
            dec = channels.eigenmatrix_decompose(channels.Superoperator(d, tensor))
            return dec.eigenvalues, dec.eigenmatrices
        if kind == "spectrum":
            _, h, jumps = op
            return channels.lindblad_spectrum(channels.LindbladGenerator(h, jumps))
        _, amps, basis = op
        ket = bipartite.BipartiteKet(bipartite.BipartiteSpace(4, 4), amps)
        form = bipartite.schmidt(ket)
        proj = ket.projector()
        rho_a = bipartite.partial_trace_b(proj, ket.space)
        rho_b = bipartite.partial_trace_a(proj, ket.space)
        entropy = rl.entropy.von_neumann_entropy(rl.density.DensityOperator(rho_a))
        before, after = bipartite.no_signalling_check(ket.density(), list(basis.T))
        return form.coefficients, form.a_kets, form.b_kets, rho_a, rho_b, entropy, before, after

    def check_op(self, i, out):
        op = self.ops[i]
        if op[0] == "channel":
            return oracles.check_channel_round_trip(op[1], op[2], out)
        if op[0] == "map":
            return oracles.check_hermitian_map(op[3], out)
        if op[0] == "spectrum":
            return oracles.check_generator_spectrum(op[1], op[2], out)
        return oracles.check_bipartite(op[1], (4, 4), out)


DEFAULT_SEED = 0
WORKLOADS = {w.name: w for w in (EvolveShipped, EvolveD16, SampleEvents, Analysis)}
