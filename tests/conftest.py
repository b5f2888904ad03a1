"""Shared randomized-input helpers; every test seeds its own generator."""

from __future__ import annotations

import signal
import sys
import tracemalloc
from contextlib import contextmanager

import numpy as np

import rholab
from rholab import DensityOperator, KrausChannel, ProperMixture, UnitVector3


def random_complex(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    x = random_complex(rng, (n, n))
    return (x + x.conj().T) / 2.0


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(random_complex(rng, (n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_ket(rng: np.random.Generator, n: int) -> np.ndarray:
    v = random_complex(rng, n)
    return v / np.linalg.norm(v)


def random_density(rng: np.random.Generator, n: int) -> DensityOperator:
    x = random_complex(rng, (n, n))
    m = x @ x.conj().T
    return DensityOperator(m / np.trace(m).real)


def random_density_stack(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """`count` full-rank n x n density matrices as one (count, n, n) array, each exactly Hermitian."""
    x = random_complex(rng, (count, n, n))
    m = x @ x.conj().swapaxes(1, 2)
    m /= np.trace(m, axis1=1, axis2=2).real[:, None, None]
    return (m + m.conj().swapaxes(1, 2)) / 2.0


def random_mixture(rng: np.random.Generator, n: int, terms: int) -> ProperMixture:
    weights = rng.uniform(0.1, 1.0, size=terms)
    weights /= weights.sum()
    return ProperMixture([(w, random_ket(rng, n)) for w in weights])


def random_kraus_channel(rng: np.random.Generator, n: int, ops: int) -> KrausChannel:
    # Slices of a random isometry satisfy the completeness condition exactly.
    x = random_complex(rng, (ops * n, n))
    q, _ = np.linalg.qr(x)
    return KrausChannel([q[i * n : (i + 1) * n, :] for i in range(ops)])


def random_unit_vector(rng: np.random.Generator) -> UnitVector3:
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    return UnitVector3(v[0], v[1], v[2])


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def rotated(rotation: np.ndarray, v: UnitVector3) -> UnitVector3:
    w = rotation @ v.as_array()
    w /= np.linalg.norm(w)
    return UnitVector3(w[0], w[1], w[2])


@contextmanager
def time_limit(seconds: float):
    """Raise TimeoutError in the block after `seconds` of wall time, so a
    run that should be refused up front fails instead of hanging."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _spy_on_eigensolves(monkeypatch, record) -> None:
    """Route every rholab module's binding of `hermitian_eig` through a spy that calls
    record(a) on each matrix or stack it is given, before solving it."""
    original = rholab.linalg.hermitian_eig

    def spied(a, *args, **kwargs):
        record(a)
        return original(a, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "rholab" or name.startswith("rholab."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, spied)


def count_eigensolves(monkeypatch) -> list:
    """Spy on every rholab binding of `hermitian_eig`; the returned list gains one entry
    per call, the number of matrices it solves: 1 for one matrix, B for a (B, n, n) stack."""
    calls = []
    _spy_on_eigensolves(monkeypatch, lambda a: calls.append(len(a) if np.ndim(a) == 3 else 1))
    return calls


def spy_eigensolves(monkeypatch) -> list:
    """Spy on every rholab binding of `hermitian_eig`; the returned list gains the shape
    of each matrix or stack it solves, in call order."""
    shapes = []
    _spy_on_eigensolves(monkeypatch, lambda a: shapes.append(np.shape(a)))
    return shapes


def count_sweeps(monkeypatch) -> list:
    """Route the Jacobi rounds of `hermitian_eig` through a spy; the returned list gains
    one entry per sweep, the number of matrices it rotates: 1 for one matrix, and for a
    (B, n, n) stack the matrices still active in that sweep.  A sweep in dimension n is
    n - 1 rounds, or n for odd n, and no solve stops inside one."""
    sweeps = []
    left = 0  # rounds left in the current sweep
    original = rholab.linalg._rotations

    def counted(work, idx, skip):
        nonlocal left
        if not left:
            n = work.shape[-1]
            sweeps.append(len(work) if work.ndim == 3 else 1)
            left = n - 1 + n % 2
        left -= 1
        return original(work, idx, skip)

    monkeypatch.setattr(rholab.linalg, "_rotations", counted)
    return sweeps


def peak_of(call) -> int:
    """The tracemalloc peak of call(), in bytes."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def traced_peak(call) -> int:
    """The tracemalloc peak of call(), in bytes, after a first call that fills what is
    filled once per process (the solver's tables, imports)."""
    call()
    return peak_of(call)
