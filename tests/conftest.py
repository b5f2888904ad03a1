"""Shared randomized-input helpers; every test seeds its own generator."""

from __future__ import annotations

import signal
from contextlib import contextmanager

import numpy as np

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
