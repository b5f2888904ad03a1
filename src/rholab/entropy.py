"""Von Neumann entropy and entropy rates under the two open-system flows.

All entropies are in nats (natural log).  Eigenvalues at or below
EIGENVALUE_FLOOR contribute nothing to the entropy (the 0 log 0 = 0
convention); rate computations floor eigenvalues there before taking logs
and emit a RuntimeWarning when the input is rank-deficient, since log(rho)
is undefined on the kernel.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .density import DensityOperator
from .linalg import as_square, in_basis, require_finite, require_hermitian

EIGENVALUE_FLOOR = 1e-14


def von_neumann_entropy(d: DensityOperator) -> float:
    """S(rho) = -Tr(rho log rho) = -sum p_i log p_i, in nats."""
    total = 0.0
    for p in d.eigenvalues:
        if p > EIGENVALUE_FLOOR:
            total -= float(p) * math.log(float(p))
    return max(total, 0.0)


def _floored_spectrum(d: DensityOperator) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (floored for logs) and eigenvector columns of rho, as
    solved when d was validated."""
    p = np.maximum(d.eigenvalues, 0.0)
    if np.any(p <= EIGENVALUE_FLOOR):
        warnings.warn(
            "density is rank-deficient; eigenvalues floored at "
            f"{EIGENVALUE_FLOOR:g} before log (result is regularized)",
            RuntimeWarning,
            stacklevel=3,
        )
        p = np.maximum(p, EIGENVALUE_FLOOR)
    return p, d.eigenvectors


def entropy_rate_hamiltonian(d: DensityOperator, h) -> float:
    """dS/dt = i Tr(log rho [H, rho]) for isolated Hamiltonian flow.

    Vanishes identically (the trace of a product of Hermitian operators is
    reversal-conjugate), so the returned value is a numerical zero.
    """
    hm = require_hermitian(h, d.dim)
    p, v = _floored_spectrum(d)
    log_rho = (v * np.log(p)) @ v.conj().T
    commutator = hm @ d.matrix - d.matrix @ hm
    return float((1j * np.trace(log_rho @ commutator)).real)


def _jump_weights(ops: list[np.ndarray], v: np.ndarray) -> np.ndarray:
    """Lambda_mn = sum_k |L^k_mn|^2 with L expressed in the eigenbasis of rho."""
    lam = np.zeros(v.shape)
    for m in ops:
        lam += np.abs(in_basis(m, v)) ** 2
    return lam


def entropy_production(d: DensityOperator, jump_ops) -> float:
    """Entropy rate for Hermitian jump operators (always >= 0).

    Evaluated in the eigenbasis of rho:

        dS/dt = 1/2 sum_mn Lambda_mn (p_n - p_m)(log p_n - log p_m),
        Lambda_mn = sum_k |L^k_mn|^2.

    Each factor pair has the same sign, hence the non-negativity; this is
    the dissipative entropy rate of the jump part of the Lindblad flow.
    """
    ops = [require_hermitian(op, d.dim) for op in jump_ops]
    p, v = _floored_spectrum(d)
    log_p = np.log(p)
    dp = p[None, :] - p[:, None]
    dlog = log_p[None, :] - log_p[:, None]
    return float(require_finite(lambda: 0.5 * np.sum(_jump_weights(ops, v) * dp * dlog), "entropy rate"))


def jump_entropy_rate(d: DensityOperator, jump_ops) -> float:
    """Entropy rate of the jump part for arbitrary (not necessarily
    Hermitian) jump operators:

        dS/dt = sum_mn Lambda_mn p_n (log p_n - log p_m)

    in the eigenbasis of rho.  Reduces to `entropy_production` when every
    jump operator is Hermitian; carries no sign guarantee in general.
    """
    ops = [as_square(op, d.dim) for op in jump_ops]
    p, v = _floored_spectrum(d)
    log_p = np.log(p)
    dlog = log_p[None, :] - log_p[:, None]
    return float(require_finite(lambda: np.sum(_jump_weights(ops, v) * p[None, :] * dlog), "entropy rate"))
