"""Von Neumann entropy and entropy rates under the two open-system flows.

All entropies are in nats (natural log).  Eigenvalues at or below
EIGENVALUE_FLOOR are the kernel: they contribute nothing to the entropy (the
0 log 0 = 0 convention) nor to the Hamiltonian rate.  Only the jump rates
floor them there before taking logs, and emit a RuntimeWarning when an input
is rank-deficient, since log(rho) is undefined on the kernel.  Without jump
operators a jump rate is 0 exactly, and no log is taken.

`von_neumann_entropy`, `entropy_production` and `jump_entropy_rate` take one
DensityOperator and return a float, or a sequence of them (a DensityStack
passes as it is, without a copy) and return an array with one value per state.
Both forms run one kernel on the states' stacked spectra, and a state's value is
the same bit for bit in either form.  The jump operators are checked once per
call, not once per state.
"""

from __future__ import annotations

import warnings
from typing import Callable

import numpy as np

from .density import DensityOperator, States, per_state, require_state, stacked
from .linalg import as_square_stack, require_finite, require_hermitian

EIGENVALUE_FLOOR = 1e-14


def von_neumann_entropy(d: States) -> float | np.ndarray:
    """S(rho) = -Tr(rho log rho) = -sum p_i log p_i, in nats."""
    p = stacked(d).eigenvalues
    p = np.where(p > EIGENVALUE_FLOOR, p, 1.0)  # 1 log 1 = 0: the 0 log 0 = 0 convention
    return per_state(d, np.maximum(0.0 - np.sum(p * np.log(p), axis=-1), 0.0))


def _floored(p: np.ndarray) -> np.ndarray:
    """Eigenvalues floored for logs, with one warning if any of them is floored."""
    p = np.maximum(p, 0.0)
    if np.any(p <= EIGENVALUE_FLOOR):
        warnings.warn(
            "density is rank-deficient; eigenvalues floored at "
            f"{EIGENVALUE_FLOOR:g} before log (result is regularized)",
            RuntimeWarning,
            stacklevel=4,  # the caller of entropy_production or jump_entropy_rate
        )
        p = np.maximum(p, EIGENVALUE_FLOOR)
    return p


def entropy_rate_hamiltonian(d: DensityOperator, h) -> float:
    """dS/dt = i Tr(log rho [H, rho]) for isolated Hamiltonian flow.

    Vanishes identically (the trace of a product of Hermitian operators is
    reversal-conjugate), so the returned value is a numerical zero.  log rho is
    taken on the support alone: in rho's eigenbasis the diagonal of [H, rho]
    vanishes, so each kernel term is exactly 0.
    """
    hm = require_hermitian(h, require_state(d).dim)
    support = d.eigenvalues > EIGENVALUE_FLOOR
    v = d.eigenvectors[:, support]
    log_rho = (v * np.log(d.eigenvalues[support])) @ v.conj().T
    commutator = hm @ d.matrix - d.matrix @ hm
    return float((1j * np.trace(log_rho @ commutator)).real)


def _rate(d: States, jump_ops, weight: Callable, hermitian: bool = False) -> float | np.ndarray:
    """sum_mn Lambda_mn weight(p)_mn (log p_n - log p_m) per state, p the floored eigenvalues,
    where Lambda_mn = sum_k |L^k_mn|^2 with L expressed in the eigenbasis of rho,
    accumulated one operator at a time over the (B, n, n) stack of bases."""
    s = stacked(d)
    ops = as_square_stack(jump_ops, s.dim)
    if not len(ops):  # no jump flow: as_square would reject the empty stack
        return per_state(d, np.zeros(len(s)))
    if hermitian:
        require_hermitian(ops, stack=True)
    p, v = _floored(s.eigenvalues), s.eigenvectors

    def rates() -> np.ndarray:
        lam = np.zeros(v.shape)
        for op in ops:  # V^dag made anew per operator, so no stack of it is held
            lam += np.abs(v.conj().swapaxes(-1, -2) @ op @ v) ** 2
        log_p = np.log(p)
        lam *= weight(p)  # in place, in the order of lam * weight * dlog: the same bits
        lam *= log_p[:, None, :] - log_p[:, :, None]
        return lam.reshape(len(p), -1).sum(-1)

    return per_state(d, require_finite(rates, "entropy rate"))


def entropy_production(d: States, jump_ops) -> float | np.ndarray:
    """Entropy rate for Hermitian jump operators (always >= 0).

    Evaluated in the eigenbasis of rho:

        dS/dt = 1/2 sum_mn Lambda_mn (p_n - p_m)(log p_n - log p_m),
        Lambda_mn = sum_k |L^k_mn|^2.

    Each factor pair has the same sign, hence the non-negativity; this is
    the dissipative entropy rate of the jump part of the Lindblad flow.
    """
    return _rate(d, jump_ops, lambda p: 0.5 * (p[:, None, :] - p[:, :, None]), hermitian=True)


def jump_entropy_rate(d: States, jump_ops) -> float | np.ndarray:
    """Entropy rate of the jump part for arbitrary (not necessarily
    Hermitian) jump operators:

        dS/dt = sum_mn Lambda_mn p_n (log p_n - log p_m)

    in the eigenbasis of rho.  Reduces to `entropy_production` when every
    jump operator is Hermitian; carries no sign guarantee in general.
    """
    return _rate(d, jump_ops, lambda p: p[:, None, :])
