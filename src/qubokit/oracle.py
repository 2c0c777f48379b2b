"""Exact reference computations on small instances.

Everything here is brute force or exact dynamic programming; these routines
are the ground truth the samplers and encoders are tested against.  State
index s in [0, 2^n) maps to bits via x_i = (s >> (n-1-i)) & 1, so ascending
s is ascending lexicographic order of the bit vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qubo import QuboInstance, _check_beta
from .treebp import NumericError

MAX_MIN_VARS = 24
MAX_DIST_VARS = 20
_CHUNK_ENTRIES = 1 << 22


class CapacityError(ValueError):
    """Instance too large for exhaustive enumeration."""


def _bit_shifts(n: int) -> np.ndarray:
    return np.arange(n - 1, -1, -1, dtype=np.int64)


def state_bits(s: int, n: int) -> np.ndarray:
    """Bit vector of state index s (lexicographic convention)."""
    return ((s >> _bit_shifts(n)) & 1).astype(np.uint8)


def state_index(x) -> int:
    """Inverse of state_bits."""
    bits = np.asarray(x, dtype=np.int64)
    return int(bits @ (1 << _bit_shifts(bits.size)))


def _state_chunks(q: QuboInstance):
    """All 2^n state indices in ascending runs of at most
    _CHUNK_ENTRIES // max(n, pairs) states, which bounds the (states, n)
    and (states, pairs) temporaries of _chunk_energies."""
    total = 1 << q.n
    size = max(1, _CHUNK_ENTRIES // max(q.n, q.num_couplings))
    for start in range(0, total, size):
        yield np.arange(start, min(start + size, total), dtype=np.int64)


def _chunk_energies(q: QuboInstance, states: np.ndarray) -> np.ndarray:
    """Energies of the given states; NumericError if any is not finite."""
    bits = ((states[:, None] >> _bit_shifts(q.n)[None, :]) & 1).astype(np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        e = bits @ q.h
        if q.pair_w.size:
            e += (bits[:, q.pair_i] * bits[:, q.pair_j]) @ q.pair_w
    if not np.isfinite(e).all():
        raise NumericError("energy overflows the float range")
    return e


def brute_force_min(q: QuboInstance) -> tuple[np.ndarray, float]:
    """Exhaustive minimum; ties resolve to the lexicographically smallest x."""
    if q.n > MAX_MIN_VARS:
        raise CapacityError(f"brute_force_min supports n <= {MAX_MIN_VARS}, got {q.n}")
    best_e = np.inf
    best_s = 0
    for states in _state_chunks(q):
        e = _chunk_energies(q, states)
        k = int(np.argmin(e))
        if e[k] < best_e:
            best_e = float(e[k])
            best_s = int(states[k])
    return state_bits(best_s, q.n), best_e


@dataclass
class ExactDistribution:
    """Boltzmann law P(x) = exp(-beta E(x)) / Z over all 2^n assignments."""

    n: int
    beta: float
    energies: np.ndarray        # (2^n,) indexed by state
    probabilities: np.ndarray   # (2^n,) sums to 1

    def marginals(self) -> np.ndarray:
        """P(x_i = 1) for each variable."""
        states = np.arange(1 << self.n, dtype=np.int64)
        p1 = np.empty(self.n)
        for i, shift in enumerate(_bit_shifts(self.n)):
            p1[i] = self.probabilities[((states >> shift) & 1) == 1].sum()
        return p1


def boltzmann_distribution(q: QuboInstance, beta: float) -> ExactDistribution:
    """Exact normalised Boltzmann law at inverse temperature beta >= 0."""
    if q.n > MAX_DIST_VARS:
        raise CapacityError(f"boltzmann_distribution supports n <= {MAX_DIST_VARS}, got {q.n}")
    _check_beta(beta, zero_ok=True)
    energies = np.concatenate([_chunk_energies(q, s) for s in _state_chunks(q)])
    # log-weights -beta*(E - min E) <= 0, the least energy's 0, so exp()
    # stays in range; a product that overflows is -inf, weight 0.  A gap past
    # the float range is clamped to it, so beta = 0 gives 0, not inf*0 = NaN.
    with np.errstate(over="ignore"):
        gap = energies - energies.min()
        logw = np.minimum(gap, np.finfo(np.float64).max) * -beta
    weights = np.exp(logw)
    return ExactDistribution(q.n, beta, energies, weights / weights.sum())


def exact_marginals(q: QuboInstance, beta: float) -> np.ndarray:
    """Single-site marginals P(x_i = 1) of the Boltzmann law."""
    return boltzmann_distribution(q, beta).marginals()


def tree_dp_min(q: QuboInstance) -> float:
    """Exact minimum energy when the coupling graph is a forest, O(n).

    Repeatedly folds a leaf i with remaining neighbor j: the leaf's best
    response min_{x_i} (h_i x_i + w_ij x_i x_j) contributes a constant for
    x_j = 0 and an adjusted field for x_j = 1.
    """
    heff, wgt, deg = q.h.tolist(), q._weight_rows(), q._degrees.tolist()
    removed = [False] * q.n
    stack = [i for i, d in enumerate(deg) if d == 1]
    total = 0.0

    while stack:
        i = stack.pop()
        if removed[i] or deg[i] != 1:
            continue
        j, w = next((j, w) for j, w in zip(q._nbrs[i], wgt[i]) if not removed[j])
        m0 = min(0.0, heff[i])
        total += m0
        heff[j] += min(0.0, heff[i] + w) - m0
        removed[i], deg[i] = True, 0
        deg[j] -= 1
        if deg[j] == 1:
            stack.append(j)

    if any(deg):  # a folded leaf's degree is 0
        raise ValueError("coupling graph contains a cycle")
    for i in range(q.n):
        if not removed[i]:
            total += min(0.0, heff[i])
    return total


def total_variation(p, q) -> float:
    """TV distance between two distributions on the same support."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ValueError(f"shape mismatch {p.shape} vs {q.shape}")
    return 0.5 * float(np.abs(p - q).sum())
