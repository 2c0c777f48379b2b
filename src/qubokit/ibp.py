"""Iterative belief propagation: the outer Markov-chain loop.

Each step selects one random induced sub-tree, shared by all replicas, and
exactly resamples its bits in every replica from the Boltzmann law of the
sub-problem conditioned on the frozen complement.  That is a heat-bath
block update, so at fixed beta the full Boltzmann distribution is
stationary.

`ibp_step` is the per-step reference: it runs the kernel's stages on python
floats, one replica at a time.  `ibp_run` drives the vectorized kernel, which
does the same arithmetic on all replicas at once with identical RNG streams,
so both paths produce the same trajectories for a given seed.
"""

from __future__ import annotations

import numpy as np

from .anneal import (
    AnnealSchedule,
    ChunkRunner,
    ReplicaEnsemble,
    RunTrace,
    StepFn,
    run_schedule,
)
from .qubo import QuboInstance, _check_beta
from .subtree import build_tree_problem, frozen_neighbor_arrays, select_subtree
from .treebp import (
    _frozen_fields,
    _sample_scalar,
    _sum_rows,
    _upward_scalar,
    ensemble_sample,
    ensemble_upward,
)


def ibp_step(
    q: QuboInstance,
    ensemble: ReplicaEnsemble,
    beta: float,
    rng: np.random.Generator,
) -> int:
    """One move: resample a shared random sub-tree in every replica.

    Mutates ensemble states and cached energies in place; returns the tree
    size M for spin-update accounting.
    """
    _check_beta(beta)
    tree = select_subtree(q, rng)
    parent = tree.parent_pos.tolist()
    edge_w = tree.edge_w.tolist()
    for r in range(ensemble.r):
        x = ensemble.states[r]
        eff = build_tree_problem(q, tree, x, beta).eff_field.tolist()
        s_up, _ = _upward_scalar(tree, eff, beta)
        u = ensemble.rngs[r].random(tree.size).tolist()
        new = _sample_scalar(tree, s_up, beta, u)
        old = x[tree.nodes].tolist()
        d = 0.0
        for b, new_p, old_p in zip(eff, new, old):
            d += b * (new_p - old_p)
        for p, pp in enumerate(parent[1:], 1):
            d += edge_w[p] * (new[p] * new[pp] - old[p] * old[pp])
        x[tree.nodes] = new
        ensemble.energies[r] += d
    return tree.size


class _BufferedIntegers:
    """Generator.integers(k), 1 <= k <= 2**32, draw for draw from blocks of
    32-bit words by numpy's rule (D. Lemire, ACM TOMACS 29(1), 2019): one
    word v per try, m = v * k, retry while m's low word is below
    (2**32 - k) % k, return m >> 32; k = 1 draws nothing.  The generator
    runs up to a block ahead, so it must be private to its user."""

    _BLOCK = 1024

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self._words: list[int] = []  # next word last

    def integers(self, k: int) -> int:
        if k == 1:
            return 0
        while True:
            if not self._words:
                words = self._rng.integers(0, 2**32, self._BLOCK, dtype=np.uint32)
                self._words = words.tolist()[::-1]
            m = self._words.pop() * k
            # The low word is below the threshold only if it is below k.
            if m & 0xFFFFFFFF >= k or m & 0xFFFFFFFF >= (2**32 - k) % k:
                return m >> 32


def _make_ibp_step(
    q: QuboInstance,
    ens: ReplicaEnsemble,
    chain_rng: np.random.Generator,
    run_chunks: ChunkRunner,
) -> StepFn:
    """Vectorized ibp_step over the replica axis, chunked for threading."""
    states, energies, rngs = ens.states, ens.energies, ens.rngs
    draws = _BufferedIntegers(chain_rng)

    def step(beta: float) -> int:
        tree = select_subtree(q, draws)
        idx, wmat = frozen_neighbor_arrays(q, tree)
        nodes = np.asarray(tree.nodes)
        hbase, deg = q.h[nodes, None], q._degrees[nodes]
        m = tree.size
        par = tree.parent_pos[1:]
        w_edge = tree.edge_w[1:, None]

        def work(lo: int, hi: int) -> None:
            # Position-major (M, R) arrays; u alone is (R, M). See treebp.
            xt = states[lo:hi].T.copy()
            ob = xt[nodes]
            xt[nodes] = 0
            eff = _frozen_fields(hbase, deg, idx, wmat, xt)
            u = np.empty((hi - lo, m))
            for k in range(hi - lo):
                rngs[lo + k].random(out=u[k])
            # The upward fields are freed as soon as the bits are drawn.
            nb = ensemble_sample(tree, ensemble_upward(tree, eff, beta), beta, u)
            # Energy change: 0, the field terms of positions 0..M-1, then the
            # edge terms of positions 1..M-1, summed in that order as ibp_step
            # adds them; each is a coefficient times a bit difference 0 or +-1.
            diff = np.zeros((2 * m, hi - lo), dtype=np.uint8)  # -1 wraps to 255
            np.subtract(nb, ob, out=diff[1 : m + 1])
            np.bitwise_and(nb[1:], nb[par], out=diff[m + 1 :])
            diff[m + 1 :] -= ob[1:] & ob[par]
            d = diff.view(np.int8).astype(np.float64)
            d[1 : m + 1] *= eff
            d[m + 1 :] *= w_edge
            states[lo:hi, nodes] = nb.T
            energies[lo:hi] += _sum_rows(d)

        run_chunks(work)
        return m

    return step


def ibp_run(
    q: QuboInstance,
    r: int,
    schedule: AnnealSchedule,
    seed: int,
    checkpoint_every: int | None = None,
    *,
    budget: int | None = None,
    threads: int = 1,
) -> RunTrace:
    """Run IBP over the schedule; spin updates count sum of tree sizes per
    replica.  See anneal.run_schedule for budget and checkpoint semantics."""
    return run_schedule(
        q, r, schedule, seed, checkpoint_every, _make_ibp_step,
        budget=budget, threads=threads,
    )
