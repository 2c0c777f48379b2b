"""Simulated-annealing baseline with Metropolis single-spin updates.

`sa_sweep` is the per-sweep reference: one replica visits all n sites in a
fresh random permutation and flips each with probability
min(1, e^(-beta*d)).  `sa_run` drives a run-batched kernel that makes the
same draws and the same decisions for all replicas at once.

Run batching: each replica's permutation is cut greedily into maximal
runs, stretches of consecutive positions in which no two sites share a
coupling.  Round k of a sweep resamples run k of every replica in a block
of at most 64 replicas with one set of numpy operations, so Python loops
over rounds rather than over sites: a sweep takes about 56 rounds on random
ER(300, 0.05) with one replica, and 67 and 100 on MIS ER(500, 0.02) and
ER(2000, 0.003) with 64-replica blocks.  No site's field changes while
its run is processed, so every field, acceptance decision and state equals
the sequential sweep's, bit for bit.  Each replica's energy changes are
added in visiting order, so the cached energies match too.
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
from .qubo import QuboInstance, delta_energy


def sa_sweep(
    q: QuboInstance, x: np.ndarray, beta: float, rng: np.random.Generator
) -> tuple[np.ndarray, int]:
    """One sweep: visit all n variables in a fresh random permutation and
    flip each with probability min(1, e^(-beta*d)).

    Mutates x in place; returns (x, accepted count).  Counts as n spin
    updates (attempts) regardless of acceptance.
    """
    if not beta > 0:
        raise ValueError(f"beta must be > 0, got {beta}")
    perm = rng.permutation(q.n)
    u = rng.random(q.n)
    accepted = 0
    for t in range(q.n):
        i = int(perm[t])
        d = delta_energy(q, x, i)
        if u[t] < np.exp(-beta * max(d, 0.0)):
            x[i] = 1 - x[i]
            accepted += 1
    return x, accepted


# Replicas swept together; bounds the kernel's working set.
_BLOCK = 64
# (coupling, replica) entries placed at once by _run_bounds.
_SEG_ENTRIES = 1 << 14


def _run_bounds(perms: np.ndarray, pair_i: np.ndarray, pair_j: np.ndarray) -> np.ndarray:
    """Cut each replica's visiting order into greedy maximal runs of
    mutually uncoupled sites.

    perms[b] is the order in which replica b visits the n sites.  Returns a
    (K + 1, B) array of run starts whose last row is n: run k of replica b
    covers positions [bounds[k, b], bounds[k + 1, b]), and is empty once
    replica b has no runs left.
    """
    nb, n = perms.shape
    cols = np.arange(nb, dtype=np.int32)
    # Position-major throughout, so that gathers copy whole rows.
    # pos[i, b]: the position at which replica b visits site i.
    pos = np.empty((n, nb), dtype=np.int32)
    pos[perms, cols[:, None]] = np.arange(n, dtype=np.int32)
    # first[v, b]: the least later endpoint over couplings whose earlier
    # endpoint is at position v, n where there is none (row n stays n).
    first = np.full((n + 1, nb), n, dtype=np.int32)
    chunk = max(1, _SEG_ENTRIES // nb)
    for lo in range(0, pair_i.size, chunk):
        a = pos[pair_i[lo : lo + chunk]]
        b = pos[pair_j[lo : lo + chunk]]
        cell = np.minimum(a, b)
        cell *= nb
        cell += cols
        np.minimum.at(first.reshape(-1), cell.reshape(-1), np.maximum(a, b).reshape(-1))
    # A run starting at v ends just before the least later endpoint of the
    # couplings that start at v or after: the suffix minimum of first.
    # As cell indices v * nb + b, each run start jumps to the next one, and
    # the end cell n * nb + b to itself.
    jump = np.minimum.accumulate(first[::-1], axis=0)[::-1] * nb
    jump += cols
    jump = jump.reshape(-1)
    done = jump[-nb:].tobytes()
    cur = cols
    starts = [cur]
    while cur.tobytes() != done:
        cur = jump[cur]
        starts.append(cur)
    return np.stack(starts) // nb


def _make_sa_step(
    q: QuboInstance,
    ens: ReplicaEnsemble,
    chain_rng: np.random.Generator,
    run_chunks: ChunkRunner,
) -> StepFn:
    """Run-batched sweep over the replica axis; see the module docstring.
    chain_rng is unused (kept so IBP and SA runs share the seed layout)."""
    states, energies, rngs = ens.states, ens.energies, ens.rngs
    idx, wgt = q.padded_adjacency()
    h, n = q.h, q.n

    def sweep(lo: int, hi: int, beta: float) -> None:
        nb = hi - lo
        perms = np.stack([rngs[r].permutation(n) for r in range(lo, hi)])
        us = np.stack([rngs[r].random(n) for r in range(lo, hi)])
        bounds = _run_bounds(perms, q.pair_i, q.pair_j)
        # Elements (replica, position) in round-major order, each round in
        # (replica, position) order: round k is elements off[k]:off[k + 1].
        off = bounds.sum(axis=1)
        lens = np.diff(bounds, axis=0).ravel()
        rows = np.tile(np.arange(nb), bounds.shape[0] - 1)
        run_cell = bounds[:-1].ravel() + rows * n
        cell = np.repeat(run_cell - np.cumsum(lens) + lens, lens) + np.arange(nb * n)
        site = perms.reshape(-1)[cell]
        u = us.reshape(-1)[cell]
        del perms, us, cell  # freed before the rounds, to keep the peak low
        rep = np.repeat(rows, lens)
        base = rep * n
        flat = base + site
        xb = states[lo:hi].reshape(-1)  # a view: states is C-contiguous
        eb = energies[lo:hi]
        for k in range(bounds.shape[0] - 1):
            sl = slice(off[k], off[k + 1])
            s = site[sl]
            fi = flat[sl]
            nbr = idx[s]
            nbr += base[sl, None]
            fld = wgt[s]
            fld *= xb[nbr]
            fld = np.add.reduce(fld, axis=1)
            fld += h[s]
            # d = (1 - 2 x_i) * field, that is +-field.
            xs = xb[fi]
            d = np.negative(fld, out=fld, where=xs.view(bool))
            p = np.maximum(d, 0.0)
            p *= -beta
            np.exp(p, out=p)
            acc = u[sl] < p
            xb[fi] = xs ^ acc
            # Unbuffered and in element order: each replica's changes are
            # added in its visiting order, as the sequential sweep adds them.
            np.add.at(eb, rep[sl], np.where(acc, d, 0.0))

    def step(beta: float) -> int:
        def work(lo: int, hi: int) -> None:
            for b in range(lo, hi, _BLOCK):
                sweep(b, min(b + _BLOCK, hi), beta)

        run_chunks(work)
        return n

    return step


def sa_run(
    q: QuboInstance,
    r: int,
    schedule: AnnealSchedule,
    seed: int,
    checkpoint_every: int | None = None,
    *,
    budget: int | None = None,
    threads: int = 1,
) -> RunTrace:
    """Mirror of ibp_run with one sweep per schedule entry; spin updates
    count n per sweep per replica."""
    return run_schedule(
        q, r, schedule, seed, checkpoint_every, _make_sa_step,
        budget=budget, threads=threads,
    )
