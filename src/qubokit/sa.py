"""Simulated-annealing baseline with Metropolis single-spin updates.

`sa_sweep` is the per-sweep reference: one replica visits all n sites in a
fresh random permutation and flips each with probability
min(1, e^(-beta*d)).  `sa_run` drives a kernel that makes the same draws
and the same decisions for all replicas, in blocks of at most 64.

Cached local fields, after Isakov, Zintchenko, Ronnow and Troyer,
"Optimised simulated annealing for Ising spin glasses", CPC 192, 265
(2015): at the start of each sweep a block builds the coupling part
G = W x of its fields once, by treebp._frozen_fields summed from 0.0.
Flipping site i changes the energy by d = +-(h[i] + G[i]), read in O(1);
an accepted flip adds +-w to its neighbours' G in adjacency order, in
O(degree).  h stays out of the running sums, where a large coupling would
absorb it: with h = -1 and a coupling of 1e307, G returns to 0.0 exactly
once that neighbour flips back, where h + W x would lose the -1.

Accept rule: a sweep draws a permutation and then n uniforms u from the
replica's stream, and takes -log(u) once for all n sites; site t's flip is
accepted where beta * max(d, 0) < -log(u[t]), so no site needs an exp.
That is u < e^(-beta*d) up to rounding at the boundary, except at u = 0
exactly, where -log(u) = inf accepts any flip whose beta * d is finite.
As beta > 0 and -log(u) > 0 for every u < 1, the loops test
beta * d < -log(u[t]), the same decision without the max.  beta * d
overflows to +-inf on a steep flip, which decides it correctly, so numpy
need not warn.

Two loops, one per block shape.  A block of one replica runs _sweep_one,
the loop `sa_sweep` runs after building G from x: site by site on python
lists.  Wider blocks are run-batched: each replica's permutation is cut
greedily into maximal runs, stretches of consecutive positions in which no
two sites share a coupling, and round k of a sweep resamples run k of every
replica in the block with one set of numpy operations, about 67 and 100
rounds on MIS ER(500, 0.02) and ER(2000, 0.003).  No site's field changes
while its run is processed.  Both loops add each accepted d to the cached
energy in visiting order and each field update in adjacency order, so
states and cached energies are bit-identical for any block width.  Every
block sweeps on the calling thread: a round's numpy calls, on a few
thousand elements each, ran slower on two threads than on one under the GIL.
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
from .treebp import _frozen_fields


def _thresholds(u: np.ndarray) -> np.ndarray:
    """-log(u), in place of u; u = 0 gives inf without a warning."""
    with np.errstate(divide="ignore"):
        np.log(u, out=u)
    return np.negative(u, out=u)


def _coupling_fields(q: QuboInstance, xt: np.ndarray) -> np.ndarray:
    """(n, R) fields W x, summed from 0.0, of the position-major states xt."""
    idx, wgt = q.padded_adjacency()
    return _frozen_fields(np.zeros((q.n, 1)), q._degrees, idx, wgt, xt)


def _sweep_one(
    q: QuboInstance, x: np.ndarray, e: float, beta: float, rng: np.random.Generator
) -> tuple[float, int]:
    """One replica's sweep, site by site on python lists, of its state row x
    (updated in place) with cached energy e; returns e plus each accepted
    change, in visiting order, and the accepted count.  Python floats
    overflow to inf without a warning."""
    sites = rng.permutation(q.n).tolist()
    thr = _thresholds(rng.random(q.n)).tolist()
    g = _coupling_fields(q, x[:, None]).ravel().tolist()
    h, adj, xs = q.h.tolist(), q.adjacency, x.tolist()
    accepted = 0
    for i, t in zip(sites, thr):
        d = h[i] + g[i]
        if xs[i]:
            d = -d
        if beta * d < t:
            xs[i] ^= 1
            e += d
            accepted += 1
            if xs[i]:
                for j, w in adj[i]:
                    g[j] += w
            else:
                for j, w in adj[i]:
                    g[j] -= w
    x[:] = xs
    return e, accepted


def sa_sweep(
    q: QuboInstance, x: np.ndarray, beta: float, rng: np.random.Generator
) -> tuple[np.ndarray, int]:
    """One sweep: visit all n variables in a fresh random permutation and
    flip each with probability min(1, e^(-beta*d)), by the accept rule of
    the module docstring.

    Mutates x in place; returns (x, accepted count).  Counts as n spin
    updates (attempts) regardless of acceptance.
    """
    _check_beta(beta)
    return x, _sweep_one(q, x, 0.0, beta, rng)[1]


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
    """Sweeps over the replica axis in blocks on the calling thread; see the
    module docstring.  chain_rng and run_chunks are unused (kept so IBP and
    SA runs share the seed layout and the make_step signature)."""
    states, energies, rngs = ens.states, ens.energies, ens.rngs
    h, n, deg = q.h, q.n, q._degrees
    # The padded rows, flattened: row i's real entries, in adjacency order,
    # end just before flat index row_end[i].
    idx, wgt = q.padded_adjacency()
    row_end = np.arange(n) * idx.shape[1] + deg
    nbr, wgt = idx.reshape(-1), wgt.reshape(-1)

    def sweep(lo: int, hi: int, beta: float) -> None:
        nb = hi - lo
        if nb == 1:
            energies[lo], _ = _sweep_one(q, states[lo], float(energies[lo]), beta, rngs[lo])
            return
        # Position-major (n, nb) bits and coupling fields, both indexed by
        # the flat element site * nb + replica; the fields first, before the
        # sweep's index arrays exist, to keep the peak low.
        xt = states[lo:hi].T.copy()
        g = _coupling_fields(q, xt).reshape(-1)
        xf = xt.reshape(-1)
        perms = np.stack([rngs[r].permutation(n) for r in range(lo, hi)], dtype=np.int32)
        thr = np.empty((nb, n))
        for k in range(nb):
            rngs[lo + k].random(out=thr[k])
        _thresholds(thr)
        bounds = _run_bounds(perms, q.pair_i, q.pair_j)
        # Elements (replica, position) in round-major order, each round in
        # (replica, position) order: round k is elements off[k]:off[k + 1].
        off = bounds.sum(axis=1)
        lens = np.diff(bounds, axis=0).ravel()
        rows = np.tile(np.arange(nb, dtype=np.int32), bounds.shape[0] - 1)
        run_cell = bounds[:-1].ravel() + rows * n
        cell = np.repeat(run_cell - np.cumsum(lens, dtype=np.int32) + lens, lens)
        cell += np.arange(nb * n, dtype=np.int32)
        site = perms.reshape(-1)[cell]
        thr = thr.reshape(-1)[cell]
        del perms, cell  # freed before the rounds, to keep the peak low
        rep = np.repeat(rows, lens)
        flat = site * nb + rep
        eb = energies[lo:hi]
        with np.errstate(over="ignore"):
            for k in range(bounds.shape[0] - 1):
                sl = slice(off[k], off[k + 1])
                fi = flat[sl]
                s = site[sl]
                xs = xf[fi]
                # d = (1 - 2 x_i) * (h_i + G_i), that is +-(h_i + G_i).
                d = h[s]
                d += g[fi]
                np.negative(d, out=d, where=xs.view(bool))
                acc = np.less(beta * d, thr[sl])
                xf[fi] = xs ^ acc
                a = np.flatnonzero(acc)
                if not a.size:
                    continue
                s, r = s[a], rep[sl][a]
                # Unbuffered and in element order: each replica's changes are
                # added in its visiting order, as _sweep_one adds them.
                np.add.at(eb, r, d[a])
                # Field updates: every accepted site's row in adjacency
                # order, +w where the new bit is 1, -w where it is 0.
                cnt = deg[s]
                end = np.cumsum(cnt)
                start = row_end[s]
                start -= end
                pos = np.repeat(start, cnt)
                pos += np.arange(end[-1])
                val = wgt[pos]
                np.negative(val, out=val, where=np.repeat(xs[a].view(bool), cnt))
                np.add.at(g, nbr[pos] * nb + np.repeat(r, cnt), val)
        states[lo:hi] = xt.T

    def step(beta: float) -> int:
        for lo in range(0, ens.r, _BLOCK):
            sweep(lo, min(lo + _BLOCK, ens.r), beta)
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
    """Mirror of ibp_run with one sweep per schedule entry, all on the calling
    thread whatever threads is; spin updates count n per sweep per replica."""
    return run_schedule(
        q, r, schedule, seed, checkpoint_every, _make_sa_step,
        budget=budget, threads=threads,
    )
