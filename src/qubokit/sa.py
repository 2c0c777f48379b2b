"""Simulated-annealing baseline with Metropolis single-spin updates.

A sweep visits the classes of QuboInstance.colour_classes() in order, each
class's sites in ascending order: the fixed-order scan of Isakov,
Zintchenko, Ronnow and Troyer, "Optimised simulated annealing for Ising
spin glasses", CPC 192, 265 (2015), over classes of sites no coupling
joins, which generalises the checkerboard update of Preis, Virnau, Paul
and Schneider, J. Comput. Phys. 228, 4468 (2009) to any graph.  No site's
field depends on another site of its class, so updating a whole class at
once is a product of exact single-site Metropolis updates, each of which
leaves the Boltzmann law stationary.

`sa_sweep` is the scalar twin: one replica, site by site on python lists,
each field h_i + sum of w * x_j added in adjacency order.  `sa_run` drives
the kernel, one vectorized pass per class over all replicas at once: it
gathers the class's fields fresh by treebp._frozen_fields, decides every
flip, flips the accepted bits and adds the accepted changes to the cached
energies.  Kernel and twin make the same draws, the same decisions and the
same sums in the same order, so states and cached energies agree bit for
bit; like IBP's, the kernel runs on the calling thread for every R.

Accept rule: a sweep draws n uniforms u from the replica's stream and takes
-log(u) once; the site visited t-th is flipped where beta * d < -log(u[t]),
d = (1 - 2 x_i) * (h_i + sum of w * x_j), so no site needs an exp.  That is
u < e^(-beta*d) up to rounding at the boundary, except at u = 0 exactly,
where -log(u) = inf accepts any flip whose beta * d is finite; as -log(u) > 0
for every u < 1, the test beta * max(d, 0) < -log(u) needs no max.  beta * d
overflows to +-inf on a steep flip, which decides it correctly, so numpy
need not warn.  Each class's accepted changes are summed in site order,
from -0.0, and that sum is added to the cached energy.
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
from .treebp import _frozen_fields, _sum_rows


def _thresholds(u: np.ndarray) -> np.ndarray:
    """-log(u), in place of u; u = 0 gives inf without a warning."""
    with np.errstate(divide="ignore"):
        np.log(u, out=u)
    return np.negative(u, out=u)


def _scalar_sweep(
    q: QuboInstance, x: np.ndarray, e: float, beta: float, rng: np.random.Generator
) -> tuple[float, int]:
    """sa_sweep on the state row x (updated in place) with cached energy e;
    returns e plus each class's sum of accepted changes, and the accepted
    count.  Python floats overflow to inf without a warning."""
    thr = iter(_thresholds(rng.random(q.n)).tolist())
    h, nbrs, wgt, xs = q.h.tolist(), q._nbrs, q._weight_rows(range(q.n)), x.tolist()
    accepted = 0
    for sites in q.colour_classes():
        de = -0.0
        for i in sites.tolist():
            d = h[i]
            for j, w in zip(nbrs[i], wgt[i]):
                d += w * xs[j]
            if xs[i]:
                d = -d
            if beta * d < next(thr):
                xs[i] ^= 1
                de += d
                accepted += 1
        e += de
    x[:] = xs
    return e, accepted


def sa_sweep(
    q: QuboInstance, x: np.ndarray, beta: float, rng: np.random.Generator
) -> tuple[np.ndarray, int]:
    """One sweep: visit all n variables, class by class in the colour order
    of the module docstring, and flip each with probability
    min(1, e^(-beta*d)), by its accept rule.

    Mutates x in place; returns (x, accepted count).  Counts as n spin
    updates (attempts) regardless of acceptance.
    """
    _check_beta(beta)
    return x, _scalar_sweep(q, x, 0.0, beta, rng)[1]


def _make_sa_step(
    q: QuboInstance,
    ens: ReplicaEnsemble,
    chain_rng: np.random.Generator,
    run_chunks: ChunkRunner,
) -> StepFn:
    """Sweeps all replicas at once on the calling thread; see the module
    docstring.  chain_rng and run_chunks are unused (kept so IBP and SA
    runs share the seed layout and the make_step signature)."""
    states, energies, rngs = ens.states, ens.energies, ens.rngs
    # The sites class by class: the states' positions during a sweep, in
    # which each class's bits, thresholds and rows are one slice.  The rows
    # of padded_adjacency() give each neighbour as its position; a class's
    # rows are cut to the widest of them and copied in Fortran order, since
    # _frozen_fields reads them transposed.  They hold no run state, so they
    # are built once per instance, cached on it beside colour_classes()
    # (about 120 KB for random ER(300, 0.05)) and made read-only.
    if q._class_rows is None:
        classes = q.colour_classes()
        order = np.concatenate(classes)
        pos = np.empty_like(order)
        pos[order] = np.arange(q.n)
        idx, wgt = q.padded_adjacency()
        idx, wgt, h, deg = pos[idx[order]], wgt[order], q.h[order, None], q._degrees[order]
        ends = np.cumsum([c.size for c in classes]).tolist()
        starts = [0, *ends[:-1]]
        passes = [
            (lo, hi, h[lo:hi], deg[lo:hi],
             np.array(idx[lo:hi, :w], order="F"), np.array(wgt[lo:hi, :w], order="F"))
            for lo, hi, w in zip(starts, ends, np.maximum.reduceat(deg, starts).tolist())
        ]
        for a in (order, *(x for p in passes for x in p[2:])):
            a.flags.writeable = False
        q._class_rows = (order, passes)
    order, passes = q._class_rows
    u = np.empty((ens.r, q.n))

    def step(beta: float) -> int:
        for k, rng in enumerate(rngs):
            rng.random(out=u[k])
        # Position-major (n, R) thresholds and bits, both C-ordered so that
        # every (m, R) array of a pass is, and its sums over the class run
        # site by site rather than pairwise.
        thr = _thresholds(u).T.copy()
        xo = states.T[order]
        with np.errstate(over="ignore"):
            for lo, hi, hbase, cdeg, cidx, cwgt in passes:
                xs = xo[lo:hi]
                d = _frozen_fields(hbase, cdeg, cidx, cwgt, xo)
                np.negative(d, out=d, where=xs.view(bool))
                acc = np.less(beta * d, thr[lo:hi])
                xs ^= acc
                np.add(energies, _sum_rows(np.where(acc, d, -0.0)), out=energies)
        states[:, order] = xo.T
        return q.n

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
    """Mirror of ibp_run with one sweep per schedule entry, all replicas at
    once on the calling thread; threads is validated and has no effect.
    Spin updates count n per sweep per replica."""
    return run_schedule(
        q, r, schedule, seed, checkpoint_every, _make_sa_step,
        budget=budget, threads=threads,
    )
