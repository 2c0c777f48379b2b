"""Annealing schedules, the replica ensemble, and the shared run driver.

Both solvers are Markov chains over the same ensemble machinery: R replica
states with cached energies and one independent RNG stream per replica,
all derived from a single master seed.  The driver walks a beta schedule,
counts per-replica spin updates u, and records (spin_updates, best, median,
p01) checkpoints: the initial one, one whenever u crosses a multiple of
checkpoint_every (after every step when it is None), and a final one.

Budget semantics: with budget=None every schedule entry gets exactly one
step (the literal reading of the algorithm's loop over betas).  With a
spin-update budget B, the schedule is progress-indexed: a step starting at
u per-replica updates runs at betas[floor(u * len(betas) / B)], and the run
stops once u >= B, overshooting by less than one step.  budget=0 performs
no steps and yields the initial checkpoint only.

run_schedule raises NumericError as soon as any cached replica energy is not
finite, after initialization or after any step, rather than recording NaN
or infinite checkpoints.

Thread parallelism chunks the replica axis.  Every replica owns its RNG
stream and all arithmetic is row-local, so results are byte-identical for
any thread count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .qubo import QuboInstance, _check_beta, energy_batch
from .treebp import NumericError


@dataclass
class AnnealSchedule:
    """Ordered positive inverse temperatures, optionally with the geometric
    descriptor (beta_start, beta_end, steps) that generated them."""

    betas: np.ndarray
    kind: tuple[float, float, int] | None = None

    def __post_init__(self) -> None:
        self.betas = np.asarray(self.betas, dtype=np.float64)
        if self.betas.ndim != 1:
            raise ValueError("betas must be a 1-d sequence")
        for beta in self.betas.tolist():
            _check_beta(beta)

    def __len__(self) -> int:
        return int(self.betas.size)


def geometric_schedule(beta_start: float, beta_end: float, steps: int) -> AnnealSchedule:
    """betas[t] = beta_start * (beta_end/beta_start)^(t/(steps-1))."""
    _check_beta(beta_start)
    _check_beta(beta_end)
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if steps == 1:
        betas = np.array([beta_start], dtype=np.float64)
    else:
        betas = np.geomspace(beta_start, beta_end, steps)
    return AnnealSchedule(betas, kind=(float(beta_start), float(beta_end), int(steps)))


class Checkpoint(NamedTuple):
    spin_updates: int
    best: float
    median: float
    p01: float


@dataclass
class RunTrace:
    """Checkpoint series plus final and best-ever states of a run."""

    checkpoints: list[Checkpoint]
    final_states: np.ndarray
    best_state: np.ndarray
    best_energy: float


@dataclass
class ReplicaEnsemble:
    """R binary states with cached energies and per-replica RNG streams."""

    states: np.ndarray
    energies: np.ndarray
    rngs: list[np.random.Generator]

    @property
    def r(self) -> int:
        return int(self.states.shape[0])

    @classmethod
    def initialize(
        cls, q: QuboInstance, r: int, seed: int | np.random.SeedSequence
    ) -> "ReplicaEnsemble":
        """Fair-coin states, each replica drawn from its own stream."""
        if r < 1:
            raise ValueError(f"replica count must be >= 1, got {r}")
        ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
        rngs = [np.random.default_rng(s) for s in ss.spawn(r)]
        states = np.stack([rng.random(q.n) < 0.5 for rng in rngs]).astype(np.uint8)
        return cls(states, energy_batch(q, states), rngs)


def _median_p01(r: int) -> Callable[[np.ndarray], list[float]]:
    """np.percentile(e, [50.0, 1.0]) over r values, to the bit and without its
    fixed cost: numpy's partition, then its linear rule (_lerp) on floats.  A
    sort would not do: it may swap tied -0.0 and 0.0, and the sign can show."""
    picks = []  # numpy's (previous, next, gamma) per quantile
    for v in ((r - 1) * 0.5, (r - 1) * 0.01):
        g = int(v)  # v >= 0; at r = 1 numpy reads index -1 with gamma v + 1
        picks.append((g, min(g + 1, r - 1), v - g if r > 1 else v + 1))
    kth = np.array(sorted({0, r - 1, *(i for p in picks for i in p[:2])}))

    def quantiles(e: np.ndarray) -> list[float]:
        s = np.partition(e, kth)
        abt = [(float(s[i]), float(s[j]), t) for i, j, t in picks]
        return [a + (b - a) * t if t < 0.5 else b - (b - a) * (1 - t) for a, b, t in abt]

    return quantiles


# A step function advances the whole ensemble at one beta and returns the
# per-replica spin-update count of that step.
StepFn = Callable[[float], int]
# A chunk runner maps fn(lo, hi) over a fixed partition of the replica axis.
ChunkRunner = Callable[[Callable[[int, int], None]], None]


def run_schedule(
    q: QuboInstance,
    r: int,
    schedule: AnnealSchedule,
    seed: int,
    checkpoint_every: int | None,
    make_step: Callable[[QuboInstance, ReplicaEnsemble, np.random.Generator, ChunkRunner], StepFn],
    *,
    budget: int | None = None,
    threads: int = 1,
) -> RunTrace:
    """Drive make_step's kernel over the schedule; see module docstring."""
    if threads < 1:
        raise ValueError(f"thread count must be >= 1, got {threads}")
    if checkpoint_every is not None and checkpoint_every < 1:
        raise ValueError(f"checkpoint_every must be >= 1, got {checkpoint_every}")
    betas = schedule.betas
    if budget is not None:
        if budget < 0:
            raise ValueError(f"budget must be >= 0, got {budget}")
        if budget > 0 and betas.size == 0:
            raise ValueError("empty schedule with a nonzero budget")

    root = np.random.SeedSequence(seed)
    chain_rng = np.random.default_rng(root.spawn(1)[0])
    ens = ReplicaEnsemble.initialize(q, r, root)
    median_p01 = _median_p01(r)

    threads = min(threads, r)
    cuts = np.linspace(0, r, threads + 1).astype(int)
    bounds = [(int(cuts[t]), int(cuts[t + 1])) for t in range(threads)]
    with ThreadPoolExecutor(threads) if threads > 1 else nullcontext() as pool:

        def run_chunks(fn: Callable[[int, int], None]) -> None:
            if pool is None:
                fn(0, r)
            else:
                for _ in pool.map(lambda b: fn(*b), bounds):
                    pass

        step = None
        checkpoints: list[Checkpoint] = []
        best_e = np.inf
        moves = u = before = 0
        while True:
            if not np.isfinite(ens.energies).all():
                raise NumericError("non-finite replica energy")
            if step is None:
                step = make_step(q, ens, chain_rng, run_chunks)
            pos = int(np.argmin(ens.energies))
            if ens.energies[pos] < best_e:
                best_e = float(ens.energies[pos])
                best_x = ens.states[pos].copy()
            done = moves == betas.size if budget is None else u >= budget
            if (
                done
                or not checkpoints
                or checkpoint_every is None
                or u // checkpoint_every > before // checkpoint_every
            ):
                checkpoints.append(Checkpoint(u, best_e, *median_p01(ens.energies)))
            if done:
                return RunTrace(checkpoints, ens.states.copy(), best_x, best_e)
            idx = moves if budget is None else min(u * betas.size // budget, betas.size - 1)
            before = u
            u += step(float(betas[idx]))
            moves += 1
