"""Tests for the simulated-annealing baseline."""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qubokit import (
    AnnealSchedule,
    QuboInstance,
    RandomGraph,
    ReplicaEnsemble,
    boltzmann_distribution,
    gen_er_graph,
    geometric_schedule,
    mis_to_qubo,
    random_sparse_qubo,
    sa_run,
    sa_sweep,
    total_variation,
)
from qubokit import sa
from qubokit.oracle import state_index
from qubokit.qubo import energy, energy_batch
from qubokit.sa import _run_bounds


class TestSaSweep:
    def test_beta_validated(self):
        q = QuboInstance(2, h=[0.0, 0.0], couplings={(0, 1): 1.0})
        with pytest.raises(ValueError):
            sa_sweep(q, np.zeros(2, dtype=np.uint8), -1.0, np.random.default_rng(0))

    @pytest.mark.parametrize("beta", [np.inf, np.nan])
    def test_non_finite_beta_rejected(self, beta):
        # at beta inf, -inf*0 = NaN rejected every flip, downhill ones too
        q = QuboInstance(2, h=[-1.0, -1.0], couplings={(0, 1): 1.0})
        with pytest.raises(ValueError, match="finite"):
            sa_sweep(q, np.zeros(2, dtype=np.uint8), beta, np.random.default_rng(0))

    def test_local_optimum_frozen_at_high_beta(self):
        # all-ones is a strict local optimum here (every flip raises the
        # energy), so at beta=1e9 no sweep accepts anything
        q = QuboInstance(4, h=[-1.0] * 4, couplings={(0, 1): 0.5})
        x = np.ones(4, dtype=np.uint8)
        assert energy(q, x) == pytest.approx(-3.5)
        for s in range(5):
            _, accepted = sa_sweep(q, x, 1e9, np.random.default_rng(s))
            assert accepted == 0
        assert np.all(x == 1)

    def test_downhill_always_accepted(self):
        q = QuboInstance(5, h=[-2.0] * 5, couplings={})
        for s in range(10):
            x = np.zeros(5, dtype=np.uint8)
            _, accepted = sa_sweep(q, x, 1e-9, np.random.default_rng(s))
            # d = -2 < 0 for every site, acceptance probability is 1 even
            # at vanishing beta
            assert accepted == 5
            assert np.all(x == 1)

    def test_uphill_rate_matches_boltzmann_factor(self):
        # single spin with h = +1 starting at 1: flip to 0 is downhill and
        # flip back is uphill with acceptance e^(-beta)
        q = QuboInstance(1, h=[1.0], couplings={})
        rng = np.random.default_rng(0)
        beta = 1.0
        x = np.array([0], dtype=np.uint8)
        trials = 100_000
        ups = 0
        for _ in range(trials):
            x[0] = 0
            _, accepted = sa_sweep(q, x, beta, rng)
            ups += accepted
        want = np.exp(-beta)
        sigma = np.sqrt(want * (1 - want) / trials)
        assert abs(ups / trials - want) < 4 * sigma

    def test_fixed_beta_chain_is_stationary(self):
        q = QuboInstance(2, h=[-0.4, 0.3], couplings={(0, 1): 0.9})
        beta = 1.0
        dist = boltzmann_distribution(q, beta)
        rng = np.random.default_rng(1)
        x = np.zeros(2, dtype=np.uint8)
        counts = np.zeros(4)
        for t in range(60_500):
            sa_sweep(q, x, beta, rng)
            if t >= 500:
                counts[state_index(x)] += 1
        assert total_variation(counts / counts.sum(), dist.probabilities) < 0.02


def _with_isolated_variables() -> QuboInstance:
    # ER(20, 0.2) couplings on the first 20 of 26 variables
    q = random_sparse_qubo(gen_er_graph(20, 0.2, 0), 1)
    h = np.concatenate([q.h, np.random.default_rng(2).normal(size=6)])
    return QuboInstance(26, h=h, couplings={(i, j): w for i, j, w in q.couplings()})


def _without_couplings() -> QuboInstance:
    return QuboInstance(15, h=np.random.default_rng(3).normal(size=15))


def _with_hub() -> QuboInstance:
    # ER(30, 0.12) plus variable 0 coupled to every other variable: one row
    # as wide as the graph, the others about 4 wide
    q = random_sparse_qubo(gen_er_graph(30, 0.12, 6), 7)
    rng = np.random.default_rng(8)
    w = {(i, j): v for i, j, v in q.couplings()}
    for j in range(1, q.n):
        w.setdefault((0, j), float(rng.uniform(-1.0, 1.0)))
    return QuboInstance(q.n, h=q.h, couplings=w)


def _huge_couplings() -> QuboInstance:
    # couplings of +-1e307 on ER(12, 0.25): fields and energies stay finite,
    # and beta * d overflows on every coupled uphill flip at beta = 20
    q = random_sparse_qubo(gen_er_graph(12, 0.25, 4), 4)
    signs = np.random.default_rng(5).choice([-1e307, 1e307], q.num_couplings)
    return QuboInstance(
        q.n, h=q.h, couplings={(i, j): s for (i, j, _), s in zip(q.couplings(), signs)}
    )


def _reference_states(q, r, sweeps, beta, seed):
    """sa_sweep over each replica's stream, as sa_run seeds them; returns the
    final states and the best energy recomputed after every sweep."""
    root = np.random.SeedSequence(seed)
    root.spawn(1)  # run_schedule reserves the first child for its chain rng
    ens = ReplicaEnsemble.initialize(q, r, root)
    best = float(ens.energies.min())
    for _ in range(sweeps):
        for k in range(r):
            sa_sweep(q, ens.states[k], beta, ens.rngs[k])
        best = min(best, float(energy_batch(q, ens.states).min()))
    return ens.states, best


class TestSaRun:
    @pytest.mark.parametrize(
        "make_q", [_with_isolated_variables, _without_couplings, _with_hub]
    )
    # 65 is a 64-replica block and a one-replica block, 70 two wide blocks
    @pytest.mark.parametrize("r", [1, 6, 65, 70])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_matches_scalar_reference_exactly(self, make_q, r, threads):
        # the kernel consumes the same per-replica streams as sa_sweep and
        # updates the same cached fields in the same order, so trajectories
        # agree bit for bit, whatever the block widths
        q = make_q()
        sweeps, beta, seed = 120, 1.1, 5
        states, best = _reference_states(q, r, sweeps, beta, seed)
        trace = sa_run(q, r, AnnealSchedule(np.full(sweeps, beta)), seed, threads=threads)
        assert np.array_equal(trace.final_states, states)
        assert trace.best_energy == pytest.approx(best, abs=1e-9)

    @pytest.mark.parametrize(
        "make_q, beta",
        [(_with_isolated_variables, 1e308), (_huge_couplings, 20.0)],
        ids=["beta_d_overflows", "huge_couplings"],
    )
    def test_overflow_matches_scalar_reference(self, make_q, beta):
        # beta * d overflows to +-inf in both loops, a rejection or an
        # acceptance as the sign says, and numpy warns of nothing (a warning
        # fails the suite); R = 65 runs a wide and a one-replica block
        q = make_q()
        states, _ = _reference_states(q, 65, 30, beta, 2)
        trace = sa_run(q, 65, AnnealSchedule(np.full(30, beta)), 2)
        assert np.array_equal(trace.final_states, states)

    def test_energy_cache_tracks_sweeps(self):
        q = random_sparse_qubo(gen_er_graph(25, 0.2, 2), 3)
        trace = sa_run(q, 8, geometric_schedule(0.3, 3.0, 50), seed=2)
        recomputed = energy_batch(q, trace.final_states)
        final_median = trace.checkpoints[-1].median
        assert final_median == pytest.approx(float(np.median(recomputed)), abs=1e-9)

    def test_spin_updates_count_attempts(self):
        q = random_sparse_qubo(gen_er_graph(17, 0.2, 4), 5)
        trace = sa_run(q, 4, geometric_schedule(1.0, 1.0, 9), seed=0)
        assert trace.checkpoints[-1].spin_updates == 9 * 17

    def test_thread_count_does_not_change_trace(self):
        # 8 threads give one-replica blocks, 2 threads 4-replica blocks
        plain = random_sparse_qubo(gen_er_graph(30, 0.12, 6), 7)
        sched = geometric_schedule(0.3, 4.0, 40)
        for q in (plain, _with_hub()):
            base = sa_run(q, 8, sched, seed=3, threads=1)
            for t in (2, 8):
                other = sa_run(q, 8, sched, seed=3, threads=t)
                assert other.checkpoints == base.checkpoints
                assert np.array_equal(other.final_states, base.final_states)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_sweeps_run_on_the_calling_thread(self, monkeypatch, threads):
        # a round's numpy calls are too small to overlap under the GIL, so
        # every block sweeps on the caller's thread; R = 65 is a 64-replica
        # block and a one-replica block
        seen = {"_run_bounds": [], "_sweep_one": []}
        for name, calls in seen.items():
            def record(*args, fn=getattr(sa, name), calls=calls):
                calls.append(threading.current_thread())
                return fn(*args)

            monkeypatch.setattr(sa, name, record)
        sa_run(_with_hub(), 65, AnnealSchedule(np.full(3, 1.0)), 0, threads=threads)
        caller = threading.current_thread()
        assert seen == {"_run_bounds": [caller] * 3, "_sweep_one": [caller] * 3}

    def test_thread_count_validated(self):
        q = QuboInstance(2, h=[0.0, 0.0], couplings={(0, 1): 1.0})
        with pytest.raises(ValueError, match="thread count"):
            sa_run(q, 4, AnnealSchedule(np.full(3, 1.0)), 0, threads=0)

    def test_finds_mis_optimum_on_five_cycle(self):
        g = RandomGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        q = mis_to_qubo(g)
        trace = sa_run(q, 64, geometric_schedule(0.5, 20.0, 400), seed=0)
        assert trace.best_energy == -2.0
        assert trace.best_state.sum() == 2


@st.composite
def _graph_and_orders(draw):
    n = draw(st.integers(1, 24))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    b = draw(st.integers(1, 5))
    perms = np.stack([draw(st.permutations(range(n))) for _ in range(b)])
    return n, edges, perms


class TestRunBounds:
    @settings(max_examples=200, deadline=None)
    @given(_graph_and_orders())
    def test_greedy_maximal_runs_of_uncoupled_sites(self, case):
        n, edges, perms = case
        pi = np.array([e[0] for e in edges], dtype=np.int64)
        pj = np.array([e[1] for e in edges], dtype=np.int64)
        bounds = _run_bounds(perms, pi, pj)
        assert bounds.shape[1] == perms.shape[0]
        assert (bounds[0] == 0).all() and (bounds[-1] == n).all()
        assert (bounds[-2] < n).any()  # no round is empty for every replica
        coupled = {frozenset(e) for e in edges}
        for b, perm in enumerate(perms.tolist()):
            starts = bounds[:, b].tolist()
            # contiguous, nonempty runs covering each position once
            runs = [(s, e) for s, e in zip(starts, starts[1:]) if s < e]
            assert runs[0][0] == 0 and runs[-1][1] == n
            assert all(e == s2 for (_, e), (s2, _) in zip(runs, runs[1:]))
            assert all(s < n for s in starts[: len(runs)])
            for k, (s, e) in enumerate(runs):
                sites = perm[s:e]
                # no coupled pair inside a run
                assert not any(
                    frozenset((u, v)) in coupled for u in sites for v in sites if u < v
                )
                # greedy: a run ends where its next site is coupled to it
                if k > 0:
                    prev = perm[runs[k - 1][0] : s]
                    assert any(frozenset((perm[s], v)) in coupled for v in prev)

    def test_chunked_placement_matches_one_pass(self, monkeypatch):
        # 8 replicas of ER(200, 0.05): about 8000 (coupling, replica)
        # entries, placed in one pass and in chunks of 2 couplings
        q = random_sparse_qubo(gen_er_graph(200, 0.05, 9), 9)
        rng = np.random.default_rng(9)
        perms = np.stack([rng.permutation(q.n) for _ in range(8)])
        whole = _run_bounds(perms, q.pair_i, q.pair_j)
        monkeypatch.setattr("qubokit.sa._SEG_ENTRIES", 16)
        assert np.array_equal(_run_bounds(perms, q.pair_i, q.pair_j), whole)
