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
    load_instance,
    mis_to_qubo,
    random_sparse_qubo,
    sa_run,
    sa_sweep,
    save_instance,
    total_variation,
)
from qubokit import sa
from qubokit.oracle import state_index
from qubokit.qubo import energy, energy_batch


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
    """The twin over each replica's stream, as sa_run seeds them; returns the
    final states and cached energies, and the best energy recomputed after
    every sweep."""
    root = np.random.SeedSequence(seed)
    root.spawn(1)  # run_schedule reserves the first child for its chain rng
    ens = ReplicaEnsemble.initialize(q, r, root)
    energies = ens.energies.tolist()
    best = min(energies)
    for _ in range(sweeps):
        for k in range(r):
            energies[k], _ = sa._scalar_sweep(q, ens.states[k], energies[k], beta, ens.rngs[k])
        best = min(best, float(energy_batch(q, ens.states).min()))
    return ens.states, np.array(energies), best


def _assert_matches_reference(q, r, sweeps, beta, seed, threads=1):
    states, energies, best = _reference_states(q, r, sweeps, beta, seed)
    trace = sa_run(q, r, AnnealSchedule(np.full(sweeps, beta)), seed, threads=threads)
    assert np.array_equal(trace.final_states, states)
    # the cached energies, bit for bit, through the final checkpoint
    final = trace.checkpoints[-1]
    assert [final.median, final.p01] == np.percentile(energies, [50.0, 1.0]).tolist()
    assert final.best == min(trace.checkpoints[-2].best, energies.min())
    return trace, best


class TestSaRun:
    @pytest.mark.parametrize(
        "make_q", [_with_isolated_variables, _without_couplings, _with_hub]
    )
    # R = 1 sums each class's changes by np.add.accumulate, other R by
    # np.add.reduce; 65 and 70 are counts of no special shape
    @pytest.mark.parametrize("r", [1, 6, 65, 70])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_matches_scalar_reference_exactly(self, make_q, r, threads):
        # the kernel consumes the same per-replica streams as the twin and
        # sums the same fields and energy changes in the same order, so
        # trajectories agree bit for bit
        q = make_q()
        trace, best = _assert_matches_reference(q, r, 120, 1.1, 5, threads)
        assert trace.best_energy == pytest.approx(best, abs=1e-9)

    @pytest.mark.parametrize(
        "make_q, beta",
        [(_with_isolated_variables, 1e308), (_huge_couplings, 20.0)],
        ids=["beta_d_overflows", "huge_couplings"],
    )
    def test_overflow_matches_scalar_reference(self, make_q, beta):
        # beta * d overflows to +-inf in both loops, a rejection or an
        # acceptance as the sign says, and numpy warns of nothing (a warning
        # fails the suite)
        for r in (1, 6, 65, 70):
            _assert_matches_reference(make_q(), r, 30, beta, 2)

    def test_stationary_at_fixed_beta(self):
        # the scan is deterministic, so each class pass must be an exact
        # Metropolis update on its own: 20000 replicas of a loopy 6-variable
        # instance with couplings of both signs (3 classes) after 100 sweeps
        # at beta = 1 follow the exact Boltzmann law within total variation
        # 0.05.  20000 independent draws from that law give about 0.02, and
        # updating all 6 sites at once as one class gives about 0.63
        q = random_sparse_qubo(gen_er_graph(6, 0.6, 1), 1)
        assert len(q.colour_classes()) >= 3 and q.num_couplings > q.n
        beta, r = 1.0, 20_000
        trace = sa_run(q, r, AnnealSchedule(np.full(100, beta)), 4)
        counts = np.bincount(
            [state_index(x) for x in trace.final_states], minlength=1 << q.n
        )
        dist = boltzmann_distribution(q, beta)
        assert total_variation(counts / r, dist.probabilities) < 0.05

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
        # threads is validated and otherwise unused by SA
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
        # SA hands nothing to the replica pool: each sweep makes one pass
        # per class, every one on the thread that called sa_run
        calls = []

        def record(*args, fn=sa._frozen_fields):
            calls.append(threading.current_thread())
            return fn(*args)

        monkeypatch.setattr(sa, "_frozen_fields", record)
        q = _with_hub()
        sa_run(q, 65, AnnealSchedule(np.full(3, 1.0)), 0, threads=threads)
        assert calls == [threading.current_thread()] * (3 * len(q.colour_classes()))

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
def _instances(draw):
    n = draw(st.integers(1, 24))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    weights = draw(st.lists(st.sampled_from([-2.0, -0.5, 1.0, 3.0]),
                            min_size=len(edges), max_size=len(edges)))
    return QuboInstance(n, h=np.zeros(n), couplings=dict(zip(edges, weights)))


class TestColourClasses:
    @settings(max_examples=200, deadline=None)
    @given(_instances())
    def test_greedy_colouring(self, q):
        classes = q.colour_classes()
        order = np.concatenate(classes)
        assert sorted(order.tolist()) == list(range(q.n))  # each site once
        cls = np.empty(q.n, dtype=int)
        for k, sites in enumerate(classes):
            cls[sites] = k
            assert sites.tolist() == sorted(sites.tolist())
            # greedy: a site of class k has a neighbour in every lower class
            for i in sites.tolist():
                assert {int(cls[j]) for j, _ in q.adjacency[i]} >= set(range(k))
        assert not (cls[q.pair_i] == cls[q.pair_j]).any()  # no coupling inside
        again = QuboInstance(q.n, h=q.h, couplings={(i, j): w for i, j, w in q.couplings()})
        assert [c.tolist() for c in again.colour_classes()] == [c.tolist() for c in classes]

    def test_hub_alone_in_class_zero(self):
        assert _with_hub().colour_classes()[0].tolist() == [0]


class TestClassRowCache:
    """SA's class-ordered rows are cached on the instance: they hold no run
    state, and no run can write to them."""

    @pytest.mark.parametrize("r", [1, 64])
    @pytest.mark.parametrize("make_q", [_with_isolated_variables, _with_hub],
                             ids=["isolated", "hub"])
    def test_repeated_runs_equal_runs_on_a_fresh_copy(self, make_q, r):
        q = make_q()
        schedule = geometric_schedule(0.5, 5.0, 6)
        for seed in (3, 4, 3):
            got = sa_run(q, r, schedule, seed, checkpoint_every=1)
            rows = q._class_rows
            want = sa_run(load_instance(save_instance(q)), r, schedule, seed, checkpoint_every=1)
            assert q._class_rows is rows
            assert got.final_states.tobytes() == want.final_states.tobytes()
            assert got.best_state.tobytes() == want.best_state.tobytes()
            assert repr((got.checkpoints, got.best_energy)) == repr(
                (want.checkpoints, want.best_energy))

    @pytest.mark.parametrize("make_q", [_with_hub, _without_couplings],
                             ids=["hub", "no-couplings"])
    def test_cached_rows_reject_writes(self, make_q):
        q = make_q()
        sa_run(q, 2, geometric_schedule(0.5, 5.0, 2), 1)
        order, passes = q._class_rows
        for a in (order, *(x for p in passes for x in p[2:])):
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0
