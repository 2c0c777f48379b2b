"""Tests for schedules, the replica ensemble, and the run driver."""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qubokit import (
    AnnealSchedule,
    Checkpoint,
    NumericError,
    QuboInstance,
    ReplicaEnsemble,
    gen_er_graph,
    geometric_schedule,
    ibp_run,
    random_sparse_qubo,
    run_schedule,
    sa_run,
)
from qubokit.anneal import _median_p01
from qubokit.qubo import energy_batch


def small_instance(seed=0):
    return random_sparse_qubo(gen_er_graph(12, 0.3, seed), seed + 1)


def counting_step(record):
    """make_step that flips nothing and logs the beta of every call."""

    def make(q, ens, rng, run_chunks):
        def step(beta):
            record.append(beta)
            return 3

        return step

    return make


class TestSchedules:
    def test_constant(self):
        s = geometric_schedule(1.0, 1.0, 5)
        assert len(s) == 5
        assert np.all(s.betas == 1.0)
        assert s.kind == (1.0, 1.0, 5)

    def test_endpoints_and_ratio(self):
        s = geometric_schedule(0.1, 10.0, 3)
        assert s.betas == pytest.approx([0.1, 1.0, 10.0])
        long = geometric_schedule(0.05, 20.0, 101).betas
        ratios = long[1:] / long[:-1]
        assert np.abs(ratios - ratios[0]).max() < 1e-12

    def test_single_step(self):
        assert geometric_schedule(0.5, 99.0, 1).betas.tolist() == [0.5]

    def test_monotone_directions(self):
        up = geometric_schedule(0.1, 10.0, 7).betas
        down = geometric_schedule(10.0, 0.1, 7).betas
        assert np.all(np.diff(up) > 0)
        assert np.all(np.diff(down) < 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            geometric_schedule(0.0, 1.0, 5)
        with pytest.raises(ValueError):
            geometric_schedule(1.0, -1.0, 5)
        with pytest.raises(ValueError):
            geometric_schedule(1.0, 2.0, 0)
        with pytest.raises(ValueError):
            AnnealSchedule(np.array([[1.0]]))
        with pytest.raises(ValueError):
            AnnealSchedule(np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            AnnealSchedule(np.array([1.0, np.inf]))

    @pytest.mark.parametrize("ends", [(1.0, np.inf), (np.inf, 1.0), (np.nan, 1.0)])
    def test_non_finite_ends_rejected(self, ends):
        # before np.geomspace, which warned on an infinite end
        with pytest.raises(ValueError, match="finite"):
            geometric_schedule(*ends, 5)

    def test_empty_allowed(self):
        assert len(AnnealSchedule(np.array([]))) == 0


class TestReplicaEnsemble:
    def test_deterministic_and_consistent(self):
        q = small_instance()
        a = ReplicaEnsemble.initialize(q, 8, 42)
        b = ReplicaEnsemble.initialize(q, 8, 42)
        assert np.array_equal(a.states, b.states)
        assert a.states.shape == (8, q.n)
        assert set(np.unique(a.states)) <= {0, 1}
        assert np.array_equal(a.energies, energy_batch(q, a.states))
        assert a.r == 8

    def test_seed_changes_states(self):
        q = small_instance()
        a = ReplicaEnsemble.initialize(q, 8, 0)
        b = ReplicaEnsemble.initialize(q, 8, 1)
        assert not np.array_equal(a.states, b.states)

    def test_replicas_are_independent_streams(self):
        q = small_instance()
        ens = ReplicaEnsemble.initialize(q, 4, 7)
        draws = [rng.random() for rng in ens.rngs]
        assert len(set(draws)) == 4

    def test_replica_count_validated(self):
        with pytest.raises(ValueError):
            ReplicaEnsemble.initialize(small_instance(), 0, 0)


class TestRunScheduleBudget:
    def test_no_budget_steps_once_per_beta(self):
        seen = []
        sched = geometric_schedule(0.2, 2.0, 6)
        trace = run_schedule(small_instance(), 4, sched, 0, None, counting_step(seen))
        assert seen == pytest.approx(sched.betas.tolist())
        # checkpoint_every=None records the initial point plus every step
        assert [c.spin_updates for c in trace.checkpoints] == [0, 3, 6, 9, 12, 15, 18]

    def test_budget_zero_initial_checkpoint_only(self):
        seen = []
        sched = geometric_schedule(0.2, 2.0, 6)
        trace = run_schedule(
            small_instance(), 4, sched, 0, None, counting_step(seen), budget=0
        )
        assert seen == []
        assert len(trace.checkpoints) == 1
        assert trace.checkpoints[0].spin_updates == 0

    def test_budget_progress_indexes_schedule(self):
        # step size 3, budget 15, 5 betas: steps start at u=0,3,6,9,12 so
        # the schedule index floor(u*5/15) visits 0,1,2,3,4
        seen = []
        sched = AnnealSchedule(np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
        run_schedule(small_instance(), 4, sched, 0, None, counting_step(seen), budget=15)
        assert seen == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_budget_overshoot_below_one_step(self):
        seen = []
        sched = AnnealSchedule(np.array([1.0]))
        trace = run_schedule(
            small_instance(), 4, sched, 0, None, counting_step(seen), budget=10
        )
        final = trace.checkpoints[-1].spin_updates
        assert final >= 10
        assert final < 10 + 3
        assert len(seen) == 4

    def test_checkpoint_crossings(self):
        # steps of 3 with checkpoint_every=5 and budget=12: u hits 3,6,9,12
        # and multiples of 5 are crossed at the steps ending at 6 and 12
        sched = AnnealSchedule(np.array([1.0]))
        trace = run_schedule(
            small_instance(), 4, sched, 0, 5, counting_step([]), budget=12
        )
        assert [c.spin_updates for c in trace.checkpoints] == [0, 6, 12]

    def test_final_checkpoint_always_present(self):
        sched = AnnealSchedule(np.array([1.0]))
        trace = run_schedule(
            small_instance(), 4, sched, 0, 1000, counting_step([]), budget=7
        )
        assert [c.spin_updates for c in trace.checkpoints] == [0, 9]

    def test_validation(self):
        q = small_instance()
        sched = geometric_schedule(1.0, 2.0, 3)
        with pytest.raises(ValueError):
            run_schedule(q, 0, sched, 0, None, counting_step([]))
        with pytest.raises(ValueError):
            run_schedule(q, 4, sched, 0, 0, counting_step([]))
        with pytest.raises(ValueError):
            run_schedule(q, 4, sched, 0, None, counting_step([]), threads=0)
        with pytest.raises(ValueError):
            run_schedule(q, 4, sched, 0, None, counting_step([]), budget=-1)
        with pytest.raises(ValueError):
            run_schedule(q, 4, AnnealSchedule(np.array([])), 0, None,
                         counting_step([]), budget=5)

    def test_empty_schedule_without_budget(self):
        trace = run_schedule(
            small_instance(), 4, AnnealSchedule(np.array([])), 0, None, counting_step([])
        )
        assert len(trace.checkpoints) == 1

    @pytest.mark.parametrize("run", [ibp_run, sa_run])
    def test_energy_overflow_mid_run_raises(self, run):
        # h = -1e308 on two uncoupled variables: the seeded initial state
        # has a finite energy, and setting both bits overflows it to -inf
        q = QuboInstance(2, h=[-1e308, -1e308])
        sched = AnnealSchedule(np.full(10, 1.0))
        assert np.isfinite(run(q, 1, sched, 0, budget=0).best_energy)
        with np.errstate(over="ignore"), pytest.raises(NumericError):
            run(q, 1, sched, 0)

    def test_non_finite_initial_energy_raises_before_any_step(self):
        # 0 * inf is NaN, so every initial energy is NaN or inf
        made, seen = [], []

        def make(q, ens, rng, run_chunks):
            made.append(True)
            return counting_step(seen)(q, ens, rng, run_chunks)

        q = QuboInstance(2, h=[np.inf, 0.0])
        sched = AnnealSchedule(np.full(3, 1.0))
        with np.errstate(invalid="ignore"), pytest.raises(NumericError):
            run_schedule(q, 4, sched, 0, None, make)
        assert made == [] and seen == []

    def test_failing_step_with_threads_leaves_no_worker(self):
        def make(q, ens, rng, run_chunks):
            def fail(lo, hi):
                raise RuntimeError(f"chunk {lo}:{hi} failed")

            def step(beta):
                run_chunks(fail)
                return 1

            return step

        before = threading.active_count()
        with pytest.raises(RuntimeError, match="chunk 0:2 failed"):
            run_schedule(small_instance(), 4, AnnealSchedule(np.array([1.0])), 0, None,
                          make, threads=2)
        assert threading.active_count() == before


class TestTraceInvariants:
    def test_sa_trace_shape_and_order(self):
        q = small_instance(3)
        trace = sa_run(q, 16, geometric_schedule(0.2, 5.0, 30), seed=1)
        ups = [c.spin_updates for c in trace.checkpoints]
        assert ups[0] == 0
        assert all(b > a for a, b in zip(ups, ups[1:]))
        bests = [c.best for c in trace.checkpoints]
        assert all(b <= a for a, b in zip(bests, bests[1:]))
        for c in trace.checkpoints:
            assert c.best <= c.p01 + 1e-12
            assert c.p01 <= c.median + 1e-12
        assert trace.final_states.shape == (16, q.n)
        assert trace.best_energy == bests[-1]

    def test_initial_checkpoint_of_single_replica(self):
        q = small_instance(4)
        trace = sa_run(q, 1, geometric_schedule(1.0, 1.0, 2), seed=0)
        c0 = trace.checkpoints[0]
        assert c0.best == c0.median == c0.p01

    def test_best_state_energy_matches(self):
        from qubokit.qubo import energy

        q = small_instance(5)
        trace = sa_run(q, 8, geometric_schedule(0.2, 5.0, 40), seed=2)
        assert energy(q, trace.best_state) == pytest.approx(trace.best_energy, abs=1e-9)

    def test_checkpoint_is_named_tuple(self):
        c = Checkpoint(0, -1.0, -0.5, -0.9)
        assert c.spin_updates == 0 and c.best == -1.0
        assert tuple(c) == (0, -1.0, -0.5, -0.9)

    def test_thread_count_does_not_change_trace(self):
        q = small_instance(6)
        sched = geometric_schedule(0.3, 4.0, 15)
        base = sa_run(q, 8, sched, seed=3, threads=1)
        for t in (2, 8):
            other = sa_run(q, 8, sched, seed=3, threads=t)
            assert other.checkpoints == base.checkpoints
            assert np.array_equal(other.final_states, base.final_states)


def percentile_bytes(e):
    return np.percentile(e, [50.0, 1.0]).tobytes()


class TestCheckpointQuantiles:
    def test_every_replica_count_to_300(self):
        # ties, signed zeros and mixed magnitudes at every R from 1 to 300
        rng = np.random.default_rng(0)
        pool = np.array([0.0, -0.0, 1.0, -1.0, 2.5, -3.0, 5e-324, -1e-300, 1e150, -1e150])
        for r in range(1, 301):
            quantiles = _median_p01(r)
            for e in (
                rng.normal(size=r) * 10.0 ** rng.integers(-5, 6, size=r),
                rng.integers(-3, 4, size=r).astype(np.float64),
                rng.choice(pool, size=r),
                rng.choice([0.0, -0.0], size=r),
            ):
                assert np.array(quantiles(e)).tobytes() == percentile_bytes(e), (r, e)

    @settings(max_examples=300, deadline=None)
    @given(
        e=st.lists(
            st.one_of(
                st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324]),
                st.floats(-1e150, 1e150),
            ),
            min_size=1,
            max_size=300,
        )
    )
    def test_equal_numpy_percentile(self, e):
        e = np.array(e)
        assert np.array(_median_p01(e.size)(e)).tobytes() == percentile_bytes(e)
