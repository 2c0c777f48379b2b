"""Tests for the IBP solver: single steps, runs, and the vectorized path."""

import numpy as np
import pytest

from qubokit import (
    AnnealSchedule,
    NumericError,
    QuboInstance,
    RandomGraph,
    ReplicaEnsemble,
    boltzmann_distribution,
    gen_er_graph,
    geometric_schedule,
    ibp_run,
    ibp_step,
    mis_to_qubo,
    random_sparse_qubo,
    select_subtree,
    total_variation,
    tree_dp_min,
)
from qubokit.oracle import state_index
from qubokit.qubo import energy_batch


def integer_tree_instance(n, seed):
    """Connected random recursive tree with coefficients in {+-1, +-2}."""
    rng = np.random.default_rng(seed)

    def coef():
        return float(rng.choice([-2.0, -1.0, 1.0, 2.0]))

    couplings = {(int(rng.integers(i)), i): coef() for i in range(1, n)}
    h = [coef() for _ in range(n)]
    return QuboInstance(n, h=h, couplings=couplings)


class TestIbpStep:
    def test_beta_validated(self):
        q = QuboInstance(2, h=[0.0, 0.0], couplings={(0, 1): 1.0})
        ens = ReplicaEnsemble.initialize(q, 2, 0)
        with pytest.raises(ValueError):
            ibp_step(q, ens, 0.0, np.random.default_rng(0))

    def test_uncoupled_node_snaps_to_ground(self):
        # no couplings: every tree is a single node, and at beta=50 with
        # h=-1 the resampled bit is 1 in every replica
        q = QuboInstance(6, h=[-1.0] * 6, couplings={})
        ens = ReplicaEnsemble.initialize(q, 8, 0)
        tree = select_subtree(q, np.random.default_rng(1))
        m = ibp_step(q, ens, 50.0, np.random.default_rng(1))
        assert m == tree.size == 1
        assert np.all(ens.states[:, tree.nodes[0]] == 1)
        assert ens.energies == pytest.approx(energy_batch(q, ens.states))

    def test_returns_selected_tree_size(self):
        q = random_sparse_qubo(gen_er_graph(40, 0.1, 0), 1)
        ens = ReplicaEnsemble.initialize(q, 4, 0)
        sizes = []
        rng = np.random.default_rng(5)
        ref = np.random.default_rng(5)
        for _ in range(20):
            want = select_subtree(q, ref).size
            sizes.append(ibp_step(q, ens, 1.0, rng))
            assert sizes[-1] == want
        assert max(sizes) >= 2

    def test_tree_instance_solved_in_one_step(self):
        # the instance graph is itself a tree, so the selection absorbs all
        # of it and one cold resample lands every replica on the optimum
        q = integer_tree_instance(30, 0)
        scale = max(np.abs(q.h).max(), np.abs(q.pair_w).max())
        ens = ReplicaEnsemble.initialize(q, 64, 3)
        m = ibp_step(q, ens, 25.0 / scale, np.random.default_rng(4))
        assert m == q.n
        opt = tree_dp_min(q)
        hits = np.sum(np.abs(ens.energies - opt) < 1e-9)
        assert hits >= 60
        assert ens.energies == pytest.approx(energy_batch(q, ens.states))

    def test_energy_cache_tracks_many_steps(self):
        q = random_sparse_qubo(gen_er_graph(30, 0.15, 2), 3)
        ens = ReplicaEnsemble.initialize(q, 4, 1)
        rng = np.random.default_rng(2)
        for _ in range(200):
            ibp_step(q, ens, 1.0, rng)
        assert np.abs(ens.energies - energy_batch(q, ens.states)).max() <= 1e-9


# At beta=20, -beta*h overflows to +inf: the upward field of every tree
# position is infinite, and its message would be inf - inf = NaN.
OVERFLOWING_FIELD = QuboInstance(3, h=[-1e307] * 3, couplings={(0, 1): 1.0, (1, 2): 1.0})


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestNumericFailure:
    @pytest.mark.parametrize(
        "h, w",
        [
            ([np.inf, 0.0], 1.0),  # non-finite effective field
            ([np.nan, 0.0], 1.0),
            ([0.0, 0.0], np.inf),  # non-finite in-tree coupling
            ([0.0, 0.0], -np.inf),
            ([0.0, 0.0], np.nan),
        ],
    )
    def test_step_raises_on_non_finite_inputs(self, h, w):
        q = QuboInstance(2, h=h, couplings={(0, 1): w})
        ens = ReplicaEnsemble.initialize(q, 2, 0)
        with pytest.raises(NumericError):
            ibp_step(q, ens, 1.0, np.random.default_rng(0))

    def test_step_raises_on_overflowing_field(self):
        ens = ReplicaEnsemble.initialize(OVERFLOWING_FIELD, 2, 0)
        with pytest.raises(NumericError):
            ibp_step(OVERFLOWING_FIELD, ens, 20.0, np.random.default_rng(0))

    @pytest.mark.parametrize("threads", [1, 2])
    def test_run_raises_on_overflowing_field(self, threads):
        # unchecked, the kernel draws every bit from sigmoid(NaN) as 0 and
        # ends on a finite but wrong best energy of -2e307
        with pytest.raises(NumericError):
            ibp_run(OVERFLOWING_FIELD, 4, AnnealSchedule(np.full(5, 20.0)), 0,
                    threads=threads)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_run_reaches_optimum_at_moderate_beta(self, threads):
        trace = ibp_run(OVERFLOWING_FIELD, 4, AnnealSchedule(np.full(20, 1.0)), 0,
                        threads=threads)
        assert trace.best_energy == -3e307
        assert trace.best_state.tolist() == [1, 1, 1]


class TestIbpRun:
    def test_matches_scalar_reference_exactly(self):
        # the vectorized kernel must reproduce the scalar step bit for bit:
        # same seeds, 400 steps, identical final states and best energy
        q = random_sparse_qubo(gen_er_graph(24, 0.18, 0), 1)
        steps, beta, seed = 400, 1.3, 7

        root = np.random.SeedSequence(seed)
        chain = np.random.default_rng(root.spawn(1)[0])
        ens = ReplicaEnsemble.initialize(q, 8, root)
        best = float(ens.energies.min())
        for _ in range(steps):
            ibp_step(q, ens, beta, chain)
            best = min(best, float(ens.energies.min()))

        trace = ibp_run(q, 8, AnnealSchedule(np.full(steps, beta)), seed)
        assert np.array_equal(trace.final_states, ens.states)
        assert trace.best_energy == best

    def test_spin_updates_are_summed_tree_sizes(self):
        q = random_sparse_qubo(gen_er_graph(40, 0.1, 4), 5)
        steps, seed = 25, 11
        ref_chain = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
        want = sum(select_subtree(q, ref_chain).size for _ in range(steps))
        trace = ibp_run(q, 4, AnnealSchedule(np.full(steps, 1.0)), seed)
        assert trace.checkpoints[-1].spin_updates == want

    def test_thread_count_does_not_change_trace(self):
        q = random_sparse_qubo(gen_er_graph(30, 0.12, 6), 7)
        sched = geometric_schedule(0.5, 5.0, 60)
        base = ibp_run(q, 8, sched, seed=1, threads=1)
        for t in (2, 8):
            other = ibp_run(q, 8, sched, seed=1, threads=t)
            assert other.checkpoints == base.checkpoints
            assert np.array_equal(other.final_states, base.final_states)

    def test_finds_mis_optimum_on_five_cycle(self):
        g = RandomGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        q = mis_to_qubo(g)
        trace = ibp_run(q, 64, geometric_schedule(0.5, 20.0, 400), seed=0)
        assert trace.best_energy == -2.0
        assert trace.best_state.sum() == 2

    def test_fixed_beta_chain_is_stationary(self):
        # triangle instance, beta=0.7: occupancy over 40k moves stays close
        # to the Boltzmann law (heat-bath block updates leave it invariant)
        q = QuboInstance(
            3,
            h=[-0.5, 0.3, -0.2],
            couplings={(0, 1): 1.0, (1, 2): -0.8, (0, 2): 0.6},
        )
        beta = 0.7
        dist = boltzmann_distribution(q, beta)
        root = np.random.SeedSequence(0)
        chain = np.random.default_rng(root.spawn(1)[0])
        ens = ReplicaEnsemble.initialize(q, 1, root)
        counts = np.zeros(8)
        for t in range(40_500):
            ibp_step(q, ens, beta, chain)
            if t >= 500:
                counts[state_index(ens.states[0])] += 1
        assert total_variation(counts / counts.sum(), dist.probabilities) < 0.03
