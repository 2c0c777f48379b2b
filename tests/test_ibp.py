"""Tests for the IBP solver: single steps, runs, and the vectorized path."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    sa_run,
    select_subtree,
    total_variation,
    tree_dp_min,
)
from qubokit import ibp as ibp_module
from qubokit import sa as sa_module
from qubokit import treebp as treebp_module
from qubokit.ibp import _BufferedIntegers, _make_ibp_step
from qubokit.oracle import state_bits, state_index
from qubokit.qubo import energy_batch
from qubokit.subtree import build_tree_problem, frozen_neighbor_arrays
from qubokit.treebp import _frozen_fields, ensemble_upward


def integer_tree_instance(n, seed):
    """Connected random recursive tree with coefficients in {+-1, +-2}."""
    rng = np.random.default_rng(seed)

    def coef():
        return float(rng.choice([-2.0, -1.0, 1.0, 2.0]))

    couplings = {(int(rng.integers(i)), i): coef() for i in range(1, n)}
    h = [coef() for _ in range(n)]
    return QuboInstance(n, h=h, couplings=couplings)


def with_hub(q, seed):
    """q plus variable 0 coupled to every other variable: existing couplings
    keep their weights, new ones are uniform in [-1, 1].  The tree's widest
    row is then often narrower than the graph's maximum degree."""
    rng = np.random.default_rng(seed)
    w = {(i, j): v for i, j, v in q.couplings()}
    for j in range(1, q.n):
        w.setdefault((0, j), float(rng.uniform(-1.0, 1.0)))
    return QuboInstance(q.n, h=q.h, couplings=w)


HUB = pytest.mark.parametrize("hub", [False, True], ids=["plain", "hub"])


class TestIbpStep:
    def test_beta_validated(self):
        q = QuboInstance(2, h=[0.0, 0.0], couplings={(0, 1): 1.0})
        ens = ReplicaEnsemble.initialize(q, 2, 0)
        with pytest.raises(ValueError):
            ibp_step(q, ens, 0.0, np.random.default_rng(0))

    @pytest.mark.parametrize("beta", [np.inf, np.nan])
    def test_non_finite_beta_rejected(self, beta):
        q = QuboInstance(2, h=[0.0, 0.0], couplings={(0, 1): 1.0})
        ens = ReplicaEnsemble.initialize(q, 2, 0)
        with pytest.raises(ValueError, match="finite"):
            ibp_step(q, ens, beta, np.random.default_rng(0))

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


class TestOverflowingCoupling:
    @pytest.mark.parametrize("threads", [1, 2])
    def test_run_draws_from_the_exact_law(self, threads):
        # at beta 20, beta*w overflows to inf: the exact law puts 1.0e-9 on
        # 00 and nothing on 11.  A 0-parent must not form inf*0 = NaN, which
        # drew its child as 0 in about half the replicas.
        q = QuboInstance(2, h=[-1.0, -1.0], couplings={(0, 1): 1e307})
        trace = ibp_run(q, 2000, AnnealSchedule(np.full(5, 20.0)), 0, threads=threads)
        states = [tuple(x) for x in trace.final_states.tolist()]
        assert set(states) == {(0, 1), (1, 0)}
        assert 900 < states.count((0, 1)) < 1100
        assert trace.best_energy == -1.0


class TestIbpRun:
    @HUB
    @pytest.mark.parametrize("r", [1, 2, 8])
    def test_matches_scalar_reference_exactly(self, r, hub):
        # the vectorized kernel must reproduce the scalar step bit for bit:
        # same seeds, 400 steps, identical final states, best energy and
        # cached energies; at R = 1 an energy delta summed by np.add.reduce
        # along the positions would be pairwise, not in ibp_step's order
        q = random_sparse_qubo(gen_er_graph(24, 0.18, 0), 1)
        if hub:
            q = with_hub(q, 2)
        steps, beta, seed = 400, 1.3, 7

        def ensemble():
            root = np.random.SeedSequence(seed)
            chain = np.random.default_rng(root.spawn(1)[0])
            return chain, ReplicaEnsemble.initialize(q, r, root)

        chain, ens = ensemble()
        best = float(ens.energies.min())
        for _ in range(steps):
            ibp_step(q, ens, beta, chain)
            best = min(best, float(ens.energies.min()))

        trace = ibp_run(q, r, AnnealSchedule(np.full(steps, beta)), seed)
        assert np.array_equal(trace.final_states, ens.states)
        assert trace.best_energy == best

        chain, kernel = ensemble()
        step = _make_ibp_step(q, kernel, chain, lambda fn: fn(0, r))
        for _ in range(steps):
            step(beta)
        assert np.array_equal(kernel.states, ens.states)
        assert kernel.energies.tobytes() == ens.energies.tobytes()

    def test_spin_updates_are_summed_tree_sizes(self):
        q = random_sparse_qubo(gen_er_graph(40, 0.1, 4), 5)
        steps, seed = 25, 11
        ref_chain = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
        want = sum(select_subtree(q, ref_chain).size for _ in range(steps))
        trace = ibp_run(q, 4, AnnealSchedule(np.full(steps, 1.0)), seed)
        assert trace.checkpoints[-1].spin_updates == want

    @HUB
    def test_thread_count_does_not_change_trace(self, hub):
        q = random_sparse_qubo(gen_er_graph(30, 0.12, 6), 7)
        if hub:
            q = with_hub(q, 8)
        sched = geometric_schedule(0.5, 5.0, 60)
        base = ibp_run(q, 8, sched, seed=1, threads=1)
        for t in (2, 8):
            other = ibp_run(q, 8, sched, seed=1, threads=t)
            assert other.checkpoints == base.checkpoints
            assert np.array_equal(other.final_states, base.final_states)

    @HUB
    @pytest.mark.parametrize("r, threads", [(1, 1), (1, 2), (70, 1), (70, 2)])
    def test_gather_block_cap_does_not_change_trace(self, monkeypatch, hub, r, threads):
        # one column per block, the default cap, and one block for all
        # columns add the same terms into the fields in the same order; the
        # draws' row blocks follow the same cap
        q = random_sparse_qubo(gen_er_graph(30, 0.12, 6), 7)
        if hub:
            q = with_hub(q, 8)
        sched = geometric_schedule(0.5, 5.0, 40)

        def trace(cap):
            monkeypatch.setattr(treebp_module, "_BLOCK_ENTRIES", cap)
            t = ibp_run(q, r, sched, seed=3, checkpoint_every=50, threads=threads)
            return repr(t.checkpoints), t.final_states.tobytes(), t.best_state.tobytes(), t.best_energy

        base = trace(treebp_module._BLOCK_ENTRIES)
        assert trace(1) == base
        assert trace(2**30) == base

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


def conditional_law(q, x, nodes, beta):
    """Exact Boltzmann law of the bits at nodes, the rest frozen at x,
    indexed like state_index of the node bits."""
    m = len(nodes)
    xs = np.tile(x, (1 << m, 1))
    xs[:, nodes] = [state_bits(k, m) for k in range(1 << m)]
    e = energy_batch(q, xs)
    w = np.exp(-beta * (e - e.min()))
    return w / w.sum()


class TestKernelExactLaw:
    """One vectorized move from a common state: over 2^15 replicas the
    tree's new bits follow the exact conditional law."""

    R = 1 << 15

    @pytest.mark.parametrize("seed", [3, 4, 6, 10])
    @pytest.mark.parametrize("beta", [0.5, 2.0])
    def test_one_move_samples_the_conditional_law(self, seed, beta):
        q = random_sparse_qubo(gen_er_graph(7, 0.5, seed), seed + 1)
        assert q.num_couplings >= q.n  # the graph has a cycle
        init, chain_ss, rep = np.random.SeedSequence([seed, int(beta * 10)]).spawn(3)
        x0 = (np.random.default_rng(init).random(q.n) < 0.5).astype(np.uint8)
        states = np.tile(x0, (self.R, 1))
        rngs = [np.random.default_rng(s) for s in rep.spawn(self.R)]
        ens = ReplicaEnsemble(states, energy_batch(q, states), rngs)
        chain = np.random.default_rng(chain_ss)
        replay = copy.deepcopy(chain)
        m = _make_ibp_step(q, ens, chain, lambda fn: fn(0, self.R))(beta)
        tree = select_subtree(q, _BufferedIntegers(replay))
        nodes = np.asarray(tree.nodes)
        assert tree.size == m

        rest = np.setdiff1d(np.arange(q.n), nodes)
        assert (ens.states[:, rest] == x0[rest]).all()
        index = ens.states[:, nodes].astype(np.int64) @ (1 << np.arange(m - 1, -1, -1))
        freq = np.bincount(index, minlength=1 << m) / self.R
        assert total_variation(freq, conditional_law(q, x0, nodes, beta)) < 0.03
        # the same samples are far from the law at 2 beta, so the bound has power
        assert total_variation(freq, conditional_law(q, x0, nodes, 2 * beta)) > 0.1
        assert np.allclose(ens.energies, energy_batch(q, ens.states), rtol=0.0, atol=1e-12)


def with_isolated(q, extra):
    """q plus `extra` uncoupled variables, each a width-0 tree when drawn."""
    h = np.concatenate([q.h, np.linspace(-1.0, 1.0, extra)])
    return QuboInstance(q.n + extra, h=h, couplings={(i, j): w for i, j, w in q.couplings()})


class TestKernelFields:
    """The vectorized move's frozen-neighbor fields, captured where they
    enter ensemble_upward, equal build_tree_problem's in every replica."""

    @pytest.mark.parametrize("cap", [1, 2**30], ids=["multi-block", "one-block"])
    @pytest.mark.parametrize("case", ["hub", "isolated"])
    def test_fields_equal_build_tree_problem(self, monkeypatch, cap, case):
        q = random_sparse_qubo(gen_er_graph(30, 0.12, 6), 7)
        q = with_hub(q, 8) if case == "hub" else with_isolated(q, 10)
        monkeypatch.setattr(treebp_module, "_BLOCK_ENTRIES", cap)
        seen = []

        def upward(tree, fields, beta):
            seen.append((tree, fields.copy()))
            return ensemble_upward(tree, fields, beta)

        monkeypatch.setattr(ibp_module, "ensemble_upward", upward)
        r, beta = 6, 1.5
        ens = ReplicaEnsemble.initialize(q, r, np.random.SeedSequence(2))
        step = _make_ibp_step(q, ens, np.random.default_rng(5), lambda fn: fn(0, r))
        widths = set()
        for _ in range(150):
            before = ens.states.copy()
            step(beta)
            (tree, fields), = seen
            seen.clear()
            widths.add(frozen_neighbor_arrays(q, tree)[0].shape[1])
            for k in range(r):
                want = build_tree_problem(q, tree, before[k], beta).eff_field
                assert np.array_equal(fields[:, k], want)
        # several columns per tree, so cap 1 takes the degree-ordered path
        assert max(widths) >= 2
        if case == "isolated":
            assert 0 in widths


class TestFrozenFieldSums:
    """_frozen_fields adds each field's terms to h in adjacency order, in
    one block or several, at every (M, R) shape: a one-block reduction over
    a single-element row would sum pairwise instead."""

    @pytest.mark.parametrize("cap", [1, 2**30], ids=["multi-block", "one-block"])
    @pytest.mark.parametrize("m, r", [(1, 1), (1, 3), (5, 1), (4, 4)])
    def test_sequential_from_h(self, monkeypatch, cap, m, r):
        monkeypatch.setattr(treebp_module, "_BLOCK_ENTRIES", cap)
        rng = np.random.default_rng(m * 10 + r)
        n, width = 40, 20
        for _ in range(20):
            deg = rng.integers(0, width + 1, m)
            deg[0] = width
            idx = rng.integers(0, n, (m, width))
            wmat = rng.normal(0.0, 1.0, (m, width)) * 10.0 ** rng.integers(-8, 8, (m, width))
            wmat[np.arange(width) >= deg[:, None]] = 0.0
            xt = rng.integers(0, 2, (n, r), dtype=np.uint8)
            hbase = rng.normal(0.0, 1.0, (m, 1))
            want = np.repeat(hbase, r, axis=1)
            for c in range(width):
                want += wmat[:, c, None] * xt[idx[:, c]]
            got = _frozen_fields(hbase, deg, idx, wmat, xt)
            assert got.tobytes() == want.tobytes()


def buffered(rng, block):
    class Draws(_BufferedIntegers):
        _BLOCK = block

    return Draws(rng)


class TestBufferedIntegers:
    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        pending=st.booleans(),
        block=st.integers(1, 9),
        ks=st.lists(
            st.one_of(
                st.just(1),
                st.integers(2, 400),
                st.integers(2**31 + 1, 2**31 + 2**16),
                st.integers(2**32 - 2**16, 2**32),
                st.integers(1, 2**32),
            ),
            max_size=40,
        ),
    )
    def test_matches_generator_integers_draw_for_draw(self, seed, pending, block, ks):
        # blocks as short as one word, so runs cross block boundaries; k = 1
        # consumes nothing; just above 2**31 about half the tries are
        # rejected; `pending` leaves half of a 64-bit output unread first
        want, mine = np.random.default_rng(seed), np.random.default_rng(seed)
        if pending:
            for g in (want, mine):
                g.integers(0, 2**32, dtype=np.uint32)
        draws = buffered(mine, block)
        assert [draws.integers(k) for k in ks] == [int(want.integers(k)) for k in ks]
        if block == 1:  # fetched one word at a time: exactly what numpy used
            assert mine.bit_generator.state == want.bit_generator.state

    def test_rejection_loop_consumes_extra_words(self):
        k, n = 2**31 + 1, 200
        want, mine = np.random.default_rng(3), np.random.default_rng(3)
        draws = buffered(mine, 1)
        assert [draws.integers(k) for _ in range(n)] == [int(want.integers(k)) for _ in range(n)]
        words = np.random.default_rng(3)
        words.integers(0, 2**32, size=n, dtype=np.uint32)
        assert mine.bit_generator.state == want.bit_generator.state
        assert words.bit_generator.state != want.bit_generator.state


class TestSelectionRecords:
    """The frozen-field gather's rows for a selected tree."""

    @HUB
    def test_width_is_the_widest_row(self, hub):
        q = random_sparse_qubo(gen_er_graph(60, 0.1, 3), 4)
        if hub:
            q = with_hub(q, 5)
        rng = np.random.default_rng(6)
        for _ in range(30):
            tree = select_subtree(q, rng)
            idx, wmat = frozen_neighbor_arrays(q, tree)
            width = max(len(q.adjacency[i]) for i in tree.nodes)
            assert idx.shape == wmat.shape == (tree.size, width)


class TestTracedNames:
    """The benchmark's traced run times each IBP stage and each run by
    wrapping these module attributes (perfbench/run.py, Instrument).  A
    solver that bound one of them early would bypass its wrapper, and the
    stage would read 0 s."""

    TRACED = [
        (ibp_module, "select_subtree"),
        (ibp_module, "frozen_neighbor_arrays"),
        (ibp_module, "ensemble_upward"),
        (ibp_module, "ensemble_sample"),
        (ibp_module, "run_schedule"),
        (sa_module, "run_schedule"),
    ]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_runs_call_the_traced_names(self, monkeypatch, threads):
        calls = {}  # name: one entry per call; list.append is thread-safe
        for module, name in self.TRACED:
            calls[f"{module.__name__}.{name}"] = seen = []

            def counted(*args, _fn=getattr(module, name), _seen=seen, **kwargs):
                _seen.append(None)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        q = random_sparse_qubo(gen_er_graph(30, 0.12, 6), 7)
        sched = geometric_schedule(0.5, 5.0, 5)
        ibp_run(q, 4, sched, seed=1, threads=threads)
        sa_run(q, 4, sched, seed=1, threads=threads)
        counts = {key: len(seen) for key, seen in calls.items()}
        assert all(counts.values()), counts
        # one upward sweep and one draw per chunk per move
        assert counts["qubokit.ibp.ensemble_upward"] == 5 * threads
        assert counts["qubokit.ibp.ensemble_sample"] == 5 * threads
