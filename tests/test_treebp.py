"""Tests for tree belief propagation: messages, marginals, sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qubokit import (
    MessageSet,
    NodeBelief,
    NumericError,
    QuboInstance,
    SubTree,
    TreeProblem,
    boltzmann_distribution,
    bp_pass,
    bp_pass_reference,
    exact_marginals,
    gen_er_graph,
    map_assign_tree,
    marginal,
    random_sparse_qubo,
    sample_tree,
    select_subtree,
)
from qubokit.oracle import state_bits
from qubokit.subtree import build_tree_problem
from qubokit.treebp import (
    _sample_scalar,
    _upward_scalar,
    ensemble_sample,
    ensemble_upward,
    sigmoid,
    softplus,
)


def random_tree_problem(rng, m, beta, field_scale=1.0, w_scale=2.0):
    """Random recursive tree with uniform fields and couplings."""
    parent_pos = [-1] + [int(rng.integers(p)) for p in range(1, m)]
    edge_w = np.concatenate([[0.0], rng.uniform(-w_scale, w_scale, m - 1)])
    nodes = list(rng.permutation(100 + m)[:m])  # arbitrary node labels
    tree = SubTree([int(v) for v in nodes], np.array(parent_pos), edge_w)
    eff = rng.uniform(-field_scale, field_scale, m)
    return TreeProblem(tree, eff, beta)


def conditioned_instance(tp: TreeProblem) -> QuboInstance:
    """Position-indexed QuboInstance of the conditioned sub-problem."""
    couplings = {
        (int(tp.tree.parent_pos[p]), p): float(tp.tree.edge_w[p])
        for p in range(1, tp.tree.size)
        if tp.tree.edge_w[p] != 0.0
    }
    return QuboInstance(tp.tree.size, h=tp.eff_field, couplings=couplings)


TWO_NODE = TreeProblem(
    SubTree([0, 1], np.array([-1, 0]), np.array([0.0, -2.0])),
    np.zeros(2),
    1.0,
)


SOFTPLUS_GRID = np.array(
    [0.0, 1e-300]
    + np.geomspace(1e-12, 1.0, 25).tolist()
    + np.linspace(1.0, 745.0, 745).tolist()
    + np.random.default_rng(0).uniform(-40.0, 40.0, 4000).tolist()
    + [1e3, 1e100, 1e308]
)
SOFTPLUS_GRID = np.concatenate([SOFTPLUS_GRID, -SOFTPLUS_GRID])


class TestSoftplus:
    def test_within_4_ulp_of_logaddexp(self):
        np.testing.assert_array_max_ulp(
            softplus(SOFTPLUS_GRID), np.logaddexp(0.0, SOFTPLUS_GRID), 4
        )

    def test_exact_at_infinities_and_nan(self):
        t = np.array([np.inf, -np.inf, np.nan])
        for got in (softplus(t).tolist(), [softplus(float(v)) for v in t]):
            assert got[:2] == [np.inf, 0.0] and np.isnan(got[2])

    def test_scalars_give_the_array_bits(self):
        # the scalar twins call softplus on floats, the kernel on arrays
        want = softplus(SOFTPLUS_GRID)
        for t, w in zip(SOFTPLUS_GRID.tolist(), want.tolist()):
            for got in (softplus(t), softplus(np.float64(t)), softplus(np.array([t]))[0]):
                assert np.float64(got).tobytes() == np.float64(w).tobytes()


class TestSigmoid:
    def test_scalars_give_the_array_bits(self):
        # the scalar twins and marginal call sigmoid on floats, the kernel
        # on arrays
        t = np.array([0.0, 1e-320, np.inf, np.nan, 1e-12, 0.5, 36.0, 745.0, 1e308])
        t = np.concatenate([t, -t])
        want = sigmoid(t)
        for v, w in zip(t.tolist(), want.tolist()):
            for got in (sigmoid(v), sigmoid(np.float64(v)), sigmoid(np.array([v]))[0]):
                assert np.float64(got).tobytes() == np.float64(w).tobytes()
        assert want[:3].tolist() == [0.5, 0.5, 1.0] and want[9:12].tolist() == [0.5, 0.5, 0.0]
        assert np.isnan(want[3]) and np.isnan(want[12])


class TestBpPass:
    def test_single_node_empty(self):
        tp = TreeProblem(SubTree([3], np.array([-1]), np.array([0.0])), [0.5], 1.0)
        assert bp_pass(tp).z == {}
        assert bp_pass_reference(tp).z == {}

    def test_two_node_closed_form(self):
        # b = (0,0), w = -2, beta = 1: z = log((1 + e^2) / 2)
        ms = bp_pass(TWO_NODE)
        want = np.log((1 + np.e**2) / 2)
        assert ms.z[(1, 0)] == pytest.approx(want, abs=1e-12)
        assert ms.z[(0, 1)] == pytest.approx(want, abs=1e-12)
        ref = bp_pass_reference(TWO_NODE)
        assert ref.z[(1, 0)] == pytest.approx(want, abs=1e-12)

    def test_zero_weight_edge_gives_zero_messages(self):
        tree = SubTree([0, 1, 2], np.array([-1, 0, 1]), np.array([0.0, 1.5, 0.0]))
        tp = TreeProblem(tree, [0.3, -0.7, 1.1], 2.0)
        ms = bp_pass(tp)
        assert ms.z[(2, 1)] == 0.0
        assert ms.z[(1, 2)] == 0.0

    def test_message_count(self):
        rng = np.random.default_rng(0)
        tp = random_tree_problem(rng, 9, 1.0)
        ms = bp_pass(tp)
        assert len(ms.z) == 2 * (tp.tree.size - 1)

    def test_agrees_with_reference(self):
        # per-message |dz| <= 1e-9 over random trees at moderate beta
        rng = np.random.default_rng(1)
        for _ in range(100):
            m = int(rng.integers(1, 21))
            beta = float(rng.uniform(0.05, 2.0))
            tp = random_tree_problem(rng, m, beta)
            za = bp_pass(tp).z
            zb = bp_pass_reference(tp).z
            assert za.keys() == zb.keys()
            for key in za:
                assert abs(za[key] - zb[key]) <= 1e-9

    def test_non_finite_input_rejected(self):
        tree = SubTree([0, 1], np.array([-1, 0]), np.array([0.0, 1.0]))
        with pytest.raises(NumericError):
            bp_pass(TreeProblem(tree, [np.nan, 0.0], 1.0))
        with pytest.raises(NumericError):
            bp_pass(TreeProblem(tree, [np.inf, 0.0], 1.0))

    def test_finite_at_extreme_beta(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            m = int(rng.integers(2, 12))
            tp = random_tree_problem(rng, m, 1e4, field_scale=1e3, w_scale=1e3)
            ms = bp_pass(tp)
            assert all(np.isfinite(v) for v in ms.z.values())
            for node in tp.tree.nodes:
                assert np.isfinite(marginal(tp, ms, node).p1)


class TestMarginal:
    def test_isolated_node_symmetry(self):
        tp = TreeProblem(SubTree([0], np.array([-1]), np.array([0.0])), [0.0], 1.0)
        assert marginal(tp, bp_pass(tp), 0).p1 == pytest.approx(0.5)

    def test_isolated_node_two_state_boltzmann(self):
        # h = -1, beta = 1: p1 = sigma(1) ~ 0.7311
        tp = TreeProblem(SubTree([0], np.array([-1]), np.array([0.0])), [-1.0], 1.0)
        assert marginal(tp, bp_pass(tp), 0).p1 == pytest.approx(
            1 / (1 + np.exp(-1)), abs=1e-12
        )

    def test_two_node_closed_form(self):
        ms = bp_pass(TWO_NODE)
        want = (1 + np.e**2) / (3 + np.e**2)
        assert marginal(TWO_NODE, ms, 0).p1 == pytest.approx(want, abs=1e-12)
        assert marginal(TWO_NODE, ms, 1).p1 == pytest.approx(want, abs=1e-12)

    def test_matches_enumeration(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            m = int(rng.integers(1, 15))
            beta = float(rng.choice([0.1, 1.0, 5.0]))
            tp = random_tree_problem(rng, m, beta)
            ms = bp_pass(tp)
            exact = exact_marginals(conditioned_instance(tp), beta)
            for p, node in enumerate(tp.tree.nodes):
                assert abs(marginal(tp, ms, node).p1 - exact[p]) <= 1e-8

    def test_unknown_node_rejected(self):
        ms = bp_pass(TWO_NODE)
        with pytest.raises(ValueError):
            marginal(TWO_NODE, ms, 9)

    def test_belief_validation(self):
        with pytest.raises(ValueError):
            NodeBelief(1.5)


class TestSampling:
    def test_two_node_joint_law(self):
        ms = bp_pass(TWO_NODE)
        rng = np.random.default_rng(4)
        hits = sum(
            s == {0: 1, 1: 1}
            for s in (sample_tree(TWO_NODE, ms, rng) for _ in range(50_000))
        )
        want = np.e**2 / (3 + np.e**2)
        sigma = np.sqrt(want * (1 - want) / 50_000)
        assert abs(hits / 50_000 - want) < 3 * sigma

    def test_near_zero_beta_is_fair_coin(self):
        rng = np.random.default_rng(5)
        tp = random_tree_problem(rng, 4, 1e-12)
        ms = bp_pass(tp)
        counts = np.zeros(4)
        for _ in range(20_000):
            s = sample_tree(tp, ms, rng)
            counts += [s[node] for node in tp.tree.nodes]
        assert np.abs(counts / 20_000 - 0.5).max() < 0.02

    def test_chain_rule_conditionals(self):
        # child-given-parent frequencies match sigma(A - beta*w*b) within
        # binomial 4 sigma
        rng = np.random.default_rng(6)
        tp = random_tree_problem(rng, 5, 1.0)
        tree = tp.tree
        ms = bp_pass(tp)
        n_samples = 100_000
        cases = np.zeros((tree.size, 2))
        ones = np.zeros((tree.size, 2))
        for _ in range(n_samples):
            s = sample_tree(tp, ms, rng)
            for p in range(1, tree.size):
                b = s[tree.nodes[int(tree.parent_pos[p])]]
                cases[p, b] += 1
                ones[p, b] += s[tree.nodes[p]]
        from qubokit.treebp import _excl_parent_fields

        a = _excl_parent_fields(tp, ms)
        for p in range(1, tree.size):
            for b in (0, 1):
                want = sigmoid(a[p] - tp.beta * tp.tree.edge_w[p] * b)
                n_pb = cases[p, b]
                assert n_pb > 100
                sigma = np.sqrt(want * (1 - want) / n_pb)
                assert abs(ones[p, b] / n_pb - want) < 4 * sigma

    def test_empirical_law_total_variation(self):
        # 5-node tree, beta=1, 2e5 samples vs enumerated law (TV < 0.01)
        rng = np.random.default_rng(7)
        tp = random_tree_problem(rng, 5, 1.0)
        ms = bp_pass(tp)
        dist = boltzmann_distribution(conditioned_instance(tp), 1.0)
        counts = np.zeros(32)
        order = np.argsort(tp.tree.nodes)  # map node label -> position
        for _ in range(200_000):
            s = sample_tree(tp, ms, rng)
            idx = 0
            for p in range(5):
                idx = (idx << 1) | s[tp.tree.nodes[p]]
            counts[idx] += 1
        # counts index is by position-order bits; dist enumerates the same
        emp = counts / counts.sum()
        tv = 0.5 * np.abs(emp - dist.probabilities).sum()
        assert tv < 0.01

    def test_consumes_fixed_draw_count(self):
        rng1 = np.random.default_rng(8)
        rng2 = np.random.default_rng(8)
        tp = random_tree_problem(np.random.default_rng(9), 6, 1.0)
        ms = bp_pass(tp)
        sample_tree(tp, ms, rng1)
        rng2.random(6)
        assert rng1.random() == rng2.random()


# At beta 20, beta*w overflows to +inf: the exact law puts 1.0e-9 on 00,
# the rest on 01 and 10, and 11 is out of reach.
HUGE_W = TreeProblem(
    SubTree([0, 1], np.array([-1, 0]), np.array([0.0, 1e307])), np.array([-1.0, -1.0]), 20.0
)


class TestOverflowingCoupling:
    def test_marginals_are_even(self):
        ms = bp_pass(HUGE_W)
        for i in (0, 1):
            assert marginal(HUGE_W, ms, i).p1 == pytest.approx(0.5)

    def test_sample_tree_never_draws_00_or_11(self):
        ms = bp_pass(HUGE_W)
        rng = np.random.default_rng(0)
        draws = [tuple(sample_tree(HUGE_W, ms, rng).values()) for _ in range(2000)]
        assert set(draws) == {(0, 1), (1, 0)}
        assert 900 < draws.count((0, 1)) < 1100

    def test_map_assign_is_a_ground_state(self):
        x = map_assign_tree(HUGE_W, bp_pass(HUGE_W))
        assert sorted(x.values()) == [0, 1]


class TestMapAssign:
    def test_isolated_node_signs(self):
        for h, bit in ((-1.0, 1), (1.0, 0)):
            tp = TreeProblem(SubTree([0], np.array([-1]), np.array([0.0])), [h], 5.0)
            assert map_assign_tree(tp, bp_pass(tp)) == {0: bit}

    def test_two_node_ferromagnetic(self):
        assert map_assign_tree(TWO_NODE, bp_pass(TWO_NODE)) == {0: 1, 1: 1}

    def test_tie_breaks_to_zero(self):
        tp = TreeProblem(SubTree([0], np.array([-1]), np.array([0.0])), [0.0], 1.0)
        assert map_assign_tree(tp, bp_pass(tp)) == {0: 0}


def shaped_tree_problem(shape, seed, beta=1.7):
    """Tree problem whose parent list has the given shape: a path (one
    node per level), a star (root with 24 children), or a random
    recursive tree."""
    rng = np.random.default_rng(seed)
    if shape == "path":
        parent_pos = [-1] + list(range(11))
    elif shape == "star":
        parent_pos = [-1] + [0] * 24
    else:
        parent_pos = [-1] + [int(rng.integers(p)) for p in range(1, 40)]
    m = len(parent_pos)
    edge_w = np.concatenate([[0.0], rng.uniform(-2.0, 2.0, m - 1)])
    tree = SubTree(list(range(m)), np.array(parent_pos), edge_w)
    return TreeProblem(tree, rng.uniform(-1.0, 1.0, m), beta)


class TestEnsembleKernels:
    @pytest.mark.parametrize("r", [1, 4])
    @pytest.mark.parametrize(
        "shape, seed",
        [("path", 0), ("star", 1), ("random", 2), ("random", 3), ("random", 4)],
    )
    def test_match_scalar_engine(self, shape, seed, r):
        # the level-synchronous kernels reproduce the scalar sweep's s_up
        # and the scalar sampler's bits exactly, replica by replica
        tp = shaped_tree_problem(shape, seed)
        tree = tp.tree
        scale = np.random.default_rng(50 + seed).uniform(-2.0, 2.0, (r, 1))
        effs = tp.eff_field * scale
        s_up = ensemble_upward(tree, effs, tp.beta)
        u = np.stack([np.random.default_rng(100 + k).random(tree.size) for k in range(r)])
        bits = ensemble_sample(tree, s_up, tp.beta, u)
        for k in range(r):
            tpk = TreeProblem(tree, effs[k], tp.beta)
            assert s_up[k].tolist() == _upward_scalar(tree, effs[k].tolist(), tp.beta)[0]
            sample = sample_tree(tpk, bp_pass(tpk), np.random.default_rng(100 + k))
            assert [sample[n] for n in tree.nodes] == list(bits[k])

    @settings(max_examples=200, deadline=None)
    @given(
        shape=st.sampled_from(["path", "star", "random"]),
        m=st.integers(1, 40),
        r=st.integers(1, 5),
        beta=st.floats(0.01, 50.0),
        scale=st.sampled_from([1e-3, 1.0, 1e2]),
        seed=st.integers(0, 2**32 - 1),
        huge_w=st.booleans(),
    )
    def test_twins_agree_bit_for_bit(self, shape, m, r, beta, scale, seed, huge_w):
        # each kernel against its scalar twin on random trees; |S| stays
        # below beta * scale * (1 + 40), far from overflow.  With huge_w the
        # couplings are 1e308, so beta*w overflows to inf for beta > 1.8;
        # each message is then -softplus(S), and no field overflows.
        rng = np.random.default_rng(seed)
        if shape == "path":
            parent_pos = [-1] + list(range(m - 1))
        elif shape == "star":
            parent_pos = [-1] + [0] * (m - 1)
        else:
            parent_pos = [-1] + [int(rng.integers(p)) for p in range(1, m)]
        edge_w = np.concatenate([[0.0], rng.uniform(-scale, scale, m - 1)])
        if huge_w:
            edge_w[1:] = 1e308
        tree = SubTree(list(range(m)), np.array(parent_pos), edge_w)
        effs = rng.uniform(-scale, scale, (r, m))
        u = rng.random((r, m))
        s_up = ensemble_upward(tree, effs, beta)
        bits = ensemble_sample(tree, s_up, beta, u)
        for k in range(r):
            want, _ = _upward_scalar(tree, effs[k].tolist(), beta)
            assert s_up[k].tobytes() == np.array(want).tobytes()
            assert bits[k].tolist() == _sample_scalar(tree, want, beta, u[k].tolist())

    @pytest.mark.parametrize("beta", [1.0, 1e3])
    def test_twins_agree_on_zero_fields_and_extreme_beta(self, beta):
        # integer coefficients give effective fields of exactly 0, so S =
        # -beta*0 = -0.0 before the children's +0.0 sum; at beta = 1e3 exp
        # underflows.  Rows must match the scalar sweep, sign bits included.
        q = integer_instance(40, 0.15, 3)
        rng = np.random.default_rng(4)
        zeros = 0
        for _ in range(30):
            tree = select_subtree(q, rng)
            states = rng.integers(0, 2, (6, q.n)).astype(np.uint8)
            effs = np.stack([build_tree_problem(q, tree, x, beta).eff_field for x in states])
            zeros += int((effs == 0.0).sum())
            s_up = ensemble_upward(tree, effs, beta)
            for k in range(len(states)):
                want = np.array(_upward_scalar(tree, effs[k].tolist(), beta)[0])
                assert s_up[k].tobytes() == want.tobytes()
                assert np.array_equal(np.signbit(s_up[k]), np.signbit(want))
        assert zeros > 0

    @pytest.mark.parametrize(
        "shape, seed", [("path", 0), ("star", 1), ("random", 2), ("random", 3)]
    )
    def test_layout_is_level_contiguous(self, shape, seed):
        tree = shaped_tree_problem(shape, seed).tree
        check_layout(tree)

    def test_layout_of_selected_trees(self):
        q = random_sparse_qubo(gen_er_graph(80, 0.06, 1), 2)
        rng = np.random.default_rng(3)
        for _ in range(20):
            check_layout(select_subtree(q, rng))


def integer_instance(n, p, seed):
    """ER(n, p) instance with couplings in {+-1, +-2} and fields in
    {0, +-1, +-2}."""
    rng = np.random.default_rng(seed)
    g = gen_er_graph(n, p, seed)
    couplings = {(i, j): float(rng.choice([-2, -1, 1, 2])) for i, j in g.edges}
    return QuboInstance(n, h=rng.integers(-2, 3, n).astype(float), couplings=couplings)


def check_layout(tree):
    """Root first, each level contiguous and in decreasing position order,
    each parent in the level above."""
    order, index, bounds, up = tree._layout
    assert sorted(order.tolist()) == list(range(tree.size))
    assert np.array_equal(order[index], np.arange(tree.size))
    assert order[0] == 0 and bounds[:2] == [0, 1] and bounds[-1] == tree.size
    parent = tree.parent_pos.tolist()
    for d in range(1, len(bounds) - 1):
        lo, hi = bounds[d], bounds[d + 1]
        lev = order[lo:hi].tolist()
        assert lo < hi and lev == sorted(lev, reverse=True)
        for j in range(lo, hi):
            assert bounds[d - 1] <= up[j] < lo
            assert order[up[j]] == parent[order[j]]
