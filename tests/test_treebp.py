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
    map_assign_tree,
    marginal,
    sample_tree,
)
from qubokit.oracle import state_bits
from qubokit.treebp import _sample_scalar, _upward_scalar, ensemble_sample, ensemble_upward


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
        from qubokit.treebp import _excl_parent_fields, _sigmoid_scalar

        a = _excl_parent_fields(tp, ms)
        for p in range(1, tree.size):
            for b in (0, 1):
                want = _sigmoid_scalar(a[p] - tp.beta * tp.tree.edge_w[p] * b)
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
    )
    def test_twins_agree_bit_for_bit(self, shape, m, r, beta, scale, seed):
        # each kernel against its scalar twin on random trees; |S| stays
        # below beta * scale * (1 + 40), far from overflow
        rng = np.random.default_rng(seed)
        if shape == "path":
            parent_pos = [-1] + list(range(m - 1))
        elif shape == "star":
            parent_pos = [-1] + [0] * (m - 1)
        else:
            parent_pos = [-1] + [int(rng.integers(p)) for p in range(1, m)]
        edge_w = np.concatenate([[0.0], rng.uniform(-scale, scale, m - 1)])
        tree = SubTree(list(range(m)), np.array(parent_pos), edge_w)
        effs = rng.uniform(-scale, scale, (r, m))
        u = rng.random((r, m))
        s_up = ensemble_upward(tree, effs, beta)
        bits = ensemble_sample(tree, s_up, beta, u)
        for k in range(r):
            want, _ = _upward_scalar(tree, effs[k].tolist(), beta)
            assert s_up[k].tobytes() == np.array(want).tobytes()
            assert bits[k].tolist() == _sample_scalar(tree, want, beta, u[k].tolist())

    @pytest.mark.parametrize(
        "shape, seed", [("path", 0), ("star", 1), ("random", 2), ("random", 3)]
    )
    def test_levels_partition_positions_by_depth(self, shape, seed):
        tree = shaped_tree_problem(shape, seed).tree
        levels = [lev.tolist() for lev in tree.levels]
        assert sorted(p for lev in levels for p in lev) == list(range(tree.size))
        assert levels[0] == [0]
        depth = {p: d for d, lev in enumerate(levels) for p in lev}
        for p in range(1, tree.size):
            assert depth[int(tree.parent_pos[p])] == depth[p] - 1
        for lev in levels:
            assert lev == sorted(lev, reverse=True)
