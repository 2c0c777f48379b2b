"""Tests for random sub-tree selection and the conditioned sub-problem."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qubokit import (
    QuboInstance,
    SubTree,
    TreeProblem,
    build_tree_problem,
    energy,
    gen_er_graph,
    load_instance,
    mis_to_qubo,
    random_sparse_qubo,
    save_instance,
    select_subtree,
)
from qubokit.subtree import frozen_neighbor_arrays


def induced_edge_count(q: QuboInstance, nodes) -> int:
    inside = set(nodes)
    return sum(1 for i, j, _ in q.couplings() if i in inside and j in inside)


def is_connected(tree: SubTree) -> bool:
    reached = {tree.nodes[0]}
    for parent, child, _ in tree.tree_edges:
        if parent not in reached:
            return False
        reached.add(child)
    return len(reached) == tree.size


class TestSubTreeType:
    def test_tree_edges(self):
        t = SubTree([4, 2, 7], np.array([-1, 0, 1]), np.array([0.0, 1.5, -2.0]))
        assert t.size == 3
        assert t.tree_edges == [(4, 2, 1.5), (2, 7, -2.0)]
        assert t.children == [[1], [2], []]

    def test_position(self):
        t = SubTree([4, 2], np.array([-1, 0]), np.array([0.0, 1.0]))
        assert t.position(2) == 1
        with pytest.raises(ValueError):
            t.position(9)

    def test_validation(self):
        with pytest.raises(ValueError):
            SubTree([], np.array([]), np.array([]))
        with pytest.raises(ValueError):
            SubTree([0, 1], np.array([-1, 1]), np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            SubTree([0, 0], np.array([-1, 0]), np.array([0.0, 1.0]))

    def test_level_bounds_of_hand_built_trees(self):
        # depths 0, 1, 1, 2: level order, bounds from the depths
        t = SubTree([5, 6, 7, 8], np.array([-1, 0, 0, 2]), np.zeros(4))
        assert t._bounds == [0, 1, 3, 4]
        # depths 0, 1, 2, 1: topological, so valid, but not in level order
        t = SubTree([5, 6, 7, 8], np.array([-1, 0, 1, 0]), np.zeros(4))
        assert t.children == [[1, 3], [2], [], []]
        with pytest.raises(ValueError, match="level order"):
            t._bounds


class TestSelection:
    def test_no_couplings_gives_single_node(self):
        q = QuboInstance(5, h=[1.0] * 5)
        rng = np.random.default_rng(0)
        for _ in range(20):
            assert select_subtree(q, rng).size == 1

    def test_path_graph_is_fully_covered(self):
        q = QuboInstance(3, couplings={(0, 1): 1.0, (1, 2): 1.0})
        rng = np.random.default_rng(1)
        for _ in range(30):
            tree = select_subtree(q, rng)
            assert sorted(tree.nodes) == [0, 1, 2]

    def test_triangle_always_size_two(self):
        q = QuboInstance(3, couplings={(0, 1): 1.0, (1, 2): 1.0, (0, 2): 1.0})
        rng = np.random.default_rng(2)
        for _ in range(100):
            assert select_subtree(q, rng).size == 2

    def test_tree_input_covers_component(self):
        # star plus isolated node: start inside star covers the star
        q = QuboInstance(
            5, couplings={(0, 1): 1.0, (0, 2): 1.0, (0, 3): 1.0}
        )
        rng = np.random.default_rng(3)
        for _ in range(40):
            tree = select_subtree(q, rng)
            if 4 in tree.nodes:
                assert tree.size == 1
            else:
                assert sorted(tree.nodes) == [0, 1, 2, 3]

    def test_induced_subgraph_is_a_tree(self):
        rng = np.random.default_rng(4)
        for p in (0.02, 0.1, 0.5):
            for rep in range(10):
                n = int(rng.integers(5, 201))
                g = gen_er_graph(n, p, int(rng.integers(10_000)))
                q = random_sparse_qubo(g, int(rng.integers(10_000)))
                tree = select_subtree(q, rng)
                assert induced_edge_count(q, tree.nodes) == tree.size - 1
                assert is_connected(tree)

    def test_edge_weights_match_instance(self):
        g = gen_er_graph(30, 0.2, 8)
        q = random_sparse_qubo(g, 9)
        rng = np.random.default_rng(5)
        tree = select_subtree(q, rng)
        for parent, child, w in tree.tree_edges:
            a, b = min(parent, child), max(parent, child)
            assert dict(((i, j), v) for i, j, v in q.couplings())[(a, b)] == w

    def test_deterministic_given_rng_state(self):
        q = random_sparse_qubo(gen_er_graph(40, 0.15, 1), 2)
        t1 = select_subtree(q, np.random.default_rng(77))
        t2 = select_subtree(q, np.random.default_rng(77))
        assert t1.nodes == t2.nodes
        assert np.array_equal(t1.parent_pos, t2.parent_pos)

    def test_seeded_selections_match_golden_digest(self):
        # sha256 of (nodes, parent_pos) over 50 seeded selections pins the
        # selected trees, their labels and the RNG draw sequence, on which
        # every seeded IBP trajectory depends
        q = random_sparse_qubo(gen_er_graph(200, 0.05, 0), 1)
        rng = np.random.default_rng(2)
        digest = hashlib.sha256()
        for _ in range(50):
            tree = select_subtree(q, rng)
            digest.update(np.asarray(tree.nodes, dtype=np.int64).tobytes())
            digest.update(np.asarray(tree.parent_pos, dtype=np.int64).tobytes())
        assert digest.hexdigest() == (
            "0f15acb8a6445b3d58f075be7f717b00ec61ce8d8a462441dc3ddf32f4e5b320"
        )

    def test_seeded_selections_match_order_free_digest(self):
        # the same 50 selections hashed without their labels: each tree's
        # root node and size, then its sorted (parent node, child node, w)
        # edges.  Recorded before selection went to level order, so it pins
        # the node sets, parents and couplings across that relabelling.
        q = random_sparse_qubo(gen_er_graph(200, 0.05, 0), 1)
        rng = np.random.default_rng(2)
        digest = hashlib.sha256()
        for _ in range(50):
            tree = select_subtree(q, rng)
            edges = sorted(tree.tree_edges)
            digest.update(np.array([tree.nodes[0], tree.size], dtype=np.int64).tobytes())
            digest.update(np.array([e[:2] for e in edges], dtype=np.int64).tobytes())
            digest.update(np.array([e[2] for e in edges], dtype=np.float64).tobytes())
        assert digest.hexdigest() == (
            "7353e70e3bfd4454da3e47aa6ddde1dd6d19258fde55de2395d2903b05cda416"
        )


@st.composite
def small_instances(draw):
    """A QUBO on a random graph of 1-14 variables; the k-th edge has
    coupling k + 1, so every tree edge can be traced to its pair."""
    n = draw(st.integers(1, 14))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [e for e, k in zip(pairs, keep) if k]
    return QuboInstance(n, couplings={e: float(k + 1) for k, e in enumerate(edges)})


class TestSelectionInvariants:
    @settings(max_examples=300, deadline=None)
    @given(q=small_instances(), seed=st.integers(0, 2**32 - 1))
    def test_tree_is_connected_induced_and_maximal(self, q, seed):
        tree = select_subtree(q, np.random.default_rng(seed))
        assert is_connected(tree)
        assert induced_edge_count(q, tree.nodes) == tree.size - 1
        w = {(i, j): v for i, j, v in q.couplings()}
        for parent, child, v in tree.tree_edges:
            assert w[min(parent, child), max(parent, child)] == v
        # growth stops only when no outside node has exactly one coupling
        # into the tree
        inside = set(tree.nodes)
        idx = q.padded_adjacency()[0]
        for v in range(q.n):
            if v not in inside:
                assert sum(k in inside for k in idx[v, : q.degree(v)].tolist()) != 1, v

    @settings(max_examples=300, deadline=None)
    @given(q=small_instances(), seed=st.integers(0, 2**32 - 1))
    def test_tree_is_in_level_order(self, q, seed):
        # depths never decrease along the positions, so each parent is in
        # the level above, and the bounds mark off the run of each depth
        tree = select_subtree(q, np.random.default_rng(seed))
        parent = tree.parent_pos.tolist()
        depth = [0] * tree.size
        for p in range(1, tree.size):
            depth[p] = depth[parent[p]] + 1
        assert depth == sorted(depth)
        bounds = tree._bounds
        assert len(bounds) == depth[-1] + 2 and bounds[0] == 0 and bounds[-1] == tree.size
        for d in range(depth[-1] + 1):
            assert depth[bounds[d] : bounds[d + 1]] == [d] * depth.count(d)


def hub_instance(seed: int) -> QuboInstance:
    """Random ER(60, 0.08) instance plus variable 0 coupled to every other."""
    q = random_sparse_qubo(gen_er_graph(60, 0.08, seed), seed + 1)
    w = {(i, j): v for i, j, v in q.couplings()}
    for j in range(1, q.n):
        w.setdefault((0, j), 0.5)
    return QuboInstance(q.n, h=q.h, couplings=w)


class TestSelectedTreeRecords:
    """select_subtree skips SubTree's checks and records the depths as the
    nodes join; the tree equals one rebuilt through the checked path."""

    @pytest.mark.parametrize(
        "q",
        [
            random_sparse_qubo(gen_er_graph(60, 0.08, 1), 2),
            hub_instance(3),
            mis_to_qubo(gen_er_graph(80, 0.05, 4)),
        ],
        ids=["plain", "hub", "mis"],
    )
    def test_depths_layout_and_children_equal_a_rebuilt_tree(self, q):
        rng = np.random.default_rng(5)
        for _ in range(200):
            tree = select_subtree(q, rng)
            rebuilt = SubTree(tree.nodes, tree.parent_pos, tree.edge_w)
            assert tree.parent_pos.dtype == np.int64 and tree.edge_w.dtype == np.float64
            assert tree._depth == rebuilt._depth
            assert tree._bounds == rebuilt._bounds
            assert tree.children == rebuilt.children


class TestSelectedEdgeWeights:
    """edge_w is gathered after the walk from the padded rows; each entry
    is the instance's coupling of the child and its parent, bit for bit."""

    @pytest.mark.parametrize(
        "q",
        [
            mis_to_qubo(gen_er_graph(80, 0.05, 4)),
            load_instance(save_instance(random_sparse_qubo(gen_er_graph(60, 0.08, 1), 2))),
            hub_instance(3),
            QuboInstance(6, h=[1.0, -2.0, 0.5, 0.0, 3.0, -1.0]),
            QuboInstance(1),
        ],
        ids=["mis", "random", "hub", "no-couplings", "one-variable"],
    )
    def test_edge_w_is_the_coupling_bit_for_bit(self, q):
        pair = {(i, j): w for i, j, w in q.couplings()}
        rng = np.random.default_rng(6)
        for _ in range(200):
            tree = select_subtree(q, rng)
            assert tree.edge_w.dtype == np.float64 and tree.edge_w.shape == (tree.size,)
            want = [0.0] + [
                pair[min(a, b), max(a, b)]
                for a, b in zip(np.asarray(tree.nodes)[tree.parent_pos[1:]].tolist(), tree.nodes[1:])
            ]
            assert tree.edge_w.tobytes() == np.array(want).tobytes()
        if not q.num_couplings:
            assert q.padded_adjacency()[0].shape == (q.n, 0)


class TestTreeProblem:
    def test_validation(self):
        t = SubTree([0, 1], np.array([-1, 0]), np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            TreeProblem(t, np.zeros(3), 1.0)
        with pytest.raises(ValueError):
            TreeProblem(t, np.zeros(2), 0.0)
        with pytest.raises(ValueError):
            TreeProblem(t, np.zeros(2), -1.0)

    @pytest.mark.parametrize("beta", [np.inf, np.nan])
    def test_non_finite_beta_rejected(self, beta):
        t = SubTree([0, 1], np.array([-1, 0]), np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match="finite"):
            TreeProblem(t, np.zeros(2), beta)

    def test_whole_graph_tree_keeps_bare_fields(self):
        q = QuboInstance(3, h=[0.5, -1.0, 2.0], couplings={(0, 1): 1.0, (1, 2): 1.0})
        tree = select_subtree(q, np.random.default_rng(0))
        tp = build_tree_problem(q, tree, np.ones(3, dtype=np.uint8), 1.0)
        assert list(tp.eff_field) == [q.h[i] for i in tree.nodes]

    def test_frozen_neighbors_at_zero_keep_bare_fields(self):
        q = QuboInstance(
            4, h=[0.5, -1.0, 2.0, 0.0], couplings={(0, 1): 1.0, (1, 2): 3.0, (2, 3): 1.0}
        )
        t = SubTree([0, 1], np.array([-1, 0]), np.array([0.0, 1.0]))
        tp = build_tree_problem(q, t, np.zeros(4, dtype=np.uint8), 2.0)
        assert list(tp.eff_field) == [0.5, -1.0]

    def test_frozen_neighbor_arrays_give_effective_fields(self):
        # the tree's rows of the padded adjacency, as wide as its widest
        # row, sum in column order over x with the tree's bits set to 0 to
        # the effective fields of build_tree_problem
        rng = np.random.default_rng(13)
        q = random_sparse_qubo(gen_er_graph(60, 0.1, 3), 4)
        for _ in range(10):
            tree = select_subtree(q, rng)
            x = (rng.random(q.n) < 0.5).astype(np.uint8)
            idx, wmat = frozen_neighbor_arrays(q, tree)
            width = max(q.degree(i) for i in tree.nodes)
            assert idx.shape == wmat.shape == (tree.size, width)
            xz = x.copy()
            xz[tree.nodes] = 0
            eff = q.h[tree.nodes]
            for col in range(width):
                eff += wmat[:, col] * xz[idx[:, col]]
            tp = build_tree_problem(q, tree, x, 1.0)
            assert np.array_equal(eff, tp.eff_field)

    def test_frozen_neighbor_arrays_of_a_hand_built_tree(self):
        # rows cut to the tree's widest row, here the graph's maximum degree:
        # node 1's row is full, node 0's zero-weight padding adds nothing
        q = QuboInstance(
            4, h=[0.5, -1.0, 2.0, 0.0], couplings={(0, 1): 1.0, (1, 2): 3.0, (2, 3): 1.0}
        )
        t = SubTree([1, 0], np.array([-1, 0]), np.array([0.0, 1.0]))
        idx, wmat = frozen_neighbor_arrays(q, t)
        assert idx.shape == wmat.shape == (2, 2)
        x = np.array([1, 1, 1, 1], dtype=np.uint8)
        xz = x.copy()
        xz[t.nodes] = 0
        eff = q.h[t.nodes] + (wmat * xz[idx]).sum(axis=1)
        assert np.array_equal(eff, build_tree_problem(q, t, x, 1.0).eff_field)

    @pytest.mark.parametrize(
        "nodes, parent_pos, edge_w, width",
        [
            ([3], [-1], [0.0], 1),
            ([1, 5], [-1, 0], [0.0, -1.5], 2),
            ([5, 1, 0], [-1, 0, 1], [0.0, -1.5, 1.0], 4),
        ],
        ids=["leaf", "leaf-and-tail", "through-centre"],
    )
    def test_frozen_neighbor_arrays_cut_hand_built_rows(self, nodes, parent_pos, edge_w, width):
        # star with centre 0 and leaves 1..4, and a tail 1-5: maximum degree
        # 4, but a tree of leaves is only as wide as its widest row
        q = QuboInstance(
            6,
            h=[0.5, -1.0, 2.0, 0.25, -0.5, 1.0],
            couplings={(0, 1): 1.0, (0, 2): -2.0, (0, 3): 0.5, (0, 4): 3.0, (1, 5): -1.5},
        )
        assert q.padded_adjacency()[0].shape == (6, 4)
        t = SubTree(nodes, np.array(parent_pos), np.array(edge_w))
        idx, wmat = frozen_neighbor_arrays(q, t)
        assert idx.shape == wmat.shape == (len(nodes), width)
        for x in np.random.default_rng(1).integers(0, 2, (8, q.n)).astype(np.uint8):
            xz = x.copy()
            xz[t.nodes] = 0
            eff = q.h[t.nodes]
            for col in range(width):
                eff += wmat[:, col] * xz[idx[:, col]]
            assert np.array_equal(eff, build_tree_problem(q, t, x, 1.0).eff_field)

    def test_hand_worked_effective_field(self):
        # path 0-1-2, node 2 frozen at 1, w_12 = -2, h_1 = 0.5: b_1 = -1.5
        q = QuboInstance(3, h=[0.0, 0.5, 0.0], couplings={(0, 1): 1.0, (1, 2): -2.0})
        t = SubTree([0, 1], np.array([-1, 0]), np.array([0.0, 1.0]))
        x = np.array([0, 0, 1], dtype=np.uint8)
        tp = build_tree_problem(q, t, x, 1.0)
        assert tp.eff_field[1] == pytest.approx(-1.5, abs=1e-12)

    def test_conditioning_preserves_energy_differences(self):
        # E(x) - E(x') must equal E_T(x_T) - E_T(x'_T) whenever x and x'
        # agree outside the tree.
        rng = np.random.default_rng(12)
        for _ in range(25):
            g = gen_er_graph(14, 0.3, int(rng.integers(1000)))
            q = random_sparse_qubo(g, int(rng.integers(1000)))
            tree = select_subtree(q, rng)
            x = (rng.random(q.n) < 0.5).astype(np.uint8)
            tp = build_tree_problem(q, tree, x, 1.0)

            def tree_energy(bits):
                e = float(np.dot(tp.eff_field, bits))
                for p in range(1, tree.size):
                    e += tp.tree.edge_w[p] * bits[p] * bits[int(tree.parent_pos[p])]
                return e

            xa = x.copy()
            xb = x.copy()
            ba = (rng.random(tree.size) < 0.5).astype(np.uint8)
            bb = (rng.random(tree.size) < 0.5).astype(np.uint8)
            xa[tree.nodes] = ba
            xb[tree.nodes] = bb
            lhs = energy(q, xa) - energy(q, xb)
            rhs = tree_energy(ba) - tree_energy(bb)
            assert lhs == pytest.approx(rhs, abs=1e-10)
