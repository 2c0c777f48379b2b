"""Random induced sub-tree selection and the conditioned sub-problem.

The selection rule grows a set from a uniformly random start node: at each
step a uniformly random outside variable coupled to exactly one current
member joins the set, with that member as its parent.  Variables seeing two
or more members are permanently excluded, so the induced subgraph stays
chordless and the grown set is a tree.  Growth stops when no candidate
remains.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from typing import Protocol

import numpy as np

from .qubo import QuboInstance, _check_beta


@dataclass
class SubTree:
    """Induced sub-tree by position: nodes[0] is the root.

    parent_pos[p] is the position (index into nodes) of node p's parent,
    -1 for the root.  edge_w[p] is the coupling to the parent, 0.0 at the
    root.  Positions are topological: parents precede children.  Selected
    trees' are in level order too, as the ensemble kernels need.  Only
    hand-built trees are checked: select_subtree builds them valid (_selected).
    """

    nodes: list[int]
    parent_pos: np.ndarray
    edge_w: np.ndarray
    _depth: list[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        m = len(self.nodes)
        self.parent_pos = np.asarray(self.parent_pos, dtype=np.int64)
        self.edge_w = np.asarray(self.edge_w, dtype=np.float64)
        if self.parent_pos.shape != (m,) or self.edge_w.shape != (m,):
            raise ValueError("parent_pos and edge_w must have one entry per node")
        if m == 0:
            raise ValueError("sub-tree must contain at least one node")
        if len(set(self.nodes)) != m:
            raise ValueError("duplicate node in sub-tree")
        parent = self.parent_pos.tolist()
        if parent[0] != -1:
            raise ValueError("first node must be the root (parent_pos -1)")
        self._depth = depth = [0] * m
        for p in range(1, m):
            if not 0 <= parent[p] < p:
                raise ValueError(f"parent of position {p} must precede it")
            depth[p] = depth[parent[p]] + 1

    @classmethod
    def _selected(cls, q: QuboInstance, nodes, parent_pos, depth: list[int]) -> SubTree:
        tree = cls.__new__(cls)
        tree.nodes, tree._depth, tree.edge_w = nodes, depth, np.zeros(len(nodes))
        tree.parent_pos = np.array(parent_pos, dtype=np.int64)
        # Each parent's padded row at its child's column, the first match:
        # the padding (index 0) follows a row's real entries.
        if len(nodes) > 1:
            pidx, pwgt = q.padded_adjacency()
            at = np.array(nodes)
            up = at.take(tree.parent_pos[1:])
            col = (pidx.take(up, 0) == at[1:, None]).argmax(1)
            tree.edge_w[1:] = pwgt.take(up * pidx.shape[1] + col)
        return tree

    @property
    def size(self) -> int:
        return len(self.nodes)

    @cached_property
    def children(self) -> list[list[int]]:
        """Child positions of each position, in increasing order."""
        children: list[list[int]] = [[] for _ in range(self.size)]
        for p, par in enumerate(self.parent_pos.tolist()[1:], start=1):
            children[par].append(p)
        return children

    @cached_property
    def _bounds(self) -> list[int]:
        """Level d is positions _bounds[d]:_bounds[d + 1]; ValueError if not in level order."""
        if self._depth != sorted(self._depth):
            raise ValueError("the ensemble kernels need a tree in level order")
        return [bisect_left(self._depth, d) for d in range(self._depth[-1] + 2)]

    @property
    def tree_edges(self) -> list[tuple[int, int, float]]:
        """(parent node, child node, coupling) for each non-root position."""
        return [
            (self.nodes[int(self.parent_pos[p])], self.nodes[p], float(self.edge_w[p]))
            for p in range(1, self.size)
        ]

    def position(self, node: int) -> int:
        """Position of `node` in the tree; ValueError if absent."""
        try:
            return self.nodes.index(node)
        except ValueError:
            raise ValueError(f"node {node} is not in the sub-tree") from None


@dataclass
class TreeProblem:
    """Sub-tree with frozen-neighbor fields folded in, at fixed beta.

    eff_field[p] = h_i + sum of w_ik x_k over neighbors k of i outside the
    tree, for the node i at position p.
    """

    tree: SubTree
    eff_field: np.ndarray
    beta: float

    def __post_init__(self) -> None:
        self.eff_field = np.asarray(self.eff_field, dtype=np.float64)
        if self.eff_field.shape != (self.tree.size,):
            raise ValueError(
                f"eff_field must have length {self.tree.size}, "
                f"got shape {self.eff_field.shape}"
            )
        _check_beta(self.beta)


class _Integers(Protocol):
    def integers(self, k: int, /) -> int: ...


def select_subtree(q: QuboInstance, rng: _Integers) -> SubTree:
    """Grow a random induced sub-tree; frontier = outside nodes with exactly
    one coupling into the current set.  rng is used only as rng.integers(k).
    No pass checks the tree or finds its depths.  Positions come in level
    order, each level in join order, relabelled only if levels interleaved."""
    n = q.n
    nbrs = q._nbrs
    integers = rng.integers
    conn = [0] * n  # couplings into the set; a member's is raised to 3
    entry_parent = [-1] * n
    frontier: list[int] = []
    fpos = [0] * n  # position in frontier, valid while a node is in it

    # A node leaves the frontier by moving the frontier's last entry into
    # its slot.  The chosen node leaves first, then each outside neighbor
    # joins on its first coupling into the set and leaves for good on its
    # second.  That order fixes the frontier's layout, and with it which
    # node each draw picks.
    u = int(integers(n))
    nodes, parent_pos, depth = [u], [-1], [0]
    while True:
        pos_u = len(nodes) - 1
        conn[u] = 3  # so members never count as 1 or 2 couplings again
        for v in nbrs[u]:
            c = conn[v] = conn[v] + 1
            if c == 1:
                entry_parent[v] = pos_u
                fpos[v] = len(frontier)
                frontier.append(v)
            elif c == 2:
                p = fpos[v]
                last = frontier.pop()
                if last != v:
                    frontier[p] = last
                    fpos[last] = p
        if not frontier:
            break
        p = int(integers(len(frontier)))
        u = frontier[p]
        last = frontier.pop()
        if last != u:
            frontier[p] = last
            fpos[last] = p
        nodes.append(u)
        parent_pos.append(pp := entry_parent[u])
        depth.append(depth[pp] + 1)
    if depth == (level_depth := sorted(depth)):
        return SubTree._selected(q, nodes, parent_pos, depth)
    # A level grew after a deeper one began: relabel by a stable sort on depth.
    order = sorted(range(len(depth)), key=depth.__getitem__)
    new = {p: j for j, p in enumerate(order)}
    return SubTree._selected(
        q, [nodes[p] for p in order], [-1] + [new[parent_pos[p]] for p in order[1:]],
        level_depth)


def build_tree_problem(
    q: QuboInstance, tree: SubTree, x: np.ndarray, beta: float
) -> TreeProblem:
    """Freeze neighbors outside the tree at their current values in x: each
    field sums over all neighbors, with the tree's own bits set to 0."""
    xz = np.array(x, dtype=np.float64)
    xz[tree.nodes] = 0.0
    b = np.empty(tree.size, dtype=np.float64)
    for p, i in enumerate(tree.nodes):
        acc = q.h[i]
        for k, w in q.adjacency[i]:
            acc += w * xz[k]
        b[p] = acc
    return TreeProblem(tree, b, beta)


# ----------------------------------------------------------------------
# Vectorized effective fields for a replica ensemble.
# ----------------------------------------------------------------------


def frozen_neighbor_arrays(
    q: QuboInstance, tree: SubTree
) -> tuple[np.ndarray, np.ndarray]:
    """(M, W) index and weight arrays: the tree nodes' rows of
    q.padded_adjacency(), cut to W, the largest degree among the nodes.
    Over states with the tree's bits set to 0 they sum to
    build_tree_problem's fields.  A row's real entries come first and its
    padding weights are -0.0, so the IBP kernel can skip a row past its
    degree."""
    pidx, pwgt = q.padded_adjacency()
    nodes = np.asarray(tree.nodes)
    width = q._degrees[nodes].max()
    return pidx[nodes, :width], pwgt[nodes, :width]
