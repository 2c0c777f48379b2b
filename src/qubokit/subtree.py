"""Random induced sub-tree selection and the conditioned sub-problem.

The selection rule grows a set from a uniformly random start node: at each
step a uniformly random outside variable coupled to exactly one current
member joins the set, with that member as its parent.  Variables seeing two
or more members are permanently excluded, so the induced subgraph stays
chordless and the grown set is a tree.  Growth stops when no candidate
remains.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Protocol

import numpy as np

from .qubo import QuboInstance, _check_beta


@dataclass
class SubTree:
    """Induced sub-tree in selection order: nodes[0] is the root.

    parent_pos[p] is the position (index into nodes) of node p's parent,
    -1 for the root.  edge_w[p] is the coupling to the parent, 0.0 at the
    root.  Selection order is topological: parents precede children.
    select_subtree records the nodes' widest adjacency row in _width.
    """

    nodes: list[int]
    parent_pos: np.ndarray
    edge_w: np.ndarray
    _width: int | None = field(default=None, init=False, repr=False, compare=False)
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
    def _layout(self) -> tuple[np.ndarray, np.ndarray, list[int], np.ndarray]:
        """(order, index, bounds, up): positions by depth, root level first,
        each level in decreasing position order (the upward sweep's order of
        adding children into a parent's sum) at order[bounds[d]:bounds[d+1]];
        index inverts order, and up[j] is the index of order[j]'s parent."""
        rev = np.array(self._depth[::-1])
        order = (self.size - 1) - np.argsort(rev, kind="stable")
        index = np.argsort(order)
        up = index[self.parent_pos[order]]
        return order, index, [0, *np.cumsum(np.bincount(rev)).tolist()], up

    @property
    def tree_edges(self) -> list[tuple[int, int, float]]:
        """(parent node, child node, coupling) for each non-root position."""
        return [
            (self.nodes[int(self.parent_pos[p])], self.nodes[p], float(self.edge_w[p]))
            for p in range(1, self.size)
        ]

    def position(self, node: int) -> int:
        """Position of `node` in selection order; ValueError if absent."""
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
    one coupling into the current set.  rng is used only as rng.integers(k)."""
    n = q.n
    adjacency = q.adjacency
    integers = rng.integers
    conn = [0] * n  # couplings into the set; a member's is raised to 3
    entry_parent = [-1] * n
    entry_w = [0.0] * n
    frontier: list[int] = []
    fpos = [0] * n  # position in frontier, valid while a node is in it

    # A node leaves the frontier by moving the frontier's last entry into
    # its slot.  The chosen node leaves first, then each outside neighbor
    # joins on its first coupling into the set and leaves for good on its
    # second.  That order fixes the frontier's layout, and with it which
    # node each draw picks.
    u = int(integers(n))
    nodes = [u]
    parent_pos = [-1]
    edge_w = [0.0]
    width = 0
    while True:
        pos_u = len(nodes) - 1
        conn[u] = 3  # so members never count as 1 or 2 couplings again
        row = adjacency[u]
        if len(row) > width:
            width = len(row)
        for v, w in row:
            c = conn[v] = conn[v] + 1
            if c == 1:
                entry_parent[v] = pos_u
                entry_w[v] = w
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
        parent_pos.append(entry_parent[u])
        edge_w.append(entry_w[u])
    tree = SubTree(nodes, np.array(parent_pos), np.array(edge_w))
    tree._width = width
    return tree


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
    q.padded_adjacency(), cut to the widest row W that select_subtree
    recorded (uncut for a tree built by hand).  Over states with the tree's
    bits set to 0 they sum to build_tree_problem's fields."""
    pidx, pwgt = q.padded_adjacency()
    return pidx[tree.nodes, : tree._width], pwgt[tree.nodes, : tree._width]
