"""Exact belief propagation on a TreeProblem.

Messages live in the log-ratio parameterization z_{k->i} =
log(m_{k->i}(1) / m_{k->i}(0)).  On a tree the BP fixed point is unique and
reached by two deterministic sweeps, leaves to root and back.  For the
directed edge k->i with coupling w and inverse temperature beta,

    S_{k->i} = -beta*b_k + sum of z_{l->k} over tree neighbors l != i
    z_{k->i} = softplus(S_{k->i} - beta*w) - softplus(S_{k->i})

where softplus(t) = log(1 + e^t) evaluated overflow-free.  The node belief
is p1_i = sigmoid(-beta*b_i + sum of incoming z), and the parent-conditioned
law used for sampling is P(x_i=1 | x_parent=b) = sigmoid(A - beta*w*b) with
A the belief field excluding the parent's message.  |z| <= beta*|w| always,
so messages stay finite at any beta.

A probability-domain implementation with an explicit convergence loop,
`bp_pass_reference`, serves as an independent oracle for the log-domain
engine on moderate betas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .subtree import SubTree, TreeProblem


class NumericError(ArithmeticError):
    """Non-finite value in BP inputs or messages."""


class ConvergenceError(RuntimeError):
    """Iterative reference BP failed to reach its fixed point."""


@dataclass
class MessageSet:
    """Log-ratio messages keyed by directed node pair (from_node, to_node)."""

    z: dict[tuple[int, int], float]
    beta: float


@dataclass
class NodeBelief:
    p1: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p1 <= 1.0:
            raise ValueError(f"p1 must be in [0, 1], got {self.p1}")


def softplus(t):
    """log(1 + e^t), overflow-free for scalars and arrays."""
    return np.logaddexp(0.0, t)


def sigmoid(t):
    """1 / (1 + e^-t), overflow-free for scalars and arrays."""
    t = np.asarray(t, dtype=np.float64)
    e = np.exp(-np.abs(t))
    return np.where(t >= 0.0, 1.0, e) / (1.0 + e)


# ----------------------------------------------------------------------
# Scalar log-domain engine: the upward sweep, bp_pass, the root-first draw.
# ----------------------------------------------------------------------


def _upward_scalar(tree: SubTree, eff: list[float], beta: float):
    """Leaves-to-root sweep on python floats, the scalar twin of
    ensemble_upward: lists (s_up, z_up) by position, from eff by position.

    s_up[p] = S_{p->parent} (for the root, its full belief field), z_up[p] =
    z_{p->parent}.  Children are added into their parent's sum in decreasing
    position order, as in the ensemble kernels, so the two agree bit for bit.
    Raises NumericError on a non-finite in-tree coupling or upward field S.
    """
    m = tree.size
    parent = tree.parent_pos.tolist()
    edge_w = tree.edge_w.tolist()
    if not all(map(math.isfinite, edge_w)):
        raise NumericError("non-finite in-tree coupling")
    la = np.logaddexp
    s_up, z_up, chsum = [0.0] * m, [0.0] * m, [0.0] * m
    for p in range(m - 1, -1, -1):
        s = -beta * eff[p] + chsum[p]
        if not math.isfinite(s):
            raise NumericError(f"non-finite upward field at tree position {p}")
        s_up[p] = s
        if p > 0:
            bw = beta * edge_w[p]
            z = float(la(0.0, s - bw)) - float(la(0.0, s))
            z_up[p] = z
            chsum[parent[p]] += z
    return s_up, z_up


def bp_pass(tp: TreeProblem) -> MessageSet:
    """Exact fixed-point messages via one leaves-to-root-to-leaves sweep."""
    tree, beta = tp.tree, tp.beta
    s_up, z_up = _upward_scalar(tree, tp.eff_field.tolist(), beta)
    nodes, parent, edge_w = tree.nodes, tree.parent_pos.tolist(), tree.edge_w.tolist()
    # belief[p] = -beta*b_p + sum of all incoming z at p
    belief = [s_up[0]] * tree.size
    z: dict[tuple[int, int], float] = {}
    for p in range(1, tree.size):
        s = belief[parent[p]] - z_up[p]
        bw = beta * edge_w[p]
        z_dn = float(softplus(s - bw)) - float(softplus(s))
        belief[p] = s_up[p] + z_dn
        child, par = nodes[p], nodes[parent[p]]
        z[(child, par)] = z_up[p]
        z[(par, child)] = z_dn
    if not all(math.isfinite(v) for v in z.values()):
        raise NumericError("non-finite message produced")
    return MessageSet(z, beta)


def bp_pass_reference(tp: TreeProblem) -> MessageSet:
    """Probability-domain BP iterated to convergence; oracle for bp_pass.

    Messages are pairs (m(0), m(1)) normalized to sum 1, updated in a fixed
    directed-edge order from uniform initialization until the largest
    componentwise change falls below 1e-12.
    """
    tree = tp.tree
    beta = tp.beta
    m = tree.size
    if m == 1:
        return MessageSet({}, beta)
    edges = []
    for p in range(1, m):
        pp = int(tree.parent_pos[p])
        edges.append((p, pp, float(tree.edge_w[p])))
        edges.append((pp, p, float(tree.edge_w[p])))
    neighbors: list[list[int]] = [list(ch) for ch in tree.children]
    for p in range(1, m):
        neighbors[p].append(int(tree.parent_pos[p]))
    msgs = {(k, i): np.array([0.5, 0.5]) for k, i, _ in edges}
    for _ in range(10 * m):
        delta = 0.0
        for k, i, w in edges:
            prod0 = prod1 = 1.0
            for l in neighbors[k]:
                if l == i:
                    continue
                prod0 *= msgs[(l, k)][0]
                prod1 *= msgs[(l, k)][1]
            t1 = np.exp(-beta * tp.eff_field[k]) * prod1
            m0 = prod0 + t1
            m1 = prod0 + np.exp(-beta * w) * t1
            new = np.array([m0, m1]) / (m0 + m1)
            delta = max(delta, float(np.abs(new - msgs[(k, i)]).max()))
            msgs[(k, i)] = new
        if delta < 1e-12:
            break
    else:
        raise ConvergenceError(f"reference BP did not converge in {10 * m} sweeps")
    z = {
        (tree.nodes[k], tree.nodes[i]): float(np.log(v[1] / v[0]))
        for (k, i), v in msgs.items()
    }
    return MessageSet(z, beta)


def marginal(tp: TreeProblem, ms: MessageSet, i: int) -> NodeBelief:
    """Exact Boltzmann marginal P(x_i = 1) of the conditioned sub-problem."""
    tree = tp.tree
    p = tree.position(i)
    field = -tp.beta * tp.eff_field[p]
    for c in tree.children[p]:
        field += ms.z[(tree.nodes[c], i)]
    if p > 0:
        field += ms.z[(tree.nodes[int(tree.parent_pos[p])], i)]
    return NodeBelief(float(sigmoid(field)))


def _sigmoid_scalar(t: float) -> float:
    e = float(np.exp(-abs(t)))
    return 1.0 / (1.0 + e) if t >= 0.0 else e / (1.0 + e)


def _excl_parent_fields(tp: TreeProblem, ms: MessageSet) -> list[float]:
    """Per position p: -beta*b_p plus incoming z from children only.

    Children are added in decreasing position order, mirroring
    _upward_scalar, so on bp_pass's messages this equals its s_up exactly.
    """
    tree = tp.tree
    parent = tree.parent_pos.tolist()
    chsum = [0.0] * tree.size
    for p in range(tree.size - 1, 0, -1):
        chsum[parent[p]] += ms.z[(tree.nodes[p], tree.nodes[parent[p]])]
    beta = tp.beta
    return [-beta * float(b) + c for b, c in zip(tp.eff_field, chsum)]


def _sample_scalar(tree: SubTree, a: list[float], beta: float, u: list[float]) -> list[int]:
    """Root-first draw of the bits by position from upward fields a and
    uniforms u, the scalar twin of ensemble_sample."""
    parent, edge_w = tree.parent_pos.tolist(), tree.edge_w.tolist()
    bits = [0] * tree.size
    bits[0] = int(u[0] < _sigmoid_scalar(a[0]))
    for p in range(1, tree.size):
        t = a[p] - beta * edge_w[p] * bits[parent[p]]
        bits[p] = int(u[p] < _sigmoid_scalar(t))
    return bits


def sample_tree(
    tp: TreeProblem, ms: MessageSet, rng: np.random.Generator
) -> dict[int, int]:
    """Draw the tree's bits from the exact conditioned Boltzmann law.

    Root from its marginal, then children in selection order given the
    parent's drawn value.  Consumes exactly M uniforms from rng.
    """
    a = _excl_parent_fields(tp, ms)
    u = rng.random(tp.tree.size).tolist()
    return dict(zip(tp.tree.nodes, _sample_scalar(tp.tree, a, tp.beta, u)))


def map_assign_tree(tp: TreeProblem, ms: MessageSet) -> dict[int, int]:
    """Greedy read-out: argmax at every step of sample_tree's order, ties
    broken toward 0."""
    tree = tp.tree
    a = _excl_parent_fields(tp, ms)
    parent = tree.parent_pos.tolist()
    edge_w = tree.edge_w.tolist()
    bits = [0] * tree.size
    bits[0] = int(a[0] > 0.0)
    for p in range(1, tree.size):
        t = a[p] - tp.beta * edge_w[p] * bits[parent[p]]
        bits[p] = int(t > 0.0)
    return dict(zip(tree.nodes, bits))


# ----------------------------------------------------------------------
# Replica-ensemble kernels: the same recurrences on (R, M) arrays, one
# vectorized step per tree level (SubTree.levels), so the Python loop runs
# over the tree's depth rather than its size.  Inside, arrays are
# position-major, (M, R), so a level's rows are gathered whole; at the
# interface they are (R, M), and a transposed view costs nothing.
# ----------------------------------------------------------------------


def ensemble_upward(tree: SubTree, eff: np.ndarray, beta: float) -> np.ndarray:
    """S_{p->parent} for every replica; eff is (R, M), result (R, M).

    Levels are swept deepest first.  np.add.at adds a level's messages into
    their parents' sums one at a time in the level's decreasing position
    order, the order of _upward_scalar, so each row equals its s_up exactly.
    Raises NumericError if any upward field S is not finite.
    """
    parent = tree.parent_pos
    bw = (beta * tree.edge_w)[:, None]
    r = eff.shape[0]
    s_up = np.multiply(eff.T, -beta, order="C")
    chsum = np.zeros_like(s_up)
    flat = chsum.reshape(-1)  # entry p * r + k: position p, replica k
    replica = np.arange(r)
    for lev in reversed(tree.levels[1:]):
        s = s_up[lev]
        s += chsum[lev]
        s_up[lev] = s
        z = softplus(s - bw[lev])
        z -= softplus(s)
        np.add.at(flat, (parent[lev, None] * r + replica).ravel(), z.ravel())
    s_up[0] += chsum[0]
    if not np.isfinite(s_up).all():
        raise NumericError("non-finite upward field")
    return s_up.T


def ensemble_sample(
    tree: SubTree, s_up: np.ndarray, beta: float, u: np.ndarray
) -> np.ndarray:
    """Sample all replicas' tree bits from uniforms u of shape (R, M),
    root first, one level at a time, each child given its parent's bit."""
    parent = tree.parent_pos
    bw = (beta * tree.edge_w)[:, None]
    s_up, u = s_up.T, u.T
    bits = np.zeros(u.shape, dtype=np.uint8)
    bits[0] = u[0] < sigmoid(s_up[0])
    for lev in tree.levels[1:]:
        t = s_up[lev] - bw[lev] * bits[parent[lev]]
        bits[lev] = u[lev] < sigmoid(t)
    return bits.T
