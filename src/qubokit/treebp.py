"""Exact belief propagation on a TreeProblem.

Messages live in the log-ratio parameterization z_{k->i} =
log(m_{k->i}(1) / m_{k->i}(0)).  On a tree the BP fixed point is unique and
reached by two deterministic sweeps, leaves to root and back.  For the
directed edge k->i with coupling w and inverse temperature beta,

    S_{k->i} = -beta*b_k + sum of z_{l->k} over tree neighbors l != i
    z_{k->i} = softplus(S_{k->i} - beta*w) - softplus(S_{k->i})

where softplus(t) = log(1 + e^t) = max(t, 0) + log1p(exp(-|t|)).  The node
belief is p1_i = sigmoid(-beta*b_i + sum of incoming z), and the
parent-conditioned law used for sampling is P(x_i=1 | x_parent=b) =
sigmoid(A - beta*w*b) with A the belief field excluding the parent's message.
|z| <= beta*|w| always, so messages stay finite at any beta.

A probability-domain implementation with an explicit convergence loop,
`bp_pass_reference`, serves as an independent oracle for the log-domain
engine on moderate betas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .subtree import SubTree, TreeProblem


_FLOAT_MAX = np.finfo(np.float64).max


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
    """log(1 + e^t) = max(t, 0) + log1p(exp(-|t|)), np.logaddexp(0, t)'s own
    split on numpy's SIMD exp and log1p: several times faster than logaddexp's
    scalar libm loop, and within 4 ulp of it.  A float takes python's exact
    max and abs, and gives the bits of a 1-element array."""
    if isinstance(t, float):
        return max(t, 0.0) + float(np.log1p(np.exp(-abs(t))))
    return np.maximum(t, 0.0) + np.log1p(np.exp(np.copysign(t, -1.0)))  # -|t|


def sigmoid(t):
    """1 / (1 + e^-t) as (1 if t >= 0 else e) / (1 + e), e = exp(-|t|): no
    overflow.  As in softplus, a float takes python's abs and comparison and
    gives the bits of a 1-element array; other input must be a float array."""
    if isinstance(t, float):
        e = float(np.exp(-abs(t)))
        return (1.0 if t >= 0.0 else e) / (1.0 + e)
    e = np.exp(np.copysign(t, -1.0))  # -|t|
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
    s_up, z_up, chsum = [0.0] * m, [0.0] * m, [0.0] * m
    for p in range(m - 1, -1, -1):
        s = -beta * eff[p] + chsum[p]
        if not math.isfinite(s):
            raise NumericError(f"non-finite upward field at tree position {p}")
        s_up[p] = s
        if p > 0:
            bw = beta * edge_w[p]
            z = softplus(s - bw) - softplus(s)
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
        z_dn = softplus(s - bw) - softplus(s)
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
    return NodeBelief(sigmoid(field))


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
    bits[0] = int(u[0] < sigmoid(a[0]))
    for p in range(1, tree.size):
        # a 0-parent leaves the field alone: beta*w may be inf, and inf*0 NaN
        t = a[p] - beta * edge_w[p] if bits[parent[p]] else a[p]
        bits[p] = int(u[p] < sigmoid(t))
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
        t = a[p] - tp.beta * edge_w[p] if bits[parent[p]] else a[p]
        bits[p] = int(t > 0.0)
    return dict(zip(tree.nodes, bits))


# ----------------------------------------------------------------------
# Replica-ensemble kernels: the scalar recurrences, softplus included, on
# (R, M) arrays, one vectorized step per tree level, so the Python loop runs
# over the tree's depth rather than its size.  Each kernel gathers its
# inputs once into SubTree._layout's order, position-major (M, R), so a
# level is a slice of rows, and scatters its result back once; at the
# interface arrays are (R, M) in position order (a transposed view, free).
# ----------------------------------------------------------------------


def ensemble_upward(tree: SubTree, eff: np.ndarray, beta: float) -> np.ndarray:
    """S_{p->parent} for every replica; eff is (R, M), result (R, M).

    Levels are swept deepest first, the softplus of a level's S - beta*w and
    S in one call on a (2, k, R) block.  np.bincount adds the level's
    messages into their parents' sums from 0.0, one at a time in the level's
    decreasing position order, as _upward_scalar does, so each row equals its
    s_up exactly.  Raises NumericError if any upward field S is not finite.
    """
    order, index, bounds, up = tree._layout
    r = eff.shape[0]
    # A child's entry in its parent level's sums: parent row * r + replica.
    rel = up - np.repeat([0, *bounds[:-2]], np.diff(bounds))
    into = (rel[:, None] * r + np.arange(r)).reshape(-1)
    # The finiteness check below reports overflow; numpy need not warn too.
    with np.errstate(over="ignore", invalid="ignore"):
        s_up = eff.T[order]
        s_up *= -beta
        # S - bw is a level's (2, k, R) block of S - beta*w and S - 0 = S.
        bw = np.zeros((2, tree.size, 1))
        bw[0, :, 0] = beta * tree.edge_w[order]
        chsum = 0.0  # the deepest level adds +0.0, as the scalar sweep does
        for d in range(len(bounds) - 2, 0, -1):
            plo, lo, hi = bounds[d - 1 : d + 2]
            s_up[lo:hi] += chsum
            z = softplus(s_up[lo:hi] - bw[:, lo:hi])
            z = np.subtract(z[0], z[1], out=z[0]).reshape(-1)
            chsum = np.bincount(into[lo * r : hi * r], z, (lo - plo) * r).reshape(-1, r)
        s_up[:1] += chsum
    if not np.isfinite(s_up).all():
        raise NumericError("non-finite upward field")
    return s_up[index].T


def ensemble_sample(
    tree: SubTree, s_up: np.ndarray, beta: float, u: np.ndarray
) -> np.ndarray:
    """Sample all replicas' tree bits from uniforms u of shape (R, M),
    root first, one level at a time, each child given its parent's bit.

    beta*w is clamped to the float range, so a 0-parent subtracts 0, never
    inf*0 = NaN.  The clamp leaves a finite beta*w as it is, and changes a
    draw only where a child's field is exactly the largest float."""
    order, index, bounds, up = tree._layout
    with np.errstate(over="ignore"):
        bw = beta * tree.edge_w[order]
    # np.clip's python wrapper costs more than the two ufuncs
    bw = np.maximum(np.minimum(bw, _FLOAT_MAX), -_FLOAT_MAX)[:, None]
    a, u = s_up.T[order], u.T[order]
    bits = np.empty(u.shape, dtype=np.uint8)
    bits[0] = u[0] < sigmoid(a[0])
    for lo, hi in zip(bounds[1:-1], bounds[2:]):
        t = a[lo:hi] - bw[lo:hi] * bits[up[lo:hi]]
        bits[lo:hi] = u[lo:hi] < sigmoid(t)
    return bits[index].T
