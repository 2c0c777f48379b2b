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


def sigmoid(t: float) -> float:
    """1 / (1 + e^-t) of a float as (1 if t >= 0 else e) / (1 + e), e =
    exp(-|t|): no overflow."""
    e = float(np.exp(-abs(t)))
    return (1.0 if t >= 0.0 else e) / (1.0 + e)


def logit(u):
    """log(u) - log(1 - u) on numpy's log, -inf at 0: sigmoid's inverse.  As
    in softplus, a float gives the bits of a 1-element array."""
    if isinstance(u, float):
        return float(np.log(u)) - float(np.log(1.0 - u)) if u else -math.inf
    with np.errstate(divide="ignore"):
        return np.log(u) - np.log(1.0 - u)


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
    uniforms u, the scalar twin of ensemble_sample: bit p is logit(u[p]) < t,
    in exact arithmetic the event u[p] < sigmoid(t)."""
    parent, edge_w = tree.parent_pos.tolist(), tree.edge_w.tolist()
    bits = [0] * tree.size
    bits[0] = int(logit(u[0]) < a[0])
    for p in range(1, tree.size):
        # a 0-parent leaves the field alone: beta*w may be inf, and inf*0 NaN
        t = a[p] - beta * edge_w[p] if bits[parent[p]] else a[p]
        bits[p] = int(logit(u[p]) < t)
    return bits


def sample_tree(
    tp: TreeProblem, ms: MessageSet, rng: np.random.Generator
) -> dict[int, int]:
    """Draw the tree's bits from the exact conditioned Boltzmann law.

    Root from its marginal, then the other positions in increasing order,
    each given its parent's drawn value.  Consumes exactly M uniforms from rng.
    """
    a = _excl_parent_fields(tp, ms)
    u = rng.random(tp.tree.size).tolist()
    return dict(zip(tp.tree.nodes, _sample_scalar(tp.tree, a, tp.beta, u)))


def map_assign_tree(tp: TreeProblem, ms: MessageSet) -> dict[int, int]:
    """Greedy read-out: argmax at every step of sample_tree's order, ties
    broken toward 0.  That is sample_tree's draw with every u = 0.5: as
    logit(0.5) = 0.0, each bit is t > 0, and a tie or NaN gives 0."""
    tree = tp.tree
    a = _excl_parent_fields(tp, ms)
    return dict(zip(tree.nodes, _sample_scalar(tree, a, tp.beta, [0.5] * tree.size)))


# ----------------------------------------------------------------------
# Replica-ensemble kernels: the scalar recurrences, softplus included, one
# vectorized step per tree level across all replicas, so the Python loop
# runs over the tree's depth rather than its size.  The tree must be in
# level order, so a level is a slice of rows of the position-major (M, R)
# arrays; u alone is (R, M), one row per replica's generator.
# ----------------------------------------------------------------------

_BLOCK_ENTRIES = 1 << 14  # per block: (row, replica) draws, _frozen_fields' products


def _sum_rows(a: np.ndarray) -> np.ndarray:
    """a[0] + a[1] + ... in order: np.add.reduce, or accumulate (in a) where a
    row is one element, since numpy then sums the contiguous axis pairwise."""
    return np.add.reduce(a, 0) if a.size > len(a) else np.add.accumulate(a, 0, out=a)[-1]


def _frozen_fields(
    hbase: np.ndarray, deg: np.ndarray, idx: np.ndarray, wmat: np.ndarray,
    xt: np.ndarray,
) -> np.ndarray:
    """(M, R) fields h + sum of w * x over the padded rows (idx, wmat), whose
    degrees are deg, and the position-major states xt: IBP's frozen fields
    from frozen_neighbor_arrays with the tree bits set to 0, SA's local
    fields from the rows of one QuboInstance.colour_classes() class.  Each
    row adds its terms column by column in adjacency order, the products
    made in blocks of at most _BLOCK_ENTRIES; one block is stacked under h
    and summed at once.  Past one block the rows go by decreasing degree,
    stably, so block [c, c + cols) reads only the rows of degree > c; the
    fields are put back in row order once, at the end.  The bits are
    gathered by np.take, which at R = 1 takes about half the time of
    xt[idx]."""
    (m, width), r = idx.shape, xt.shape[1]
    cols = max(1, _BLOCK_ENTRIES // (m * r))
    if cols >= width:
        terms = np.empty((width + 1, m, r))
        terms[0] = hbase
        np.multiply(wmat.T[:, :, None], np.take(xt, idx.T, axis=0), out=terms[1:])
        return _sum_rows(terms)
    perm = np.argsort(-deg, kind="stable")
    rows = (m - np.cumsum(np.bincount(deg, minlength=width))).tolist()
    eff = np.repeat(hbase[perm], r, axis=1)
    idx, wmat = idx[perm], wmat[perm]
    for c in range(0, width, cols):
        k = rows[c]
        head = eff[:k]
        bits = np.take(xt, idx.T[c : c + cols, :k], axis=0)
        for term in wmat.T[c : c + cols, :k, None] * bits:
            head += term
        del term, bits  # frees the block before the next one is made
    eff[perm] = eff.copy()
    return eff


def ensemble_upward(tree: SubTree, eff: np.ndarray, beta: float) -> np.ndarray:
    """S_{p->parent} for every replica, (M, R) by tree position like eff.

    Levels are swept deepest first, the softplus of a level's S - beta*w and
    S in one call on a (2, k, R) block.  np.bincount adds the level's
    messages, rows in reverse, into their parents' sums from 0.0 one at a
    time: in decreasing position order, as _upward_scalar adds them, so each
    column equals its s_up exactly.  NumericError if an S is not finite.
    """
    bounds, (m, r) = tree._bounds, eff.shape
    # A child's entry in its parent level's sums, parent row * r + replica,
    # rows reversed: level [lo, hi) is into[(m - hi) * r : (m - lo) * r].
    rel = tree.parent_pos - np.repeat([0, *bounds[:-2]], np.diff(bounds))
    into = (rel[::-1, None] * r + np.arange(r)).reshape(-1)
    # The finiteness check below reports overflow; numpy need not warn too.
    with np.errstate(over="ignore", invalid="ignore"):
        s_up = eff * -beta
        # S - bw is a level's (2, k, R) block of S - beta*w and S - 0 = S.
        bw = np.stack([beta * tree.edge_w, np.zeros(m)])[:, :, None]
        chsum = 0.0  # the deepest level adds +0.0, as the scalar sweep does
        for d in range(len(bounds) - 2, 0, -1):
            plo, lo, hi = bounds[d - 1 : d + 2]
            s_up[lo:hi] += chsum
            rev = slice(hi - 1, lo - 1, -1)
            z = softplus(s_up[rev] - bw[:, rev])
            z = np.subtract(z[0], z[1], out=z[0]).reshape(-1)
            chsum = np.bincount(into[(m - hi) * r : (m - lo) * r], z, (lo - plo) * r)
            chsum = chsum.reshape(-1, r)
        s_up[:1] += chsum
    if not np.isfinite(s_up).all():
        raise NumericError("non-finite upward field")
    return s_up


def ensemble_sample(
    tree: SubTree, s_up: np.ndarray, beta: float, u: np.ndarray
) -> np.ndarray:
    """All replicas' tree bits by _sample_scalar's rule, as (M, R) uint8,
    from ensemble_upward's s_up and uniforms u of shape (R, M), all by tree
    position.  Per block of at most _BLOCK_ENTRIES (row, replica) entries:
    c0 = logit(u) < a, the bit under a 0-parent or at the root, and
    c1 = logit(u) < a - beta*w under a 1-parent (+-inf where beta*w
    overflows).  Then per level, root first, three bool operations:
    c0 ^ (parent & (c0 ^ c1)).  The inputs are not written."""
    bounds, parent = tree._bounds, tree.parent_pos
    r, m = u.shape
    c0, flip = np.empty((2, m, r), dtype=np.bool_)  # flip = c0 ^ c1
    with np.errstate(over="ignore"):
        bw = (beta * tree.edge_w)[:, None]
        for lo in range(0, m, rows := max(1, _BLOCK_ENTRIES // r)):
            blk = slice(lo, lo + rows)
            lu, a = logit(u.T[blk]), s_up[blk]
            np.less(lu, a, out=c0[blk])
            np.less(lu, a - bw[blk], out=flip[blk])
            flip[blk] ^= c0[blk]
    for lo, hi in zip(bounds[1:-1], bounds[2:]):
        t = c0[parent[lo:hi]]
        t &= flip[lo:hi]
        c0[lo:hi] ^= t
    return c0.view(np.uint8)
