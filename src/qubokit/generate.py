"""Benchmark instance generators on Erdős–Rényi random graphs."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .qubo import ParseError, QuboInstance, _read_records


def _add_edge(n: int, i: int, j: int, seen: set[tuple[int, int]]) -> None:
    """Add the unordered edge (i, j) to seen as (min, max); ValueError on a
    self-loop, a node outside [0, n) or an edge already in seen."""
    if i == j:
        raise ValueError(f"self-loop at node {i}")
    a, b = (i, j) if i < j else (j, i)
    if not 0 <= a < n or not 0 <= b < n:
        raise ValueError(f"edge ({i},{j}) out of range [0, {n})")
    if (a, b) in seen:
        raise ValueError(f"duplicate edge ({a},{b})")
    seen.add((a, b))


@dataclass(frozen=True)
class RandomGraph:
    """Simple undirected graph: edges are unordered pairs (i, j) with i < j."""

    n: int
    edges: tuple[tuple[int, int], ...] = field(default_factory=tuple)
    # the edges' ends as two int64 arrays, edge order
    _ends: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        # operator.index: an edge's ends are integers, so the int64 ends
        # below hold them exactly
        seen: set[tuple[int, int]] = set()
        for i, j in self.edges:
            _add_edge(self.n, operator.index(i), operator.index(j), seen)
        lo, hi = np.array(sorted(seen), dtype=np.int64).reshape(len(seen), 2).T.copy()
        self._set_edges(lo, hi)

    def _set_edges(self, lo: np.ndarray, hi: np.ndarray) -> None:
        object.__setattr__(self, "edges", tuple(zip(lo.tolist(), hi.tolist())))
        object.__setattr__(self, "_ends", (lo, hi))

    @classmethod
    def _sorted(cls, n: int, lo: np.ndarray, hi: np.ndarray) -> "RandomGraph":
        """The graph on these edges, unchecked: lo < hi, sorted, no repeats."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        g._set_edges(lo, hi)
        return g

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def degrees(self) -> np.ndarray:
        lo, hi = self._ends
        return np.bincount(np.concatenate((lo, hi)), minlength=self.n)


# Uniforms drawn per call by gen_er_graph: bounds its temporary arrays.
_DRAW_BLOCK = 1 << 18


def gen_er_graph(n: int, p: float, seed: int) -> RandomGraph:
    """G(n, p): each of the n(n-1)/2 pairs kept independently with probability p.

    The pairs take one uniform each from the seed's stream, row by row
    ((0, 1), (0, 2), ..., (1, 2), ...); they are drawn in blocks of at most
    _DRAW_BLOCK, which take the same values from the stream as one call.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must be in [0, 1], got {p}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    total = n * (n - 1) // 2
    hits = [lo + np.flatnonzero(rng.random(min(_DRAW_BLOCK, total - lo)) < p)
            for lo in range(0, total, _DRAW_BLOCK)]
    k = np.concatenate(hits) if hits else np.zeros(0, dtype=np.int64)
    # row i's pairs (i, i+1), ..., (i, n-1) start at flat index start[i]
    rows = np.arange(n, dtype=np.int64)
    start = rows * (n - 1) - rows * (rows - 1) // 2
    i = np.searchsorted(start, k, side="right") - 1
    return RandomGraph._sorted(n, i, k - start[i] + i + 1)


def maxcut_to_qubo(g: RandomGraph) -> QuboInstance:
    """Max-Cut as QUBO: E(x) = -cut(x), so the minimum energy is -maxcut.

    cut(x) = sum_{(i,j) in E} (x_i + x_j - 2 x_i x_j) gives h[i] = -deg(i)
    and w[i,j] = 2 on every edge.
    """
    lo, hi = g._ends
    return QuboInstance._from_pairs(
        g.n, -g.degrees().astype(np.float64), lo, hi, np.full(lo.size, 2.0))


def mis_to_qubo(g: RandomGraph, penalty: float = 2.0) -> QuboInstance:
    """Maximum independent set as QUBO: h[i] = -1, w[i,j] = penalty on edges.

    Any finite penalty > 1 makes dropping an endpoint of a violated edge
    strictly improving, so every minimizer is a maximum independent set and
    the minimum energy is -alpha(g).
    """
    if not (math.isfinite(penalty) and penalty > 1.0):
        raise ValueError(f"penalty must be finite and > 1 for a sound encoding, got {penalty}")
    lo, hi = g._ends
    return QuboInstance._from_pairs(
        g.n, -np.ones(g.n), lo, hi, np.full(lo.size, float(penalty)))


def random_sparse_qubo(g: RandomGraph, seed: int) -> QuboInstance:
    """Uniform random fields and couplings in [-1, 1] on the graph's edges.

    Exact-zero coupling draws are redrawn so the sparsity pattern equals the
    edge set.  Couplings are drawn first (edge order), then the n fields.
    """
    rng = np.random.default_rng(seed)
    lo, hi = g._ends
    # The couplings are the stream's first nonzero draws, one per edge.
    w = rng.uniform(-1.0, 1.0, lo.size)
    w = w[w != 0.0]
    while w.size < lo.size:
        more = rng.uniform(-1.0, 1.0, lo.size - w.size)
        w = np.concatenate((w, more[more != 0.0]))
    h = rng.uniform(-1.0, 1.0, g.n)
    return QuboInstance._from_pairs(g.n, h, lo, hi, w)


# ----------------------------------------------------------------------
# Edge-list fixture format:  header "graph <n> <m>", then m lines "i j".
# ----------------------------------------------------------------------


def save_graph(g: RandomGraph) -> str:
    lines = [f"graph {g.n} {g.num_edges}"]
    lines.extend(f"{i} {j}" for i, j in g.edges)
    return "\n".join(lines) + "\n"


def load_graph(text: str) -> RandomGraph:
    """Parse the edge-list format; raises ParseError with line numbers."""
    n, _, _, walk = _read_records(text, "graph <n> <m>", "i j")
    seen: set[tuple[int, int]] = set()
    for lineno, fields in walk():
        try:
            i, j = int(fields[0]), int(fields[1])
        except ValueError:
            raise ParseError(lineno, f"malformed edge {' '.join(fields)!r}") from None
        try:
            _add_edge(n, i, j, seen)
        except ValueError as exc:
            raise ParseError(lineno, str(exc)) from None
    return RandomGraph(n, tuple(seen))
