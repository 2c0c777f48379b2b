"""Benchmark instance generators on Erdős–Rényi random graphs."""

from __future__ import annotations

import math
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

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        seen: set[tuple[int, int]] = set()
        for i, j in self.edges:
            _add_edge(self.n, i, j, seen)
        object.__setattr__(self, "edges", tuple(sorted(seen)))

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def degrees(self) -> np.ndarray:
        deg = np.zeros(self.n, dtype=np.int64)
        for i, j in self.edges:
            deg[i] += 1
            deg[j] += 1
        return deg


def gen_er_graph(n: int, p: float, seed: int) -> RandomGraph:
    """G(n, p): each of the n(n-1)/2 pairs kept independently with probability p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must be in [0, 1], got {p}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    edges = []
    for i in range(n - 1):
        hits = np.nonzero(rng.random(n - 1 - i) < p)[0]
        edges.extend((i, i + 1 + int(j)) for j in hits)
    return RandomGraph(n, tuple(edges))


def maxcut_to_qubo(g: RandomGraph) -> QuboInstance:
    """Max-Cut as QUBO: E(x) = -cut(x), so the minimum energy is -maxcut.

    cut(x) = sum_{(i,j) in E} (x_i + x_j - 2 x_i x_j) gives h[i] = -deg(i)
    and w[i,j] = 2 on every edge.
    """
    deg = g.degrees()
    return QuboInstance(
        g.n,
        h=-deg.astype(np.float64),
        couplings={e: 2.0 for e in g.edges},
    )


def mis_to_qubo(g: RandomGraph, penalty: float = 2.0) -> QuboInstance:
    """Maximum independent set as QUBO: h[i] = -1, w[i,j] = penalty on edges.

    Any finite penalty > 1 makes dropping an endpoint of a violated edge
    strictly improving, so every minimizer is a maximum independent set and
    the minimum energy is -alpha(g).
    """
    if not (math.isfinite(penalty) and penalty > 1.0):
        raise ValueError(f"penalty must be finite and > 1 for a sound encoding, got {penalty}")
    return QuboInstance(
        g.n,
        h=-np.ones(g.n),
        couplings={e: float(penalty) for e in g.edges},
    )


def random_sparse_qubo(g: RandomGraph, seed: int) -> QuboInstance:
    """Uniform random fields and couplings in [-1, 1] on the graph's edges.

    Exact-zero coupling draws are redrawn so the sparsity pattern equals the
    edge set.  Couplings are drawn first (edge order), then the n fields.
    """
    rng = np.random.default_rng(seed)
    couplings = {}
    for e in g.edges:
        w = rng.uniform(-1.0, 1.0)
        while w == 0.0:
            w = rng.uniform(-1.0, 1.0)
        couplings[e] = w
    h = rng.uniform(-1.0, 1.0, g.n)
    return QuboInstance(g.n, h=h, couplings=couplings)


# ----------------------------------------------------------------------
# Edge-list fixture format:  header "graph <n> <m>", then m lines "i j".
# ----------------------------------------------------------------------


def save_graph(g: RandomGraph) -> str:
    lines = [f"graph {g.n} {g.num_edges}"]
    lines.extend(f"{i} {j}" for i, j in g.edges)
    return "\n".join(lines) + "\n"


def load_graph(text: str) -> RandomGraph:
    """Parse the edge-list format; raises ParseError with line numbers."""
    n, records = _read_records(text, "graph <n> <m>", "i j")
    seen: set[tuple[int, int]] = set()
    for lineno, fields in records:
        try:
            i, j = int(fields[0]), int(fields[1])
        except ValueError:
            raise ParseError(lineno, f"malformed edge {' '.join(fields)!r}") from None
        try:
            _add_edge(n, i, j, seen)
        except ValueError as exc:
            raise ParseError(lineno, str(exc)) from None
    return RandomGraph(n, tuple(seen))
