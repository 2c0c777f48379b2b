"""Sparse QUBO instance representation, energy evaluation, and file I/O."""

from __future__ import annotations

import math
from typing import Iterator, Mapping

import numpy as np


class ParseError(ValueError):
    """Malformed instance or graph file; carries the 1-based line number."""

    def __init__(self, line: int, message: str) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


def _check_beta(beta: float, *, zero_ok: bool = False) -> None:
    """The one rule for an inverse temperature: finite and > 0 (>= 0 with
    zero_ok, for the exact oracle).  ValueError otherwise, NaN included."""
    if not (math.isfinite(beta) and (beta >= 0.0 if zero_ok else beta > 0.0)):
        raise ValueError(f"beta must be finite and {'>=' if zero_ok else '>'} 0, got {beta}")


class QuboInstance:
    """Sparse quadratic unconstrained binary optimisation problem.

    Minimize  E(x) = sum_i h[i] x_i  +  sum_{i<j} w[i,j] x_i x_j
    over x in {0,1}^n.  Each unordered pair {i,j} carries a single total
    coupling w[i,j]; a symmetric matrix Q maps onto this form via
    h[i] = Q[i,i] and w[i,j] = Q[i,j] + Q[j,i] (see :meth:`from_matrix`).

    Couplings with value exactly 0 are never stored.  Instances are
    immutable after construction and safe to share across threads.
    """

    def __init__(
        self,
        n: int,
        h: Mapping[int, float] | np.ndarray | list[float] | None = None,
        couplings: Mapping[tuple[int, int], float] | None = None,
    ) -> None:
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        self.n = int(n)

        self.h = np.zeros(self.n, dtype=np.float64)
        if isinstance(h, Mapping):
            for i, v in h.items():
                self._check_index(int(i))
                self.h[int(i)] = float(v)
        elif h is not None:
            arr = np.asarray(h, dtype=np.float64)
            if arr.shape != (self.n,):
                raise ValueError(f"h has shape {arr.shape}, expected ({self.n},)")
            self.h[:] = arr

        # Canonicalise couplings: unordered keys merged by summation (so both
        # Q[i,j] and Q[j,i] may be supplied), sorted by (i, j), zeros dropped.
        merged: dict[tuple[int, int], float] = {}
        for (i, j), v in (couplings or {}).items():
            i, j = int(i), int(j)
            self._check_index(i)
            self._check_index(j)
            if i == j:
                raise ValueError(f"self-coupling ({i},{j}); diagonal terms belong in h")
            key = (i, j) if i < j else (j, i)
            merged[key] = merged.get(key, 0.0) + float(v)

        pairs = sorted((i, j, v) for (i, j), v in merged.items() if v != 0.0)
        self.pair_i = np.array([p[0] for p in pairs], dtype=np.int64)
        self.pair_j = np.array([p[1] for p in pairs], dtype=np.int64)
        self.pair_w = np.array([p[2] for p in pairs], dtype=np.float64)

        # Adjacency rows, each in ascending neighbor order (pairs are
        # sorted), decided here once: python lists of (neighbor, w) for the
        # scalar code paths, copied row for row into the padded arrays of
        # padded_adjacency for the vectorized ones.  _degrees holds each
        # row's length, the one record of it.
        adj: list[list[tuple[int, float]]] = [[] for _ in range(self.n)]
        for i, j, v in pairs:
            adj[i].append((j, v))
            adj[j].append((i, v))
        self.adjacency = adj
        self._degrees = np.fromiter(map(len, adj), np.int64, self.n)

        self._padded_adj: tuple[np.ndarray, np.ndarray] | None = None
        self._colour_classes: list[np.ndarray] | None = None

    def _check_index(self, i: int) -> None:
        if not 0 <= i < self.n:
            raise ValueError(f"variable index {i} out of range [0, {self.n})")

    @classmethod
    def from_matrix(cls, Q: np.ndarray) -> "QuboInstance":
        """Build from an n x n matrix: h[i] = Q[i,i], w[i,j] = Q[i,j] + Q[j,i]."""
        Q = np.asarray(Q, dtype=np.float64)
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
            raise ValueError("Q must be a square 2-D array")
        n = Q.shape[0]
        couplings = {
            (i, j): Q[i, j] + Q[j, i]
            for i in range(n)
            for j in range(i + 1, n)
            if Q[i, j] + Q[j, i] != 0.0
        }
        return cls(n, h=np.diag(Q).copy(), couplings=couplings)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def num_couplings(self) -> int:
        return int(self.pair_w.size)

    def couplings(self) -> Iterator[tuple[int, int, float]]:
        """Iterate stored couplings as (i, j, w) with i < j, sorted."""
        for i, j, v in zip(self.pair_i, self.pair_j, self.pair_w):
            yield int(i), int(j), float(v)

    def degree(self, i: int) -> int:
        self._check_index(i)
        return int(self._degrees[i])

    def padded_adjacency(self) -> tuple[np.ndarray, np.ndarray]:
        """Dense (n, max_degree) neighbor-index and weight arrays.

        Row i holds q.adjacency[i] in order in its first degree(i) entries,
        then padding of index 0 and weight -0.0, so readers may take a row's
        real entries as a prefix or sum the whole row: adding -0.0 leaves
        every sum as it was, the sign of a zero included.  Built once and
        cached.
        """
        if self._padded_adj is None:
            dmax = int(self._degrees.max())
            idx = np.zeros((self.n, dmax), dtype=np.int64)
            wgt = np.full((self.n, dmax), -0.0)
            for i, lst in enumerate(self.adjacency):
                if lst:
                    idx[i, : len(lst)] = [t[0] for t in lst]
                    wgt[i, : len(lst)] = [t[1] for t in lst]
            self._padded_adj = (idx, wgt)
        return self._padded_adj

    def colour_classes(self) -> list[np.ndarray]:
        """Greedy colouring of the coupling graph: sites by decreasing
        degree, ties by index, each taking the least class no neighbour has
        taken.  Returns the classes' sites, each ascending; no coupling joins
        two sites of one class.  Built once and cached."""
        if self._colour_classes is None:
            colour = [-1] * self.n
            for i in np.argsort(-self._degrees, kind="stable").tolist():
                taken = {colour[j] for j, _ in self.adjacency[i]}
                c = 0
                while c in taken:
                    c += 1
                colour[i] = c
            colours = np.array(colour)
            order = np.argsort(colours, kind="stable")
            self._colour_classes = np.split(order, np.cumsum(np.bincount(colours))[:-1])
        return self._colour_classes

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuboInstance):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self.h, other.h)
            and np.array_equal(self.pair_i, other.pair_i)
            and np.array_equal(self.pair_j, other.pair_j)
            and np.array_equal(self.pair_w, other.pair_w)
        )

    def __repr__(self) -> str:
        return f"QuboInstance(n={self.n}, couplings={self.num_couplings})"


# ----------------------------------------------------------------------
# Energy evaluation
# ----------------------------------------------------------------------


def _as_assignment(q: QuboInstance, x) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.shape != (q.n,):
        raise ValueError(f"assignment has shape {arr.shape}, expected ({q.n},)")
    return arr


def energy(q: QuboInstance, x) -> float:
    """E(x) = sum_i h[i] x_i + sum_{i<j} w[i,j] x_i x_j for binary x."""
    xf = _as_assignment(q, x)
    e = float(xf @ q.h)
    if q.pair_w.size:
        e += float(np.dot(q.pair_w, xf[q.pair_i] * xf[q.pair_j]))
    return e


def energy_batch(q: QuboInstance, states: np.ndarray) -> np.ndarray:
    """Energies of a (R, n) batch of binary assignments."""
    X = np.asarray(states, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != q.n:
        raise ValueError(f"states have shape {X.shape}, expected (R, {q.n})")
    e = X @ q.h
    if q.pair_w.size:
        # The (R, n_pairs) pair products are filled in row blocks of about
        # 2**16 entries, so the gathered operands never exist in full, and
        # then go through one matrix-vector product.  Splitting that product
        # by rows, or storing it in C order rather than in the Fortran order
        # that column gathers produce, changes its rounding in BLAS.
        prod = np.empty((X.shape[0], q.pair_w.size), order="F")
        rows = max(1, (1 << 16) // q.pair_w.size)
        for lo in range(0, X.shape[0], rows):
            xb = X[lo : lo + rows]
            np.multiply(xb[:, q.pair_i], xb[:, q.pair_j], out=prod[lo : lo + rows])
        e += prod @ q.pair_w
    return e


def delta_energy(q: QuboInstance, x, i: int) -> float:
    """Energy change from flipping bit i:
    (1 - 2 x_i) * (h[i] + sum_{j in adj(i)} w[i,j] x_j), summed over i's own
    adjacency on python floats.
    """
    xf = _as_assignment(q, x)
    if not 0 <= i < q.n:
        raise ValueError(f"variable index {i} out of range [0, {q.n})")
    field = float(q.h[i])
    for j, w in q.adjacency[i]:
        field += w * float(xf[j])
    return (1.0 - 2.0 * float(xf[i])) * field


# ----------------------------------------------------------------------
# Instance file format
#
#   # comment lines start with '#'
#   qubo <n> <nnz>
#   i j v        (nnz entry lines; 0-based, i <= j; i == j sets h[i],
#                 i < j sets the pair coupling w[i,j])
#
# Values are written with repr(), the shortest string that round-trips the
# float64, so load(save(q)) == q; a -0.0 field is not written, reads as 0.0.
# ----------------------------------------------------------------------


def _read_records(text: str, header: str, record: str):
    """The rules both text formats share: blank and '#' lines are skipped;
    a header like 'qubo <n> <nnz>' gives n and the record count; each record
    has as many fields as the template record, e.g. 'i j v'.  Returns n and
    an iterator of (line number, fields) per record.  Faults raise ParseError
    on their line as the iterator reaches them, so a loader that checks each
    record as it comes reports the first fault in the file.
    """
    stripped = enumerate(map(str.strip, text.splitlines()), start=1)
    lines = ((k, line) for k, line in stripped if line and not line.startswith("#"))
    head, line = next(lines, (1, ""))
    if not line:
        raise ParseError(head, "missing header line")
    fields = line.split()
    if len(fields) != 3 or fields[0] != header.split()[0]:
        raise ParseError(head, f"expected header {header!r}, got {line!r}")
    try:
        n, count = int(fields[1]), int(fields[2])
    except ValueError:
        raise ParseError(head, f"non-integer header fields in {line!r}") from None
    if n < 1 or count < 0:
        raise ParseError(head, f"invalid header values in {line!r}")

    def records():
        width, found = len(record.split()), 0
        for lineno, line in lines:
            if found == count:
                raise ParseError(lineno, f"extra record {line!r}; header declared {count}")
            fields = line.split()
            if len(fields) != width:
                raise ParseError(lineno, f"expected {record!r}, got {line!r}")
            found += 1
            yield lineno, fields
        if found != count:
            raise ParseError(head, f"header declared {count} records, found {found}")

    return n, records()


def save_instance(q: QuboInstance) -> str:
    """Serialise to the text instance format (entries sorted by (i, j))."""
    entries = [(i, i, float(q.h[i])) for i in range(q.n) if q.h[i] != 0.0]
    entries.extend(q.couplings())
    entries.sort()
    lines = [f"qubo {q.n} {len(entries)}"]
    lines.extend(f"{i} {j} {v!r}" for i, j, v in entries)
    return "\n".join(lines) + "\n"


def load_instance(text: str) -> QuboInstance:
    """Parse the text instance format; raises ParseError with line numbers."""
    n, records = _read_records(text, "qubo <n> <nnz>", "i j v")
    entries: dict[tuple[int, int], float] = {}
    for lineno, fields in records:
        try:
            i, j, v = int(fields[0]), int(fields[1]), float(fields[2])
        except ValueError:
            raise ParseError(lineno, f"malformed entry {' '.join(fields)!r}") from None
        if not 0 <= i < n or not 0 <= j < n:
            raise ParseError(lineno, f"index out of range [0, {n}) in ({i},{j})")
        if i > j:
            raise ParseError(lineno, f"entries require i <= j, got ({i},{j})")
        if not math.isfinite(v):
            raise ParseError(lineno, f"non-finite value {v!r} at ({i},{j})")
        if (i, j) in entries:
            raise ParseError(lineno, f"duplicate entry for pair ({i},{j})")
        entries[i, j] = v
    h = {i: v for (i, j), v in entries.items() if i == j}
    return QuboInstance(n, h=h, couplings={k: v for k, v in entries.items() if k[0] != k[1]})
