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
        self._build(
            self.h,
            np.array([p[0] for p in pairs], dtype=np.int64),
            np.array([p[1] for p in pairs], dtype=np.int64),
            np.array([p[2] for p in pairs], dtype=np.float64),
        )

    @classmethod
    def _from_pairs(
        cls, n: int, h: np.ndarray, pair_i: np.ndarray, pair_j: np.ndarray, pair_w: np.ndarray
    ) -> "QuboInstance":
        """The instance holding these arrays, unchecked and uncopied: h of
        shape (n,), pairs i < j sorted by (i, j) without repeats, no zero
        weight.  The encoders, the loader and from_matrix build their
        arrays so."""
        q = cls.__new__(cls)
        q.n = int(n)
        q._build(h, pair_i, pair_j, pair_w)
        return q

    def _build(
        self, h: np.ndarray, pair_i: np.ndarray, pair_j: np.ndarray, pair_w: np.ndarray
    ) -> None:
        self.h, self.pair_i, self.pair_j, self.pair_w = h, pair_i, pair_j, pair_w
        # Adjacency rows, each in ascending neighbor order, decided here
        # once: python lists of (neighbor, w) for the scalar code paths,
        # copied row for row into the padded arrays of padded_adjacency for
        # the vectorized ones.  _degrees holds each row's length, the one
        # record of it.  The rows share one int object per variable and one
        # float per coupling, and are made in row order, so they lie
        # together in memory.
        nbr, coupling = self._directed()
        self._degrees = np.bincount(np.concatenate((pair_i, pair_j)), minlength=self.n)
        ints, floats = list(range(self.n)), pair_w.tolist()
        entries = list(zip(map(ints.__getitem__, nbr.tolist()),
                           map(floats.__getitem__, coupling.tolist())))
        ends = np.cumsum(self._degrees).tolist()
        self.adjacency: list[list[tuple[int, float]]] = [
            entries[a:b] for a, b in zip([0] + ends, ends)
        ]

        self._padded_adj: tuple[np.ndarray, np.ndarray] | None = None
        self._colour_classes: list[np.ndarray] | None = None

    def _directed(self) -> tuple[np.ndarray, np.ndarray]:
        """Each coupling once from either end, in adjacency order: the
        neighbour and the coupling's index of every entry, by row and then
        by neighbour.  With the pairs sorted by (i, j), a stable sort by row
        puts row u's pairs (i, u), ascending in i < u, before its pairs
        (u, j), ascending in j > u."""
        order = np.argsort(np.concatenate((self.pair_j, self.pair_i)), kind="stable")
        nbr = np.concatenate((self.pair_i, self.pair_j))[order]
        return nbr, order % max(self.pair_w.size, 1)

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
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        w = np.triu(Q + Q.T, 1)
        i, j = np.nonzero(w)  # row by row: sorted by (i, j)
        return cls._from_pairs(n, np.diag(Q).copy(), i, j, w[i, j])

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
            nbr, coupling = self._directed()
            deg = self._degrees
            rows = np.repeat(np.arange(self.n), deg)
            cols = np.arange(nbr.size) - np.repeat(np.cumsum(deg) - deg, deg)
            idx = np.zeros((self.n, int(deg.max())), dtype=np.int64)
            wgt = np.full(idx.shape, -0.0)
            idx[rows, cols] = nbr
            wgt[rows, cols] = self.pair_w[coupling]
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
    """Energies of a (R, n) batch of binary assignments; ValueError for a
    state with a value other than 0 or 1."""
    X = np.asarray(states, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != q.n:
        raise ValueError(f"states have shape {X.shape}, expected (R, {q.n})")
    bits = X == 1.0
    if np.count_nonzero(bits) != np.count_nonzero(X):
        raise ValueError("states must be binary (0 or 1)")
    e = X @ q.h
    if q.pair_w.size:
        # The (R, n_pairs) pair products go through one matrix-vector
        # product.  Splitting that product by rows, or storing it in C order
        # rather than in the Fortran order that column gathers produce,
        # changes its rounding in BLAS.  Its columns are filled in blocks
        # of about 2**16 entries from the position-major bits, whose rows
        # are the replicas' values of one variable.
        xt = np.ascontiguousarray(bits.T).view(np.uint8)
        del X, bits  # the products read only xt
        prod = np.empty((e.size, q.pair_w.size), order="F")
        step = max(1, (1 << 16) // max(e.size, 1))
        for lo in range(0, q.pair_w.size, step):
            hi = lo + step
            np.multiply(xt.take(q.pair_i[lo:hi], 0), xt.take(q.pair_j[lo:hi], 0),
                        out=prod[:, lo:hi].T)
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
    has as many fields as the template record, e.g. 'i j v'.

    Returns n, the declared record count, each record's fields (its line
    split once) and a function that walks the records as (line number,
    fields).  The walk raises ParseError on a record of the wrong width, an
    extra record or a missing one as it reaches it, so a loader that checks
    each record as it comes reports the first fault in the file.
    """
    stripped = list(map(str.strip, text.splitlines()))
    head = next((k for k, line in enumerate(stripped) if line and line[0] != "#"), None)
    if head is None:
        raise ParseError(1, "missing header line")
    line = stripped[head]
    fields = line.split()
    if len(fields) != 3 or fields[0] != header.split()[0]:
        raise ParseError(head + 1, f"expected header {header!r}, got {line!r}")
    try:
        n, count = int(fields[1]), int(fields[2])
    except ValueError:
        raise ParseError(head + 1, f"non-integer header fields in {line!r}") from None
    if n < 1 or count < 0:
        raise ParseError(head + 1, f"invalid header values in {line!r}")

    body = stripped[head + 1 :]
    rows = [line.split() for line in body if line and line[0] != "#"]
    width = len(record.split())

    def walk():
        linenos = (k for k, line in enumerate(body, start=head + 2) if line and line[0] != "#")
        for found, (lineno, fields) in enumerate(zip(linenos, rows)):
            if found == count:
                raise ParseError(
                    lineno, f"extra record {stripped[lineno - 1]!r}; header declared {count}")
            if len(fields) != width:
                raise ParseError(lineno, f"expected {record!r}, got {stripped[lineno - 1]!r}")
            yield lineno, fields
        if len(rows) < count:
            raise ParseError(head + 1, f"header declared {count} records, found {len(rows)}")

    return n, count, rows, walk


def save_instance(q: QuboInstance) -> str:
    """Serialise to the text instance format (entries sorted by (i, j))."""
    d = np.flatnonzero(q.h)
    rows, cols = np.concatenate((d, q.pair_i)), np.concatenate((d, q.pair_j))
    vals = np.concatenate((q.h[d], q.pair_w))
    order = np.lexsort((cols, rows))
    lines = [f"qubo {q.n} {vals.size}"]
    lines.extend(f"{i} {j} {v!r}" for i, j, v in zip(
        rows[order].tolist(), cols[order].tolist(), vals[order].tolist()))
    return "\n".join(lines) + "\n"


def load_instance(text: str) -> QuboInstance:
    """Parse the text instance format; raises ParseError with line numbers.

    The columns are converted and checked in bulk; when a check fails, the
    records are read again one by one (_load_records), which raises on the
    first faulty line."""
    n, count, rows, walk = _read_records(text, "qubo <n> <nnz>", "i j v")
    if len(rows) == count and {3}.issuperset(map(len, rows)):
        columns = list(zip(*rows)) or [()] * 3
        try:
            i = np.fromiter(map(int, columns[0]), np.int64, count)
            j = np.fromiter(map(int, columns[1]), np.int64, count)
            v = np.fromiter(map(float, columns[2]), np.float64, count)
        except (ValueError, OverflowError):
            pass
        else:
            order = np.lexsort((j, i))
            i, j, v = i[order], j[order], v[order]
            repeat = (i[1:] == i[:-1]) & (j[1:] == j[:-1])
            if not (((i < 0) | (j >= n) | (i > j)).any() or repeat.any()
                    or not np.isfinite(v).all()):
                del rows, columns, walk  # the instance is built from the arrays alone
                h = np.zeros(n)
                diag = i == j
                h[i[diag]] = v[diag]
                keep = ~diag & (v != 0.0)
                return QuboInstance._from_pairs(n, h, i[keep], j[keep], v[keep])
    return _load_records(n, walk())


def _load_records(n: int, records) -> QuboInstance:
    """The instance of records (line number, fields), checked record by
    record: raises ParseError on the first faulty one."""
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
