"""Tests for QUBO instance construction, energy evaluation, and file I/O."""

import gc
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qubokit import (
    ParseError,
    QuboInstance,
    delta_energy,
    energy,
    energy_batch,
    gen_er_graph,
    geometric_schedule,
    ibp_run,
    load_instance,
    random_sparse_qubo,
    sa_run,
    save_instance,
    select_subtree,
)
from qubokit.subtree import frozen_neighbor_arrays


class TestConstruction:
    def test_basic_fields(self):
        q = QuboInstance(3, h={0: 1.0, 2: -2.0}, couplings={(0, 1): 0.5})
        assert q.n == 3
        assert list(q.h) == [1.0, 0.0, -2.0]
        assert list(q.couplings()) == [(0, 1, 0.5)]

    def test_h_as_array(self):
        q = QuboInstance(2, h=np.array([1.0, -1.0]))
        assert list(q.h) == [1.0, -1.0]

    def test_unordered_keys_merge(self):
        # (1, 0) and (0, 1) address the same coupling and are summed.
        q = QuboInstance(2, couplings={(1, 0): 1.0})
        assert list(q.couplings()) == [(0, 1, 1.0)]
        q2 = QuboInstance(3, couplings={(2, 0): 1.0, (0, 2): 2.0})
        assert list(q2.couplings()) == [(0, 2, 3.0)]

    def test_zero_couplings_dropped(self):
        q = QuboInstance(2, couplings={(0, 1): 0.0})
        assert q.num_couplings == 0

    def test_couplings_sorted(self):
        q = QuboInstance(4, couplings={(2, 3): 1.0, (0, 1): 2.0, (1, 3): 3.0})
        assert [(i, j) for i, j, _ in q.couplings()] == [(0, 1), (1, 3), (2, 3)]

    def test_adjacency(self):
        q = QuboInstance(3, couplings={(0, 1): 2.0, (1, 2): -1.0})
        assert q.adjacency[1] == [(0, 2.0), (2, -1.0)]
        assert q.degree(1) == 2
        assert q.degree(0) == 1
        for i in (-1, 3):
            with pytest.raises(ValueError):
                q.degree(i)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(2, 12))
    def test_adjacency_rows_ascending_and_match_pairs(self, data, n):
        # keys in both orientations, and pairs given both ways are merged
        index = st.integers(0, n - 1)
        keys = data.draw(st.lists(st.tuples(index, index).filter(lambda k: k[0] != k[1]),
                                  max_size=40))
        couplings = {key: data.draw(st.sampled_from([-2.0, -1.0, 0.5, 1.0])) for key in keys}
        q = QuboInstance(n, couplings=couplings)
        expected = [[] for _ in range(n)]
        for i, j, w in zip(q.pair_i.tolist(), q.pair_j.tolist(), q.pair_w.tolist()):
            expected[i].append((j, w))
            expected[j].append((i, w))
        for row, want in zip(q.adjacency, expected):
            nbrs = [k for k, _ in row]
            assert all(a < b for a, b in zip(nbrs, nbrs[1:]))
            assert row == sorted(want)
        # the padded rows: each adjacency row in order, then zero padding,
        # as wide as the largest row
        idx, wgt = q.padded_adjacency()
        assert idx.shape == wgt.shape == (n, max(map(len, q.adjacency)))
        for i, row in enumerate(q.adjacency):
            deg = len(row)
            assert idx[i, :deg].tolist() == [k for k, _ in row]
            assert wgt[i, :deg].tolist() == [w for _, w in row]
            assert not idx[i, deg:].any()
            assert not wgt[i, deg:].any()

    def test_padded_adjacency(self):
        q = QuboInstance(3, couplings={(0, 1): 2.0, (1, 2): -1.0})
        idx, wgt = q.padded_adjacency()
        assert idx.shape == (3, 2)
        assert wgt[0, 1] == 0.0  # padding weight contributes nothing

    def test_from_matrix(self):
        Q = np.array([[1.0, 2.0, 0.0], [1.0, -1.0, 0.5], [0.0, 0.0, 0.0]])
        q = QuboInstance.from_matrix(Q)
        # off-diagonal pair weight is Q[i,j] + Q[j,i]
        assert list(q.h) == [1.0, -1.0, 0.0]
        assert list(q.couplings()) == [(0, 1, 3.0), (1, 2, 0.5)]

    def test_from_matrix_matches_pairwise_sums(self):
        # the couplings are the upper triangle of Q + Q^T: entries that
        # cancel (Q[i,j] = -Q[j,i]) leave no coupling, and a -0.0 on the
        # diagonal stays in h
        Q = np.array([[-0.0, 1.5, -2.0], [-1.5, 2.0, 0.25], [0.5, 0.0, -0.0]])
        q = QuboInstance.from_matrix(Q)
        assert q.h.tobytes() == np.array([-0.0, 2.0, -0.0]).tobytes()
        assert list(q.couplings()) == [(0, 2, -1.5), (1, 2, 0.25)]
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(1, 8))
            Q = rng.choice([-0.0, 0.0, 1.0, -1.0, 0.1, 1e308], size=(n, n))
            Q[rng.random((n, n)) < 0.3] *= -1.0
            with np.errstate(over="ignore", invalid="ignore"):
                q = QuboInstance.from_matrix(Q)
                pairwise = {(i, j): Q[i, j] + Q[j, i] for i in range(n) for j in range(i + 1, n)}
            want = QuboInstance(n, h=np.diag(Q), couplings=pairwise)
            assert q.h.tobytes() == want.h.tobytes()
            assert q.pair_i.tobytes() == want.pair_i.tobytes()
            assert q.pair_j.tobytes() == want.pair_j.tobytes()
            assert q.pair_w.tobytes() == want.pair_w.tobytes()
            assert q.adjacency == want.adjacency

    def test_first_faulty_coupling_reported(self):
        # the first faulty key in the mapping's order names the error
        cases = [
            ({(0, 1): 1.0, (0, 5): 1.0, (1, 1): 1.0}, "index 5 out of range"),
            ({(0, 1): 1.0, (1, 1): 1.0, (0, 5): 1.0}, "self-coupling (1,1)"),
            ({(2, 1): 1.0, (-1, 0): 1.0, (2, 2): 1.0}, "index -1 out of range"),
            ({(0, 1): 1.0, (0, 2**70): 1.0}, f"index {2**70} out of range"),
        ]
        for couplings, message in cases:
            with pytest.raises(ValueError, match=re.escape(message)):
                QuboInstance(3, couplings=couplings)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            QuboInstance(0)
        with pytest.raises(ValueError):
            QuboInstance(2, couplings={(0, 0): 1.0})
        with pytest.raises(ValueError):
            QuboInstance(2, couplings={(0, 2): 1.0})
        with pytest.raises(ValueError):
            QuboInstance(2, h={5: 1.0})

    def test_arrays_are_read_only(self):
        # SA's cached class rows hold a copy of h, so a write would go unseen
        for q in (QuboInstance(3, h=[1.0, 0.0, 2.0], couplings={(0, 1): 0.5}),
                  load_instance(save_instance(random_sparse_qubo(gen_er_graph(20, 0.2, 1), 2))),
                  QuboInstance.from_matrix(np.eye(2))):
            for a in (q.h, q.pair_i, q.pair_j, q.pair_w):
                with pytest.raises(ValueError, match="read-only"):
                    a[...] = 0

    def test_equality(self):
        a = QuboInstance(2, h={0: 1.0}, couplings={(0, 1): 2.0})
        b = QuboInstance(2, h={0: 1.0}, couplings={(1, 0): 2.0})
        assert a == b


def eager_adjacency(q: QuboInstance) -> list[list[tuple[int, float]]]:
    """The (neighbour, w) rows as instances once built them on
    construction: each coupling entered from both ends, rows ascending."""
    rows: list[list[tuple[int, float]]] = [[] for _ in range(q.n)]
    for i, j, w in zip(q.pair_i.tolist(), q.pair_j.tolist(), q.pair_w.tolist()):
        rows[i].append((j, w))
        rows[j].append((i, w))
    return [sorted(row) for row in rows]


def typed_bits(rows) -> list[list[tuple[type, int, type, str]]]:
    return [[(type(k), k, type(w), w.hex()) for k, w in row] for row in rows]


class TestLazyLayouts:
    """The (neighbour, w) rows are built on first use of adjacency; the
    vectorized paths read the plain neighbour rows and the padded arrays."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), n=st.integers(1, 12))
    def test_lazy_adjacency_equals_eager_rows(self, data, n):
        # weights of any bits up to 1e300 (two merged keys stay finite),
        # subnormals and -0.0 (dropped) among them; few keys leave
        # variables isolated, none leaves no coupling
        index = st.integers(0, n - 1)
        weight = st.floats(-1e300, 1e300)
        entries = data.draw(st.lists(st.tuples(index, index, weight), max_size=30))
        couplings = {(i, j): w for i, j, w in entries if i != j}
        q = QuboInstance(n, couplings=couplings)
        for inst in (q, load_instance(save_instance(q))):
            assert inst._adjacency is None
            assert typed_bits(inst.adjacency) == typed_bits(eager_adjacency(inst))
            assert inst.adjacency is inst.adjacency  # cached

    def test_lazy_adjacency_without_couplings_and_with_isolated_variables(self):
        assert load_instance(save_instance(QuboInstance(4, h=[1.0, 0, 0, 2.0]))).adjacency == [
            [], [], [], []]
        q = load_instance(save_instance(QuboInstance(5, couplings={(1, 3): -0.5})))
        assert q.adjacency == [[], [(3, -0.5)], [], [(1, -0.5)], []]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_hot_paths_never_build_the_tuple_rows(self, threads):
        q = load_instance(save_instance(random_sparse_qubo(gen_er_graph(120, 0.05, 3), 4)))
        rng = np.random.default_rng(1)
        for _ in range(20):
            frozen_neighbor_arrays(q, select_subtree(q, rng))
        q.colour_classes()
        sched = geometric_schedule(0.5, 3.0, 5)
        sa_run(q, 1, sched, seed=1, threads=threads)
        ibp_run(q, 1, sched, seed=1, budget=10 * q.n, threads=threads)
        assert q._adjacency is None

    def test_loaded_instance_retains_under_half_the_eager_layout(self):
        # A loaded random ER(300, 0.05) instance held about 414 KB while it
        # built its (neighbour, w) rows on construction.
        text = save_instance(random_sparse_qubo(gen_er_graph(300, 0.05, 2), 102))
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            q = load_instance(text)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert q.num_couplings == 2205
        assert retained < 414_000 // 2


class TestEnergy:
    def test_against_matrix_form(self):
        # Oracle: E(x) = h.x + sum_{i<j} w_ij x_i x_j evaluated literally.
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(1, 9))
            h = rng.normal(size=n)
            couplings = {}
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.5:
                        couplings[(i, j)] = float(rng.normal())
            q = QuboInstance(n, h=h, couplings=couplings)
            x = (rng.random(n) < 0.5).astype(np.uint8)
            e_ref = float(h @ x)
            for (i, j), w in couplings.items():
                e_ref += w * x[i] * x[j]
            assert energy(q, x) == pytest.approx(e_ref, abs=1e-12)

    def test_energy_batch_matches_scalar(self):
        rng = np.random.default_rng(3)
        q = QuboInstance(
            5,
            h=rng.normal(size=5),
            couplings={(0, 1): 1.0, (1, 4): -2.0, (2, 3): 0.7},
        )
        X = (rng.random((10, 5)) < 0.5).astype(np.uint8)
        batch = energy_batch(q, X)
        for r in range(10):
            assert batch[r] == pytest.approx(energy(q, X[r]), abs=1e-12)

    def test_energy_batch_blocks_keep_bits(self):
        # Blocks of 2**16 pair products: 2245 pairs give row blocks of 29
        # replicas, so 300 replicas take 11 blocks; 71772 pairs give blocks
        # of one replica.  Either must give the bits of the single
        # unblocked product.
        for g, r in ((gen_er_graph(300, 0.05, 0), 300), (gen_er_graph(400, 0.9, 1), 5)):
            q = random_sparse_qubo(g, 0)
            X = (np.random.default_rng(4).random((r, q.n)) < 0.5).astype(np.uint8)
            Xf = X.astype(np.float64)
            want = Xf @ q.h
            want += (Xf[:, q.pair_i] * Xf[:, q.pair_j]) @ q.pair_w
            assert np.array_equal(energy_batch(q, X), want)

    def test_energy_batch_rejects_non_binary(self):
        q = QuboInstance(3, h=[1.0, -2.0, 0.5], couplings={(0, 1): 1.5, (1, 2): -1.0})
        X = np.array([[1, 1, 0], [0, 1, 1]], dtype=np.uint8)
        for same in (X.astype(bool), X.astype(np.float64), X.astype(np.int64)):
            assert np.array_equal(energy_batch(q, same), energy_batch(q, X))
        for bad in (0.5, 2.0, -1.0, float("nan"), float("inf")):
            Y = X.astype(np.float64)
            Y[1, 2] = bad
            with pytest.raises(ValueError, match="binary"):
                energy_batch(q, Y)
        with pytest.raises(ValueError, match="binary"):
            energy_batch(q, np.array([[0, 2, 1]], dtype=np.uint8))
        assert energy_batch(q, np.zeros((0, 3))).shape == (0,)

    def test_delta_energy_matches_flip(self):
        rng = np.random.default_rng(11)
        q = QuboInstance(
            6,
            h=rng.normal(size=6),
            couplings={(0, 1): 1.5, (0, 5): -1.0, (2, 4): 2.0, (3, 4): -0.5},
        )
        for _ in range(40):
            x = (rng.random(6) < 0.5).astype(np.uint8)
            i = int(rng.integers(6))
            y = x.copy()
            y[i] ^= 1
            assert delta_energy(q, x, i) == pytest.approx(
                energy(q, y) - energy(q, x), abs=1e-12
            )

    def test_shape_and_index_errors(self):
        q = QuboInstance(3)
        with pytest.raises(ValueError):
            energy(q, np.zeros(2))
        with pytest.raises(ValueError):
            delta_energy(q, np.zeros(3), 3)


class TestFileFormat:
    def test_round_trip(self):
        q = QuboInstance(
            4, h={0: 0.1, 3: -2.25}, couplings={(0, 1): 1.0, (1, 3): -0.75}
        )
        assert load_instance(save_instance(q)) == q

    def test_round_trip_exact_floats(self):
        # repr() serialisation must preserve float64 bit patterns.
        q = QuboInstance(2, h={0: 1 / 3}, couplings={(0, 1): -2 / 7})
        q2 = load_instance(save_instance(q))
        assert q2.h[0] == q.h[0]
        assert q2.pair_w[0] == q.pair_w[0]

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(1, 30))
    def test_round_trip_property(self, data, n):
        # finite values from subnormals to +-1e308, -0.0 included; couplings
        # on a random subset of pairs, so some variables stay isolated
        value = st.one_of(
            st.floats(allow_nan=False, allow_infinity=False),
            st.sampled_from([-0.0, 5e-324, -5e-324, 1e308, -1e308, 2.2e-308]),
        )
        h = data.draw(st.lists(value, min_size=n, max_size=n))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        keys = []
        if pairs:
            keys = data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=60))
        couplings = {key: data.draw(value) for key in keys}
        q = QuboInstance(n, h=h, couplings=couplings)
        q2 = load_instance(save_instance(q))
        assert q2 == q
        assert q2.h.tobytes() == (q.h + 0.0).tobytes()  # -0.0 is stored as 0.0
        assert q2.pair_w.tobytes() == q.pair_w.tobytes()

    def test_header_and_entries(self):
        q = QuboInstance(2, h={0: 1.0}, couplings={(0, 1): -2.0})
        text = save_instance(q)
        lines = text.strip().splitlines()
        assert lines[0] == "qubo 2 2"
        assert lines[1] == "0 0 1.0"
        assert lines[2] == "0 1 -2.0"

    def test_comments_and_blank_lines(self):
        text = "# a QUBO\n\nqubo 2 1\n# entry\n0 1 2.5\n"
        q = load_instance(text)
        assert q.n == 2
        assert list(q.couplings()) == [(0, 1, 2.5)]

    def test_parse_errors_carry_line_numbers(self):
        cases = [
            ("qubo x 1\n0 0 1.0\n", 1),        # non-integer header
            ("cube 2 1\n0 1 1.0\n", 1),        # wrong magic
            ("qubo 2 1\n0 1\n", 2),            # malformed entry
            ("qubo 2 1\n0 1 a\n", 2),          # non-numeric value
            ("qubo 2 1\n1 0 1.0\n", 2),        # i > j
            ("qubo 2 1\n0 2 1.0\n", 2),        # index out of range
            ("qubo 2 1\n0 1 nan\n", 2),        # non-finite value
            ("qubo 2 2\n0 1 1.0\n0 1 2.0\n", 3),  # duplicate entry
            ("qubo 2 1\n0 1 1.0\n0 0 1.0\n", 3),  # extra entry
            ("qubo 2 2\n0 1 1.0\n", 1),        # count mismatch
            ("0 1 1.0\n", 1),                  # entry before header
            ("# c\nqubo 2 2\n0 1 1.0\n", 2),   # count mismatch: header's line
            # the first fault in the file is the one reported
            ("qubo 2 1\n0 1 a\n0 0 1.0\n", 2),  # malformed before extra entry
            ("qubo 2 2\n1 0 1.0\n", 2),         # i > j before count mismatch
            ("qubo 2 3\n0 1 1.0\n0 1\n", 3),    # short entry before count mismatch
        ]
        for text, line in cases:
            with pytest.raises(ParseError) as err:
                load_instance(text)
            assert err.value.line == line, text

    # one kind of fault per record line, and one per record count; each
    # record fault's message names its kind
    RECORD_FAULTS = {
        "short": "expected 'i j v'",
        "non-numeric": "malformed entry",
        "out-of-range": "out of range",
        "i>j": "entries require i <= j",
        "non-finite": "non-finite value",
        "duplicate": "duplicate entry",
    }

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n=st.integers(2, 6))
    def test_first_fault_reported(self, data, n):
        """One or two faults at random lines of a valid text, with comments
        and blank lines between the records: ParseError names the first
        faulty line in the file, every record fault before a count fault."""
        keys = [(i, j) for i in range(n) for j in range(i, n)]
        chosen = data.draw(st.lists(st.sampled_from(keys), unique=True, min_size=3,
                                    max_size=8))
        value = st.sampled_from(["1.5", "-0.25", "1e-300", "-7.0", "3"])
        records = [f"{i} {j} {data.draw(value)}" for i, j in chosen]
        # a valid text in any record order loads as the reference reader
        # builds it
        valid = f"qubo {n} {len(records)}\n" + "\n".join(records) + "\n"
        entries = {(i, j): float(r.split()[2]) for (i, j), r in zip(chosen, records)}
        want = QuboInstance(n, h={i: v for (i, j), v in entries.items() if i == j},
                            couplings={k: v for k, v in entries.items() if k[0] != k[1]})
        assert load_instance(valid) == want

        kinds = data.draw(st.lists(
            st.sampled_from([*self.RECORD_FAULTS, "extra", "missing"]),
            min_size=1, max_size=2,
        ).filter(lambda ks: not {"extra", "missing"} <= set(ks)))
        record_kinds = [k for k in kinds if k in self.RECORD_FAULTS]
        # distinct records; a duplicate copies the key of an earlier record
        targets = data.draw(st.lists(
            st.integers(1 if "duplicate" in record_kinds else 0, len(records) - 1),
            unique=True, min_size=len(record_kinds), max_size=len(record_kinds),
        ))
        for kind, k in zip(record_kinds, targets):
            i, j = chosen[k]
            draw = data.draw
            records[k] = {
                "short": lambda: f"{i} {j}",
                "non-numeric": lambda: f"{i} {j} {draw(st.sampled_from(['x', '1.5.0', '--1']))}",
                "out-of-range": lambda: f"{i} {draw(st.sampled_from([n, n + 3]))} 1.0",
                "i>j": lambda: f"{max(i, j, 1)} {min(i, j) if i != j else 0} 1.0",
                "non-finite": lambda: f"{i} {j} {draw(st.sampled_from(['nan', 'inf', '-inf']))}",
                "duplicate": lambda: "{} {} 2.0".format(*chosen[draw(st.integers(0, k - 1))]),
            }[kind]()
        count = len(records) + ("missing" in kinds)
        if "extra" in kinds:
            records.append("0 0 1.0")

        # the text's lines, comments and blank lines between the records,
        # and the line number of each record
        lines = [data.draw(st.sampled_from(["", "# c"])) for _ in range(data.draw(
            st.integers(0, 2)))]
        lines.append(f"qubo {n} {count}")
        head = len(lines)
        at = []
        for r in records:
            lines.extend(["", "# c"][: data.draw(st.integers(0, 2))])
            lines.append(r)
            at.append(len(lines))
        text = "\n".join(lines) + "\n"

        faults = [(at[k], self.RECORD_FAULTS[kind]) for kind, k in zip(record_kinds, targets)]
        if "extra" in kinds:
            faults.append((at[-1], "extra record"))
        line, message = min(faults) if faults else (head, "header declared")
        with pytest.raises(ParseError) as err:
            load_instance(text)
        assert err.value.line == line, text
        assert message in str(err.value), text

    def test_missing_header(self):
        with pytest.raises(ParseError):
            load_instance("# only comments\n")
