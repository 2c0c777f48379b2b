"""Tests for graph and instance generators."""

import hashlib
import re

import numpy as np
import pytest

from qubokit import (
    ParseError,
    RandomGraph,
    brute_force_min,
    energy,
    gen_er_graph,
    load_graph,
    load_instance,
    maxcut_to_qubo,
    mis_to_qubo,
    random_sparse_qubo,
    save_graph,
    save_instance,
)
from qubokit.cli import main


class TestRandomGraph:
    def test_normalizes_edges(self):
        g = RandomGraph(3, ((2, 1), (0, 1)))
        assert g.edges == ((0, 1), (1, 2))
        assert g.num_edges == 2

    def test_degrees(self):
        g = RandomGraph(4, ((0, 1), (1, 2), (1, 3)))
        assert list(g.degrees()) == [1, 3, 1, 1]

    def test_invalid(self):
        with pytest.raises(ValueError):
            RandomGraph(2, ((0, 0),))
        with pytest.raises(ValueError):
            RandomGraph(2, ((0, 2),))
        with pytest.raises(ValueError):
            RandomGraph(3, ((0, 1), (1, 0)))

    def test_first_faulty_edge_reported(self):
        cases = [
            (((0, 1), (2, 5), (1, 1), (1, 0)), "edge (2,5) out of range"),
            (((0, 1), (1, 1), (2, 5), (1, 0)), "self-loop at node 1"),
            (((0, 1), (2, 1), (1, 0), (1, 1)), "duplicate edge (0,1)"),
            (((0, 2**70),), f"edge (0,{2**70}) out of range"),
        ]
        for edges, message in cases:
            with pytest.raises(ValueError, match=re.escape(message)):
                RandomGraph(4, edges)

    def test_ends_must_be_integers(self):
        # no end is truncated or parsed on the way to the int64 ends
        for edges in (((0, 1.5),), ((0.2, 0.7),), (("0", "1"),)):
            with pytest.raises(TypeError):
                RandomGraph(4, edges)
        g = RandomGraph(4, ((np.int64(2), np.int32(1)),))
        assert g.edges == ((1, 2),)
        assert g.degrees().tolist() == [0, 1, 1, 0]


class TestErGraph:
    def test_deterministic(self):
        a = gen_er_graph(30, 0.2, 42)
        b = gen_er_graph(30, 0.2, 42)
        assert a.edges == b.edges

    def test_extremes(self):
        assert gen_er_graph(6, 0.0, 1).num_edges == 0
        assert gen_er_graph(6, 1.0, 1).num_edges == 15

    def test_edge_count_near_expectation(self):
        n, p = 200, 0.1
        g = gen_er_graph(n, p, 7)
        mean = p * n * (n - 1) / 2
        sigma = np.sqrt(mean * (1 - p))
        assert abs(g.num_edges - mean) < 5 * sigma

    def test_p_validation(self):
        with pytest.raises(ValueError):
            gen_er_graph(5, 1.5, 0)
        with pytest.raises(ValueError):
            gen_er_graph(5, -0.1, 0)
        with pytest.raises(ValueError):
            gen_er_graph(0, 0.5, 0)


class TestMaxcut:
    def test_coefficients(self):
        g = RandomGraph(3, ((0, 1), (1, 2)))
        q = maxcut_to_qubo(g)
        assert list(q.h) == [-1.0, -2.0, -1.0]
        assert list(q.couplings()) == [(0, 1, 2.0), (1, 2, 2.0)]

    def test_energy_is_negated_cut(self):
        rng = np.random.default_rng(2)
        g = gen_er_graph(8, 0.4, 5)
        q = maxcut_to_qubo(g)
        for _ in range(20):
            x = (rng.random(8) < 0.5).astype(np.uint8)
            cut = sum(1 for i, j in g.edges if x[i] != x[j])
            assert energy(q, x) == pytest.approx(-cut, abs=1e-12)

    def test_triangle_minimum(self):
        q = maxcut_to_qubo(RandomGraph(3, ((0, 1), (0, 2), (1, 2))))
        _, e = brute_force_min(q)
        assert e == -2.0  # any bipartition of a triangle cuts 2 edges


class TestMis:
    def test_coefficients(self):
        g = RandomGraph(3, ((0, 1),))
        q = mis_to_qubo(g, penalty=2.0)
        assert list(q.h) == [-1.0, -1.0, -1.0]
        assert list(q.couplings()) == [(0, 1, 2.0)]

    @pytest.mark.parametrize("penalty", [1.0, float("nan"), float("inf")])
    def test_penalty_validation(self, penalty):
        g = RandomGraph(2, ((0, 1),))
        with pytest.raises(ValueError):
            mis_to_qubo(g, penalty=penalty)

    def test_clique_minimum(self):
        # complete graph: the largest independent set is a single node
        edges = tuple((i, j) for i in range(5) for j in range(i + 1, 5))
        q = mis_to_qubo(RandomGraph(5, edges))
        _, e = brute_force_min(q)
        assert e == -1.0

    def test_minimizer_is_independent_set(self):
        g = gen_er_graph(12, 0.3, 9)
        q = mis_to_qubo(g)
        x, e = brute_force_min(q)
        for i, j in g.edges:
            assert not (x[i] == 1 and x[j] == 1)
        assert e == -int(x.sum())


class TestRandomSparse:
    def test_pattern_matches_graph(self):
        g = gen_er_graph(20, 0.2, 3)
        q = random_sparse_qubo(g, 4)
        assert [(i, j) for i, j, _ in q.couplings()] == list(g.edges)
        assert all(w != 0.0 for _, _, w in q.couplings())
        assert np.abs(q.h).max() <= 1.0
        assert np.abs(q.pair_w).max() <= 1.0

    def test_deterministic(self):
        g = gen_er_graph(10, 0.3, 1)
        a = random_sparse_qubo(g, 2)
        b = random_sparse_qubo(g, 2)
        assert a == b

    def test_field_distribution(self):
        # mean of 10^5 uniform(-1,1) fields is ~11 sigma away from 0.02
        g = RandomGraph(100_000)
        q = random_sparse_qubo(g, 0)
        assert abs(q.h.mean()) < 0.02


class TestGoldenText:
    # sha256 of the instance text `qubokit gen` writes: any change to the
    # graph draws, the encoders' coefficients and draws, or the text format
    # changes them.  n = 2500 has 3123750 vertex pairs, so the edge draws
    # run in several blocks.
    DIGESTS = {
        ("mis", "40", "0.2", "3"):
            "0d19cadaeed1a42065fd2aceb7fb64ef89ca2ca1e8918ec6ea8a22a96a220c63",
        ("mis", "2500", "0.004", "11"):
            "d0c06605d4dc7d2feca9c881efe0fc459d692a45c5c832fec9ff09c89cad8969",
        ("maxcut", "40", "0.2", "3"):
            "2f79f17c696a3c681fe30e8141bb5f227eac9cbedeaa61c99522ef05180bc02e",
        ("maxcut", "2500", "0.004", "11"):
            "452412dd29ecef9c02363b855d2719a99a6fc0b58cb2fb58a4385d84f2419b71",
        ("random", "40", "0.2", "3"):
            "6a1010efbf30e57bfbf93913f4d87be859100287272f1080180803ba2897d42c",
        ("random", "2500", "0.004", "11"):
            "5881700343ff17383cb37748a86187bc03bfdb35c4f9ce2fc03b3ffa9c6edbb2",
    }

    @pytest.mark.parametrize("key", list(DIGESTS), ids="-".join)
    def test_gen_text_digest(self, tmp_path, capsys, key):
        cls, n, p, seed = key
        path = tmp_path / "g.qubo"
        assert main(["gen", "--class", cls, "--n", n, "--p", p, "--seed", seed,
                     "-o", str(path)]) == 0
        text = path.read_text(encoding="utf-8")
        assert hashlib.sha256(text.encode()).hexdigest() == self.DIGESTS[key]
        assert save_instance(load_instance(text)) == text


class TestGraphFile:
    def test_round_trip(self):
        g = gen_er_graph(15, 0.25, 6)
        assert load_graph(save_graph(g)).edges == g.edges

    def test_format(self):
        g = RandomGraph(3, ((0, 2),))
        assert save_graph(g) == "graph 3 1\n0 2\n"

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            load_graph("graph 3\n")
        with pytest.raises(ParseError):
            load_graph("graph 3 1\n0 2\n1 2\n")
        with pytest.raises(ParseError):
            load_graph("graph 3 2\n0 2\n")
        with pytest.raises(ParseError):
            load_graph("graph 3 1\n0 5\n")
        with pytest.raises(ParseError):
            load_graph("")

    def test_parse_errors_carry_line_numbers(self):
        cases = [
            ("graph x 1\n0 1\n", 1),              # non-integer header
            ("grph 3 1\n0 1\n", 1),               # wrong magic
            ("graph 3 1\n0\n", 2),                # malformed edge
            ("graph 3 1\n0 b\n", 2),              # non-integer node
            ("graph 4 3\n0 1\n1 2\n2 2\n", 4),     # self-loop
            ("graph 3 2\n0 1\n# c\n1 3\n", 4),     # node out of range
            ("graph 3 2\n0 1\n\n1 0\n", 4),        # duplicate given as j i
            ("graph 3 1\n0 1\n1 2\n", 3),          # extra edge
            ("# c\ngraph 3 2\n0 1\n", 2),          # count mismatch
            ("0 1\ngraph 3 1\n", 1),              # edge before header
        ]
        for text, line in cases:
            with pytest.raises(ParseError) as err:
                load_graph(text)
            assert err.value.line == line, text
