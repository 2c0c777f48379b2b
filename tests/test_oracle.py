"""Tests for the exact-enumeration and tree-DP oracles."""

import numpy as np
import pytest

from qubokit import (
    CapacityError,
    QuboInstance,
    boltzmann_distribution,
    brute_force_min,
    energy,
    exact_marginals,
    total_variation,
    tree_dp_min,
)
from qubokit import oracle
from qubokit.oracle import _chunk_energies, state_bits, state_index


class TestStateEncoding:
    def test_round_trip(self):
        for s in range(16):
            assert state_index(state_bits(s, 4)) == s

    def test_lexicographic_convention(self):
        # bit 0 is the most significant digit, so ascending index is
        # lexicographic order over assignments.
        assert list(state_bits(0b1000, 4)) == [1, 0, 0, 0]
        assert list(state_bits(0b0001, 4)) == [0, 0, 0, 1]


class TestBruteForce:
    def test_all_zero_instance(self):
        x, e = brute_force_min(QuboInstance(3))
        assert e == 0.0
        assert list(x) == [0, 0, 0]  # lexicographically smallest tie

    def test_single_edge_maxcut(self):
        # h = -deg, w = 2 on the edge: minimum is -1 (cut the edge).
        q = QuboInstance(2, h=[-1.0, -1.0], couplings={(0, 1): 2.0})
        _, e = brute_force_min(q)
        assert e == -1.0

    def test_five_cycle_maxcut(self):
        couplings = {(i, (i + 1) % 5): 2.0 for i in range(4)}
        couplings[(0, 4)] = 2.0
        q = QuboInstance(5, h=[-2.0] * 5, couplings=couplings)
        _, e = brute_force_min(q)
        assert e == -4.0

    def test_minimizer_attains_minimum(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n = int(rng.integers(1, 10))
            couplings = {
                (i, j): float(rng.normal())
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.4
            }
            q = QuboInstance(n, h=rng.normal(size=n), couplings=couplings)
            x, e = brute_force_min(q)
            assert energy(q, x) == pytest.approx(e, abs=1e-12)

    def test_capacity(self):
        with pytest.raises(CapacityError):
            brute_force_min(QuboInstance(25))


class TestBoltzmann:
    def test_beta_zero_is_uniform(self):
        q = QuboInstance(3, h=[1.0, -2.0, 0.5], couplings={(0, 1): 1.0})
        dist = boltzmann_distribution(q, 0.0)
        assert np.allclose(dist.probabilities, 1 / 8)
        assert np.allclose(exact_marginals(q, 0.0), 0.5)

    def test_two_node_closed_form(self):
        # b = (0, 0), w = -2, beta = 1: P(1,1) = e^2 / (3 + e^2).
        q = QuboInstance(2, couplings={(0, 1): -2.0})
        dist = boltzmann_distribution(q, 1.0)
        p11 = dist.probabilities[state_index([1, 1])]
        assert p11 == pytest.approx(np.e**2 / (3 + np.e**2), abs=1e-12)

    def test_normalization_and_sum_rule(self):
        rng = np.random.default_rng(5)
        q = QuboInstance(
            4, h=rng.normal(size=4), couplings={(0, 1): 1.0, (2, 3): -1.5}
        )
        dist = boltzmann_distribution(q, 1.3)
        assert dist.probabilities.sum() == pytest.approx(1.0, abs=1e-12)
        marg = exact_marginals(q, 1.3)
        for i in range(4):
            direct = sum(
                dist.probabilities[s]
                for s in range(16)
                if state_bits(s, 4)[i] == 1
            )
            assert marg[i] == pytest.approx(direct, abs=1e-12)

    def test_large_beta_stability(self):
        q = QuboInstance(2, h=[-100.0, 50.0])
        dist = boltzmann_distribution(q, 10.0)
        assert np.isfinite(dist.probabilities).all()
        assert dist.probabilities.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("beta", [np.inf, np.nan, -1.0])
    def test_invalid_beta_rejected(self, beta):
        # inf and NaN gave all-NaN probabilities
        q = QuboInstance(2, h=[1.0, -1.0], couplings={(0, 1): 1.0})
        with pytest.raises(ValueError, match="finite"):
            boltzmann_distribution(q, beta)
        with pytest.raises(ValueError, match="finite"):
            exact_marginals(q, beta)

    def test_overflowing_log_weight(self):
        # -beta*E = 2e308 overflows before a max-shift could apply; shifted
        # by the least energy first, the two states with x_0 = 1 share it all
        q = QuboInstance(2, h=[-1e307, 0.0])
        dist = boltzmann_distribution(q, 20.0)
        np.testing.assert_allclose(dist.probabilities, [0.0, 0.0, 0.5, 0.5])
        np.testing.assert_allclose(exact_marginals(q, 20.0), [1.0, 0.5])

    def test_beta_zero_with_an_overflowing_gap_is_uniform(self):
        # energies 1e308 apart: the gap overflows, and must not give 0*inf
        q = QuboInstance(2, h=[1e308, -1e308])
        np.testing.assert_allclose(boltzmann_distribution(q, 0.0).probabilities, 0.25)

    def test_high_beta_concentrates(self):
        # Needs a minimizer separated by a clear gap; seed 3 has one.
        rng = np.random.default_rng(3)
        q = QuboInstance(5, h=rng.uniform(-1, 1, 5), couplings={(0, 3): 0.8})
        scale = max(np.abs(q.h).max(), np.abs(q.pair_w).max())
        x, _ = brute_force_min(q)
        marg = exact_marginals(q, 50.0 / scale)
        assert np.abs(marg - x).max() < 1e-6

    def test_capacity(self):
        with pytest.raises(CapacityError):
            boltzmann_distribution(QuboInstance(21), 1.0)


class TestChunking:
    """Tiny chunks against one unchunked pass over all states."""

    def all_energies(self, q):
        return _chunk_energies(q, np.arange(1 << q.n, dtype=np.int64))

    @pytest.mark.parametrize("entries", [1, 200, 5000])
    def test_tiny_chunks_match_one_pass(self, monkeypatch, entries):
        rng = np.random.default_rng(entries)
        n = 10
        couplings = {(i, j): float(rng.normal()) for i in range(n)
                     for j in range(i + 1, n) if rng.random() < 0.5}
        q = QuboInstance(n, h=rng.normal(size=n), couplings=couplings)
        full = self.all_energies(q)
        monkeypatch.setattr(oracle, "_CHUNK_ENTRIES", entries)
        chunked = boltzmann_distribution(q, 1.0).energies
        assert np.allclose(chunked, full, rtol=1e-12, atol=0.0)
        _, e = brute_force_min(q)
        assert e == pytest.approx(full.min(), rel=1e-12)

    def test_integer_instance_argmin_is_exact(self, monkeypatch):
        # many tied minima: the lexicographically smallest must win in
        # every chunking
        n = 9
        couplings = {(i, j): 2.0 for i in range(n) for j in range(i + 1, n) if (i + j) % 3}
        q = QuboInstance(n, h=[-1.0] * n, couplings=couplings)
        full = self.all_energies(q)
        monkeypatch.setattr(oracle, "_CHUNK_ENTRIES", 7)
        x, e = brute_force_min(q)
        assert e == full.min()
        assert state_index(x) == int(np.argmin(full))
        assert np.array_equal(boltzmann_distribution(q, 0.5).energies, full)


class TestTreeDp:
    def test_single_node(self):
        assert tree_dp_min(QuboInstance(1, h=[-1.0])) == -1.0
        assert tree_dp_min(QuboInstance(1, h=[1.0])) == 0.0

    def test_path_two_nodes(self):
        q = QuboInstance(2, couplings={(0, 1): -2.0})
        assert tree_dp_min(q) == -2.0

    def test_matches_brute_force_on_random_trees(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            n = int(rng.integers(2, 13))
            couplings = {}
            for i in range(1, n):
                parent = int(rng.integers(i))
                couplings[(parent, i)] = float(rng.uniform(-2, 2)) or 0.5
            q = QuboInstance(n, h=rng.uniform(-2, 2, n), couplings=couplings)
            _, e = brute_force_min(q)
            assert tree_dp_min(q) == pytest.approx(e, abs=1e-10)

    def test_forest_with_isolated_nodes(self):
        q = QuboInstance(4, h=[-1.0, 2.0, -0.5, 0.0], couplings={(0, 1): 1.0})
        _, e = brute_force_min(q)
        assert tree_dp_min(q) == pytest.approx(e, abs=1e-12)

    def test_cycle_rejected(self):
        q = QuboInstance(
            3, couplings={(0, 1): 1.0, (1, 2): 1.0, (0, 2): 1.0}
        )
        with pytest.raises(ValueError, match="cycle"):
            tree_dp_min(q)


class TestTotalVariation:
    def test_identical_laws(self):
        p = np.array([0.25, 0.75])
        assert total_variation(p, p) == 0.0

    def test_disjoint_laws(self):
        assert total_variation([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0)

    def test_half_l1(self):
        assert total_variation([0.5, 0.5], [0.25, 0.75]) == pytest.approx(0.25)
