"""Exact censuses, sampled densities, flag distributions, KS distances."""
import functools
import itertools
from math import comb

import numpy as np
import pytest

from tourney import (
    EmpiricalDistribution,
    ReferenceDistribution,
    arc_flag_counts,
    arc_flag_distribution,
    carousel,
    count_profile,
    distribution_to_csv,
    find_obstruction,
    induced,
    ks_distance,
    quad_counts,
    random_uniform,
    sampled_quad_densities,
    transitive,
    triple_counts,
)
from tourney import counting
from tourney.counting import FLAG_COMBOS, arc_flag_count_arrays, classify4_batch
from tourney.errors import EmptyDistribution, ExactnessBound, NotAnArc, OrderTooSmall

from helpers import (
    all_tournaments,
    brute_arc_flags,
    brute_flag_values,
    brute_quads_fast,
    brute_triples,
    ks_oracle,
)


def counts_hist(counts, n):
    """Histogram of length n - 1 of the given per-arc counts."""
    return np.bincount(np.array(counts, dtype=np.int64), minlength=n - 1)


def brute_flag_hist(t, combo):
    return counts_hist(brute_flag_values(t, combo), t.n)


class TestTripleCounts:
    def test_known_values(self):
        assert triple_counts(carousel(5)) == (5, 5)
        assert triple_counts(transitive(6)) == (20, 0)
        assert triple_counts(carousel(7)) == (21, 14)

    def test_carousel_maximizes_c3(self):
        for m in (5, 7, 9, 101):
            assert triple_counts(carousel(m))[1] == m * (m * m - 1) // 24

    def test_matches_brute_exhaustive(self):
        for k in (3, 4, 5):
            for t in all_tournaments(k):
                assert triple_counts(t) == brute_triples(t)

    def test_matches_brute_random(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(3, 50))
            t = random_uniform(n, seed=int(rng.integers(2**31)))
            assert triple_counts(t) == brute_triples(t)

    def test_order_too_small(self):
        with pytest.raises(OrderTooSmall):
            triple_counts(transitive(2))


class TestQuadCounts:
    def test_known_values(self):
        assert quad_counts(transitive(6)) == (15, 0, 0, 0)
        assert quad_counts(carousel(5)) == (0, 0, 0, 5)
        assert quad_counts(carousel(9)) == (36, 0, 0, 90)

    def test_matches_brute_exhaustive(self):
        for k in (4, 5, 6, 7):
            for t in all_tournaments(k):
                assert quad_counts(t) == brute_quads_fast(t)

    def test_matches_brute_random(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(8, 70))
            t = random_uniform(n, seed=int(rng.integers(2**31)))
            assert quad_counts(t) == brute_quads_fast(t)

    def test_crosses_word_boundaries(self):
        for n in (63, 64, 65, 128, 129):
            t = random_uniform(n, seed=n)
            q = quad_counts(t)
            assert sum(q) == comb(n, 4)
            assert q == brute_quads_fast(t)

    def test_order_too_small(self):
        with pytest.raises(OrderTooSmall):
            quad_counts(transitive(3))


class _HugeOrder:
    """Claims order n; reading anything else of it fails."""

    def __init__(self, n):
        self.n = n

    def __getattr__(self, name):
        raise AssertionError(f"read {name} of a stub tournament")


@functools.cache
def kernel_oracles(n):
    """random_uniform(n, seed=n) with its brute census and flag histograms."""
    t = random_uniform(n, seed=n)
    return t, brute_quads_fast(t), {combo: brute_flag_hist(t, combo) for combo in FLAG_COMBOS}


class TestCodegreeKernel:
    # rows 1 makes every block a diagonal square; rows 3, 16 and 32 leave a
    # short last block at some n; n = 63, 64, 65 put a triangle edge on a
    # 64-bit word boundary
    @pytest.mark.parametrize("n, rows", list(itertools.product([31, 32, 33, 63, 64, 65],
                                                               [1, 3, 16, 32])))
    def test_matches_oracles_at_word_and_block_edges(self, monkeypatch, n, rows):
        monkeypatch.setattr(counting, "_BLOCK_ROWS", rows)
        t, quads, flag_hists = kernel_oracles(n)
        assert quad_counts(t) == quads
        hists = arc_flag_count_arrays(t)
        for combo in FLAG_COMBOS:
            assert np.array_equal(hists[combo], flag_hists[combo]), combo

    @pytest.mark.parametrize("n", [5, 31, 32, 33])
    def test_triples_by_vertex_match_brute_neighbourhoods(self, monkeypatch, n):
        t = random_uniform(n, seed=n + 1)
        want_out, want_in = [], []
        for v in range(n):
            for nb, want in ((t.out_neighbors(v), want_out), (t.in_neighbors(v), want_in)):
                want.append(brute_triples(induced(t, nb))[0] if nb.size >= 3 else 0)
        for rows in (1, 3, 16, 32):
            monkeypatch.setattr(counting, "_BLOCK_ROWS", rows)
            tr3_out, tr3_in = counting._transitive_triples_by_vertex(t)
            assert tr3_out.tolist() == want_out, rows
            assert tr3_in.tolist() == want_in, rows

    def test_exactness_guard_fires_before_allocating(self):
        for fn in (quad_counts, arc_flag_count_arrays, find_obstruction):
            with pytest.raises(ExactnessBound):
                fn(_HugeOrder(2 ** 24))
        # one below the bound passes the guard and goes on to read the matrix
        with pytest.raises(AssertionError, match="matrix"):
            counting._codegree_blocks(_HugeOrder(2 ** 24 - 1))


class TestCountProfile:
    def test_density_pairs_are_exact_integers(self):
        p = count_profile(carousel(9))
        assert p.density_pair("tr4") == (36, 126)
        assert p.density_pair("c3") == (30, 84)
        assert p.density("r4") == 90 / 126

    def test_orders_3_only(self):
        p = count_profile(carousel(9), orders=(3,))
        assert p.tr4 is None
        with pytest.raises(ValueError):
            p.density("tr4")
        d = p.to_json_dict()
        assert "tr4" not in d and "c3" in d["densities"]

    def test_json_dict_ints(self):
        d = count_profile(carousel(1001)).to_json_dict()
        assert d["binom4"] == comb(1001, 4)
        assert isinstance(d["tr4"], int)
        assert d["densities"]["r4"]["num"] == d["r4"]


class TestArcFlags:
    def test_single_arc_vs_brute(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            n = int(rng.integers(3, 30))
            t = random_uniform(n, seed=int(rng.integers(2**31)))
            m = t.matrix()
            u, v = map(int, np.argwhere(m)[int(rng.integers(m.sum()))])
            fc = arc_flag_counts(t, u, v)
            assert (fc.o, fc.i, fc.tr, fc.c) == brute_arc_flags(t, u, v)
            assert fc.total() == n - 2

    def test_not_an_arc(self):
        t = transitive(4)
        with pytest.raises(NotAnArc):
            arc_flag_counts(t, 3, 0)

    def test_carousel_closed_form(self):
        # the arc x -> x+i has flags (n-i, n-i, i-1, i)
        for m in (7, 11, 21):
            n = (m - 1) // 2
            t = carousel(m)
            for i in range(1, n + 1):
                fc = arc_flag_counts(t, 0, i)
                assert (fc.o, fc.i, fc.tr, fc.c) == (n - i, n - i, i - 1, i)

    def test_sampled_arrays_vs_brute_on_the_sampled_arcs(self):
        # n = 93 spans two words per row, and its C(93, 2) = 4278 arcs take
        # two of the sampler's 4096-arc chunks
        t = random_uniform(93, seed=21)
        got = counting._sampled_arc_arrays(t, 10**6, seed=8)
        # the sample is seeded: the same draw of pairs, each oriented along its arc
        rng = np.random.default_rng(8)
        k = comb(93, 2)
        u = rng.integers(0, 93, size=k, dtype=np.int64)
        v = rng.integers(0, 93, size=k, dtype=np.int64)
        while (u == v).any():
            v[u == v] = rng.integers(0, 93, size=int((u == v).sum()), dtype=np.int64)
        m = t.matrix()
        want = [brute_arc_flags(t, a, b) if m[a, b] else brute_arc_flags(t, b, a)
                for a, b in zip(u.tolist(), v.tolist())]
        o, i, tr, c = (np.array(col) for col in zip(*want))
        for name, arr in {"o": o, "i": i, "tr": tr, "c": c,
                          "oi": o + i, "ctr": c + tr}.items():
            assert np.array_equal(got[name], np.bincount(arr, minlength=92)), name

    def test_arrays_match_brute_multiset(self):
        rng = np.random.default_rng(3)
        for _ in range(6):
            n = int(rng.integers(4, 25))
            t = random_uniform(n, seed=int(rng.integers(2**31)))
            hists = arc_flag_count_arrays(t)
            for combo in ("o", "i", "tr", "c", "oi", "ctr"):
                assert np.array_equal(hists[combo], brute_flag_hist(t, combo))

    def test_each_histogram_counts_every_arc(self):
        # per-arc totals o + i + tr + c = n - 2 are checked by arc_flag_counts
        t = random_uniform(15, seed=8)
        for combo, h in arc_flag_count_arrays(t).items():
            assert h.shape == (14,) and h.dtype == np.int64, combo
            assert int(h.sum()) == comb(15, 2), combo

    def test_arc_sums_give_triples(self):
        # sum of o (and i, and tr) over arcs = tr3; sum of c = 3*c3
        t = random_uniform(30, seed=9)
        tr3, c3 = triple_counts(t)
        hists = arc_flag_count_arrays(t)
        k = np.arange(29)
        assert int(k @ hists["o"]) == tr3
        assert int(k @ hists["i"]) == tr3
        assert int(k @ hists["tr"]) == tr3
        assert int(k @ hists["c"]) == 3 * c3


class TestSampledDensities:
    def test_reproducible_and_normalized(self):
        t = random_uniform(100, seed=0)
        a = sampled_quad_densities(t, samples=20_000, seed=5)
        b = sampled_quad_densities(t, samples=20_000, seed=5)
        assert a == b
        assert abs(a.p_tr4 + a.p_w4 + a.p_l4 + a.p_r4 - 1.0) < 1e-12

    def test_close_to_exact(self):
        t = random_uniform(200, seed=1)
        exact = quad_counts(t)
        dens = np.array(exact) / comb(200, 4)
        s = sampled_quad_densities(t, samples=200_000, seed=2)
        got = np.array([s.p_tr4, s.p_w4, s.p_l4, s.p_r4])
        assert np.all(np.abs(got - dens) < 0.01)

    def test_se_formula(self):
        s = sampled_quad_densities(carousel(101), samples=10_000, seed=3)
        assert s.se_r4 == pytest.approx(np.sqrt(s.p_r4 * (1 - s.p_r4) / 10_000))

    def test_classify4_batch_matches_classify4_on_every_orientation(self):
        from tourney import classify4, from_arc_list
        order = ["TR4", "W4", "L4", "R4"]
        pairs = [(a, b) for a in range(4) for b in range(a + 1, 4)]
        quads = np.array([[0, 1, 2, 3], [3, 2, 1, 0], [1, 3, 0, 2], [2, 0, 3, 1]])
        for code in range(64):
            t = from_arc_list(4, [(a, b) if code >> p & 1 else (b, a)
                                  for p, (a, b) in enumerate(pairs)])
            want = order.index(classify4(t).value)
            assert classify4_batch(t, quads).tolist() == [want] * len(quads), code

    def test_classify4_batch_matches_brute(self):
        from tourney import classify4, induced
        t = random_uniform(40, seed=4)
        rng = np.random.default_rng(6)
        quads = np.array([sorted(rng.choice(40, size=4, replace=False)) for _ in range(200)])
        cls = classify4_batch(t, quads)
        order = ["TR4", "W4", "L4", "R4"]
        for row, c in zip(quads, cls):
            assert classify4(induced(t, row)).value == order[c]

    def test_validation(self):
        with pytest.raises(OrderTooSmall):
            sampled_quad_densities(transitive(3), samples=10)
        with pytest.raises(ValueError):
            sampled_quad_densities(transitive(10), samples=0)


class TestDistributions:
    def test_carousel_c_flag_law(self):
        # values i/(2n-1), i = 1..n, each with multiplicity m
        for m in (9, 101):
            n = (m - 1) // 2
            d = arc_flag_distribution(carousel(m), "c")
            uniq, mult = d.value_counts()
            assert np.allclose(uniq, np.arange(1, n + 1) / (2 * n - 1))
            assert np.all(mult == m)

    def test_combo_aliases(self):
        t = random_uniform(12, seed=0)
        assert np.array_equal(arc_flag_distribution(t, "o+i").counts,
                              arc_flag_distribution(t, "oi").counts)
        with pytest.raises(ValueError):
            arc_flag_distribution(t, "bogus")

    def test_moments(self):
        d = EmpiricalDistribution(counts_hist([0, 1, 3], 5), n=5)
        # values are 0, 1/3, 1 -> mean 4/9
        assert d.mean == pytest.approx(4 / 9)
        assert d.second_moment == pytest.approx((0 + 1 / 9 + 1) / 3)
        assert d.count_sum() == 0 + 1 + 3
        assert d.factorial_sum() == 0 + 0 + 6
        assert d.second_factorial_moment == pytest.approx(6 / (3 * 3 * 2))
        assert d.counts.tolist() == [0, 1, 3]

    def test_factorial_sum_exact_past_int64(self):
        # 2**44 arcs with count 999: the sum is about 2**64
        n = 1001
        hist = np.zeros(n - 1, dtype=np.int64)
        hist[n - 2] = 2 ** 44
        d = EmpiricalDistribution(hist, n)
        assert d.factorial_sum() == 2 ** 44 * (n - 2) * (n - 3)
        assert d.factorial_sum() > 2 ** 63
        assert d.size == 2 ** 44

    def test_histogram_validated(self):
        with pytest.raises(ValueError, match="bins"):
            EmpiricalDistribution(np.zeros(5, dtype=np.int64), n=5)
        with pytest.raises(ValueError, match="bins"):
            EmpiricalDistribution(np.zeros((2, 2), dtype=np.int64), n=5)
        with pytest.raises(ValueError, match="nonnegative"):
            EmpiricalDistribution(np.array([1, -1, 0, 0]), n=5)
        d = EmpiricalDistribution(np.array([1, 0, 2, 0]), n=5)
        with pytest.raises(ValueError):
            d.hist[0] = 7

    def test_transitive_c_flag_is_zero(self):
        d = arc_flag_distribution(transitive(50), "c")
        assert d.mean == 0.0
        assert ks_distance(d, ReferenceDistribution.point_mass(0.0)) == 0.0


class TestKS:
    def test_exact_tiny_case(self):
        # values 0.2, 0.6 against U(0,1): ECDF jumps to 1 at 0.6, F = 0.6
        d = EmpiricalDistribution(counts_hist([1, 3], 7), n=7)
        ref = ReferenceDistribution.uniform(1.0)
        assert ks_distance(d, ref) == pytest.approx(0.4)

    def test_point_mass_reference(self):
        d = EmpiricalDistribution(counts_hist([2, 2, 2, 2], 10), n=10)
        assert ks_distance(d, ReferenceDistribution.point_mass(0.25)) == 0.0
        assert ks_distance(d, ReferenceDistribution.point_mass(0.5)) == 1.0

    def test_matches_dense_grid_oracle(self):
        rng = np.random.default_rng(7)
        for trial in range(8):
            n = int(rng.integers(6, 40))
            t = random_uniform(n, seed=int(rng.integers(2**31)))
            d = arc_flag_distribution(t, "c")
            for ref in (ReferenceDistribution.uniform(0.5),
                        ReferenceDistribution.uniform(1.0),
                        ReferenceDistribution.point_mass(0.25)):
                got = ks_distance(d, ref)
                want = ks_oracle(d.values, ref.cdf)
                assert got == pytest.approx(want, abs=1e-7)

    def test_carousel_closed_form(self):
        # sup distance of the c-flag staircase from U(0,1/2)
        for n in (2, 5, 50, 500):
            d = arc_flag_distribution(carousel(2 * n + 1), "c")
            got = ks_distance(d, ReferenceDistribution.uniform(0.5))
            assert got == pytest.approx((3 * n - 2) / (n * (2 * n - 1)), abs=1e-12)

    def test_carousel_closed_form_vs_oracle(self):
        # the same closed form, checked without going through ks_distance
        ref = ReferenceDistribution.uniform(0.5)
        for n in (2, 5, 50):
            d = arc_flag_distribution(carousel(2 * n + 1), "c")
            want = (3 * n - 2) / (n * (2 * n - 1))
            assert ks_oracle(d.values, ref.cdf) == pytest.approx(want, abs=1e-9)

    def test_empty_distribution(self):
        d = EmpiricalDistribution(counts_hist([], 5), n=5)
        with pytest.raises(EmptyDistribution):
            ks_distance(d, ReferenceDistribution.uniform(1.0))

    def test_reference_validation(self):
        with pytest.raises(ValueError):
            ReferenceDistribution.uniform(0.0)
        with pytest.raises(ValueError):
            ReferenceDistribution.point_mass(1.5)


class TestCsv:
    def test_value_count_rows(self):
        d = arc_flag_distribution(carousel(9), "c")
        text = distribution_to_csv(d)
        lines = text.splitlines()
        assert lines[0] == "value,count"
        assert len(lines) == 5  # 4 distinct values for n=4
        vals = [float(ln.split(",")[0]) for ln in lines[1:]]
        assert vals == sorted(vals)
        assert all(int(ln.split(",")[1]) == 9 for ln in lines[1:])

    def test_binned_rows(self):
        d = arc_flag_distribution(carousel(9), "c")
        text = distribution_to_csv(d, bins=4)
        lines = text.splitlines()
        assert lines[0] == "bin_lo,bin_hi,count"
        assert len(lines) == 5
        total = sum(int(ln.split(",")[2]) for ln in lines[1:])
        assert total == d.size

    def test_bins_validation(self):
        d = arc_flag_distribution(carousel(9), "c")
        with pytest.raises(ValueError):
            distribution_to_csv(d, bins=0)
