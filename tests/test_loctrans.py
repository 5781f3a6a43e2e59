"""Obstruction finding, cyclic order recovery, carousel isomorphism."""
import numpy as np
import pytest

from tourney import (
    CyclicOrder,
    SmallClass4,
    Tournament,
    balance_deficiency,
    brouwer_order,
    carousel,
    LayeredSpec,
    carousel_isomorphism,
    classify4,
    digraphon_sample,
    find_obstruction,
    flip_distance_given_order,
    from_arc_list,
    induced,
    is_locally_transitive,
    layered,
    random_uniform,
    transitive,
    triple_counts,
)
from tourney import counting, loctrans
from tourney.errors import EvenOrder, NotBalanced, NotLocallyTransitive

from helpers import brute_flip_distance, brute_quads_fast, brute_triples


def relabel(t, perm):
    perm = np.asarray(perm)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(len(perm))
    return Tournament(t.matrix()[np.ix_(inv, inv)])


def check_witness(t, obs):
    """The reported quad really is the claimed obstruction."""
    sub = induced(t, list(obs.vertices))
    assert classify4(sub) == obs.kind
    pos = list(obs.vertices).index(obs.apex)
    deg = int(sub.matrix().sum(axis=1)[pos])
    assert deg == (3 if obs.kind == SmallClass4.W4 else 0)


class TestFindObstruction:
    def test_none_on_locally_transitive(self):
        assert find_obstruction(carousel(9)) is None
        assert find_obstruction(transitive(12)) is None
        assert find_obstruction(transitive(3)) is None  # too small to obstruct

    def test_explicit_w4(self):
        t = from_arc_list(4, [(0, 1), (1, 2), (2, 0), (3, 0), (3, 1), (3, 2)])
        obs = find_obstruction(t)
        assert obs.kind == SmallClass4.W4
        assert obs.apex == 3
        assert obs.vertices == (0, 1, 2, 3)
        check_witness(t, obs)

    def test_explicit_l4(self):
        t = from_arc_list(4, [(0, 1), (1, 2), (2, 0), (0, 3), (1, 3), (2, 3)])
        obs = find_obstruction(t)
        assert obs.kind == SmallClass4.L4
        assert obs.apex == 3
        check_witness(t, obs)

    def test_apex_is_lowest_possible(self):
        rng = np.random.default_rng(0)
        seen = 0
        while seen < 25:
            n = int(rng.integers(5, 20))
            t = random_uniform(n, seed=int(rng.integers(2**31)))
            obs = find_obstruction(t)
            if obs is None:
                continue
            seen += 1
            check_witness(t, obs)
            # no smaller vertex has a cyclic in- or out-neighbourhood
            for v in range(obs.apex):
                for nb in (t.out_neighbors(v), t.in_neighbors(v)):
                    if nb.size >= 3:
                        assert brute_triples(induced(t, nb))[1] == 0

    def test_agrees_with_quad_census(self):
        rng = np.random.default_rng(1)
        for _ in range(40):
            n = int(rng.integers(4, 16))
            t = random_uniform(n, seed=int(rng.integers(2**31)))
            _, w4, l4, _ = brute_quads_fast(t)
            assert (find_obstruction(t) is None) == (w4 + l4 == 0)
            assert is_locally_transitive(t) == (w4 + l4 == 0)

    @pytest.mark.parametrize("kind", [SmallClass4.W4, SmallClass4.L4])
    def test_planted_obstruction_across_row_blocks(self, monkeypatch, kind):
        # transitive(n) with one flipped pair among p < q < r < s: flipping
        # (q, s) puts a 3-cycle under p (W4), flipping (p, r) one over s (L4)
        n = 20
        monkeypatch.setattr(counting, "_BLOCK_ROWS", 3)
        rng = np.random.default_rng(12)
        for _ in range(4):
            p, q, r, s = sorted(rng.choice(n, size=4, replace=False).tolist())
            m = transitive(n).matrix().copy()
            a, b = (q, s) if kind == SmallClass4.W4 else (p, r)
            m[a, b], m[b, a] = False, True
            t = relabel(Tournament(m), rng.permutation(n))
            _, w4, l4, _ = brute_quads_fast(t)
            assert (w4 if kind == SmallClass4.W4 else l4) > 0
            obs = find_obstruction(t)
            assert obs is not None
            check_witness(t, obs)
            assert (w4 if obs.kind == SmallClass4.W4 else l4) > 0
            for v in range(obs.apex):
                for nb in (t.out_neighbors(v), t.in_neighbors(v)):
                    if nb.size >= 3:
                        assert brute_triples(induced(t, nb))[1] == 0

    def test_agrees_with_quad_census_across_row_blocks(self, monkeypatch):
        monkeypatch.setattr(counting, "_BLOCK_ROWS", 4)
        rng = np.random.default_rng(13)
        for base in (carousel(25), random_uniform(25, seed=14)):
            m = base.matrix().copy()
            u, v = map(int, np.argwhere(m)[int(rng.integers(m.sum()))])
            m[u, v], m[v, u] = False, True
            for t in (base, Tournament(m)):
                _, w4, l4, _ = brute_quads_fast(t)
                assert (find_obstruction(t) is None) == (w4 + l4 == 0)

    def test_deterministic(self):
        t = random_uniform(30, seed=2)
        assert find_obstruction(t) == find_obstruction(t)

    def test_json_dict(self):
        t = from_arc_list(4, [(0, 1), (1, 2), (2, 0), (3, 0), (3, 1), (3, 2)])
        d = find_obstruction(t).to_json_dict()
        assert d == {"kind": "W4", "vertices": [0, 1, 2, 3], "apex": 3}


class TestBrouwerOrder:
    def test_carousel_identity(self):
        assert brouwer_order(carousel(9)).order == tuple(range(9))

    def test_transitive(self):
        assert brouwer_order(transitive(7)).order == tuple(range(7))

    def test_relabeled_carousel_recovers_intervals(self):
        rng = np.random.default_rng(3)
        for m in (7, 15, 31):
            t = relabel(carousel(m), rng.permutation(m))
            co = brouwer_order(t)   # raises unless every out-set is a forward interval
            assert sorted(co.order) == list(range(m))
            assert co.order[0] == 0

    def test_raises_with_witness(self):
        t = random_uniform(20, seed=5)
        assert not is_locally_transitive(t)
        with pytest.raises(NotLocallyTransitive) as exc:
            brouwer_order(t)
        assert exc.value.obstruction is not None
        check_witness(t, exc.value.obstruction)


    def test_interval_check_agrees_with_scan_and_census(self):
        rng = np.random.default_rng(15)
        cases = []
        for _ in range(30):
            n = int(rng.integers(4, 26))
            seed = int(rng.integers(2**31))
            cases += [random_uniform(n, seed=seed), digraphon_sample(n, seed=seed),
                      transitive(n), layered(LayeredSpec(N=n, t=0.3, seed=seed))]
            m = 2 * int(rng.integers(2, 13)) + 1
            mat = carousel(m).matrix().copy()
            if rng.random() < 0.75:
                u, v = map(int, np.argwhere(mat)[int(rng.integers(mat.sum()))])
                mat[u, v], mat[v, u] = False, True
            cases.append(relabel(Tournament(mat), rng.permutation(m)))
        lt = 0
        for t in cases:
            _, w4, l4, _ = brute_quads_fast(t)
            obs = find_obstruction(t)
            try:
                co = brouwer_order(t)
            except NotLocallyTransitive as exc:
                assert obs is not None and w4 + l4 > 0
                assert exc.obstruction == obs
                continue
            lt += 1
            assert obs is None and w4 + l4 == 0
            # each out-neighbourhood is the next outdegree-many vertices round the order
            order = list(co.order)
            for k, u in enumerate(order):
                d = int(t.outdegrees()[u])
                nxt = {order[(k + j) % t.n] for j in range(1, d + 1)}
                assert set(t.out_neighbors(u).tolist()) == nxt
        assert 0 < lt < len(cases)

    def test_interval_failure_raises_with_witness(self):
        # inputs whose N+(0) and N-(0) are transitive with 3 or more members:
        # the order gets built, so only the interval check can reject them
        rng = np.random.default_rng(17)
        found = 0
        while found < 5:
            t = random_uniform(8, seed=int(rng.integers(2**31)))
            nbs = (t.out_neighbors(0), t.in_neighbors(0))
            if min(nb.size for nb in nbs) < 3 or any(
                    brute_triples(induced(t, nb))[1] for nb in nbs):
                continue
            _, w4, l4, _ = brute_quads_fast(t)
            if w4 + l4 == 0:
                continue
            found += 1
            for nb in nbs:
                loctrans._sort_by_beats(t, nb)   # does not raise
            with pytest.raises(NotLocallyTransitive) as exc:
                brouwer_order(t)
            assert exc.value.obstruction == find_obstruction(t)
            check_witness(t, exc.value.obstruction)

    def test_failed_check_without_witness_is_a_bug(self, monkeypatch):
        monkeypatch.setattr(loctrans, "find_obstruction", lambda t: None)
        with pytest.raises(RuntimeError):
            brouwer_order(random_uniform(20, seed=5))


class TestCarouselIsomorphism:
    def test_identity(self):
        iso = carousel_isomorphism(carousel(11))
        assert np.array_equal(iso, np.arange(11))

    def test_random_relabelings_are_arc_exact(self):
        rng = np.random.default_rng(4)
        for m in (5, 9, 21, 51):
            ref = carousel(m).matrix()
            for _ in range(5):
                t = relabel(carousel(m), rng.permutation(m))
                iso = carousel_isomorphism(t)
                mt = t.matrix()
                u, v = np.nonzero(mt)
                assert np.all(ref[iso[u], iso[v]])

    def test_even_order_rejected(self):
        with pytest.raises(EvenOrder):
            carousel_isomorphism(transitive(4))

    def test_unbalanced_rejected(self):
        with pytest.raises(NotBalanced):
            carousel_isomorphism(transitive(7))

    def test_not_locally_transitive_rejected(self):
        # regular but not locally transitive: the quadratic-residue
        # tournament on 7 vertices (x beats x + {1,2,4})
        t = from_arc_list(7, [(x, (x + k) % 7) for x in range(7) for k in (1, 2, 4)])
        assert np.all(t.outdegrees() == 3)
        with pytest.raises(NotLocallyTransitive):
            carousel_isomorphism(t)


class TestBalanceDeficiency:
    def test_carousel_is_regular(self):
        for eps in (0.001, 0.2, 0.9):
            assert balance_deficiency(carousel(101), eps) == 0.0

    def test_huge_eps_never_flags(self):
        t = transitive(51)
        assert balance_deficiency(t, 1.0) == 0.0
        assert balance_deficiency(t, 2.0) == 0.0

    def test_transitive_by_hand(self):
        # n=101, centre 50, eps*n = 10.1: outdegrees 40..60 stay, 80 exceed
        assert balance_deficiency(transitive(101), 0.1) == pytest.approx(80 / 101)


class TestFlipDistance:
    def test_zero_for_carousel_identity(self):
        co = CyclicOrder(order=tuple(range(9)))
        assert flip_distance_given_order(carousel(9), co) == 0.0

    def test_single_flip_costs_one_pair(self):
        m = carousel(7).matrix().copy()
        m[0, 1] = False
        m[1, 0] = True
        t = Tournament(m)
        co = CyclicOrder(order=tuple(range(7)))
        assert flip_distance_given_order(t, co) == pytest.approx(1 / 21)

    def test_reversed_order_same_value(self):
        t = random_uniform(9, seed=6)
        co = CyclicOrder(order=tuple(range(9)))
        rev = CyclicOrder(order=(0,) + tuple(range(8, 0, -1)))
        a = flip_distance_given_order(t, co)
        assert flip_distance_given_order(t, rev) == pytest.approx(a)

    def test_matches_brute_pair_loop(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            m = 2 * int(rng.integers(1, 13)) + 1
            seed = int(rng.integers(2**31))
            base = carousel(m) if rng.random() < 0.5 else random_uniform(m, seed=seed)
            mat = base.matrix().copy()
            for _ in range(int(rng.integers(0, 4))):
                u, v = map(int, np.argwhere(mat)[int(rng.integers(mat.sum()))])
                mat[u, v], mat[v, u] = False, True
            t = relabel(Tournament(mat), rng.permutation(m))
            order = tuple(int(x) for x in rng.permutation(m))
            got = flip_distance_given_order(t, CyclicOrder(order=order))
            assert got == brute_flip_distance(t, order)

    def test_range_and_validation(self):
        t = random_uniform(11, seed=7)
        co = CyclicOrder(order=tuple(range(11)))
        val = flip_distance_given_order(t, co)
        assert 0.0 <= val <= 0.5
        with pytest.raises(EvenOrder):
            flip_distance_given_order(random_uniform(8, seed=0),
                                      CyclicOrder(order=tuple(range(8))))
        with pytest.raises(ValueError):
            flip_distance_given_order(t, CyclicOrder(order=(0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9)))
