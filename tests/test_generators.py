"""Generator family: carousel, transitive, coin-flip, layered, circular kernel."""
import hashlib
import tracemalloc

import numpy as np
import pytest

from tourney import (
    LayeredSpec,
    Tournament,
    carousel,
    digraphon_from_points,
    digraphon_sample,
    layer_sizes,
    layered,
    random_uniform,
    transitive,
)
from tourney import core
from tourney.errors import EvenOrder, InvalidRatio
from tourney.io import dumps_trn

from helpers import ref_carousel, ref_digraphon, ref_layered, ref_random_uniform


def test_carousel_structure():
    for m in (1, 3, 5, 9, 21):
        t = carousel(m)
        n = (m - 1) // 2
        assert np.all(t.outdegrees() == n)
        for i in range(1, n + 1):
            assert t.has_arc(0, i)
        for i in range(n + 1, m):
            assert t.has_arc(i, 0)


def test_carousel_rejects_bad_orders():
    with pytest.raises(EvenOrder):
        carousel(100)
    with pytest.raises(ValueError):
        carousel(0)


def test_transitive_structure():
    t = transitive(6)
    for u in range(6):
        for v in range(u + 1, 6):
            assert t.has_arc(u, v)
    with pytest.raises(ValueError):
        transitive(0)


def test_random_uniform_reproducible():
    a = random_uniform(50, seed=123)
    b = random_uniform(50, seed=123)
    c = random_uniform(50, seed=124)
    assert a == b
    assert a != c
    with pytest.raises(ValueError):
        random_uniform(0)


def test_random_uniform_coin_statistics():
    # upper-triangle orientation frequency should look like a fair coin
    t = random_uniform(200, seed=0)
    m = t.matrix()
    iu, ju = np.triu_indices(200, 1)
    frac = m[iu, ju].mean()
    assert abs(frac - 0.5) < 0.02


def test_layer_sizes_known_chains():
    assert layer_sizes(10, 0.5) == [10, 5, 3, 2, 1]
    assert layer_sizes(5000, 0.143584) == [5000, 718, 103, 15, 2]
    assert layer_sizes(1, 0.5) == [1]
    with pytest.raises(InvalidRatio):
        layer_sizes(10, 0.0)
    with pytest.raises(InvalidRatio):
        layer_sizes(10, 1.0)


def test_layer_sizes_properties():
    rng = np.random.default_rng(0)
    for _ in range(100):
        N = int(rng.integers(1, 10_000))
        t = float(rng.uniform(0.01, 0.99))
        sizes = layer_sizes(N, t)
        assert sizes[0] == N
        assert all(a > b for a, b in zip(sizes, sizes[1:]))
        nxt = int(np.floor(t * sizes[-1] + 0.5))
        assert nxt == 0 or nxt == sizes[-1]


def test_layered_spec_validation():
    with pytest.raises(InvalidRatio):
        LayeredSpec(N=10, t=1.5)
    with pytest.raises(ValueError):
        LayeredSpec(N=0, t=0.5)


def test_layered_cross_layer_arcs_deterministic():
    spec = LayeredSpec(N=10, t=0.5, seed=42)
    t = layered(spec)
    # depth per vertex from sizes [10, 5, 3, 2, 1]
    depth = np.zeros(10, dtype=int)
    for s in (5, 3, 2, 1):
        depth[:s] += 1
    for u in range(10):
        for v in range(10):
            if u != v and depth[u] > depth[v]:
                assert t.has_arc(u, v)


def test_layered_reproducible_and_seed_sensitive():
    spec = LayeredSpec(N=40, t=0.3, seed=7)
    assert layered(spec) == layered(spec)
    assert layered(spec) != layered(LayeredSpec(N=40, t=0.3, seed=8))


def test_digraphon_points_quarter_circle():
    # four equally spaced points: each beats the next quarter-turn behind it
    t = digraphon_from_points([0.0, 0.25, 0.5, 0.75])
    assert t.has_arc(1, 0) and t.has_arc(2, 1) and t.has_arc(3, 2) and t.has_arc(0, 3)


def test_digraphon_points_transitive_case():
    # coordinates 0, 0.2, 0.4: each later point sees the earlier ones within
    # half a turn, so the largest coordinate is the source and the result is
    # the linear order 2 -> 1 -> 0
    t = digraphon_from_points([0.0, 0.2, 0.4])
    assert t.has_arc(2, 1) and t.has_arc(1, 0) and t.has_arc(2, 0)


def test_digraphon_half_distance_tie_goes_to_lower_index():
    t = digraphon_from_points([0.0, 0.5])
    assert t.has_arc(0, 1)
    t2 = digraphon_from_points([0.25, 0.75, 0.1])
    assert t2.has_arc(0, 1)


def test_digraphon_equal_coordinates_tie():
    t = digraphon_from_points([0.3, 0.3, 0.3])
    # all ties: lower index beats higher, i.e. the transitive order
    assert t.has_arc(0, 1) and t.has_arc(0, 2) and t.has_arc(1, 2)


def test_digraphon_points_validation():
    with pytest.raises(ValueError):
        digraphon_from_points([0.2, 1.0])
    with pytest.raises(ValueError):
        digraphon_from_points([-0.1])
    with pytest.raises(ValueError):
        digraphon_from_points([])


def test_digraphon_sample_reproducible():
    a = digraphon_sample(101, seed=6)
    assert a == digraphon_sample(101, seed=6)
    assert a != digraphon_sample(101, seed=7)
    # near-balanced outdegrees: each vertex beats about half the others
    d = a.outdegrees()
    assert abs(d.mean() - 50.0) < 3.0


def test_generator_trn_bytes_stable():
    # regression pin on the serialized form of each seeded family
    assert dumps_trn(random_uniform(5, seed=0)) == "5\n00111\n10110\n00010\n00001\n01100\n"
    assert dumps_trn(layered(LayeredSpec(N=4, t=0.5, seed=0))) == "4\n0111\n0011\n0001\n0000\n"
    assert dumps_trn(digraphon_sample(4, seed=0)) == "4\n0100\n0011\n1001\n1000\n"


# sha256 of dumps_trn, taken when the upper triangle was filled through
# int64 triu_indices: the boolean-mask fill must draw the same PCG64 stream
TRN_PINS = {
    ("random", 1, 0): "5d90ef7fc0d040fd56a1e48697cfa99e0dfaf4fd803aefefc3b5053ec1d36aea",
    ("random", 2, 1): "7cb88c2222659bea546b7da5263187e6cfdb13afd935e331afbc28dcfb925c28",
    ("random", 3, 2): "6fef54cff9a1af8723faaf68f20cd6518138e22d157258a1bff57559f9bc6557",
    ("random", 64, 3): "75ee372ea7072a655d0d110f03cba9395ba8ccca11fae20d8e28cfb037c30fef",
    ("random", 65, 4): "9aa9b59d1ec6f59676d624742b5bcee74fe9be2ee8ac419dccca99c9ce53fa0f",
    ("random", 701, 6): "028d93045babea23012df704dd6dbda09368aca6c68ec51bde45ae8f88eebb15",
    ("layered", 1, 0): "5d90ef7fc0d040fd56a1e48697cfa99e0dfaf4fd803aefefc3b5053ec1d36aea",
    ("layered", 3, 2): "fe2c31e83d40ed3177119b74d82b34cfe8f8c1a63daf90e55639e0c725c2631a",
    ("layered", 65, 3): "4b4a64075743ae3852f2603ffda6b53ace6ccb27d9aadcbbd4fb9305db0f1ed5",
    ("layered", 130, 4): "4a70549fab5a1fdc576c1a9a859561e17099bbdb2c89bae18b3532890f409a95",
    ("layered", 701, 5): "4310ff051ffc8b669715d424580cdac8bc07214fca5fdb24373c65575a82dd26",
}
LAYERED_T = {1: 0.5, 3: 0.3, 65: 0.5, 130: 0.3, 701: 0.7}


@pytest.mark.parametrize("kind,n,seed", sorted(TRN_PINS))
def test_generator_trn_sha256_pinned(kind, n, seed):
    if kind == "random":
        t = random_uniform(n, seed=seed)
    else:
        t = layered(LayeredSpec(N=n, t=LAYERED_T[n], seed=seed))
    assert hashlib.sha256(dumps_trn(t).encode()).hexdigest() == TRN_PINS[kind, n, seed]


# orders at and around the edges of the generators' square tiles (side
# core._SCAN_ROWS = 256)
TILE_EDGE_N = (1, 2, 3, 255, 256, 257, 513, 701)


def _packed(m):
    """The packed rows of a dense reference matrix, checked as a tournament."""
    return Tournament(m).out_packed


@pytest.mark.parametrize("n", TILE_EDGE_N)
def test_random_uniform_matches_the_dense_construction(n):
    for seed in (0, 1, 2):
        assert np.array_equal(random_uniform(n, seed).out_packed, _packed(ref_random_uniform(n, seed)))


@pytest.mark.parametrize("n", TILE_EDGE_N)
def test_layered_matches_the_dense_construction(n):
    for t in (0.3, 0.5, 0.9):
        for seed in (0, 1, 2):
            got = layered(LayeredSpec(N=n, t=t, seed=seed)).out_packed
            assert np.array_equal(got, _packed(ref_layered(n, layer_sizes(n, t), seed))), (t, seed)


@pytest.mark.parametrize("n", [n for n in TILE_EDGE_N if n % 2])
def test_carousel_matches_the_dense_construction(n):
    assert np.array_equal(carousel(n).out_packed, _packed(ref_carousel(n)))


def _tie_heavy_points():
    rng = np.random.default_rng(64)
    below_one = np.nextafter(1.0, 0.0)
    return {
        # coinciding points and exact half distances everywhere
        "grid64": rng.integers(0, 64, 701) / 64,
        "coinciding": np.full(513, 0.3),
        "halves": np.tile([0.0, 0.5, 0.25, 0.75], 65)[:257],
        # 0 - nextafter(1, 0) wraps to 2**-53, next to the half-distance ties
        "nextafter": rng.choice([0.0, below_one, 0.5, np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0)], 300),
        "uniform": rng.random(513),
        "single": np.array([0.0]),
    }


@pytest.mark.parametrize("name", sorted(_tie_heavy_points()))
def test_digraphon_from_points_matches_the_dense_construction(name):
    xs = _tie_heavy_points()[name]
    assert np.array_equal(digraphon_from_points(xs).out_packed, _packed(ref_digraphon(xs)))


def test_generators_match_the_dense_constructions_across_small_tiles(monkeypatch):
    # 3-wide tiles put many tile edges, and diagonal tiles cut short by n,
    # into small orders
    monkeypatch.setattr(core, "_SCAN_ROWS", 3)
    for n in range(1, 15):
        assert np.array_equal(random_uniform(n, n).out_packed, _packed(ref_random_uniform(n, n)))
        got = layered(LayeredSpec(N=n, t=0.6, seed=n)).out_packed
        assert np.array_equal(got, _packed(ref_layered(n, layer_sizes(n, 0.6), n)))
        if n % 2:
            assert np.array_equal(carousel(n).out_packed, _packed(ref_carousel(n)))
        xs = np.random.default_rng(n).integers(0, 8, n) / 8
        assert np.array_equal(digraphon_from_points(xs).out_packed, _packed(ref_digraphon(xs)))


@pytest.mark.parametrize("make", [
    lambda n: random_uniform(n, 1),
    lambda n: layered(LayeredSpec(N=n, t=0.3, seed=1)),
    carousel,
    lambda n: digraphon_sample(n, 1),
], ids=["random", "layered", "carousel", "digraphon"])
def test_generators_allocate_little_beyond_their_output(make):
    # the n x n bool matrix is the only array of that size a generator makes,
    # beside the C(n, 2) coins and the packed rows; whole-matrix masks,
    # transposes or int64/float64 matrices would each add n**2 bytes or more
    n = 2001
    make(n)
    tracemalloc.start()
    try:
        make(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.7 * n * n + (2 << 20)
