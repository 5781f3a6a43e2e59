"""Construction, validation, and small-order classification."""
import numpy as np
import pytest

from tourney import _bits, core
from tourney import (
    SmallClass3,
    SmallClass4,
    Tournament,
    carousel,
    classify3,
    classify4,
    from_arc_list,
    induced,
    random_uniform,
    score_sequence,
    transitive,
)
from tourney.errors import (
    ConflictingArc,
    MissingArc,
    SelfLoop,
    UnrecognizedScoreSequence,
    VertexOutOfRange,
    WrongOrder,
)
from tourney.io import dumps_arcs

from helpers import _perm_tables, all_tournaments, tournament_from_code


def test_matrix_roundtrip():
    rng = np.random.default_rng(0)
    for n in (1, 2, 3, 17, 64, 65, 129):
        t = random_uniform(n, seed=int(rng.integers(2**31)))
        m = t.matrix()
        assert m.shape == (n, n)
        assert Tournament(m) == t
        assert np.array_equal(Tournament(m).matrix(), m)


def test_constructor_rejects_self_loop():
    m = transitive(4).matrix().copy()
    m[2, 2] = True
    with pytest.raises(SelfLoop, match="vertex 2"):
        Tournament(m)


def test_constructor_rejects_double_orientation():
    m = transitive(4).matrix().copy()
    m[1, 0] = True
    with pytest.raises(ConflictingArc, match=r"\{0,1\}"):
        Tournament(m)


def test_constructor_rejects_missing_pair():
    m = transitive(4).matrix().copy()
    m[0, 3] = False
    with pytest.raises(MissingArc, match=r"\{0,3\}"):
        Tournament(m)


def test_constructor_rejects_non_square_and_empty():
    with pytest.raises(ValueError):
        Tournament(np.zeros((2, 3), dtype=bool))
    with pytest.raises(ValueError):
        Tournament(np.zeros((0, 0), dtype=bool))


def test_single_vertex():
    t = Tournament(np.zeros((1, 1), dtype=bool))
    assert t.n == 1
    assert dumps_arcs(t) == ""
    assert np.nonzero(t.matrix())[0].size == 0
    assert score_sequence(t) == (0,)


def test_from_arc_list_happy_path():
    t = from_arc_list(3, [(0, 1), (1, 2), (2, 0)])
    assert classify3(t) == SmallClass3.C3
    # duplicate same-orientation arcs are tolerated
    t2 = from_arc_list(3, [(0, 1), (0, 1), (1, 2), (2, 0)])
    assert t2 == t


def test_from_arc_list_errors():
    with pytest.raises(VertexOutOfRange):
        from_arc_list(3, [(0, 3)])
    with pytest.raises(VertexOutOfRange):
        from_arc_list(3, [(-1, 0)])
    with pytest.raises(SelfLoop):
        from_arc_list(3, [(1, 1)])
    with pytest.raises(ConflictingArc):
        from_arc_list(3, [(0, 1), (1, 0)])
    with pytest.raises(MissingArc):
        from_arc_list(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        from_arc_list(0, [])


def test_from_arc_list_names_the_earliest_offending_arc():
    # arcs are judged in order: the first arc that is out of range, a
    # self-loop, or the reverse of an earlier arc decides the error
    with pytest.raises(ConflictingArc, match=r"\{0,1\}"):
        from_arc_list(3, [(0, 1), (1, 0), (2, 2)])
    with pytest.raises(SelfLoop, match="vertex 2"):
        from_arc_list(3, [(2, 2), (0, 1), (1, 0)])
    with pytest.raises(ConflictingArc, match=r"\{2,3\}"):
        from_arc_list(4, [(0, 1), (2, 3), (3, 2), (1, 0)])
    with pytest.raises(ConflictingArc, match=r"\{0,1\}"):
        from_arc_list(3, [(0, 1), (1, 0), (0, 7)])
    with pytest.raises(VertexOutOfRange, match="vertex 7 outside 0..2"):
        from_arc_list(3, [(0, 1), (0, 7), (1, 0)])
    # the reversed-pair order again, through an int64 array
    with pytest.raises(ConflictingArc, match=r"\{2,3\}"):
        from_arc_list(4, np.array([(0, 1), (2, 3), (3, 2), (1, 0)]))


def test_has_arc_and_neighbors():
    t = carousel(7)
    for u in range(7):
        outs = set((u + k) % 7 for k in (1, 2, 3))
        assert set(t.out_neighbors(u).tolist()) == outs
        assert set(t.in_neighbors(u).tolist()) == set(range(7)) - outs - {u}
        for v in range(7):
            if v != u:
                assert t.has_arc(u, v) == (v in outs)
    with pytest.raises(VertexOutOfRange):
        t.has_arc(0, 7)
    with pytest.raises(VertexOutOfRange):
        t.out_neighbors(-1)


@pytest.mark.parametrize("n", [7, 8, 9, 63, 64, 65, 129])
def test_test_bits_and_has_arc_match_the_matrix_on_every_pair(n):
    # n = 7, 8, 9 end a row inside, at and past its first byte; 63, 64, 65
    # and 129 at a word's edge
    t = random_uniform(n, seed=n)
    m = t.matrix()
    u, v = np.divmod(np.arange(n * n), n)
    got = _bits.test_bits(t.out_packed, u, v)
    assert got.dtype == bool and np.array_equal(got, m.ravel())
    assert np.array_equal(_bits.test_bits(t.out_packed, u.astype(np.int32), v.astype(np.int32)), m.ravel())
    assert [t.has_arc(int(a), int(b)) for a, b in zip(u, v)] == m.ravel().tolist()


def test_first_pair_takes_the_least_pair_of_a_band_not_of_its_first_tile(monkeypatch):
    # with 4-row tiles, rows 0..3 form one band; its tile of columns 8..11
    # is scanned before the one of columns 40..43, yet {1,40} comes first
    monkeypatch.setattr(core, "_SCAN_ROWS", 4)
    m = transitive(65).matrix()
    m[10, 2] = m[40, 1] = True
    assert core._first_pair(m, np.logical_and) == (1, 40)
    with pytest.raises(ConflictingArc, match=r"\{1,40\}"):
        Tournament(m)
    m = transitive(65).matrix()
    m[2, 10] = m[1, 40] = False
    with pytest.raises(MissingArc, match=r"\{1,40\}"):
        Tournament(m)


def test_arcs_lexicographic_and_complete():
    t = random_uniform(9, seed=5)
    arcs = [tuple(map(int, ln.split())) for ln in dumps_arcs(t).splitlines()]
    assert arcs == sorted(arcs)
    assert len(arcs) == 9 * 8 // 2
    assert all(t.has_arc(u, v) for u, v in arcs)
    assert arcs == list(zip(*(idx.tolist() for idx in np.nonzero(t.matrix()))))


def test_outdegrees_match_matrix():
    rng = np.random.default_rng(7)
    for n in (2, 33, 64, 100):
        t = random_uniform(n, seed=int(rng.integers(2**31)))
        assert np.array_equal(t.outdegrees(), t.matrix().sum(axis=1))


def test_induced_relabels_by_ascending_index():
    t = carousel(9)
    s = induced(t, [8, 0, 4])
    # subset sorted to (0, 4, 8); in carousel(9): 0->4, 4->8, 8->0
    assert s.n == 3
    assert s.has_arc(0, 1) and s.has_arc(1, 2) and s.has_arc(2, 0)
    assert classify3(s) == SmallClass3.C3


def test_induced_validation():
    t = carousel(5)
    with pytest.raises(VertexOutOfRange):
        induced(t, [0, 5])
    with pytest.raises(ValueError):
        induced(t, [])
    # duplicates collapse
    assert induced(t, [1, 1, 2]).n == 2


def test_score_sequence_known():
    assert score_sequence(transitive(5)) == (0, 1, 2, 3, 4)
    assert score_sequence(carousel(7)) == (3, 3, 3, 3, 3, 3, 3)


def test_classify3_both_classes():
    assert classify3(from_arc_list(3, [(0, 1), (0, 2), (1, 2)])) == SmallClass3.TR3
    assert classify3(from_arc_list(3, [(0, 1), (1, 2), (2, 0)])) == SmallClass3.C3
    with pytest.raises(WrongOrder):
        classify3(transitive(4))


def test_classify4_all_classes():
    got = sorted(classify4(t).value for t in all_tournaments(4))
    assert got == ["L4", "R4", "TR4", "W4"]
    with pytest.raises(WrongOrder):
        classify4(transitive(5))


def test_classify4_separates_exactly_the_isomorphism_classes():
    # all 64 labelled 4-tournaments, each canonicalised by brute minimum of
    # its pair-bit code over the 24 relabellings: same class iff same code
    gathers, flips = _perm_tables(4)
    weights = 1 << np.arange(5, -1, -1)
    codes = np.arange(64)
    bits = ((codes[:, None] >> np.arange(5, -1, -1)) & 1).astype(bool)
    canon = ((bits[:, gathers] ^ flips) @ weights).min(axis=1)
    classes = [classify4(tournament_from_code(int(c), 4)) for c in codes]
    assert len(set(canon.tolist())) == 4
    for a in range(64):
        for b in range(64):
            assert (classes[a] == classes[b]) == (canon[a] == canon[b])


def test_classify4_matches_score_key_on_random():
    rng = np.random.default_rng(3)
    for _ in range(50):
        t = random_uniform(4, seed=int(rng.integers(2**31)))
        cls = classify4(t)
        key = {SmallClass4.TR4: (0, 1, 2, 3), SmallClass4.W4: (1, 1, 1, 3),
               SmallClass4.L4: (0, 2, 2, 2), SmallClass4.R4: (1, 1, 2, 2)}[cls]
        assert score_sequence(t) == key


def test_equality_and_hash():
    a = carousel(7)
    b = carousel(7)
    c = transitive(7)
    assert a == b and hash(a) == hash(b)
    assert a != c
    assert a != transitive(5)
    assert len({a, b, c}) == 2


@pytest.mark.parametrize("n", [5, 64, 128])
def test_constructor_takes_a_column_major_matrix(n):
    # packbits keeps the input's memory order; at n = 64k its words used to
    # be viewed from non-contiguous bytes
    t = random_uniform(n, seed=n)
    assert Tournament(np.asfortranarray(t.matrix())) == t
    assert Tournament(t.matrix().T).matrix().tolist() == t.matrix().T.tolist()
