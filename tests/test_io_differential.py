"""The numpy parsers against the line-by-line reference loops in helpers.

Each generated input goes to the library and to its reference; both must
give the same tournament, or raise the same error class with the same
message.  The texts mix valid arcs and rows with comments, blank lines,
every str.splitlines line break, tabs and other whitespace, signs,
underscores, non-ASCII digits, extra tokens, non-integers, negative and
huge labels (past int64, and past int()'s digit limit), self-loops, conflicts and missing pairs, often several errors
in one file.
"""
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tourney import Tournament, from_arc_list, random_uniform
from tourney.errors import MissingArc, TourneyError
from tourney import core, io as tio
from tourney.io import dumps_trn, loads_arcs, loads_trn, read_trn

from helpers import ref_from_arc_list, ref_loads_arcs, ref_loads_trn

FUZZ = settings(max_examples=300, deadline=None, derandomize=True, database=None)

BREAKS = st.sampled_from(["\n", "\n", "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c",
                          "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
GAPS = st.sampled_from([" ", " ", "\t", "  ", " \t ", "\x1f", "\xa0", "\u3000"])
PADS = st.sampled_from(["", "", "", " ", "\t", "\xa0 "])
ODD_LABELS = ["+1", "-1", "-0", "+0", "007", "1_0", "0_1", "-1_0", "+0_0_3", "-1_2", "_1", "1_", "1__0", "x", "1.5",
              "0x1", "\u0661", "1\u0662", "+", "-", "--1", "1-", "#", "99999999999999999999",
              "-99999999999999999999", "000000000000000000000003", "1e2",
              "1" * 4300, "+" + "1" * 4300, "1" * 4301, "0" * 4301, "1_" * 4300 + "1"]
LABELS = st.one_of(st.integers(0, 7).map(str), st.sampled_from(ODD_LABELS))


def outcome(fn, *args):
    """("ok", matrix) or (error class, message)."""
    try:
        got = fn(*args)
    except (TourneyError, ValueError, OverflowError) as exc:
        return type(exc), str(exc)
    return "ok", (got.matrix() if isinstance(got, Tournament) else got).tolist()


def same_arcs_outcome(got, want) -> bool:
    if want[0] is OverflowError:
        # the loop's range(n) overflows for a label past 2**63; the pair
        # it was looking for is {0, y} for the first y no arc joins to 0
        return got[0] is MissingArc and got[1].startswith("no orientation for pair {0,")
    return got == want


@st.composite
def lines_of(draw, line):
    """A text of drawn lines joined by drawn line breaks."""
    parts = draw(st.lists(line, max_size=12))
    text = ""
    for p in parts:
        text += p + draw(BREAKS)
    return text if draw(st.booleans()) else text.rstrip("\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029")


def _tokens_line(draw, tokens):
    gaps = [draw(GAPS) for _ in tokens[1:]]
    body = tokens[0] + "".join(g + tok for g, tok in zip(gaps, tokens[1:])) if tokens else ""
    return draw(PADS) + body + draw(PADS)


@st.composite
def arc_line(draw):
    kind = draw(st.sampled_from(["arc", "arc", "arc", "odd", "count", "comment", "blank"]))
    if kind == "comment":
        return draw(PADS) + "#" + draw(st.sampled_from(["", " note", "0 1", "#"]))
    if kind == "blank":
        return draw(PADS)
    if kind == "count":
        return _tokens_line(draw, draw(st.lists(st.integers(0, 7).map(str), min_size=1, max_size=4)
                                       .filter(lambda ts: len(ts) != 2)))
    label = LABELS if kind == "odd" else st.integers(0, 7).map(str)
    return _tokens_line(draw, [draw(label), draw(label)])


@st.composite
def tournament_pairs(draw):
    """(n, arcs) of a random tournament in shuffled order, then perturbed."""
    n = draw(st.integers(1, 7))
    pairs = [(u, v) if draw(st.booleans()) else (v, u) for u in range(n) for v in range(u + 1, n)]
    pairs = draw(st.permutations(pairs))
    edits = draw(st.lists(st.sampled_from(["drop", "reverse", "loop", "far", "repeat"]), max_size=3))
    for edit in edits:
        at = draw(st.integers(0, len(pairs)))
        if edit == "drop" and pairs:
            pairs.pop(at % len(pairs))
        elif edit == "reverse" and pairs:
            u, v = pairs[at % len(pairs)]
            pairs.insert(at, (v, u))
        elif edit == "loop":
            pairs.insert(at, (draw(st.integers(0, n)),) * 2)
        elif edit == "far":
            pairs.insert(at, (draw(st.integers(-1, n - 1)), n + draw(st.integers(0, 2))))
        elif edit == "repeat" and pairs:
            pairs.insert(at, pairs[at % len(pairs)])
    return n, pairs


@st.composite
def tournament_arcs(draw):
    """The arc lines of tournament_pairs, sometimes with a comment."""
    _, pairs = draw(tournament_pairs())
    lines = [_tokens_line(draw, [str(u), str(v)]) for u, v in pairs]
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), "# comment")
    return "".join(ln + draw(BREAKS) for ln in lines)


ARC_TEXTS = st.one_of(lines_of(arc_line()), tournament_arcs())
GIVEN_N = st.one_of(st.none(), st.integers(1, 9))


@FUZZ
@given(ARC_TEXTS, GIVEN_N, st.sampled_from([tio._CHUNK, 1, 2, 5, 16]))
def test_loads_arcs_matches_reference(text, n, chunk):
    # small chunks put chunk edges inside the text, next to every line break
    with mock.patch.object(tio, "_CHUNK", chunk):
        got = outcome(loads_arcs, text, n)
    assert same_arcs_outcome(got, outcome(ref_loads_arcs, text, n))


@st.composite
def trn_text(draw):
    n = draw(st.integers(1, 6))
    header = draw(st.sampled_from([str(n)] * 20 + [f" {n} ", f"+{n}", "x", "0", "-1", str(n + 1), "2_0"]))
    rows = []
    for u in range(n):
        row = ["1" if draw(st.booleans()) else "0" for _ in range(n)]
        row[u] = "0"
        rows.append(row)
    for u in range(n):  # mostly a tournament: the lower triangle mirrors the upper
        for v in range(u):
            if draw(st.integers(0, 9)):
                rows[u][v] = "0" if rows[v][u] == "1" else "1"
    edits = draw(st.lists(st.sampled_from(["char", "short", "long", "blank", "drop", "space"]), max_size=3))
    rows = ["".join(r) for r in rows]
    for edit in edits:
        u = draw(st.integers(0, n - 1)) % len(rows) if rows else 0
        if not rows:
            break
        if edit == "char":
            at = draw(st.integers(0, n - 1))
            bad = draw(st.sampled_from(["2", "x", " ", "\xe9", "\u0661", "\t"]))
            rows[u] = rows[u][:at] + bad + rows[u][at + 1:]
        elif edit == "short":
            rows[u] = rows[u][:-1]
        elif edit == "long":
            rows[u] += "0"
        elif edit == "blank":
            rows.insert(u, draw(PADS))
        elif edit == "drop":
            rows.pop(u)
        elif edit == "space":
            rows[u] = draw(PADS) + rows[u] + draw(PADS)
    return "".join(line + draw(BREAKS) for line in [header, *rows])


# the default, and row blocks small enough that a scan crosses several
SCAN_ROWS = st.sampled_from([core._SCAN_ROWS, 1, 2, 3])


@FUZZ
@given(trn_text(), SCAN_ROWS)
def test_loads_trn_matches_reference(text, rows):
    with mock.patch.object(core, "_SCAN_ROWS", rows):
        got = outcome(loads_trn, text)
    assert got == outcome(ref_loads_trn, text)


def _planted(n: int, *edits) -> str:
    """dumps_trn of random_uniform(n, n) with the given (u, v, bit) cells set."""
    m = random_uniform(n, seed=n).matrix()
    for u, v, bit in edits:
        m[u, v] = bit
    return f"{n}\n" + "".join("".join("01"[int(b)] for b in row) + "\n" for row in m)


# texts in exactly dumps_trn's layout: valid, a self-loop, a missing pair, and
# two conflicts in different tiles of one row band at either tile side, where
# the later tile holds the lexicographically first pair
CANONICAL = [dumps_trn(random_uniform(n, seed=n)) for n in (1, 2, 7, 63, 64, 65, 300)] + [
    _planted(7, (3, 3, 1)),
    _planted(65, (5, 9, 0), (9, 5, 0)),
    _planted(300, (2, 10, 1), (10, 2, 1), (1, 280, 1), (280, 1, 1)),
]
_T7 = dumps_trn(random_uniform(7, seed=7))
# texts that differ from that layout in one way; the line parser reads them
NEAR_CANONICAL = [
    _T7.replace("\n", "\r\n"),
    _T7.replace("\n", " \n", 2),
    "+" + _T7,
    "0" + _T7,
    "1" * (getattr(sys, "get_int_max_str_digits", lambda: 4300)() + 1) + _T7[1:],
    _T7[:-1],
    _T7[:-1] + "0",
    _T7 + "\n",
    _T7[:5] + "2" + _T7[6:],
    _T7[:5] + "\xe9" + _T7[6:],
    "1000000" + _T7[1:26],
]


@pytest.mark.parametrize("rows", [core._SCAN_ROWS, 4])
def test_canonical_trn_matches_reference(rows, tmp_path):
    def file_ref(path):  # the file's text, as the line parser has always read it
        with open(path, encoding="utf-8") as fh:
            return ref_loads_trn(fh.read())

    path = tmp_path / "t.trn"
    with mock.patch.object(core, "_SCAN_ROWS", rows):
        for text in CANONICAL + NEAR_CANONICAL:
            assert (tio._canonical_trn(text.encode()) is not None) == (text in CANONICAL)
            want = outcome(ref_loads_trn, text)
            assert outcome(loads_trn, text) == want, text[:40]
            path.write_bytes(text.encode())
            assert outcome(read_trn, path) == outcome(file_ref, path) == want, text[:40]
        # bytes that are not UTF-8 fail as they always have
        path.write_bytes(_T7[:5].encode() + b"\xff" + _T7[6:].encode())
        assert outcome(read_trn, path) == outcome(file_ref, path)


ARC_PAIRS = st.one_of(
    tournament_pairs().flatmap(lambda np_: st.tuples(st.sampled_from([np_[0], np_[0] + 1]), st.just(np_[1]))),
    st.tuples(st.integers(0, 6), st.lists(st.tuples(st.integers(-2, 7), st.integers(-2, 7)), max_size=30)))


@FUZZ
@given(ARC_PAIRS, st.booleans(), SCAN_ROWS)
def test_from_arc_list_matches_reference(n_pairs, as_array, rows):
    n, pairs = n_pairs
    arcs = np.array(pairs, dtype=np.int64).reshape(-1, 2) if as_array else iter(pairs)
    with mock.patch.object(core, "_SCAN_ROWS", rows):
        got = outcome(from_arc_list, n, arcs)
    assert got == outcome(ref_from_arc_list, n, pairs)


def test_from_arc_list_labels_past_int64():
    for arcs in ([(0, 2**70)], [(-2**80, 1)], [(0, 1), (2**64, 2**64)]):
        assert outcome(from_arc_list, 3, arcs) == outcome(ref_from_arc_list, 3, arcs)


def test_each_odd_label_in_place_of_a_vertex():
    # transitive(3) with one label written oddly: a label that int() reads
    # as 1 or 2 keeps the tournament, any other gives the reference's error
    labels = ODD_LABELS + ["+2", "0_2", "+0_0_2", "0" * 22 + "2", "1" + "0" * 20 + "2", "-2", "2_0"]
    for label in labels:
        for text in (f"0 1\n0 {label}\n1 2\n", f"0 1\n0 2\n{label} 2\n"):
            for n in (None, 3, 30):
                assert same_arcs_outcome(outcome(loads_arcs, text, n), outcome(ref_loads_arcs, text, n)), (text, n)
