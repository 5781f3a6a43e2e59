"""Text formats: .trn matrices and arc lists."""
import os
import subprocess
import sys

import numpy as np
import pytest

from tourney import carousel, random_uniform, transitive
from tourney.errors import ConflictingArc, MissingArc, SelfLoop, TourneyError
from tourney.io import (
    dumps_arcs,
    dumps_trn,
    loads_arcs,
    loads_trn,
    read_arcs,
    read_trn,
    write_arcs,
    write_trn,
)


def test_trn_dumps_known_bytes():
    t = carousel(5)
    assert dumps_trn(t) == "5\n01100\n00110\n00011\n10001\n11000\n"


def test_trn_dumps_matches_per_character_reference():
    for n in (1, 2, 63, 64, 65):
        t = random_uniform(n, seed=n)
        rows = ("".join("1" if b else "0" for b in row) for row in t.matrix())
        assert dumps_trn(t) == "\n".join([str(n), *rows]) + "\n"


def test_trn_string_roundtrip():
    rng = np.random.default_rng(2)
    for n in (1, 2, 7, 63, 64, 65, 130):
        t = random_uniform(n, seed=int(rng.integers(2**31)))
        assert loads_trn(dumps_trn(t)) == t


def test_trn_file_roundtrip_byte_identical(tmp_path):
    t = random_uniform(40, seed=9)
    p1 = tmp_path / "a.trn"
    p2 = tmp_path / "b.trn"
    write_trn(t, p1)
    write_trn(read_trn(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_trn_tolerates_blank_lines_and_whitespace():
    text = "3\n\n011\n001  \n000\n\n"
    t = loads_trn(text)
    assert t == transitive(3)


def test_trn_parse_errors():
    with pytest.raises(TourneyError, match="empty"):
        loads_trn("")
    with pytest.raises(TourneyError, match="vertex count"):
        loads_trn("abc\n01\n00\n")
    with pytest.raises(TourneyError, match=">= 1"):
        loads_trn("0\n")
    with pytest.raises(TourneyError, match="expected 3 matrix rows"):
        loads_trn("3\n011\n001\n")
    with pytest.raises(TourneyError, match="row 1 has 2 columns"):
        loads_trn("3\n011\n00\n000\n")
    with pytest.raises(TourneyError, match="invalid character"):
        loads_trn("3\n011\n0x1\n000\n")


def test_trn_enforces_tournament_invariants():
    with pytest.raises(SelfLoop):
        loads_trn("2\n11\n00\n")
    with pytest.raises(ConflictingArc):
        loads_trn("2\n01\n10\n")
    with pytest.raises(MissingArc):
        loads_trn("2\n00\n00\n")


def test_arcs_dumps_lexicographic():
    t = carousel(5)
    lines = dumps_arcs(t).splitlines()
    assert lines[0] == "0 1"
    assert lines == sorted(lines, key=lambda s: tuple(map(int, s.split())))
    assert len(lines) == 10


def test_arcs_roundtrip_with_and_without_n():
    t = random_uniform(11, seed=4)
    text = dumps_arcs(t)
    assert loads_arcs(text) == t
    assert loads_arcs(text, n=11) == t


def test_arcs_comments_and_blanks_ignored():
    text = "# a 3-cycle\n0 1\n\n1 2\n# middle\n2 0\n"
    t = loads_arcs(text)
    assert t.n == 3


def test_arcs_parse_errors():
    with pytest.raises(TourneyError, match="expected 'u v'"):
        loads_arcs("0 1 2\n")
    with pytest.raises(TourneyError, match="integers"):
        loads_arcs("0 x\n")
    with pytest.raises(TourneyError, match="empty arc list"):
        loads_arcs("# only comments\n")
    # inferred n=2 is complete with one arc; an explicit n=3 is not
    assert loads_arcs("0 1\n").n == 2
    with pytest.raises(MissingArc):
        loads_arcs("0 1\n", n=3)
    # n inferred from a label: the first missing pair is named, duplicates
    # of one orientation still count once
    with pytest.raises(MissingArc, match=r"pair \{1,2\}"):
        loads_arcs("0 1\n0 1\n2 0\n0 3\n")
    with pytest.raises(MissingArc, match=r"pair \{0,1\}"):
        loads_arcs("0 3000\n")
    assert loads_arcs("0 1\n0 1\n2 0\n1 2\n").n == 3


def test_arcs_file_roundtrip(tmp_path):
    t = random_uniform(9, seed=1)
    p = tmp_path / "t.arcs"
    write_arcs(t, p)
    assert read_arcs(p) == t


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux VmHWM")
def test_arcs_missing_pairs_found_before_sizing_by_label(tmp_path):
    # one arc whose label implies n = 3001: convert must name the missing
    # pair without an n x n allocation, so the child stays small.  The
    # child reports VmHWM, the peak of its own address space: on Linux its
    # ru_maxrss would also carry the peak of the process that spawned it.
    (tmp_path / "big.arcs").write_text("0 3000\n")
    child = (
        "from tourney.cli import main\n"
        "code = main(['convert', 'big.arcs', 'big.trn'])\n"
        "hwm = [ln for ln in open('/proc/self/status') if ln.startswith('VmHWM:')]\n"
        "print(code, hwm[0].split()[1])\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    done = subprocess.run([sys.executable, "-c", child], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    code, peak_kib = map(int, done.stdout.split())
    assert code == 2
    assert done.stderr == "error: parse error in big.arcs: no orientation for pair {0,1}\n"
    assert peak_kib < 100 * 1024
