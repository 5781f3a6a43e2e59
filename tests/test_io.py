"""Text formats: .trn matrices and arc lists."""
import json
import os
import random
import subprocess
import sys
import threading

import numpy as np
import pytest

from tourney import carousel, random_uniform, transitive
from tourney import io as tio
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


def test_canonical_trn_reads_a_bytearray_in_its_own_bytes():
    text = dumps_trn(random_uniform(70, seed=3))
    data = bytearray(text, "ascii")
    bits = tio._canonical_trn(data)
    assert np.shares_memory(bits, np.frombuffer(data, dtype=np.uint8))
    assert np.array_equal(bits, random_uniform(70, seed=3).matrix())
    # read-only bytes are left as they are
    raw = text.encode()
    assert np.array_equal(tio._canonical_trn(raw), bits) and raw.decode() == text


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_read_trn_reads_a_pipe(tmp_path):
    # a pipe's size reads 0 before its text arrives
    path = tmp_path / "in.trn"
    os.mkfifo(path)
    writer = threading.Thread(target=path.write_text, args=(dumps_trn(carousel(65)),), daemon=True)
    writer.start()
    assert read_trn(path) == carousel(65)
    writer.join(timeout=10)
    assert not writer.is_alive()


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


def test_arcs_dumps_matches_per_arc_reference(monkeypatch):
    for rows in (tio._DUMP_ROWS, 3):  # the default, and blocks that end mid-file
        monkeypatch.setattr(tio, "_DUMP_ROWS", rows)
        for n in (1, 2, 9, 10, 11, 101):
            t = random_uniform(n, seed=n)
            u, v = np.nonzero(t.matrix())
            assert dumps_arcs(t) == "".join(f"{a} {b}\n" for a, b in zip(u.tolist(), v.tolist()))


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


def _malformed_inputs(rng: random.Random) -> dict:
    """Seeded malformed .trn and arc-list files: name -> bytes."""
    files = {}
    for k in range(60):
        n = rng.choice([1, 2, 3, 5, 8, 17, 40])
        t = random_uniform(n, seed=k)
        rows = dumps_trn(t).splitlines()
        arcs = dumps_arcs(t).splitlines()
        if n > 1 and rng.random() < 0.5:  # a pair oriented both ways, or neither
            u, v = rng.sample(range(1, n + 1), 2)
            bit = rng.choice("01")
            rows[u] = rows[u][:v - 1] + bit + rows[u][v:]
            rows[v] = rows[v][:u - 1] + bit + rows[v][u:]
        for _ in range(rng.randint(1, 3)):  # each edit alone spoils the file
            u = rng.randrange(1, len(rows)) if len(rows) > 1 else 0
            edit = rng.choice(["char", "drop", "long", "header", "blank"])
            if edit == "char":
                at = rng.randrange(n)
                rows[u] = rows[u][:at] + rng.choice("2x\xe9\u0661\x00-#") + rows[u][at + 1:]
            elif edit == "drop" and len(rows) > 1:
                rows.pop(rng.randrange(1, len(rows)))
            elif edit == "long":
                rows[u] += rng.choice("01x")
            elif edit == "header":
                rows[0] = rng.choice([str(n + 1), "0", "-3", "x", "1e9", "4000000", "99999999999999999999"])
            else:
                rows[rng.randrange(len(rows))] = rng.choice(["", "  ", "\x0c"])
        files[f"f{k}.trn"] = "\n".join(rows).encode()
        for _ in range(rng.randint(1, 3)):
            at = rng.randrange(len(arcs) + 1)
            u, v = rng.randrange(n), rng.randrange(n)
            edit = rng.choice(["drop", "reverse", "loop", "three", "word", "negative", "far", "huge"])
            if edit == "drop" and n > 2:
                arcs.pop(rng.randrange(len(arcs)))
            elif edit == "reverse" and arcs:
                a, b = rng.choice(arcs).split()
                arcs.insert(at, f"{b} {a}")
            elif edit == "loop":
                arcs.insert(at, f"{u} {u}")
            elif edit == "three":
                arcs.insert(at, f"{u} {v} {u}")
            elif edit == "word":
                arcs.insert(at, rng.choice([f"{u} x", "0x1 2", "1.5 2", "+ 1", "1__2 3"]))
            elif edit == "negative":
                arcs.insert(at, f"-{u + 1} {v}")
            elif edit == "far":
                arcs.insert(at, f"{u} {rng.choice([n + 1, 3000, 4000000])}")
            else:
                arcs.insert(at, f"{u} {'9' * rng.choice([19, 40, 5000])}")
        files[f"f{k}.arcs"] = "\r\n".join(arcs).encode() if k % 4 == 0 else "\n".join(arcs).encode()
    files["utf8.trn"] = b"2\n0\xff\n00\n"
    files["utf8.arcs"] = b"0 1\n\xfe\n"
    files["long-line.arcs"] = ("0 " * 200_000).encode()
    files["long-token.arcs"] = b"1" * 2_000_000 + b" 2\n"
    files["many-rows.trn"] = b"3000\n" + b"0" * 3000 + b"\n"
    return files


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux VmHWM")
def test_cli_rejects_malformed_files_within_a_memory_ceiling(tmp_path):
    # every malformed file makes convert (and stats, on .trn) exit 1 or 2
    # with an "error:" line and no traceback; a fresh child runs them all
    # and reports the peak of its own address space (VmHWM)
    files = _malformed_inputs(random.Random(7))
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    argvs = [["convert", name, "out.arcs" if name.endswith(".trn") else "out.trn"] for name in files]
    argvs += [["stats", name] for name in files if name.endswith(".trn")]
    (tmp_path / "argvs.json").write_text(json.dumps(argvs))
    child = (
        "import contextlib, io, json\n"
        "from tourney.cli import main\n"
        "results = []\n"
        "for argv in json.load(open('argvs.json')):\n"
        "    err = io.StringIO()\n"
        "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):\n"
        "        try:\n"
        "            code = main(argv)\n"
        "        except BaseException as exc:\n"
        "            code = type(exc).__name__\n"
        "    results.append([argv, code, err.getvalue()[:200]])\n"
        "hwm = [ln for ln in open('/proc/self/status') if ln.startswith('VmHWM:')]\n"
        "print(json.dumps({'results': results, 'peak_kib': int(hwm[0].split()[1])}))\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    done = subprocess.run([sys.executable, "-c", child], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    for argv, code, err in report["results"]:
        assert code in (1, 2), (argv, code, err)
        assert err.startswith("error: ") and "Traceback" not in err, (argv, err)
    assert len(report["results"]) == len(argvs)
    assert report["peak_kib"] < 100 * 1024
