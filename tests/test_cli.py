"""Command-line surface: exit codes, JSON shape, file round trips."""
import hashlib
import json

import numpy as np
import pytest

from tourney import carousel, transitive
from tourney.cli import main
from tourney.io import dumps_trn, read_trn


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    lines = [ln for ln in out.splitlines() if ln]
    assert len(lines) == 1
    obj = json.loads(lines[0])
    assert obj["schema"] == 1
    return obj


class TestGen:
    def test_carousel(self, capsys, tmp_path):
        p = tmp_path / "c.trn"
        obj = run_json(capsys, "gen", "--kind", "carousel", "--n", "9", "-o", str(p))
        assert obj["kind"] == "carousel" and obj["n"] == 9
        assert obj["sha256"] == hashlib.sha256(p.read_bytes()).hexdigest()
        assert read_trn(p) == carousel(9)

    def test_even_carousel_exits_1(self, capsys, tmp_path):
        code, out, err = run(capsys, "gen", "--kind", "carousel", "--n", "10",
                             "-o", str(tmp_path / "x.trn"))
        assert code == 1
        assert "EvenOrder" in err
        assert out == ""

    def test_layered_needs_t(self, capsys, tmp_path):
        code, _, err = run(capsys, "gen", "--kind", "layered", "--n", "10",
                           "-o", str(tmp_path / "x.trn"))
        assert code == 1
        assert "--t" in err

    def test_seed_accepts_hex(self, capsys, tmp_path):
        p1, p2 = tmp_path / "a.trn", tmp_path / "b.trn"
        o1 = run_json(capsys, "gen", "--kind", "random", "--n", "20",
                      "--seed", "0x2a", "-o", str(p1))
        o2 = run_json(capsys, "gen", "--kind", "random", "--n", "20",
                      "--seed", "42", "-o", str(p2))
        assert o1["seed"] == o2["seed"] == 42
        assert p1.read_bytes() == p2.read_bytes()

    def test_reproducible_across_runs(self, capsys, tmp_path):
        args = ("gen", "--kind", "digraphon", "--n", "31", "--seed", "7")
        a = run_json(capsys, *args, "-o", str(tmp_path / "a.trn"))
        b = run_json(capsys, *args, "-o", str(tmp_path / "b.trn"))
        assert a["sha256"] == b["sha256"]

    def test_unwritable_out_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "gen", "--kind", "transitive", "--n", "5",
                           "-o", str(tmp_path / "no" / "dir" / "x.trn"))
        assert code == 2
        assert "cannot write" in err


class TestStats:
    def test_carousel5_exact(self, capsys, tmp_path):
        p = tmp_path / "c5.trn"
        p.write_text(dumps_trn(carousel(5)))
        obj = run_json(capsys, "stats", str(p))
        assert (obj["tr3"], obj["c3"]) == (5, 5)
        assert (obj["tr4"], obj["w4"], obj["l4"], obj["r4"]) == (0, 0, 0, 5)
        assert obj["densities"]["r4"] == {"num": 5, "den": 5, "float": 1.0}

    def test_transitive6(self, capsys, tmp_path):
        p = tmp_path / "t6.trn"
        p.write_text(dumps_trn(transitive(6)))
        obj = run_json(capsys, "stats", str(p))
        assert obj["tr4"] == 15
        assert obj["w4"] == obj["l4"] == obj["r4"] == 0

    def test_orders_3_only(self, capsys, tmp_path):
        p = tmp_path / "c9.trn"
        p.write_text(dumps_trn(carousel(9)))
        obj = run_json(capsys, "stats", str(p), "--orders", "3")
        assert "tr4" not in obj

    def test_bad_orders_exits_1(self, capsys, tmp_path):
        p = tmp_path / "c9.trn"
        p.write_text(dumps_trn(carousel(9)))
        code, _, err = run(capsys, "stats", str(p), "--orders", "5")
        assert code == 1

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run(capsys, "stats", "nope.trn")
        assert code == 2
        assert "cannot read" in err

    def test_corrupt_file_exits_2(self, capsys, tmp_path):
        p = tmp_path / "bad.trn"
        p.write_text("3\n011\n001\n00x\n")
        code, _, err = run(capsys, "stats", str(p))
        assert code == 2
        assert "parse error" in err

    def test_forced_sampling(self, capsys, tmp_path):
        p = tmp_path / "c101.trn"
        p.write_text(dumps_trn(carousel(101)))
        obj = run_json(capsys, "stats", str(p), "--sample", "30000", "--seed", "3")
        assert obj["sampled"]["samples"] == 30000
        assert obj["sampled"]["p_w4"] == 0.0
        assert obj["sampled"]["p_r4"] == pytest.approx(2_103_325 / 4_082_925, abs=0.02)
        assert "tr4" not in obj

    def test_auto_sampling_above_budget(self, capsys, tmp_path):
        p = tmp_path / "c51.trn"
        p.write_text(dumps_trn(carousel(51)))
        code, out, err = run(capsys, "stats", str(p), "--exact-limit", "40")
        assert code == 0
        assert "above exact budget" in err
        assert "sampled" in json.loads(out)


class TestArcflags:
    def test_carousel_csv_and_moments(self, capsys, tmp_path):
        p = tmp_path / "c101.trn"
        p.write_text(dumps_trn(carousel(101)))
        o = tmp_path / "c.csv"
        obj = run_json(capsys, "arcflags", str(p), "--flag", "c", "-o", str(o))
        lines = o.read_text().splitlines()
        assert lines[0] == "value,count"
        assert len(lines) == 51  # 50 distinct values
        assert all(int(ln.split(",")[1]) == 101 for ln in lines[1:])
        assert obj["reference"] == {"kind": "uniform", "param": 0.5}
        assert obj["arcs"] == 101 * 50
        # mean of i/99 over i=1..50 is 51/198
        assert obj["mean"] == pytest.approx(51 / 198)

    def test_random_profile_reference(self, capsys, tmp_path):
        p = tmp_path / "t.trn"
        p.write_text(dumps_trn(transitive(30)))
        o = tmp_path / "t.csv"
        obj = run_json(capsys, "arcflags", str(p), "--flag", "oi",
                       "--profile", "random", "-o", str(o))
        assert obj["reference"] == {"kind": "point_mass", "param": 0.5}

    def test_binned_output(self, capsys, tmp_path):
        p = tmp_path / "c.trn"
        p.write_text(dumps_trn(carousel(51)))
        o = tmp_path / "b.csv"
        run_json(capsys, "arcflags", str(p), "--flag", "c", "--bins", "10", "-o", str(o))
        lines = o.read_text().splitlines()
        assert lines[0] == "bin_lo,bin_hi,count"
        assert len(lines) == 11


class TestCheck:
    def test_carousel_passes(self, capsys, tmp_path):
        p = tmp_path / "c.trn"
        p.write_text(dumps_trn(carousel(301)))
        code, out, err = run(capsys, "check", str(p), "--profile", "carousel")
        assert code == 0
        obj = json.loads(out)
        assert obj["passed"] is True
        assert "PASS" in err

    def test_failing_profile_still_exits_0(self, capsys, tmp_path):
        p = tmp_path / "t.trn"
        p.write_text(dumps_trn(transitive(301)))
        code, out, err = run(capsys, "check", str(p), "--profile", "carousel")
        assert code == 0
        obj = json.loads(out)
        assert obj["passed"] is False
        assert "FAIL" in err

    def test_config_file_and_flag_precedence(self, capsys, tmp_path):
        p = tmp_path / "c.trn"
        p.write_text(dumps_trn(carousel(101)))
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("# comment\neps = 0.01\ndelta = 0.2\n")
        obj = run_json(capsys, "check", str(p), "--profile", "carousel",
                       "--config", str(cfg), "--eps", "0.3")
        assert obj["provenance"]["eps"] == 0.3   # flag wins over file
        assert obj["provenance"]["delta"] == 0.2

    def test_config_file_bad_key(self, capsys, tmp_path):
        p = tmp_path / "c.trn"
        p.write_text(dumps_trn(carousel(101)))
        cfg = tmp_path / "cfg.txt"
        for line in ("nope = 3\n", "bins = 3\n"):
            cfg.write_text(line)
            code, _, err = run(capsys, "check", str(p), "--profile", "carousel",
                               "--config", str(cfg))
            assert code == 1
            assert "unknown key" in err

    def test_bins_flag_rejected(self, capsys, tmp_path):
        p = tmp_path / "c.trn"
        p.write_text(dumps_trn(carousel(101)))
        code, out, _ = run(capsys, "check", str(p), "--profile", "carousel", "--bins", "7")
        assert code == 1
        assert out == ""


class TestLoctrans:
    def test_carousel(self, capsys, tmp_path):
        p = tmp_path / "c.trn"
        p.write_text(dumps_trn(carousel(9)))
        obj = run_json(capsys, "loctrans", str(p))
        assert obj["locally_transitive"] is True
        assert obj["cyclic_order"] == list(range(9))
        assert obj["carousel_isomorphism"] == list(range(9))

    def test_transitive_has_no_isomorphism(self, capsys, tmp_path):
        p = tmp_path / "t.trn"
        p.write_text(dumps_trn(transitive(7)))
        obj = run_json(capsys, "loctrans", str(p))
        assert obj["locally_transitive"] is True
        assert obj["carousel_isomorphism"] is None
        assert obj["carousel_isomorphism_error"] == "NotBalanced"
        p.write_text(dumps_trn(transitive(6)))
        obj = run_json(capsys, "loctrans", str(p))
        assert obj["cyclic_order"] == list(range(6))
        assert obj["carousel_isomorphism_error"] == "EvenOrder"

    def test_obstruction_reported(self, capsys, tmp_path):
        p = tmp_path / "w.trn"
        p.write_text("4\n0100\n0010\n1000\n1110\n")
        obj = run_json(capsys, "loctrans", str(p))
        assert obj["locally_transitive"] is False
        assert obj["obstruction"]["kind"] == "W4"
        assert obj["obstruction"]["apex"] == 3


class TestSweep:
    def test_optimize(self, capsys):
        obj = run_json(capsys, "sweep-w4", "--optimize", "1e-8")
        assert obj["t_star"] == pytest.approx(0.14358361515927998, abs=1e-6)
        assert obj["value"] == pytest.approx(0.15750066704862953, abs=1e-9)

    def test_grid_csv(self, capsys):
        code, out, err = run(capsys, "sweep-w4", "--grid", "8")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "t,phi_t"
        assert len(lines) == 9
        ts = [float(ln.split(",")[0]) for ln in lines[1:]]
        assert ts == sorted(ts)

    def test_simulate(self, capsys):
        obj = run_json(capsys, "sweep-w4", "--simulate", "500", "--t", "0.5",
                       "--samples", "50000", "--seed", "1")
        assert obj["phi_t"] == pytest.approx(0.075)
        assert obj["abs_error"] < 0.02

    def test_modes_mutually_exclusive(self, capsys):
        code, _, _ = run(capsys, "sweep-w4", "--grid", "5", "--optimize", "1e-6")
        assert code == 1


class TestConvert:
    def test_roundtrip_byte_identical(self, capsys, tmp_path):
        src = tmp_path / "r.trn"
        src.write_text(dumps_trn(carousel(11)))
        arcs = tmp_path / "r.arcs"
        back = tmp_path / "back.trn"
        run_json(capsys, "convert", str(src), str(arcs))
        run_json(capsys, "convert", str(arcs), str(back))
        assert src.read_bytes() == back.read_bytes()

    def test_explicit_target(self, capsys, tmp_path):
        src = tmp_path / "r.trn"
        src.write_text(dumps_trn(transitive(5)))
        dst = tmp_path / "out.dat"
        obj = run_json(capsys, "convert", str(src), str(dst), "--to", "arcs")
        assert obj["format"] == "arcs"
        assert dst.read_text().splitlines()[0] == "0 1"

    def test_bad_source_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "convert", str(tmp_path / "nope.trn"),
                           str(tmp_path / "x.arcs"))
        assert code == 2


class TestPlumbing:
    def test_unknown_command_exits_1(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 1

    def test_stdout_is_machine_only(self, capsys, tmp_path):
        # every stdout line of a JSON-mode command must parse as JSON
        p = tmp_path / "c.trn"
        p.write_text(dumps_trn(carousel(51)))
        for argv in (("stats", str(p)),
                     ("loctrans", str(p)),
                     ("check", str(p), "--profile", "random")):
            code, out, _ = run(capsys, *argv)
            assert code == 0
            for ln in out.splitlines():
                json.loads(ln)

    def test_thread_env_cap(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("TOURNEY_THREADS", "4")
        p = tmp_path / "c.trn"
        p.write_text(dumps_trn(carousel(101)))
        obj = run_json(capsys, "stats", str(p))
        assert obj["r4"] == 2_103_325  # exact census unchanged by threading
