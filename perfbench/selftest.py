"""Quick self-tests of the benchmark (a few seconds; not part of the tier-1 suite).

    python3 perfbench/selftest.py

A tiny-n pass of each workload must check clean, and each planted wrong
value (a corrupted count, a broken order, a wrong witness, a damaged file)
must be counted as one failed operation.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import unittest
from argparse import Namespace

import run
import workloads

ROOT = workloads.ROOT
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "src"))

import tourney  # noqa: E402
import tourney.cli as cli  # noqa: E402


def _edit_json(path_in_json, change):
    """Tamper that rewrites one field of an operation's JSON output."""
    def tamper(stdout, out_dir):
        obj = json.loads(stdout)
        *keys, last = path_in_json
        node = obj
        for k in keys:
            node = node[k]
        node[last] = change(node[last])
        return json.dumps(obj)
    return tamper


def _edit_file(name, change):
    """Tamper that rewrites one of the pass's output files."""
    def tamper(stdout, out_dir):
        path = out_dir / name
        path.write_bytes(change(path.read_bytes()))
        return stdout
    return tamper


def _swap(xs, i=0, j=1):
    xs = list(xs)
    xs[i], xs[j] = xs[j], xs[i]
    return xs


def _flip_digit(data: bytes) -> bytes:
    k = data.index(b"\n") + 2                      # a digit off the diagonal of row 0
    return data[:k] + (b"1" if data[k:k + 1] == b"0" else b"0") + data[k + 1:]


PLANTED = {
    "exact-census": [
        ("stats", _edit_json(["tr4"], lambda x: x + 1)),
        ("stats", _edit_json(["densities", "r4", "num"], lambda x: x - 1)),
        ("check-carousel", _edit_json(["residuals", "ks_F.c"], lambda x: x + 1e-6)),
        ("check-carousel", _edit_json(["residuals", "lt"], lambda x: x + 1e-6)),
        ("check-random", _edit_json(["residuals", "conc_F.o"], lambda x: x + 1e-3)),
        ("check-random", _edit_json(["provenance", "mode"], lambda x: "sampled")),
    ],
    "structure": [
        ("loctrans-relabelled", _edit_json(["cyclic_order"], _swap)),
        ("loctrans-relabelled", _edit_json(["carousel_isomorphism"], _swap)),
        ("loctrans-digraphon", _edit_json(["carousel_isomorphism_error"], lambda x: None)),
        ("loctrans-random", _edit_json(["obstruction", "kind"],
                                       lambda k: "L4" if k == "W4" else "W4")),
        ("loctrans-random", _edit_json(["obstruction", "apex"], lambda a: a + 1)),
    ],
    "sampled-io": [
        ("gen", _edit_json(["sha256"], lambda h: h[::-1])),
        ("convert-to-arcs", _edit_file("gen.arcs", lambda b: b[b.index(b"\n") + 1:])),
        ("convert-to-trn", _edit_file("back.trn", _flip_digit)),
        ("stats-sampled", _edit_json(["sampled", "p_w4"], lambda p: p + 0.05)),
        ("check-sampled", _edit_json(["residuals", "c3"], lambda x: x + 1e-6)),
        ("check-sampled", _edit_json(["provenance", "mode"], lambda x: "exact")),
    ],
}


class Workdir(unittest.TestCase):
    def setUp(self):
        self.work = ROOT / ".perfbench_work" / f"selftest-{self.id().rsplit('.', 1)[-1]}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.addCleanup(shutil.rmtree, self.work, True)

    def runner(self, workload: str) -> run.Runner:
        """A runner on freshly made tiny inputs, in a directory of its own."""
        work = self.work / f"r{len(list(self.work.iterdir()))}"
        workloads.make_inputs(workload, 7, workloads.TINY, work)
        return run.Runner(cli, workload, 7, workloads.TINY, work)


class TinyPasses(Workdir):
    def test_every_workload_checks_clean(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                r = self.runner(workload)
                r.run_pass()
                r.run_pass()
                per_pass = len(r.pending[0][0])
                r.check_all()
                self.assertEqual(r.notes, [])
                self.assertEqual((r.attempted, r.failed, r.wrong), (2 * per_pass, 0, 0))

    def test_untraced_run_reports_end_to_end_metrics(self):
        r = self.runner("exact-census")
        metrics = run.untraced(Namespace(workload="exact-census", seed=7, seconds=0), r)
        self.assertEqual(set(metrics), {m["name"] for m in SPEC["end_to_end"]})
        self.assertTrue(all(v > 0 for v in metrics.values()), metrics)

    def test_traced_run_reports_every_layer_metric(self):
        names = [m["name"] for m in SPEC["per_layer"]]
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                r = self.runner(workload)
                m = run.traced(Namespace(workload=workload, seed=7, seconds=0, per_layer=names),
                               r, tourney)
                self.assertEqual(set(m), set(names))
                self.assertTrue(all(v >= 0 for k, v in m.items() if k.endswith("self_s")), m)
                busy = {"exact-census": "counting.quad_counts.self_s",
                        "structure": "loctrans.find_obstruction.self_s",
                        "sampled-io": "io.loads_arcs.self_s"}[workload]
                self.assertGreater(m[busy], 0)
                self.assertGreater(m["trace.round_s"], 0)


class PlantedWrongValues(Workdir):
    def test_each_planted_value_fails_one_operation(self):
        for workload, cases in PLANTED.items():
            for op_name, tamper in cases:
                with self.subTest(workload=workload, op=op_name):
                    r = self.runner(workload)
                    r.run_pass()
                    ops, outputs = r.pending[-1]
                    k = [op.name for op in ops].index(op_name)
                    rc, stdout, stderr = outputs[k]
                    outputs[k] = (rc, tamper(stdout, r.work / f"pass-{r.passes - 1}"), stderr)
                    r.check_all()
                    self.assertEqual((r.attempted, r.failed, r.wrong), (len(ops), 1, 1), r.notes)

    def test_a_failing_command_is_failed_but_not_wrong(self):
        r = self.runner("structure")
        r.run_pass()
        ops, outputs = r.pending[-1]
        outputs[0] = (1, "", "error: planted")
        r.check_all()
        self.assertEqual((r.failed, r.wrong), (1, 0))


class Contract(unittest.TestCase):
    NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

    def test_benchmark_json(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(workloads.WORKLOADS))
        names = [m["name"] for part in ("workloads", "end_to_end", "per_layer")
                 for m in SPEC[part]]
        self.assertEqual(len(names), len(set(names)))
        self.assertTrue(all(self.NAME.match(n) for n in names))
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertRegex(m["unit"], self.UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        self.assertTrue(all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"]))

    def test_refuses_to_run_without_the_sources(self):
        bare = ROOT / ".perfbench_work" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        self.addCleanup(shutil.rmtree, bare, True)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "structure",
                            "--seed", "1", "--seconds", "1", "--trace", "0"],
                           cwd=bare, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(p.returncode, 0)
        self.assertEqual(p.stdout, "")


if __name__ == "__main__":
    unittest.main()
