"""Self-tests of the benchmark: python3 -m unittest discover -s perfbench/tests"""

import json
import os
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _report(stdout: dict, status: int = 0) -> dict:
    return {"op_s": 0.1, "setup_s": 0.05, "rss_kib": 20000, "status": status,
            "error": None, "stdout": json.dumps(stdout), "stderr": ""}


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_ops(self):
        for name in workloads.WORKLOADS:
            for rnd in range(3):
                self.assertEqual(workloads.round_ops(name, 7, rnd),
                                 workloads.round_ops(name, 7, rnd))

    def test_seeds_and_rounds_differ(self):
        for name in workloads.WORKLOADS:
            self.assertNotEqual(workloads.round_ops(name, 1, 0), workloads.round_ops(name, 2, 0))
            self.assertNotEqual(workloads.round_ops(name, 1, 0), workloads.round_ops(name, 1, 1))

    def test_inputs_stay_valid_under_strict_validation(self):
        for name in workloads.WORKLOADS:
            for seed in range(5):
                for op in workloads.round_ops(name, seed, 0):
                    argv = list(op.argv)
                    for flag in ("--n", "--d"):
                        if flag in argv:
                            self.assertGreaterEqual(int(argv[argv.index(flag) + 1]), 1)
                    if "--maxlevel" in argv:
                        self.assertGreaterEqual(int(argv[argv.index("--maxlevel") + 1]), 0)
                    n = int(argv[argv.index("--n") + 1]) if "--n" in argv else None
                    for arg in argv:
                        if arg.startswith("--weights="):
                            for w in arg.split("=", 1)[1].split(";"):
                                self.assertEqual(len(w.split(",")), n)
                        if arg.startswith("--lam="):
                            self.assertEqual(len(arg.split("=", 1)[1].split(",")), n)
                    for flag in ("--r", "--x", "--y", "--weights", "--lam"):
                        self.assertNotIn(flag, argv, "value must be passed as --flag=value")


class SelfTimeTest(unittest.TestCase):
    def test_synthetic_span_tree(self):
        spans = [
            ("root", 0, 100, -1),
            ("a", 10, 40, 0),
            ("b", 30, 60, 0),   # overlaps a: the union 10..60 covers 50
            ("c", 20, 50, 1),   # runs past its parent: only 20..40 counts
            ("d", 70, 80, 0),
        ]
        self.assertEqual(tracer.self_times(spans), [40, 10, 30, 30, 10])
        totals = tracer.summarize(spans, {"x.n": 3})
        self.assertEqual(totals["root.self_ns"], 40)
        self.assertEqual(totals["root.calls"], 1)
        self.assertEqual(totals["x.n"], 3)

    def test_misses_count_inner_calls_under_outer(self):
        irr, div = "weylchar.irr_character", "weylchar.divide_exact"
        spans = [
            ("weylchar.decompose", 0, 100, -1),
            (irr, 1, 50, 0),
            ("weylchar.alternating_sum", 2, 10, 1),
            (div, 11, 49, 1),
            (irr, 60, 61, 0),   # cache hit: nothing beneath it
            (div, 70, 80, 0),   # not under irr_character
        ]
        totals = tracer.summarize(spans)
        self.assertEqual(totals[f"{irr}.misses"], 1)
        metrics = tracer.layer_metrics(totals, set())
        self.assertEqual(metrics[f"{irr}.hit_ratio"], 0.5)
        self.assertIsNone(metrics["fock.rank_and_reduce.useful_ratio"])

    def test_absent_layer_is_none_not_zero(self):
        totals = {"weylchar.irr_character.calls": 4}
        metrics = tracer.layer_metrics(totals, {"weylchar.divide_exact"})
        self.assertIsNone(metrics["weylchar.divide_exact.calls"])
        self.assertIsNone(metrics["weylchar.divide_exact.self_s"])
        self.assertIsNone(metrics["weylchar.irr_character.misses"])
        self.assertIsNone(metrics["weylchar.irr_character.hit_ratio"])
        self.assertEqual(metrics["weylchar.decompose.calls"], 0)

    def test_counter_of_changed_shape_is_absent_and_call_succeeds(self):
        t = tracer.Tracer()
        wrapped = t.wrap("fock.invariant_subspace", lambda: 5)  # no r[0]
        self.assertEqual(wrapped(), 5)
        self.assertEqual(wrapped(), 5)
        self.assertEqual(t.absent, ["fock.invariant_subspace.kernel_dim"])
        totals = tracer.summarize(t.spans(), t.counters)
        self.assertEqual(totals["fock.invariant_subspace.calls"], 2)
        metrics = tracer.layer_metrics(totals, set(t.absent))
        self.assertIsNone(metrics["fock.invariant_subspace.kernel_dim"])
        self.assertIsNotNone(metrics["fock.invariant_subspace.self_s"])


class TracerInstallTest(unittest.TestCase):
    def test_rebinds_imported_names_and_marks_absent(self):
        code = (
            "import tracer\n"
            "tracer.TARGETS += (('weylchar.gone', 'weylchar', 'no_such_function'),)\n"
            "t = tracer.Tracer()\n"
            "t.install()\n"
            "from voachar import characters\n"
            "characters.theorem2_character(2, 2, 4)\n"
            "totals = tracer.summarize(t.spans(), t.counters)\n"
            "print(totals.get('weylchar.tensor_decompose_pair.calls', 0),"
            " totals.get('branching.branching_product.calls', 0), t.absent)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, timeout=60, check=True).stdout.split(maxsplit=2)
        self.assertGreater(int(out[0]), 0)
        self.assertGreater(int(out[1]), 0)
        self.assertEqual(out[2].strip(), "['weylchar.gone']")


class ChecksTest(unittest.TestCase):
    def test_weyl_dimension(self):
        self.assertEqual(checks.sp_dim((3,)), 4)
        self.assertEqual(checks.sp_dim((0, 1)), 4)
        self.assertEqual(checks.sp_dim((1, 1)), 5)
        self.assertEqual(checks.sp_dim((0, 2)), 10)
        self.assertEqual(checks.sp_dim((0, 0, 1)), 6)

    def test_wrong_outputs_count_in_error_rate(self):
        lam, nu = (0, 1), (0, 1)
        tensor = workloads.Op("tensor", ("tensor",), (lam, nu))
        good_rows = [{"mu": "0,0", "m": "1"}, {"mu": "1,1", "m": "1"}, {"mu": "0,2", "m": "1"}]
        bad_rows = good_rows[:2]
        point = (1, 2, 3)
        theorem = workloads.Op("char-theorem2", ("char",), point, "0/p")
        oracle = workloads.Op("char-oracle", ("char",), point, "0/p")
        series = {"series": {"trunc": 3, "coeffs": ["1", "0", "3", "4"]}}
        other = {"series": {"trunc": 3, "coeffs": ["1", "0", "3", "5"]}}
        virasoro = workloads.Op("virasoro", ("virasoro",), (2, 3))
        ops = [tensor, tensor, theorem, oracle, virasoro, virasoro]
        results = [
            _report({"multiplicities": good_rows}),
            _report({"multiplicities": bad_rows}),
            _report(series),
            _report(other),
            _report({"central_charge": "-12", "grading_ok": True}),
            _report({"central_charge": "-12", "grading_ok": True}, status=1),
        ]
        verdicts = [checks.check_op(op, r) for op, r in zip(ops, results)]
        checks.check_pairs(ops, results, verdicts)
        self.assertEqual([v == "ok" for v in verdicts], [True, False, False, False, True, False])
        self.assertAlmostEqual(run.e2e_metrics(results, verdicts)["error_rate"], 4 / 6)

    def test_malformed_output_fails_the_op_not_the_run(self):
        tensor = workloads.Op("tensor", ("tensor",), ((0, 1), (0, 1)))
        for payload in ({"multiplicities": [{"m": "1"}]}, {"multiplicities": [{"mu": "1,0", "m": "x"}]}, [1]):
            self.assertTrue(checks.check_op(tensor, _report(payload)).startswith("malformed"))

    def test_char_leading_coefficients(self):
        op = workloads.Op("char-theorem2", ("char",), (1, 2, 3))
        wrong = _report({"series": {"trunc": 3, "coeffs": ["1", "0", "2", "4"]}})
        self.assertNotEqual(checks.check_op(op, wrong), "ok")


class ReportTest(unittest.TestCase):
    def test_tail_percentile(self):
        self.assertEqual(run.tail_percentile(list(range(1, 21))), (10, 50.0))
        self.assertEqual(run.tail_percentile([3, 1, 2]), (3, 100.0))

    def test_benchmark_json_names_reported_metrics(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        e2e = run.e2e_metrics([_report({})], ["ok"])
        self.assertEqual({m["name"] for m in spec["end_to_end"]} - set(e2e), set())
        units = dict(tracer.LAYER_METRICS) | dict(run.TRACE_METRICS)
        for m in spec["per_layer"]:
            self.assertEqual(units.get(m["name"]), m["unit"], m["name"])
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))

if __name__ == "__main__":
    unittest.main()
