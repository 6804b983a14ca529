"""Self-test of the benchmark's checker and input generator.

Runs without ``braidpi``: ``python3 benchmarks/test_checks.py``.  A pass
over canned child outputs must count every mutated answer as failed.
"""

from __future__ import annotations

import copy
import json
import sys
import tempfile
import time
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402


def paper_report(k: int) -> dict:
    odd = k % 2 == 1
    stages = [{"stage": name, "generators": ["x"], "relatorCount": 1, "totalLength": 10}
              for name in ("pi_prime", "pi_prime_simplified", "z2_parent", "z2_cover",
                           "z2_cover_simplified", "orbifold_parent", "orbifold_cover",
                           "orbifold_simplified")]
    return {"k": k, "m": k + 1, "order": 16 if odd else 8,
            "invariants": [4, 4] if odd else [2, 4], "freeRank": 0, "abelian": True,
            "regressions": {"a": True, "b": True}, "stages": stages,
            "suspects": [{"id": "z2: suspect", "printedHolds": False,
                          "exponent6Holds": True, "printedRefutedInAbelianization": True}]}


def mutations(report: dict):
    wrong_order = copy.deepcopy(report)
    wrong_order["order"] *= 2
    one_regression = copy.deepcopy(report)
    one_regression["regressions"]["b"] = False
    flipped = copy.deepcopy(report)
    flipped["suspects"][0]["printedHolds"] = True
    seven_stages = copy.deepcopy(report)
    seven_stages["stages"].pop()
    return {"wrong order": wrong_order, "one regression false": one_regression,
            "flipped suspect verdict": flipped, "seven stages": seven_stages}


class FakeRunner:
    """Answers each call from a table instead of starting a process."""

    def __init__(self, answers):
        self.answers = answers
        self.scratch = Path(".")

    def run(self, argv, stdin=""):
        code, out = self.answers(argv, stdin)
        return run.Child(code, out, "", 0.5, 0.5, 1024)


class PipelineChecks(unittest.TestCase):
    def test_paper_report_passes_and_counts_simplified_length(self):
        for k in (1, 2):
            got = checks.check({"kind": "pipeline", "k": k}, 0, json.dumps(paper_report(k)))
            self.assertTrue(got.ok, got.reason)
            self.assertEqual(got.simplified_len, 40)

    def test_mutated_reports_fail(self):
        for name, bad in mutations(paper_report(1)).items():
            with self.subTest(name):
                self.assertFalse(checks.check({"kind": "pipeline", "k": 1}, 0,
                                              json.dumps(bad)).ok)

    def test_parity_is_checked(self):
        self.assertFalse(checks.check({"kind": "pipeline", "k": 2}, 0,
                                      json.dumps(paper_report(1))).ok)

    def test_nonzero_exit_timeout_and_garbage_fail(self):
        good = json.dumps(paper_report(1))
        self.assertFalse(checks.check({"kind": "pipeline", "k": 1}, 1, good).ok)
        self.assertFalse(checks.check({"kind": "pipeline", "k": 1}, None, good).ok)
        self.assertFalse(checks.check({"kind": "pipeline", "k": 1}, 0, "order 16").ok)


class ToolChecks(unittest.TestCase):
    def test_tc(self):
        self.assertTrue(checks.check({"kind": "tc", "order": 720}, 0, "order 720\n").ok)
        self.assertFalse(checks.check({"kind": "tc", "order": 720}, 0, "order 360\n").ok)

    def test_abelianize(self):
        expect = {"kind": "abelianize", "invariants": [2, 4], "free_rank": 1}
        good = {"invariants": [2, 4], "freeRank": 1}
        self.assertTrue(checks.check(expect, 0, json.dumps(good)).ok)
        self.assertFalse(checks.check(expect, 0, json.dumps({**good, "freeRank": 0})).ok)
        self.assertFalse(checks.check(expect, 0, json.dumps({**good, "invariants": [8]})).ok)

    def test_verify_config(self):
        items = [{"item": i, "passed": True} for i in range(1, 11)]
        expect = {"kind": "verify-config", "items": 10}
        self.assertTrue(checks.check(expect, 0, json.dumps(
            {"allPassed": True, "items": items})).ok)
        items[3]["passed"] = False
        self.assertFalse(checks.check(expect, 0, json.dumps(
            {"allPassed": True, "items": items})).ok)

    def test_presentation_length(self):
        got = checks.check({"kind": "presentation"}, 0,
                           "< a b1 | a^-3, b1 a b1' a', b1^2 >\n\nb1 = x y\n")
        self.assertTrue(got.ok)
        self.assertEqual(got.simplified_len, 9)
        self.assertEqual(got.text, "< a b1 | a^-3, b1 a b1' a', b1^2 >")
        self.assertFalse(checks.check({"kind": "presentation"}, 0, "< a | b^2 >").ok)
        self.assertFalse(checks.check({"kind": "presentation"}, 0, "order 2").ok)


class PassTally(unittest.TestCase):
    def test_each_mutation_counts_as_one_failed_call(self):
        work = inputs.ladder(0)
        for name, bad in [*mutations(paper_report(3)).items(), ("exit 1", None)]:
            def answers(argv, stdin, bad=bad):
                k = int(argv[argv.index("--k") + 1])
                if k != 3:
                    return 0, json.dumps(paper_report(k))
                return (1, "") if bad is None else (0, json.dumps(bad))
            with self.subTest(name):
                result = run.run_pass(work, FakeRunner(answers), traced=False)
                self.assertEqual(result.attempted, len(inputs.LADDER_KS))
                self.assertEqual(len(result.failures), 1)

    def test_failed_call_fails_the_call_it_feeds(self):
        work = inputs.groups(0)
        feeder = next(i for i, c in enumerate(work.calls) if c.feeds is not None) - 1

        def answers(argv, stdin):
            if argv[2:] == work.calls[feeder].argv and stdin == work.calls[feeder].stdin:
                return 2, ""
            return 0, ""
        result = run.run_pass(work, FakeRunner(answers), traced=False)
        labels = [f[0] for f in result.failures]
        self.assertIn(work.calls[feeder].label, labels)
        self.assertIn(work.calls[feeder + 1].label, labels)


class Layers(unittest.TestCase):
    def test_stage_spans_self_time_and_sizes(self):
        spans = [["pipeline.run", 0.0, 10.0, -1, {}],
                 ["presentation.tietze.orbifold", 1.0, 4.0, 0,
                  {"len_in": 100, "len_out": 10, "moves": 5}],
                 ["analysis.trace", 5.0, 6.0, 0, {"letters": 30}],
                 ["presentation.tietze", 7.0, 8.0, 0, {"len_in": 9}],
                 ["braid.act", 7.25, 7.5, 3, {"letters_out": 4}]]
        m = run.layer_metrics([spans, spans])
        self.assertEqual(m["presentation.tietze.orbifold_s"], 6.0)
        self.assertEqual(m["presentation.tietze.orbifold.moves"], 10)
        self.assertEqual(m["presentation.tietze_s"], 8.0)
        self.assertEqual(m["presentation.tietze_calls"], 4)
        self.assertEqual((m["analysis.trace_words"], m["analysis.trace_letters"]), (2, 60))
        self.assertEqual(m["braid.act_letters_out"], 8)
        self.assertEqual(m["pipeline.run_s"], 20.0)
        self.assertEqual(m["pipeline.self_s"], 10.0)


@unittest.skipUnless((run.ROOT / "src" / "braidpi").is_dir(), "needs the braidpi sources")
class TracedCall(unittest.TestCase):
    def test_tracer_records_layer_spans(self):
        with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
            runner = run.Runner(Path(tmp), time.monotonic() + 60)
            spans_file = Path(tmp) / "spans.json"
            child = runner.run([str(run.HERE / "tracer.py"), str(spans_file), "tc", "-"],
                               "< a b | a^3, b^2, (a b)^2 >")
            self.assertEqual((child.returncode, child.stdout.strip()), (0, "order 6"))
            m = run.layer_metrics([json.loads(spans_file.read_text())])
        self.assertEqual((m["analysis.todd_coxeter_calls"], m["analysis.cosets"]), (1, 6))
        self.assertEqual(m["cli.parse_letters"], 9)


class Contract(unittest.TestCase):
    def test_metric_names_match_benchmark_json(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        traced = [*run.layer_metrics([]), "trace_overhead_s"]
        self.assertEqual([m["name"] for m in spec["per_layer"]], traced)
        self.assertEqual([m["name"] for m in spec["end_to_end"]],
                         ["pass_s", "setup_s", "peak_rss_mb", "simplified_len"])
        self.assertLessEqual({w["name"] for w in spec["workloads"]}, set(inputs.WORKLOADS))


class Inputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for make in inputs.WORKLOADS.values():
            self.assertEqual(make(7).digest(), make(7).digest())

    def test_seed_changes_layout_not_sizes(self):
        a, b = inputs.groups(1), inputs.groups(2)
        self.assertNotEqual(a.digest(), b.digest())
        self.assertEqual([c.argv[0] for c in a.calls], [c.argv[0] for c in b.calls])
        self.assertEqual([c.expect for c in a.calls], [c.expect for c in b.calls])
        for x, y in zip(a.calls, b.calls):
            if x.expect["kind"] != "abelianize" or "U D V" not in x.label:
                self.assertEqual(len(x.stdin.split()), len(y.stdin.split()))

    def test_reflection_group_abelianization(self):
        self.assertEqual(inputs.reflection_abelianization(1), [2])
        self.assertEqual(inputs.reflection_abelianization(2), [2, 2])
        self.assertEqual(inputs.reflection_abelianization(3), [6])
        self.assertEqual(inputs.reflection_abelianization(4), [2, 4])


if __name__ == "__main__":
    unittest.main()
