"""Self-tests for the benchmark: oracles, generator and workload mixes.

Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import random
import shutil
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

from rschoice.axioms import AxiomVerdict  # noqa: E402

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SCRATCH = os.path.join(ROOT, ".perfbench", "selftest")


class SmallAnalyze(workloads.AnalyzeRSC):
    SIZE_CLASSES = [[(6, 2)], [(7, 3)]]
    PATTERN = [0, 1]


class SmallScreen(workloads.ScreenNoisy):
    SIZE_CLASSES = [[(8, 3)], [(9, 4)]]
    PATTERN = [0, 1]


class SmallApplications(workloads.Applications):
    SIZE_CLASSES = [[(10,)], [(12,)]]
    PATTERN = [0, 1]


class SmallCensus(workloads.Census4):
    def build(self, seed, workdir, tr):
        # two small blocks, led by the first function enumerated, which is rational
        blocks = super().build(seed, workdir, tr)
        return [self.setup_stdout.splitlines()[:1] + blocks[0][:15], blocks[1][:16]]


def fresh_dir(name: str) -> str:
    path = os.path.join(SCRATCH, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def corrupt(outcome: workloads.Outcome, sub: str, **changes) -> workloads.Outcome:
    """Copy of an outcome with fields of one call replaced."""
    calls = dict(outcome.calls)
    calls[sub] = workloads.Call(**{**vars(calls[sub]), **changes})
    return workloads.Outcome(calls, outcome.values)


class OraclesRejectCorruptedOutputs(unittest.TestCase):
    def test_analyze(self):
        wl = SmallAnalyze()
        for item in wl.build(1, fresh_dir("analyze"), spans.NullTracer()):
            good = wl.job(item)
            self.assertEqual(wl.check(item, good), [])
            verdicts = json.loads(good.calls["check-axioms"].out)
            verdicts[0]["holds"] = False
            bad = corrupt(good, "check-axioms", out=json.dumps(verdicts))
            self.assertTrue(wl.check(item, bad))
            self.assertTrue(wl.check(item, corrupt(good, "synthesize", code=1)))
            doc = json.loads(good.calls["synthesize"].out)
            doc["structure"]["reaction"].reverse()
            self.assertTrue(wl.check(item, corrupt(good, "synthesize", out=json.dumps(doc))))

    def test_screen(self):
        wl = SmallScreen()
        for item in wl.build(1, fresh_dir("screen"), spans.NullTracer()):
            good = wl.job(item)
            self.assertEqual(wl.check(item, good), [])
            self.assertTrue(wl.check(item, corrupt(good, "welfare", code=1)))
            err = good.calls["welfare"].err
            self.assertTrue(wl.check(item, corrupt(good, "welfare", err=err + err)))
            verdicts = json.loads(good.calls["check-axioms"].out)
            exp = verdicts[0]
            exp["violations"][0][3] = exp["violations"][0][2]  # "got" = the chosen option
            bad = corrupt(good, "check-axioms", out=json.dumps(verdicts))
            self.assertTrue(wl.check(item, bad))

    def test_applications(self):
        wl = SmallApplications()
        item = wl.build(1, fresh_dir("applications"), spans.NullTracer())[0]
        good = wl.job(item)
        self.assertEqual(wl.check(item, good), [])
        rows = good.calls["sweep"].out.splitlines()
        flipped = [r.replace("sigmaRR", "sigmaL") if "sigmaRR" in r else r.replace("sigmaL", "sigmaRR")
                   for r in rows[1:]]
        bad = corrupt(good, "sweep", out="\n".join(rows[:1] + flipped) + "\n")
        self.assertTrue(wl.check(item, bad))
        doc = json.loads(good.calls["simulate-culture"].out)
        doc["q_end"] += 1e-3
        self.assertTrue(wl.check(item, corrupt(good, "simulate-culture", out=json.dumps(doc))))

    def test_census_verdicts_and_pass_counts(self):
        wl = workloads.Census4()
        # The first function chooses the first listed option everywhere:
        # rational, so it passes the core axioms and is synthesized.
        line = next(json.dumps(json.loads(workloads.serialize_choice_function(cf)))
                    for cf in workloads.enumerate_choice_functions(
                        workloads.GroundSet(wl.OPTIONS)))
        good = wl.job([line])
        result = good.values["results"][0]
        self.assertIsNotNone(result.structure)
        self.assertEqual(wl.check([line], good), [])
        verdicts = list(result.verdicts)
        verdicts[3] = AxiomVerdict("SPR", False)
        bad = workloads.Outcome(good.calls, {"results": [
            workloads.CensusResult(result.cf, verdicts, result.structure, result.certificate)]})
        self.assertTrue(wl.check([line], bad))
        total, core, built = wl.PINNED
        wl._tally = [total - 1, core, built]
        self.assertEqual(wl._count(False, False), [])
        wl._tally = [total - 1, core - 1, built - 1]
        self.assertTrue(wl._count(True, False))

    def test_certificate_check_rejects_a_valley(self):
        s = gen.Structure([[0, 1, 2]], welfare=[0, 1, 2], reaction=[0, 2, 1])
        self.assertFalse(workloads.certificate_holds(s, {"o0,o1,o2": "o0"}, {"o0,o1,o2": "o0"}))
        s = gen.Structure([[0, 1, 2]], welfare=[0, 1, 2], reaction=[1, 0, 2])
        self.assertTrue(workloads.certificate_holds(s, {"o0,o1,o2": "o0"}, {"o0,o1,o2": "o1"}))


class GeneratorIsDeterministic(unittest.TestCase):
    def files(self, wl, seed: int, name: str) -> list[bytes]:
        out = []
        for item in wl.build(seed, fresh_dir(name), spans.NullTracer()):
            with open(item.path, "rb") as fh:
                out.append(fh.read())
        return out

    def test_same_seed_same_inputs(self):
        for wl in (SmallAnalyze(), SmallScreen()):
            first = self.files(wl, 7, "seed7a")
            self.assertEqual(first, self.files(wl, 7, "seed7b"))
            self.assertNotEqual(first, self.files(wl, 8, "seed8"))
        apps = SmallApplications()
        self.assertEqual(apps.build(7, SCRATCH, None), apps.build(7, SCRATCH, None))

    def test_planted_violation_breaks_expansion(self):
        rng = random.Random(3)
        n = 7
        table = gen.two_stage_table(n, gen.single_peaked_structure(rng, n, 3))
        a, b, union = gen.plant_exp_violation(rng, table, n)
        self.assertEqual(table[a], table[b])
        self.assertNotEqual(table[union], table[a])


class MixesKeepPercentilesInsideSizeClasses(unittest.TestCase):
    MARGIN = 0.05

    def test_boundaries(self):
        for wl in (workloads.AnalyzeRSC, workloads.ScreenNoisy, workloads.Applications):
            sizes = [len(c) for c in wl.SIZE_CLASSES]
            # classes are listed cheapest first (ascending size)
            self.assertEqual([c[0][0] for c in wl.SIZE_CLASSES],
                             sorted(c[0][0] for c in wl.SIZE_CLASSES))
            edges, running = [], 0
            for size in sizes[:-1]:
                running += size
                edges.append(running / sum(sizes))
            for q in (0.5, 0.9):
                self.assertGreaterEqual(min(abs(q - e) for e in edges), self.MARGIN,
                                        f"{wl.name}: quantile {q} sits near a class boundary")

    def test_every_prefix_keeps_the_shares(self):
        for wl in (workloads.AnalyzeRSC, workloads.ScreenNoisy, workloads.Applications):
            pool = workloads.interleave(wl.SIZE_CLASSES, wl.PATTERN)
            big = max(size for size, *_ in pool)
            share = sum(size == big for size, *_ in pool) / len(pool)
            self.assertEqual(len(pool), sum(len(c) for c in wl.SIZE_CLASSES))
            for end in range(len(wl.PATTERN), len(pool) + 1, len(wl.PATTERN)):
                self.assertAlmostEqual(sum(size == big for size, *_ in pool[:end]) / end, share)


class TracedRunMeasuresEveryDeclaredLayer(unittest.TestCase):
    def test_layers(self):
        for wl in (SmallAnalyze(), SmallScreen(), SmallCensus(), SmallApplications()):
            workdir = fresh_dir("traced-" + wl.name)
            metrics, record, _ = run.run_traced(wl, 3, workdir, os.path.join(workdir, "spans.jsonl"))
            self.assertEqual(record.failures, [])
            self.assertEqual(list(metrics), list(wl.LAYERS))
            idle = [k for k, v in metrics.items() if not v and run.layer_unit(k) != "ratio"]
            self.assertEqual(idle, [], wl.name)


class BenchmarkFileMatchesRunner(unittest.TestCase):
    def test_metric_names_and_units(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.per_layer_units(workloads.WORKLOADS))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOAD_NAMES))
        self.assertEqual(sorted(run.WORKLOAD_NAMES), sorted(workloads.WORKLOADS))


def tearDownModule():
    shutil.rmtree(SCRATCH, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
