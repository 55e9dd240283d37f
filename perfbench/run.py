#!/usr/bin/env python3
"""rschoice benchmark: seeded analysis workloads in a closed loop.

Usage, from the repository root:

    python3 perfbench/run.py --workload analyze-rsc --seed 1 --seconds 27 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # each workload, untraced
    python3 perfbench/run.py --workload all --seed 1 --trace 1

One caller in one process, no threads: each job starts when the previous
one has finished.  The library is imported from ``src/`` next to this
directory; the benchmark exits 2 without a result when it is missing.

``--trace 0`` runs jobs for ``--seconds`` seconds of job time and reports
the end-to-end metrics.  Times are scaled to a reference machine speed:
the machine is shared and its speed drifts by up to 60 % within twenty
minutes, so a fixed standard-library probe runs between jobs every
0.1 s, and every time is multiplied by ``REFERENCE_PROBE_S`` over the
probe's median in the run (rates divided).  The measured values and the
scale are printed too.

* ``setup_s``: import, plus the median of three set-ups (generate the
  inputs, write them to files, run one warm-up job);
* ``jobs_per_s``: jobs completed per second of job time;
* ``job_s_p50``, ``job_s_p90``: per-job wall time (nearest rank; the
  number of jobs is printed: 109 or more per workload at the default
  27 s on a shared 2-core machine);
* ``ok_ratio``: share of attempted jobs whose outputs passed the oracle,
  i.e. 1 - fail_ratio (the result line also carries ``failed``);
* ``peak_rss_mb``: peak resident memory of this process.

``--trace 1`` covers every workload, whichever ``--workload`` names, so
that each per-layer metric is measured in every traced run.  Per workload
it runs one pass over the input pool untraced, then replays the set-up
and the same pass as public library calls with a span around each, and
reports the workload's ``LAYERS`` as ``<workload>.<metric>``.  A ``_s``
metric sums the durations of one span name (nested spans included);
``trace.overhead_ratio`` divides the traced replay time by the untraced
job time of the same pass.  Spans go to
``.perfbench/spans-<workload>-seed<seed>.jsonl``.

Each run prints the SHA-256 of the stdout of one job per pool input (plus
set-up output); it depends on the seed only, traced or not.  The last line
of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from array import array
from collections import Counter
from time import perf_counter

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
WORKLOAD_NAMES = ("analyze-rsc", "screen-noisy", "census-4", "applications")
SETUP_REPEATS = 3

#: Probe input: the choice table of a fixed 8-option function as JSON.
_PROBE_TEXT = json.dumps({"choices": {
    ",".join(f"o{i}" for i in range(8) if mask >> i & 1): f"o{(mask & -mask).bit_length() - 1}"
    for mask in range(1, 256)}})
#: Median probe time on the shared 2-core machine the bounds were set on.
REFERENCE_PROBE_S = 0.0006
PROBE_INTERVAL_S = 0.1

#: Ratio metric -> (numerator counter, denominator counter).
RATIOS = {
    "axioms.capped_ratio": ("axioms.capped", "axioms.verdicts"),
    "normative.composition_sampled_ratio": ("normative.menu_sampled", "normative.menu_checks"),
}


def layer_unit(name: str) -> str:
    if name in RATIOS or name == "trace.overhead_ratio":
        return "ratio"
    return "s" if name.endswith("_s") else "count"


def per_layer_units(classes: dict) -> dict[str, str]:
    """Every per-layer metric, ``<workload>.<layer metric>``, with its unit."""
    return {f"{name}.{layer}": layer_unit(layer)
            for name in WORKLOAD_NAMES for layer in classes[name].LAYERS}


END_TO_END_UNITS = {"setup_s": "s", "jobs_per_s": "1/s", "job_s_p50": "s",
                    "job_s_p90": "s", "ok_ratio": "ratio", "peak_rss_mb": "MB"}


def nearest_rank(sorted_values: list[float], q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def probe_s() -> float:
    """Seconds for a fixed standard-library task (JSON parsing, dict and
    string work, like the program's own), a gauge of the machine's speed
    at the moment it runs.  It calls nothing from the library."""
    start = perf_counter()
    for _ in range(4):
        total = 0
        for key, value in json.loads(_PROBE_TEXT)["choices"].items():
            total += len(key.split(",")) + ord(value[-1])
    return perf_counter() - start


def attempt(wl, item):
    """Run one job, timed, then its oracle, untimed."""
    start = perf_counter()
    try:
        outcome = wl.job(item)
    except Exception as exc:  # a crashing job is a failed job, not a failed run
        return perf_counter() - start, None, [f"job raised {exc!r}"]
    seconds = perf_counter() - start
    try:
        fails = wl.check(item, outcome)
    except Exception as exc:
        fails = [f"oracle raised {exc!r}"]
    return seconds, outcome, fails


class Record:
    """Failures, stdout per pool input and tallies of one run."""

    def __init__(self, pool_size: int):
        self.attempted = 0
        self.failures: list[str] = []
        self.first_stdout: dict[int, str] = {}
        self.pool_size = pool_size
        self.counts: Counter = Counter()

    def add(self, index: int, outcome, fails: list[str], wl) -> None:
        self.attempted += 1
        if outcome is not None:
            stdout = outcome.stdout
            if self.first_stdout.setdefault(index, stdout) != stdout:
                fails = fails + ["stdout differs from the first run of this input"]
            self.counts.update(wl.counts(outcome))
        if fails:
            self.failures.append(f"input {index}: " + "; ".join(fails))

    def digest(self, setup_stdout: str) -> str:
        h = hashlib.sha256(setup_stdout.encode())
        for index in range(self.pool_size):
            h.update(self.first_stdout.get(index, "").encode())
        return h.hexdigest()


def setup(wl, seed: int, workdir: str, null_tracer):
    start = perf_counter()
    pool = wl.build(seed, workdir, null_tracer)
    wl.job(pool[0])
    return pool, perf_counter() - start


def run_timed(wl, seed: int, seconds: float, workdir: str, import_s: float):
    setups = []
    for _ in range(SETUP_REPEATS):
        pool, took = setup(wl, seed, workdir, spans.NullTracer())
        setups.append(took)
    record = Record(len(pool))
    times = array("d")  # flat doubles: memory does not grow by an object per job
    probes = array("d")
    busy, next_probe = 0.0, 0.0
    while busy < seconds:
        if perf_counter() >= next_probe:
            probes.append(probe_s())
            next_probe = perf_counter() + PROBE_INTERVAL_S
        index = len(times) % len(pool)
        took, outcome, fails = attempt(wl, pool[index])
        times.append(took)
        busy += took
        record.add(index, outcome, fails, wl)
    for index in range(len(times), len(pool)):  # cover the pool for the digest
        _, outcome, fails = attempt(wl, pool[index])
        record.add(index, outcome, fails, wl)
    ordered = sorted(times)
    measured = {
        "setup_s": import_s + statistics.median(setups),
        "jobs_per_s": len(times) / busy,
        "job_s_p50": nearest_rank(ordered, 0.5),
        "job_s_p90": nearest_rank(ordered, 0.9),
    }
    scale = REFERENCE_PROBE_S / statistics.median(probes)
    metrics = {name: value / scale if name == "jobs_per_s" else value * scale
               for name, value in measured.items()}
    metrics["ok_ratio"] = 1.0 - len(record.failures) / record.attempted
    metrics["peak_rss_mb"] = peak_rss_mb()
    beyond = sum(t > measured["job_s_p90"] for t in times)
    notes = [
        f"jobs           {len(times)} timed ({beyond} above p90), "
        f"{len(times) / len(pool):.2f} passes over a pool of {len(pool)}",
        "measured       " + ", ".join(f"{k} {v:.6g}" for k, v in measured.items())
        + f"; probe median {1000 * statistics.median(probes):.4f} ms of {len(probes)}, "
        f"scale {scale:.4f}",
        f"setups_s       import {import_s:.4f} + median of "
        + ", ".join(f"{s:.4f}" for s in setups),
        f"fail_ratio     {len(record.failures) / record.attempted:.6g} ratio "
        f"({len(record.failures)} of {record.attempted} jobs failed their oracle)",
    ]
    return metrics, record, notes


def run_traced(wl, seed: int, workdir: str, spans_path: str):
    """One pass untraced, then the traced replay of set-up and pass."""
    pool, _ = setup(wl, seed, workdir, spans.NullTracer())
    record = Record(len(pool))
    cli_busy: Counter = Counter({sub: call.seconds for sub, call in wl.setup_calls.items()})
    untraced = 0.0
    for index, item in enumerate(pool):
        took, outcome, fails = attempt(wl, item)
        untraced += took
        record.add(index, outcome, fails, wl)
        for sub, call in (outcome.calls.items() if outcome else ()):
            cli_busy[sub] += call.seconds

    tracer = spans.Tracer()
    for message in wl.replay_setup(seed, workdir, tracer):
        record.failures.append("set-up replay: " + message)
    traced = 0.0
    for index, item in enumerate(pool):
        tracer.job = index
        start = perf_counter()
        try:
            fails = wl.replay(item, tracer)
        except Exception as exc:
            fails = [f"replay raised {exc!r}"]
        traced += perf_counter() - start
        record.attempted += 1
        if fails:
            record.failures.append(f"replay of input {index}: " + "; ".join(fails))
    tracer.write(spans_path)

    busy, counts = tracer.busy(), tracer.counts
    metrics = {}
    for layer in wl.LAYERS:
        if layer == "trace.overhead_ratio":
            metrics[layer] = traced / untraced
        elif layer in RATIOS:
            num, den = RATIOS[layer]
            metrics[layer] = counts[num] / counts[den] if counts[den] else 0.0
        elif layer.startswith("cli."):
            metrics[layer] = cli_busy[layer[len("cli."):-len("_s")]]
        elif layer.endswith("_s"):
            metrics[layer] = busy.get(layer[:-len("_s")], 0.0)
        else:
            metrics[layer] = counts[layer]
    notes = [
        f"jobs           {len(pool)} untraced in {untraced:.4f} s, "
        f"{len(pool)} traced in {traced:.4f} s",
        f"spans          {len(tracer.spans)} written to {os.path.relpath(spans_path, ROOT)}",
    ]
    return metrics, record, notes


def report(title: str, notes: list[str], metrics: dict, units: dict, record, setup_stdout: str):
    print(title)
    for line in notes:
        print("  " + line)
    for name, value in metrics.items():
        print(f"  {name:<36} {value:.6g} {units[name]}")
    if record.counts:
        print("  tallies        " + ", ".join(f"{k} {v}" for k, v in sorted(record.counts.items())))
    print(f"  stdout_sha256  {record.digest(setup_stdout)}")
    for message in record.failures[:5]:
        print(f"  FAILED {message}")


def run_one(args) -> int:
    start = perf_counter()
    sys.path.insert(0, SRC)
    try:
        import rschoice
        import workloads
    except ImportError as exc:
        sys.stderr.write(f"cannot import the library from {SRC}: {exc}\n")
        return 2
    import_s = perf_counter() - start
    if os.path.dirname(os.path.realpath(rschoice.__file__)) != os.path.realpath(
            os.path.join(SRC, "rschoice")):
        sys.stderr.write(f"rschoice was imported from {rschoice.__file__}, not {SRC}\n")
        return 2

    # A traced run replays every workload, so each per-layer metric is
    # measured whichever workload is named.
    names = WORKLOAD_NAMES if args.trace else (args.workload,)
    results, records = {}, []
    for name in names:
        wl = workloads.WORKLOADS[name]()
        run_name = f"{name}-seed{args.seed}"
        workdir = os.path.join(OUT, run_name)  # generated inputs, removed after the run
        os.makedirs(workdir, exist_ok=True)
        try:
            if args.trace:
                metrics, record, notes = run_traced(
                    wl, args.seed, workdir, os.path.join(OUT, f"spans-{run_name}.jsonl"))
                metrics = {f"{name}.{k}": v for k, v in metrics.items()}
                units = per_layer_units(workloads.WORKLOADS)
            else:
                metrics, record, notes = run_timed(wl, args.seed, args.seconds, workdir, import_s)
                units = END_TO_END_UNITS
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        report(f"rschoice benchmark: workload {name}, seed {args.seed}, trace {args.trace}",
               notes, metrics, units, record, wl.setup_stdout)
        results.update({k: {"value": v, "unit": units[k]} for k, v in metrics.items()})
        records.append(record)
    print(json.dumps({
        "correct": not any(r.failures for r in records),
        "attempted": sum(r.attempted for r in records),
        "failed": sum(len(r.failures) for r in records),
        "metrics": results,
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after another (untraced)."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run the rschoice benchmark.")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=27.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all" and not args.trace:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
