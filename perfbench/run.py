#!/usr/bin/env python3
"""Benchmark of the ibp simulator.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the runner (`perfbench/src/main.rs`) against the simulator crates,
then measures one workload for about S seconds. Each timed iteration is a
fresh single process of the simulator with a fresh results root and no
inherited `IBP_*` variables, and every table it emits is checked against a
reference: the checked-in `results/` for the 60k-event workloads, recorded
digests for `stream_1m`. The last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
of `BENCHMARK.json` with `--trace 0`, its per-layer metrics with `--trace 1`.
Every run also appends a record with its provenance to
`perfbench/.work/records.jsonl`.

`--seed` reseeds the presets behind the per-layer codec and fold
measurements; the end-to-end workloads replay the calibrated presets.
`--write-digests` records the reference digests of `stream_1m` instead of
checking them.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import benchlib

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
WORK = HERE / ".work"
SPEC = REPO / "BENCHMARK.json"
REFERENCE_TREE = REPO / "results"
REFERENCE_EVENTS = 60_000  # the trace length the checked-in results/ were made at
DIGESTS = HERE / "reference"

EVERY_EXPERIMENT = [
    "table1_2", "fig2", "fig5", "fig7", "fig9", "fig10", "table5", "fig11",
    "fig12_14_15", "fig16", "fig17", "fig18", "analysis", "ablations", "ext",
    "related_work", "hardware", "sensitivity", "summary",
]

# caches: "warm" replays a primed result cache and trace corpus, "corpus"
# replays a primed trace corpus into an empty result cache, "cold" starts
# with neither. Every iteration must take seconds, not tens of seconds: the
# host's speed drifts, and only a median over several iterations per run is
# steady. So `fold_cold` leaves out fig11 and fig17 (11 s and 48 s cold), and
# `stream_1m` streams two presets, not 17: the object-oriented and the C
# program with the largest branch working sets. Their two folds always run
# side by side on two threads, so the peak RSS they reach together repeats.
WORKLOADS = {
    "rerun_warm": {"events": 60_000, "experiments": EVERY_EXPERIMENT, "caches": "warm"},
    "fold_cold": {"events": 60_000, "experiments": ["ablations", "ext", "summary"],
                  "caches": "cold"},
    "stream_1m": {"events": 1_000_000, "experiments": ["fig2", "fig9"], "caches": "corpus",
                  "benchmarks": ["self", "gcc"]},
}

SETUPS_PER_ITERATION = 2  # set-up-only processes before each timed iteration
CHILD_TIMEOUT_S = 170
PRIME_TIMEOUT_S = 800


class BenchError(Exception):
    pass


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    if not (REPO / "crates").is_dir() or not (REPO / "Cargo.toml").is_file():
        raise BenchError(f"no simulator sources next to {HERE.name}/; run from a full checkout")
    target = Path(os.environ.get("CARGO_TARGET_DIR") or HERE / "target")
    if not target.is_absolute():
        target = Path.cwd() / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        raise BenchError("building the runner failed")
    return target / "release" / "perfbench"


def child_env(root, events):
    env = {k: v for k, v in os.environ.items() if not k.startswith("IBP_")}
    env["IBP_RESULTS"] = str(root)
    env["IBP_EVENTS"] = str(events)
    return env


class Runner:
    """Starts runner processes for one workload and keeps its work tree."""

    def __init__(self, binary, name):
        self.binary = binary
        self.name = name
        self.spec = WORKLOADS[name]
        self.dir = WORK / name
        self.dir.mkdir(parents=True, exist_ok=True)
        self.count = 0

    def benchmark_args(self):
        names = self.spec.get("benchmarks")
        return ["--benchmarks", ",".join(names)] if names else []

    def fresh_root(self):
        self.count += 1
        root = self.dir / f"run-{os.getpid()}-{self.count}"
        shutil.rmtree(root, ignore_errors=True)
        root.mkdir(parents=True)
        return root

    def call(self, mode, root, args, timeout=CHILD_TIMEOUT_S):
        """Runs one runner process to completion; returns its record plus
        the process's wall time, CPU time and peak RSS."""
        record = root.with_name(root.name + f".{mode}.json")
        errors = record.with_suffix(".log")
        try:
            with open(errors, "w") as err:
                proc = subprocess.Popen(
                    [str(self.binary), mode, "--record", str(record),
                     "--events", str(self.spec["events"]), *self.benchmark_args(), *args],
                    stdout=subprocess.DEVNULL, stderr=err, cwd=self.dir,
                    env=child_env(root, self.spec["events"]))
            start, pid = time.monotonic(), 0
            try:
                while not pid:
                    if time.monotonic() - start > timeout:
                        raise BenchError(f"{mode} process exceeded {timeout} s")
                    time.sleep(0.02)
                    pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            finally:
                if not pid:  # timed out or interrupted: never leave it running
                    proc.kill()
                    os.wait4(proc.pid, 0)
                    proc.returncode = -9
            wall = time.monotonic() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            if proc.returncode != 0:
                tail = errors.read_text()[-2000:]
                raise BenchError(f"{mode} process exited with {proc.returncode}:\n{tail}")
            result = json.loads(record.read_text())
        finally:
            errors.unlink(missing_ok=True)
            record.unlink(missing_ok=True)
        result["process"] = {
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024,
        }
        return result

    # The primed state lives under the work tree and is made untimed by the
    # sources being measured: `primed.ok` holds their fingerprint, and any
    # source change primes again. The result cache is not keyed by code
    # version, so a state primed by other code would serve that code's
    # results, and the priming run's table check is what covers the
    # experiments `rerun_warm` only replays.
    def primed_root(self):
        return self.dir / "primed"

    def corpus(self):
        return self.dir / "corpus"

    def prime(self, fingerprint):
        caches = self.spec["caches"]
        if caches == "cold":
            return
        done = self.dir / "primed.ok"
        if done.exists() and done.read_text().strip() == fingerprint:
            return
        done.unlink(missing_ok=True)
        log(f"priming {self.name} (once per source version)")
        if caches == "warm":
            root = self.primed_root()
            shutil.rmtree(root, ignore_errors=True)
            root.mkdir()
            self.call("timed", root, ["--experiments", ",".join(self.spec["experiments"])],
                      timeout=PRIME_TIMEOUT_S)
            if self.check(root)["mismatched"]:
                raise BenchError("the priming run's tables differ from their reference")
        else:
            shutil.rmtree(self.corpus(), ignore_errors=True)
            root = self.fresh_root()
            self.call("setup", root, ["--corpus", str(self.corpus())], timeout=PRIME_TIMEOUT_S)
            shutil.rmtree(root)
        done.write_text(fingerprint + "\n")

    def corpus_args(self):
        """Points a process at the workload's primed trace corpus, if any."""
        caches = self.spec["caches"]
        if caches == "warm":
            return ["--corpus", str(self.primed_root() / ".cache" / "traces")]
        if caches == "corpus":
            return ["--corpus", str(self.corpus())]
        return []

    def setup_sample(self):
        root = self.fresh_root()
        try:
            return self.call("setup", root, self.corpus_args())["setup_s"]
        finally:
            shutil.rmtree(root, ignore_errors=True)

    def check(self, root):
        """Diffs the tables under `root` against the workload's reference:
        the checked-in results/ where they apply, else recorded digests."""
        if self.spec["events"] != REFERENCE_EVENTS:
            reference = json.loads((DIGESTS / f"{self.name}.json").read_text())
            checked, bad, orphans = benchlib.diff_against_digests(root, reference["tables"])
        else:
            checked, bad, orphans = benchlib.diff_against_tree(
                root, REFERENCE_TREE, self.spec["experiments"])
        for rel in bad:
            log(f"table differs from its reference: {rel}")
        return {"checked": len(checked), "mismatched": bad, "orphans": orphans}

    def iteration(self, journal=None, keep=False, check=True):
        """One timed process: fresh root, primed caches, every table
        checked unless `check` is off. Returns its record, and the root
        when `keep` is set."""
        root = self.fresh_root()
        if self.spec["caches"] == "warm":
            shutil.copytree(self.primed_root() / ".cache", root / ".cache",
                            ignore=shutil.ignore_patterns("traces"))
        args = self.corpus_args() + ["--experiments", ",".join(self.spec["experiments"])]
        if journal:
            args += ["--journal", str(journal)]
        try:
            rec = self.call("timed", root, args)
            rec["check"] = self.check(root) if check else None
            rec["paper_gap_pp"] = benchlib.paper_gap_pp(root)
        except BaseException:
            shutil.rmtree(root, ignore_errors=True)
            raise
        if keep:
            return rec, root
        shutil.rmtree(root, ignore_errors=True)
        return rec, None


def cells(rec):
    return rec["engine"]["hits"] + rec["engine"]["misses"]


def folded_events(rec):
    """Events the process simulated: the sweep engine's cache misses plus
    the experiments that bypass the engine (all of it on `rerun_warm`,
    whose every engine cell is a cache hit)."""
    return rec["engine"]["simulated_events"] + rec["bypass_events"]


def tally(records):
    """(attempted, failed): cells served plus tables checked, against
    degraded cells plus mismatched tables."""
    attempted = sum(cells(r) + r["check"]["checked"] for r in records)
    failed = sum(r["engine"]["degraded_cells"] + len(r["check"]["mismatched"]) for r in records)
    return attempted, failed


def end_to_end(runner, seconds):
    start = time.monotonic()
    setups, records = [], []
    while True:
        began = time.monotonic()
        setups += [runner.setup_sample() for _ in range(SETUPS_PER_ITERATION)]
        records.append(runner.iteration()[0])
        took = time.monotonic() - began
        if time.monotonic() - start + took > seconds:
            break
    med = statistics.median
    metrics = {
        "wall_s": med([r["wall_s"] for r in records]),
        "cpu_s": med([r["process"]["cpu_s"] for r in records]),
        "setup_s": med(setups + [r["setup_s"] for r in records]),
        "events_per_s": med([folded_events(r) / r["wall_s"] for r in records]),
        "cells_per_s": med([cells(r) / r["wall_s"] for r in records]),
        "peak_rss_mb": med([r["process"]["peak_rss_mb"] for r in records]),
        "paper_gap_pp": records[0]["paper_gap_pp"],
    }
    within = {"wall_s": benchlib.spread([r["wall_s"] for r in records]),
              "setup_s": benchlib.spread(setups)}
    return metrics, records, {"setup_s": setups, "within_run_spread": within}


def per_layer(runner, seed):
    plain, _ = runner.iteration()
    journal = WORK / "journal" / f"{runner.name}-{os.getpid()}.jsonl"
    journal.parent.mkdir(parents=True, exist_ok=True)
    try:
        traced, root = runner.iteration(journal=journal, keep=True)
    finally:
        journal.unlink(missing_ok=True)
    # A cold workload opens its first segment in an empty corpus.
    empty = root.with_name(root.name + "-corpus")
    corpus = runner.corpus_args() or ["--corpus", str(empty)]
    try:
        layers = runner.call("layers", root, [*corpus, "--seed", str(seed)])
    finally:
        shutil.rmtree(root, ignore_errors=True)
        shutil.rmtree(empty, ignore_errors=True)
    eng, tc = traced["engine"], traced["trace_cache"]
    lookups = eng["hits"] + eng["misses"]
    proc = plain["process"]
    attempted, failed = tally([plain, traced])
    metrics = dict(layers["metrics"])
    metrics.update({
        "trace_cache.hits": tc["hits"],
        "trace_cache.misses": tc["misses"],
        "trace_cache.bytes_read": tc["bytes_read"],
        "trace_cache.bytes_written": tc["bytes_written"],
        "engine.sweep_s": traced["sweep_s"],
        "engine.cache_hits": eng["hits"],
        "engine.cache_misses": eng["misses"],
        "engine.persistent_hits": eng["persistent_hits"],
        "engine.hit_rate": eng["hits"] / lookups if lookups else 0.0,
        "engine.simulated_events": eng["simulated_events"],
        "engine.sharded_cells": eng["sharded_cells"],
        "engine.component_cells": eng["component_cells"],
        "engine.degraded_cells": eng["degraded_cells"],
        "parallel.core_util_pct": 100 * proc["cpu_s"] / (proc["wall_s"] * plain["threads"]),
        "obs.trace_overhead_pct": 100 * (traced["wall_s"] - plain["wall_s"]) / plain["wall_s"],
        "failed_pct": 100 * failed / attempted,
    })
    return metrics, [plain, traced], {"spans": layers["spans"]}


def provenance(args, events):
    if (REPO / ".git").exists():
        out = subprocess.run(["git", "-C", str(REPO), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        rev = "git:" + out.stdout.strip() if out.returncode == 0 else None
    else:
        rev = None
    return {
        "rev": rev or "src-sha256:" + benchlib.source_fingerprint(REPO),
        "nproc": len(os.sched_getaffinity(0)),
        "IBP_EVENTS": events,
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(args.trace),
        "seconds": args.seconds,
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def write_digests(runner):
    _, root = runner.iteration(keep=True, check=False)
    digests = benchlib.table_digests(root)
    shutil.rmtree(root, ignore_errors=True)
    DIGESTS.mkdir(exist_ok=True)
    path = DIGESTS / f"{runner.name}.json"
    path.write_text(json.dumps({
        "events": runner.spec["events"],
        "experiments": runner.spec["experiments"],
        "tables": digests,
    }, indent=2, sort_keys=True) + "\n")
    log(f"wrote {len(digests)} digests to {path.relative_to(REPO)}")


def parse_args(argv):
    p = argparse.ArgumentParser(description="Benchmark of the ibp simulator.")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, required=True, choices=[0, 1])
    p.add_argument("--write-digests", action="store_true")
    args = p.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        p.error("--seconds must be positive and --seed non-negative")
    return args


def main(argv):
    args = parse_args(argv)
    # Unwind on SIGTERM too, so a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    try:
        spec = json.loads(SPEC.read_text())
        binary = build()
        # The first run in a checkout primes every workload, whichever it
        # measures: only that run may take minutes.
        fingerprint = benchlib.source_fingerprint(REPO)
        for name in WORKLOADS:
            Runner(binary, name).prime(fingerprint)
        runner = Runner(binary, args.workload)
        if args.write_digests:
            write_digests(runner)
            return 0
        if args.trace:
            values, records, extra = per_layer(runner, args.seed)
            wanted = spec["per_layer"]
        else:
            values, records, extra = end_to_end(runner, args.seconds)
            wanted = spec["end_to_end"]
    except BenchError as e:
        log(str(e))
        return 1
    attempted, failed = tally(records)
    missing = [m["name"] for m in wanted if values.get(m["name"]) is None]
    if missing:
        log(f"metrics not measured: {', '.join(missing)}")
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    orphans = sorted({o for r in records for o in r["check"]["orphans"]})
    for orphan in orphans:
        log(f"checked-in table no experiment emits (not checked): {orphan}")
    record = {"provenance": provenance(args, runner.spec["events"]), "metrics": metrics,
              "orphans": orphans, "samples": records, **extra}
    with open(WORK / "records.jsonl", "a") as f:
        f.write(json.dumps(record) + "\n")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
