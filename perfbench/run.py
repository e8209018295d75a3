#!/usr/bin/env python3
"""End-to-end benchmark of the LTP simulator.

Run from the repository root::

    python3 perfbench/run.py --workload sweep-cold --seed 1 --seconds 45 \\
        --trace 0

prints every end-to-end metric (``--trace 0``) or every per-layer
metric (``--trace 1``) with its unit, checks every point's statistics
against ``perfbench/reference.json``, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  Scratch files go
to ``.bench_build/perfbench`` under the root.  See
``perfbench/README.md`` for the workloads and the metric map.

``--record-reference`` re-simulates every point any seed can draw and
rewrites the reference; do that only when the simulator's statistics
change on purpose.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from tracer import (API_SPANS, NullTracer, Tracer, instrument, self_times,
                    span_cost_s)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
REFERENCE = BENCH / "reference.json"

#: environment that would change the simulator's defaults or cache
REPRO_ENV = ("REPRO_WARMUP_INSTS", "REPRO_MEASURE_INSTS",
             "REPRO_CACHE_DIR", "REPRO_JOBS")
#: fresh-interpreter set-up samples per run (one more is discarded)
SETUP_SAMPLES = 9
SETUP_CODE = """\
import sys, time
start = time.perf_counter()
import repro, repro.api
repro.api.Session(cache_dir=sys.argv[1]).close()
print(time.perf_counter() - start)
"""
#: untimed warm-up before the first measured pass
WARMUP_S = 2.0
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")

#: name -> unit; the order they print in
END_TO_END = {
    "points_per_s": "1/s",
    "sim_insts_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_cycles": "cycles",
    "points_ok_frac": "fraction",
}
PER_LAYER = {
    "workloads.build_s": "s", "workloads.builds": "count",
    "isa.trace_s": "s", "isa.traces": "count", "isa.trace_insts": "count",
    "ltp.oracle_s": "s", "ltp.oracles": "count",
    "core.predecode_s": "s", "core.predecodes": "count",
    "core.loop_s": "s", "core.loop_insts_per_s": "1/s",
    "memory.access_s": "s", "memory.accesses": "count",
    "harness.warm_s": "s",
    "policies.build_s": "s", "policies.warm_s": "s",
    "api.points_per_trace": "ratio",
    "harness.cache_lookup_s": "s", "harness.cache_put_s": "s",
    "harness.cache_hit_ratio": "ratio",
    "api.store_open_s": "s", "api.store_get_s": "s", "api.store_add_s": "s",
    "api.inspect_s": "s", "api.inspected": "count",
    "api.self_s": "s",
    "api.latency_samples": "count",
    "api.flagged": "count", "api.store_served_frac": "fraction",
    "ltp.parked": "count", "ltp.forced_releases": "count",
    "memory.long_latency_loads": "count", "core.stall_cycles": "count",
    "trace.overhead_frac": "fraction", "trace.self_sum_frac": "fraction",
    "trace.span_cost_us": "us", "memory.span_share": "fraction",
}
#: span name -> per-layer self-time metric
SPAN_TIMES = {
    "workloads.build": "workloads.build_s", "isa.trace": "isa.trace_s",
    "ltp.oracle": "ltp.oracle_s", "core.predecode": "core.predecode_s",
    "core.loop": "core.loop_s", "memory.access": "memory.access_s",
    "harness.warm": "harness.warm_s", "policies.build": "policies.build_s",
    "policies.warm": "policies.warm_s",
    "harness.cache_lookup": "harness.cache_lookup_s",
    "harness.cache_put": "harness.cache_put_s",
    "api.store_open": "api.store_open_s", "api.store_get": "api.store_get_s",
    "api.store_add": "api.store_add_s", "api.inspect": "api.inspect_s",
}
#: span name -> per-layer call-count metric
SPAN_COUNTS = {
    "workloads.build": "workloads.builds", "isa.trace": "isa.traces",
    "ltp.oracle": "ltp.oracles", "core.predecode": "core.predecodes",
    "memory.access": "memory.accesses", "api.inspect": "api.inspected",
}
#: witness metric -> the statistics it sums over simulated points
WITNESSES = {
    "ltp.parked": ("ltp_parked",),
    "ltp.forced_releases": ("ltp_forced_releases",),
    "memory.long_latency_loads": ("long_latency_loads",),
    "core.stall_cycles": ("stall_rob", "stall_iq", "stall_regs",
                          "stall_lsq", "stall_ltp_full", "stall_frontend"),
}


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        choices=("sweep-cold", "sweep-resume"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test size: two workloads, small "
                             "budgets, no reference")
    parser.add_argument("--record-reference", action="store_true")
    parser.add_argument("--prepare", metavar="DIR",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (args.workload or args.record_reference or args.prepare):
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def measure_setup(samples: int = SETUP_SAMPLES) -> float:
    """Median fresh-interpreter ``import repro`` + ``Session()`` time."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cache = WORK / "setup-cache"
    times = []
    for index in range(samples + 1):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(cache)], env=env,
            cwd=str(ROOT), capture_output=True, text=True, timeout=120,
            check=True)
        if index:  # the first sample also compiles bytecode
            times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def source_fingerprint() -> str:
    """Hash of the simulator sources and the workload definitions."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    digest.update((BENCH / "suite.py").read_bytes())
    return digest.hexdigest()[:12]


def prepared_resume(tiny: bool) -> Path:
    """The stores sweep-resume reads, built once per source tree.

    Building them is preparation, not measurement, so it runs in a
    child process: its time and memory stay out of the run's figures.
    """
    prefix = "resume-tiny-" if tiny else "resume-"
    directory = WORK / f"{prefix}{source_fingerprint()}"
    if (directory / "READY").is_file():
        return directory
    for stale in WORK.glob(f"{prefix}*"):
        if re.fullmatch(f"{prefix}[0-9a-f]{{12}}", stale.name):
            shutil.rmtree(stale, ignore_errors=True)
    staging = WORK / f"{prefix}staging"
    shutil.rmtree(staging, ignore_errors=True)
    command = [sys.executable, str(Path(__file__).resolve()),
               "--prepare", str(staging)]
    subprocess.run(command + (["--tiny"] if tiny else []), cwd=str(ROOT),
                   timeout=900, check=True)
    (staging / "READY").write_text("ready\n")
    staging.rename(directory)
    return directory


def load_reference() -> Dict[str, Any]:
    with open(REFERENCE) as handle:
        return json.load(handle)


def check_points(suite: Any, passes: List[Any], reference: Optional[dict],
                 workload: str, seed: int, tiny: bool = False,
                 ) -> Tuple[int, bool, List[str]]:
    """Digest every landed point; returns (mismatches, consistent, notes)."""
    mismatches = 0
    notes: List[str] = []
    per_pass = []
    expected = (reference or {}).get("points", {})
    for result in passes:
        per_pass.append(suite.set_digest(result.digests))
        if reference is None:
            continue
        for key, digest in result.digests.items():
            if expected.get(key) != digest:
                mismatches += 1
                if len(notes) < 5:
                    notes.append(f"point {key}: digest {digest} != "
                                 f"reference {expected.get(key)}")
    consistent = len(set(per_pass)) <= 1
    notes.append(f"digest {workload}: {per_pass[0] if per_pass else '-'} "
                 f"({'same' if consistent else 'DIFFERS'} across "
                 f"{len(per_pass)} pass(es))")
    recorded = (reference or {}).get("workloads", {}).get(
        workload, {}).get(str(seed))
    if recorded is not None and per_pass:
        match = all(digest == recorded for digest in per_pass)
        consistent = consistent and match
        notes.append(f"recorded digest for seed {seed}: {recorded} "
                     f"({'match' if match else 'MISMATCH'})")
    if workload == "sweep-resume" and reference is not None and passes:
        shared = suite.shared_keys(seed, tiny)
        got = {key: passes[0].digests[key]
               for key in shared if key in passes[0].digests}
        want = {key: expected.get(key) for key in shared}
        match = len(got) == len(shared) and got == want
        consistent = consistent and match
        notes.append(f"shared with sweep-cold: {len(shared)} points, "
                     f"digest {suite.set_digest(got)} "
                     f"({'match' if match else 'MISMATCH'})")
    return mismatches, consistent, notes


def run_passes(workload: Any, tracer: Any, budget: float,
               count: Optional[int] = None) -> List[Any]:
    """Whole passes: *count* of them, or as many as end nearest to
    *budget* (at least the workload's ``min_passes``): the next pass
    runs unless it would end more than half a pass past the budget.

    Garbage from the previous pass is collected first, so every pass
    starts from the same heap and the peak memory is a pass's own.
    """
    passes: List[Any] = []
    elapsed = 0.0
    while True:
        gc.collect()
        result = workload.run_pass(tracer)
        passes.append(result)
        elapsed += result.wall_s
        if count is not None:
            if len(passes) >= count:
                return passes
        elif (len(passes) >= workload.min_passes
              and elapsed + elapsed / len(passes) / 2 > budget):
            return passes


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 500):
        for numerator in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                          -(a + m) * (a + b + m) * x
                          / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + numerator / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-14:
            break
    return h


def beta_cdf(a: float, b: float, x: float) -> float:
    """Regularised incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, 1.0 - x) / b


def quantile(values: List[float], q: float) -> float:
    """Harrell-Davis estimate of the *q* quantile of *values*.

    A weighted mean of all order statistics, weighted by a beta
    distribution centred on *q*.  Unlike a single order statistic (or
    two interpolated ones) it does not hang on the one or two points
    that happen to sit at the quantile, so it moves less from run to
    run with the same code.
    """
    ordered = sorted(values)
    count = len(ordered)
    if count == 1:
        return ordered[0]
    a, b = q * (count + 1), (1.0 - q) * (count + 1)
    total, below = 0.0, 0.0
    for index, value in enumerate(ordered, start=1):
        upto = beta_cdf(a, b, index / count)
        total += (upto - below) * value
        below = upto
    return total


def end_to_end(passes: List[Any], setup_s: float, attempted: int,
               failed: int) -> Dict[str, float]:
    """The run's figures.  Rates are totals over the whole run: the
    host's speed flips between a fast and a slow state for seconds to
    minutes at a time, and a median over passes would snap to one state
    where the total weighs both by how long each lasted.
    """
    wall = sum(result.wall_s for result in passes)
    latencies = [value for result in passes for value in result.latencies]
    return {
        "points_per_s": sum(result.landed for result in passes) / wall,
        "sim_insts_per_s":
            sum(result.committed for result in passes) / wall,
        "latency_p50_s": quantile(latencies, 0.5),
        "latency_p90_s": quantile(latencies, 0.9),
        "setup_s": setup_s,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_cycles": float(passes[0].cycles),
        "points_ok_frac": (attempted - failed) / attempted,
    }


def per_layer(tracer: Any, traced: List[Any], untraced: List[Any],
              analysis: Dict[str, Any], span_cost: float,
              ) -> Dict[str, float]:
    passes = len(traced)
    own, inclusive = analysis["self"], analysis["inclusive"]
    count = analysis["count"]
    metrics: Dict[str, float] = {}
    for span, name in SPAN_TIMES.items():
        metrics[name] = own.get(span, 0.0) / passes
    for span, name in SPAN_COUNTS.items():
        metrics[name] = count.get(span, 0) / passes
    metrics["isa.trace_insts"] = \
        tracer.counts.get("isa.trace_insts", 0) / passes
    simulated = sum((result.simulated for result in traced), Counter())
    loop_s = inclusive.get("core.loop", 0.0)
    metrics["core.loop_insts_per_s"] = (
        simulated["committed"] / loop_s if loop_s else 0.0)
    traces = count.get("isa.trace", 0)
    metrics["api.points_per_trace"] = (simulated["points"] / traces
                                       if traces else 0.0)
    lookups = count.get("harness.cache_lookup", 0)
    metrics["harness.cache_hit_ratio"] = (
        tracer.counts.get("harness.cache_hits", 0) / lookups
        if lookups else 0.0)
    metrics["api.self_s"] = sum(own.get(span, 0.0)
                                for span in API_SPANS) / passes
    metrics["api.latency_samples"] = float(
        sum(len(result.latencies) for result in untraced))
    landed = sum(result.landed for result in traced)
    metrics["api.flagged"] = \
        sum(result.flagged for result in traced) / passes
    metrics["api.store_served_frac"] = (
        sum(result.sources["store"] for result in traced) / landed
        if landed else 0.0)
    for name, fields in WITNESSES.items():
        metrics[name] = sum(simulated[field] for field in fields) / passes
    traced_wall = sum(result.wall_s for result in traced)
    untraced_wall = sum(result.wall_s for result in untraced)
    metrics["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    metrics["trace.self_sum_frac"] = (
        sum(own.values()) / analysis["roots"] if analysis["roots"] else 0.0)
    metrics["trace.span_cost_us"] = span_cost * 1e6
    spans = sum(count.values())
    metrics["memory.span_share"] = (count.get("memory.access", 0) / spans
                                    if spans else 0.0)
    return metrics


def warm_up(suite: Any, name: str, seed: int, prepared: Optional[Path],
            tiny: bool) -> None:
    """Untimed passes until the CPU and the interpreter are warm."""
    if name == "sweep-resume":
        workload = suite.build(name, seed, WORK, tiny, prepared)
    else:
        workload = suite.build(name, seed, WORK, tiny=True)
    deadline = time.perf_counter() + WARMUP_S
    while time.perf_counter() < deadline:
        workload.run_pass(NullTracer())


def benchmark(name: str, seed: int, seconds: float, trace: bool,
              tiny: bool) -> int:
    import suite

    reference = None if tiny else load_reference()
    setup_s = measure_setup()
    prepared = prepared_resume(tiny) if name == "sweep-resume" else None
    shutil.rmtree(WORK / "passes", ignore_errors=True)
    warm_up(suite, name, seed, prepared, tiny)
    workload = suite.build(name, seed, WORK, tiny, prepared)

    budget = seconds / 2 if trace else seconds
    untraced = run_passes(workload, NullTracer(), budget)
    passes = untraced
    if trace:
        tracer = Tracer()
        with instrument(tracer):
            traced = run_passes(workload, tracer, budget,
                                count=len(untraced))
        passes = untraced + traced
    shutil.rmtree(WORK / "passes", ignore_errors=True)

    mismatches, consistent, notes = check_points(suite, passes, reference,
                                                 name, seed, tiny)
    attempted = sum(result.attempted for result in passes)
    failed = sum(result.failed for result in passes) + mismatches
    errors = [error for result in passes for error in result.errors]
    self_ok = True
    if trace:
        analysis = self_times(tracer.spans)
        metrics = per_layer(tracer, traced, untraced, analysis,
                            span_cost_s())
        self_ok = (analysis["min_self"] > -1e-9
                   and abs(metrics["trace.self_sum_frac"] - 1.0) < 1e-6)
        spans_path = WORK / f"spans-{name}.jsonl"
        tracer.write(spans_path)
        notes.append(f"{len(tracer.spans)} spans written to "
                     f"{spans_path.relative_to(ROOT)}; self times sum to "
                     f"the request wall time: {'yes' if self_ok else 'NO'}")
        units = PER_LAYER
    else:
        metrics = end_to_end(passes, setup_s, attempted, failed)
        units = END_TO_END

    print(f"workload {name}  seed {seed}  (definition seed "
          f"{suite.DEFINITION_SEED}, held-out seed {suite.HELD_OUT_SEED})")
    samples = sum(len(result.latencies) for result in untraced)
    print(f"passes {len(untraced)} untraced, {len(passes) - len(untraced)} "
          f"traced  points attempted {attempted}  failed {failed}  "
          f"failed_frac {failed / attempted:.4f}  latency samples {samples}")
    for note in notes + errors:
        print(f"  {note}")
    for metric, unit in units.items():
        print(f"  {metric:28s} {metrics[metric]:.6g} {unit}")
    correct = failed == 0 and consistent and self_ok
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {metric: {"value": metrics[metric], "unit": unit}
                    for metric, unit in units.items()}}))
    return 0


def record_reference() -> int:
    """Simulate every drawable point and rewrite the reference."""
    import suite
    from repro.api import Session

    configs = suite.reference_universe()
    cache = WORK / "reference-cache"
    shutil.rmtree(cache, ignore_errors=True)
    with Session(cache_dir=str(cache)) as session:
        results = session.run_many(configs)
    shutil.rmtree(cache, ignore_errors=True)
    points = {result.key: suite.stats_digest(result.stats)
              for result in results}
    workloads = {
        name: {str(seed): suite.set_digest(
                   {key: points[key]
                    for key in suite.workload_keys(name, seed)})
               for seed in (suite.DEFINITION_SEED, suite.HELD_OUT_SEED)}
        for name in suite.WORKLOADS}
    payload = {"definition_seed": suite.DEFINITION_SEED,
               "held_out_seed": suite.HELD_OUT_SEED,
               "workloads": workloads, "points": points}
    with open(REFERENCE, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"recorded {len(points)} point digests to "
          f"{REFERENCE.relative_to(ROOT)}")
    return 0


def bootstrap() -> bool:
    """Make the checkout's simulator importable with default settings."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources at {SRC}", file=sys.stderr)
        return False
    for name in REPRO_ENV:
        os.environ.pop(name, None)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    WORK.mkdir(parents=True, exist_ok=True)
    return True


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not bootstrap():
        return 2
    if args.record_reference:
        return record_reference()
    if args.prepare:
        import suite
        suite.prepare_resume_stores(Path(args.prepare), tiny=args.tiny)
        return 0
    return benchmark(args.workload, args.seed, args.seconds,
                     bool(args.trace), args.tiny)


if __name__ == "__main__":
    sys.exit(main())
