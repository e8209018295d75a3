#!/usr/bin/env python3
"""Self-tests of the benchmark at a tiny size.

Run from the repository root::

    python3 perfbench/selftest.py

Checks that every workload runs end to end through the command line
and prints the contract's JSON line, that metric names are well formed
and agree with ``BENCHMARK.json``, that a perturbed statistic fails the
digest check, that seeds vary the points but not their shape, that the
reference covers the recorded seeds, and that a traced run emits every
named span with self times that add up.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import run
from tracer import API_SPANS, Tracer, instrument, self_times

suite = None  # imported by main() once the simulator is on the path

#: every span the tracer records; core.predecode only fires on the
#: kernel engine, which the self-test adds as one extra point
SPANS = tuple(run.SPAN_TIMES) + API_SPANS


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL {message}")
        sys.exit(1)
    print(f"ok   {message}")


def check_metric_names() -> None:
    with open(run.ROOT / "BENCHMARK.json") as handle:
        declared = json.load(handle)
    for group, names in (("end_to_end", run.END_TO_END),
                         ("per_layer", run.PER_LAYER)):
        check(all(run.METRIC_NAME.fullmatch(name) for name in names),
              f"{group} metric names match {run.METRIC_NAME.pattern}")
        check({m["name"]: m["unit"] for m in declared[group]} == names,
              f"BENCHMARK.json {group} names and units match run.py")
    check([w["name"] for w in declared["workloads"]] ==
          list(suite.WORKLOADS),
          "BENCHMARK.json workloads match suite.WORKLOADS")


def check_cli(workload: str, trace: int) -> None:
    command = [sys.executable, str(run.BENCH / "run.py"), "--workload",
               workload, "--seed", "3", "--seconds", "1", "--trace",
               str(trace), "--tiny"]
    done = subprocess.run(command, cwd=str(run.ROOT), capture_output=True,
                          text=True, timeout=600)
    check(done.returncode == 0, f"{workload} --trace {trace} exits 0")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    names = run.PER_LAYER if trace else run.END_TO_END
    check(sorted(result) == ["attempted", "correct", "failed", "metrics"]
          and result["correct"] is True and result["failed"] == 0
          and result["attempted"] >= 1,
          f"{workload} --trace {trace} is correct with no failures")
    check({name: metric["unit"] for name, metric
           in result["metrics"].items()} == names,
          f"{workload} --trace {trace} reports every metric once")


def check_seeds() -> None:
    for workload in suite.WORKLOADS:
        shapes = []
        for seed in (suite.DEFINITION_SEED, suite.HELD_OUT_SEED):
            configs = configs_for(workload, seed)
            shapes.append((
                len(configs),
                len({(c.workload, c.warmup + c.measure) for c in configs}),
                Counter(c.policy for c in configs),
                frozenset(c.key() for c in configs)))
        check(shapes[0][:3] == shapes[1][:3],
              f"{workload}: seeds keep count, trace sharing, policy mix")
        if workload != "sweep-resume":  # resume order is all it varies
            check(shapes[0][3] != shapes[1][3],
                  f"{workload}: seeds sample different points")


def check_reference() -> None:
    reference = run.load_reference()
    points = reference["points"]
    for workload in suite.WORKLOADS:
        for seed in (suite.DEFINITION_SEED, suite.HELD_OUT_SEED):
            keys = suite.workload_keys(workload, seed)
            check(all(key in points for key in keys) and
                  suite.set_digest({key: points[key] for key in keys})
                  == reference["workloads"][workload][str(seed)],
                  f"{workload}: reference covers seed {seed} and its "
                  f"recorded digest matches the point digests")


def configs_for(workload: str, seed: int) -> list:
    if workload == "sweep-cold":
        return suite.sweep_cold_spec(seed).expand()
    return [c for _, spec in suite.resume_specs(seed) for c in spec.expand()]


def check_digest_and_spans(prepared: Path) -> None:
    from repro.api import Session, SimConfig

    tracer = Tracer()
    with instrument(tracer):
        passes = {name: suite.build(name, 3, run.WORK, tiny=True,
                                    prepared=prepared).run_pass(tracer)
                  for name in suite.WORKLOADS}
        with Session(cache_dir=str(run.WORK / "selftest-kernel")) as s:
            kernel_point = s.run(
                SimConfig(workload="lattice_milc", engine="kernel",
                          warmup=suite.TINY_WARMUP,
                          measure=suite.TINY_MEASURE),
                use_cache=False)
    emitted = {record[0] for record in tracer.spans}
    missing = [name for name in SPANS if name not in emitted]
    check(not missing, f"traced run emits every named span {missing or ''}")
    analysis = self_times(tracer.spans)
    check(analysis["min_self"] > -1e-9 and
          abs(sum(analysis["self"].values()) - analysis["roots"]) < 1e-6,
          "span self times add up to the request wall time")
    check(not any(r.failed for r in passes.values()),
          "tiny passes land every point")

    stats = kernel_point.stats
    numeric = [name for name, value in stats.items()
               if isinstance(value, (int, float))]
    check(all(suite.stats_digest(dict(stats, **{name: stats[name] + 1}))
              != suite.stats_digest(stats) for name in numeric),
          f"perturbing any of {len(numeric)} stats changes the digest")
    for name, result in passes.items():
        reference = {"points": dict(result.digests)}
        clean, consistent, _ = run.check_points(suite, [result], reference,
                                                name, 3, tiny=True)
        check(clean == 0 and consistent, f"{name}: clean pass matches")
        perturbed = suite.PassResult(digests=dict(result.digests))
        key = next(iter(perturbed.digests))
        perturbed.digests[key] = suite.stats_digest(
            dict(stats, cycles=stats["cycles"] + 1))
        bad, consistent, _ = run.check_points(
            suite, [result, perturbed], reference, name, 3, tiny=True)
        check(bad == 1 and not consistent,
              f"{name}: a perturbed point fails the digest check")


def main() -> int:
    global suite
    if not run.bootstrap():
        return 1
    import suite
    check_metric_names()
    check_seeds()
    check_reference()
    check_digest_and_spans(run.prepared_resume(tiny=True))
    for workload in suite.WORKLOADS:
        for trace in (0, 1):
            check_cli(workload, trace)
    print("all self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
