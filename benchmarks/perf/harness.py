"""Throughput benchmark harness for the timing pipeline.

Measures *simulated instructions per second* — committed instructions
divided by the wall time of :meth:`Pipeline.run` — on a small set of
representative workload/LTP configurations.  Trace generation, oracle
annotation and cache warming happen outside the timed region, so the
numbers isolate the cycle-model hot path that PRs optimise.

``scripts/bench.py`` is the command-line entry point; it writes
``BENCH_pipeline.json`` at the repo root with the current numbers next
to the pre-optimisation seed baseline (``baseline_seed.json`` in this
directory) so the perf trajectory is tracked across PRs.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.api.session import (default_session, warm_branch_predictor,
                               warm_hierarchy)
from repro.core.branch import GsharePredictor
from repro.core.kernel import predecode
from repro.core.params import CoreParams, baseline_params, ltp_params
from repro.core.pipeline import Pipeline
from repro.ltp.config import LTPConfig, no_ltp, proposed_ltp
from repro.ltp.controller import LTPController
from repro.memory.hierarchy import MemoryHierarchy
from repro.policies import LTPPolicy
from repro.workloads import get_workload

#: directory holding the committed seed-baseline snapshot
PERF_DIR = Path(__file__).resolve().parent
BASELINE_SNAPSHOT = PERF_DIR / "baseline_seed.json"

#: the headline config the acceptance criteria track
HEADLINE = "milc_baseline"


def _warm_cpu(seconds: float = 2.0) -> None:
    """Spin until the frequency governor reaches steady state.

    A cold CPU clocks the first timed repeats 10-20% low, which reads
    as a phantom regression; every :func:`run_one` spins briefly before
    its timed loop so best-of-N compares like with like.
    """
    deadline = time.perf_counter() + seconds
    x = 0
    while time.perf_counter() < deadline:
        x += 1


def _core(kind: str) -> CoreParams:
    return baseline_params() if kind == "baseline" else ltp_params()


def _ltp(kind: str) -> LTPConfig:
    return no_ltp() if kind == "none" else proposed_ltp()


#: name -> (workload, core kind, ltp kind); chosen to cover the hot paths:
#: fp lattice (headline), LTP parking/release, pointer chasing (memory
#: latency bound) and streaming (prefetcher + bandwidth bound).
BENCH_CONFIGS: Dict[str, tuple] = {
    "milc_baseline": ("lattice_milc", "baseline", "none"),
    "milc_ltp": ("lattice_milc", "small", "proposed"),
    "astar_baseline": ("ptrchase_astar", "baseline", "none"),
    "triad_baseline": ("stream_triad", "baseline", "none"),
}


def run_one(name: str, warmup: int, measure: int, repeats: int) -> dict:
    """Benchmark one named configuration; returns a result row.

    The trace is predecoded once outside the timed region — the shape
    sweeps execute, one predecode per workload.
    """
    workload_name, core_kind, ltp_kind = BENCH_CONFIGS[name]
    core = _core(core_kind)
    ltp = _ltp(ltp_kind)
    total = warmup + measure
    session = default_session()
    trace = session.get_trace(workload_name, total)
    workload = get_workload(workload_name)
    oracle = (session.get_oracle(workload_name, total, core, trace)
              if ltp.enabled else None)
    warmup_slice = trace[:warmup]
    measured = trace[warmup:]
    arrays = predecode(trace).window(warmup)

    _warm_cpu()
    times: List[float] = []
    stats = None
    for _ in range(repeats):
        # untimed: rebuild and warm the mutable structures for this rep
        hierarchy = MemoryHierarchy(core.mem)
        warm_hierarchy(hierarchy, warmup_slice, len(workload.program),
                       warm_regions=workload.warm_regions)
        bpred = GsharePredictor()
        warm_branch_predictor(bpred, warmup_slice)
        controller = LTPController(ltp, core.mem.dram_latency, oracle=oracle)
        if ltp.enabled and oracle is not None and warmup:
            controller.warm_from_trace(warmup_slice,
                                       oracle.long_latency[:warmup])
        policy = LTPPolicy(ltp, core.mem.dram_latency, controller=controller)
        pipeline = Pipeline(measured, params=core, ltp=ltp, policy=policy,
                            hierarchy=hierarchy, branch_predictor=bpred,
                            arrays=arrays)
        start = time.perf_counter()
        stats = pipeline.run()
        times.append(time.perf_counter() - start)

    best = min(times)
    return {
        "workload": workload_name,
        "core": core_kind,
        "ltp": ltp_kind,
        "committed": stats.committed,
        "cycles": stats.cycles,
        "ipc": round(stats.ipc, 4),
        "best_seconds": round(best, 6),
        "median_seconds": round(statistics.median(times), 6),
        "insts_per_sec": round(stats.committed / best, 1),
    }


def run_bench(warmup: int = 2000, measure: int = 4000, repeats: int = 3,
              names: Optional[List[str]] = None) -> dict:
    """Run the full benchmark matrix; returns the result document body."""
    names = names or list(BENCH_CONFIGS)
    return {
        "warmup": warmup,
        "measure": measure,
        "repeats": repeats,
        "configs": {name: run_one(name, warmup, measure, repeats)
                    for name in names},
    }


def load_baseline() -> Optional[dict]:
    """The committed pre-optimisation (seed) baseline, if present."""
    if not BASELINE_SNAPSHOT.is_file():
        return None
    try:
        with open(BASELINE_SNAPSHOT) as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


def attach_baseline(document: dict) -> dict:
    """Add the seed baseline and per-config speedups to *document*.

    ``speedup_vs_baseline`` maps every config to its speedup over the
    committed seed; ``headline_speedup`` is the headline config's.
    ``scripts/bench.py --check`` gates both.
    """
    baseline = load_baseline()
    document["headline"] = HEADLINE
    if baseline is None:
        return document
    document["baseline"] = baseline
    speedup = {}
    for name, row in document["configs"].items():
        base_row = baseline.get("configs", {}).get(name)
        if base_row and base_row.get("insts_per_sec"):
            speedup[name] = round(
                row["insts_per_sec"] / base_row["insts_per_sec"], 3)
    document["speedup_vs_baseline"] = speedup
    if HEADLINE in speedup:
        document["headline_speedup"] = speedup[HEADLINE]
    return document
