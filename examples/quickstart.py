#!/usr/bin/env python3
"""Quickstart: reproduce the paper's headline result on one workload.

Runs three configurations of the milc-like kernel through the
:mod:`repro.api` session layer:

1. the baseline core (IQ 64, RF 128),
2. the shrunken core (IQ 32, RF 96) without LTP — it loses performance,
3. the shrunken core *with* the proposed LTP (128-entry 4-port queue,
   256-entry UIT, NU-only) — it recovers the baseline's performance.

Usage::

    python examples/quickstart.py [workload]
"""

import sys

from repro import (Session, SimConfig, baseline_params, ltp_params,
                   no_ltp, proposed_ltp)
from repro.harness.report import render_table


def main() -> None:
    workload = sys.argv[1] if len(sys.argv) > 1 else "lattice_milc"
    labels_and_configs = [
        ("baseline IQ:64 RF:128",
         SimConfig(workload=workload, core=baseline_params(), ltp=no_ltp())),
        ("small IQ:32 RF:96",
         SimConfig(workload=workload, core=ltp_params(), ltp=no_ltp())),
        ("small + LTP (proposed)",
         SimConfig(workload=workload, core=ltp_params(),
                   ltp=proposed_ltp())),
    ]

    # A Session owns the trace/oracle/result caches and the execution
    # backend; run_many simulates each distinct config exactly once and
    # returns typed SimResults in order (result.stats is the plain
    # statistics dict).
    with Session() as session:
        results = session.run_many([c for _, c in labels_and_configs])

    rows = []
    base_cycles = results[0]["cycles"]
    for (label, _), result in zip(labels_and_configs, results):
        rows.append([
            label,
            result.cpi,
            (base_cycles / result["cycles"] - 1.0) * 100.0,
            result["avg_outstanding"],
            result["avg_ltp"],
            100.0 * result["ltp_enabled_fraction"],
        ])
    print(render_table(
        ["configuration", "CPI", "perf vs base (%)",
         "outstanding reqs", "insts in LTP", "LTP enabled %"],
        rows, title=f"LTP quickstart — workload: {workload}"))
    print()
    print("The third row should recover (or beat) the first row's CPI "
          "with half the IQ and 25% fewer registers.")
    sources = ", ".join(f"{r.source}" for r in results)
    print(f"(result sources this run: {sources})")


if __name__ == "__main__":
    main()
