#!/usr/bin/env python3
"""A miniature of the paper's Section 4 limit study.

Sweeps the IQ size with every other resource unlimited, comparing no
LTP against the ideal (unlimited, oracle-classified) LTP variants —
one column of the paper's Figure 6, printed as text.

Usage::

    python examples/limit_study_mini.py [workload] [resource]

where *resource* is one of iq / rf / lq / sq.
"""

import sys

from repro.api import Session
from repro.harness.config import SimConfig
from repro.harness.experiments import (SWEEP_BASELINE, SWEEP_SIZES,
                                       _limit_core)
from repro.harness.report import render_table, size_label
from repro.ltp.config import limit_ltp, no_ltp


def main() -> None:
    workload = sys.argv[1] if len(sys.argv) > 1 else "lattice_milc"
    resource = sys.argv[2] if len(sys.argv) > 2 else "iq"
    sizes = SWEEP_SIZES[resource]

    session = Session()
    base_core = _limit_core(resource, SWEEP_BASELINE[resource])
    base = session.run(SimConfig(workload=workload, core=base_core,
                                 ltp=no_ltp()))
    base_cycles = base["cycles"]

    variants = [("no-ltp", no_ltp()), ("ltp-nr", limit_ltp("nr")),
                ("ltp-nu", limit_ltp("nu")),
                ("ltp-nr+nu", limit_ltp("nr+nu"))]
    rows = []
    for label, ltp in variants:
        row = [label]
        for size in sizes:
            core = _limit_core(resource, size)
            result = session.run(SimConfig(workload=workload, core=core,
                                           ltp=ltp))
            row.append((base_cycles / result["cycles"] - 1.0) * 100.0)
        rows.append(row)

    headers = ["config"] + [size_label(s) for s in sizes]
    print(render_table(
        headers, rows, precision=1,
        title=(f"Limit study ({resource.upper()} sweep, {workload}): "
               f"perf vs {resource.upper()}:"
               f"{SWEEP_BASELINE[resource]} baseline (%)")))
    print()
    print("Expected shape (paper Fig. 6): no-ltp degrades as the "
          "resource shrinks; the LTP rows stay near 0 much longer.")


if __name__ == "__main__":
    main()
