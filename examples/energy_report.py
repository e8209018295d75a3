#!/usr/bin/env python3
"""Energy/ED2P report: the Figure 10 trade-off on one workload.

Compares the baseline core, the shrunken core without LTP, and the
shrunken core with the proposed LTP, reporting the window-structure
energy breakdown and the ED2P delta vs the baseline — the efficiency
argument of Section 5.6.
"""

import sys

from repro import (Session, SimConfig, baseline_params, ltp_params,
                   no_ltp, proposed_ltp)
from repro.energy.model import compute_energy, relative_ed2p
from repro.harness.charts import bar_chart
from repro.harness.report import render_table


def main() -> None:
    workload = sys.argv[1] if len(sys.argv) > 1 else "lattice_milc"
    configs = [
        ("baseline IQ:64 RF:128", baseline_params(), no_ltp()),
        ("small IQ:32 RF:96", ltp_params(), no_ltp()),
        ("small + LTP", ltp_params(), proposed_ltp()),
    ]
    with Session() as session:
        runs = session.run_many(
            [SimConfig(workload=workload, core=core, ltp=ltp)
             for _, core, ltp in configs])
    results = []
    for (label, core, ltp), run in zip(configs, runs):
        energy = compute_energy(core, ltp, run.stats)
        results.append((label, run, energy))

    base_energy = results[0][2]
    rows = []
    for label, run, energy in results:
        rows.append([
            label, run["cycles"], energy.iq, energy.rf,
            energy.ltp + energy.uit,
            relative_ed2p(energy, base_energy),
        ])
    print(render_table(
        ["configuration", "cycles", "E(IQ)", "E(RF)", "E(LTP+UIT)",
         "ED2P vs base (%)"],
        rows, precision=0,
        title=f"Window-structure energy — {workload}"))
    print()
    print(bar_chart(
        [(label, relative_ed2p(energy, base_energy))
         for label, _, energy in results],
        title="IQ/RF ED2P vs baseline (%; more negative is better)"))


if __name__ == "__main__":
    main()
