"""repro — a reproduction of "Long Term Parking (LTP): Criticality-aware
Resource Allocation in OOO Processors" (Sembrant et al., MICRO 2015).

The package layers:

* :mod:`repro.isa` — a small RISC-like ISA, assembler and functional
  executor that turns kernels into dynamic traces with true dependences.
* :mod:`repro.memory` — the three-level cache hierarchy, MSHRs, stride
  prefetcher and DRAM model of the paper's Table 1.
* :mod:`repro.core` — a trace-driven cycle model of the out-of-order
  core (ROB/IQ/RF/LQ/SQ, issue, commit, branch and memory-dependence
  prediction).
* :mod:`repro.ltp` — the paper's contribution: classification, the
  Urgent Instruction Table, the parking queue, tickets, wakeup policies
  and the DRAM-timer monitor.
* :mod:`repro.workloads` — synthetic SPEC-like kernels forming the
  MLP-sensitive and MLP-insensitive suites.
* :mod:`repro.energy` — first-order IQ/RF/LTP energy and ED2P model.
* :mod:`repro.harness` — simulation configs, the disk result cache
  and one experiment function per paper table/figure.

* :mod:`repro.api` — the supported programmatic surface: sessions that
  own caches and backends, declarative sweep specs, typed results and
  the experiment registry.

Quick start::

    from repro import Session, SimConfig, ltp_params, proposed_ltp

    config = SimConfig(workload="lattice_milc", core=ltp_params(),
                       ltp=proposed_ltp())
    with Session() as session:
        result = session.run(config)
    print(result.cpi, result["avg_ltp"])

``result.stats`` is the flat statistics dict; :func:`default_session`
is the process-global session the CLI and the paper experiments run on.
"""

from repro.api import (Session, SimResult, SweepSpec, default_session,
                       experiment_names, get_experiment, ltp_preset,
                       ltp_preset_names, set_default_session)
from repro.core.params import CoreParams, baseline_params, ltp_params
from repro.core.pipeline import Pipeline, SimulationDeadlock, simulate
from repro.core.stats import SimStats
from repro.harness.config import SimConfig
from repro.ltp.config import (LTPConfig, limit_ltp, no_ltp,
                              proposed_ltp, wib_ltp)
from repro.ltp.oracle import OracleInfo, annotate_trace
from repro.memory.hierarchy import MemParams, MemoryHierarchy
from repro.workloads import (Workload, full_suite, get_workload,
                             mlp_insensitive_suite, mlp_sensitive_suite,
                             workload_names)

__version__ = "1.1.0"

__all__ = [
    "CoreParams",
    "LTPConfig",
    "MemParams",
    "MemoryHierarchy",
    "OracleInfo",
    "Pipeline",
    "Session",
    "SimConfig",
    "SimResult",
    "SimStats",
    "SimulationDeadlock",
    "SweepSpec",
    "Workload",
    "annotate_trace",
    "baseline_params",
    "default_session",
    "experiment_names",
    "full_suite",
    "get_experiment",
    "get_workload",
    "limit_ltp",
    "ltp_params",
    "ltp_preset",
    "ltp_preset_names",
    "mlp_insensitive_suite",
    "mlp_sensitive_suite",
    "no_ltp",
    "proposed_ltp",
    "set_default_session",
    "simulate",
    "wib_ltp",
    "workload_names",
]
