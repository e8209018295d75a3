"""repro.api — the supported programmatic surface of the reproduction.

The API layer is organised around four ideas:

* :class:`Session` — owns the trace/oracle/result caches and an
  execution backend; the one object services and tests hold on to,
  and the one path every point runs through (:meth:`Session.run`,
  ``run_many``, ``sweep``).  :func:`default_session` is the
  process-global instance the CLI and the paper experiments use.
* Declarative specs — :class:`~repro.harness.config.SimConfig`
  round-trips through dicts, and :class:`SweepSpec` expands axis
  products into validated configuration lists.
* :class:`ExecutorBackend` — the futures-based execution layer
  (:mod:`repro.api.exec`): ``submit(item) -> SimFuture``,
  ``as_completed()``, lifecycle events, bounded retries, graceful
  cancellation.  Concrete executors live in a registry
  (:mod:`repro.api.executors`) and are selectable **by name** —
  ``"serial"``, ``"process-pool"``, ``"remote"``, ``"mock"`` — from
  :class:`Session`, :class:`SweepSpec` or the CLI's ``--executor``
  flag; :func:`build_executor` constructs one and
  :func:`backend_for_jobs` applies the ``--jobs N`` rule (a whole
  sweep over a local worker pool is ``repro sweep --jobs N``).
* Remote execution — :mod:`repro.api.remote`: ``repro worker``
  processes (:class:`WorkerServer`) simulate configs sent over
  length-prefixed JSON/TCP, :class:`RemoteExecutor` fans a batch over
  a worker fleet with heartbeats and bounded retries, and
  :class:`SweepDaemon` (``repro serve``) multiplexes whole sweeps
  from concurrent clients (:func:`submit_sweep`) over one fleet with
  durable per-sweep stores.
* :class:`SimResult` — typed results with cache provenance and wall
  time, JSON-ready via ``to_dict()``.
* :class:`ResultStore` — durable, append-only JSONL stores of sweep
  results; with :meth:`SweepSpec.shard` and ``Session.sweep(store=,
  shard=)`` they make sweeps shardable across machines and resumable
  (:func:`merge_stores` recombines shard artifacts).
* :class:`SweepInspector` — online sweep QA (:mod:`repro.api.inspect`):
  validates every landed result against hard stat invariants and
  per-workload outlier baselines, raises operational alarms from the
  lifecycle-event stream, and persists confirmed anomalies as
  :class:`Annotation` rows that quarantine their key — a resumed
  sweep re-simulates exactly the quarantined points.  Enabled with
  ``Session.run_many/sweep(inspect=True)``.
* Allocation policies — :mod:`repro.policies` owns *when* resources
  are claimed; ``SimConfig(policy=...)`` / a ``"policy"`` sweep axis
  selects a registered policy (:func:`policy_names`).

Quick start::

    from repro.api import Session, SweepSpec

    with Session() as session:
        spec = SweepSpec(workloads=["lattice_milc"],
                         axes={"core.iq_size": [16, 32, 64]})
        for result in session.sweep(spec):
            print(result.config.core.iq_size, result.cpi)
"""

from repro.api.exec import (ExecEvent, ExecutionCancelled,
                            ExecutorBackend, PoolExecutor, SerialExecutor,
                            SimFuture, WorkerFailure, as_executor)
from repro.api.executors import (backend_for_jobs, build_executor,
                                 executor_descriptions, executor_names)
from repro.api.inspect import (InspectorConfig, SweepInspector,
                               stat_invariants)
from repro.api.mock import MockExecutor
from repro.api.registry import (Experiment, experiment, experiment_names,
                                get_experiment, renderer)
from repro.api.remote import (RemoteExecutor, SweepDaemon, WorkerFleetError,
                              WorkerServer, submit_sweep)
from repro.api.result import SimResult
from repro.api.session import Session, default_session, set_default_session
from repro.api.spec import SweepSpec, parse_shard
from repro.api.store import (Annotation, ResultStore, merge_stores,
                             summarize)
from repro.harness.config import SimConfig
from repro.ltp.config import ltp_preset, ltp_preset_names
from repro.policies import (DEFAULT_POLICY, AllocationPolicy, build_policy,
                            policy_descriptions, policy_names)

__all__ = [
    "AllocationPolicy",
    "Annotation",
    "DEFAULT_POLICY",
    "ExecEvent",
    "Experiment",
    "ExecutionCancelled",
    "ExecutorBackend",
    "InspectorConfig",
    "MockExecutor",
    "PoolExecutor",
    "RemoteExecutor",
    "ResultStore",
    "SerialExecutor",
    "Session",
    "SimConfig",
    "SimFuture",
    "SimResult",
    "SweepDaemon",
    "SweepInspector",
    "SweepSpec",
    "WorkerFailure",
    "WorkerFleetError",
    "WorkerServer",
    "as_executor",
    "backend_for_jobs",
    "build_executor",
    "build_policy",
    "default_session",
    "executor_descriptions",
    "executor_names",
    "experiment",
    "experiment_names",
    "get_experiment",
    "ltp_preset",
    "ltp_preset_names",
    "merge_stores",
    "parse_shard",
    "policy_descriptions",
    "policy_names",
    "renderer",
    "set_default_session",
    "stat_invariants",
    "submit_sweep",
    "summarize",
]
