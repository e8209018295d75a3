"""Sessions: explicit ownership of simulation state and execution.

A :class:`Session` owns all mutable simulation state:

* the bounded in-process **trace cache** (longest trace per workload,
  LRU beyond a cap),
* the bounded **oracle cache** (annotations keyed by workload, length,
  memory geometry and window),
* the **result cache** (memory + disk, directory configurable via
  ``Session(cache_dir=...)`` or the ``REPRO_CACHE_DIR`` env var),
* the **execution backend** used for batches
  (:class:`~repro.api.exec.SerialExecutor` by default).

Sessions are context managers — leaving the ``with`` block drops the
in-memory caches — and independent sessions never share state, so tests
and services can isolate cache lifetimes explicitly.  A process-global
default session (:func:`default_session`) serves the CLI, the paper
experiments and pool workers.

The execution recipe mirrors the paper's (250 M warmup instructions,
then a 10 M measured SimPoint), see :meth:`Session._simulate`:

1. generate ``warmup + measure`` dynamic instructions from the workload,
2. compute the oracle annotation over the *full* trace when the policy
   needs it (miss levels, Urgent/Non-Ready ground truth),
3. warm the memory hierarchy, branch predictor and policy on the
   warmup slice (functionally, no timing),
4. run the timing pipeline over the measured slice.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from pathlib import Path
from typing import (TYPE_CHECKING, Any, Callable, Dict, Iterable, List,
                    Optional, Tuple)

from repro.api.exec import (ExecutionCancelled, ExecutorBackend,
                            ProgressCallback, SerialExecutor, as_executor)
from repro.api.result import (SOURCE_DISK, SOURCE_MEMORY, SOURCE_SIMULATED,
                              SOURCE_STORE, SimResult, cached_result)
from repro.core.branch import GsharePredictor
from repro.core.params import CoreParams, cap
from repro.core.pipeline import CODE_BASE, INST_BYTES, Pipeline
from repro.harness.cachefile import ResultCache
from repro.harness.config import SimConfig
from repro.isa.trace import DynInst
from repro.ltp.oracle import OracleInfo, annotate_trace
from repro.memory.cache import block_of
from repro.memory.hierarchy import MemoryHierarchy
from repro.policies import build_policy, policy_needs_oracle
from repro.workloads import get_workload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.inspect import SweepInspector
    from repro.api.spec import SweepSpec
    from repro.api.store import ResultStore

#: LRU caps of the in-process memoisation (per session)
TRACE_CACHE_MAX = 8
ORACLE_CACHE_MAX = 16


# ======================================================================
# stateless warm-up helpers (module globals: the perf tracer patches
# them here)
# ======================================================================
def warm_hierarchy(hierarchy: MemoryHierarchy, warmup_slice,
                   program_len: int, warm_regions=()) -> None:
    """Functionally warm *hierarchy* on the warmup slice."""
    # Hot metadata a paper-scale warmup (250 M instructions) would leave
    # resident: the kernels re-walk these small arrays with a period far
    # longer than our warmup slice, so install them in the L2/L3 first.
    for base, words in warm_regions:
        for block in range(block_of(base), block_of(base + words * 8) + 1):
            hierarchy.l2.insert(block)
            hierarchy.l3.insert(block)
    for dyn in warmup_slice:
        if dyn.is_mem:
            hierarchy.functional_access(dyn.addr, is_store=dyn.is_store,
                                        pc=dyn.pc)
    # warm the instruction path: kernels are tiny, touch every block once
    for pc in range(program_len):
        block = block_of(CODE_BASE + pc * INST_BYTES)
        hierarchy.l1i.insert(block)
        hierarchy.l2.insert(block)
        hierarchy.l3.insert(block)


def warm_branch_predictor(bpred: GsharePredictor, warmup_slice) -> None:
    """Train *bpred* on the warmup slice's branches."""
    for dyn in warmup_slice:
        if dyn.is_branch:
            bpred.predict_and_update(dyn.pc, dyn.taken)


def _as_backend(backend: Any) -> Any:
    """Resolve registered executor names to backend instances.

    Everywhere a backend is accepted, a string names one from
    :mod:`repro.api.executors` — ``Session(backend="process-pool")``
    and ``session.run_many(..., backend="serial")`` both work.
    """
    if isinstance(backend, str):
        from repro.api.executors import build_executor
        return build_executor(backend)
    return backend


class Session:
    """Owns simulation caches and executes configurations.

    Parameters
    ----------
    cache_dir:
        Directory for the disk result cache.  ``None`` falls back to
        ``REPRO_CACHE_DIR`` or the repo-root ``.simcache``.
    backend:
        Default :class:`~repro.api.exec.ExecutorBackend` for
        :meth:`run_many` / :meth:`sweep` (``SerialExecutor`` when
        omitted).  A string names a registered executor
        (:func:`repro.api.executors.build_executor`).
    trace_cache_size / oracle_cache_size:
        LRU caps of the in-process memoisation caches.
    """

    def __init__(self, cache_dir: Optional[str] = None,
                 backend: Optional[ExecutorBackend] = None,
                 trace_cache_size: int = TRACE_CACHE_MAX,
                 oracle_cache_size: int = ORACLE_CACHE_MAX) -> None:
        if trace_cache_size <= 0 or oracle_cache_size <= 0:
            raise ValueError("cache sizes must be positive")
        self.results = ResultCache(cache_dir)
        self.backend: ExecutorBackend = \
            _as_backend(backend) or SerialExecutor()
        self.trace_cache_size = trace_cache_size
        self.oracle_cache_size = oracle_cache_size
        #: workload name -> (max length ever requested, longest trace);
        #: a trace shorter than its requested length means the workload
        #: halts early and the trace is complete (LRU, bounded)
        self._trace_cache: "OrderedDict[str, Tuple[int, List[DynInst]]]" = \
            OrderedDict()
        #: workload name -> columnar predecode of that workload's cached
        #: trace; keyed alongside ``_trace_cache`` and bounded by the
        #: same cap, so arrays never outlive their trace
        self._arrays_cache: "OrderedDict[str, Any]" = OrderedDict()
        #: (workload, length, mem key, window) -> oracle annotation
        self._oracle_cache: \
            "OrderedDict[Tuple[str, int, str, int], OracleInfo]" = \
            OrderedDict()
        self._workload_factory: Callable[[str], Any] = get_workload

    # ------------------------------------------------------------------
    # lifetime
    # ------------------------------------------------------------------
    @property
    def cache_dir(self) -> Path:
        """Directory of the disk result cache."""
        return self.results.directory

    def clear_memory_caches(self) -> None:
        """Drop the in-process trace, oracle and result memoisation.

        The caches are cleared in place (never rebound) so references
        handed out earlier keep observing this session's state; the
        disk result cache is untouched.
        """
        self._trace_cache.clear()
        self._arrays_cache.clear()
        self._oracle_cache.clear()
        self.results._memory.clear()

    def close(self) -> None:
        """Release in-memory state (the disk cache persists)."""
        self.clear_memory_caches()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"Session(cache_dir={str(self.cache_dir)!r}, "
                f"backend={self.backend!r})")

    # ------------------------------------------------------------------
    # memoised inputs
    # ------------------------------------------------------------------
    def get_trace(self, workload_name: str, length: int) -> List[DynInst]:
        """Build (and memoise) the first *length* instructions.

        Only the longest trace per workload is retained; shorter
        requests return a slice of it, so distinct sweep lengths never
        pile up duplicate copies in memory.
        """
        factory = self._workload_factory
        trace_cache = self._trace_cache
        cached = trace_cache.get(workload_name)
        if cached is not None:
            max_requested, full = cached
            # shorter than an earlier request => the workload halts
            # there and the trace is complete; never regenerate it
            complete = len(full) < max_requested
            if len(full) < length and not complete:
                full = factory(workload_name).trace(length)
            if length > max_requested or full is not cached[1]:
                trace_cache[workload_name] = (max(length, max_requested),
                                              full)
        else:
            full = factory(workload_name).trace(length)
            trace_cache[workload_name] = (length, full)
        trace_cache.move_to_end(workload_name)
        while len(trace_cache) > self.trace_cache_size:
            trace_cache.popitem(last=False)
        if len(full) <= length:
            return full
        return full[:length]

    def get_trace_arrays(self, workload_name: str, length: int):
        """Columnar predecode of the first *length* instructions.

        The cycle loop's :class:`~repro.core.kernel.TraceArrays` for
        a workload, memoised next to the trace itself: the predecode
        covers the session's cached (longest) trace, is invalidated
        whenever that trace object changes, and shorter requests get a
        columnar window over the shared arrays — so N configurations
        batched against one workload predecode exactly once.  Bounded
        by ``trace_cache_size`` like the trace cache it shadows.
        """
        from repro.core.kernel import predecode
        self.get_trace(workload_name, length)
        full = self._trace_cache[workload_name][1]
        arrays_cache = self._arrays_cache
        arrays = arrays_cache.get(workload_name)
        if arrays is None or arrays.dyns is not full:
            arrays = predecode(full)
            arrays_cache[workload_name] = arrays
        arrays_cache.move_to_end(workload_name)
        while len(arrays_cache) > self.trace_cache_size:
            arrays_cache.popitem(last=False)
        if arrays.n <= length:
            return arrays
        return arrays.window(0, length)

    def get_oracle(self, workload_name: str, length: int, core: CoreParams,
                   trace: List[DynInst]) -> OracleInfo:
        """Oracle annotation over the full trace (cached, LRU-bounded)."""
        window = min(cap(core.rob_size), 4096)
        mem = core.mem
        mem_key = (f"{mem.l1d_size}/{mem.l2_size}/{mem.l3_size}/"
                   f"{mem.prefetch_degree}")
        key = (workload_name, length, mem_key, window)
        oracle_cache = self._oracle_cache
        oracle = oracle_cache.get(key)
        if oracle is None:
            workload = self._workload_factory(workload_name)
            oracle = annotate_trace(trace, mem, window=window,
                                    warm_regions=workload.warm_regions)
            oracle_cache[key] = oracle
        oracle_cache.move_to_end(key)
        while len(oracle_cache) > self.oracle_cache_size:
            oracle_cache.popitem(last=False)
        return oracle

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, config: SimConfig, use_cache: bool = True) -> SimResult:
        """Run one configuration in-process; return a typed result."""
        config.validate()
        key = config.key()
        if use_cache:
            hit = self.results.lookup(key)
            if hit is not None:
                stats, where = hit
                source = SOURCE_MEMORY if where == "memory" else SOURCE_DISK
                return cached_result(config, key, stats, source,
                                     backend="cache")
        start = time.perf_counter()
        stats = self._execute(config)
        elapsed = time.perf_counter() - start
        if use_cache:
            self.results.put(key, stats)
        return SimResult(config=config, stats=stats, key=key,
                         source=SOURCE_SIMULATED, wall_time_s=elapsed)

    def batch_runner(self, workload: str, length: int) -> "BatchRunner":
        """A :class:`BatchRunner` for one trace identity.

        Executors hand every point of a ``(workload, warmup+measure)``
        batch to the returned runner; the trace is generated, the
        workload built and the columnar predecode done once for the
        whole batch instead of once per point.
        """
        return BatchRunner(self, workload, length)

    def _drive(self, backend: Any, config_list: List[SimConfig],
               use_cache: bool = True,
               store: Optional["ResultStore"] = None,
               progress: Optional[ProgressCallback] = None,
               inspect: Optional["SweepInspector"] = None,
               ) -> List[SimResult]:
        """Resolve cache/store hits and drive the rest as futures.

        Configurations are covered in list order.  Cached
        configurations are resolved in-process; each distinct
        remaining configuration is submitted exactly once (duplicates
        share the primary's result object, so provenance — one
        simulation — stays truthful).  Completed outcomes land in the
        session caches (and *store*, if given) as they arrive, then a
        failure raises the first :class:`WorkerFailure`, and remaining
        cancellations raise :class:`ExecutionCancelled` — everything
        that completed first is preserved, which is what makes a
        cancelled sweep resumable.

        An *inspect*\\ or watches the drive: it joins the executor's
        progress callbacks (operational alarms) and every landed
        result — store and cache hits included, which seeds its
        baselines from history — passes through
        :meth:`~repro.api.inspect.SweepInspector.observe`.  Keys the
        store holds quarantined are treated as not-yet-simulated:
        their store rows are not served, and cache lookups are
        bypassed for them so the re-run regenerates the data instead
        of replaying a poisoned cache entry.
        """
        executor = as_executor(backend)
        executor.bind(self)
        if progress is not None:
            executor.add_progress_callback(progress)
        if inspect is not None:
            executor.add_progress_callback(inspect)
            if progress is not None:
                inspect.add_sink(progress)
        # validate everything before anything is submitted: a bad
        # config must not leave earlier items queued on the (shared)
        # executor for an unrelated later batch to execute
        for config in config_list:
            config.validate()
        try:
            results: Dict[int, SimResult] = {}
            primary: Dict[str, int] = {}  # key -> index that simulates it
            duplicates: List[Tuple[int, str]] = []
            for index, config in enumerate(config_list):
                key = config.key()
                quarantined = store is not None and store.quarantined(key)
                stored = (store.get(key)
                          if store is not None and not quarantined
                          else None)
                if stored is not None:
                    results[index] = SimResult(
                        config=config, stats=stored.stats, key=key,
                        source=SOURCE_STORE, wall_time_s=0.0,
                        backend="store")
                    if inspect is not None:
                        inspect.observe(results[index], index)
                    continue
                hit = (self.results.lookup(key)
                       if use_cache and not quarantined else None)
                if hit is not None:
                    stats, where = hit
                    source = (SOURCE_MEMORY if where == "memory"
                              else SOURCE_DISK)
                    results[index] = cached_result(config, key, stats,
                                                   source, backend="cache")
                    if store is not None:
                        store.add(results[index])
                    if inspect is not None:
                        inspect.observe(results[index], index)
                elif key in primary:  # simulate each distinct config once
                    duplicates.append((index, key))
                else:
                    primary[key] = index
                    executor.submit((index, config, use_cache))

            failure: Optional[BaseException] = None
            cancelled = 0
            for future in executor.as_completed():
                if future.cancelled():
                    cancelled += 1
                    continue
                exc = future.exception()
                if exc is not None:
                    if failure is None:
                        failure = exc
                    continue
                outcome = future.result()
                result = SimResult(config=future.config,
                                   stats=outcome.stats, key=future.key,
                                   source=outcome.source,
                                   wall_time_s=outcome.wall_time_s,
                                   backend=executor.name)
                results[future.index] = result
                if use_cache:
                    # pool workers already wrote the disk cache; keep
                    # only the in-memory copy here
                    self.results.put(future.key, result.stats, disk=False)
                if store is not None:
                    # persist as each point lands, so an interrupted
                    # sweep keeps everything it finished
                    store.add(result)
                if inspect is not None:
                    # after store.add: a verdict annotation must follow
                    # the result row it judges in the store timeline
                    inspect.observe(result, future.index)

            for index, key in duplicates:
                if primary[key] in results:
                    results[index] = results[primary[key]]
            if failure is not None:
                raise failure
            if cancelled:
                raise ExecutionCancelled(
                    f"{cancelled} of {len(config_list)} configurations "
                    f"cancelled before execution "
                    f"({len(results)} completed)", completed=results)
            return [results[index] for index in range(len(config_list))]
        except BaseException:
            # never leave submitted futures queued on the (possibly
            # session-shared) executor: cancel whatever has not run
            # and drain, so the next batch starts from a clean queue
            executor.cancel_all()
            for _ in executor.as_completed():
                pass
            raise
        finally:
            if progress is not None:
                executor.remove_progress_callback(progress)
            if inspect is not None:
                executor.remove_progress_callback(inspect)
                if progress is not None:
                    inspect.remove_sink(progress)

    def run_many(self, configs: Iterable[SimConfig],
                 use_cache: bool = True,
                 backend: Optional[ExecutorBackend] = None,
                 store: Optional["ResultStore"] = None,
                 progress: Optional[ProgressCallback] = None,
                 inspect: Any = None,
                 ) -> List[SimResult]:
        """Run independent configurations through an execution backend.

        Results come back in the order of *configs* (deterministic
        aggregation regardless of backend scheduling).  Cached
        configurations are resolved in-process; each distinct remaining
        configuration is simulated exactly once and duplicates share the
        primary's statistics.  *backend* may be a futures-style
        :class:`~repro.api.exec.ExecutorBackend`, a registered executor
        name (``"serial"``, ``"process-pool"``, ``"remote"``, …);
        anything else raises ``TypeError``.  *progress* receives every
        :class:`~repro.api.exec.ExecEvent`.

        With a :class:`~repro.api.store.ResultStore`, points whose keys
        the store already holds are served from it (``source ==
        "store"``) without simulating, and every other outcome is
        appended to the store as it lands — an interrupted batch keeps
        all completed points, so re-running resumes where it stopped.

        *inspect* turns on online QA: ``True`` builds a
        :class:`~repro.api.inspect.SweepInspector` bound to *store*,
        or pass a configured inspector.  Every landed result is
        validated as it arrives, confirmed anomalies become store
        annotations, and keys the store holds quarantined are
        re-simulated instead of served.
        """
        from repro.api.inspect import as_inspector
        return self._drive(_as_backend(backend) or self.backend,
                           list(configs), use_cache=use_cache, store=store,
                           progress=progress,
                           inspect=as_inspector(inspect, store))

    def sweep(self, spec: "SweepSpec", use_cache: bool = True,
              backend: Optional[ExecutorBackend] = None,
              store: Optional["ResultStore"] = None,
              shard: Optional[Tuple[int, int]] = None,
              progress: Optional[ProgressCallback] = None,
              inspect: Any = None,
              ) -> List[SimResult]:
        """Expand a :class:`~repro.api.spec.SweepSpec` and run it.

        ``shard=(index, count)`` restricts execution to the spec's
        *index*-th key-stable partition
        (:meth:`~repro.api.spec.SweepSpec.shard`), so independent
        workers cover a sweep exactly once.  A ``store`` makes the run
        durable and resumable: stored points are skipped, fresh points
        are appended as they complete, and the store is bound to the
        spec's :meth:`~repro.api.spec.SweepSpec.sweep_id` so resuming
        with a different spec fails fast.  Keys the store holds
        *quarantined* (an inspector's annotation rows) count as
        not-yet-simulated: a resumed sweep re-runs exactly them, and
        the fresh rows lift the quarantine.  *inspect* enables the
        online QA itself (see :meth:`run_many`).
        """
        if backend is None and spec.executor is not None:
            # the spec's preference holds only when the caller did not
            # choose; resolved by name so specs stay JSON-serializable
            backend = spec.executor
        if shard is not None:
            index, count = shard
            configs = spec.shard(index, count)
        else:
            configs = spec.expand()
        if store is not None:
            # bind before running so a wrong spec fails fast, and
            # materialise the file so even an empty shard leaves a
            # mergeable artifact
            store.bind(spec.sweep_id()).touch()
        return self.run_many(configs, use_cache=use_cache,
                             backend=backend, store=store,
                             progress=progress, inspect=inspect)

    # ------------------------------------------------------------------
    # the simulation itself
    # ------------------------------------------------------------------
    def _execute(self, config: SimConfig) -> Dict[str, Any]:
        """Trace, warm, and run the timing pipeline for *config*."""
        total = config.warmup + config.measure
        trace = self.get_trace(config.workload, total)
        workload = self._workload_factory(config.workload)
        return self._simulate(config, trace, workload)

    def _simulate(self, config: SimConfig, trace: List[DynInst],
                  workload: Any,
                  arrays: Any = None) -> Dict[str, Any]:
        """Warm and run the timing pipeline over prepared inputs.

        The per-point half of :meth:`_execute`: *trace* and *workload*
        (and optionally the predecoded *arrays*) are supplied by the
        caller so a :class:`BatchRunner` can share them across every
        point of a trace-identity batch while each point still warms
        and simulates independently.
        """
        total = config.warmup + config.measure
        oracle = (self.get_oracle(config.workload, total, config.core,
                                  trace)
                  if policy_needs_oracle(config.policy, config.ltp)
                  else None)

        warmup_slice = trace[:config.warmup]
        measured = trace[config.warmup:]

        hierarchy = MemoryHierarchy(config.core.mem)
        warm_hierarchy(hierarchy, warmup_slice, len(workload.program),
                       warm_regions=workload.warm_regions)
        bpred = GsharePredictor()
        warm_branch_predictor(bpred, warmup_slice)

        policy = build_policy(config.policy, config.ltp,
                              config.core.mem.dram_latency, oracle=oracle,
                              model=config.model)
        if config.warmup:
            policy.warm_from_trace(
                warmup_slice,
                oracle.long_latency[:config.warmup]
                if oracle is not None else None)

        if arrays is None:
            arrays = self.get_trace_arrays(config.workload, total)
        pipeline = Pipeline(measured, params=config.core, ltp=config.ltp,
                            policy=policy, hierarchy=hierarchy,
                            branch_predictor=bpred,
                            arrays=arrays.window(config.warmup))
        stats = pipeline.run().as_dict()
        stats["workload"] = config.workload
        stats["category"] = workload.category
        return stats


class BatchRunner:
    """Execute one trace-identity batch with shared prepared inputs.

    Created by :meth:`Session.batch_runner` for a batch of
    configurations sharing a workload and a total trace length — the
    grouping rule behind the executor layer's
    :class:`~repro.api.exec.BatchWorkItem`.  The first :meth:`run`
    call that misses the result cache prepares the shared inputs —
    one trace generation, one workload build and one columnar
    predecode — and every later call reuses them, while result
    caching, provenance and per-point isolation still apply.

    Each call is otherwise bit-identical to :meth:`Session.run`: the
    same cache lookup and fill, the same per-point warmup and
    simulation, the same :class:`~repro.api.result.SimResult` shape.
    Preparation failures surface on the *calling* point and are
    re-attempted on the next call, so a transient trace failure costs
    per-point retries and never poisons the runner.
    """

    def __init__(self, session: Session, workload: str, length: int):
        if length <= 0:
            raise ValueError("batch trace length must be positive")
        self.session = session
        self.workload = workload
        self.length = length
        self._trace: Optional[List[DynInst]] = None
        self._workload_obj: Any = None
        self._arrays: Any = None

    def _check_membership(self, config: SimConfig) -> None:
        total = config.warmup + config.measure
        if config.workload != self.workload or total != self.length:
            raise ValueError(
                f"config {config.workload!r} (trace length {total}) does "
                f"not belong to the {self.workload!r}/{self.length} batch")

    def run(self, config: SimConfig, use_cache: bool = True) -> SimResult:
        """Run one point of the batch; mirrors :meth:`Session.run`."""
        config.validate()
        self._check_membership(config)
        session = self.session
        key = config.key()
        if use_cache:
            hit = session.results.lookup(key)
            if hit is not None:
                stats, where = hit
                source = SOURCE_MEMORY if where == "memory" else SOURCE_DISK
                return cached_result(config, key, stats, source,
                                     backend="cache")
        start = time.perf_counter()
        if self._trace is None:
            self._trace = session.get_trace(self.workload, self.length)
        if self._workload_obj is None:
            self._workload_obj = session._workload_factory(self.workload)
        if self._arrays is None:
            self._arrays = session.get_trace_arrays(self.workload,
                                                    self.length)
        stats = session._simulate(config, self._trace, self._workload_obj,
                                  arrays=self._arrays)
        elapsed = time.perf_counter() - start
        if use_cache:
            session.results.put(key, stats)
        return SimResult(config=config, stats=stats, key=key,
                         source=SOURCE_SIMULATED, wall_time_s=elapsed)


# ======================================================================
# process-global default session
# ======================================================================
_default_session: Optional[Session] = None


def default_session() -> Session:
    """The process-global session (CLI, experiments, pool workers)."""
    global _default_session
    if _default_session is None:
        _default_session = Session()
    return _default_session


def set_default_session(session: Session) -> Optional[Session]:
    """Replace the process-global session; returns the previous one."""
    global _default_session
    previous = _default_session
    _default_session = session
    return previous
