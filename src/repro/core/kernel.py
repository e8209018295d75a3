"""Columnar struct-of-arrays simulation engine (``engine="kernel"``).

:class:`KernelPipeline` executes the same Table 1 out-of-order core as
:class:`~repro.core.pipeline.Pipeline` — same stage order, same policy
seam, same statistics, bit-for-bit — but restructured for speed:

* **Struct-of-arrays trace state.**  The configuration-independent
  per-instruction metadata (PC, code address, branch flags, dense
  op-class / FU-group ids, non-pipelined flag, source counts) is
  predecoded once into parallel plain lists (:class:`TraceArrays`,
  built on :func:`repro.isa.trace.predecode_columns`) and indexed by
  position.  One predecode serves any number of configurations
  (:func:`simulate_batch`; the session layer caches the arrays in its
  trace LRU), which is the shape sweeps actually execute.
* **Integer event heap.**  Completion/tag events are packed into single
  integers ``cycle * SHIFT + rel * 2 + kind`` (``rel`` the trace-window
  index, ``SHIFT = 2 * len(trace)``), preserving the reference heap's
  exact ``(cycle, seq, kind)`` ordering while popping plain ints.
* **Index-window scheduling.**  The frontend FIFO is a pair of parallel
  int lists (ready cycle, trace index), the rename scoreboard is a
  preallocated list indexed by ``seq - seq0`` (the reference scoreboard
  never deletes, and producers outside the window resolve to ``None``),
  and the ready "queue" is a heap of window indices.
* **One fully-inlined main loop.**  All pipeline stages, the occupancy
  integration and every statistics counter live in locals of a single
  :meth:`KernelPipeline.run` frame; shared collaborator objects
  (hierarchy, branch predictor, LSQ, register file, memory-dependence
  predictor, and the whole policy seam) are driven through pre-bound
  methods exactly as the reference pipeline drives them.

**Bit-identity contract.**  The kernel performs the same *effective*
call sequence as the reference: every policy hook that can observe or
mutate state is invoked with identical arguments in identical order
(including one fresh :class:`InFlightInst` per rename *attempt*, which
the ticket tracker's pool accounting depends on).  The only calls it
elides are ones statically known to be no-ops for the constructed
policy (e.g. ``may_allocate`` on a disabled LTP controller, which
returns ``"dispatch"`` unconditionally without side effects).
Differential tests assert full ``SimStats.as_dict()`` equality across
every registered policy, LTP preset and workload.
"""

from __future__ import annotations

import gc as _gc
from heapq import heappop as _heappop, heappush as _heappush
from bisect import insort
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.core.branch import GsharePredictor
from repro.core.inflight import InFlightInst
from repro.core.params import CoreParams
from repro.core.pipeline import CODE_BASE, INST_BYTES, Pipeline
from repro.core.stats import SimStats
from repro.isa.instructions import OpClass
from repro.isa.trace import FU_GROUPS, DynInst, predecode_columns
from repro.ltp.config import LTPConfig
from repro.ltp.controller import NO_BOUNDARY
from repro.memory.hierarchy import MemoryHierarchy
from repro.policies import AllocationPolicy, LTPPolicy

__all__ = ["KernelPipeline", "TraceArrays", "predecode", "simulate_batch"]

_WORD_MASK = ~7


class TraceArrays:
    """Configuration-independent columnar predecode of one trace.

    Holds the :class:`DynInst` list plus the parallel metadata lists of
    :func:`~repro.isa.trace.predecode_columns`, the base sequence number
    ``seq0`` (kernel state is indexed by ``seq - seq0``), and the
    maximum static PC (for code warming).  Build with :func:`predecode`;
    slice a measurement window out of a full-trace predecode with
    :meth:`window` — the lists are sliced (cheap, C-speed) while the
    ``DynInst`` objects stay shared, so a cached full-trace predecode
    serves any warmup/measure split.
    """

    __slots__ = ("dyns", "n", "seq0", "pc", "code_addr", "is_branch",
                 "taken", "cid", "gid", "nonpipelined", "n_srcs", "max_pc")

    def __init__(self, dyns: List[DynInst],
                 columns: Dict[str, List]) -> None:
        self.dyns = dyns
        self.n = len(dyns)
        self.seq0 = dyns[0].seq if dyns else 0
        self.pc = columns["pc"]
        self.code_addr = columns["code_addr"]
        self.is_branch = columns["is_branch"]
        self.taken = columns["taken"]
        self.cid = columns["cid"]
        self.gid = columns["gid"]
        self.nonpipelined = columns["nonpipelined"]
        self.n_srcs = columns["n_srcs"]
        self.max_pc = max(self.pc) if self.pc else 0

    def window(self, start: int, stop: Optional[int] = None) -> "TraceArrays":
        """A columnar view of ``trace[start:stop]`` (shared DynInsts)."""
        if stop is None:
            stop = self.n
        columns = {
            "pc": self.pc[start:stop],
            "code_addr": self.code_addr[start:stop],
            "is_branch": self.is_branch[start:stop],
            "taken": self.taken[start:stop],
            "cid": self.cid[start:stop],
            "gid": self.gid[start:stop],
            "nonpipelined": self.nonpipelined[start:stop],
            "n_srcs": self.n_srcs[start:stop],
        }
        return TraceArrays(self.dyns[start:stop], columns)


def predecode(trace: Sequence[DynInst]) -> TraceArrays:
    """Predecode *trace* into :class:`TraceArrays` for the kernel engine.

    The trace must be sequence-contiguous (executor traces always are):
    the kernel indexes its scoreboard and event heap by ``seq - seq0``.
    """
    dyns = trace if isinstance(trace, list) else list(trace)
    if dyns and dyns[-1].seq - dyns[0].seq != len(dyns) - 1:
        raise ValueError("kernel engine requires a contiguous trace "
                         f"(seq {dyns[0].seq}..{dyns[-1].seq} over "
                         f"{len(dyns)} instructions)")
    return TraceArrays(dyns, predecode_columns(dyns))


class KernelPipeline(Pipeline):
    """The struct-of-arrays engine behind ``SimConfig(engine="kernel")``.

    Construction mirrors :class:`~repro.core.pipeline.Pipeline` (the
    collaborators, policy resolution and structural sizing are
    inherited), plus an optional pre-built ``arrays=`` so batch callers
    predecode once.  :meth:`run` replaces the reference tick loop with
    the fully-inlined columnar loop.
    """

    def __init__(self, trace: Sequence[DynInst],
                 params: Optional[CoreParams] = None,
                 ltp: Optional[LTPConfig] = None,
                 hierarchy: Optional[MemoryHierarchy] = None,
                 branch_predictor: Optional[GsharePredictor] = None,
                 warm_code: bool = True,
                 allow_skip: bool = True,
                 policy=None,
                 arrays: Optional[TraceArrays] = None) -> None:
        if arrays is None:
            arrays = predecode(trace)
        elif arrays.n != len(trace) or (
                arrays.n and arrays.seq0 != trace[0].seq):
            raise ValueError("arrays= does not match the trace window")
        self.arrays = arrays
        # the base constructor owns policy resolution, structure sizing
        # and hot-path bindings; code warming is replayed here from the
        # predecoded max_pc instead of a per-instruction scan
        super().__init__(trace, params=params, ltp=ltp,
                         hierarchy=hierarchy,
                         branch_predictor=branch_predictor,
                         warm_code=False, allow_skip=allow_skip,
                         policy=policy)
        if warm_code and arrays.n:
            hier = self.hierarchy
            for block in range(CODE_BASE >> 6,
                               ((CODE_BASE + arrays.max_pc * INST_BYTES)
                                >> 6) + 1):
                hier.l1i.insert(block)
                hier.l2.insert(block)
                hier.l3.insert(block)

    # ------------------------------------------------------------------
    def _kernel_deadlock(self, now: int, iq_len: int,
                         frontend_len: int) -> None:
        from repro.core.pipeline import SimulationDeadlock
        head = self.rob.head()
        raise SimulationDeadlock(
            f"no progress at cycle {now}: rob={len(self.rob)} "
            f"iq={iq_len} policy={self.policy.name!r} "
            f"parked={len(self.policy.queue)} "
            f"frontend={frontend_len} head={head!r} "
            f"free_int={self.regfile.free('int')} "
            f"free_fp={self.regfile.free('fp')} "
            f"lq={self.lsq.lq_used} sq={self.lsq.sq_used}"
        )

    # ------------------------------------------------------------------
    def run(self) -> SimStats:
        """Simulate to completion with the cyclic collector suspended.

        The hot loop allocates one :class:`InFlightInst` per rename
        attempt and links records into producer/consumer cycles; letting
        generational GC scan those mid-run costs >10% wall time for zero
        reclamation (records stay reachable until the window drains).
        Collection resumes — and the cycles are reclaimed — on return.
        """
        gc_enabled = _gc.isenabled()
        if gc_enabled:
            _gc.disable()
        try:
            return self._run_loop()
        finally:
            if gc_enabled:
                _gc.enable()

    def _run_loop(self) -> SimStats:  # noqa: C901 - one hot frame
        arrays = self.arrays
        n = arrays.n
        params = self.params
        policy = self.policy
        stats = self.stats
        hierarchy = self.hierarchy
        lsq = self.lsq
        allow_skip = self.allow_skip

        # ---- columnar trace state -----------------------------------
        dyns = arrays.dyns
        seq0 = arrays.seq0
        col_pc = arrays.pc
        col_code_addr = arrays.code_addr
        col_is_branch = arrays.is_branch
        col_taken = arrays.taken
        col_cid = arrays.cid
        col_gid = arrays.gid
        col_nonpipelined = arrays.nonpipelined
        col_n_srcs = arrays.n_srcs

        # ---- per-run tables indexed by dense ids --------------------
        latencies = params.latencies
        default_latency = latencies["int_alu"]
        lat_table = [latencies.get(op.value, default_latency)
                     for op in OpClass]
        lat_agu = latencies["agu"]
        lat_store = latencies["store"]
        lat_forward = latencies["forward"]
        n_groups = len(FU_GROUPS)
        fu_counts = [params.fu_counts.get(group, 1) for group in FU_GROUPS]
        fu_busy = [0] * n_groups
        fu_used = [0] * n_groups
        fu_zero = (0,) * n_groups

        # ---- machine parameters -------------------------------------
        fetch_width = params.fetch_width
        rename_width = params.rename_width
        issue_width = params.issue_width
        writeback_width = params.writeback_width
        commit_width = params.commit_width
        frontend_depth = params.frontend_depth
        frontend_cap = self._frontend_cap
        mispredict_penalty = params.mispredict_penalty
        violation_penalty = params.violation_penalty
        deadlock_cycles = params.deadlock_cycles
        dram_wakeup_lead = params.mem.dram_wakeup_lead

        # ---- flat machine state (all locals) ------------------------
        SHIFT = 2 * n if n else 2
        events: List[int] = []          # cycle*SHIFT + rel*2 + kind
        records: List[Optional[InFlightInst]] = [None] * n
        ready_heap: List[int] = []      # rel indices; oldest == smallest
        fe_ready: List[int] = []        # frontend FIFO: ready cycle
        fe_idx: List[int] = []          # frontend FIFO: trace index
        fe_head = 0
        fe_len = 0                      # == len(fe_ready), kept in step
        trace_idx = 0
        now = 0
        fetch_stall_until = 0
        fetch_blocked_on: Optional[int] = None
        commit_stall_until = 0
        last_commit_cycle = 0
        ll_seqs: List[int] = []
        open_loads: Dict[int, List[InFlightInst]] = {}
        parked_store_pcs: Dict[int, int] = {}
        picked: List[int] = []
        deferred: List[int] = []

        # ---- shared structures, pre-bound ---------------------------
        # occupancy counters the loop alone mutates are mirrored into
        # plain locals (rob_len, lq_used, rfi_free/rff_free) and flushed
        # back into the shared structures on exit / before deadlock
        rob_entries = self._rob_entries
        rob_capacity = self.rob.capacity
        rob_pop = rob_entries.popleft
        rob_append = rob_entries.append
        rob_len = len(rob_entries)
        iq_capacity = self.iq.capacity
        iq_occ = 0
        rf_free = self._rf_free
        rfi_free = rf_free["int"]
        rff_free = rf_free["fp"]
        rf_need = self._rf_need
        lsq_need = self._lsq_need
        lq_capacity = lsq.lq_capacity
        sq_capacity = lsq.sq_capacity
        lq_used = lsq.lq_used
        stores_dict = lsq._stores
        rf_cap_int = self._rf_cap_int
        rf_cap_fp = self._rf_cap_fp

        advance = hierarchy.advance
        hier_events = hierarchy._outstanding_events
        mshr_expiry = hierarchy.mshrs._expiry
        access_inst = hierarchy.access_inst
        access_data = hierarchy.access_data
        commit_store = hierarchy.commit_store
        bpred_update = self.bpred.predict_and_update
        older_store_state = lsq.older_store_state
        allocate_store = lsq.allocate_store
        release_store = lsq.release_store
        predicted_stores = self.memdep.predicted_stores
        must_wait = self.memdep.must_wait
        train_violation = self.memdep.train_violation

        # ---- policy seam (pre-bound attributes) ---------------------
        observe_rename = policy.observe_rename
        may_allocate = policy.may_allocate
        policy_park = policy.park
        on_release_scan = policy.on_release_scan
        policy_release = policy.release
        policy_tag = policy.on_tag_known
        policy_next_event = policy.next_event_cycle
        policy_violation = policy.on_violation
        policy_dram = policy.on_dram_demand_access
        queue = policy.queue
        ltp_entries = queue._entries
        release_ports = self._release_ports
        park_loads = self._park_loads
        park_stores = self._park_stores
        defer_registers = self._defer_registers
        monitor = self._monitor
        monitor_off = self._monitor_off
        monitor_auto = self._monitor_auto

        # hooks statically known to be no-ops are skipped; the gates
        # replicate the hook bodies' own guards, so the sequence of
        # *effective* calls is unchanged (bit-identity contract above)
        is_ltp = isinstance(policy, LTPPolicy)
        skip_may_allocate = (is_ltp
                             and not policy.controller.config.enabled)
        # a disabled LTP controller's rename/decide path never reads
        # producer_records (no ticket inheritance, no parked-bit scan),
        # so failed rename attempts need not build the producer tuple —
        # it is deferred to dependence registration on success
        defer_producers = skip_may_allocate
        # same reasoning one step further: a failed attempt's record is
        # discarded unread, so with a disabled controller the capacity
        # checks (side-effect free) run first and a stalling attempt
        # replays only its observable work via the controller probe
        observe_probe = (policy.controller.observe_attempt
                         if skip_may_allocate else None)
        policy_commit = policy.on_commit
        if is_ltp:
            # LTPController.on_commit acts only on long-latency loads
            commit_always = False
            commit_ll_only = True
        elif (type(policy).on_commit is AllocationPolicy.on_commit
                and "on_commit" not in policy.__dict__):
            commit_always = commit_ll_only = False
        else:
            commit_always = True
            commit_ll_only = False
        if is_ltp:
            # LTPController.on_load_complete acts only with a predictor
            load_hook = (policy.on_load_complete
                         if policy.controller.predictor is not None
                         else None)
        elif (type(policy).on_load_complete
                is AllocationPolicy.on_load_complete
                and "on_load_complete" not in policy.__dict__):
            load_hook = None
        else:
            load_hook = policy.on_load_complete

        # ---- local statistics counters ------------------------------
        s_fetched = s_renamed = s_issued = s_committed = 0
        s_committed_loads = s_committed_stores = s_committed_branches = 0
        s_mispredicts = s_violations = 0
        s_ltp_parked = s_ltp_released = s_ltp_forced = 0
        s_enabled_cycles = 0
        s_urgent = s_non_urgent = s_non_ready = 0
        s_ll_loads = 0
        s_stall_rob = s_stall_iq = s_stall_regs = s_stall_lsq = 0
        s_stall_ltp_full = s_stall_frontend = 0
        s_iq_writes = s_rf_reads = s_rf_writes = 0
        s_ltp_writes = s_ltp_reads = 0
        o_rob_i = o_rob_p = o_iq_i = o_iq_p = 0
        o_lq_i = o_lq_p = o_sq_i = o_sq_p = 0
        o_rfi_i = o_rfi_p = o_rff_i = o_rff_p = 0
        o_ltp_i = o_ltp_p = o_lregs_i = o_lregs_p = 0
        o_lloads_i = o_lloads_p = o_lstores_i = o_lstores_p = 0

        # =============================================================
        # main loop — one tick per iteration, stages in reference order
        # =============================================================
        while trace_idx < n or fe_head < fe_len or rob_len:
            # hierarchy.advance with its empty fast path inlined: with no
            # outstanding past-L2 completions (the heap sizes track the
            # counters exactly) and no MSHR expiries, advancing reduces
            # to moving the integration clock forward by zero area
            if hier_events or mshr_expiry:
                advance(now)
            elif now > hierarchy._last_advance_cycle:
                hierarchy._last_advance_cycle = now
            now_limit = (now + 1) * SHIFT

            # ---- writeback (completion + tag events due now) --------
            progress = False
            if events and events[0] < now_limit:
                completed = 0
                while events and events[0] < now_limit:
                    ev = events[0]
                    rem = ev % SHIFT
                    if not (rem & 1) and completed >= writeback_width:
                        break
                    _heappop(events)
                    record = records[rem >> 1]
                    if rem & 1:  # tag-known event
                        policy_tag(record)
                        progress = True
                        continue
                    completed += 1
                    progress = True
                    record.done = True
                    if record.has_dst:
                        s_rf_writes += 1
                    for consumer in record.consumers:
                        waiting = consumer.waiting_on - 1
                        consumer.waiting_on = waiting
                        if waiting == 0 and consumer.in_iq:
                            _heappush(ready_heap, consumer.seq - seq0)
                    if record.ll_listed:
                        record.ll_listed = False
                        del ll_seqs[ll_seqs.index(record.seq)]
                    if record.own_ticket is not None:
                        policy_tag(record)
                    if record.is_load and load_hook is not None:
                        load_hook(record, record.actual_ll)
                    if record.seq == fetch_blocked_on:
                        fetch_blocked_on = None
                        fetch_stall_until = now + mispredict_penalty

            # ---- commit ---------------------------------------------
            if now >= commit_stall_until and rob_len:
                head = rob_entries[0]
                if head.done:
                    committed = 0
                    while committed < commit_width:
                        rob_pop()
                        rob_len -= 1
                        dyn = head.dyn
                        if head.has_dst:
                            if head.rf_class == "int":
                                rfi_free += 1
                            else:
                                rff_free += 1
                        if head.is_load:
                            lq_used -= 1
                            word = dyn.addr & _WORD_MASK
                            entries = open_loads.get(word)
                            if entries:
                                try:
                                    entries.remove(head)
                                except ValueError:
                                    pass
                                if not entries:
                                    del open_loads[word]
                            s_committed_loads += 1
                        elif head.is_store:
                            commit_store(dyn.addr)
                            release_store(dyn.seq)
                            s_committed_stores += 1
                        elif dyn.is_branch:
                            s_committed_branches += 1
                        if commit_always:
                            policy_commit(head)
                        elif (commit_ll_only and head.actual_ll
                                and head.is_load):
                            policy_commit(head)
                        committed += 1
                        s_committed += 1
                        if not rob_len:
                            break
                        head = rob_entries[0]
                        if not head.done:
                            break
                    last_commit_cycle = now
                    progress = True

            # ---- parked release (wakeup) ----------------------------
            release_pending = False
            if ltp_entries:
                boundary = (ll_seqs[1] if len(ll_seqs) >= 2
                            else NO_BOUNDARY)
                if rob_len:
                    head_rec = rob_entries[0]
                    force_seq = head_rec.seq if head_rec.parked else -1
                else:
                    force_seq = -1
                released = 0
                while released < release_ports:
                    candidates = on_release_scan(now, boundary,
                                                 force_seq, 1)
                    if not candidates:
                        break
                    record = candidates[0]
                    if iq_occ >= iq_capacity:
                        break
                    rf_class = record.rf_class
                    if (rf_class is not None and not record.rf_allocated
                            and (rfi_free if rf_class == "int"
                                 else rff_free) < 1):
                        break
                    if (record.is_load and not record.lq_allocated
                            and lq_used >= lq_capacity):
                        break
                    if (record.is_store and not record.sq_allocated
                            and len(stores_dict) >= sq_capacity):
                        break
                    policy_release(record)
                    if rf_class is not None and not record.rf_allocated:
                        if rf_class == "int":
                            rfi_free -= 1
                        else:
                            rff_free -= 1
                        record.rf_allocated = True
                    if record.is_load and not record.lq_allocated:
                        lq_used += 1
                        record.lq_allocated = True
                    dyn = record.dyn
                    if record.is_store:
                        if not record.sq_allocated:
                            allocate_store(dyn.seq, dyn.pc)
                            record.sq_allocated = True
                        count = parked_store_pcs.get(dyn.pc, 0)
                        if count <= 1:
                            parked_store_pcs.pop(dyn.pc, None)
                        else:
                            parked_store_pcs[dyn.pc] = count - 1
                    record.release_cycle = now
                    iq_occ += 1
                    record.in_iq = True
                    if record.waiting_on == 0:
                        _heappush(ready_heap, record.seq - seq0)
                    s_ltp_released += 1
                    s_ltp_reads += 1
                    s_iq_writes += 1
                    released += 1
                    if record.forced_release:
                        s_ltp_forced += 1
                if released >= release_ports:
                    release_pending = bool(on_release_scan(
                        now, boundary, force_seq, 1))
                if released:
                    progress = True

            # ---- rename / dispatch / park ---------------------------
            if fe_head < fe_len:
                renamed = 0
                while renamed < rename_width:
                    if fe_head >= fe_len:
                        break
                    if fe_ready[fe_head] > now:
                        break
                    if rob_len >= rob_capacity:
                        if renamed == 0:
                            s_stall_rob += 1
                        break
                    dyn = dyns[fe_idx[fe_head]]
                    if skip_may_allocate:
                        # probe-first: same checks the dispatch branch
                        # performs below, hoisted above the record
                        # construction they would discard
                        stall = 0
                        if iq_occ >= iq_capacity:
                            stall = 1
                        else:
                            rf_class = dyn.rf_class
                            if (rf_class is not None
                                    and (rfi_free if rf_class == "int"
                                         else rff_free) < rf_need):
                                stall = 2
                            elif ((dyn.is_load and lq_used + lsq_need
                                   > lq_capacity)
                                  or (dyn.is_store
                                      and len(stores_dict) + lsq_need
                                      > sq_capacity)):
                                stall = 3
                        if stall:
                            if observe_probe(dyn):
                                s_urgent += 1
                            else:
                                s_non_urgent += 1
                            if renamed == 0:
                                if stall == 1:
                                    s_stall_iq += 1
                                elif stall == 2:
                                    s_stall_regs += 1
                                else:
                                    s_stall_lsq += 1
                            break
                    # one fresh record per rename *attempt* (ticket-pool
                    # accounting depends on it; see module docstring)
                    record = InFlightInst(dyn)
                    if not defer_producers:
                        src_producers = dyn.src_producers
                        n_producers = len(src_producers)
                        if n_producers == 1:
                            p0 = src_producers[0]
                            record.producer_records = (
                                records[p0 - seq0] if p0 >= seq0
                                else None,)
                        elif n_producers == 2:
                            p0, p1 = src_producers
                            record.producer_records = (
                                records[p0 - seq0] if p0 >= seq0 else None,
                                records[p1 - seq0] if p1 >= seq0
                                else None)
                        elif n_producers:
                            record.producer_records = tuple(
                                records[p - seq0] if p >= seq0 else None
                                for p in src_producers)

                    observe_rename(record)
                    if record.urgent:
                        s_urgent += 1
                    else:
                        s_non_urgent += 1
                    if record.non_ready:
                        s_non_ready += 1

                    memdep_forced = False
                    if record.is_load and parked_store_pcs:
                        for store_pc in predicted_stores(dyn.pc):
                            if parked_store_pcs.get(store_pc):
                                memdep_forced = True
                                break

                    if skip_may_allocate:
                        decision = "dispatch"
                    else:
                        decision = may_allocate(record, now, memdep_forced)
                    if decision == "stall":
                        if renamed == 0:
                            s_stall_ltp_full += 1
                        break

                    if decision == "park":
                        park_ok = True
                        if record.is_load and not park_loads:
                            if lq_used + lsq_need > lq_capacity:
                                park_ok = False
                        if park_ok and record.is_store and not park_stores:
                            if len(stores_dict) + lsq_need > sq_capacity:
                                park_ok = False
                        if (park_ok and not defer_registers
                                and record.rf_class is not None):
                            if (rfi_free if record.rf_class == "int"
                                    else rff_free) < rf_need:
                                park_ok = False
                        if not park_ok:
                            if renamed == 0:
                                s_stall_lsq += 1
                            break
                        if record.is_load and not park_loads:
                            lq_used += 1
                            record.lq_allocated = True
                        if record.is_store and not park_stores:
                            allocate_store(dyn.seq, dyn.pc)
                            record.sq_allocated = True
                        if (not defer_registers
                                and record.rf_class is not None):
                            if record.rf_class == "int":
                                rfi_free -= 1
                            else:
                                rff_free -= 1
                            record.rf_allocated = True
                        rob_append(record)
                        rob_len += 1
                        policy_park(record)
                        s_ltp_parked += 1
                        s_ltp_writes += 1
                        if record.is_store:
                            pc = dyn.pc
                            parked_store_pcs[pc] = (
                                parked_store_pcs.get(pc, 0) + 1)
                    else:
                        rf_class = record.rf_class
                        if not skip_may_allocate:
                            # (the skip path already ran these checks
                            # in the probe above)
                            if iq_occ >= iq_capacity:
                                if renamed == 0:
                                    s_stall_iq += 1
                                break
                            if (rf_class is not None
                                    and (rfi_free if rf_class == "int"
                                         else rff_free) < rf_need):
                                if renamed == 0:
                                    s_stall_regs += 1
                                break
                            if (record.is_load
                                    and lq_used + lsq_need > lq_capacity):
                                if renamed == 0:
                                    s_stall_lsq += 1
                                break
                            if (record.is_store
                                    and len(stores_dict) + lsq_need
                                    > sq_capacity):
                                if renamed == 0:
                                    s_stall_lsq += 1
                                break
                        if rf_class is not None:
                            if rf_class == "int":
                                rfi_free -= 1
                            else:
                                rff_free -= 1
                            record.rf_allocated = True
                        if record.is_load:
                            lq_used += 1
                            record.lq_allocated = True
                        if record.is_store:
                            allocate_store(dyn.seq, dyn.pc)
                            record.sq_allocated = True
                        rob_append(record)
                        rob_len += 1
                        iq_occ += 1
                        record.in_iq = True
                        # IQ insert: waiting_on is 0 until dependences
                        # are registered below, exactly as the reference
                        _heappush(ready_heap, dyn.seq - seq0)
                        s_iq_writes += 1

                    fe_head += 1
                    if fe_head > 64:
                        del fe_ready[:fe_head]
                        del fe_idx[:fe_head]
                        fe_head = 0
                        fe_len = len(fe_ready)
                    rel = dyn.seq - seq0
                    records[rel] = record
                    if defer_producers:
                        src_producers = dyn.src_producers
                        n_producers = len(src_producers)
                        if n_producers == 1:
                            p0 = src_producers[0]
                            record.producer_records = (
                                records[p0 - seq0] if p0 >= seq0
                                else None,)
                        elif n_producers == 2:
                            p0, p1 = src_producers
                            record.producer_records = (
                                records[p0 - seq0] if p0 >= seq0 else None,
                                records[p1 - seq0] if p1 >= seq0
                                else None)
                        elif n_producers:
                            record.producer_records = tuple(
                                records[p - seq0] if p >= seq0 else None
                                for p in src_producers)
                    waiting = 0
                    for producer in record.producer_records:
                        if producer is not None and not producer.done:
                            consumers = producer.consumers
                            if consumers:
                                consumers.append(record)
                            else:
                                producer.consumers = [record]
                            waiting += 1
                    record.waiting_on = waiting
                    if waiting == 0 and record.in_iq:
                        _heappush(ready_heap, rel)
                    record.rename_cycle = now
                    if record.predicted_ll and not record.ll_listed:
                        record.ll_listed = True
                        insort(ll_seqs, record.seq)
                    renamed += 1
                    s_renamed += 1
                if renamed:
                    progress = True

            # ---- issue / execute ------------------------------------
            if ready_heap:
                fu_used[:] = fu_zero
                del picked[:]
                del deferred[:]
                n_picked = 0
                while ready_heap and n_picked < issue_width:
                    rel = _heappop(ready_heap)
                    record = records[rel]
                    if record.issued or not record.in_iq:
                        continue  # stale heap entry
                    if record.waiting_on != 0:
                        continue  # stale: re-blocked before selection
                    gid = col_gid[rel]
                    used = fu_used[gid]
                    if used >= fu_counts[gid]:
                        deferred.append(rel)
                        continue
                    if col_nonpipelined[rel] and now < fu_busy[gid]:
                        deferred.append(rel)
                        continue
                    dyn = record.dyn
                    if record.is_load:
                        addr = dyn.addr
                        if stores_dict:
                            state, entry = older_store_state(
                                dyn.seq, addr, now)
                        else:
                            state = "clear"
                        if state == "forward":
                            completion = now + lat_agu + lat_forward
                            record.mem_level = "forward"
                            record.completion_cycle = completion
                            enc = completion * SHIFT + rel * 2
                            _heappush(events, enc)
                            if record.own_ticket is not None:
                                _heappush(events, enc + 1)
                            word = addr & _WORD_MASK
                            lst = open_loads.get(word)
                            if lst is None:
                                open_loads[word] = [record]
                            else:
                                lst.append(record)
                        else:
                            if state == "unknown" and must_wait(
                                    dyn.pc, entry.pc):
                                deferred.append(rel)
                                continue  # wait for the store's address
                            result = access_data(addr, now + lat_agu,
                                                 False, dyn.pc)
                            if result is None:
                                deferred.append(rel)
                                continue  # MSHRs full; retry
                            level = result.level
                            record.mem_level = level
                            long_latency = (level == "l3"
                                            or level == "dram")
                            record.actual_ll = long_latency
                            if long_latency:
                                s_ll_loads += 1
                                if not record.ll_listed:
                                    record.ll_listed = True
                                    insort(ll_seqs, record.seq)
                            if level == "dram":
                                policy_dram(now)
                            completion = result.complete_cycle
                            record.completion_cycle = completion
                            _heappush(events,
                                      completion * SHIFT + rel * 2)
                            if record.own_ticket is not None:
                                tag_cycle = result.tag_known_cycle
                                if completion < tag_cycle:
                                    tag_cycle = completion
                                _heappush(events,
                                          tag_cycle * SHIFT + rel * 2 + 1)
                            word = addr & _WORD_MASK
                            lst = open_loads.get(word)
                            if lst is None:
                                open_loads[word] = [record]
                            else:
                                lst.append(record)
                    elif record.is_store:
                        addr = dyn.addr
                        resolve_cycle = now + lat_agu
                        word = addr & _WORD_MASK
                        entry = stores_dict[dyn.seq]
                        entry.addr = word
                        entry.data_ready_cycle = resolve_cycle
                        open_list = open_loads.get(word)
                        if open_list:
                            seq = dyn.seq
                            for load in open_list:
                                if (load.seq > seq
                                        and load.issue_cycle is not None):
                                    s_violations += 1
                                    stall = (resolve_cycle
                                             + violation_penalty)
                                    if stall > commit_stall_until:
                                        commit_stall_until = stall
                                    train_violation(load.dyn.pc, dyn.pc)
                                    policy_violation(load.dyn.pc, dyn.pc)
                        completion = resolve_cycle + lat_store
                        record.completion_cycle = completion
                        _heappush(events, completion * SHIFT + rel * 2)
                    else:
                        latency = lat_table[col_cid[rel]]
                        completion = now + latency
                        if col_nonpipelined[rel]:
                            fu_busy[gid] = completion
                            if record.own_ticket is not None:
                                lead = dram_wakeup_lead
                                if latency < lead:
                                    lead = latency
                                _heappush(events,
                                          (completion - lead) * SHIFT
                                          + rel * 2 + 1)
                        record.completion_cycle = completion
                        _heappush(events, completion * SHIFT + rel * 2)
                    fu_used[gid] = used + 1
                    record.issued = True
                    record.in_iq = False
                    iq_occ -= 1
                    picked.append(rel)
                    n_picked += 1
                for rel in deferred:
                    _heappush(ready_heap, rel)
                if picked:
                    # issue_cycle is stamped after selection, as in the
                    # reference: a store executing this same cycle must
                    # not see loads picked this cycle as "issued"
                    for rel in picked:
                        records[rel].issue_cycle = now
                        s_rf_reads += col_n_srcs[rel]
                    s_issued += n_picked
                    progress = True

            # ---- fetch ----------------------------------------------
            if fetch_blocked_on is not None:
                s_stall_frontend += 1
            elif now >= fetch_stall_until and trace_idx < n:
                if fe_len - fe_head + fetch_width <= frontend_cap:
                    icache = access_inst(col_code_addr[trace_idx], now)
                    if icache.complete_cycle > now + 1:
                        fetch_stall_until = icache.complete_cycle
                    else:
                        fetched = 0
                        ready = now + frontend_depth
                        idx = trace_idx
                        while fetched < fetch_width and idx < n:
                            fe_ready.append(ready)
                            fe_idx.append(idx)
                            fetched += 1
                            s_fetched += 1
                            j = idx
                            idx += 1
                            if col_is_branch[j]:
                                if not bpred_update(col_pc[j],
                                                    col_taken[j]):
                                    s_mispredicts += 1
                                    fetch_blocked_on = seq0 + j
                                    break
                            elif col_taken[j]:
                                break  # taken jump ends the fetch group
                        trace_idx = idx
                        if fetched:
                            fe_len += fetched
                            progress = True

            # ---- imminent check / idle skip -------------------------
            if progress or release_pending:
                imminent = True
            else:
                imminent = False
                while ready_heap:
                    record = records[ready_heap[0]]
                    if record.issued or not record.in_iq:
                        _heappop(ready_heap)
                        continue
                    imminent = True
                    break
                if (not imminent and events
                        and events[0] < now_limit + SHIFT):
                    imminent = True
                if (not imminent and fe_head < fe_len
                        and fe_ready[fe_head] <= now + 1):
                    imminent = True

            if imminent:
                step = 1
            else:
                target = events[0] // SHIFT if events else None
                if fe_head < fe_len:
                    c = fe_ready[fe_head]
                    if target is None or c < target:
                        target = c
                if fetch_stall_until > now and fetch_blocked_on is None:
                    if target is None or fetch_stall_until < target:
                        target = fetch_stall_until
                if commit_stall_until > now:
                    if target is None or commit_stall_until < target:
                        target = commit_stall_until
                if monitor_auto:
                    expiry = monitor.expiry
                    if expiry > now and (target is None
                                         or expiry < target):
                        target = expiry
                if ltp_entries:
                    hint = policy_next_event(now)
                    if (hint is not None and hint > now
                            and (target is None or hint < target)):
                        target = hint
                if target is None:
                    if (trace_idx >= n and fe_head >= fe_len
                            and not rob_len):
                        break  # drained between stages; finished
                    lsq.lq_used = lq_used
                    rf_free["int"] = rfi_free
                    rf_free["fp"] = rff_free
                    self._kernel_deadlock(now, iq_occ,
                                          fe_len - fe_head)
                if target <= now:
                    target = now + 1
                step = target - now if allow_skip else 1

            # ---- occupancy integration (exact over the step) --------
            o_rob_i += rob_len * step
            if rob_len > o_rob_p:
                o_rob_p = rob_len
            o_iq_i += iq_occ * step
            if iq_occ > o_iq_p:
                o_iq_p = iq_occ
            o_lq_i += lq_used * step
            if lq_used > o_lq_p:
                o_lq_p = lq_used
            level = len(stores_dict)
            o_sq_i += level * step
            if level > o_sq_p:
                o_sq_p = level
            level = rf_cap_int - rfi_free
            o_rfi_i += level * step
            if level > o_rfi_p:
                o_rfi_p = level
            level = rf_cap_fp - rff_free
            o_rff_i += level * step
            if level > o_rff_p:
                o_rff_p = level
            if ltp_entries:
                level = len(ltp_entries)
                o_ltp_i += level * step
                if level > o_ltp_p:
                    o_ltp_p = level
                level = queue.parked_with_dst
                o_lregs_i += level * step
                if level > o_lregs_p:
                    o_lregs_p = level
                level = queue.parked_loads
                o_lloads_i += level * step
                if level > o_lloads_p:
                    o_lloads_p = level
                level = queue.parked_stores
                o_lstores_i += level * step
                if level > o_lstores_p:
                    o_lstores_p = level
            if not monitor_off:
                s_enabled_cycles += monitor.enabled_span(now, now + step)

            now += step
            if now - last_commit_cycle > deadlock_cycles:
                lsq.lq_used = lq_used
                rf_free["int"] = rfi_free
                rf_free["fp"] = rff_free
                self._kernel_deadlock(now - step, iq_occ,
                                      fe_len - fe_head)

        # =============================================================
        # flush locals into the shared statistics / structures
        # =============================================================
        self.cycle = now
        self.iq.occupancy = iq_occ
        lsq.lq_used = lq_used
        rf_free["int"] = rfi_free
        rf_free["fp"] = rff_free
        self._last_commit_cycle = last_commit_cycle
        self._commit_stall_until = commit_stall_until
        self._fetch_stall_until = fetch_stall_until
        stats.cycles = now
        stats.fetched = s_fetched
        stats.renamed = s_renamed
        stats.issued = s_issued
        stats.committed = s_committed
        stats.committed_loads = s_committed_loads
        stats.committed_stores = s_committed_stores
        stats.committed_branches = s_committed_branches
        stats.branch_mispredicts = s_mispredicts
        stats.memory_violations = s_violations
        stats.ltp_parked = s_ltp_parked
        stats.ltp_released = s_ltp_released
        stats.ltp_forced_releases = s_ltp_forced
        stats.ltp_enabled_cycles = s_enabled_cycles
        stats.classified_urgent = s_urgent
        stats.classified_non_urgent = s_non_urgent
        stats.classified_non_ready = s_non_ready
        stats.long_latency_loads = s_ll_loads
        stats.stall_rob = s_stall_rob
        stats.stall_iq = s_stall_iq
        stats.stall_regs = s_stall_regs
        stats.stall_lsq = s_stall_lsq
        stats.stall_ltp_full = s_stall_ltp_full
        stats.stall_frontend = s_stall_frontend
        stats.iq_writes = s_iq_writes
        stats.rf_reads = s_rf_reads
        stats.rf_writes = s_rf_writes
        stats.ltp_writes = s_ltp_writes
        stats.ltp_reads = s_ltp_reads
        occ = stats.occupancies
        o = occ["rob"]
        o.integral, o.peak = o_rob_i, o_rob_p
        o = occ["iq"]
        o.integral, o.peak = o_iq_i, o_iq_p
        o = occ["lq"]
        o.integral, o.peak = o_lq_i, o_lq_p
        o = occ["sq"]
        o.integral, o.peak = o_sq_i, o_sq_p
        o = occ["rf_int"]
        o.integral, o.peak = o_rfi_i, o_rfi_p
        o = occ["rf_fp"]
        o.integral, o.peak = o_rff_i, o_rff_p
        o = occ["ltp"]
        o.integral, o.peak = o_ltp_i, o_ltp_p
        o = occ["ltp_regs"]
        o.integral, o.peak = o_lregs_i, o_lregs_p
        o = occ["ltp_loads"]
        o.integral, o.peak = o_lloads_i, o_lloads_p
        o = occ["ltp_stores"]
        o.integral, o.peak = o_lstores_i, o_lstores_p
        self._export_activity()
        return stats


def simulate_batch(trace: Sequence[DynInst],
                   runs: Iterable[Dict[str, Any]],
                   arrays: Optional[TraceArrays] = None) -> List[SimStats]:
    """Run N configurations against one predecoded trace.

    *runs* is an iterable of keyword-argument dicts for
    :class:`KernelPipeline` (``params=``, ``ltp=``, ``policy=``,
    ``allow_skip=``, ...).  The trace is predecoded exactly once (or
    not at all when *arrays* is passed); each run still builds fresh
    collaborators unless its kwargs supply them, so results match N
    independent single runs bit-for-bit.
    """
    if arrays is None:
        arrays = predecode(trace)
    return [KernelPipeline(trace, arrays=arrays, **kwargs).run()
            for kwargs in runs]
