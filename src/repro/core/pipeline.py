"""Trace-driven cycle model of the Table 1 out-of-order core.

The pipeline consumes a dynamic trace (true dependences, addresses and
branch outcomes from the functional executor) and models, cycle by
cycle:

* an 8-wide front end with a fixed decode depth, gshare direction
  prediction and L1I fetch stalls; mispredicts block fetch until the
  branch executes, plus a refill penalty (the standard trace-driven
  approximation — no wrong-path instructions exist in a trace),
* rename with in-order allocation of ROB / IQ / physical registers /
  LQ / SQ — or policy-directed parking, which defers the IQ and
  register (and optionally LQ/SQ) allocations exactly as Figure 5
  describes.  *When* resources are claimed is owned by a pluggable
  :class:`repro.policies.AllocationPolicy` (LTP is the default policy;
  ``baseline-stall``, ``oracle-park``, ``random-park`` and
  ``depth-park`` are registered alternatives),
* oldest-first issue of up to 6 instructions per cycle over FU pools,
  two-phase loads (AGU + cache access) with store-to-load forwarding,
  memory-dependence prediction and violation penalties,
* event-driven writeback/wakeup, and
* 8-wide in-order commit, which frees registers (previous mapping) and
  LQ/SQ entries, and trains the UIT on long-latency loads.

The whole model is one loop, :meth:`Pipeline._run_loop`, laid out as
named stage blocks in the order a cycle runs them: writeback, commit,
parked release, rename, issue, fetch, then the idle-skip decision and
the occupancy integration.  That order and every statistics update are
load-bearing.

Idle spans (every unit waiting on a future event) are jumped over in one
step; all time-integrated statistics account for the jump width, so
results are identical to cycle-by-cycle execution (``allow_skip=False``),
just faster.  The one exception is ``stall_frontend``, which counts the
cycles a blocked front end is looked at.

Performance-sensitive invariants of the loop:

* **Columnar trace state.**  The configuration-independent
  per-instruction metadata (PC, code address, branch flags, dense
  op-class / FU-group ids, non-pipelined flag, source counts) is
  predecoded once into parallel lists (:class:`repro.core.kernel.TraceArrays`)
  and indexed by trace position.  One predecode serves any number of
  configurations: the session caches it next to the trace.
* **Integer event heap.**  Completion and tag events are packed into
  single integers ``cycle * SHIFT + rel * 2 + kind`` (``rel`` the trace
  index, ``SHIFT = 2 * len(trace)``), which orders them by cycle, then
  age, then kind while popping plain ints.
* **Index-window scheduling.**  The frontend FIFO is a pair of parallel
  int lists (ready cycle, trace index), the rename scoreboard is a
  preallocated list indexed by ``seq - seq0`` (producers outside the
  window resolve to ``None``), and the ready "queue" of the IQ is a
  heap of trace indices, so selection is oldest-first.
* **One frame.**  Every stage, the occupancy integration and every
  statistics counter live in locals of :meth:`Pipeline._run_loop`;
  the shared collaborators (hierarchy, branch predictor, LSQ, register
  file, memory-dependence predictor and the whole policy seam) are
  driven through pre-bound methods, and the counters the loop alone
  mutates are flushed back into them on exit.
* **Policy calls.**  Every policy hook that can observe or mutate state
  is invoked in a fixed order, including one fresh
  :class:`InFlightInst` per rename *attempt*, which the ticket
  tracker's pool accounting depends on.  The only calls skipped are
  ones statically known to be no-ops for the constructed policy (e.g.
  ``may_allocate`` on a disabled LTP controller, which returns
  ``"dispatch"`` unconditionally without side effects).

``tests/golden/engine_corpus.jsonl`` freezes the full statistics of
randomized programs under every policy, randomized session configs and
a real-workload grid; the tests hold the loop to it in both skip modes.
"""

from __future__ import annotations

import gc as _gc
from bisect import insort
from heapq import heappop as _heappop, heappush as _heappush
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Union

from repro.core.branch import GsharePredictor
from repro.core.inflight import InFlightInst
from repro.core.iq import IssueQueue
from repro.core.lsq import LoadStoreQueues
from repro.core.memdep import MemDepPredictor
from repro.core.params import CoreParams
from repro.core.regfile import RegisterFile
from repro.core.rob import ROB
from repro.core.stats import SimStats
from repro.isa.instructions import OpClass
from repro.isa.trace import CODE_BASE, FU_GROUPS, INST_BYTES, DynInst
from repro.ltp.config import LTPConfig
from repro.ltp.controller import NO_BOUNDARY
from repro.memory.hierarchy import MemoryHierarchy
from repro.policies import AllocationPolicy, LTPPolicy, build_policy

if TYPE_CHECKING:
    from repro.core.kernel import TraceArrays

__all__ = ["CODE_BASE", "INST_BYTES", "Pipeline", "SimulationDeadlock",
           "simulate"]

_WORD_MASK = ~7


class SimulationDeadlock(RuntimeError):
    """The pipeline can make no progress and no future event exists."""


class Pipeline:
    """One simulated core running one dynamic trace.

    The collaborators (memory hierarchy, branch predictor, allocation
    policy) may be passed in pre-warmed; ``arrays=`` takes a prebuilt
    :func:`~repro.core.kernel.predecode` of *trace* so callers that run
    many configurations over one trace predecode it once.
    ``allow_skip=False`` forces strict cycle-by-cycle execution.
    """

    def __init__(self, trace: Sequence[DynInst],
                 params: Optional[CoreParams] = None,
                 ltp: Optional[LTPConfig] = None,
                 hierarchy: Optional[MemoryHierarchy] = None,
                 branch_predictor: Optional[GsharePredictor] = None,
                 warm_code: bool = True,
                 allow_skip: bool = True,
                 policy: Union[AllocationPolicy, str, None] = None,
                 arrays: Optional["TraceArrays"] = None) -> None:
        if arrays is None:
            from repro.core.kernel import predecode
            arrays = predecode(trace)
        elif arrays.n != len(trace) or (
                arrays.n and arrays.seq0 != trace[0].seq):
            raise ValueError("arrays= does not match the trace window")
        self.arrays = arrays
        self.params = (params or CoreParams()).validate()
        self.ltp_config = (ltp or LTPConfig(enabled=False)).validate()
        self.hierarchy = hierarchy or MemoryHierarchy(self.params.mem)
        self.bpred = branch_predictor or GsharePredictor()
        dram_latency = self.params.mem.dram_latency
        if policy is None:
            policy = LTPPolicy(self.ltp_config, dram_latency)
        elif isinstance(policy, str):
            policy = build_policy(policy, self.ltp_config, dram_latency)
        self.policy = policy
        policy.attach_memory(self.hierarchy)
        #: the wrapped LTP controller when the policy carries one
        #: (None for non-LTP policies)
        self.controller = getattr(policy, "controller", None)
        self.stats = SimStats()
        self.allow_skip = allow_skip

        reserve = policy.release_reserve
        self.rob = ROB(self.params.rob_size)
        self.iq = IssueQueue(self.params.iq_size)
        self.regfile = RegisterFile(self.params.int_regs,
                                    self.params.fp_regs, reserve=reserve)
        self.lsq = LoadStoreQueues(self.params.lq_size, self.params.sq_size,
                                   reserve=reserve)
        self.memdep = MemDepPredictor()
        self.cycle = 0
        #: after :meth:`run`, the record each trace position renamed with
        self.records: List[Optional[InFlightInst]] = []

        if warm_code and arrays.n:
            # kernels are tiny; pre-warm the instruction path so short
            # traces are not dominated by a one-off cold L1I DRAM fill
            hier = self.hierarchy
            for block in range(CODE_BASE >> 6,
                               ((CODE_BASE + arrays.max_pc * INST_BYTES)
                                >> 6) + 1):
                hier.l1i.insert(block)
                hier.l2.insert(block)
                hier.l3.insert(block)

    def run(self) -> SimStats:
        """Simulate to completion with the cyclic collector suspended.

        The loop allocates one :class:`InFlightInst` per rename attempt
        and links records into producer/consumer cycles; letting
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

    def _deadlock(self, now: int, iq_len: int, frontend_len: int) -> None:
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
        frontend_cap = fetch_width * (frontend_depth + 2)
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
        rob_entries = self.rob._entries
        rob_capacity = self.rob.capacity
        rob_pop = rob_entries.popleft
        rob_append = rob_entries.append
        rob_len = len(rob_entries)
        iq_capacity = self.iq.capacity
        iq_occ = 0
        rf_free = self.regfile._free
        rfi_free = rf_free["int"]
        rff_free = rf_free["fp"]
        rf_need = 1 + self.regfile.reserve
        lsq_need = 1 + lsq.reserve
        lq_capacity = lsq.lq_capacity
        sq_capacity = lsq.sq_capacity
        lq_used = lsq.lq_used
        stores_dict = lsq._stores
        rf_cap_int = self.regfile._capacity["int"]
        rf_cap_fp = self.regfile._capacity["fp"]

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
        release_ports = policy.ports
        park_loads = policy.park_loads
        park_stores = policy.park_stores
        defer_registers = policy.defer_registers
        monitor = policy.monitor
        monitor_off = monitor.mode == "off"
        monitor_auto = self.ltp_config.enabled and monitor.mode == "auto"

        # hooks statically known to be no-ops are skipped; the gates
        # replicate the hook bodies' own guards, so the sequence of
        # *effective* calls is unchanged (see "Policy calls" above)
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
        # the cycle loop: one iteration per simulated cycle (or idle
        # span), running the stage blocks below in this fixed order
        # =============================================================
        while trace_idx < n or fe_head < fe_len or rob_len:
            # ---- memory clock ---------------------------------------
            # hierarchy.advance with its empty fast path inlined: with no
            # outstanding past-L2 completions (the heap sizes track the
            # counters exactly) and no MSHR expiries, advancing reduces
            # to moving the integration clock forward by zero area
            if hier_events or mshr_expiry:
                advance(now)
            elif now > hierarchy._last_advance_cycle:
                hierarchy._last_advance_cycle = now
            now_limit = (now + 1) * SHIFT

            # ==== WRITEBACK ==========================================
            # Pop the events due this cycle in (cycle, age, kind) order.
            # A tag-known event tells the policy a load's latency class
            # is known (tickets clear early).  A completion, at most
            # writeback_width per cycle, marks the record done, counts
            # its register write, wakes consumers whose last operand
            # this was (onto the ready heap if they sit in the IQ),
            # retires it from the long-latency list, clears any ticket
            # it still owns, reports loads to the policy and, for the
            # mispredicted branch fetch is blocked on, restarts fetch
            # after the refill penalty.
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

            # ==== COMMIT =============================================
            # Retire up to commit_width done records from the ROB head,
            # in order, unless a memory-order violation stalls commit.
            # Retiring frees the previous physical mapping of the
            # destination, the LQ entry (and the load's open-load
            # tracking) or the SQ entry (the store writes the cache),
            # and hands long-latency loads to the policy (UIT training).
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

            # ==== PARKED RELEASE =====================================
            # Up to `ports` parked records leave the LTP per cycle, in
            # the order the policy's release scan picks: those older
            # than the second-oldest in-flight long-latency load (the
            # boundary), plus the ROB head if it is parked (a forced
            # release, so commit never waits on parking).  A release
            # claims the IQ slot and whatever the park deferred
            # (register, LQ/SQ entry) without honouring the reserve;
            # the first record that does not fit ends the scan.
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

            # ==== RENAME =============================================
            # Up to rename_width frontend entries whose decode delay has
            # passed, in order; the first that cannot proceed stalls
            # the rest (the stall reason counts once, on the group's
            # first slot).  Each attempt builds a fresh record, links
            # it to its producers' records, and lets the policy
            # classify it (observe_rename) and decide may_allocate:
            #   "dispatch" — ROB + IQ + register + LQ/SQ now, honouring
            #                the release reserve;
            #   "park"     — ROB now, IQ and register (and LQ/SQ when
            #                the policy parks them) deferred to release;
            #   "stall"    — the LTP is full; rename stops this cycle.
            # A renamed record registers with its unfinished producers
            # (waiting_on) and, if predicted long-latency, joins the
            # sorted long-latency list that defines the boundary.
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
                        # IQ insert: waiting_on is still 0 here; if the
                        # dependences registered below raise it, the
                        # issue stage drops this heap entry as stale
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

            # ==== ISSUE / EXECUTE =====================================
            # Oldest-first select from the ready heap, up to issue_width,
            # subject to FU counts per group and busy non-pipelined
            # units; entries that cannot go now are deferred, not lost.
            # A load checks older stores (forward / wait on an unknown
            # address the memory-dependence predictor flags / access
            # the cache, retrying when the MSHRs are full); a store
            # resolves its address, detects younger loads that already
            # issued to the same word (a violation: penalty on commit,
            # predictor and policy trained); everything else takes its
            # op-class latency.  Each schedules its completion event
            # (plus a tag-known event for ticket owners).
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
                    # issue_cycle is stamped after selection: a store
                    # executing this same cycle must not see loads
                    # picked this cycle as "issued"
                    for rel in picked:
                        records[rel].issue_cycle = now
                        s_rf_reads += col_n_srcs[rel]
                    s_issued += n_picked
                    progress = True

            # ==== FETCH ==============================================
            # One I-cache access per fetch group.  Fetch stops while a
            # mispredicted branch is unresolved (stall_frontend counts
            # those cycles), while an I-cache miss is outstanding, and
            # when the frontend buffer lacks a group's room.  A group is
            # up to fetch_width instructions, ended early by a taken
            # jump or by a branch the gshare predictor gets wrong; it
            # reaches rename frontend_depth cycles later.
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

            # ==== IDLE SKIP ==========================================
            # If nothing progressed and nothing is due next cycle, jump
            # straight to the earliest future event (completion, decode,
            # fetch or commit stall end, monitor expiry, policy hint);
            # with no event at all and work left, the core deadlocked.
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
                    self._deadlock(now, iq_occ,
                                          fe_len - fe_head)
                if target <= now:
                    target = now + 1
                step = target - now if allow_skip else 1

            # ==== OCCUPANCY ==========================================
            # Integrate every structure's occupancy over the step, so
            # time-weighted averages are exact across idle jumps.
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
                self._deadlock(now - step, iq_occ,
                                      fe_len - fe_head)

        # =============================================================
        # flush locals into the shared statistics / structures
        # =============================================================
        self.cycle = now
        self.iq.occupancy = iq_occ
        lsq.lq_used = lq_used
        rf_free["int"] = rfi_free
        rf_free["fp"] = rff_free
        self.records = records
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
    def _export_activity(self) -> None:
        stats = self.stats
        self.policy.stats_extra(stats)
        stats.extra["avg_outstanding"] = self.hierarchy.average_outstanding(
            self.cycle)
        stats.extra["avg_load_latency"] = (
            self.hierarchy.stats.average_load_latency)
        stats.extra["branch_accuracy"] = self.bpred.accuracy
        stats.extra["prefetches_issued"] = float(
            self.hierarchy.stats.prefetches_issued)
        hits = self.hierarchy.stats.level_hits
        total = max(1, sum(hits.values()))
        for level, count in hits.items():
            stats.extra[f"frac_{level}"] = count / total


def simulate(trace: Sequence[DynInst],
             params: Optional[CoreParams] = None,
             ltp: Optional[LTPConfig] = None,
             **kwargs) -> SimStats:
    """Convenience wrapper: build a :class:`Pipeline` and run it."""
    return Pipeline(trace, params=params, ltp=ltp, **kwargs).run()
