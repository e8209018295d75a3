"""Edge-case tests for LTP: forced release with live tickets, monitor
transitions mid-flight, ticket exhaustion, and mixed-mode interactions."""


from repro.core.pipeline import Pipeline
from repro.ltp.config import limit_ltp
from repro.ltp.controller import LTPController
from repro.ltp.oracle import annotate_trace
from repro.policies import LTPPolicy

from tests.conftest import make_trace
from tests.test_ltp_controller import make_record, oracle_controller
from tests.test_pipeline_ltp import miss_trace, run_with_ltp, small_core


def test_forced_release_overrides_live_tickets():
    controller = oracle_controller(mode="nr", ll_seqs={0})
    load = make_record(0, opcode="ld", dst="r1", srcs=("r2",))
    controller.observe_rename(load)
    child = make_record(1)
    child.producer_records = (load, None)
    controller.observe_rename(child)
    controller.park(child)
    assert child.tickets
    # as ROB head, the child must be releasable despite live tickets
    cands = controller.release_candidates(0, boundary_seq=0,
                                          force_seq=1, limit=1)
    assert cands == [child]


def test_ticket_exhaustion_degrades_to_ready():
    """With zero free tickets, new LL loads cannot be tracked and their
    descendants are treated Ready (not parked in NR mode)."""
    controller = oracle_controller(mode="nr", ll_seqs={0, 1})
    controller.tickets.pool.capacity = 1
    first = make_record(0, opcode="ld", dst="r1", srcs=("r2",))
    controller.observe_rename(first)
    assert first.own_ticket is not None
    second = make_record(1, opcode="ld", dst="r3", srcs=("r2",))
    controller.observe_rename(second)
    assert second.own_ticket is None      # pool exhausted
    consumer = make_record(2)
    consumer.producer_records = (second, None)
    controller.observe_rename(consumer)
    assert not consumer.tickets
    assert controller.decide(consumer, now=0) == "dispatch"


def test_monitor_toggle_mid_run_keeps_correctness():
    """LTP turning off with instructions parked must drain cleanly."""
    # a burst of misses followed by a long compute-only phase
    asm_lines = ["li r1, 0x10000000", "li r2, 0x40000000", "li r3, 0",
                 "li r7, 12", "loopA:"]
    asm_lines += [
        "ldx  r4, r1, r3",
        "slli r5, r4, 20",
        "add  r5, r2, r5",
        "ld   r6, r5, 0",
        "add  r8, r6, r6",
        "addi r3, r3, 1",
        "blt  r3, r7, loopA",
    ]
    asm_lines += ["li r9, 0", "li r10, 250", "loopB:",
                  "addi r9, r9, 1", "add r11, r9, r9",
                  "blt r9, r10, loopB", "halt"]
    memory = {0x10000000 + 8 * i: i for i in range(16)}
    trace = make_trace("\n".join(asm_lines), max_insts=1000, memory=memory)
    core = small_core()
    ltp = limit_ltp("nu").but(monitor="auto", park_loads=False,
                              park_stores=False)
    oracle = annotate_trace(trace, core.mem, window=64)
    controller = LTPController(ltp, core.mem.dram_latency, oracle=oracle)
    policy = LTPPolicy(ltp, core.mem.dram_latency, controller=controller)
    pipeline = Pipeline(trace, params=core, ltp=ltp, policy=policy)
    stats = pipeline.run()
    assert stats.committed == len(trace)
    # LTP parked during the miss phase but the compute tail ran with the
    # monitor off
    assert stats.ltp_parked > 0
    assert stats.ltp_enabled_cycles < stats.cycles


def test_park_stalls_counted_and_recovered():
    trace = miss_trace(iters=50)
    ltp = limit_ltp("nu").but(entries=2, ports=1, monitor="on",
                              park_loads=False, park_stores=False)
    _, stats = run_with_ltp(trace, small_core(), ltp)
    assert stats.ltp_park_stalls > 0
    assert stats.committed == len(trace)


def test_nr_and_nu_in_same_queue():
    """nr+nu mode parks both classes in one scan-released structure."""
    trace = miss_trace(iters=50)
    ltp = limit_ltp("nr+nu").but(monitor="on", park_loads=False,
                                 park_stores=False)
    pipeline, stats = run_with_ltp(trace, small_core(), ltp)
    assert stats.committed == len(trace)
    # both parking reasons observed
    reasons = {r.park_reason for r in pipeline.records
               if r.park_reason}
    assert "non-urgent" in reasons


def test_release_reserve_respected_at_rename():
    """New rename honours the register reserve; releases ignore it."""
    trace = miss_trace(iters=40)
    core = small_core()
    core.int_regs = 12
    core.fp_regs = 12
    ltp = limit_ltp("nu").but(monitor="on", release_reserve=4,
                              park_loads=False, park_stores=False)
    _, stats = run_with_ltp(trace, core, ltp)
    assert stats.committed == len(trace)


def test_zero_reserve_also_safe():
    trace = miss_trace(iters=40)
    ltp = limit_ltp("nu").but(monitor="on", release_reserve=0,
                              park_loads=False, park_stores=False)
    _, stats = run_with_ltp(trace, small_core(), ltp)
    assert stats.committed == len(trace)


def test_park_loads_and_stores_defer_lsq():
    """Limit-study mode: parked memory ops hold no LQ/SQ entries."""
    trace = miss_trace(iters=60)
    core = small_core()
    core.lq_size = 8
    core.sq_size = 4
    ltp = limit_ltp("nr+nu").but(monitor="on")   # park_loads/stores True
    pipeline, stats = run_with_ltp(trace, core, ltp)
    assert stats.committed == len(trace)
    assert stats.occupancies["lq"].peak <= 8
    assert stats.occupancies["sq"].peak <= 4
