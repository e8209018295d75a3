"""Unit tests for ROB, register file, IQ and LSQ structures."""

from collections import Counter

import pytest

from repro.core.inflight import InFlightInst
from repro.core.iq import IssueQueue
from repro.core.lsq import LoadStoreQueues
from repro.core.params import CoreParams
from repro.core.pipeline import Pipeline
from repro.core.regfile import RegisterFile, RegisterFileError
from repro.core.rob import ROB
from repro.isa.instructions import Instruction
from repro.isa.trace import DynInst

from conftest import make_trace


def make_record(seq, opcode="add", dst="r1", srcs=("r2", "r3")):
    inst = Instruction(opcode=opcode, dst=dst, srcs=srcs)
    dyn = DynInst(seq=seq, pc=0, inst=inst,
                  src_producers=tuple(-1 for _ in srcs), addr=None,
                  store_value=None, taken=None, next_pc=1)
    return InFlightInst(dyn)


# ---------------------------------------------------------------- ROB
def test_rob_fifo_order():
    rob = ROB(4)
    records = [make_record(i) for i in range(3)]
    for r in records:
        rob.push(r)
    assert rob.head() is records[0]
    assert rob.pop() is records[0]
    assert rob.head() is records[1]


def test_rob_capacity():
    rob = ROB(2)
    rob.push(make_record(0))
    rob.push(make_record(1))
    assert rob.full
    with pytest.raises(RuntimeError):
        rob.push(make_record(2))


def test_rob_unlimited():
    rob = ROB(None)
    for i in range(1000):
        rob.push(make_record(i))
    assert not rob.full


# ---------------------------------------------------------- RegisterFile
def test_regfile_allocation_cycle():
    rf = RegisterFile(int_regs=2, fp_regs=1)
    rf.allocate("int")
    rf.allocate("int")
    assert not rf.can_allocate("int")
    rf.release("int")
    assert rf.can_allocate("int")


def test_regfile_exhaustion_raises():
    rf = RegisterFile(int_regs=1, fp_regs=1)
    rf.allocate("int")
    with pytest.raises(RegisterFileError):
        rf.allocate("int")


def test_regfile_double_free_raises():
    rf = RegisterFile(int_regs=1, fp_regs=1)
    with pytest.raises(RegisterFileError):
        rf.release("int")


def test_regfile_reserve():
    rf = RegisterFile(int_regs=3, fp_regs=3, reserve=2)
    rf.allocate("int")                       # 2 free == reserve
    assert not rf.can_allocate("int")        # honours the reserve
    assert rf.can_allocate("int", honor_reserve=False)
    rf.allocate("int", honor_reserve=False)


def test_regfile_classes_independent():
    rf = RegisterFile(int_regs=1, fp_regs=1)
    rf.allocate("int")
    assert rf.can_allocate("fp")


def test_regfile_in_use():
    rf = RegisterFile(int_regs=10, fp_regs=10)
    rf.allocate("int")
    rf.allocate("fp")
    rf.allocate("fp")
    assert rf.in_use("int") == 1
    assert rf.in_use("fp") == 2


# ----------------------------------------------------------------- IQ
# Wakeup and select live in the cycle loop's issue stage; these tests
# drive whole programs and read each renamed record's timestamps.
def run_program(asm, **core):
    trace = make_trace(asm)
    params = CoreParams(**core) if core else CoreParams()
    pipeline = Pipeline(trace, params=params)
    stats = pipeline.run()
    assert stats.committed == len(trace)
    return pipeline, pipeline.records


def independent(opcode, count):
    lines = ["li r1, 3", "li r2, 5"]
    lines += [f"{opcode} r{3 + i}, r1, r2" for i in range(count)]
    return "\n".join(lines + ["halt"])


def test_iq_ready_insert_and_select():
    pipeline, records = run_program(independent("add", 4))
    assert all(r.issue_cycle is not None and r.issued for r in records)
    assert all(r.issue_cycle >= r.rename_cycle for r in records)
    assert len(pipeline.iq) == 0


def test_iq_oldest_first_selection():
    # one pipelined multiplier: the ready muls issue one per cycle, in
    # age order
    _, records = run_program(independent("mul", 6),
                             fu_counts={"alu": 4, "mem": 2, "fp": 2,
                                        "muldiv": 1})
    muls = [r for r in records if r.dyn.inst.opcode == "mul"]
    cycles = [r.issue_cycle for r in muls]
    assert cycles == sorted(cycles) and len(set(cycles)) == len(cycles)


def test_iq_waiting_entries_not_selected():
    _, records = run_program("""
        li r1, 7
        mul r2, r1, r1
        add r3, r2, r1
        add r4, r3, r3
        halt
    """)
    for record in records:
        for producer in record.producer_records:
            if producer is not None:
                assert record.issue_cycle >= producer.completion_cycle


def test_iq_structural_rejection_keeps_entry():
    # the divider is not pipelined: the second div is ready but must
    # wait for the unit, and is deferred rather than dropped
    _, records = run_program(independent("div", 2))
    first, second = [r for r in records if r.dyn.inst.opcode == "div"]
    assert second.issue_cycle >= first.completion_cycle


def test_iq_capacity():
    iq = IssueQueue(1)
    assert iq.capacity == 1 and len(iq) == 0
    assert IssueQueue(None).capacity > 1 << 20
    # a DRAM load feeding a long dependent chain fills a 2-entry IQ
    chain = ["li r1, 0x8000", "ld r2, r1, 0"]
    chain += [f"add r2, r2, r{3 + i % 4}" for i in range(12)]
    pipeline = Pipeline(make_trace("\n".join(chain + ["halt"])),
                        params=CoreParams(iq_size=2))
    stats = pipeline.run()
    assert stats.occupancies["iq"].peak == 2
    assert stats.stall_iq > 0


def test_iq_issue_width_respected():
    _, records = run_program(independent("add", 12), issue_width=2)
    per_cycle = Counter(r.issue_cycle for r in records)
    assert max(per_cycle.values()) == 2


# ---------------------------------------------------------------- LSQ
def test_lsq_occupancy():
    lsq = LoadStoreQueues(lq_size=2, sq_size=2)
    lsq.allocate_load()
    lsq.allocate_store(seq=1, pc=10)
    assert lsq.lq_used == 1 and lsq.sq_used == 1
    lsq.release_load()
    lsq.release_store(1)
    assert lsq.lq_used == 0 and lsq.sq_used == 0


def test_lsq_capacity_checks():
    lsq = LoadStoreQueues(lq_size=1, sq_size=1)
    lsq.allocate_load()
    assert not lsq.can_allocate_load()
    with pytest.raises(RuntimeError):
        lsq.allocate_load()


def test_lsq_double_free():
    lsq = LoadStoreQueues(lq_size=1, sq_size=1)
    with pytest.raises(RuntimeError):
        lsq.release_load()
    with pytest.raises(RuntimeError):
        lsq.release_store(9)


def test_store_forwarding_state():
    lsq = LoadStoreQueues(lq_size=4, sq_size=4)
    lsq.allocate_store(seq=1, pc=1)
    lsq.store_executed(seq=1, addr=0x100, cycle=5)
    state, entry = lsq.older_store_state(load_seq=2, load_addr=0x100, now=10)
    assert state == "forward" and entry.seq == 1


def test_unknown_store_blocks():
    lsq = LoadStoreQueues(lq_size=4, sq_size=4)
    lsq.allocate_store(seq=1, pc=1)
    state, entry = lsq.older_store_state(load_seq=2, load_addr=0x100, now=10)
    assert state == "unknown" and entry.seq == 1


def test_younger_store_ignored():
    lsq = LoadStoreQueues(lq_size=4, sq_size=4)
    lsq.allocate_store(seq=5, pc=1)
    state, entry = lsq.older_store_state(load_seq=2, load_addr=0x100, now=10)
    assert state == "clear" and entry is None


def test_youngest_match_wins():
    lsq = LoadStoreQueues(lq_size=4, sq_size=4)
    lsq.allocate_store(seq=1, pc=1)
    lsq.allocate_store(seq=3, pc=2)
    lsq.store_executed(seq=1, addr=0x100, cycle=2)
    lsq.store_executed(seq=3, addr=0x100, cycle=4)
    state, entry = lsq.older_store_state(load_seq=5, load_addr=0x100, now=10)
    assert state == "forward" and entry.seq == 3


def test_unknown_younger_than_match_dominates():
    lsq = LoadStoreQueues(lq_size=4, sq_size=4)
    lsq.allocate_store(seq=1, pc=1)
    lsq.allocate_store(seq=3, pc=2)
    lsq.store_executed(seq=1, addr=0x100, cycle=2)
    state, entry = lsq.older_store_state(load_seq=5, load_addr=0x100, now=10)
    assert state == "unknown" and entry.seq == 3


def test_word_granularity_match():
    lsq = LoadStoreQueues(lq_size=4, sq_size=4)
    lsq.allocate_store(seq=1, pc=1)
    lsq.store_executed(seq=1, addr=0x104, cycle=2)  # same word as 0x100
    state, _ = lsq.older_store_state(load_seq=2, load_addr=0x100, now=10)
    assert state == "forward"
