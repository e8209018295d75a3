"""Pipeline tests: basic execution, latency and width behaviour."""


from repro.core.params import CoreParams
from repro.core.pipeline import Pipeline, simulate

from tests.conftest import make_trace


def run(asm, max_insts=400, params=None, **kwargs):
    trace = make_trace(asm, max_insts=max_insts,
                       int_regs=kwargs.pop("int_regs", None),
                       fp_regs=kwargs.pop("fp_regs", None),
                       memory=kwargs.pop("memory", None))
    pipeline = Pipeline(trace, params=params or CoreParams(), **kwargs)
    stats = pipeline.run()
    return pipeline, stats


def test_every_instruction_commits_exactly_once(tiny_loop_trace):
    stats = simulate(tiny_loop_trace)
    assert stats.committed == len(tiny_loop_trace)


def test_empty_trace():
    stats = simulate([])
    assert stats.committed == 0
    assert stats.cycles == 0


def test_single_instruction():
    _, stats = run("halt", max_insts=1)
    assert stats.committed == 1
    assert stats.cycles > 0


def test_dependent_alu_chain_latency():
    """A serial 1-cycle ALU chain commits ~1 instruction per cycle."""
    n = 64
    asm = "li r1, 0\n" + "\n".join("addi r1, r1, 1" for _ in range(n)) \
          + "\nhalt"
    _, stats = run(asm, max_insts=n + 2)
    # chain length n, plus front-end fill latency
    assert n <= stats.cycles <= n + 20


def test_independent_alu_ilp():
    """Independent adds commit at several per cycle (width 6)."""
    n = 60
    asm = "\n".join(f"li r{1 + (i % 20)}, {i}" for i in range(n)) + "\nhalt"
    _, stats = run(asm, max_insts=n + 1)
    assert stats.cycles < n / 2 + 20


def test_mul_latency_on_critical_path():
    asm = "li r1, 3\n" + "\n".join("mul r1, r1, r1" for _ in range(20)) \
          + "\nhalt"
    _, stats = run(asm, max_insts=30)
    # 20 muls x 3 cycles dominate
    assert stats.cycles >= 60


def test_div_non_pipelined():
    """Two independent divides serialise on the single muldiv unit."""
    asm = """
        li r1, 100
        li r2, 3
        div r3, r1, r2
        div r4, r1, r2
        halt
    """
    _, stats = run(asm)
    assert stats.cycles >= 40  # 2 x 20-cycle divides back to back


def test_l1_load_latency():
    asm = """
        li r1, 0x1000
        ld r2, r1, 0
        add r3, r2, r2
        halt
    """
    _, stats = run(asm, memory={0x1000: 5})
    # cold load goes to DRAM; dependent add waits
    assert stats.cycles > 200


def test_store_then_load_forwarding():
    asm = """
        li r1, 0x2000
        li r2, 7
        st r2, r1, 0
        ld r3, r1, 0
        add r4, r3, r3
        halt
    """
    pipeline, stats = run(asm)
    load = next(r for r in pipeline.records
                if r.dyn.is_load)
    assert load.mem_level == "forward"
    assert stats.committed == 6


def test_commit_is_in_order():
    asm = """
        li r1, 0x9000
        ld r2, r1, 0       # slow (DRAM)
        li r3, 1           # fast, younger
        halt
    """
    pipeline, stats = run(asm)
    records = sorted(pipeline.records, key=lambda r: r.seq)
    load, younger = records[1], records[2]
    assert younger.completion_cycle < load.completion_cycle
    # both committed (committed == 4) despite out-of-order completion
    assert stats.committed == 4


def test_stats_loads_stores_branches():
    asm = """
        li r1, 0x3000
        li r2, 1
        st r2, r1, 0
        ld r3, r1, 0
        beqz r2, skip
        addi r2, r2, 1
    skip:
        halt
    """
    _, stats = run(asm)
    assert stats.committed_loads == 1
    assert stats.committed_stores == 1
    assert stats.committed_branches == 1


def test_occupancies_bounded_by_capacity():
    trace = make_trace("""
        li r1, 0
        li r2, 200
    loop:
        addi r1, r1, 1
        blt r1, r2, loop
        halt
    """, max_insts=300)
    params = CoreParams(rob_size=16, iq_size=4, lq_size=4, sq_size=4)
    pipeline = Pipeline(trace, params=params)
    stats = pipeline.run()
    assert stats.occupancies["rob"].peak <= 16
    assert stats.occupancies["iq"].peak <= 4


def test_skip_equivalence():
    """Idle-span jumping must not change any architected statistic."""
    asm = """
        li r1, 0x8000
        li r4, 0
        li r5, 6
    loop:
        ld r2, r1, 0
        add r3, r2, r2
        addi r1, r1, 0x4000
        addi r4, r4, 1
        blt r4, r5, loop
        halt
    """
    trace = make_trace(asm, max_insts=200)
    fast = Pipeline(trace, params=CoreParams(), allow_skip=True).run()
    slow = Pipeline(trace, params=CoreParams(), allow_skip=False).run()
    assert fast.cycles == slow.cycles
    assert fast.committed == slow.committed
    assert fast.occupancies["rob"].integral == slow.occupancies["rob"].integral
    assert fast.occupancies["iq"].integral == slow.occupancies["iq"].integral


def test_fetch_stops_at_taken_branch():
    _, stats = run("""
        li r1, 0
        li r2, 50
    loop:
        addi r1, r1, 1
        blt r1, r2, loop
        halt
    """, max_insts=200)
    # 2 insts per iteration, one fetch group per iteration: >= ~50 cycles
    assert stats.cycles >= 50
