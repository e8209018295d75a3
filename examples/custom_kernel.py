#!/usr/bin/env python3
"""Write your own kernel and run it through the full stack.

Shows the lowest-level public API: assemble a program, execute it
functionally to get a dynamic trace, classify it with the oracle, and
run the trace through the cycle model with and without LTP.
"""

from repro import CoreParams, Pipeline, annotate_trace, limit_ltp
from repro.harness.report import render_table
from repro.isa import Executor, Memory, assemble
from repro.policies import LTPPolicy

# A software prefetch-unfriendly kernel: strided walk with a stride
# learned from memory, plus a reduction.
KERNEL = """
    li   r1, 0x40000000       # table base
    li   r2, 0                # index
    li   r3, 0                # accumulator
    li   r9, 0                # loop counter
    li   r10, 300
loop:
    mul  r4, r2, r11          # scatter the index      (urgent)
    andi r4, r4, 0x1FFFFF     # bound it to 16 MB      (urgent)
    slli r4, r4, 3
    add  r4, r1, r4
    ld   r5, r4, 0            # gather (DRAM miss)
    add  r3, r3, r5           # reduce                 (NU + NR)
    addi r2, r2, 1
    addi r9, r9, 1
    blt  r9, r10, loop
    halt
"""


def run(trace, core, ltp=None):
    if ltp is None:
        pipeline = Pipeline(trace, params=core)
    else:
        oracle = annotate_trace(trace, core.mem)
        policy = LTPPolicy(ltp, core.mem.dram_latency, oracle=oracle)
        pipeline = Pipeline(trace, params=core, ltp=ltp, policy=policy)
    return pipeline.run()


def main() -> None:
    program = assemble(KERNEL, name="custom")
    executor = Executor(program, memory=Memory(),
                        int_regs={"r11": 2654435761})
    trace = list(executor.run(4000))
    print(f"traced {len(trace)} dynamic instructions "
          f"({sum(d.is_load for d in trace)} loads)")

    small = CoreParams(iq_size=16)
    small.mem.mshrs = None
    big = CoreParams(iq_size=256)
    big.mem.mshrs = None

    rows = []
    for label, core, ltp in [
            ("IQ:16", small, None),
            ("IQ:16 + ideal LTP", small, limit_ltp("nr+nu")),
            ("IQ:256", big, None)]:
        stats = run(trace, core, ltp)
        rows.append([label, stats.cpi, stats.extra["avg_outstanding"],
                     stats.ltp_parked])
    print(render_table(
        ["config", "CPI", "outstanding", "parked"],
        rows, title="Custom kernel through the cycle model"))


if __name__ == "__main__":
    main()
