"""Dynamic-instruction records produced by the functional executor.

A :class:`DynInst` is one executed instance of a static instruction.  It
carries everything a trace-driven timing model needs:

* true register dataflow, as the sequence numbers of the producing
  dynamic instructions (``src_producers``),
* the effective memory address for loads/stores,
* the actual branch direction and successor PC.

The timing model treats ``src_producers`` as the rename result: it is
exactly the mapping a RAT would compute, so the timing model can key its
scoreboard by sequence number and model the physical register file purely
as an occupancy resource.

Because the pipeline touches every record many times per simulated
cycle, all per-instruction metadata the hot loop needs — operation
class, load/store/branch flags, FU group, the non-pipelined flag, the
register-file class of the destination, and the instruction's byte
address in the code region — is *pre-decoded once* here at trace build
time and stored in plain ``__slots__`` attributes.  The timing model
never performs a property call or opcode-table lookup per cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.isa.instructions import (FU_GROUP, NONPIPELINED_CLASSES,
                                    Instruction, OpClass)

#: byte address of static instruction 0 (code lives far from data)
CODE_BASE = 1 << 40
INST_BYTES = 4

#: dense integer ids for the columnar (struct-of-arrays) cycle loop:
#: op classes and FU groups numbered in definition order, so per-run
#: latency and FU tables are plain lists indexed by these ids
OP_CLASS_ID: Dict[OpClass, int] = {op: i for i, op in enumerate(OpClass)}
FU_GROUPS: Tuple[str, ...] = tuple(dict.fromkeys(
    FU_GROUP[op] for op in OpClass))
CLASS_FU_GID: Tuple[int, ...] = tuple(
    FU_GROUPS.index(FU_GROUP[op]) for op in OpClass)


def predecode_columns(trace: Sequence["DynInst"]) -> Dict[str, List]:
    """Columnar mirror of the pre-decoded per-instruction metadata.

    Returns parallel plain lists (one entry per dynamic instruction, in
    trace order) for every field the cycle loop indexes by
    position instead of reaching through ``DynInst`` attributes:
    fetch-side fields (``pc``, ``code_addr``, ``is_branch``, ``taken``)
    and issue-side fields (``cid`` — dense :data:`OP_CLASS_ID`, ``gid``
    — dense FU-group id, ``nonpipelined``, ``n_srcs``).  The columns are
    configuration-independent, so one predecode serves any number of
    simulated configurations over the same trace.
    """
    class_id = OP_CLASS_ID
    gid_of = CLASS_FU_GID
    cid = [class_id[dyn.op_class] for dyn in trace]
    return {
        "pc": [dyn.pc for dyn in trace],
        "code_addr": [dyn.code_addr for dyn in trace],
        "is_branch": [dyn.is_branch for dyn in trace],
        "taken": [dyn.taken for dyn in trace],
        "cid": cid,
        "gid": [gid_of[c] for c in cid],
        "nonpipelined": [dyn.nonpipelined for dyn in trace],
        "n_srcs": [dyn.n_srcs for dyn in trace],
    }


@dataclass(eq=False)
class DynInst:
    """One dynamic instruction instance.

    Attributes:
        seq: global sequence number (0-based, program order).
        pc: static instruction index.
        inst: the static instruction.
        src_producers: for each register source, the sequence number of
            the dynamic instruction that produced it, or ``-1`` if the
            value predates the trace (initial architectural state).
        addr: effective byte address for loads/stores, else ``None``.
        store_value: value stored (stores only) — used by functional
            memory replay in tests.
        taken: actual branch direction (branches only).
        next_pc: static index of the successor instruction.

    Pre-decoded (derived from ``inst``/``pc`` in ``__post_init__``):
        op_class, is_load, is_store, is_mem, is_branch, is_control,
        has_dst, writes_fp, rf_class (``"int"``/``"fp"``/``None``),
        fu_group, nonpipelined, n_srcs, and code_addr (the instruction's
        byte address, ``CODE_BASE + pc * INST_BYTES``).
    """

    __slots__ = ("seq", "pc", "inst", "src_producers", "addr",
                 "store_value", "taken", "next_pc",
                 # pre-decoded metadata (set in __post_init__)
                 "op_class", "is_load", "is_store", "is_mem", "is_branch",
                 "is_control", "has_dst", "writes_fp", "rf_class",
                 "fu_group", "nonpipelined", "n_srcs", "code_addr")

    seq: int
    pc: int
    inst: Instruction
    src_producers: Tuple[int, ...]
    addr: Optional[int]
    store_value: Optional[int]
    taken: Optional[bool]
    next_pc: int

    def __post_init__(self) -> None:
        inst = self.inst
        op_class = inst.op_class
        self.op_class = op_class
        self.is_load = op_class is OpClass.LOAD
        self.is_store = op_class is OpClass.STORE
        self.is_mem = self.is_load or self.is_store
        self.is_branch = op_class is OpClass.BRANCH
        self.is_control = self.is_branch or op_class is OpClass.JUMP
        has_dst = inst.dst is not None
        self.has_dst = has_dst
        writes_fp = has_dst and inst.writes_fp
        self.writes_fp = writes_fp
        self.rf_class = ("fp" if writes_fp else "int") if has_dst else None
        self.fu_group = FU_GROUP[op_class]
        self.nonpipelined = op_class in NONPIPELINED_CLASSES
        self.n_srcs = len(inst.srcs)
        self.code_addr = CODE_BASE + self.pc * INST_BYTES

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DynInst):
            return NotImplemented
        return (self.seq == other.seq and self.pc == other.pc
                and self.inst == other.inst
                and self.src_producers == other.src_producers
                and self.addr == other.addr
                and self.store_value == other.store_value
                and self.taken == other.taken
                and self.next_pc == other.next_pc)

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        extra = []
        if self.addr is not None:
            extra.append(f"addr=0x{self.addr:x}")
        if self.taken is not None:
            extra.append(f"taken={self.taken}")
        suffix = (" " + " ".join(extra)) if extra else ""
        return f"<DynInst #{self.seq} pc={self.pc} {self.inst.render()}{suffix}>"
