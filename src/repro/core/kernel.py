"""Columnar predecode of a trace for the cycle loop.

:func:`predecode` turns a dynamic trace into :class:`TraceArrays`: the
configuration-independent per-instruction metadata as parallel plain
lists (built on :func:`repro.isa.trace.predecode_columns`), indexed by
trace position inside :meth:`repro.core.pipeline.Pipeline._run_loop`.
One predecode serves every configuration run over the same trace; the
session caches it next to the trace.

``KernelPipeline`` is the earlier name of the columnar engine, which is
now the only one: it names :class:`repro.core.pipeline.Pipeline`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.pipeline import Pipeline
from repro.isa.trace import DynInst, predecode_columns

__all__ = ["KernelPipeline", "TraceArrays", "predecode"]

KernelPipeline = Pipeline


class TraceArrays:
    """Configuration-independent columnar predecode of one trace.

    Holds the :class:`DynInst` list plus the parallel metadata lists of
    :func:`~repro.isa.trace.predecode_columns`, the base sequence number
    ``seq0`` (loop state is indexed by ``seq - seq0``), and the
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
    """Predecode *trace* into :class:`TraceArrays` for the cycle loop.

    The trace must be sequence-contiguous (executor traces always are):
    the loop indexes its scoreboard and event heap by ``seq - seq0``.
    """
    dyns = trace if isinstance(trace, list) else list(trace)
    if dyns and dyns[-1].seq - dyns[0].seq != len(dyns) - 1:
        raise ValueError("the cycle loop requires a contiguous trace "
                         f"(seq {dyns[0].seq}..{dyns[-1].seq} over "
                         f"{len(dyns)} instructions)")
    return TraceArrays(dyns, predecode_columns(dyns))

