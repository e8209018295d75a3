"""Load and store queues: occupancy, forwarding, and ordering checks.

The LQ/SQ are allocated at rename and freed at commit (paper Figure 4;
stores "deallocate their SQ entry after the data has been written back,
which typically happens shortly after they commit" — modelled as free at
commit).  The SQ additionally tracks in-flight store addresses so loads
can (a) forward from a completed older store, or (b) be held back when
an older store to an unknown address is predicted to conflict.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.core.params import cap

WORD_MASK = ~7


class StoreEntry:
    """One in-flight store tracked by the SQ."""

    __slots__ = ("seq", "pc", "addr", "data_ready_cycle", "committed")

    def __init__(self, seq: int, pc: int) -> None:
        self.seq = seq
        self.pc = pc
        self.addr: Optional[int] = None
        self.data_ready_cycle: Optional[int] = None
        self.committed = False


class LoadStoreQueues:
    """Combined LQ/SQ occupancy and store-address tracking."""

    def __init__(self, lq_size: Optional[int], sq_size: Optional[int],
                 reserve: int = 0) -> None:
        self.lq_capacity = cap(lq_size)
        self.sq_capacity = cap(sq_size)
        self.lq_used = 0
        self.sq_used = 0  # kept as a plain counter: read every cycle
        self._stores: Dict[int, StoreEntry] = {}  # seq -> entry
        # clamp so the reserve can never block rename outright
        self.reserve = min(reserve,
                           max(0, self.lq_capacity - 1),
                           max(0, self.sq_capacity - 1))

    # -- allocation -----------------------------------------------------
    def can_allocate_load(self, honor_reserve: bool = True) -> bool:
        needed = 1 + (self.reserve if honor_reserve else 0)
        return self.lq_used + needed <= self.lq_capacity

    def can_allocate_store(self, honor_reserve: bool = True) -> bool:
        needed = 1 + (self.reserve if honor_reserve else 0)
        return len(self._stores) + needed <= self.sq_capacity

    def allocate_load(self) -> None:
        if self.lq_used >= self.lq_capacity:
            raise RuntimeError("LQ overflow")
        self.lq_used += 1

    def allocate_store(self, seq: int, pc: int) -> StoreEntry:
        if len(self._stores) >= self.sq_capacity:
            raise RuntimeError("SQ overflow")
        entry = StoreEntry(seq, pc)
        self._stores[seq] = entry
        self.sq_used += 1
        return entry

    def release_load(self) -> None:
        if self.lq_used <= 0:
            raise RuntimeError("LQ double free")
        self.lq_used -= 1

    def release_store(self, seq: int) -> None:
        if seq not in self._stores:
            raise RuntimeError(f"SQ double free (seq {seq})")
        del self._stores[seq]
        self.sq_used -= 1

    # -- store execution ------------------------------------------------
    def store_executed(self, seq: int, addr: int, cycle: int) -> None:
        entry = self._stores[seq]
        entry.addr = addr & WORD_MASK
        entry.data_ready_cycle = cycle

    # -- load-side queries ----------------------------------------------
    def older_store_state(self, load_seq: int, load_addr: int,
                          now: int) -> Tuple[str, Optional[StoreEntry]]:
        """Classify the youngest relevant older store for a load.

        Returns one of:

        * ``("forward", entry)`` — an older store to the same word has
          executed; store-to-load forwarding applies.
        * ``("unknown", entry)`` — an older store's address is still
          unknown; the memory-dependence predictor decides whether the
          load may speculate past it.
        * ``("clear", None)`` — no older store can conflict.
        """
        addr = load_addr & WORD_MASK
        youngest_match: Optional[StoreEntry] = None
        youngest_unknown: Optional[StoreEntry] = None
        for entry in self._stores.values():
            if entry.seq >= load_seq:
                continue
            if entry.addr is None:
                if youngest_unknown is None or entry.seq > youngest_unknown.seq:
                    youngest_unknown = entry
            elif entry.addr == addr:
                if youngest_match is None or entry.seq > youngest_match.seq:
                    youngest_match = entry
        if youngest_unknown is not None and (
                youngest_match is None
                or youngest_unknown.seq > youngest_match.seq):
            return "unknown", youngest_unknown
        if youngest_match is not None:
            return "forward", youngest_match
        return "clear", None
