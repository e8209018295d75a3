"""Issue queue: a bounded pool of dispatched, not yet issued entries.

Entries are allocated at dispatch (or at release from parking) and
freed at issue (paper Figure 4).  Wakeup and oldest-first select live
in the issue stage of :meth:`repro.core.pipeline.Pipeline._run_loop`,
which keeps the occupancy in a local and writes it back here on exit.
"""

from __future__ import annotations

from typing import Optional

from repro.core.params import cap


class IssueQueue:
    """Capacity and occupancy of the issue queue."""

    def __init__(self, size: Optional[int]) -> None:
        self.capacity = cap(size)
        self.occupancy = 0

    def __len__(self) -> int:
        return self.occupancy
