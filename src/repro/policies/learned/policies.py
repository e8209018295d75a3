"""The learned and adaptive parking policies.

Three registered policies close ROADMAP item 3, each approaching the
oracle from a different direction:

* :class:`ModelParkPolicy` (``model-park``) — pure inference over a
  frozen offline-trained artifact (:mod:`.artifact`): the feature
  vector is assembled from hook-visible state and the integer linear
  model decides urgency; nothing learns at run time.
* :class:`ConfidenceParkPolicy` (``confidence-park``) — the UIT-based
  online classifier plus a per-PC saturating confidence table: a
  Non-Urgent verdict parks only once parking at that PC has proven
  harmless (no forced ROB-head releases), LTP-table-style.
* :class:`LoadPredParkPolicy` (``loadpred-park``) — predicts
  long-latency loads from live memory-hierarchy state (cache presence
  probes, MSHR fills and occupancy from :mod:`repro.memory`) plus the
  Appendix-A two-level hit/miss predictor, and parks the dependents of
  predicted-long loads until their operands are ready.

All three ride on :class:`~repro.policies.base.ParkingPolicy`'s
soundness machinery (parked-bit propagation, forced head release) and
wake on data readiness (``waiting_on == 0``), so idle-skip equivalence
holds by construction: rename attempts only happen on cycles the idle
jump never skips, and every piece of learned state advances either
per rename attempt (exactly like the LTP classifier) or keyed by
sequence number.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.core.inflight import InFlightInst
from repro.ltp.classifier import OnlineClassifier
from repro.ltp.config import LTPConfig
from repro.ltp.oracle import OracleInfo
from repro.ltp.predictor import HitMissPredictor
from repro.memory.cache import block_of
from repro.policies.base import ParkingPolicy
from repro.policies.learned.artifact import (ModelArtifact,
                                             load_default_payload)
from repro.policies.learned.features import FeatureState
from repro.policies.registry import register_policy


@register_policy(
    "model-park",
    parks=True,
    needs_model=True,
    description="park instructions a frozen offline-trained linear "
                "model (repro train) classifies Non-Urgent; pure "
                "integer inference in the hot path")
class ModelParkPolicy(ParkingPolicy):
    """Frozen-model parking: offline training, inference-only runs.

    The config's embedded artifact payload (``SimConfig.model``) — or
    the committed example artifact when none is embedded — supplies
    integer weights over the versioned feature schema.  At rename the
    policy assembles the online analogue of the training features
    (op class, dependence depth, per-PC long-latency rate, decaying
    memory pressure), scores it, and parks the Non-Urgent.  The
    decision is memoised per sequence number so rename retries replay
    it instead of re-deriving it from later state.
    """

    def __init__(self, ltp: LTPConfig, dram_latency: int,
                 oracle: Optional[OracleInfo] = None,
                 model=None) -> None:
        super().__init__(ltp, dram_latency)
        if model is None:
            model = load_default_payload()
        self.artifact = ModelArtifact.from_payload(model)
        self._state = FeatureState()
        #: seq -> park verdict, frozen at the first rename attempt
        self._verdicts: Dict[int, bool] = {}
        #: seq -> dependence depth, in-flight records only
        self._depths: Dict[int, int] = {}

    def observe_rename(self, record: InFlightInst) -> None:
        seq = record.seq
        if seq in self._verdicts:
            return  # a rename retry replays the frozen verdict
        depth = 0
        depths = self._depths
        for producer in record.producer_records:
            if producer is not None and not producer.done:
                candidate = depths.get(producer.seq, 0) + 1
                if candidate > depth:
                    depth = candidate
        depths[seq] = depth
        dyn = record.dyn
        state = self._state
        urgent = self.artifact.is_urgent(state.vector(dyn, depth))
        self._verdicts[seq] = not urgent
        state.step(dyn.pc)

    def wants_park(self, record: InFlightInst, now: int) -> bool:
        return self._verdicts.get(record.seq, False)

    def may_release(self, record: InFlightInst, now: int,
                    boundary_seq: int) -> bool:
        return record.waiting_on == 0

    def on_load_complete(self, record: InFlightInst,
                         was_long_latency: bool) -> None:
        self._state.note_load_outcome(record.dyn.pc, was_long_latency)

    def on_commit(self, record: InFlightInst) -> None:
        self._verdicts.pop(record.seq, None)
        self._depths.pop(record.seq, None)

    def warm_from_trace(self, warmup_slice, long_latency_flags) -> None:
        self._state.warm(warmup_slice, long_latency_flags)


@register_policy(
    "confidence-park",
    parks=True,
    uses_uit=True,
    description="UIT urgency classification gated by a per-PC "
                "saturating confidence table: Non-Urgent instructions "
                "park only where parking has proven harmless")
class ConfidenceParkPolicy(ParkingPolicy):
    """Confidence-weighted parking over the online UIT classifier.

    The Section 5.2 classifier supplies the urgency verdict; a per-PC
    saturating counter supplies trust in it.  Every committed
    instruction this policy *chose* to park votes: a forced ROB-head
    release (the park got in the way of retirement) costs confidence,
    a clean drain earns it back, and only PCs at or above the
    threshold may park again — so a mispredicting PC quickly loses its
    parking rights instead of stalling the head over and over.
    """

    CONF_MAX = 7
    CONF_START = 4
    CONF_THRESHOLD = 4
    CONF_PENALTY = 2

    def __init__(self, ltp: LTPConfig, dram_latency: int,
                 oracle: Optional[OracleInfo] = None) -> None:
        super().__init__(ltp, dram_latency)
        self.classifier = OnlineClassifier(uit_size=ltp.uit_size,
                                           uit_ways=ltp.uit_ways)
        #: pc -> saturating parking confidence (0..CONF_MAX)
        self._confidence: Dict[int, int] = {}

    def observe_rename(self, record: InFlightInst) -> None:
        # one classification (and backward-propagation step) per rename
        # attempt, exactly like the LTP controller drives the UIT
        record.urgent = self.classifier.observe_rename(record)

    def wants_park(self, record: InFlightInst, now: int) -> bool:
        if record.urgent:
            return False
        confidence = self._confidence.get(record.dyn.pc, self.CONF_START)
        return confidence >= self.CONF_THRESHOLD

    def may_release(self, record: InFlightInst, now: int,
                    boundary_seq: int) -> bool:
        return record.waiting_on == 0

    def on_commit(self, record: InFlightInst) -> None:
        if record.is_load and record.actual_ll:
            self.classifier.on_long_latency_commit(record.dyn.pc)
        if record.park_reason != self.name:
            return  # forced parks (memdep/parked-bit) cast no vote
        pc = record.dyn.pc
        confidence = self._confidence.get(pc, self.CONF_START)
        if record.forced_release:
            confidence -= self.CONF_PENALTY
            self._confidence[pc] = confidence if confidence > 0 else 0
        elif confidence < self.CONF_MAX:
            self._confidence[pc] = confidence + 1

    def on_violation(self, load_pc: int, store_pc: int) -> None:
        self.classifier.on_violation(store_pc)

    def warm_from_trace(self, warmup_slice, long_latency_flags) -> None:
        if long_latency_flags is None:
            return
        events = ((dyn.pc, dyn.inst.srcs, dyn.inst.dst, bool(flag))
                  for dyn, flag in zip(warmup_slice, long_latency_flags))
        self.classifier.warm(events, None)

    def stats_extra(self, stats) -> None:
        uit = self.classifier.uit
        stats.uit_lookups = uit.lookups
        stats.uit_inserts = uit.inserts
        stats.ltp_park_stalls = self.park_stalls


@register_policy(
    "loadpred-park",
    parks=True,
    description="predict long-latency loads from live cache/MSHR state "
                "plus the two-level hit/miss predictor, and park their "
                "dependents until data-ready")
class LoadPredParkPolicy(ParkingPolicy):
    """Load-latency-predicted parking from memory-hierarchy state.

    At a load's first rename attempt the policy consults the pipeline's
    own hierarchy read-only: a block with an outstanding past-L2 MSHR
    fill is long; a block present in the L1D/L2 tags is short;
    otherwise the Appendix-A two-level hit/miss predictor decides, and
    a full MSHR file forces the long verdict (the access cannot even
    start).  Consumers of an in-flight predicted-long load park and
    wake when their operands are ready; the predictor trains on every
    actual load outcome.  The load itself never parks — issuing it
    early is what exposes the miss.
    """

    def __init__(self, ltp: LTPConfig, dram_latency: int,
                 oracle: Optional[OracleInfo] = None) -> None:
        super().__init__(ltp, dram_latency)
        self.predictor = HitMissPredictor()
        self._hierarchy = None
        #: load seqs already predicted (one verdict per dynamic load)
        self._seen: Set[int] = set()
        #: load seqs predicted long latency and still in flight
        self._predicted_long: Set[int] = set()

    def attach_memory(self, hierarchy) -> None:
        self._hierarchy = hierarchy

    def _predict_long(self, record: InFlightInst) -> bool:
        hierarchy = self._hierarchy
        addr = record.dyn.addr
        if hierarchy is not None and addr is not None:
            block = block_of(addr)
            fill = hierarchy.mshrs.outstanding(block)
            if fill is not None:
                return fill.level in ("l3", "dram")
            if hierarchy.l1d.probe(block) or hierarchy.l2.probe(block):
                return False
            if not hierarchy.mshrs.can_allocate():
                return True  # the access cannot even start yet
        return self.predictor.predict_long_latency(record.dyn.pc)

    def observe_rename(self, record: InFlightInst) -> None:
        if not record.is_load:
            return
        seq = record.seq
        if seq in self._seen:
            return  # rename retries keep the first attempt's verdict
        self._seen.add(seq)
        if self._predict_long(record):
            self._predicted_long.add(seq)

    def wants_park(self, record: InFlightInst, now: int) -> bool:
        predicted = self._predicted_long
        if not predicted:
            return False
        for producer in record.producer_records:
            if producer is not None and not producer.done \
                    and producer.seq in predicted:
                return True
        return False

    def may_release(self, record: InFlightInst, now: int,
                    boundary_seq: int) -> bool:
        return record.waiting_on == 0

    def on_load_complete(self, record: InFlightInst,
                         was_long_latency: bool) -> None:
        seq = record.seq
        if seq in self._seen:
            self.predictor.update(record.dyn.pc, was_long_latency)
            self._predicted_long.discard(seq)

    def on_commit(self, record: InFlightInst) -> None:
        if record.is_load:
            self._seen.discard(record.seq)
            self._predicted_long.discard(record.seq)

    def warm_from_trace(self, warmup_slice, long_latency_flags) -> None:
        if long_latency_flags is None:
            return
        update = self.predictor.update
        for dyn, flag in zip(warmup_slice, long_latency_flags):
            if dyn.is_load:
                update(dyn.pc, bool(flag))
