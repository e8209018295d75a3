"""Differential guarantees of the allocation-policy refactor.

Three layers of evidence that extracting the policy seam changed
nothing for the behaviors that existed before it:

1. **Tracked-cache bit-identity** — the repository tracks ``.simcache``
   result files recorded by the pre-seam pipeline.  Re-simulating those
   configurations fresh (isolated cache directory) must reproduce every
   statistic bit-for-bit, through the full session path.  This also
   proves cache-key stability: if adding ``SimConfig.policy`` had
   perturbed the key, the tracked files would simply not be found.
2. **Seam-wiring equivalence** — ``policy="ltp"`` /
   ``policy="baseline-stall"`` through the registry must equal the
   pre-seam wiring — a hand-built, explicitly warmed
   :class:`~repro.ltp.controller.LTPController` handed to the pipeline
   inside ``LTPPolicy(controller=...)`` — bit-for-bit over a config
   grid (workloads x LTP variants x queue sizes).
3. **Soundness of the whole policy space** — every registered policy,
   over random programs and random cores, runs deadlock-free,
   commits every instruction exactly once, respects structure
   capacities, drains its parking queue, and is invariant to
   idle-span jumping (strict vs. skip execution).
4. **Golden-corpus bit-identity** — the cycle loop must reproduce the
   full ``SimStats.as_dict()`` the retired object-graph engine
   recorded in ``tests/golden/engine_corpus.jsonl`` over the same
   grid, in idle-skip and strict mode, for the LTP policy, the
   baseline-stall policy, and the three learned/adaptive policies
   (model-park via the committed frozen artifact, confidence-park,
   loadpred-park).
"""

import json
import random
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.api import Session, default_session
from repro.api.session import warm_branch_predictor, warm_hierarchy
from repro.core.branch import GsharePredictor
from repro.core.params import baseline_params, ltp_params
from repro.core.pipeline import Pipeline
from repro.isa.assembler import assemble
from repro.isa.executor import Executor
from repro.ltp.config import no_ltp, proposed_ltp
from repro.ltp.controller import LTPController
from repro.ltp.oracle import annotate_trace
from repro.memory.hierarchy import MemoryHierarchy
from repro.policies import (LTPPolicy, build_policy, policy_names,
                            policy_needs_oracle)
from repro.workloads import get_workload

import golden_corpus
from golden_corpus import GRID_LTP, GRID_WORKLOADS
from test_properties_pipeline import random_core, random_program

REPO_ROOT = Path(__file__).resolve().parents[1]
TRACKED_CACHE = REPO_ROOT / ".simcache"


# ================================================================
# 1. bit-identity against the tracked pre-seam result cache
# ================================================================
def tracked_headline_points():
    """Headline-sweep configs whose results the repository tracks."""
    from repro.harness.experiments import sweep_preset
    spec = sweep_preset("ltp-queues")
    return [config for config in spec.expand()
            if (TRACKED_CACHE / f"{config.key()}.json").is_file()]


def tracked_stats(config):
    with open(TRACKED_CACHE / f"{config.key()}.json") as handle:
        return json.load(handle)


def test_tracked_cache_exists_for_headline_sweep():
    """Key stability: pre-seam keys still resolve to tracked results."""
    points = tracked_headline_points()
    assert points, ("no tracked .simcache entry matches the headline "
                    "sweep — SimConfig.key() is no longer stable")


def test_fresh_simulation_reproduces_tracked_stats(tmp_path):
    """The refactored session path is bit-identical to the tracked
    (pre-policy-seam) results, LTP on and off."""
    points = tracked_headline_points()
    # LTP-off coverage: the tracked baseline runs of the headline
    # experiment (default budgets, baseline core)
    from repro.harness.config import SimConfig
    for name in ("lattice_milc", "ptrchase_astar", "stream_triad"):
        config = SimConfig(workload=name, core=baseline_params(),
                           ltp=no_ltp())
        if (TRACKED_CACHE / f"{config.key()}.json").is_file():
            points.append(config)
    enabled = [c for c in points if c.ltp.enabled]
    disabled = [c for c in points if not c.ltp.enabled]
    assert enabled and disabled, "need both LTP-on and LTP-off coverage"
    sample = enabled[:3] + disabled[:3]
    with Session(cache_dir=str(tmp_path)) as session:
        for config in sample:
            fresh = session.run(config, use_cache=False)
            assert fresh.stats == tracked_stats(config), \
                (config.workload, config.ltp.enabled)


def test_baseline_stall_matches_tracked_no_ltp_stats(tmp_path):
    """policy="baseline-stall" reproduces the pre-seam no-LTP machine
    bit-for-bit (same stats, distinct cache key)."""
    import dataclasses
    from repro.harness.config import SimConfig
    checked = 0
    with Session(cache_dir=str(tmp_path)) as session:
        for name in ("lattice_milc", "ptrchase_astar"):
            config = SimConfig(workload=name, core=baseline_params(),
                               ltp=no_ltp())
            if not (TRACKED_CACHE / f"{config.key()}.json").is_file():
                continue
            explicit = dataclasses.replace(config, policy="baseline-stall")
            assert explicit.key() != config.key()
            fresh = session.run(explicit, use_cache=False)
            assert fresh.stats == tracked_stats(config), name
            checked += 1
    assert checked, "no tracked no-LTP baseline point found"


# ================================================================
# 2. registry path == hand-built controller wiring
# ================================================================
def _legacy_stats(name, core, ltp, warmup, measure):
    """The pre-seam wiring: hand-built controller, explicit warmup."""
    total = warmup + measure
    trace = default_session().get_trace(name, total)
    workload = get_workload(name)
    oracle = (default_session().get_oracle(name, total, core, trace)
              if ltp.enabled else None)
    warmup_slice = trace[:warmup]
    hierarchy = MemoryHierarchy(core.mem)
    warm_hierarchy(hierarchy, warmup_slice, len(workload.program),
                   warm_regions=workload.warm_regions)
    bpred = GsharePredictor()
    warm_branch_predictor(bpred, warmup_slice)
    controller = LTPController(ltp, core.mem.dram_latency, oracle=oracle)
    if ltp.enabled and oracle is not None and warmup:
        controller.warm_from_trace(warmup_slice,
                                   oracle.long_latency[:warmup])
    pipeline = Pipeline(trace[warmup:], params=core, ltp=ltp,
                        policy=LTPPolicy(ltp, core.mem.dram_latency,
                                         controller=controller),
                        hierarchy=hierarchy, branch_predictor=bpred)
    return pipeline.run().equivalence_signature()


def _policy_stats(policy, name, core, ltp, warmup, measure):
    """The same run through the policy registry."""
    total = warmup + measure
    trace = default_session().get_trace(name, total)
    workload = get_workload(name)
    oracle = (default_session().get_oracle(name, total, core, trace)
              if policy_needs_oracle(policy, ltp) else None)
    warmup_slice = trace[:warmup]
    hierarchy = MemoryHierarchy(core.mem)
    warm_hierarchy(hierarchy, warmup_slice, len(workload.program),
                   warm_regions=workload.warm_regions)
    bpred = GsharePredictor()
    warm_branch_predictor(bpred, warmup_slice)
    built = build_policy(policy, ltp, core.mem.dram_latency, oracle=oracle)
    built.warm_from_trace(
        warmup_slice,
        oracle.long_latency[:warmup] if oracle is not None else None)
    pipeline = Pipeline(trace[warmup:], params=core, ltp=ltp,
                        policy=built, hierarchy=hierarchy,
                        branch_predictor=bpred)
    return pipeline.run().equivalence_signature()


@pytest.mark.parametrize("workload", GRID_WORKLOADS)
@pytest.mark.parametrize("label,ltp", GRID_LTP, ids=[g[0] for g in GRID_LTP])
def test_ltp_policy_bit_identical_to_legacy_wiring(workload, label, ltp):
    legacy = _legacy_stats(workload, ltp_params(), ltp, 500, 400)
    seam = _policy_stats("ltp", workload, ltp_params(), ltp, 500, 400)
    mismatches = {key: (legacy[key], seam[key])
                  for key in legacy if legacy[key] != seam[key]}
    assert not mismatches, (workload, label, mismatches)


def test_baseline_stall_bit_identical_to_disabled_ltp():
    for workload in GRID_WORKLOADS:
        legacy = _legacy_stats(workload, baseline_params(), no_ltp(),
                               500, 400)
        seam = _policy_stats("baseline-stall", workload, baseline_params(),
                             no_ltp(), 500, 400)
        assert legacy == seam, workload


# ================================================================
# 3. every registered policy is sound
# ================================================================
def _policy_pipeline(policy_name, trace, core, ltp, allow_skip=True):
    oracle = None
    if policy_needs_oracle(policy_name, ltp):
        oracle = annotate_trace(trace, core.mem,
                                window=min(core.rob_size or 256, 256))
    policy = build_policy(policy_name, ltp, core.mem.dram_latency,
                          oracle=oracle)
    return Pipeline(trace, params=core, ltp=ltp, policy=policy,
                    allow_skip=allow_skip)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=12, deadline=None)
def test_every_policy_completes_and_conserves(seed):
    """Random program x random core x every registered policy:
    deadlock-free completion with the SimStats conservation
    invariants intact."""
    rng = random.Random(seed)
    asm = random_program(rng, n_body=rng.randrange(3, 8))
    trace = list(Executor(assemble(asm)).run(400))
    core = random_core(rng)
    ltp = proposed_ltp().but(entries=rng.choice([8, 32, 128]),
                             ports=rng.choice([1, 2, 4]))
    for name in policy_names():
        stats = _policy_pipeline(name, trace, core, ltp).run()
        assert stats.committed == len(trace), name
        assert stats.renamed == len(trace), name
        assert stats.ltp_parked == stats.ltp_released, name
        assert stats.occupancies["rob"].peak <= (core.rob_size or 1 << 30)
        assert stats.occupancies["iq"].peak <= (core.iq_size or 1 << 30)
        assert stats.occupancies["lq"].peak <= (core.lq_size or 1 << 30)
        assert stats.occupancies["sq"].peak <= (core.sq_size or 1 << 30)
        assert stats.occupancies["ltp"].peak <= (ltp.entries or 1 << 30)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=6, deadline=None)
def test_every_policy_skip_equivalent(seed):
    """Idle-span jumping must never change any policy's results (the
    policy event hints keep time-based wakeups exact)."""
    rng = random.Random(seed)
    asm = random_program(rng, n_body=rng.randrange(3, 8))
    trace = list(Executor(assemble(asm)).run(300))
    core = random_core(rng)
    ltp = proposed_ltp()
    for name in policy_names():
        fast = _policy_pipeline(name, trace, core, ltp,
                                allow_skip=True).run()
        slow = _policy_pipeline(name, trace, core, ltp,
                                allow_skip=False).run()
        fast_sig = fast.equivalence_signature()
        slow_sig = slow.equivalence_signature()
        mismatches = {key: (fast_sig[key], slow_sig[key])
                      for key in fast_sig if fast_sig[key] != slow_sig[key]}
        assert not mismatches, (name, mismatches)


# ================================================================
# 4. the cycle loop == the golden corpus, full stats
# ================================================================
@pytest.fixture(scope="module")
def grid_corpus():
    return golden_corpus.index(golden_corpus.load_corpus(), "workloads")


@pytest.mark.parametrize("workload", GRID_WORKLOADS)
@pytest.mark.parametrize("label,ltp", GRID_LTP, ids=[g[0] for g in GRID_LTP])
def test_kernel_engine_bit_identical_to_reference(grid_corpus, workload,
                                                  label, ltp):
    """Every statistic the corpus recorded, the loop reproduces."""
    session = default_session()
    for policy_name in golden_corpus.ENGINE_GRID_POLICIES:
        entry = grid_corpus[(workload, label, policy_name)]
        for allow_skip in (True, False):
            golden_corpus.assert_matches(
                entry, golden_corpus.run_workload(
                    session, workload, ltp, policy_name, allow_skip),
                allow_skip)


def test_policies_skip_equivalent_on_real_workloads():
    ltp = proposed_ltp()
    for name in policy_names():
        for workload in ("lattice_milc", "sparse_gather"):
            core = ltp_params()
            full = default_session().get_trace(workload, 900)
            oracle = None
            if policy_needs_oracle(name, ltp):
                # annotate the FULL trace (producer seqs are absolute)
                oracle = annotate_trace(full, core.mem,
                                        window=min(core.rob_size or 256,
                                                   256))
            signatures = []
            for allow_skip in (True, False):
                policy = build_policy(name, ltp, core.mem.dram_latency,
                                      oracle=oracle)
                pipeline = Pipeline(full[300:], params=core, ltp=ltp,
                                    policy=policy, allow_skip=allow_skip)
                signatures.append(pipeline.run().equivalence_signature())
            assert signatures[0] == signatures[1], (name, workload)
