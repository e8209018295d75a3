"""The cycle loop against the golden corpus, and its predecode plumbing.

The corpus (``tests/golden/engine_corpus.jsonl``, see
``golden_corpus.py``) freezes the full ``SimStats.as_dict()`` the
retired object-graph engine produced.  The loop must reproduce every
entry bit for bit, in idle-skip and in strict cycle-by-cycle mode:

* randomized programs/cores across **every registered policy**;
* randomized ``SimConfig``\\ s through the **session path** (trace-array
  cache, warmup windowing, oracle plumbing).

The real-workload grid is replayed in ``test_policies_differential.py``.
This module also covers the session's trace-arrays LRU and the retired
``engine`` keyword, which old callers and stored payloads still carry.
"""

import json
import tempfile

import pytest

from repro.api import Session, SweepSpec
from repro.api.result import SimResult
from repro.api.store import ResultStore
from repro.core.kernel import KernelPipeline, predecode
from repro.core.pipeline import Pipeline
from repro.harness.config import SimConfig
from repro.policies import policy_names

import golden_corpus


@pytest.fixture(scope="module")
def corpus():
    return golden_corpus.load_corpus()


# ================================================================
# randomized programs x every policy x strict/skip
# ================================================================
def test_kernel_matches_reference_for_every_policy(corpus):
    entries = golden_corpus.index(corpus, "programs")
    for seed in golden_corpus.PROGRAM_SEEDS:
        case = golden_corpus.program_case(seed)
        for name in policy_names():
            entry = entries[(seed, name)]
            for allow_skip in (True, False):
                golden_corpus.assert_matches(
                    entry, golden_corpus.run_program(case, name, allow_skip),
                    allow_skip)


# ================================================================
# randomized SimConfigs through the session path
# ================================================================
def test_kernel_engine_matches_object_engine_through_session(corpus):
    entries = golden_corpus.index(corpus, "session")
    with tempfile.TemporaryDirectory() as scratch, \
            Session(cache_dir=scratch) as session:
        for seed in golden_corpus.SESSION_SEEDS:
            entry = entries[(seed,)]
            config = golden_corpus.session_config(seed)
            assert config.to_dict() == entry["config"], seed
            for allow_skip in (True, False):
                golden_corpus.assert_matches(
                    entry,
                    golden_corpus.run_session(session, config, allow_skip),
                    allow_skip)


# ================================================================
# predecode
# ================================================================
def test_pipeline_rejects_mismatched_arrays():
    from repro.api import default_session

    trace = default_session().get_trace("stream_triad", 400)
    arrays = predecode(trace[:200])
    with pytest.raises(ValueError):
        Pipeline(trace, arrays=arrays)


# ================================================================
# the session trace-arrays cache
# ================================================================
def test_session_shares_one_predecode_across_configs(tmp_path):
    with Session(cache_dir=str(tmp_path)) as session:
        first = session.get_trace_arrays("lattice_milc", 600)
        again = session.get_trace_arrays("lattice_milc", 600)
        # same cached predecode object (full-length request)
        assert first is again
        # a shorter request windows the same cached arrays
        window = session.get_trace_arrays("lattice_milc", 300)
        assert window.n == 300
        assert window.dyns[0] is first.dyns[0]
        assert len(session._arrays_cache) == 1


def test_session_arrays_cache_evicts_with_trace_cache(tmp_path):
    with Session(cache_dir=str(tmp_path), trace_cache_size=2) as session:
        for name in ("lattice_milc", "ptrchase_astar", "stream_triad"):
            session.get_trace_arrays(name, 300)
        assert len(session._arrays_cache) <= 2
        assert "lattice_milc" not in session._arrays_cache
        assert "stream_triad" in session._arrays_cache
        session.clear_memory_caches()
        assert not session._arrays_cache


def test_session_arrays_invalidate_when_trace_grows(tmp_path):
    with Session(cache_dir=str(tmp_path)) as session:
        short = session.get_trace_arrays("stream_triad", 200)
        assert short.n == 200
        longer = session.get_trace_arrays("stream_triad", 500)
        assert longer.n == 500
        # the regenerated (longer) trace must be re-predecoded
        assert longer.dyns[:200] == session.get_trace("stream_triad", 200)


# ================================================================
# the retired engine keyword
# ================================================================
def test_engine_field_keeps_default_payloads_and_keys_stable(tmp_path):
    # the retired engine keyword is inert: never stored or hashed
    base = SimConfig(workload="lattice_milc")
    assert KernelPipeline is Pipeline
    for name in ("object", "kernel"):
        config = SimConfig(workload="lattice_milc", engine=name)
        assert config.key() == base.key()
        assert "engine" not in config.to_dict()
    # payloads written while the selector existed still load
    payload = dict(base.to_dict(), engine="kernel")
    assert SimConfig.from_dict(payload).key() == base.key()
    # a store row written with an "engine": "kernel" config payload
    row = {"schema": 1, "key": "0" * 24, "source": "simulated",
           "cached": False, "backend": "serial", "wall_time_s": 0.5,
           "config": payload, "stats": {"cycles": 10, "cpi": 1.0,
                                        "ipc": 1.0}}
    path = tmp_path / "old.jsonl"
    path.write_text(json.dumps(row) + "\n")
    with ResultStore(path) as store:
        assert store.skipped_rows == 0
        loaded = store.get("0" * 24)
    assert isinstance(loaded, SimResult)
    assert loaded.config.key() == base.key()


def test_sweep_spec_engine_axis_and_id_stability():
    # specs written while the selector existed still load, same id
    spec = SweepSpec(workloads=["stream_triad"])
    assert "engine" not in spec.to_dict()
    old_spec = SweepSpec.from_dict(dict(spec.to_dict(), engine="kernel"))
    assert old_spec.sweep_id() == spec.sweep_id()
    # the sweep axis is gone, loudly
    with pytest.raises(ValueError, match="removed"):
        SweepSpec(workloads=["stream_triad"],
                  axes={"engine": ["object", "kernel"]}).expand()


def test_unknown_engine_rejected():
    with pytest.raises(ValueError):
        SimConfig(workload="lattice_milc", engine="vector").validate()
    payload = dict(SimConfig(workload="lattice_milc").to_dict(),
                   engine="vector")
    with pytest.raises(ValueError):
        SimConfig.from_dict(payload)
    with pytest.raises(ValueError):
        SweepSpec.from_dict({"workloads": ["stream_triad"],
                             "engine": "vector"})
