"""Tests for the parallel sweep executor and the bounded session caches."""

import json

import pytest

from repro.api import Session, backend_for_jobs, default_session
from repro.api import session as session_mod
from repro.api.session import TRACE_CACHE_MAX
from repro.core.params import baseline_params, ltp_params
from repro.harness.cachefile import ResultCache
from repro.harness.config import SimConfig
from repro.harness.experiments import (fig5_lifetimes, plan_configs,
                                       run_parallel)
from repro.ltp.config import limit_ltp, no_ltp


def _configs():
    return [
        SimConfig(workload="compute_int", core=baseline_params(),
                  ltp=no_ltp(), warmup=300, measure=200),
        SimConfig(workload="stream_triad", core=baseline_params(),
                  ltp=no_ltp(), warmup=300, measure=200),
        SimConfig(workload="lattice_milc", core=ltp_params(),
                  ltp=limit_ltp("nu"), warmup=300, measure=200),
        SimConfig(workload="compute_int", core=ltp_params(),
                  ltp=no_ltp(), warmup=300, measure=200),
    ]


@pytest.fixture
def fresh_cache(isolated_default_session):
    """The empty disk cache of the test's isolated default session."""
    return isolated_default_session.results


def run_stats(configs, jobs, use_cache=True):
    """Stats dicts of *configs* on the default session, executed by
    the executor a ``--jobs`` flag of *jobs* selects."""
    results = default_session().run_many(configs, use_cache=use_cache,
                                         backend=backend_for_jobs(jobs))
    return [result.stats for result in results]


def test_parallel_matches_serial(fresh_cache):
    configs = _configs()
    serial = run_stats(configs, jobs=1, use_cache=False)
    parallel = run_stats(configs, jobs=3, use_cache=False)
    assert serial == parallel


def test_parallel_ordering_deterministic(fresh_cache):
    configs = _configs()
    results = run_stats(configs, jobs=3)
    assert [r["workload"] for r in results] == \
        [c.workload for c in configs]
    # a second pass (fully cached) preserves the same rows in order
    again = run_stats(configs, jobs=3)
    assert again == results


def test_concurrent_writers_leave_cache_consistent(fresh_cache):
    """Many workers writing the same keys must not corrupt cache files."""
    configs = _configs() * 3  # duplicate keys -> concurrent same-key writes
    results = run_stats(configs, jobs=4)
    for index in range(len(_configs())):
        assert results[index] == results[index + 4] == results[index + 8]
    # every cache file on disk must be valid JSON matching the result
    files = list(fresh_cache.directory.glob("*.json"))
    assert files, "disk cache was not populated"
    for path in files:
        with open(path) as handle:
            payload = json.load(handle)
        assert "cycles" in payload
    # no temp files may linger
    assert not list(fresh_cache.directory.glob("*.tmp"))
    # and a fresh cache instance can serve every config from disk
    reread = ResultCache(str(fresh_cache.directory))
    for config in _configs():
        assert reread.get(config.key()) == \
            fresh_cache.get(config.key())


def test_run_parallel_equals_sequential_experiment(fresh_cache):
    sequential = fig5_lifetimes(warmup=300, measure=200)
    parallel = run_parallel(fig5_lifetimes, warmup=300, measure=200, jobs=2)
    assert sequential == parallel


def test_plan_configs_enumerates_without_simulating(fresh_cache):
    configs = plan_configs(fig5_lifetimes, warmup=300, measure=200)
    assert len(configs) == 2  # baseline + LTP point
    assert fresh_cache.hits == 0 and fresh_cache.misses == 0
    keys = [c.key() for c in configs]
    assert len(set(keys)) == len(keys)


def test_trace_cache_shares_prefixes_and_is_bounded(tmp_path):
    session = Session(cache_dir=str(tmp_path))
    trace_cache = session._trace_cache
    long_trace = session.get_trace("compute_int", 600)
    short_trace = session.get_trace("compute_int", 200)
    # the shorter request is served from the longer trace...
    assert short_trace == long_trace[:200]
    # ...and does NOT retain an extra cached copy per distinct length
    assert list(trace_cache) == ["compute_int"]
    assert len(trace_cache["compute_int"][1]) == 600
    # an exact-length request returns the shared list itself (no copy)
    assert session.get_trace("compute_int", 600) is long_trace
    # LRU eviction caps the number of retained workloads
    names = ["compute_int", "stream_triad", "lattice_milc", "ptrchase_astar",
             "sparse_gather", "compute_fp", "indirect_fig2"]
    for name in names:
        session.get_trace(name, 64)
    assert len(trace_cache) <= TRACE_CACHE_MAX


def test_trace_cache_does_not_regenerate_halting_workloads(tmp_path,
                                                           monkeypatch):
    """A trace shorter than its requested length is complete; further
    (even longer) requests must reuse it rather than re-run the
    executor (the workload halts early)."""
    calls = []

    class HaltingWorkload:
        def trace(self, length):
            calls.append(length)
            return list(range(min(length, 150)))  # halts at 150 insts

    monkeypatch.setattr(session_mod, "get_workload",
                        lambda name: HaltingWorkload())
    session = Session(cache_dir=str(tmp_path))
    full = session.get_trace("halting", 400)
    assert len(full) == 150 and calls == [400]
    # complete trace satisfies repeated and even longer requests without
    # re-running the executor
    assert session.get_trace("halting", 400) is full
    assert session.get_trace("halting", 500) is full
    assert calls == [400]
    # shorter requests still slice the shared prefix
    assert session.get_trace("halting", 100) == full[:100]
    assert calls == [400]
