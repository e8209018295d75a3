"""Tests for the repro.api session layer: cache ownership, provenance,
lifetime control, and the process-global default session."""

import pytest

from repro.api import Session, SimResult, default_session, set_default_session
from repro.api import session as session_mod
from repro.core.params import baseline_params
from repro.harness.config import SimConfig
from repro.ltp.config import no_ltp


def quick_config(workload="compute_int", warmup=200, measure=150):
    return SimConfig(workload=workload, core=baseline_params(),
                     ltp=no_ltp(), warmup=warmup, measure=measure)


# ------------------------------------------------------------- basics
def test_run_returns_typed_result(tmp_path):
    session = Session(cache_dir=str(tmp_path))
    result = session.run(quick_config(), use_cache=False)
    assert isinstance(result, SimResult)
    assert result.source == "simulated"
    assert not result.cached
    assert result.wall_time_s > 0
    assert result["committed"] == 150
    assert result.cpi == result.stats["cpi"]
    assert result.key == quick_config().key()


def test_cache_provenance_memory_then_disk(tmp_path):
    session = Session(cache_dir=str(tmp_path))
    first = session.run(quick_config())
    assert first.source == "simulated"
    second = session.run(quick_config())
    assert second.source == "memory" and second.cached
    assert second.wall_time_s == 0.0
    # a fresh session over the same directory serves from disk
    other = Session(cache_dir=str(tmp_path))
    third = other.run(quick_config())
    assert third.source == "disk"
    assert third.stats == first.stats


def test_no_cache_writes_nothing(tmp_path):
    session = Session(cache_dir=str(tmp_path))
    session.run(quick_config(), use_cache=False)
    assert not list(tmp_path.glob("*.json"))


def test_cache_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
    session = Session()
    assert session.cache_dir == tmp_path / "envcache"
    session.run(quick_config())
    assert list((tmp_path / "envcache").glob("*.json"))


def test_sessions_are_isolated(tmp_path):
    a = Session(cache_dir=str(tmp_path / "a"))
    b = Session(cache_dir=str(tmp_path / "b"))
    a.run(quick_config())
    assert a._trace_cache and not b._trace_cache
    assert b.results.lookup(quick_config().key()) is None


def test_context_manager_drops_memory_state(tmp_path):
    config = quick_config()
    with Session(cache_dir=str(tmp_path)) as session:
        session.run(config)
        assert session._trace_cache
    assert not session._trace_cache
    assert not session.results._memory
    # the disk cache persists across the session lifetime
    assert Session(cache_dir=str(tmp_path)).run(config).source == "disk"


def test_clear_memory_caches_keeps_disk_results(tmp_path):
    session = Session(cache_dir=str(tmp_path))
    config = quick_config()
    session.run(config)
    session.clear_memory_caches()
    assert not session._trace_cache
    assert not session.results._memory
    # the disk result cache survives and serves the point again
    assert session.run(config).source == "disk"


def test_cache_size_caps_validated():
    with pytest.raises(ValueError):
        Session(trace_cache_size=0)


def test_trace_cache_cap_is_per_session(tmp_path):
    session = Session(cache_dir=str(tmp_path), trace_cache_size=2)
    for name in ("compute_int", "stream_triad", "lattice_milc"):
        session.get_trace(name, 64)
    assert len(session._trace_cache) == 2


# ---------------------------------------------------------- run_many
def test_run_many_orders_and_dedups(tmp_path):
    session = Session(cache_dir=str(tmp_path))
    configs = [quick_config("compute_int"), quick_config("stream_triad"),
               quick_config("compute_int")]
    results = session.run_many(configs, use_cache=False)
    assert [r.config.workload for r in results] == \
        ["compute_int", "stream_triad", "compute_int"]
    # the duplicate IS the primary's outcome (one simulation ran)
    assert results[2] is results[0]
    assert results[2].stats is results[0].stats


def test_run_many_resolves_cached_in_process(tmp_path):
    session = Session(cache_dir=str(tmp_path))
    config = quick_config()
    session.run(config)
    results = session.run_many([config])
    assert results[0].source == "memory"
    assert results[0].backend == "cache"  # no backend executed it


# ------------------------------------------------------ default session
def test_default_session_run_matches_fresh_session(tmp_path):
    config = quick_config()
    default = default_session().run(config, use_cache=False)
    fresh = Session(cache_dir=str(tmp_path)).run(config, use_cache=False)
    assert default.stats == fresh.stats


def test_session_honours_monkeypatched_get_workload(tmp_path, monkeypatch):
    """A session resolves workloads through the session module's
    ``get_workload`` as bound at construction, so a stub patched in
    before the session is built reaches the whole execution path."""

    class StubWorkload:
        name = "stub"
        category = "mlp_insensitive"
        warm_regions = ()
        program = []

        def trace(self, length):
            from repro.workloads import get_workload
            return get_workload("compute_int").trace(length)

    calls = []

    def stub_factory(name):
        calls.append(name)
        return StubWorkload()

    monkeypatch.setattr(session_mod, "get_workload", stub_factory)
    session = Session(cache_dir=str(tmp_path))
    result = session.run(quick_config("not_a_real_workload"),
                         use_cache=False)
    assert calls and calls[0] == "not_a_real_workload"
    assert result["committed"] == 150


def test_default_session_override_redirects_experiments(tmp_path):
    """The paper experiments run their points on whatever session
    set_default_session installed (cache writes land in its dir)."""
    from repro.harness.experiments import _run
    replacement = Session(cache_dir=str(tmp_path / "override"))
    previous = set_default_session(replacement)
    try:
        config = quick_config()
        stats = _run(config.workload, config.core, config.ltp,
                     config.warmup, config.measure)
        assert replacement.results.lookup(config.key()) is not None
        assert (tmp_path / "override" / f"{config.key()}.json").is_file()
        assert stats["committed"] == 150
    finally:
        set_default_session(previous)


def test_default_session_tracks_override_cycle(tmp_path):
    """Swapping the default session twice and restoring it leaves
    default_session() on whichever session was installed last."""
    original = default_session()
    first = Session(cache_dir=str(tmp_path / "first"))
    second = Session(cache_dir=str(tmp_path / "second"))
    previous = set_default_session(first)
    try:
        assert previous is original
        assert set_default_session(second) is first
        config = quick_config()
        default_session().run(config)
        assert second.results.lookup(config.key()) is not None
        assert first.results.lookup(config.key()) is None
    finally:
        set_default_session(previous)
    assert default_session() is original
