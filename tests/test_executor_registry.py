"""The executor registry: names, option validation, CLI flag mapping,
spec integration and string-backend resolution."""

import pytest

from repro.api import (MockExecutor, RemoteExecutor, Session, SweepSpec,
                       build_executor, executor_descriptions,
                       executor_names)
from repro.api.exec import PoolExecutor, SerialExecutor
from repro.api.executors import (check_executor_name,
                                 executor_from_options, executor_info,
                                 register_executor)


def test_builtin_executors_are_registered():
    assert executor_names() == ["mock", "process-pool", "remote",
                                "serial"]
    descriptions = executor_descriptions()
    for name in executor_names():
        assert descriptions[name]  # every builtin documents itself


def test_unknown_name_lists_known_ones():
    with pytest.raises(KeyError, match="unknown executor 'warp'"):
        executor_info("warp")
    with pytest.raises(KeyError, match="serial"):
        executor_info("warp")
    with pytest.raises(ValueError, match="must be a string"):
        check_executor_name(42)


def test_duplicate_registration_rejected():
    with pytest.raises(ValueError, match="already registered"):
        register_executor("serial")(SerialExecutor)


def test_build_executor_constructs_and_checks_options():
    assert isinstance(build_executor("serial"), SerialExecutor)
    pool = build_executor("process-pool", jobs=3)
    assert isinstance(pool, PoolExecutor) and pool.jobs == 3
    assert isinstance(build_executor("mock"), MockExecutor)
    with pytest.raises(ValueError, match="does not take workers"):
        build_executor("serial", workers=["x:1"])
    with pytest.raises(ValueError, match="accepted options"):
        build_executor("process-pool", script={})


def test_executor_from_options_maps_cli_flags():
    # serial IS one worker: --jobs 1 composes
    assert isinstance(executor_from_options("serial", jobs=1),
                      SerialExecutor)
    with pytest.raises(ValueError, match="does not take --jobs"):
        executor_from_options("serial", jobs=4)
    # 0 = one worker per CPU (the pool default)
    pool = executor_from_options("process-pool", jobs=0)
    assert pool.jobs is None
    with pytest.raises(ValueError, match="does not take --workers"):
        executor_from_options("process-pool", workers="a:1")
    with pytest.raises(ValueError, match="does not take --jobs"):
        executor_from_options("remote", jobs=2)
    remote = executor_from_options("remote", workers="127.0.0.1:7777",
                                   max_retries=3)
    assert isinstance(remote, RemoteExecutor)
    assert remote.addresses == [("127.0.0.1", 7777)]
    assert remote.max_retries == 3


def test_remote_requires_a_fleet():
    with pytest.raises(ValueError, match="at least one worker"):
        build_executor("remote")


def test_backend_aliases_are_registry_entries():
    # the local names are registered on the executor classes
    # themselves (no alias subclasses in between)
    assert executor_info("serial").factory is SerialExecutor
    assert executor_info("process-pool").factory is PoolExecutor
    assert type(build_executor("serial")) is SerialExecutor
    assert type(build_executor("process-pool")) is PoolExecutor


def test_session_resolves_string_backends(tmp_path):
    session = Session(cache_dir=str(tmp_path), backend="serial")
    assert isinstance(session.backend, SerialExecutor)
    spec = SweepSpec(workloads=["compute_int"], warmup=150, measure=100)
    results = session.sweep(spec, use_cache=False, backend="serial")
    assert len(results) == 1 and results[0].backend == "serial"


def test_spec_executor_field_round_trips_and_keeps_sweep_id():
    plain = SweepSpec(workloads=["compute_int"], warmup=150,
                      measure=100, axes={"core.iq_size": [16, 32]})
    tagged = SweepSpec(workloads=["compute_int"], warmup=150,
                       measure=100, axes={"core.iq_size": [16, 32]},
                       executor="remote")
    # execution choice never changes sweep identity (stores must be
    # shareable between serial, pooled and remote runs)
    assert plain.sweep_id() == tagged.sweep_id()
    assert "executor" not in plain.to_dict()
    assert tagged.to_dict()["executor"] == "remote"
    rebuilt = SweepSpec.from_dict(tagged.to_dict())
    assert rebuilt.executor == "remote"
    with pytest.raises(KeyError, match="unknown executor"):
        SweepSpec(workloads=["compute_int"],
                  executor="warp").validate()


def test_sweep_uses_spec_executor_preference(tmp_path):
    spec = SweepSpec(workloads=["compute_int"], warmup=150,
                     measure=100, executor="mock")
    with Session(cache_dir=str(tmp_path)) as session:
        results = session.sweep(spec, use_cache=False)
    assert [r.backend for r in results] == ["mock"]
    # an explicit backend still wins over the spec's preference
    with Session(cache_dir=str(tmp_path)) as session:
        results = session.sweep(spec, use_cache=False,
                                backend="serial")
    assert [r.backend for r in results] == ["serial"]
