"""Shared conformance suite over every registered executor.

Each test is parametrized over the executor registry
(:mod:`repro.api.executors`) and drives the same contract through
every implementation — serial, process-pool, remote (two in-process
TCP workers) and mock:

* lifecycle events are exactly-once per submitted configuration,
* retry exhaustion surfaces :class:`~repro.api.exec.WorkerFailure`
  with the attempt count,
* cancellation drains in-flight work (every future resolves, one
  terminal event each),
* a bound :class:`~repro.api.store.ResultStore` receives every landed
  point,
* real executors produce statistics bit-identical to a serial run,
* the batched contract: trace-identical points grouped into one
  :class:`~repro.api.exec.BatchWorkItem` keep exactly-once events, a
  mid-batch failure retries only the failing points with per-point
  attempt counts, and cancellation mid-batch still resolves every
  future with one terminal event.

A guard test asserts the harness table covers the full registry, so
registering a new executor without conformance coverage fails CI.
"""

import contextlib
import multiprocessing
from collections import Counter

import pytest

from repro.api import (ResultStore, Session, SweepSpec, WorkerFailure,
                       WorkerServer, build_executor, executor_names)
from repro.core.params import CoreParams, baseline_params
from repro.harness.config import SimConfig
from repro.ltp.config import no_ltp
from repro.workloads import mixes

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(not HAVE_FORK,
                                reason="needs fork start method")

#: the workload name conformance tests inject to force failures
BOOM = "conformance_boom"


class _BoomWorkload:
    """A workload whose trace generation always raises."""

    def trace(self, length):
        raise RuntimeError("conformance boom")


@pytest.fixture
def boom_workload(monkeypatch):
    monkeypatch.setitem(mixes._FACTORIES, BOOM, _BoomWorkload)


def make_configs(count=3, workloads=None):
    workloads = workloads or ["compute_int", "stream_triad",
                              "lattice_milc", "sparse_gather"]
    return [SimConfig(workload=workloads[i % len(workloads)],
                      core=baseline_params(), ltp=no_ltp(),
                      warmup=150,
                      measure=100 + 10 * (i // len(workloads)))
            for i in range(count)]


# ----------------------------------------------------------------------
# the harness table: name -> builder(stack, tmp_path, max_retries,
# fail_indices) -> executor.  `fail_indices` tells script-driven
# executors (mock) which batch indexes must fail permanently; real
# executors fail through the injected BOOM workload instead.
# ----------------------------------------------------------------------
def _serial(stack, tmp_path, max_retries, fail_indices):
    return build_executor("serial", max_retries=max_retries)


def _pool(stack, tmp_path, max_retries, fail_indices):
    return build_executor("process-pool", jobs=2, batch_size=1,
                          max_retries=max_retries)


def _remote(stack, tmp_path, max_retries, fail_indices):
    servers = []
    for i in range(2):
        worker_session = Session(cache_dir=str(tmp_path / f"worker{i}"))
        server = stack.enter_context(
            WorkerServer(session=worker_session,
                         heartbeat_interval=0.2))
        server.start()
        servers.append(server)
    return build_executor("remote",
                          workers=[s.address for s in servers],
                          max_retries=max_retries)


def _mock(stack, tmp_path, max_retries, fail_indices):
    script = {index: "fail" for index in fail_indices}
    return build_executor("mock", script=script or None,
                          max_retries=max_retries)


HARNESSES = {
    "serial": _serial,
    "process-pool": _pool,
    "remote": _remote,
    "mock": _mock,
}
#: executors that really simulate (stats comparable to serial)
REAL = ("serial", "process-pool", "remote")

EXECUTORS = [
    pytest.param(name, marks=needs_fork)
    if name == "process-pool" else name
    for name in sorted(HARNESSES)
]


def test_every_registered_executor_has_conformance_coverage():
    assert set(executor_names()) == set(HARNESSES)


class _Recorder:
    def __init__(self):
        self.events = []

    def __call__(self, event):
        self.events.append(event)

    def per_key(self):
        table = {}
        for event in self.events:
            table.setdefault(event.key, Counter())[event.kind] += 1
        return table


# ----------------------------------------------------------------------
# the contract
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", EXECUTORS)
def test_lifecycle_events_exactly_once(name, tmp_path):
    configs = make_configs(3)
    recorder = _Recorder()
    with contextlib.ExitStack() as stack:
        executor = HARNESSES[name](stack, tmp_path, 1, set())
        session = Session(cache_dir=str(tmp_path / "session"))
        results = session.run_many(configs, use_cache=False,
                                   backend=executor,
                                   progress=recorder)
    assert len(results) == 3
    per_key = recorder.per_key()
    assert len(per_key) == 3
    for config in configs:
        assert per_key[config.key()] == Counter(
            submitted=1, started=1, finished=1)


@pytest.mark.parametrize("name", EXECUTORS)
def test_retry_exhaustion_surfaces_worker_failure(name, tmp_path,
                                                  boom_workload):
    configs = make_configs(1) + [
        SimConfig(workload=BOOM, core=baseline_params(), ltp=no_ltp(),
                  warmup=150, measure=100)]
    recorder = _Recorder()
    with contextlib.ExitStack() as stack:
        executor = HARNESSES[name](stack, tmp_path, 1, {1})
        session = Session(cache_dir=str(tmp_path / "session"))
        with pytest.raises(WorkerFailure) as excinfo:
            session.run_many(configs, use_cache=False,
                             backend=executor, progress=recorder)
    # one initial attempt + max_retries re-dispatches, then surfaced
    assert excinfo.value.attempts == 2
    boom_key = configs[1].key()
    counts = recorder.per_key()[boom_key]
    assert counts["submitted"] == 1
    assert counts["retried"] == 1
    assert counts["failed"] == 1
    assert counts["finished"] == 0


@pytest.mark.parametrize("name", EXECUTORS)
def test_cancel_drains_in_flight_work(name, tmp_path):
    configs = make_configs(4)
    recorder = _Recorder()
    with contextlib.ExitStack() as stack:
        executor = HARNESSES[name](stack, tmp_path, 1, set())
        session = Session(cache_dir=str(tmp_path / "session"))
        executor.bind(session)
        executor.add_progress_callback(recorder)
        futures = [executor.submit((i, config, False))
                   for i, config in enumerate(configs)]
        assert futures[2].cancel()
        assert futures[3].cancel()
        resolved = list(executor.as_completed())
    assert len(resolved) == 4
    assert all(future.done() for future in futures)
    cancelled = sum(1 for f in futures if f.cancelled())
    completed = sum(1 for f in futures
                    if f.done() and not f.cancelled()
                    and f.exception() is None)
    assert cancelled == 2 and completed == 2
    # exactly one terminal event per key
    for future in futures:
        counts = recorder.per_key()[future.key]
        terminal = (counts["finished"] + counts["failed"]
                    + counts["cancelled"])
        assert terminal == 1


@pytest.mark.parametrize("name", EXECUTORS)
def test_bound_store_appends_points_as_they_land(name, tmp_path):
    configs = make_configs(3)
    with contextlib.ExitStack() as stack:
        executor = HARNESSES[name](stack, tmp_path, 1, set())
        session = Session(cache_dir=str(tmp_path / "session"))
        store = stack.enter_context(
            ResultStore(tmp_path / "store.jsonl"))
        results = session.run_many(configs, use_cache=False,
                                   backend=executor, store=store)
        assert set(store.keys()) == {c.key() for c in configs}
        for result in results:
            assert store.get(result.key).stats == result.stats


@pytest.mark.parametrize("name",
                         [n for n in EXECUTORS
                          if (n if isinstance(n, str)
                              else n.values[0]) in REAL])
def test_stats_bit_identical_to_serial(name, tmp_path):
    spec = SweepSpec(workloads=["compute_int", "stream_triad"],
                     warmup=150, measure=120,
                     axes={"core.iq_size": [16, 32]})
    with Session(cache_dir=str(tmp_path / "serial")) as session:
        baseline = session.sweep(spec, use_cache=False)
    with contextlib.ExitStack() as stack:
        executor = HARNESSES[name](stack, tmp_path, 1, set())
        with Session(cache_dir=str(tmp_path / "session")) as session:
            results = session.sweep(spec, use_cache=False,
                                    backend=executor)
    assert [r.stats for r in results] == [r.stats for r in baseline]


# ----------------------------------------------------------------------
# the batched contract: grouped dispatch must be indistinguishable
# ----------------------------------------------------------------------
def make_batch_configs(count=4, workload="compute_int"):
    """*count* configs sharing one trace identity (hence one batch)."""
    return [SimConfig(workload=workload,
                      core=CoreParams(iq_size=16 * (i + 1)).validate(),
                      ltp=no_ltp(), warmup=150, measure=120)
            for i in range(count)]


def build_batched(name, stack, tmp_path, max_retries, fail_indices):
    """The harness executor with batching forced on (cap 4)."""
    executor = HARNESSES[name](stack, tmp_path, max_retries,
                               fail_indices)
    executor.batch_size = 4
    return executor


@pytest.mark.parametrize("name", EXECUTORS)
def test_batched_lifecycle_events_exactly_once(name, tmp_path):
    """One batch of four points: still one submitted/started/finished
    triplet per point, never a per-batch event."""
    configs = make_batch_configs(4)
    recorder = _Recorder()
    with contextlib.ExitStack() as stack:
        executor = build_batched(name, stack, tmp_path, 1, set())
        session = Session(cache_dir=str(tmp_path / "session"))
        results = session.run_many(configs, use_cache=False,
                                   backend=executor, progress=recorder)
    assert len(results) == 4
    per_key = recorder.per_key()
    assert len(per_key) == 4
    for config in configs:
        assert per_key[config.key()] == Counter(
            submitted=1, started=1, finished=1)


@pytest.mark.parametrize("name", EXECUTORS)
def test_mid_batch_failure_retries_only_failing_points(name, tmp_path,
                                                       boom_workload):
    """Two doomed points share a batch: each fails and retries
    individually (its own attempt count), and a clean batch alongside
    is untouched by their failure."""
    configs = make_batch_configs(2) + [
        SimConfig(workload=BOOM,
                  core=CoreParams(iq_size=16 * (i + 1)).validate(),
                  ltp=no_ltp(), warmup=150, measure=120)
        for i in range(2)]
    recorder = _Recorder()
    with contextlib.ExitStack() as stack:
        executor = build_batched(name, stack, tmp_path, 1, {2, 3})
        session = Session(cache_dir=str(tmp_path / "session"))
        with pytest.raises(WorkerFailure) as excinfo:
            session.run_many(configs, use_cache=False,
                             backend=executor, progress=recorder)
    assert excinfo.value.attempts == 2
    per_key = recorder.per_key()
    for config in configs[:2]:
        counts = per_key[config.key()]
        assert counts["finished"] == 1
        assert counts["retried"] == 0 and counts["failed"] == 0
    for config in configs[2:]:
        counts = per_key[config.key()]
        assert counts["submitted"] == 1
        assert counts["retried"] == 1
        assert counts["failed"] == 1
        assert counts["finished"] == 0


@pytest.mark.parametrize("name", EXECUTORS)
def test_cancel_mid_batch_resolves_every_future(name, tmp_path):
    """cancel_all fired from inside a batch still resolves every
    future, one terminal event each (in-flight work drains, the
    batch's not-yet-started remainder cancels)."""
    configs = make_batch_configs(4)
    recorder = _Recorder()
    with contextlib.ExitStack() as stack:
        executor = build_batched(name, stack, tmp_path, 1, set())
        session = Session(cache_dir=str(tmp_path / "session"))
        executor.bind(session)
        executor.add_progress_callback(recorder)

        def cancel_after_first(event):
            if event.kind == "finished":
                executor.cancel_all()

        executor.add_progress_callback(cancel_after_first)
        futures = [executor.submit((i, config, False))
                   for i, config in enumerate(configs)]
        resolved = list(executor.as_completed())
    assert len(resolved) == 4
    assert all(future.done() for future in futures)
    for future in futures:
        counts = recorder.per_key()[future.key]
        terminal = (counts["finished"] + counts["failed"]
                    + counts["cancelled"])
        assert terminal == 1
