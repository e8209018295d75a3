"""The futures-based execution layer: submission, lifecycle events,
retries, cancellation and whole sweeps over the worker pool."""

import multiprocessing
import os
from collections import Counter

import pytest

from repro.api import (ExecutionCancelled, PoolExecutor, ResultStore,
                       SerialExecutor, Session, SweepSpec, WorkerFailure,
                       as_executor)
from repro.api import exec as exec_mod
from repro.core.params import baseline_params
from repro.harness.config import SimConfig
from repro.ltp.config import no_ltp

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()


def make_configs(count=3):
    workloads = ["compute_int", "stream_triad", "lattice_milc",
                 "sparse_gather"]
    return [SimConfig(workload=workloads[i % len(workloads)],
                      core=baseline_params(), ltp=no_ltp(),
                      warmup=150, measure=100 + 10 * (i // len(workloads)))
            for i in range(count)]


def make_spec():
    return SweepSpec(workloads=["compute_int", "stream_triad"],
                     warmup=150, measure=120,
                     axes={"core.iq_size": [16, 32]})


# ---------------------------------------------------------- SimFuture
def test_future_carries_provenance_and_resolves(tmp_path):
    session = Session(cache_dir=str(tmp_path))
    executor = SerialExecutor().bind(session)
    config = make_configs(1)[0]
    future = executor.submit((0, config, False))
    assert future.key == config.key()
    assert future.index == 0
    assert not future.done()
    done_callbacks = []
    future.add_done_callback(done_callbacks.append)
    resolved = list(executor.as_completed())
    assert resolved == [future]
    assert future.done() and not future.cancelled()
    assert future.exception() is None
    assert future.result().stats["committed"] == 100
    assert done_callbacks == [future]
    # done futures invoke late callbacks immediately
    future.add_done_callback(done_callbacks.append)
    assert done_callbacks == [future, future]


def test_future_cancel_only_before_start(tmp_path):
    session = Session(cache_dir=str(tmp_path))
    executor = SerialExecutor().bind(session)
    futures = [executor.submit((i, c, False))
               for i, c in enumerate(make_configs(2))]
    assert futures[1].cancel()
    assert futures[1].cancel()  # idempotent
    resolved = list(executor.as_completed())
    assert [f.cancelled() for f in resolved] == [False, True]
    with pytest.raises(ExecutionCancelled):
        futures[1].result()
    assert isinstance(futures[1].exception(), ExecutionCancelled)
    assert not futures[0].cancel()  # already finished


# ------------------------------------------------- lifecycle events
def test_progress_events_exactly_once_serial(tmp_path):
    session = Session(cache_dir=str(tmp_path))
    events = []
    configs = make_configs(3)
    session.run_many(configs, use_cache=False, progress=events.append)
    per_key = {}
    for event in events:
        per_key.setdefault(event.key, Counter())[event.kind] += 1
    assert len(per_key) == 3
    for config in configs:
        counts = per_key[config.key()]
        assert counts == Counter(submitted=1, started=1, finished=1)
    # serial ordering is deterministic: submissions first, then each
    # item starts and finishes before the next starts
    kinds = [e.kind for e in events]
    assert kinds == (["submitted"] * 3
                     + ["started", "finished"] * 3)
    finished = [e for e in events if e.kind == "finished"]
    assert all(e.source == "simulated" for e in finished)
    assert all(e.attempt == 1 for e in finished)


def test_progress_events_exactly_once_pool(tmp_path):
    session = Session(cache_dir=str(tmp_path))
    events = []
    configs = make_configs(4)
    backend = PoolExecutor(jobs=2, batch_size=1)
    session.run_many(configs, use_cache=False, backend=backend,
                     progress=events.append)
    per_key = {}
    for event in events:
        per_key.setdefault(event.key, Counter())[event.kind] += 1
    assert len(per_key) == 4
    for counts in per_key.values():
        assert counts == Counter(submitted=1, started=1, finished=1)


def test_event_payloads_are_json_ready(tmp_path):
    session = Session(cache_dir=str(tmp_path))
    events = []
    session.run_many(make_configs(1), use_cache=False,
                     progress=events.append)
    payload = events[-1].to_dict()
    assert payload["kind"] == "finished"
    assert payload["workload"] == "compute_int"
    assert "error" not in payload  # None fields are omitted
    assert payload["source"] == "simulated"


# ------------------------------------------------------- cancellation
def test_cancel_mid_sweep_leaves_store_resumable(tmp_path):
    spec = make_spec()
    backend = SerialExecutor()
    finished = []

    def cancel_after_two(event):
        if event.kind == "finished":
            finished.append(event.key)
            if len(finished) == 2:
                backend.cancel_all()

    store_path = tmp_path / "sweep.jsonl"
    with Session(cache_dir=str(tmp_path / "c1")) as session, \
            ResultStore(store_path) as store:
        with pytest.raises(ExecutionCancelled) as excinfo:
            session.sweep(spec, backend=backend, store=store,
                          progress=cancel_after_two)
    assert len(excinfo.value.completed) == 2
    with ResultStore(store_path) as store:
        assert len(store) == 2  # completed points persisted

    # resume: stored points served, only the remainder simulates
    with Session(cache_dir=str(tmp_path / "c2")) as session, \
            ResultStore(store_path) as store:
        results = session.sweep(spec, store=store)
    sources = [r.source for r in results]
    assert sources.count("store") == 2
    assert sources.count("simulated") == 2

    # the resumed union is bit-identical to an uninterrupted serial run
    with Session(cache_dir=str(tmp_path / "c3")) as session:
        serial = session.sweep(spec, use_cache=False)
    assert [r.stats for r in results] == [r.stats for r in serial]


def test_cancelled_events_fire_exactly_once(tmp_path):
    session = Session(cache_dir=str(tmp_path))
    executor = SerialExecutor().bind(session)
    events = []
    executor.add_progress_callback(events.append)
    futures = [executor.submit((i, c, False))
               for i, c in enumerate(make_configs(3))]

    def cancel_rest(event):
        if event.kind == "finished":
            executor.cancel_all()

    executor.add_progress_callback(cancel_rest)
    resolved = list(executor.as_completed())
    assert len(resolved) == 3
    counts = Counter(e.kind for e in events)
    assert counts["cancelled"] == 2
    assert counts["finished"] == 1
    assert sum(1 for f in futures if f.cancelled()) == 2


@pytest.mark.skipif(not HAVE_FORK, reason="needs fork start method")
def test_pool_cancel_drains_in_flight(tmp_path):
    session = Session(cache_dir=str(tmp_path))
    backend = PoolExecutor(jobs=2, batch_size=1)
    events = []

    def cancel_after_first(event):
        events.append(event)
        if event.kind == "finished" and not backend._cancelling:
            backend.cancel_all()

    with pytest.raises(ExecutionCancelled) as excinfo:
        session.run_many(make_configs(6), use_cache=False,
                         backend=backend, progress=cancel_after_first)
    completed = excinfo.value.completed
    # everything that was in flight landed; everything never
    # dispatched was cancelled — together they cover the batch
    cancelled = sum(1 for e in events if e.kind == "cancelled")
    assert cancelled >= 1
    assert len(completed) + cancelled == 6
    counts = Counter(e.kind for e in events)
    assert counts["finished"] == len(completed)


# ------------------------------------------------------------ retries
def test_serial_retry_recovers_from_transient_failure(tmp_path):
    session = Session(cache_dir=str(tmp_path))
    real_run = session.run
    crashes = {"left": 1}

    def flaky_run(config, use_cache=True):
        if crashes["left"]:
            crashes["left"] -= 1
            raise RuntimeError("simulated worker crash")
        return real_run(config, use_cache=use_cache)

    session.run = flaky_run
    events = []
    results = session.run_many(make_configs(2), use_cache=False,
                               progress=events.append)
    assert len(results) == 2
    counts = Counter(e.kind for e in events)
    assert counts["retried"] == 1
    assert counts["finished"] == 2
    assert counts.get("failed", 0) == 0
    retried = next(e for e in events if e.kind == "retried")
    assert "simulated worker crash" in retried.error


def test_serial_retries_exhaust_and_surface_on_future(tmp_path):
    session = Session(cache_dir=str(tmp_path))

    def always_crash(config, use_cache=True):
        raise RuntimeError("persistent crash")

    session.run = always_crash
    executor = SerialExecutor(max_retries=2).bind(session)
    events = []
    executor.add_progress_callback(events.append)
    future = executor.submit((0, make_configs(1)[0], False))
    list(executor.as_completed())
    exc = future.exception()
    assert isinstance(exc, WorkerFailure)
    assert exc.attempts == 3  # 1 try + 2 retries
    assert "persistent crash" in str(exc)
    with pytest.raises(WorkerFailure):
        future.result()
    counts = Counter(e.kind for e in events)
    assert counts["retried"] == 2
    assert counts["failed"] == 1
    assert "finished" not in counts


def _crashing_chunk_worker(payloads):
    raise RuntimeError("worker process crashed")


def _crash_once_chunk_worker(payloads):
    marker = os.environ["REPRO_TEST_CRASH_MARKER"]
    if not os.path.exists(marker):
        with open(marker, "w") as handle:
            handle.write("crashed")
        raise RuntimeError("first-attempt crash")
    # _pool_worker directly: _chunk_worker is monkeypatched to *this*
    return [exec_mod._pool_worker(payload) for payload in payloads]


@pytest.mark.skipif(not HAVE_FORK, reason="needs fork start method")
def test_pool_worker_crash_retries_then_surfaces(tmp_path, monkeypatch):
    monkeypatch.setattr(exec_mod, "_chunk_worker",
                        _crashing_chunk_worker)
    session = Session(cache_dir=str(tmp_path))
    executor = PoolExecutor(jobs=2, max_retries=1).bind(session)
    events = []
    executor.add_progress_callback(events.append)
    futures = [executor.submit((i, c, False))
               for i, c in enumerate(make_configs(2))]
    list(executor.as_completed())
    for future in futures:
        exc = future.exception()
        assert isinstance(exc, WorkerFailure)
        assert "worker process crashed" in str(exc)
        assert exc.attempts == 2
    counts = Counter(e.kind for e in events)
    assert counts["retried"] == 2   # one retry per item
    assert counts["failed"] == 2
    assert "finished" not in counts


@pytest.mark.skipif(not HAVE_FORK, reason="needs fork start method")
def test_pool_worker_crash_recovers_on_retry(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TEST_CRASH_MARKER",
                       str(tmp_path / "crashed.marker"))
    monkeypatch.setattr(exec_mod, "_chunk_worker",
                        _crash_once_chunk_worker)
    session = Session(cache_dir=str(tmp_path / "cache"))
    backend = PoolExecutor(jobs=2, batch_size=2, max_retries=1)
    events = []
    results = session.run_many(make_configs(4), use_cache=False,
                               backend=backend, progress=events.append)
    assert len(results) == 4
    counts = Counter(e.kind for e in events)
    assert counts["finished"] == 4
    assert counts["retried"] >= 1
    assert counts.get("failed", 0) == 0


def test_run_many_raises_worker_failure(tmp_path):
    session = Session(cache_dir=str(tmp_path))

    def always_crash(config, use_cache=True):
        raise RuntimeError("boom")

    session.run = always_crash
    with pytest.raises(WorkerFailure, match="boom"):
        session.run_many(make_configs(1), use_cache=False,
                         backend=SerialExecutor(max_retries=0))


# ----------------------------------------------------- protocol checks
def test_as_executor_rejects_non_backends():
    with pytest.raises(TypeError, match="not an execution backend"):
        as_executor(object())
    executor = SerialExecutor()
    assert as_executor(executor) is executor


# --------------------------------------------------------- chunk sizes
def test_pool_chunksize_is_deterministic():
    """The pool's dispatch chunk is its batch cap: an explicit
    batch_size caps every dispatch; otherwise a chunk is a fair
    per-worker share of the queue, capped at the default."""
    backend = PoolExecutor(jobs=4, batch_size=3)
    assert backend._resolved_batch_size(100, 4) == 3
    auto = PoolExecutor(jobs=4)
    assert auto._resolved_batch_size(40, 4) == 10
    assert auto._resolved_batch_size(3, 4) == 1
    assert auto._resolved_batch_size(1000, 4) == \
        exec_mod.DEFAULT_BATCH_SIZE


def test_pool_chunked_results_match_serial(tmp_path):
    configs = make_configs(5)
    with Session(cache_dir=str(tmp_path / "serial")) as session:
        serial = session.run_many(configs, use_cache=False)
    with Session(cache_dir=str(tmp_path / "pool")) as session:
        chunked = session.run_many(
            configs, use_cache=False,
            backend=PoolExecutor(jobs=2, batch_size=2))
    assert [r.stats for r in chunked] == [r.stats for r in serial]


# ------------------------------------------------------ pooled sweeps
def test_pool_sweep_matches_serial_run(tmp_path):
    spec = make_spec()
    with Session(cache_dir=str(tmp_path / "serial")) as session:
        serial = session.sweep(spec, use_cache=False)

    store_path = tmp_path / "pooled.jsonl"
    events = []
    with Session(cache_dir=str(tmp_path / "pool")) as session, \
            ResultStore(store_path) as store:
        results = session.sweep(spec, backend=PoolExecutor(jobs=2),
                                store=store, progress=events.append)
    assert [r.stats for r in results] == [r.stats for r in serial]
    assert {r.backend for r in results} == {"process-pool"}
    # every point was submitted once and finished once
    kinds = Counter(e.kind for e in events)
    assert kinds["submitted"] == kinds["finished"] == len(serial)
    # the store holds the full sweep, bound to its id
    with ResultStore(store_path) as store:
        assert store.sweep_id == spec.sweep_id()
        assert len(store) == len(serial)
        stored = store.load()
        for result in serial:
            assert stored[result.key].stats == result.stats


def test_pool_sweep_resumes_from_store(tmp_path):
    spec = make_spec()
    store_path = tmp_path / "store.jsonl"
    with Session(cache_dir=str(tmp_path / "c1")) as session, \
            ResultStore(store_path) as store:
        session.sweep(spec, store=store)
    dispatched = []
    with Session(cache_dir=str(tmp_path / "c2")) as session, \
            ResultStore(store_path) as store:
        results = session.sweep(spec, backend=PoolExecutor(jobs=2),
                                store=store, progress=dispatched.append)
    assert all(r.source == "store" for r in results)
    assert dispatched == []  # nothing reached the pool


def test_pool_sweep_refuses_wrong_store(tmp_path):
    spec = make_spec()
    store_path = tmp_path / "other.jsonl"
    with ResultStore(store_path, sweep_id="deadbeef") as store:
        store.touch()
    with Session(cache_dir=str(tmp_path)) as session, \
            ResultStore(store_path) as store:
        with pytest.raises(ValueError, match="belongs to sweep"):
            session.sweep(spec, backend=PoolExecutor(jobs=2), store=store)


def test_session_sweep_runs_the_named_pool_executor(tmp_path):
    spec = make_spec()
    with Session(cache_dir=str(tmp_path)) as session:
        results = session.sweep(spec, backend="process-pool")
    assert len(results) == len(spec)
    assert isinstance(results[0].stats["cycles"], int)


def test_unbound_executor_raises():
    executor = SerialExecutor()
    executor.submit((0, make_configs(1)[0], False))
    with pytest.raises(RuntimeError, match="not bound"):
        list(executor.as_completed())


def test_failed_submission_does_not_leak_queued_futures(tmp_path):
    """A bad config must not leave earlier items queued on the shared
    backend for an unrelated later batch to execute."""
    session = Session(cache_dir=str(tmp_path))
    good = make_configs(1)[0]
    bad = SimConfig(workload="compute_int", core=baseline_params(),
                    ltp=no_ltp(), warmup=-5, measure=100)
    with pytest.raises(ValueError):
        session.run_many([good, bad], use_cache=False)
    assert not session.backend._queue  # nothing left behind
    events = []
    other = make_configs(2)[1]
    results = session.run_many([other], use_cache=False,
                               progress=events.append)
    assert [r.config.workload for r in results] == [other.workload]
    assert {e.key for e in events} == {other.key()}
