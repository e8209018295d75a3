"""Trace-shared batched execution: batch formation on the queue, the
session :class:`BatchRunner`, batched-vs-unbatched bit identity across
serial/pool/remote drives, the ``run_batch`` wire dialect
(including a worker dying mid-batch), and the sweep inspector seeing
batched and unbatched runs identically."""

import contextlib
import multiprocessing
import socket
from collections import Counter

import pytest

from repro.api import (RemoteExecutor, ResultStore, Session,
                       SweepInspector, SweepSpec, WorkerServer,
                       build_executor)
from repro.api.exec import _batch_key
from repro.api.remote.protocol import recv_frame, send_frame
from repro.core.params import CoreParams
from repro.harness.config import SimConfig
from repro.ltp.config import no_ltp
from repro.workloads import mixes

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(not HAVE_FORK,
                                reason="needs fork start method")

FLAKY = "batched_flaky"


def config_for(workload="compute_int", iq=64, warmup=150, measure=120):
    return SimConfig(workload=workload,
                     core=CoreParams(iq_size=iq).validate(), ltp=no_ltp(),
                     warmup=warmup, measure=measure)


def one_identity_spec(points=4, workload="compute_int", warmup=150,
                      measure=120):
    """*points* configs sharing one trace identity (one batch)."""
    return SweepSpec(workloads=[workload], warmup=warmup, measure=measure,
                     axes={"core.iq_size": [16 * (i + 1)
                                            for i in range(points)]})


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
# batch formation on the submission queue
# ----------------------------------------------------------------------
def test_batch_key_separates_workload_length_and_cache():
    executor = build_executor("serial")
    base = executor.submit((0, config_for(), False))
    same = executor.submit((1, config_for(iq=32), False))
    other_workload = executor.submit((2, config_for("stream_triad"),
                                      False))
    other_length = executor.submit((3, config_for(measure=130), False))
    other_cache = executor.submit((4, config_for(), True))
    assert _batch_key(base) == _batch_key(same)
    for future in (other_workload, other_length, other_cache):
        assert _batch_key(future) != _batch_key(base)


def test_next_batch_groups_identity_and_preserves_queue_order():
    executor = build_executor("serial")
    a1 = executor.submit((0, config_for(), False))
    b1 = executor.submit((1, config_for("stream_triad"), False))
    a2 = executor.submit((2, config_for(iq=32), False))
    b2 = executor.submit((3, config_for("stream_triad", iq=32), False))
    first = executor._next_batch(None)
    second = executor._next_batch(None)
    assert first.futures == [a1, a2]
    assert first.workload == "compute_int" and first.length == 270
    assert second.futures == [b1, b2]
    assert executor._next_batch(None) is None


def test_next_batch_respects_limit_and_cancelled_head_travels_alone():
    executor = build_executor("serial")
    futures = [executor.submit((i, config_for(iq=16 * (i + 1)), False))
               for i in range(5)]
    assert futures[0].cancel()
    lone = executor._next_batch(4)
    assert lone.futures == [futures[0]] and lone.futures[0].cancelled()
    capped = executor._next_batch(3)
    assert capped.futures == futures[1:4]
    rest = executor._next_batch(3)
    assert rest.futures == futures[4:]


def test_next_batch_limit_one_disables_grouping():
    executor = build_executor("serial", batch_size=1)
    futures = [executor.submit((i, config_for(iq=16 * (i + 1)), False))
               for i in range(3)]
    for future in futures:
        batch = executor._next_batch(executor.batch_size)
        assert batch.futures == [future]


def test_batch_size_validation():
    with pytest.raises(ValueError, match="batch_size"):
        build_executor("serial", batch_size=0)


# ----------------------------------------------------------------------
# the session BatchRunner
# ----------------------------------------------------------------------
def test_batch_runner_matches_session_run_bit_identical(tmp_path):
    configs = [config_for(iq=iq) for iq in (16, 48, 96)]
    with Session(cache_dir=str(tmp_path / "single")) as session:
        singles = [session.run(c, use_cache=False) for c in configs]
    with Session(cache_dir=str(tmp_path / "batched")) as session:
        runner = session.batch_runner("compute_int", 270)
        batched = [runner.run(c, use_cache=False) for c in configs]
    assert [r.stats for r in batched] == [r.stats for r in singles]
    assert all(not r.cached for r in batched)


def test_batch_runner_rejects_foreign_configs(tmp_path):
    with Session(cache_dir=str(tmp_path)) as session:
        runner = session.batch_runner("compute_int", 270)
        with pytest.raises(ValueError, match="does not belong"):
            runner.run(config_for("stream_triad"))
        with pytest.raises(ValueError, match="does not belong"):
            runner.run(config_for(measure=121))
        with pytest.raises(ValueError, match="positive"):
            session.batch_runner("compute_int", 0)


def test_batch_runner_fills_and_serves_the_result_cache(tmp_path):
    config = config_for()
    with Session(cache_dir=str(tmp_path)) as session:
        runner = session.batch_runner("compute_int", 270)
        first = runner.run(config)
        assert not first.cached
        assert session.results.lookup(config.key()) is not None
        again = session.batch_runner("compute_int", 270).run(config)
        assert again.cached and again.stats == first.stats


def test_batch_runner_prep_failure_surfaces_then_retries(tmp_path,
                                                         monkeypatch):
    """A transient trace failure costs the calling point only; the
    next call re-attempts preparation instead of poisoning the
    runner."""
    state = {"tripped": False}
    inner_factory = mixes._FACTORIES["compute_int"]

    class _FlakyWorkload:
        def __init__(self):
            self._inner = inner_factory()

        def trace(self, length):
            if not state["tripped"]:
                state["tripped"] = True
                raise RuntimeError("flaky trace generation")
            return self._inner.trace(length)

        def __getattr__(self, name):
            return getattr(self._inner, name)

    monkeypatch.setitem(mixes._FACTORIES, FLAKY, _FlakyWorkload)
    config = config_for(FLAKY)
    with Session(cache_dir=str(tmp_path)) as session:
        runner = session.batch_runner(FLAKY, 270)
        with pytest.raises(RuntimeError, match="flaky"):
            runner.run(config, use_cache=False)
        result = runner.run(config, use_cache=False)
    assert result.stats["committed"] > 0


# ----------------------------------------------------------------------
# batched == unbatched, executor by executor
# ----------------------------------------------------------------------
def test_serial_batched_matches_unbatched_with_identical_events(tmp_path):
    spec = one_identity_spec(4)
    outcomes = {}
    for label, batch_size in (("batched", None), ("unbatched", 1)):
        recorder = _Recorder()
        executor = build_executor("serial", batch_size=batch_size)
        with Session(cache_dir=str(tmp_path / label)) as session:
            results = session.sweep(spec, use_cache=False,
                                    backend=executor, progress=recorder)
        outcomes[label] = (results, recorder)
    batched, b_rec = outcomes["batched"]
    unbatched, u_rec = outcomes["unbatched"]
    assert [r.stats for r in batched] == [r.stats for r in unbatched]
    assert [r.key for r in batched] == [r.key for r in unbatched]
    # the event stream is indistinguishable: same kinds, same keys,
    # same order, exactly once per point
    assert ([(e.kind, e.key) for e in b_rec.events]
            == [(e.kind, e.key) for e in u_rec.events])
    for counts in b_rec.per_key().values():
        assert counts == Counter(submitted=1, started=1, finished=1)


@needs_fork
def test_pool_batched_matches_serial_bit_identical(tmp_path):
    spec = one_identity_spec(4)
    with Session(cache_dir=str(tmp_path / "serial")) as session:
        baseline = session.sweep(spec, use_cache=False)
    executor = build_executor("process-pool", jobs=2, batch_size=2)
    with Session(cache_dir=str(tmp_path / "pool")) as session:
        results = session.sweep(spec, use_cache=False, backend=executor)
    assert [r.stats for r in results] == [r.stats for r in baseline]


@needs_fork
def test_pool_batched_sweep_matches_serial_and_resumes(tmp_path):
    """A batched pool sweep over two trace identities lands the serial
    statistics in its store, and an unbatched pool resume serves every
    point from that store without dispatching anything."""
    spec = SweepSpec(workloads=["compute_int", "stream_triad"],
                     warmup=150, measure=120,
                     axes={"core.iq_size": [16, 32, 48]})
    with Session(cache_dir=str(tmp_path / "serial")) as session:
        baseline = session.sweep(spec, use_cache=False)
    store_path = tmp_path / "pooled.jsonl"
    with Session(cache_dir=str(tmp_path / "pool")) as session, \
            ResultStore(store_path) as store:
        results = session.sweep(
            spec, use_cache=False, store=store,
            backend=build_executor("process-pool", jobs=2, batch_size=8))
    assert [r.stats for r in results] == [r.stats for r in baseline]
    recorder = _Recorder()
    with Session(cache_dir=str(tmp_path / "resume")) as session, \
            ResultStore(store_path) as store:
        resumed = session.sweep(
            spec, store=store, progress=recorder,
            backend=build_executor("process-pool", jobs=2, batch_size=1))
    assert [r.source for r in resumed] == ["store"] * len(spec)
    assert [r.stats for r in resumed] == [r.stats for r in baseline]
    assert recorder.events == []


# ----------------------------------------------------------------------
# the run_batch wire dialect
# ----------------------------------------------------------------------
class _CountingWorker(WorkerServer):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.batch_frames = 0
        self.batch_items = 0

    def _handle_run_batch(self, conn, frame):
        self.batch_frames += 1
        self.batch_items += len(frame.get("items") or [])
        super()._handle_run_batch(conn, frame)


class _MidBatchDyingWorker(WorkerServer):
    """Tears the connection down after streaming one ``point_done``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._sent = 0

    def _send_point_done(self, conn, payload):
        super()._send_point_done(conn, payload)
        self._sent += 1
        if self._sent == 1:
            conn.shutdown(socket.SHUT_RDWR)


def test_worker_run_batch_streams_point_done_frames(tmp_path):
    configs = one_identity_spec(2).expand()
    with WorkerServer(session=Session(cache_dir=str(tmp_path / "w")),
                      heartbeat_interval=0.1) as worker:
        worker.start()
        sock = socket.create_connection(worker.address, timeout=10)
        sock.settimeout(30)
        send_frame(sock, {"op": "run_batch", "id": "batch-0",
                          "items": [{"config": c.to_dict(),
                                     "use_cache": False}
                                    for c in configs]})
        points, done = {}, None
        while done is None:
            frame = recv_frame(sock)
            if frame["op"] == "heartbeat":
                continue
            if frame["op"] == "point_done":
                points[frame["index"]] = frame
                continue
            done = frame
        sock.close()
    assert sorted(points) == [0, 1]
    assert done["op"] == "done" and done["completed"] == 2
    with Session(cache_dir=str(tmp_path / "serial")) as session:
        for index, config in enumerate(configs):
            expected = session.run(config, use_cache=False)
            assert points[index]["ok"] is True
            assert points[index]["stats"] == expected.stats


def test_remote_executor_batches_and_matches_serial(tmp_path):
    spec = one_identity_spec(4)
    with Session(cache_dir=str(tmp_path / "serial")) as session:
        baseline = session.sweep(spec, use_cache=False)
    with _CountingWorker(session=Session(cache_dir=str(tmp_path / "w")),
                         heartbeat_interval=0.2) as worker:
        worker.start()
        executor = RemoteExecutor([worker.address], batch_size=4)
        with Session(cache_dir=str(tmp_path / "remote")) as session:
            results = session.sweep(spec, use_cache=False,
                                    backend=executor)
        assert worker.batch_frames == 1 and worker.batch_items == 4
    assert [r.stats for r in results] == [r.stats for r in baseline]


def test_remote_singleton_points_use_the_legacy_run_frame(tmp_path):
    """A batch of one must go out as a plain ``run`` request."""
    spec = SweepSpec(workloads=["compute_int", "stream_triad"],
                     warmup=150, measure=120)
    with _CountingWorker(session=Session(cache_dir=str(tmp_path / "w")),
                         heartbeat_interval=0.2) as worker:
        worker.start()
        executor = RemoteExecutor([worker.address], batch_size=4)
        with Session(cache_dir=str(tmp_path / "remote")) as session:
            results = session.sweep(spec, use_cache=False,
                                    backend=executor)
        assert worker.batch_frames == 0
    assert len(results) == 2


def test_remote_mid_batch_death_retries_only_unfinished_points(tmp_path):
    """A worker dying mid-batch loses only the unanswered points: the
    landed point keeps its single attempt, the rest re-dispatch (as a
    batch) on the survivor, and stats stay bit-identical to serial."""
    spec = one_identity_spec(8)
    with Session(cache_dir=str(tmp_path / "serial")) as session:
        baseline = session.sweep(spec, use_cache=False)
    recorder = _Recorder()
    with contextlib.ExitStack() as stack:
        dying = stack.enter_context(_MidBatchDyingWorker(
            session=Session(cache_dir=str(tmp_path / "w0")),
            heartbeat_interval=0.2))
        survivor = stack.enter_context(WorkerServer(
            session=Session(cache_dir=str(tmp_path / "w1")),
            heartbeat_interval=0.2))
        dying.start()
        survivor.start()
        executor = RemoteExecutor([dying.address, survivor.address],
                                  batch_size=4, max_retries=1)
        with Session(cache_dir=str(tmp_path / "remote")) as session:
            results = session.sweep(spec, use_cache=False,
                                    backend=executor, progress=recorder)
    assert [r.stats for r in results] == [r.stats for r in baseline]
    per_key = recorder.per_key()
    # every point landed exactly once; the dying worker's batch lost
    # exactly its three unanswered points, each retried exactly once
    assert all(counts["finished"] == 1 for counts in per_key.values())
    retried = [key for key, counts in per_key.items()
               if counts["retried"]]
    assert len(retried) == 3
    assert all(per_key[key]["retried"] == 1 for key in retried)


def test_worker_reuses_workload_objects_across_frames(tmp_path):
    """Sequential batches of one workload build its object once."""
    built = []
    inner_factory = mixes._FACTORIES["compute_int"]

    class _CountingWorkload:
        def __init__(self):
            built.append(1)
            self._inner = inner_factory()

        def trace(self, length):
            return self._inner.trace(length)

        def __getattr__(self, name):
            return getattr(self._inner, name)

    mixes._FACTORIES[FLAKY] = _CountingWorkload
    try:
        spec = SweepSpec(workloads=[FLAKY], warmup=150, measure=120,
                         axes={"core.iq_size": [16, 32]})
        with WorkerServer(session=Session(cache_dir=str(tmp_path / "w")),
                          heartbeat_interval=0.2) as worker:
            worker.start()
            executor = RemoteExecutor([worker.address], batch_size=1)
            with Session(cache_dir=str(tmp_path / "s")) as session:
                session.sweep(spec, use_cache=False, backend=executor)
            assert FLAKY in worker._workload_cache
    finally:
        mixes._FACTORIES.pop(FLAKY, None)
    # two singleton run frames, one workload build (the LRU hit)
    assert sum(built) == 1


# ----------------------------------------------------------------------
# the inspector sees batched and unbatched runs identically
# ----------------------------------------------------------------------
class _TamperingSession(Session):
    """Implants a consistent 4x-IPC outlier on one chosen point."""

    def __init__(self, tamper_key, **kwargs):
        super().__init__(**kwargs)
        self._tamper_key = tamper_key

    def _simulate(self, config, trace, workload, arrays=None):
        stats = super()._simulate(config, trace, workload, arrays=arrays)
        if config.key() == self._tamper_key:
            stats = dict(stats)
            stats["cycles"] = max(1, stats["cycles"] // 4)
            stats["ipc"] = stats["committed"] / stats["cycles"]
            stats["cpi"] = stats["cycles"] / stats["committed"]
        return stats


def _outlier_spec():
    """Seven near-identical points: ROB sizes that never bind, so the
    rolling baseline is tight and the implanted outlier unmistakable."""
    return SweepSpec(workloads=["compute_int"], warmup=150, measure=120,
                     axes={"core.rob_size": [192 + 16 * i
                                             for i in range(7)]})


def test_inspector_flags_identically_batched_and_unbatched(tmp_path):
    spec = _outlier_spec()
    tamper_key = spec.expand()[5].key()
    flagged = {}
    for label, batch_size in (("batched", None), ("unbatched", 1)):
        store = ResultStore(tmp_path / f"{label}.jsonl")
        inspector = SweepInspector(store=store)
        executor = build_executor("serial", batch_size=batch_size)
        with _TamperingSession(
                tamper_key,
                cache_dir=str(tmp_path / f"cache-{label}")) as session:
            with store:
                session.sweep(spec, use_cache=False, backend=executor,
                              store=store, inspect=inspector)
        flagged[label] = [(a.key, a.check) for a in inspector.anomalies]
        assert inspector.quarantined == [tamper_key]
        reopened = ResultStore(tmp_path / f"{label}.jsonl")
        assert list(reopened.quarantined_keys()) == [tamper_key]
    assert flagged["batched"] == flagged["unbatched"]


def test_quarantined_keys_resume_as_batchable_misses(tmp_path):
    """A clean batched resume re-simulates exactly the quarantined
    keys and lands bit-identical to an untampered run."""
    spec = _outlier_spec()
    tamper_key = spec.expand()[5].key()
    store = ResultStore(tmp_path / "store.jsonl")
    inspector = SweepInspector(store=store)
    with _TamperingSession(
            tamper_key, cache_dir=str(tmp_path / "tampered")) as session:
        with store:
            session.sweep(spec, use_cache=False,
                          backend=build_executor("serial"),
                          store=store, inspect=inspector)
    assert inspector.quarantined == [tamper_key]
    with Session(cache_dir=str(tmp_path / "clean")) as session:
        with store:
            results = session.sweep(spec, use_cache=False,
                                    backend=build_executor("serial"),
                                    store=store)
    resimulated = [r.key for r in results if not r.cached]
    assert resimulated == [tamper_key]
    with Session(cache_dir=str(tmp_path / "reference")) as session:
        reference = session.sweep(spec, use_cache=False)
    final = {key: row.stats
             for key, row in ResultStore(tmp_path / "store.jsonl")
             .load().items()}
    assert final == {r.key: r.stats for r in reference}
    assert not list(ResultStore(tmp_path / "store.jsonl")
                    .quarantined_keys())
