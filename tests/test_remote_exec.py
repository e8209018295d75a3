"""The remote execution subsystem: wire protocol, worker server,
remote executor fault tolerance, and the subprocess acceptance proof
(worker fleet + mid-sweep kill == serial, bit for bit)."""

import json
import os
import queue
import socket
import struct
import subprocess
import sys
import threading
import types
from pathlib import Path

import pytest

from repro.api import (RemoteExecutor, ResultStore, Session, SweepSpec,
                       WorkerFleetError, WorkerServer)
from repro.api.remote.protocol import (MAX_FRAME, ProtocolError,
                                       format_address, parse_address,
                                       recv_frame, send_frame)

REPO_ROOT = Path(__file__).resolve().parents[1]


def make_spec(points=2):
    return SweepSpec(workloads=["compute_int"], warmup=150, measure=100,
                     axes={"core.iq_size": [16, 32, 48, 64, 80, 96,
                                            112, 128][:points]})


def dead_address():
    """An address nothing listens on (bound, resolved, closed)."""
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    probe.bind(("127.0.0.1", 0))
    address = probe.getsockname()[:2]
    probe.close()
    return address


# ---------------------------------------------------------- protocol
def test_parse_and_format_address():
    assert parse_address("127.0.0.1:7777") == ("127.0.0.1", 7777)
    assert format_address(("localhost", 9)) == "localhost:9"
    for bad in ("no-port", ":7777", "host:", "host:notanint",
                "host:70000"):
        with pytest.raises(ValueError, match="bad address"):
            parse_address(bad)


def test_frame_round_trip_over_socketpair():
    left, right = socket.socketpair()
    payload = {"op": "run", "config": {"workload": "x"}, "n": 3}
    send_frame(left, payload)
    send_frame(left, {"op": "ping"})
    assert recv_frame(right) == payload
    assert recv_frame(right) == {"op": "ping"}
    left.close()
    assert recv_frame(right) is None  # clean EOF between frames
    right.close()


def test_torn_frame_raises_protocol_error():
    left, right = socket.socketpair()
    left.sendall(struct.pack("!I", 100) + b'{"op": "tr')
    left.close()
    with pytest.raises(ProtocolError, match="mid-frame"):
        recv_frame(right)
    right.close()


def test_oversized_and_malformed_frames_rejected():
    left, right = socket.socketpair()
    left.sendall(struct.pack("!I", MAX_FRAME + 1))
    with pytest.raises(ProtocolError, match="exceeds MAX_FRAME"):
        recv_frame(right)
    left2, right2 = socket.socketpair()
    left2.sendall(struct.pack("!I", 4) + b"nope")
    with pytest.raises(ProtocolError, match="not valid JSON"):
        recv_frame(right2)
    left3, right3 = socket.socketpair()
    left3.sendall(struct.pack("!I", 2) + b"[]")
    with pytest.raises(ProtocolError, match="must be an object"):
        recv_frame(right3)
    for sock in (left, right, left2, right2, left3, right3):
        sock.close()


# ------------------------------------------------------- worker server
@pytest.fixture
def worker(tmp_path):
    with WorkerServer(session=Session(cache_dir=str(tmp_path / "w")),
                      heartbeat_interval=0.1) as server:
        server.start()
        yield server


def connect_to(server):
    sock = socket.create_connection(server.address, timeout=10)
    sock.settimeout(10)
    return sock


def test_worker_ping_and_unknown_op(worker):
    sock = connect_to(worker)
    send_frame(sock, {"op": "ping"})
    assert recv_frame(sock) == {"op": "pong", "ok": True}
    send_frame(sock, {"op": "teleport"})
    reply = recv_frame(sock)
    assert reply["ok"] is False and "teleport" in reply["error"]
    sock.close()


def test_worker_runs_config_with_heartbeats(worker, tmp_path):
    config = make_spec(1).expand()[0]
    sock = connect_to(worker)
    send_frame(sock, {"op": "run", "id": config.key(),
                      "config": config.to_dict(), "use_cache": False})
    heartbeats = 0
    while True:
        frame = recv_frame(sock)
        if frame["op"] == "heartbeat":
            heartbeats += 1
            continue
        break
    assert frame["op"] == "done" and frame["ok"] is True
    assert frame["id"] == config.key()
    expected = Session(cache_dir=str(tmp_path / "serial")).run(
        config, use_cache=False)
    assert frame["stats"] == expected.stats
    sock.close()


def test_worker_reports_simulation_errors(worker):
    config = make_spec(1).expand()[0]
    payload = config.to_dict()
    payload["workload"] = "no_such_workload"
    sock = connect_to(worker)
    send_frame(sock, {"op": "run", "id": "x", "config": payload,
                      "use_cache": False})
    while True:
        frame = recv_frame(sock)
        if frame["op"] != "heartbeat":
            break
    assert frame["op"] == "done" and frame["ok"] is False
    assert "no_such_workload" in frame["error"]
    sock.close()


# ------------------------------------------------------ remote executor
def test_unreachable_worker_is_tolerated(worker, tmp_path):
    """A fleet with one dead member still lands every point."""
    spec = make_spec(3)
    executor = RemoteExecutor([dead_address(), worker.address],
                              connect_timeout=2.0)
    with Session(cache_dir=str(tmp_path / "s1")) as session:
        results = session.sweep(spec, use_cache=False, backend=executor)
    with Session(cache_dir=str(tmp_path / "s2")) as session:
        baseline = session.sweep(spec, use_cache=False)
    assert [r.stats for r in results] == [r.stats for r in baseline]


def test_all_workers_unreachable_raises_fleet_error(tmp_path):
    executor = RemoteExecutor([dead_address(), dead_address()],
                              connect_timeout=2.0)
    with Session(cache_dir=str(tmp_path)) as session:
        with pytest.raises(WorkerFleetError, match="none of the 2"):
            session.sweep(make_spec(2), use_cache=False,
                          backend=executor)


def test_executor_reconnects_across_batches(worker, tmp_path):
    """Fresh links per drive: one executor serves sequential sweeps."""
    executor = RemoteExecutor([worker.address])
    with Session(cache_dir=str(tmp_path / "s"),
                 backend=executor) as session:
        first = session.sweep(make_spec(2), use_cache=False)
        second = session.sweep(make_spec(2), use_cache=False)
    assert [r.stats for r in first] == [r.stats for r in second]


# --------------------------------------------- subprocess acceptance
def spawn_worker_process(cache_dir):
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src if not env.get("PYTHONPATH") \
        else os.pathsep.join([src, env["PYTHONPATH"]])
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "worker", "--listen",
         "127.0.0.1:0", "--cache-dir", str(cache_dir),
         "--heartbeat", "0.2"],
        stdout=subprocess.PIPE, text=True, env=env)
    line = (proc.stdout.readline() or "").strip()
    assert line.startswith("worker listening on "), line
    return proc, parse_address(line.rsplit(" ", 1)[-1])


def test_worker_processes_with_mid_sweep_kill_match_serial(tmp_path):
    """Two real worker processes; one dies mid-sweep; the store is
    bit-identical to a serial run (the acceptance criterion)."""
    spec = make_spec(8)
    procs = []
    try:
        for i in range(2):
            procs.append(spawn_worker_process(tmp_path / f"cache{i}"))
        executor = RemoteExecutor(
            [address for _, address in procs],
            max_retries=2, heartbeat_timeout=5.0)
        victim = procs[0][0]
        killed = threading.Event()

        def kill_on_first_finish(event):
            if event.kind == "finished" and not killed.is_set():
                killed.set()
                victim.kill()

        store = ResultStore(tmp_path / "remote.jsonl")
        with Session(cache_dir=str(tmp_path / "session")) as session:
            results = session.sweep(spec, use_cache=False,
                                    backend=executor, store=store,
                                    progress=kill_on_first_finish)
        store.close()
        assert killed.is_set()
    finally:
        for proc, _ in procs:
            if proc.poll() is None:
                proc.kill()
    with Session(cache_dir=str(tmp_path / "serial")) as session:
        baseline = session.sweep(spec, use_cache=False)
    assert [r.stats for r in results] == [r.stats for r in baseline]
    # the durable store agrees point for point (full stats equality)
    reloaded = ResultStore(tmp_path / "remote.jsonl")
    assert reloaded.sweep_id == spec.sweep_id()
    for expected in baseline:
        row = reloaded.get(expected.key)
        assert row is not None and row.stats == expected.stats


def test_worker_cli_rejects_bad_listen_address(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "worker", "--listen", "nope"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    assert "bad address" in proc.stdout


def test_store_written_by_remote_sweep_round_trips(worker, tmp_path):
    spec = make_spec(2)
    executor = RemoteExecutor([worker.address])
    store = ResultStore(tmp_path / "store.jsonl")
    with Session(cache_dir=str(tmp_path / "s")) as session:
        session.sweep(spec, use_cache=False, backend=executor,
                      store=store)
    store.close()
    rows = [json.loads(line)
            for line in open(tmp_path / "store.jsonl") if line.strip()]
    assert rows[0]["record"] == "header"
    assert all(row.get("backend") == "remote"
               for row in rows[1:])


def test_batch_outcome_landing_after_poll_timeout_is_not_dropped(
        worker, tmp_path, monkeypatch):
    """The simulation thread can post its last outcome and exit
    between the connection thread's poll timeout and its liveness
    check; that outcome must still be streamed, not reported as an
    unanswered point (with one worker, that fails the sweep)."""
    from repro.api.remote import worker as worker_module

    class LateQueue:
        """Times out once, after the simulation thread has exited."""

        def __init__(self):
            self._inner = queue.SimpleQueue()
            self._late = True

        def put(self, item):
            self._inner.put(item)

        def empty(self):
            return self._inner.empty()

        def get(self, timeout=None):
            if self._late:
                self._late = False
                for thread in threading.enumerate():
                    if thread.name == "repro-worker-sim":
                        thread.join()
                raise queue.Empty
            return self._inner.get(timeout=timeout)

    monkeypatch.setattr(worker_module, "queue_mod", types.SimpleNamespace(
        SimpleQueue=LateQueue, Empty=queue.Empty))
    spec = make_spec(2)
    with Session(cache_dir=str(tmp_path / "s")) as session:
        results = session.sweep(spec, use_cache=False,
                                backend=RemoteExecutor([worker.address]))
    assert [r.backend for r in results] == ["remote", "remote"]
    with Session(cache_dir=str(tmp_path / "serial")) as session:
        baseline = session.sweep(spec, use_cache=False)
    assert [r.stats for r in results] == [r.stats for r in baseline]
