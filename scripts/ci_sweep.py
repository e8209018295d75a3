#!/usr/bin/env python
"""CI checks for sharded, pooled, remote and resumable sweeps.

The sweeps themselves run through ``repro sweep``: each CI matrix job
runs one key-stable shard of the headline LTP sweep into its own
result store, a final job merges the shard stores and runs the whole
sweep once more over a local worker pool.  This driver holds the
checks that prove every form agrees bit for bit, plus the drives that
need a spawned fleet.  From the repo root::

    PYTHONPATH=src python -m repro sweep ltp-queues --shard 0/4 \\
        --store stores/shard0.jsonl          # ... one per shard
    PYTHONPATH=src python -m repro sweep --merge stores/*.jsonl \\
        --store merged.jsonl
    PYTHONPATH=src python -m repro sweep ltp-queues --jobs 4 \\
        --store pooled.jsonl
    python scripts/ci_sweep.py compare merged.jsonl pooled.jsonl
    python scripts/ci_sweep.py verify --store merged.jsonl
    python scripts/ci_sweep.py check-resume --store merged.jsonl
    python scripts/ci_sweep.py remote --workers 2 --kill-one \\
        --store remote.jsonl
    python scripts/ci_sweep.py daemon --workers 2 --store client.jsonl \\
        --daemon-store daemon.jsonl
    python scripts/ci_sweep.py inspect-check --report inspect.json

``compare`` asserts two stores are bit-for-bit interchangeable (same
sweep, same keys, identical statistics); ``verify`` checks a store
point by point against a fresh serial run in an isolated cache;
``check-resume`` asserts resuming from a complete store simulates
nothing.  ``remote`` spawns a real ``repro worker`` fleet as
subprocesses and runs the sweep through ``--executor remote``
(``--kill-one`` murders a worker after the first landed point,
proving retry-on-survivors; ``--batch-size`` caps the trace-shared
``run_batch`` frames); ``daemon`` spawns a fleet plus a ``repro
serve`` daemon and submits the sweep as a client.

``inspect-check`` is the anomaly-injection gate for the online sweep
QA (:mod:`repro.api.inspect`): it drives the sweep through a
tampering ``MockExecutor`` that injects a scripted retry, a
stat-conservation violation and a consistent IPC outlier, then
asserts the ``SweepInspector`` flags exactly the injected points, the
store carries their annotation rows, and a resumed sweep
re-simulates exactly the quarantined keys and lands bit-identical to
a clean run.

``--preset``/``--spec``, ``--warmup`` and ``--measure`` select the
sweep; every subcommand (and every ``repro sweep`` run it checks) must
be given the same values (the store binds the spec's ``sweep_id`` and
refuses a mismatch).  The driver is plain :mod:`repro.api` — anything
it does can be scripted directly.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
for entry in (str(REPO_ROOT), str(REPO_ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from repro.api import (MockExecutor, ResultStore, Session,  # noqa: E402
                       SweepInspector, SweepSpec)
from repro.harness.experiments import resolve_sweep_spec  # noqa: E402


def build_spec(args) -> SweepSpec:
    source = str(args.spec) if args.spec is not None else args.preset
    return resolve_sweep_spec(source, warmup=args.warmup,
                              measure=args.measure)


def add_spec_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--preset", default="ltp-queues",
                        help="registered sweep preset (default: "
                             "ltp-queues)")
    parser.add_argument("--spec", type=Path, default=None,
                        help="SweepSpec JSON file (overrides --preset)")
    parser.add_argument("--warmup", type=int, default=None,
                        help="warmup instruction budget per point")
    parser.add_argument("--measure", type=int, default=None,
                        help="measured instruction budget per point")


def cmd_compare(args) -> int:
    """Two stores must be bit-for-bit interchangeable."""
    left = ResultStore(args.left)
    right = ResultStore(args.right)
    failures = 0
    if left.sweep_id != right.sweep_id:
        print(f"SWEEP-ID mismatch: {left.sweep_id!r} vs "
              f"{right.sweep_id!r}")
        failures += 1
    left_rows, right_rows = left.load(), right.load()
    for key in sorted(set(left_rows) | set(right_rows)):
        a, b = left_rows.get(key), right_rows.get(key)
        if a is None or b is None:
            where = args.right if a is not None else args.left
            print(f"MISSING {key} in {where}")
            failures += 1
        elif a.stats != b.stats:
            print(f"MISMATCH {key} ({a.config.workload})")
            failures += 1
    if failures:
        print(f"compare FAILED: {failures} difference(s) between "
              f"{args.left} and {args.right}")
        return 1
    print(f"compare OK: {len(left_rows)} points bit-identical "
          f"across {args.left} and {args.right}")
    return 0


def cmd_verify(args) -> int:
    """Serial run vs. merged shards: bit-identical stats per point."""
    spec = build_spec(args)
    store = ResultStore(args.store)
    store.bind(spec.sweep_id())
    configs = spec.expand()
    failures = 0
    # an isolated cache directory so nothing can serve stale results
    with tempfile.TemporaryDirectory() as scratch, \
            Session(cache_dir=scratch) as session:
        for config in configs:
            key = config.key()
            stored = store.get(key)
            fresh = session.run(config, use_cache=False)
            if stored is None:
                print(f"MISSING {key} ({config.workload})")
                failures += 1
            elif stored.stats != fresh.stats:
                print(f"MISMATCH {key} ({config.workload})")
                failures += 1
    extra = set(store.keys()) - {c.key() for c in configs}
    for key in sorted(extra):
        print(f"EXTRA {key}")
        failures += 1
    if failures:
        print(f"verify FAILED: {failures} of {len(configs)} points "
              f"differ from a serial run")
        return 1
    print(f"verify OK: {len(configs)} points bit-identical to a "
          f"serial sweep")
    return 0


def _repro_env() -> dict:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not existing \
        else os.pathsep.join([src, existing])
    return env


def _spawn_service(argv_tail, banner):
    """Start ``python -m repro <argv_tail>``; parse its address line."""
    proc = subprocess.Popen([sys.executable, "-m", "repro", *argv_tail],
                            stdout=subprocess.PIPE, text=True,
                            env=_repro_env())
    line = (proc.stdout.readline() or "").strip()
    if not line.startswith(banner):
        proc.kill()
        raise RuntimeError(
            f"service printed {line!r}, expected {banner!r}")
    return proc, line.rsplit(" ", 1)[-1]


def _sweep_argv(args, extra):
    argv = ["sweep",
            str(args.spec) if args.spec is not None else args.preset]
    if args.warmup is not None:
        argv += ["--warmup", str(args.warmup)]
    if args.measure is not None:
        argv += ["--measure", str(args.measure)]
    return argv + extra


def _kill_one_mid_sweep(store_path: Path, victim,
                        timeout: float = 600.0) -> None:
    """Kill *victim* once the store holds its first landed point."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        lines = 0
        try:
            with open(store_path) as handle:
                lines = sum(1 for line in handle if line.strip())
        except OSError:
            pass
        if lines >= 2:  # the header row plus at least one result
            victim.kill()
            print("killed one worker mid-sweep "
                  f"({lines - 1} point(s) landed)")
            return
        time.sleep(0.2)
    raise RuntimeError("no point landed before the kill timeout")


def cmd_remote(args) -> int:
    """Run the sweep through a spawned ``repro worker`` fleet."""
    spec = build_spec(args)
    workers = []
    with tempfile.TemporaryDirectory() as scratch:
        try:
            for i in range(args.workers):
                proc, addr = _spawn_service(
                    ["worker", "--listen", "127.0.0.1:0",
                     "--cache-dir", str(Path(scratch) / f"cache{i}")],
                    "worker listening on ")
                workers.append((proc, addr))
            fleet = ",".join(addr for _, addr in workers)
            extra = ["--executor", "remote", "--workers", fleet,
                     "--max-retries", str(args.max_retries),
                     "--store", str(args.store), "--no-cache"]
            if args.batch_size is not None:
                extra += ["--batch-size", str(args.batch_size)]
            sweep = subprocess.Popen(
                [sys.executable, "-m", "repro",
                 *_sweep_argv(args, extra)],
                env=_repro_env())
            if args.kill_one:
                _kill_one_mid_sweep(args.store, workers[0][0])
            rc = sweep.wait()
        finally:
            for proc, _ in workers:
                if proc.poll() is None:
                    proc.kill()
    if rc != 0:
        print(f"remote sweep FAILED with exit code {rc}")
        return 1
    store = ResultStore(args.store)
    note = " (one worker killed mid-sweep)" if args.kill_one else ""
    print(f"remote sweep {spec.sweep_id()} over {args.workers} "
          f"worker(s){note}: {len(store)} points -> {args.store}")
    return 0


def cmd_daemon(args) -> int:
    """Submit the sweep to a spawned ``repro serve`` daemon."""
    spec = build_spec(args)
    services = []
    with tempfile.TemporaryDirectory() as scratch:
        store_dir = Path(scratch) / "stores"
        try:
            fleet = []
            for i in range(args.workers):
                proc, addr = _spawn_service(
                    ["worker", "--listen", "127.0.0.1:0",
                     "--cache-dir", str(Path(scratch) / f"cache{i}")],
                    "worker listening on ")
                services.append(proc)
                fleet.append(addr)
            serve, address = _spawn_service(
                ["serve", "--listen", "127.0.0.1:0",
                 "--workers", ",".join(fleet),
                 "--store-dir", str(store_dir)],
                "serve listening on ")
            services.append(serve)
            rc = subprocess.call(
                [sys.executable, "-m", "repro", *_sweep_argv(args, [
                    "--daemon", address, "--store", str(args.store),
                    "--no-cache"])],
                env=_repro_env())
        finally:
            for proc in services:
                if proc.poll() is None:
                    proc.kill()
        if rc != 0:
            print(f"daemon sweep FAILED with exit code {rc}")
            return 1
        if args.daemon_store is not None:
            daemon_stores = sorted(store_dir.glob("sweep-*.jsonl"))
            if len(daemon_stores) != 1:
                print(f"expected exactly one daemon-side store, found "
                      f"{[p.name for p in daemon_stores]}")
                return 1
            args.daemon_store.parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(daemon_stores[0], args.daemon_store)
    store = ResultStore(args.store)
    print(f"daemon sweep {spec.sweep_id()} via {address} over "
          f"{args.workers} worker(s): {len(store)} points -> "
          f"{args.store}")
    return 0


class _TamperingMock(MockExecutor):
    """A ``MockExecutor`` that corrupts chosen points' statistics.

    *tamper* maps a batch index to a function applied to the
    fabricated stats dict — the anomaly-injection vehicle for
    ``inspect-check``.
    """

    def __init__(self, tamper, **kwargs):
        super().__init__(**kwargs)
        self.tamper = dict(tamper)

    def _fabricate(self, future):
        stats = super()._fabricate(future)
        patch = self.tamper.get(future.index)
        return patch(stats) if patch else stats


def _break_conservation(stats):
    """Commit more instructions than the measure window allows."""
    stats["committed"] = stats["committed"] + 7
    return stats


def _implant_outlier(stats):
    """A *consistent* 2x-IPC point: no invariant trips, only the
    statistical baseline can catch it."""
    stats["cycles"] = max(1, stats["cycles"] // 2)
    stats["ipc"] = stats["committed"] / stats["cycles"]
    stats["cpi"] = stats["cycles"] / stats["committed"]
    return stats


def cmd_inspect_check(args) -> int:
    """Prove the inspector catches injected anomalies end to end.

    Three phases over the sweep through ``MockExecutor`` doubles:

    1. a clean run into a reference store;
    2. a tampered run (scripted retry, conservation violation,
       implanted IPC outlier) under a ``SweepInspector`` — exactly
       the two data anomalies must be flagged and quarantined, with
       annotation rows in the store;
    3. a resume with a clean executor — exactly the quarantined keys
       re-simulate, the quarantine lifts, and the store ends
       bit-identical to the clean reference.
    """
    spec = build_spec(args)
    configs = spec.expand()
    by_workload = {}
    for index, config in enumerate(configs):
        by_workload.setdefault(config.workload, []).append(index)
    workloads = list(by_workload)
    if len(workloads) < 2 or len(by_workload[workloads[1]]) < 6:
        print("inspect-check FAILED: the sweep needs >= 2 workloads "
              "with >= 6 points each to host the injections")
        return 1
    # the conservation break goes early in the first workload; the
    # outlier goes on the second workload's sixth point, so its
    # baseline holds baseline_min clean samples when the bad point
    # lands; the scripted fail->ok retry rides on a clean point
    invariant_index = by_workload[workloads[0]][1]
    outlier_index = by_workload[workloads[1]][5]
    retry_index = by_workload[workloads[0]][0]
    injected = {configs[invariant_index].key(): "invariant",
                configs[outlier_index].key(): "outlier"}

    failures = []

    def check(ok, message):
        print(("ok      " if ok else "FAILED  ") + message)
        if not ok:
            failures.append(message)

    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        # -- phase 1: clean reference ----------------------------------
        with Session(cache_dir=scratch / "cache") as session:
            with ResultStore(scratch / "reference.jsonl") as reference:
                session.sweep(spec, backend=MockExecutor(),
                              store=reference, use_cache=False)
            reference_rows = {k: r.stats
                              for k, r in reference.load().items()}

            # -- phase 2: tampered run under the inspector -------------
            store = ResultStore(args.store if args.store is not None
                                else scratch / "inspected.jsonl")
            tampered = _TamperingMock(
                {invariant_index: _break_conservation,
                 outlier_index: _implant_outlier},
                script={retry_index: ["fail", "ok"]})
            inspector = SweepInspector(store=store)
            with store:
                session.sweep(spec, backend=tampered, store=store,
                              inspect=inspector, use_cache=False)
            flagged = {a.key: a.check for a in inspector.anomalies}
            check(flagged == injected,
                  f"inspector flags exactly the injected anomalies "
                  f"({sorted(injected.values())})")
            check(sorted(inspector.quarantined) == sorted(injected),
                  "both injected keys are quarantined")
            check(inspector.summary()["retried"] == 1,
                  "the scripted fail->ok retry is counted once")
            reopened = ResultStore(store.path)
            annotated = {a.key: a.check
                         for a in reopened.annotations()}
            check(annotated == injected,
                  "the store carries both annotation rows after "
                  "reopen")
            check(sorted(reopened.quarantined_keys())
                  == sorted(injected),
                  "the reopened store quarantines exactly the "
                  "injected keys")

            # -- phase 3: resume re-runs exactly the quarantine --------
            clean = MockExecutor()
            resume_inspector = SweepInspector(store=store)
            with store:
                results = session.sweep(spec, backend=clean,
                                        store=store,
                                        inspect=resume_inspector,
                                        use_cache=False)
            resimulated = sorted(r.key for r in results if not r.cached)
            check(resimulated == sorted(injected),
                  f"resume re-simulates exactly the "
                  f"{len(injected)} quarantined point(s)")
            check(len(clean.dispatched) == len(injected),
                  "the resume dispatches nothing else")
            check(not resume_inspector.anomalies,
                  "the resumed run is anomaly-free")
            final = ResultStore(store.path)
            check(not list(final.quarantined_keys()),
                  "the fresh rows lift the quarantine")
            final_rows = {k: r.stats for k, r in final.load().items()}
            check(final_rows == reference_rows,
                  f"final store is bit-identical to the clean "
                  f"reference ({len(reference_rows)} points)")

    if args.report is not None:
        args.report.parent.mkdir(parents=True, exist_ok=True)
        report = {
            "sweep_id": spec.sweep_id(),
            "points": len(configs),
            "injected": injected,
            "flagged": [a.to_dict() for a in inspector.anomalies],
            "resimulated": resimulated,
            "failures": failures,
            "inspector": inspector.summary(),
        }
        args.report.write_text(json.dumps(report, indent=2,
                                          sort_keys=True) + "\n")
        print(f"report -> {args.report}")

    if failures:
        print(f"inspect-check FAILED: {len(failures)} of the "
              f"injected-anomaly assertions did not hold")
        return 1
    print(f"inspect-check OK: {len(injected)} injected anomalies "
          f"caught, quarantined, re-run and healed over "
          f"{len(configs)} points")
    return 0


def cmd_check_resume(args) -> int:
    """Resuming from a complete store must simulate zero points."""
    spec = build_spec(args)
    with Session() as session, ResultStore(args.store) as store:
        results = session.sweep(spec, store=store)
    simulated = [r for r in results if not r.cached]
    if simulated:
        print(f"resume FAILED: {len(simulated)} of {len(results)} "
              f"points re-simulated")
        return 1
    print(f"resume OK: {len(results)} points served from the store, "
          f"0 simulated")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Store checks and fleet drives for the sweep CI")
    sub = parser.add_subparsers(dest="command", required=True)

    compare_p = sub.add_parser(
        "compare",
        help="assert two stores are bit-for-bit interchangeable")
    compare_p.add_argument("left", type=Path)
    compare_p.add_argument("right", type=Path)
    compare_p.set_defaults(func=cmd_compare)

    verify_p = sub.add_parser(
        "verify", help="compare a store against an unsharded serial run")
    add_spec_options(verify_p)
    verify_p.add_argument("--store", type=Path, required=True)
    verify_p.set_defaults(func=cmd_verify)

    remote_p = sub.add_parser(
        "remote",
        help="run the sweep over a spawned TCP worker fleet")
    add_spec_options(remote_p)
    remote_p.add_argument("--workers", type=int, default=2,
                          help="worker processes to spawn (default 2)")
    remote_p.add_argument("--max-retries", type=int, default=2)
    remote_p.add_argument("--kill-one", action="store_true",
                          help="kill one worker after the first "
                               "landed point (retry-on-survivors)")
    remote_p.add_argument("--batch-size", type=int, default=None,
                          metavar="N",
                          help="cap on trace-identical points sent as "
                               "one run_batch frame (1 disables "
                               "batching)")
    remote_p.add_argument("--store", type=Path, required=True)
    remote_p.set_defaults(func=cmd_remote)

    daemon_p = sub.add_parser(
        "daemon",
        help="submit the sweep to a spawned serve daemon as a client")
    add_spec_options(daemon_p)
    daemon_p.add_argument("--workers", type=int, default=2,
                          help="worker processes to spawn (default 2)")
    daemon_p.add_argument("--store", type=Path, required=True,
                          help="client-side copy of the results")
    daemon_p.add_argument("--daemon-store", type=Path, default=None,
                          help="copy the daemon's own per-sweep store "
                               "here after the run")
    daemon_p.set_defaults(func=cmd_daemon)

    inspect_p = sub.add_parser(
        "inspect-check",
        help="anomaly-injection gate for the online sweep inspector")
    add_spec_options(inspect_p)
    inspect_p.add_argument("--store", type=Path, default=None,
                           help="keep the inspected store here "
                                "(default: a temp file)")
    inspect_p.add_argument("--report", type=Path, default=None,
                           help="write a JSON report of the gate here")
    inspect_p.set_defaults(func=cmd_inspect_check)

    resume_p = sub.add_parser(
        "check-resume",
        help="assert a resumed sweep simulates zero points")
    add_spec_options(resume_p)
    resume_p.add_argument("--store", type=Path, required=True)
    resume_p.set_defaults(func=cmd_check_resume)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
