"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list`` — available workloads and their categories.
* ``run WORKLOAD`` — simulate one workload under a chosen core/LTP
  configuration and print the key metrics (``--json`` for the full
  :class:`repro.api.SimResult` payload).
* ``classify WORKLOAD`` — print the oracle classification of each
  static instruction (the Figure 2 view, for any kernel).
* ``train`` — fit a learned parking model offline (extract oracle-
  labelled datasets → averaged-perceptron fit → frozen JSON artifact →
  held-out evaluation; see :mod:`repro.policies.learned`).  ``--out``
  writes the artifact ``model-park`` loads; ``--check-floor`` turns
  the held-out accuracy into an exit code for CI.
* ``experiment NAME`` — regenerate one of the paper's tables/figures
  (``--json`` for the raw result document; ``--list`` enumerates the
  registered experiments).
* ``sweep SPEC`` — run a declarative sweep (a ``SweepSpec`` JSON file
  or a named preset; ``--list-presets`` enumerates the presets) with
  a durable result store (``--store``), resume (``--resume``), live
  progress (``--progress``; with ``--json`` the document carries the
  full lifecycle-event log), and a local worker pool (``--jobs N``).
  Splitting a sweep across machines is key-stable sharding
  (``--shard i/k``, one invocation per partition) plus store merging
  (``--merge``).  Execution is selected by registered executor name
  (``--executor`` + ``--workers`` for the TCP fleet) or submitted to a
  sweep daemon (``--daemon HOST:PORT``).
* ``worker`` — serve simulations over TCP: accepts serialized
  configurations from ``--executor remote`` dispatchers (or a sweep
  daemon's fleet) and answers with results, heartbeating during long
  runs.  Prints ``worker listening on HOST:PORT`` once bound.
* ``serve`` — the sweep daemon: accepts whole ``SweepSpec``
  submissions from concurrent clients, multiplexes them over one
  ``--workers`` fleet with fair round-robin scheduling, and persists
  landed points to per-sweep stores under ``--store-dir`` (resumable
  across restarts).  ``--inspect`` attaches a per-sweep
  :class:`~repro.api.inspect.SweepInspector` to every submission.
* ``watch STORE`` — inspect a sweep result store: progress,
  per-workload summary, anomaly annotations and quarantined points;
  ``--follow`` polls the file and prints a line as points land.

``sweep --inspect`` turns on online QA over a local run: every landed
result is validated (stat invariants, per-workload outlier baselines,
operational alarms), confirmed anomalies are persisted as store
annotation rows, and quarantined points re-run on ``--resume``.

``run``/sweep specs select an allocation policy (``--policy`` /
``SimConfig.policy`` / a ``"policy"`` sweep axis) from the
:mod:`repro.policies` registry.

Everything routes through :mod:`repro.api`: the LTP presets come from
the shared registry in :mod:`repro.ltp.config`, experiments resolve via
the decorator registry, and simulations run on the process-global
default :class:`~repro.api.session.Session`
(:func:`~repro.api.session.set_default_session` redirects them).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import List, Optional

from repro.api import (ResultStore, Session, SweepDaemon, SweepInspector,
                       SweepSpec, WorkerServer, backend_for_jobs,
                       default_session, executor_names, experiment_names,
                       get_experiment, ltp_preset, ltp_preset_names,
                       merge_stores, parse_shard, submit_sweep, summarize)
from repro.api.executors import executor_from_options
from repro.api.remote.protocol import format_address, parse_address
from repro.core.params import baseline_params, ltp_params
from repro.harness.config import SimConfig
from repro.harness.experiments import (resolve_sweep_spec,
                                       sweep_preset_descriptions,
                                       sweep_preset_names)
from repro.harness.report import (render_json, render_sweep_summary,
                                  render_table)
from repro.ltp.config import LTP_PRESETS
from repro.ltp.oracle import annotate_trace
from repro.policies import DEFAULT_POLICY, policy_names
from repro.policies.learned import ModelArtifact, ModelArtifactError
from repro.policies.learned.train import (DEFAULT_EPOCHS,
                                          DEFAULT_HOLDOUT_WORKLOADS,
                                          DEFAULT_INSTS, DEFAULT_SEED,
                                          DEFAULT_TRAIN_WORKLOADS,
                                          train_model)
from repro.workloads import full_suite, get_workload

#: legacy alias — the presets live in :data:`repro.ltp.config.LTP_PRESETS`
LTP_CHOICES = LTP_PRESETS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Long Term Parking (MICRO 2015) reproduction")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available workloads")

    run_p = sub.add_parser("run", help="simulate one workload")
    run_p.add_argument("workload")
    run_p.add_argument("--core", choices=["baseline", "small"],
                       default="baseline",
                       help="baseline = IQ64/RF128; small = IQ32/RF96")
    run_p.add_argument("--ltp", choices=ltp_preset_names(),
                       default="none")
    run_p.add_argument("--policy", choices=policy_names(),
                       default=DEFAULT_POLICY,
                       help="allocation policy (default: the LTP "
                            "controller path; see repro.policies)")
    run_p.add_argument("--model", type=Path, default=None,
                       metavar="ARTIFACT",
                       help="frozen model artifact for learned "
                            "policies (default: the committed example "
                            "under examples/models/)")
    run_p.add_argument("--iq", type=int, default=None,
                       help="override IQ size")
    run_p.add_argument("--rf", type=int, default=None,
                       help="override available registers (both classes)")
    run_p.add_argument("--warmup", type=int, default=None)
    run_p.add_argument("--measure", type=int, default=None)
    run_p.add_argument("--no-cache", action="store_true")
    run_p.add_argument("--json", action="store_true",
                       help="emit the SimResult payload as JSON")

    cls_p = sub.add_parser("classify",
                           help="oracle-classify a workload's kernel")
    cls_p.add_argument("workload")
    cls_p.add_argument("--insts", type=int, default=4000)

    train_p = sub.add_parser(
        "train", help="fit a learned parking model offline and freeze "
                      "it as a versioned artifact")
    train_p.add_argument("--workloads", nargs="+", default=None,
                         metavar="NAME",
                         help="training workloads (default: "
                              f"{', '.join(DEFAULT_TRAIN_WORKLOADS)})")
    train_p.add_argument("--holdout", nargs="+", default=None,
                         metavar="NAME",
                         help="held-out evaluation workloads (default: "
                              f"{', '.join(DEFAULT_HOLDOUT_WORKLOADS)})")
    train_p.add_argument("--insts", type=int, default=DEFAULT_INSTS,
                         help="instructions traced per workload "
                              f"(default {DEFAULT_INSTS})")
    train_p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                         help="shuffle seed — same traces + seed give "
                              "a byte-identical artifact "
                              f"(default {DEFAULT_SEED})")
    train_p.add_argument("--epochs", type=int, default=DEFAULT_EPOCHS,
                         help=f"perceptron epochs "
                              f"(default {DEFAULT_EPOCHS})")
    train_p.add_argument("--threshold", type=int, default=0,
                         help="decision threshold frozen into the "
                              "artifact (default 0)")
    train_p.add_argument("--out", type=Path, default=None,
                         metavar="PATH",
                         help="write the frozen artifact here "
                              "(omit for a dry run: train + report "
                              "only)")
    train_p.add_argument("--check-floor", type=float, default=None,
                         metavar="ACC",
                         help="exit non-zero unless held-out accuracy "
                              ">= ACC (the CI regression gate)")
    train_p.add_argument("--json", action="store_true",
                         help="emit the training report as JSON")

    exp_p = sub.add_parser("experiment",
                           help="regenerate a paper table/figure")
    exp_p.add_argument("name", nargs="?", choices=experiment_names(),
                       help="experiment to run (see --list)")
    exp_p.add_argument("--list", action="store_true",
                       help="list the registered experiments and exit")
    exp_p.add_argument("--jobs", "-j", type=int, default=1,
                       help="worker processes for the experiment's "
                            "sweeps (default 1 = the serial executor; "
                            "0 = one per CPU; >1 selects the "
                            "process-pool executor)")
    exp_p.add_argument("--json", action="store_true",
                       help="emit the raw result document as JSON")

    sweep_p = sub.add_parser(
        "sweep", help="run a declarative sweep (shardable, resumable)")
    sweep_p.add_argument(
        "spec", nargs="?", default=None,
        help="SweepSpec JSON file, or a preset name "
             f"({', '.join(sweep_preset_names())})")
    sweep_p.add_argument("--list-presets", action="store_true",
                         help="list the registered sweep presets and "
                              "exit")
    sweep_p.add_argument("--shard", type=parse_shard, default=None,
                         metavar="I/K",
                         help="run only the I-th of K key-stable "
                              "partitions of the sweep")
    sweep_p.add_argument("--store", type=Path, default=None,
                         help="append results to this JSONL store "
                              "(created if missing)")
    sweep_p.add_argument("--resume", action="store_true",
                         help="continue an existing store, skipping "
                              "points it already holds")
    sweep_p.add_argument("--merge", nargs="+", type=Path, default=None,
                         metavar="SRC",
                         help="merge these stores into --store instead "
                              "of running a sweep")
    sweep_p.add_argument("--jobs", "-j", type=int, default=1,
                         help="worker processes for the sweep "
                              "(default 1 = the serial executor; "
                              "0 = one per CPU; >1 selects the "
                              "process-pool executor)")
    sweep_p.add_argument("--batch-size", type=int, default=None,
                         metavar="N",
                         help="cap on trace-identical points executed "
                              "as one batch (one trace generation + "
                              "predecode per batch; 1 disables "
                              "batching; default: auto)")
    sweep_p.add_argument("--executor", choices=executor_names(),
                         default=None,
                         help="run through a registered executor "
                              "(default: serial, or process-pool when "
                              "--jobs > 1)")
    sweep_p.add_argument("--workers", default=None,
                         metavar="HOST:PORT,...",
                         help="comma-separated worker fleet for "
                              "--executor remote (start workers with "
                              "'repro worker')")
    sweep_p.add_argument("--max-retries", type=int, default=None,
                         metavar="N",
                         help="re-dispatch attempts per failed point "
                              "(default 1)")
    sweep_p.add_argument("--daemon", default=None, metavar="HOST:PORT",
                         help="submit the sweep to a 'repro serve' "
                              "daemon instead of executing locally")
    sweep_p.add_argument("--warmup", type=int, default=None,
                         help="warmup instruction budget per point")
    sweep_p.add_argument("--measure", type=int, default=None,
                         help="measured instruction budget per point")
    sweep_p.add_argument("--progress", action="store_true",
                         help="live execution-progress line on stderr "
                              "(plain line-per-update when stderr is "
                              "not a terminal)")
    sweep_p.add_argument("--inspect", action="store_true",
                         help="online QA: validate every landed result "
                              "(stat invariants, outlier baselines, "
                              "operational alarms); anomalies become "
                              "store annotations that quarantine their "
                              "point for --resume")
    sweep_p.add_argument("--no-cache", action="store_true")
    sweep_p.add_argument("--json", action="store_true",
                         help="emit the sweep document as JSON "
                              "(includes the lifecycle-event log)")

    worker_p = sub.add_parser(
        "worker", help="serve simulations over TCP for --executor "
                       "remote / a sweep daemon")
    worker_p.add_argument("--listen", default="127.0.0.1:0",
                          metavar="HOST:PORT",
                          help="bind address (port 0 = ephemeral; the "
                               "resolved address is printed)")
    worker_p.add_argument("--cache-dir", default=None,
                          help="disk result-cache directory for this "
                               "worker's session")
    worker_p.add_argument("--heartbeat", type=float, default=2.0,
                          metavar="SECONDS",
                          help="heartbeat interval while simulating "
                               "(default 2.0)")

    serve_p = sub.add_parser(
        "serve", help="sweep daemon: accept SweepSpec submissions and "
                      "run them over a worker fleet")
    serve_p.add_argument("--listen", default="127.0.0.1:0",
                         metavar="HOST:PORT",
                         help="bind address (port 0 = ephemeral; the "
                              "resolved address is printed)")
    serve_p.add_argument("--workers", required=True,
                         metavar="HOST:PORT,...",
                         help="comma-separated addresses of the "
                              "'repro worker' fleet to dispatch to")
    serve_p.add_argument("--store-dir", type=Path, default=None,
                         help="directory of per-sweep result stores "
                              "(sweep-<id>.jsonl; makes sweeps "
                              "resumable across daemon restarts)")
    serve_p.add_argument("--batch-size", type=int, default=8,
                         metavar="N",
                         help="points in flight per scheduling round "
                              "(default 8)")
    serve_p.add_argument("--max-retries", type=int, default=1,
                         metavar="N",
                         help="re-dispatch attempts per failed point "
                              "(default 1)")
    serve_p.add_argument("--inspect", action="store_true",
                         help="attach a per-sweep SweepInspector to "
                              "every submission: annotations land in "
                              "the per-sweep store and anomaly events "
                              "stream to the submitting client")

    watch_p = sub.add_parser(
        "watch", help="inspect a sweep result store: progress, "
                      "per-workload summary, anomalies, quarantine")
    watch_p.add_argument("store", type=Path,
                         help="a --store / daemon sweep-<id>.jsonl file")
    watch_p.add_argument("--follow", action="store_true",
                         help="keep polling the store and print a "
                              "progress line as points land")
    watch_p.add_argument("--interval", type=float, default=2.0,
                         metavar="SECONDS",
                         help="poll interval for --follow (default 2.0)")
    watch_p.add_argument("--points", type=int, default=None, metavar="N",
                         help="with --follow: exit once the store "
                              "holds N points (otherwise Ctrl-C)")
    watch_p.add_argument("--json", action="store_true",
                         help="emit the store report as JSON")
    return parser


def cmd_list(out) -> int:
    rows = [[w.name, w.category, w.alias or "-", w.description]
            for w in full_suite()]
    print(render_table(["workload", "category", "paper checkpoint",
                        "description"], rows,
                       title="Available workloads"), file=out)
    return 0


def cmd_run(args, out) -> int:
    core = baseline_params() if args.core == "baseline" else ltp_params()
    if args.iq is not None:
        core = core.but(iq_size=args.iq)
    if args.rf is not None:
        core = core.but(int_regs=args.rf, fp_regs=args.rf)
    model = None
    if args.model is not None:
        try:
            model = ModelArtifact.load(args.model).to_payload()
        except ModelArtifactError as exc:
            print(str(exc), file=out)
            return 2
    config = SimConfig(workload=args.workload, core=core,
                       ltp=ltp_preset(args.ltp), policy=args.policy,
                       model=model)
    if args.warmup is not None:
        config.warmup = args.warmup
    if args.measure is not None:
        config.measure = args.measure
    result = default_session().run(config, use_cache=not args.no_cache)
    if args.json:
        print(render_json(result.to_dict()), file=out)
        return 0
    stats = result.stats
    rows = [
        ["CPI", stats["cpi"]],
        ["IPC", stats["ipc"]],
        ["cycles", stats["cycles"]],
        ["committed", stats["committed"]],
        ["avg outstanding requests", stats["avg_outstanding"]],
        ["avg load latency", stats["avg_load_latency"]],
        ["branch accuracy", stats["branch_accuracy"]],
        ["instructions parked", stats["ltp_parked"]],
        ["avg insts in LTP", stats["avg_ltp"]],
        ["LTP enabled fraction", stats["ltp_enabled_fraction"]],
    ]
    print(render_table(["metric", "value"], rows, precision=3,
                       title=f"{args.workload} — core={args.core} "
                             f"ltp={args.ltp} policy={args.policy}"),
          file=out)
    return 0


def cmd_classify(args, out) -> int:
    workload = get_workload(args.workload)
    trace = workload.trace(args.insts)
    oracle = annotate_trace(trace, warm_regions=workload.warm_regions)
    per_pc = {}
    for i, dyn in enumerate(trace):
        entry = per_pc.setdefault(dyn.pc, [0, 0, 0])
        entry[0] += 1
        entry[1] += oracle.urgent[i]
        entry[2] += oracle.non_ready[i]
    rows = []
    for pc in sorted(per_pc):
        count, urgent, non_ready = per_pc[pc]
        label = (("U" if urgent / count > 0.5 else "NU") + "+"
                 + ("NR" if non_ready / count > 0.5 else "R"))
        rows.append([pc, workload.program[pc].render(), label, count])
    print(render_table(["pc", "instruction", "class", "executions"],
                       rows, title=f"Classification of {workload.name}"),
          file=out)
    return 0


def cmd_train(args, out) -> int:
    try:
        artifact, report = train_model(
            train_workloads=args.workloads,
            holdout_workloads=args.holdout, insts=args.insts,
            seed=args.seed, epochs=args.epochs,
            threshold=args.threshold)
    except (ValueError, KeyError) as exc:
        print(str(exc), file=out)
        return 2
    saved = None
    if args.out is not None:
        saved = artifact.save(args.out)
    holdout_accuracy = report["holdout"]["accuracy"]
    floor_ok = (args.check_floor is None
                or holdout_accuracy >= args.check_floor)
    if args.json:
        print(render_json({
            "artifact": str(saved) if saved else None,
            "content_hash": artifact.content_hash,
            "weights": list(artifact.weights),
            "bias": artifact.bias,
            "threshold": artifact.threshold,
            "provenance": artifact.provenance,
            "report": report,
            "floor": args.check_floor,
            "floor_ok": floor_ok,
        }), file=out)
    else:
        rows = [
            ["training samples", report["train"]["samples"]],
            ["training accuracy", report["train"]["accuracy"]],
            ["held-out samples", report["holdout"]["samples"]],
            ["held-out accuracy", holdout_accuracy],
            ["held-out urgent fraction",
             report["holdout"]["urgent_frac"]],
        ]
        for name, entry in report["holdout_workloads"].items():
            rows.append([f"  accuracy on {name}", entry["accuracy"]])
        rows.append(["content hash", artifact.content_hash])
        if saved is not None:
            rows.append(["artifact", str(saved)])
        print(render_table(["metric", "value"], rows, precision=3,
                           title="Learned-policy training"), file=out)
    if not floor_ok:
        print(f"held-out accuracy {holdout_accuracy:.3f} is below the "
              f"floor {args.check_floor:.3f}", file=out)
        return 1
    return 0


class _ProgressReporter:
    """Collects lifecycle events; optionally renders live progress.

    Registered as the sweep's progress callback: every
    :class:`~repro.api.exec.ExecEvent` is recorded (for the ``--json``
    event log) and, with ``stream`` set, progress renders there.  On a
    terminal that is a single ``\\r``-refreshed counter line with
    retry counts, flagged anomalies and an ETA; on a non-TTY stream
    (CI logs, pipes) it degrades to one plain line per *terminal*
    event (finished/failed/cancelled/anomaly) so logs stay readable
    instead of a wall of carriage returns.  Cache/store hits never
    reach the executor, so the denominator is the *submitted* count.
    """

    def __init__(self, stream=None, clock=time.monotonic) -> None:
        self.stream = stream
        self.live = (stream is not None
                     and getattr(stream, "isatty", lambda: False)())
        self.clock = clock
        self.events: List[dict] = []
        self.counts = {"submitted": 0, "finished": 0, "failed": 0,
                       "retried": 0, "cancelled": 0, "anomaly": 0}
        #: "check: detail" per anomaly event, in arrival order
        self.anomalies: List[str] = []
        self._t0: Optional[float] = None

    def _eta(self, done: int) -> Optional[float]:
        todo = self.counts["submitted"] - done
        if self._t0 is None or not done or todo <= 0:
            return None
        elapsed = self.clock() - self._t0
        return elapsed / done * todo

    def __call__(self, event) -> None:
        now = self.clock()
        if self._t0 is None:
            self._t0 = now
        self.events.append(event.to_dict())
        if event.kind in self.counts:
            self.counts[event.kind] += 1
        if event.kind == "anomaly":
            self.anomalies.append(event.error or event.key)
        if self.stream is None:
            return
        counts = self.counts
        done = counts["finished"] + counts["failed"] + counts["cancelled"]
        if not self.live and event.kind not in (
                "finished", "failed", "cancelled", "anomaly"):
            return  # non-TTY: only terminal events make a line
        line = (f"[{done}/{counts['submitted']}] "
                f"{event.kind} {event.workload}")
        for kind in ("failed", "retried", "cancelled"):
            if counts[kind]:
                line += f" ({kind}: {counts[kind]})"
        if counts["anomaly"]:
            line += f" (anomalies: {counts['anomaly']})"
        if event.kind == "anomaly" and event.error:
            line += f" [{event.error}]"
        eta = self._eta(done)
        if eta is not None:
            line += f" ETA {eta:.0f}s"
        if self.live:
            print(f"\r{line:<78}", end="", file=self.stream, flush=True)
        else:
            print(line, file=self.stream, flush=True)

    def close(self) -> None:
        if self.stream is None or not self.events:
            return
        if self.live:
            print(file=self.stream)
        if self.anomalies and self.live:
            # plain mode already printed each anomaly as it fired
            for note in self.anomalies:
                print(f"anomaly: {note}", file=self.stream)


def _sweep_document(spec: SweepSpec, results, args,
                    reporter: Optional[_ProgressReporter] = None,
                    inspector: Optional[SweepInspector] = None,
                    ) -> dict:
    counts = {
        "simulated": sum(1 for r in results if not r.cached),
        "from_store": sum(1 for r in results if r.source == "store"),
        "from_cache": sum(1 for r in results
                          if r.source in ("memory", "disk")),
    }
    document = {
        "sweep_id": spec.sweep_id(),
        "points": len(results),
        "shard": (f"{args.shard[0]}/{args.shard[1]}"
                  if args.shard else None),
        "store": str(args.store) if args.store else None,
        **counts,
        "summary": summarize(results),
        "results": [r.to_dict() for r in results],
    }
    if inspector is not None:
        document["inspector"] = inspector.summary()
    if reporter is not None:
        document["events"] = reporter.events
    return document


def cmd_list_experiments(args, out) -> int:
    entries = [(name, get_experiment(name).description)
               for name in experiment_names()]
    if args.json:
        print(render_json({"experiments": [
            {"name": name, "description": description}
            for name, description in entries]}), file=out)
        return 0
    print(render_table(["experiment", "description"], entries,
                       title="Registered experiments"), file=out)
    return 0


def cmd_list_presets(args, out) -> int:
    descriptions = sweep_preset_descriptions()
    if args.json:
        print(render_json({"presets": [
            {"name": name, "description": description}
            for name, description in descriptions.items()]}), file=out)
        return 0
    rows = list(descriptions.items())
    print(render_table(["preset", "description"], rows,
                       title="Registered sweep presets"), file=out)
    return 0


def cmd_sweep(args, out) -> int:
    if args.list_presets:
        return cmd_list_presets(args, out)
    if args.merge is not None:
        if args.store is None:
            print("--merge requires --store DEST", file=out)
            return 2
        with merge_stores(args.store, args.merge) as merged:
            if args.spec is not None:
                # a named SPEC validates the merge: shards of a
                # different sweep must not recombine under its flag
                merged.bind(resolve_sweep_spec(
                    args.spec, warmup=args.warmup,
                    measure=args.measure).sweep_id())
            results = merged.results()
            if args.json:
                print(render_json({
                    "store": str(args.store),
                    "sweep_id": merged.sweep_id,
                    "points": len(results),
                    "sources": [str(p) for p in args.merge],
                    "summary": summarize(results),
                }), file=out)
            else:
                print(render_sweep_summary(
                    summarize(results),
                    title=f"Merged {len(args.merge)} store(s) -> "
                          f"{args.store}"), file=out)
        return 0

    if args.spec is None:
        print("sweep needs a SPEC (JSON file or preset name) unless "
              "--merge is given", file=out)
        return 2
    if args.resume and args.store is None:
        print("--resume requires --store PATH", file=out)
        return 2
    if args.daemon is not None:
        contradictory = [
            ("--executor", args.executor is not None),
            ("--jobs", args.jobs != 1),
            ("--batch-size", args.batch_size is not None),
            ("--workers", args.workers is not None),
            ("--max-retries", args.max_retries is not None),
            ("--shard", args.shard is not None),
        ]
        clashing = [flag for flag, given in contradictory if given]
        if clashing:
            print(f"--daemon submits the sweep to a remote server, "
                  f"which decides execution itself; drop "
                  f"{', '.join(clashing)}", file=out)
            return 2
        if args.inspect:
            print("--inspect runs online QA where results land; with "
                  "--daemon that is the server — start it with "
                  "'repro serve --inspect' (anomaly events stream "
                  "back to this client)", file=out)
            return 2
    if args.workers is not None and args.executor != "remote":
        print("--workers only applies to --executor remote", file=out)
        return 2
    if args.executor is None and args.max_retries is not None:
        print("--max-retries needs --executor NAME", file=out)
        return 2
    spec = resolve_sweep_spec(args.spec, warmup=args.warmup,
                              measure=args.measure)

    store = None
    if args.store is not None:
        if args.store.exists() and not args.resume:
            print(f"store {args.store} already exists; pass --resume "
                  f"to continue it", file=out)
            return 2
        store = ResultStore(args.store)

    session = default_session()
    reporter = _ProgressReporter(
        stream=sys.stderr if args.progress else None)
    inspector = SweepInspector(store=store) if args.inspect else None
    try:
        if args.daemon is not None:
            results = submit_sweep(args.daemon, spec,
                                   use_cache=not args.no_cache,
                                   on_event=reporter)
            if store is not None:
                # a local copy of what the daemon (durably) holds
                store.bind(spec.sweep_id()).touch()
                for result in results:
                    store.add(result)
        else:
            if args.executor is not None:
                try:
                    backend = executor_from_options(
                        args.executor,
                        jobs=None if args.jobs == 1 else args.jobs,
                        workers=args.workers,
                        max_retries=args.max_retries,
                        batch_size=args.batch_size)
                except ValueError as exc:
                    print(str(exc), file=out)
                    return 2
            else:
                backend = backend_for_jobs(args.jobs,
                                           batch_size=args.batch_size)
            results = session.sweep(spec, use_cache=not args.no_cache,
                                    backend=backend, store=store,
                                    shard=args.shard, progress=reporter,
                                    inspect=inspector)
    finally:
        reporter.close()
        if store is not None:
            store.close()

    if args.json:
        print(render_json(_sweep_document(spec, results, args,
                                          reporter=reporter,
                                          inspector=inspector)),
              file=out)
        return 0
    note = (f" (shard {args.shard[0]}/{args.shard[1]})"
            if args.shard else "")
    print(render_sweep_summary(
        summarize(results),
        title=f"Sweep {spec.sweep_id()}{note}"), file=out)
    if inspector is not None:
        if inspector.anomalies:
            print(f"inspector: {len(inspector.anomalies)} anomaly(ies), "
                  f"{len(inspector.quarantined)} point(s) quarantined "
                  f"(re-run them with --resume)", file=out)
            for annotation in inspector.anomalies:
                flag = "quarantined" if annotation.quarantine else "noted"
                print(f"  [{annotation.check}] {flag} "
                      f"{annotation.workload or annotation.key}: "
                      f"{annotation.detail}", file=out)
        else:
            print(f"inspector: {inspector.observed} result(s) validated, "
                  f"no anomalies", file=out)
    return 0


def cmd_worker(args, out) -> int:
    try:
        host, port = parse_address(args.listen)
    except ValueError as exc:
        print(str(exc), file=out)
        return 2
    server = WorkerServer(host=host, port=port,
                          session=Session(cache_dir=args.cache_dir),
                          heartbeat_interval=args.heartbeat)
    # spawners (CI, scripts) parse this line for the resolved port
    print(f"worker listening on {format_address(server.address)}",
          file=out, flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        pass
    finally:
        server.close()
    return 0


def cmd_serve(args, out) -> int:
    try:
        host, port = parse_address(args.listen)
        workers = [parse_address(part)
                   for part in args.workers.split(",") if part]
    except ValueError as exc:
        print(str(exc), file=out)
        return 2
    if not workers:
        print("--workers needs at least one HOST:PORT", file=out)
        return 2
    daemon = SweepDaemon(
        workers=workers, host=host, port=port,
        store_dir=(str(args.store_dir)
                   if args.store_dir is not None else None),
        batch_size=args.batch_size, max_retries=args.max_retries,
        inspect=args.inspect)
    print(f"serve listening on {format_address(daemon.address)}",
          file=out, flush=True)
    try:
        daemon.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        pass
    finally:
        daemon.close()
    return 0


def _watch_report(store_path: Path) -> dict:
    """One snapshot of a store: progress, anomalies, quarantine."""
    store = ResultStore(store_path)
    try:
        results = store.results()
        return {
            "store": str(store_path),
            "sweep_id": store.sweep_id,
            "points": len(results),
            "quarantined": store.quarantined_keys(),
            "annotations": [a.to_dict() for a in store.annotations()],
            "summary": summarize(results),
        }
    finally:
        store.close()


def _render_watch(report: dict, out) -> None:
    title = (f"Store {report['store']} "
             f"(sweep {report['sweep_id'] or 'unbound'}, "
             f"{report['points']} points)")
    print(render_sweep_summary(report["summary"], title=title), file=out)
    annotations = report["annotations"]
    if annotations:
        standing = set(report["quarantined"])
        # a quarantine a later re-run already lifted is history
        rows = [[a["check"],
                 ("quarantined" if a["key"] in standing
                  else "healed" if a.get("quarantine") else "noted"),
                 a.get("workload") or "-", a["key"][:12], a["detail"]]
                for a in annotations]
        print(render_table(["check", "state", "workload", "key",
                            "detail"], rows,
                           title=f"{len(annotations)} anomaly "
                                 f"annotation(s)"), file=out)
        quarantined = report["quarantined"]
        if quarantined:
            print(f"{len(quarantined)} point(s) quarantined — a "
                  f"resumed sweep re-runs exactly them", file=out)
    else:
        print("no anomaly annotations", file=out)


def cmd_watch(args, out) -> int:
    if not args.store.is_file():
        print(f"store {args.store} does not exist", file=out)
        return 2
    if not args.follow:
        report = _watch_report(args.store)
        if args.json:
            print(render_json(report), file=out)
        else:
            _render_watch(report, out)
        return 0
    # --follow: poll the file, line per change, until --points (or ^C)
    last_points = -1
    try:
        while True:
            report = _watch_report(args.store)
            points = report["points"]
            if points != last_points:
                line = f"[{points} points]"
                if report["annotations"]:
                    line += (f" anomalies: {len(report['annotations'])}"
                             f" quarantined: "
                             f"{len(report['quarantined'])}")
                print(line, file=out, flush=True)
                last_points = points
            if args.points is not None and points >= args.points:
                break
            time.sleep(args.interval)
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        pass
    if args.json:
        print(render_json(_watch_report(args.store)), file=out)
    else:
        _render_watch(_watch_report(args.store), out)
    return 0


def cmd_experiment(args, out) -> int:
    if args.list:
        return cmd_list_experiments(args, out)
    if args.name is None:
        print("experiment needs a NAME (or --list to enumerate them)",
              file=out)
        return 2
    exp = get_experiment(args.name)
    jobs = args.jobs if args.jobs != 0 else None
    result = exp.run(jobs=jobs)
    if args.json:
        print(render_json({"experiment": exp.name, "result": result}),
              file=out)
        return 0
    print(exp.render(result), file=out)
    return 0


def main(argv: Optional[List[str]] = None, out=None) -> int:
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return cmd_list(out)
    if args.command == "run":
        return cmd_run(args, out)
    if args.command == "classify":
        return cmd_classify(args, out)
    if args.command == "train":
        return cmd_train(args, out)
    if args.command == "experiment":
        return cmd_experiment(args, out)
    if args.command == "sweep":
        return cmd_sweep(args, out)
    if args.command == "worker":
        return cmd_worker(args, out)
    if args.command == "serve":
        return cmd_serve(args, out)
    if args.command == "watch":
        return cmd_watch(args, out)
    raise AssertionError("unreachable")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
