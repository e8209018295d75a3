"""The golden statistics corpus of the cycle loop.

``tests/golden/engine_corpus.jsonl`` holds one JSON line per case: the
case's coordinates plus the full ``SimStats.as_dict()`` it produced.
The committed corpus was recorded by the retired object-graph engine
(the reference implementation the cycle loop was once diffed against),
in both execution modes: each line carries the idle-skip statistics
and, under ``strict``, the strict cycle-by-cycle values of the few
fields that count visited cycles (see :func:`_both_modes`).
Three grids, each with fixed seeds:

* ``programs`` — randomized programs and cores (:data:`PROGRAM_SEEDS`)
  x every registered allocation policy;
* ``session`` — randomized :class:`~repro.harness.config.SimConfig`\\ s
  (:data:`SESSION_SEEDS`) through :meth:`repro.api.Session.run`, which
  adds trace windowing, warmup and oracle plumbing;
* ``workloads`` — :data:`GRID_WORKLOADS` x :data:`GRID_LTP` x
  :data:`ENGINE_GRID_POLICIES` on the LTP core, 500 warmup + 400
  measured instructions, driven by hand like the session does.

Re-record only after an intended statistics change::

    PYTHONPATH=src python tests/golden_corpus.py
"""

from __future__ import annotations

import contextlib
import functools
import json
import random
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, Iterator, List, Tuple

from repro.api import Session
from repro.api.session import warm_branch_predictor, warm_hierarchy
from repro.core.branch import GsharePredictor
from repro.core.params import ltp_params
from repro.core.pipeline import Pipeline
from repro.harness.config import SimConfig
from repro.isa.assembler import assemble
from repro.isa.executor import Executor
from repro.ltp.config import limit_ltp, no_ltp, proposed_ltp
from repro.ltp.oracle import annotate_trace
from repro.memory.hierarchy import MemoryHierarchy
from repro.policies import build_policy, policy_names, policy_needs_oracle
from repro.workloads import get_workload

from test_properties_pipeline import random_core, random_program

CORPUS = Path(__file__).resolve().parent / "golden" / "engine_corpus.jsonl"

PROGRAM_SEEDS = (0, 17, 404, 1234, 2718, 5151, 7777, 9999)
SESSION_SEEDS = (1, 29, 311, 2024, 4096, 6502, 8080, 9876)

GRID_WORKLOADS = ("lattice_milc", "ptrchase_astar", "stream_triad")
GRID_LTP = (
    ("off", no_ltp()),
    ("proposed", proposed_ltp()),
    ("proposed-16", proposed_ltp().but(entries=16, ports=2)),
    ("limit-nrnu", limit_ltp("nr+nu").but(park_loads=False,
                                          park_stores=False,
                                          monitor="auto")),
)
#: model-park exercises the committed frozen artifact (build_policy's
#: default-artifact fallback)
ENGINE_GRID_POLICIES = ("ltp", "baseline-stall", "model-park",
                        "confidence-park", "loadpred-park")
GRID_WARMUP = 500
GRID_MEASURE = 400

Stats = Dict[str, Any]


# ================================================================
# case builders (shared by the recorder and the replay tests)
# ================================================================
def program_case(seed: int) -> Tuple[list, Any, Any]:
    """The trace, core and LTP configuration of one program seed."""
    rng = random.Random(seed)
    asm = random_program(rng, n_body=rng.randrange(3, 8))
    trace = list(Executor(assemble(asm)).run(400))
    core = random_core(rng)
    ltp = proposed_ltp().but(entries=rng.choice([8, 32, 128]),
                             ports=rng.choice([1, 2, 4]))
    return trace, core, ltp


def run_program(case: Tuple[list, Any, Any], policy_name: str,
                allow_skip: bool) -> Stats:
    """One policy over one program case."""
    trace, core, ltp = case
    oracle = None
    if policy_needs_oracle(policy_name, ltp):
        oracle = annotate_trace(trace, core.mem,
                                window=min(core.rob_size or 256, 256))
    policy = build_policy(policy_name, ltp, core.mem.dram_latency,
                          oracle=oracle)
    return Pipeline(trace, params=core, ltp=ltp, policy=policy,
                    allow_skip=allow_skip).run().as_dict()


def session_config(seed: int) -> SimConfig:
    """The randomized session-path configuration of one seed."""
    rng = random.Random(seed)
    workload = rng.choice(["lattice_milc", "ptrchase_astar",
                           "stream_triad", "sparse_gather"])
    ltp = rng.choice([no_ltp(), proposed_ltp(),
                      proposed_ltp().but(entries=16, ports=2)])
    return SimConfig(workload=workload, ltp=ltp,
                     warmup=rng.choice([0, 200, 500]),
                     measure=rng.choice([200, 400]))


@contextlib.contextmanager
def session_skip_mode(allow_skip: bool) -> Iterator[None]:
    """Run the session's pipelines with *allow_skip* for the duration."""
    from repro.api import session as api_session
    original = api_session.Pipeline
    api_session.Pipeline = functools.partial(original,
                                             allow_skip=allow_skip)
    try:
        yield
    finally:
        api_session.Pipeline = original


def run_session(session: Session, config: SimConfig,
                allow_skip: bool) -> Stats:
    """One configuration through :meth:`Session.run`, uncached."""
    with session_skip_mode(allow_skip):
        return session.run(config, use_cache=False).stats


def run_workload(session: Session, workload: str, ltp: Any,
                 policy_name: str, allow_skip: bool) -> Stats:
    """One real-workload grid cell, warmed the way the session warms."""
    core = ltp_params()
    warmup, total = GRID_WARMUP, GRID_WARMUP + GRID_MEASURE
    trace = session.get_trace(workload, total)
    program = get_workload(workload)
    needs = (policy_needs_oracle(policy_name, ltp)
             or ltp.classifier == "oracle" or ltp.ll_predictor == "oracle")
    oracle = (session.get_oracle(workload, total, core, trace)
              if needs else None)
    warmup_slice = trace[:warmup]
    hierarchy = MemoryHierarchy(core.mem)
    warm_hierarchy(hierarchy, warmup_slice, len(program.program),
                   warm_regions=program.warm_regions)
    bpred = GsharePredictor()
    warm_branch_predictor(bpred, warmup_slice)
    policy = build_policy(policy_name, ltp, core.mem.dram_latency,
                          oracle=oracle)
    policy.warm_from_trace(
        warmup_slice,
        oracle.long_latency[:warmup] if oracle is not None else None)
    return Pipeline(trace[warmup:], params=core, ltp=ltp, policy=policy,
                    hierarchy=hierarchy, branch_predictor=bpred,
                    allow_skip=allow_skip).run().as_dict()


# ================================================================
# the corpus file
# ================================================================
def load_corpus(path: Path = CORPUS) -> List[Dict[str, Any]]:
    """Every recorded case, in file order."""
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def index(entries: List[Dict[str, Any]], grid: str) -> Dict[tuple, Dict]:
    """*grid*'s entries keyed by their coordinates."""
    keys = {"programs": ("seed", "policy"), "session": ("seed",),
            "workloads": ("workload", "ltp", "policy")}[grid]
    return {tuple(entry[k] for k in keys): entry
            for entry in entries if entry["grid"] == grid}


def mismatches(expected: Stats, actual: Stats) -> Dict[str, Any]:
    """Every field whose value differs, plus fields only one side has."""
    return {key: (expected.get(key), actual.get(key))
            for key in set(expected) | set(actual)
            if key not in expected or key not in actual
            or expected[key] != actual[key]}


def assert_matches(entry: Dict[str, Any], actual: Stats,
                   allow_skip: bool) -> None:
    """Full-statistics equality of a fresh run with its recorded entry."""
    diff = mismatches(expected_stats(entry, allow_skip), actual)
    assert not diff, (entry["grid"], {k: v for k, v in entry.items()
                                      if k not in ("stats", "strict")},
                      allow_skip, diff)


def expected_stats(entry: Dict[str, Any], allow_skip: bool) -> Stats:
    """The statistics *entry* recorded for one skip mode."""
    if allow_skip:
        return entry["stats"]
    return dict(entry["stats"], **entry["strict"])


def _both_modes(run) -> Dict[str, Any]:
    """Idle-skip stats plus the fields strict execution changes.

    Idle-span jumping keeps every statistic exact except the counters
    of visited cycles (``stall_frontend`` counts the cycles a blocked
    front end is looked at, and a jump looks once), so an entry stores
    the idle-skip statistics and the strict-mode values of the fields
    that differ.
    """
    skip, strict = run(True), run(False)
    if set(skip) != set(strict):
        raise AssertionError(f"skip modes disagree on the fields: "
                             f"{set(skip) ^ set(strict)}")
    return {"stats": skip,
            "strict": {key: value for key, value in strict.items()
                       if skip[key] != value}}


def record(path: Path = CORPUS) -> int:
    """Run every case in both skip modes and write the corpus."""
    lines: List[Dict[str, Any]] = []
    for seed in PROGRAM_SEEDS:
        case = program_case(seed)
        for name in policy_names():
            lines.append(dict(
                _both_modes(functools.partial(run_program, case, name)),
                grid="programs", seed=seed, policy=name))
    with tempfile.TemporaryDirectory() as scratch:
        with Session(cache_dir=scratch) as session:
            for seed in SESSION_SEEDS:
                config = session_config(seed)
                lines.append(dict(
                    _both_modes(functools.partial(run_session, session,
                                                  config)),
                    grid="session", seed=seed, config=config.to_dict()))
            for workload in GRID_WORKLOADS:
                for label, ltp in GRID_LTP:
                    for name in ENGINE_GRID_POLICIES:
                        lines.append(dict(
                            _both_modes(functools.partial(
                                run_workload, session, workload, ltp, name)),
                            grid="workloads", workload=workload, ltp=label,
                            policy=name))
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        for line in lines:
            handle.write(json.dumps(line, sort_keys=True) + "\n")
    print(f"wrote {len(lines)} cases to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(record())
