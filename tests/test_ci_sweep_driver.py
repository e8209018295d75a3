"""End-to-end test of the CI sweep sequence on a tiny spec: the
``repro sweep`` shard, merge and pool runs, checked through
scripts/ci_sweep.py's compare/verify/check-resume."""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
DRIVER = REPO_ROOT / "scripts" / "ci_sweep.py"

SPEC = {
    "workloads": ["compute_int", "stream_triad"],
    "axes": {"core.iq_size": [16, 32]},
    "warmup": 150, "measure": 120,
}


def run_driver(args, tmp_path):
    env = dict(os.environ)
    env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
    env.pop("PYTHONPATH", None)  # the driver sets up sys.path itself
    return subprocess.run(
        [sys.executable, str(DRIVER), *args], cwd=str(REPO_ROOT),
        env=env, capture_output=True, text=True)


def run_repro(args, tmp_path):
    """``python -m repro ARGS`` the way the CI workflow runs it."""
    env = dict(os.environ)
    env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro", *args], cwd=str(REPO_ROOT),
        env=env, capture_output=True, text=True)


def run_shards(spec_path, tmp_path, count=2):
    """``repro sweep SPEC --shard i/k`` for every shard; the stores."""
    stores = []
    for index in range(count):
        store = tmp_path / f"shard{index}.jsonl"
        stores.append(str(store))
        proc = run_repro(["sweep", str(spec_path), "--shard",
                          f"{index}/{count}", "--store", str(store)],
                         tmp_path)
        assert proc.returncode == 0, proc.stdout + proc.stderr
    return stores


def merge(stores, tmp_path):
    merged = tmp_path / "merged.jsonl"
    proc = run_repro(["sweep", "--merge", *stores, "--store", str(merged)],
                     tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return merged, proc


def test_ci_sweep_shard_merge_verify_resume(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SPEC))
    merged, proc = merge(run_shards(spec_path, tmp_path), tmp_path)
    assert "Merged 2 store(s)" in proc.stdout

    proc = run_driver(["verify", "--spec", str(spec_path),
                       "--store", str(merged)], tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "verify OK: 4 points bit-identical" in proc.stdout

    proc = run_driver(["check-resume", "--spec", str(spec_path),
                       "--store", str(merged)], tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 simulated" in proc.stdout


def test_ci_sweep_verify_detects_missing_point(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SPEC))
    store = tmp_path / "partial.jsonl"
    # only one of two shards ran: verify must fail
    proc = run_repro(["sweep", str(spec_path), "--shard", "0/2",
                      "--store", str(store)], tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    proc = run_driver(["verify", "--spec", str(spec_path),
                       "--store", str(store)], tmp_path)
    assert proc.returncode == 1
    assert "MISSING" in proc.stdout


def test_ci_sweep_pool_matches_shard_union(tmp_path):
    """One pooled run == the k-invocation shard union, bit for bit."""
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SPEC))
    merged, _ = merge(run_shards(spec_path, tmp_path), tmp_path)

    pooled = tmp_path / "pooled.jsonl"
    proc = run_repro(["sweep", str(spec_path), "--jobs", "2",
                      "--store", str(pooled)],
                     tmp_path / "isolated")  # fresh cache: no reuse
    assert proc.returncode == 0, proc.stdout + proc.stderr

    proc = run_driver(["compare", str(merged), str(pooled)], tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "bit-identical" in proc.stdout

    # and the pooled store verifies against a serial rerun too
    proc = run_driver(["verify", "--spec", str(spec_path),
                       "--store", str(pooled)], tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_ci_sweep_batched_equivalence(tmp_path):
    """The CI batched-equivalence leg: the same sweep pooled batched
    and unbatched lands bit-identical stores, both equal to a serial
    rerun."""
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SPEC))
    stores = {}
    for label, batch in (("batched", "8"), ("unbatched", "1")):
        store = tmp_path / f"{label}.jsonl"
        stores[label] = store
        proc = run_repro(["sweep", str(spec_path), "--jobs", "2",
                          "--batch-size", batch, "--store", str(store)],
                         tmp_path / label)  # fresh cache per leg
        assert proc.returncode == 0, proc.stdout + proc.stderr

    proc = run_driver(["compare", str(stores["batched"]),
                       str(stores["unbatched"])], tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "bit-identical" in proc.stdout

    proc = run_driver(["verify", "--spec", str(spec_path),
                       "--store", str(stores["batched"])], tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_ci_sweep_compare_detects_divergence(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SPEC))
    left = tmp_path / "left.jsonl"
    proc = run_repro(["sweep", str(spec_path), "--store", str(left)],
                     tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    # drop one point from the right-hand store
    lines = left.read_text().strip().splitlines()
    right = tmp_path / "right.jsonl"
    right.write_text("\n".join(lines[:-1]) + "\n")
    proc = run_driver(["compare", str(left), str(right)], tmp_path)
    assert proc.returncode == 1
    assert "MISSING" in proc.stdout


def test_ci_sweep_inspect_check_gate(tmp_path):
    """The anomaly-injection gate passes and writes its JSON report."""
    spec_path = tmp_path / "spec.json"
    # the gate needs >= 2 workloads with >= 6 points each to host the
    # conservation break and the baselined outlier
    spec_path.write_text(json.dumps({
        "workloads": ["compute_int", "stream_triad"],
        "axes": {"core.iq_size": [16, 32, 48, 64, 80, 96]},
        "warmup": 150, "measure": 120,
    }))
    report = tmp_path / "report.json"
    store = tmp_path / "inspected.jsonl"
    proc = run_driver(["inspect-check", "--spec", str(spec_path),
                       "--store", str(store), "--report", str(report)],
                      tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "inspect-check OK" in proc.stdout
    assert "FAILED" not in proc.stdout

    payload = json.loads(report.read_text())
    assert payload["points"] == 12
    assert payload["failures"] == []
    assert sorted(payload["injected"].values()) \
        == ["invariant", "outlier"]
    assert sorted(a["check"] for a in payload["flagged"]) \
        == ["invariant", "outlier"]
    assert sorted(payload["resimulated"]) \
        == sorted(payload["injected"])
    # the kept store ends healed: no standing quarantine
    assert '"record": "annotation"' in store.read_text()
