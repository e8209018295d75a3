"""Tests for the command-line interface."""

import io
import json

import pytest

from repro.cli import build_parser, main
from repro.harness.config import SimConfig


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def test_list_command():
    code, text = run_cli(["list"])
    assert code == 0
    assert "indirect_fig2" in text
    assert "mlp_sensitive" in text
    assert "milc" in text


def test_run_command_baseline():
    code, text = run_cli(["run", "compute_int", "--warmup", "200",
                          "--measure", "200", "--no-cache"])
    assert code == 0
    assert "CPI" in text
    assert "compute_int" in text


def test_run_command_with_ltp_and_overrides():
    code, text = run_cli(["run", "sparse_gather", "--core", "small",
                          "--ltp", "limit-nrnu", "--iq", "16",
                          "--warmup", "400", "--measure", "300",
                          "--no-cache"])
    assert code == 0
    assert "instructions parked" in text


def test_run_command_alias():
    code, text = run_cli(["run", "milc", "--warmup", "200",
                          "--measure", "200", "--no-cache"])
    assert code == 0
    assert "milc" in text


def test_classify_command():
    code, text = run_cli(["classify", "indirect_fig2", "--insts", "1500"])
    assert code == 0
    assert "U+R" in text
    assert "NU+NR" in text


def test_experiment_command_table1():
    code, text = run_cli(["experiment", "table1"])
    assert code == 0
    assert "3.4 GHz" in text


def test_experiment_command_fig2():
    code, text = run_cli(["experiment", "fig2"])
    assert code == 0
    assert "Figure 2" in text


def test_run_json_emits_simresult_payload():
    code, text = run_cli(["run", "compute_int", "--warmup", "200",
                          "--measure", "200", "--no-cache", "--json"])
    assert code == 0
    payload = json.loads(text)
    assert payload["stats"]["committed"] == 200
    assert payload["source"] == "simulated"
    assert payload["cached"] is False
    # the embedded config round-trips to the same cache key
    assert SimConfig.from_dict(payload["config"]).key() == payload["key"]


def test_experiment_json_emits_result_document():
    code, text = run_cli(["experiment", "table1", "--json"])
    assert code == 0
    payload = json.loads(text)
    assert payload["experiment"] == "table1"
    assert "3.4 GHz" in payload["result"]["baseline"]


def test_parser_rejects_unknown_experiment():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["experiment", "fig99"])


# ----------------------------------------------------- discoverability
def test_experiment_list_names_and_descriptions():
    code, text = run_cli(["experiment", "--list"])
    assert code == 0
    for name in ("fig6", "headline", "policies", "table1"):
        assert name in text
    # one-line descriptions ride along
    assert "limit study" in text


def test_experiment_list_json():
    code, text = run_cli(["experiment", "--list", "--json"])
    assert code == 0
    payload = json.loads(text)
    names = [entry["name"] for entry in payload["experiments"]]
    assert "fig6" in names and "policies" in names
    assert all(entry["description"] for entry in payload["experiments"])


def test_experiment_without_name_or_list_errors():
    code, text = run_cli(["experiment"])
    assert code == 2
    assert "--list" in text


def test_sweep_list_presets():
    code, text = run_cli(["sweep", "--list-presets"])
    assert code == 0
    assert "ltp-queues" in text
    assert "policy-compare" in text
    assert "allocation policy" in text


def test_sweep_list_presets_json():
    code, text = run_cli(["sweep", "--list-presets", "--json"])
    assert code == 0
    payload = json.loads(text)
    names = [entry["name"] for entry in payload["presets"]]
    assert names == sorted(names)
    assert "policy-compare" in names
    assert all(entry["description"] for entry in payload["presets"])


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_run_unknown_workload_raises():
    with pytest.raises(KeyError):
        run_cli(["run", "not_a_workload", "--no-cache"])


# -------------------------------------------------------------- sweep
SPEC_PAYLOAD = {
    "workloads": ["compute_int"],
    "axes": {"core.iq_size": [16, 32]},
    "warmup": 150, "measure": 120,
}


def write_spec(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(SPEC_PAYLOAD))
    return path


def test_sweep_command_runs_spec_file(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    code, text = run_cli(["sweep", str(write_spec(tmp_path)), "--json",
                          "--no-cache"])
    assert code == 0
    payload = json.loads(text)
    assert payload["points"] == 2
    assert payload["simulated"] == 2
    assert payload["shard"] is None
    assert payload["summary"]["workloads"]["compute_int"]["points"] == 2
    assert len(payload["results"]) == 2


def test_sweep_command_shard_store_resume_merge(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    spec = write_spec(tmp_path)
    shard_args = []
    for index in range(2):
        store = tmp_path / f"shard{index}.jsonl"
        code, text = run_cli(["sweep", str(spec), "--no-cache",
                              "--shard", f"{index}/2",
                              "--store", str(store), "--json"])
        assert code == 0
        shard_args.append(str(store))
    merged = tmp_path / "merged.jsonl"
    code, text = run_cli(["sweep", "--merge", *shard_args,
                          "--store", str(merged), "--json"])
    assert code == 0
    payload = json.loads(text)
    assert payload["points"] == 2
    # resuming from the merged store simulates nothing
    code, text = run_cli(["sweep", str(spec), "--no-cache", "--resume",
                          "--store", str(merged), "--json"])
    assert code == 0
    payload = json.loads(text)
    assert payload["simulated"] == 0
    assert payload["from_store"] == 2


def test_sweep_merge_validates_named_spec(tmp_path, monkeypatch):
    """SPEC alongside --merge binds the merged store to that sweep."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    spec = write_spec(tmp_path)
    store = tmp_path / "shard.jsonl"
    assert run_cli(["sweep", str(spec), "--no-cache", "--shard", "0/2",
                    "--store", str(store)])[0] == 0
    # matching spec: merge succeeds
    assert run_cli(["sweep", str(spec), "--merge", str(store),
                    "--store", str(tmp_path / "ok.jsonl")])[0] == 0
    # different spec: the merge is refused
    other = tmp_path / "other.json"
    other.write_text(json.dumps({**SPEC_PAYLOAD, "measure": 130}))
    with pytest.raises(ValueError, match="belongs to sweep"):
        run_cli(["sweep", str(other), "--merge", str(store),
                 "--store", str(tmp_path / "bad.jsonl")])


def test_sweep_merge_validates_with_the_budget_flags(tmp_path, monkeypatch):
    """--warmup/--measure shape the SPEC a merge is validated against,
    exactly as they shape the shard runs being merged."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    spec = write_spec(tmp_path)
    budgets = ["--warmup", "100", "--measure", "90"]
    store = tmp_path / "shard.jsonl"
    assert run_cli(["sweep", str(spec), *budgets, "--no-cache",
                    "--shard", "0/2", "--store", str(store)])[0] == 0
    assert run_cli(["sweep", str(spec), *budgets, "--merge", str(store),
                    "--store", str(tmp_path / "ok.jsonl")])[0] == 0
    with pytest.raises(ValueError, match="belongs to sweep"):
        run_cli(["sweep", str(spec), "--merge", str(store),
                 "--store", str(tmp_path / "bad.jsonl")])


def test_sweep_command_table_output(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    code, text = run_cli(["sweep", str(write_spec(tmp_path)),
                          "--no-cache"])
    assert code == 0
    assert "2 points (2 simulated" in text
    assert "compute_int" in text


def test_sweep_command_refuses_existing_store_without_resume(
        tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    spec = write_spec(tmp_path)
    store = tmp_path / "store.jsonl"
    assert run_cli(["sweep", str(spec), "--store", str(store),
                    "--no-cache"])[0] == 0
    code, text = run_cli(["sweep", str(spec), "--store", str(store),
                          "--no-cache"])
    assert code == 2
    assert "--resume" in text


def test_sweep_command_argument_errors(tmp_path):
    code, text = run_cli(["sweep"])
    assert code == 2 and "SPEC" in text
    code, text = run_cli(["sweep", "--merge", "x.jsonl"])
    assert code == 2 and "--store" in text
    code, text = run_cli(["sweep", str(tmp_path / "spec.json"),
                          "--resume"])
    assert code == 2 and "--store" in text
    with pytest.raises(ValueError, match="neither a JSON file nor"):
        run_cli(["sweep", "no-such-preset"])
    with pytest.raises(SystemExit):  # argparse rejects bad shards
        run_cli(["sweep", "x.json", "--shard", "4/4"])


def test_sweep_preset_resolves(tmp_path, monkeypatch):
    """Preset names expand without a spec file (shard keeps it tiny)."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    from repro.harness.experiments import sweep_preset
    spec = sweep_preset("ltp-queues")
    assert len(spec) == 90  # 15 workloads x 3 IQ sizes x LTP on/off
    assert len(spec.workloads) == 15


def test_sweep_pool_matches_serial(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    spec = write_spec(tmp_path)
    serial_store = tmp_path / "serial.jsonl"
    code, _ = run_cli(["sweep", str(spec), "--no-cache",
                       "--store", str(serial_store)])
    assert code == 0
    pool_store = tmp_path / "pooled.jsonl"
    code, text = run_cli(["sweep", str(spec), "--no-cache", "--jobs", "2",
                          "--store", str(pool_store), "--json"])
    assert code == 0
    payload = json.loads(text)
    assert payload["points"] == 2
    assert {row["backend"] for row in payload["results"]} \
        == {"process-pool"}
    # the lifecycle-event log rides the JSON document
    kinds = [event["kind"] for event in payload["events"]]
    assert kinds.count("submitted") == 2
    assert kinds.count("finished") == 2
    from repro.api import ResultStore
    with ResultStore(serial_store) as a, ResultStore(pool_store) as b:
        left, right = a.load(), b.load()
        assert set(left) == set(right)
        assert all(left[key].stats == right[key].stats for key in left)


def test_sweep_table_reports_the_shard(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    code, text = run_cli(["sweep", str(write_spec(tmp_path)),
                          "--no-cache", "--shard", "1/2"])
    assert code == 0
    assert "(shard 1/2)" in text


def test_sweep_progress_renders_line_updates(tmp_path, monkeypatch,
                                             capsys):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    code, text = run_cli(["sweep", str(write_spec(tmp_path)),
                          "--no-cache", "--progress"])
    assert code == 0
    progress = capsys.readouterr().err
    assert "[2/2]" in progress
    assert "finished" in progress


def test_sweep_budget_overrides_apply(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    code, text = run_cli(["sweep", str(write_spec(tmp_path)),
                          "--no-cache", "--warmup", "100",
                          "--measure", "90", "--json"])
    assert code == 0
    payload = json.loads(text)
    configs = [row["config"] for row in payload["results"]]
    assert all(c["warmup"] == 100 and c["measure"] == 90
               for c in configs)
