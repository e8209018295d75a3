"""The learned-policy subsystem: trainer, frozen artifacts, policies.

The pipeline-level guarantees (golden-corpus bit-identity,
skip-equivalence, conservation) for ``model-park`` /
``confidence-park`` / ``loadpred-park`` live in
``test_policies_differential.py`` and ``test_kernel_differential.py``;
this file covers the offline layer:
training determinism, the frozen-artifact contract (validation,
content hashing, clear failure modes), how a model payload threads
through ``SimConfig`` and the cache key, and the ``repro train`` CLI.
"""

import dataclasses
import io
import json

import pytest

from repro.api import Session
from repro.cli import main as cli_main
from repro.harness.config import SimConfig
from repro.policies import build_policy
from repro.policies.learned import (FEATURE_NAMES, ModelArtifact,
                                    ModelArtifactError, evaluate,
                                    fit_perceptron, train_model)
from repro.policies.learned.artifact import (default_artifact_path,
                                             load_default_payload,
                                             payload_hash)
from repro.policies.learned.features import dataset_for_workload
from repro.workloads import get_workload

#: small budgets keeping every training run in this file fast
TRAIN_KW = dict(train_workloads=["ptrchase_astar"],
                holdout_workloads=["compute_fp"], insts=600)


def small_artifact(**overrides):
    kw = dict(TRAIN_KW)
    kw.update(overrides)
    artifact, report = train_model(**kw)
    return artifact, report


# ================================================================
# dataset extraction
# ================================================================
def test_dataset_is_deterministic_and_labelled():
    samples = dataset_for_workload(get_workload("ptrchase_astar"), 500)
    again = dataset_for_workload(get_workload("ptrchase_astar"), 500)
    assert samples == again
    assert samples, "empty dataset"
    labels = {label for _, label in samples}
    assert labels <= {0, 1} and len(labels) == 2, \
        "oracle labels must include both classes"
    for features, _ in samples:
        assert len(features) == len(FEATURE_NAMES)
        assert all(isinstance(v, int) and v >= 0 for v in features)


# ================================================================
# training determinism
# ================================================================
def test_same_traces_and_seed_give_byte_identical_artifact(tmp_path):
    first, report_a = small_artifact()
    second, report_b = small_artifact()
    assert first.to_payload() == second.to_payload()
    assert report_a == report_b
    path_a = first.save(tmp_path / "a.json")
    path_b = second.save(tmp_path / "b.json")
    assert path_a.read_bytes() == path_b.read_bytes()


def test_different_seed_changes_weights():
    first, _ = small_artifact()
    second, _ = small_artifact(seed=first.provenance["seed"] + 1)
    # the shuffle order is the only randomness; a different seed walks
    # the mistakes in a different order and lands on different weights
    assert first.to_payload() != second.to_payload()
    assert first.content_hash != second.content_hash


def test_fit_perceptron_rejects_bad_inputs():
    with pytest.raises(ValueError, match="empty"):
        fit_perceptron([])
    sample = (tuple([1] * len(FEATURE_NAMES)), 1)
    with pytest.raises(ValueError, match="epochs"):
        fit_perceptron([sample], epochs=0)


def test_train_model_rejects_overlapping_holdout():
    with pytest.raises(ValueError, match="held out"):
        train_model(train_workloads=["ptrchase_astar"],
                    holdout_workloads=["ptrchase_astar"], insts=300)


def test_report_carries_holdout_accuracy(tmp_path):
    artifact, report = small_artifact()
    assert 0.0 <= report["holdout"]["accuracy"] <= 1.0
    assert report["content_hash"] == artifact.content_hash
    assert set(report["holdout_workloads"]) == {"compute_fp"}
    # evaluate() agrees with the report when re-run on the same data
    samples = dataset_for_workload(get_workload("compute_fp"),
                                   TRAIN_KW["insts"])
    assert evaluate(artifact, samples) == \
        report["holdout_workloads"]["compute_fp"]


# ================================================================
# the frozen-artifact contract
# ================================================================
def test_artifact_roundtrips_through_payload_and_file(tmp_path):
    artifact, _ = small_artifact()
    payload = artifact.to_payload()
    rebuilt = ModelArtifact.from_payload(payload)
    assert rebuilt.weights == artifact.weights
    assert rebuilt.bias == artifact.bias
    assert rebuilt.threshold == artifact.threshold
    path = artifact.save(tmp_path / "model.json")
    assert ModelArtifact.load(path).to_payload() == payload


def test_corrupted_artifact_fails_loudly(tmp_path):
    artifact, _ = small_artifact()
    payload = artifact.to_payload()
    tampered = dict(payload)
    tampered["weights"] = list(payload["weights"])
    tampered["weights"][0] += 1  # flip a weight, keep the old hash
    with pytest.raises(ModelArtifactError, match="content hash"):
        ModelArtifact.from_payload(tampered)
    path = tmp_path / "model.json"
    artifact.save(path)
    text = path.read_text().replace('"bias": ', '"bias": 9')
    path.write_text(text)
    with pytest.raises(ModelArtifactError, match="content hash"):
        ModelArtifact.load(path)


def test_version_mismatch_fails_with_retrain_hint():
    payload = small_artifact()[0].to_payload()
    stale = dict(payload, version=99)
    stale["content_hash"] = payload_hash(stale)
    with pytest.raises(ModelArtifactError, match="repro train"):
        ModelArtifact.from_payload(stale)
    schema = dict(payload["feature_schema"], version=99)
    stale = dict(payload, feature_schema=schema)
    stale["content_hash"] = payload_hash(stale)
    with pytest.raises(ModelArtifactError, match="feature schema"):
        ModelArtifact.from_payload(stale)


def test_malformed_payloads_fail_loudly():
    with pytest.raises(ModelArtifactError, match="mapping"):
        ModelArtifact.from_payload([1, 2, 3])
    with pytest.raises(ModelArtifactError, match="format"):
        ModelArtifact.from_payload({"format": "something-else"})
    payload = small_artifact()[0].to_payload()
    short = dict(payload, weights=payload["weights"][:-1])
    short["content_hash"] = payload_hash(short)
    with pytest.raises(ModelArtifactError, match="integers"):
        ModelArtifact.from_payload(short)


def test_committed_example_artifact_is_valid():
    path = default_artifact_path()
    assert path.is_file(), \
        "examples/models/model-park-v1.json must be committed"
    artifact = ModelArtifact.load(path)
    # byte-stable freeze: re-saving the committed artifact is a no-op
    assert (json.dumps(artifact.to_payload(), indent=2, sort_keys=True)
            + "\n") == path.read_text()
    assert load_default_payload() == artifact.to_payload()


# ================================================================
# SimConfig embedding and cache-key stability
# ================================================================
def test_model_field_roundtrips_and_changes_key():
    payload = small_artifact()[0].to_payload()
    plain = SimConfig(workload="compute_int", policy="model-park")
    with_model = dataclasses.replace(plain, model=payload)
    with_model.validate()
    assert "model" not in plain.to_dict()  # historical payload shape
    restored = SimConfig.from_dict(with_model.to_dict())
    assert restored.model == payload
    assert restored.key() == with_model.key()
    assert with_model.key() != plain.key()


def test_different_weights_key_differently():
    artifact, _ = small_artifact()
    other = ModelArtifact(
        weights=tuple(w + 1 for w in artifact.weights),
        bias=artifact.bias)
    first = SimConfig(workload="compute_int", policy="model-park",
                      model=artifact.to_payload())
    second = dataclasses.replace(first, model=other.to_payload())
    assert first.key() != second.key()


def test_config_validate_rejects_bad_model_payload():
    config = SimConfig(workload="compute_int", policy="model-park",
                       model={"format": "not-a-model"})
    with pytest.raises(ModelArtifactError):
        config.validate()


def test_embedded_model_drives_a_run(tmp_path):
    artifact, _ = small_artifact()
    config = SimConfig(workload="lattice_milc", policy="model-park",
                       warmup=300, measure=200,
                       model=artifact.to_payload())
    with Session(cache_dir=str(tmp_path)) as session:
        result = session.run(config, use_cache=False)
    assert result.stats["committed"] == 200
    assert result.stats["ltp_parked"] == result.stats["ltp_released"]


def test_model_park_defaults_to_committed_artifact():
    from repro.ltp.config import proposed_ltp
    policy = build_policy("model-park", proposed_ltp(), 190)
    assert policy.artifact.to_payload() == load_default_payload()


def test_non_model_policies_ignore_model_payload(tmp_path):
    # a model embedded next to a non-learned policy must not reach the
    # policy constructor (build_policy filters on needs_model)
    payload = small_artifact()[0].to_payload()
    config = SimConfig(workload="compute_int", policy="ltp",
                       warmup=200, measure=150, model=payload)
    with Session(cache_dir=str(tmp_path)) as session:
        result = session.run(config, use_cache=False)
    assert result.stats["committed"] == 150


# ================================================================
# the repro train CLI
# ================================================================
def run_cli(argv):
    out = io.StringIO()
    code = cli_main(argv, out=out)
    return code, out.getvalue()


TRAIN_ARGV = ["train", "--workloads", "ptrchase_astar",
              "--holdout", "compute_fp", "--insts", "600"]


def test_cli_train_json_report():
    code, text = run_cli(TRAIN_ARGV + ["--json"])
    assert code == 0
    payload = json.loads(text)
    assert payload["artifact"] is None  # dry run: nothing written
    assert len(payload["weights"]) == len(FEATURE_NAMES)
    assert payload["report"]["holdout"]["samples"] > 0
    assert payload["floor_ok"] is True


def test_cli_train_writes_loadable_artifact(tmp_path):
    out_path = tmp_path / "model.json"
    code, text = run_cli(TRAIN_ARGV + ["--out", str(out_path)])
    assert code == 0
    assert "content hash" in text
    artifact = ModelArtifact.load(out_path)
    direct, _ = small_artifact()
    assert artifact.to_payload() == direct.to_payload()


def test_cli_train_check_floor_gates_exit_code(tmp_path):
    code, _ = run_cli(TRAIN_ARGV + ["--check-floor", "0.0"])
    assert code == 0
    code, text = run_cli(TRAIN_ARGV + ["--check-floor", "1.01"])
    assert code == 1
    assert "below the floor" in text


def test_cli_train_rejects_bad_arguments():
    code, text = run_cli(["train", "--workloads", "ptrchase_astar",
                          "--holdout", "ptrchase_astar"])
    assert code == 2
    assert "held out" in text


def test_cli_run_model_flag(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    model_path = tmp_path / "model.json"
    assert run_cli(TRAIN_ARGV + ["--out", str(model_path)])[0] == 0
    code, text = run_cli(["run", "lattice_milc", "--policy", "model-park",
                          "--model", str(model_path), "--warmup", "300",
                          "--measure", "200", "--no-cache", "--json"])
    assert code == 0
    payload = json.loads(text)
    assert payload["config"]["model"]["content_hash"] == \
        ModelArtifact.load(model_path).content_hash
    assert payload["stats"]["committed"] == 200


def test_cli_run_rejects_corrupt_model(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    bad = tmp_path / "bad.json"
    bad.write_text("{\"format\": \"nope\"}")
    code, text = run_cli(["run", "compute_int", "--policy", "model-park",
                          "--model", str(bad), "--no-cache"])
    assert code == 2
    assert "bad model artifact" in text


# ================================================================
# policy behaviour sanity
# ================================================================
def test_confidence_park_confidence_table_moves(tmp_path):
    from repro.ltp.config import proposed_ltp
    from repro.policies.learned import ConfidenceParkPolicy
    policy = build_policy("confidence-park", proposed_ltp(), 190)
    assert isinstance(policy, ConfidenceParkPolicy)
    config = SimConfig(workload="lattice_milc", policy="confidence-park",
                       warmup=300, measure=200)
    with Session(cache_dir=str(tmp_path)) as session:
        stats = session.run(config, use_cache=False).stats
    assert stats["committed"] == 200
    assert stats["ltp_parked"] == stats["ltp_released"]


def test_loadpred_park_uses_hierarchy_when_attached():
    from repro.core.params import ltp_params
    from repro.core.pipeline import Pipeline
    from repro.api import default_session
    from repro.ltp.config import proposed_ltp
    trace = default_session().get_trace("lattice_milc", 400)
    pipeline = Pipeline(trace, params=ltp_params(), ltp=proposed_ltp(),
                        policy="loadpred-park")
    # the pipeline attaches its memory hierarchy to the policy
    assert pipeline.policy._hierarchy is pipeline.hierarchy
    stats = pipeline.run()
    assert stats.committed == len(trace)
    assert stats.ltp_parked == stats.ltp_released
