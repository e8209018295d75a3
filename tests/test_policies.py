"""Tests for the repro.policies layer: registry, behaviors, threading.

The differential (bit-identity) guarantees live in
``test_policies_differential.py``; this file covers the policy objects
themselves and how the policy choice threads through SimConfig,
SweepSpec, the session and the CLI.
"""

import io
import json

import pytest

from repro.api import Session, SweepSpec, default_session
from repro.cli import main as cli_main
from repro.core.params import ltp_params
from repro.core.pipeline import Pipeline
from repro.harness.config import SimConfig
from repro.ltp.config import no_ltp, proposed_ltp
from repro.ltp.controller import LTPController
from repro.policies import (DEFAULT_POLICY, AllocationPolicy,
                            BaselineStallPolicy, LTPPolicy, build_policy,
                            policy_descriptions, policy_info, policy_names,
                            policy_needs_oracle)

BUILTIN_POLICIES = ("baseline-stall", "confidence-park", "depth-park",
                    "loadpred-park", "ltp", "model-park", "oracle-park",
                    "random-park")

#: the learned/adaptive trio of repro.policies.learned
LEARNED_POLICIES = ("model-park", "confidence-park", "loadpred-park")


def run_policy(policy_name, workload="lattice_milc", ltp=None,
               warmup=400, measure=300, tmp_dir=None):
    config = SimConfig(workload=workload, core=ltp_params(),
                       ltp=ltp or proposed_ltp(), warmup=warmup,
                       measure=measure, policy=policy_name)
    with Session(cache_dir=str(tmp_dir)) as session:
        return session.run(config, use_cache=False).stats


# ------------------------------------------------------------ registry
def test_builtin_policies_registered():
    assert policy_names() == sorted(BUILTIN_POLICIES)
    assert DEFAULT_POLICY == "ltp"


def test_policy_descriptions_nonempty():
    for name, description in policy_descriptions().items():
        assert description, name


def test_first_doc_line_handles_blank_docstrings():
    from repro.util import first_doc_line
    assert first_doc_line(None) == ""
    assert first_doc_line("") == ""
    assert first_doc_line("\n    \n") == ""  # whitespace-only docstring
    assert first_doc_line("  One line.\n  More.\n") == "One line."


def test_unknown_policy_rejected_everywhere():
    with pytest.raises(KeyError, match="unknown allocation policy"):
        policy_info("teleport")
    with pytest.raises(KeyError, match="registered:"):
        build_policy("teleport", no_ltp(), 190)
    with pytest.raises(KeyError):
        SimConfig(workload="compute_int", policy="teleport").validate()


def test_policy_needs_oracle_metadata():
    assert policy_needs_oracle("ltp", proposed_ltp()) is True
    assert policy_needs_oracle("ltp", no_ltp()) is False
    assert policy_needs_oracle("oracle-park", no_ltp()) is True
    assert policy_needs_oracle("baseline-stall", proposed_ltp()) is False
    assert policy_needs_oracle("random-park", proposed_ltp()) is False


def test_build_policy_types():
    ltp = proposed_ltp()
    assert isinstance(build_policy("ltp", ltp, 190), LTPPolicy)
    baseline = build_policy("baseline-stall", ltp, 190)
    assert isinstance(baseline, BaselineStallPolicy)
    # baseline-stall forces the mechanism off even on an enabled config
    assert baseline.ltp_config.enabled is False
    assert baseline.release_reserve == 0
    for name in ("random-park", "depth-park"):
        policy = build_policy(name, ltp, 190)
        assert isinstance(policy, AllocationPolicy)
        assert policy.name == name
        assert policy.release_reserve == ltp.release_reserve
        assert policy.ports == ltp.ports


def test_oracle_park_requires_oracle():
    with pytest.raises(ValueError, match="oracle"):
        build_policy("oracle-park", proposed_ltp(), 190)


# ----------------------------------------------------- policy behaviour
def test_baseline_stall_never_parks(tmp_path):
    stats = run_policy("baseline-stall", tmp_dir=tmp_path)
    assert stats["ltp_parked"] == 0
    assert stats["ltp_released"] == 0


def test_parking_policies_park_and_drain(tmp_path):
    for name in ("ltp", "oracle-park", "random-park", "depth-park",
                 "model-park", "confidence-park", "loadpred-park"):
        stats = run_policy(name, tmp_dir=tmp_path / name)
        assert stats["committed"] == 300, name
        # everything parked must eventually be released (the run ends
        # with an empty ROB, hence an empty parking structure)
        assert stats["ltp_parked"] == stats["ltp_released"], name
    assert run_policy("oracle-park",
                      tmp_dir=tmp_path / "op2")["ltp_parked"] > 0


def test_random_park_is_deterministic(tmp_path):
    first = run_policy("random-park", tmp_dir=tmp_path / "a")
    second = run_policy("random-park", tmp_dir=tmp_path / "b")
    assert first == second
    assert first["ltp_parked"] > 0


def test_depth_park_tracks_dependence_depth():
    from conftest import make_trace
    # straight-line immediate loads have no producers at all: depth 0
    # everywhere, so depth-park must not park anything
    flat_asm = "\n".join(f"li r{1 + (i % 8)}, {i}" for i in range(120))
    flat = make_trace(flat_asm + "\nhalt", max_insts=200)
    policy = build_policy("depth-park", proposed_ltp(), 190)
    shallow = Pipeline(flat, params=ltp_params(), ltp=proposed_ltp(),
                       policy=policy).run()
    assert shallow.ltp_parked == 0
    # one long add chain crosses the depth threshold while in flight
    chain_asm = "li r1, 1\n" + "\n".join(
        "add r1, r1, r1" for _ in range(120))
    chain = make_trace(chain_asm + "\nhalt", max_insts=200)
    policy2 = build_policy("depth-park", proposed_ltp(), 190)
    deep = Pipeline(chain, params=ltp_params(), ltp=proposed_ltp(),
                    policy=policy2).run()
    assert deep.ltp_parked > 0
    assert deep.committed == len(chain)


def test_pipeline_rejects_policy_and_controller_together():
    """The pipeline takes its LTP controller only inside a policy: a
    hand-built one travels as ``LTPPolicy(controller=...)``, and the
    retired ``controller=`` keyword is refused outright."""
    trace = default_session().get_trace("compute_int", 50)
    controller = LTPController(no_ltp(), 190)
    with pytest.raises(TypeError, match="controller"):
        Pipeline(trace, controller=controller, policy="baseline-stall")
    pipeline = Pipeline(trace, policy=LTPPolicy(no_ltp(), 190,
                                                controller=controller))
    assert pipeline.controller is controller


def test_pipeline_accepts_policy_by_name():
    trace = default_session().get_trace("compute_int", 100)
    pipeline = Pipeline(trace, params=ltp_params(), ltp=proposed_ltp(),
                        policy="random-park")
    assert pipeline.policy.name == "random-park"
    assert pipeline.controller is None  # no LTP controller wrapped
    assert pipeline.run().committed == 100


# -------------------------------------------------- config / spec / keys
def test_default_policy_keeps_payload_and_key():
    config = SimConfig(workload="compute_int")
    payload = config.to_dict()
    assert "policy" not in payload  # pre-policy payload shape
    assert SimConfig.from_dict(payload).key() == config.key()


def test_policy_field_roundtrips_and_changes_key():
    config = SimConfig(workload="compute_int", policy="random-park")
    payload = config.to_dict()
    assert payload["policy"] == "random-park"
    restored = SimConfig.from_dict(payload)
    assert restored.policy == "random-park"
    assert restored.key() == config.key()
    assert config.key() != SimConfig(workload="compute_int").key()


def test_old_payload_without_policy_loads():
    payload = SimConfig(workload="compute_int").to_dict()
    payload.pop("policy", None)
    config = SimConfig.from_dict(payload)
    assert config.policy == DEFAULT_POLICY


def test_sweep_spec_policy_axis():
    spec = SweepSpec(workloads=["compute_int"],
                     axes={"policy": ["baseline-stall", "random-park"],
                           "core.iq_size": [16, 32]})
    configs = spec.expand()
    assert len(configs) == 4
    assert sorted({c.policy for c in configs}) == \
        ["baseline-stall", "random-park"]
    # default-policy specs keep their pre-policy sweep id
    plain = SweepSpec(workloads=["compute_int"],
                      axes={"core.iq_size": [16, 32]})
    assert "policy" not in plain.to_dict()
    roundtrip = SweepSpec.from_dict(spec.to_dict())
    assert roundtrip.sweep_id() == spec.sweep_id()


def test_sweep_spec_base_policy_field():
    spec = SweepSpec(workloads=["compute_int"], policy="depth-park",
                     axes={"core.iq_size": [16, 32]})
    assert all(c.policy == "depth-park" for c in spec.expand())
    assert SweepSpec.from_dict(spec.to_dict()).policy == "depth-park"


def test_session_caches_policies_under_distinct_keys(tmp_path):
    with Session(cache_dir=str(tmp_path)) as session:
        base = SimConfig(workload="compute_int", warmup=200, measure=150)
        results = session.run_many([
            base,
            SimConfig(workload="compute_int", warmup=200, measure=150,
                      policy="random-park"),
        ])
        assert results[0].key != results[1].key
        assert all(r.source == "simulated" for r in results)


def test_policy_compare_preset_registered():
    from repro.harness.experiments import sweep_preset
    spec = sweep_preset("policy-compare", warmup=200, measure=150)
    assert "policy" in spec.axes
    assert set(spec.axes["policy"]) == set(BUILTIN_POLICIES)
    assert len(spec) == 15 * len(BUILTIN_POLICIES)


def test_learned_compare_preset_registered():
    from repro.harness.experiments import (LEARNED_COMPARE_POLICIES,
                                           sweep_preset)
    spec = sweep_preset("learned-compare", warmup=200, measure=150)
    assert spec.axes["policy"] == list(LEARNED_COMPARE_POLICIES)
    assert set(LEARNED_POLICIES) < set(LEARNED_COMPARE_POLICIES)
    assert {"oracle-park", "ltp"} < set(LEARNED_COMPARE_POLICIES)
    assert len(spec) == 15 * len(LEARNED_COMPARE_POLICIES)
    from repro.harness.experiments import sweep_preset_names
    assert "learned-compare" in sweep_preset_names()


def test_policies_experiment_runs_small(tmp_path):
    from repro.api import get_experiment, set_default_session
    previous = set_default_session(Session(cache_dir=str(tmp_path)))
    try:
        exp = get_experiment("policies")
        result = exp.run(warmup=250, measure=150,
                         policies=["baseline-stall", "random-park"])
    finally:
        set_default_session(previous)
    text = exp.render(result)
    assert "random-park" in text and "baseline-stall" in text
    for per_policy in result["by_category"].values():
        assert set(per_policy) == {"baseline-stall", "random-park"}
        assert per_policy["baseline-stall"]["parked_frac"] == 0.0


# ------------------------------------------------------------------ CLI
def run_cli(argv):
    out = io.StringIO()
    code = cli_main(argv, out=out)
    return code, out.getvalue()


def test_cli_run_policy_flag(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    code, text = run_cli(["run", "compute_int", "--warmup", "200",
                          "--measure", "150", "--no-cache",
                          "--policy", "random-park", "--json"])
    assert code == 0
    payload = json.loads(text)
    assert payload["config"]["policy"] == "random-park"
    assert payload["stats"]["committed"] == 150


def test_cli_sweep_policy_summary(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "workloads": ["compute_int"],
        "axes": {"policy": ["baseline-stall", "random-park"]},
        "warmup": 150, "measure": 120,
    }))
    code, text = run_cli(["sweep", str(spec), "--no-cache"])
    assert code == 0
    assert "By allocation policy" in text
    assert "random-park" in text
    code, text = run_cli(["sweep", str(spec), "--no-cache", "--json"])
    payload = json.loads(text)
    assert set(payload["summary"]["policies"]) == \
        {"baseline-stall", "random-park"}
