"""The golden corpus itself: coverage, stable derivation, and teeth.

The replay tests live next to the behaviour they guard
(``test_kernel_differential.py`` for the program and session grids,
``test_policies_differential.py`` for the real-workload grid).  This
module checks the corpus they read: that it covers every grid cell,
that the seeds still derive the recorded cases, and that a single
changed value anywhere in an entry fails the replay.
"""

import json

import pytest

from repro.policies import policy_names

import golden_corpus


@pytest.fixture(scope="module")
def corpus():
    return golden_corpus.load_corpus()


def test_corpus_covers_every_grid(corpus):
    programs = golden_corpus.index(corpus, "programs")
    assert set(programs) == {(seed, name)
                             for seed in golden_corpus.PROGRAM_SEEDS
                             for name in policy_names()}, \
        "a registered policy has no corpus entry: re-record the corpus"
    session = golden_corpus.index(corpus, "session")
    assert set(session) == {(seed,) for seed in golden_corpus.SESSION_SEEDS}
    workloads = golden_corpus.index(corpus, "workloads")
    assert set(workloads) == {
        (workload, label, name)
        for workload in golden_corpus.GRID_WORKLOADS
        for label, _ in golden_corpus.GRID_LTP
        for name in golden_corpus.ENGINE_GRID_POLICIES}
    assert len(corpus) == len(programs) + len(session) + len(workloads)
    for entry in corpus:
        assert set(entry["strict"]) <= set(entry["stats"])
        assert entry["stats"]["committed"] > 0


def test_session_seeds_derive_the_recorded_configs(corpus):
    for (seed,), entry in golden_corpus.index(corpus, "session").items():
        assert golden_corpus.session_config(seed).to_dict() == \
            entry["config"], seed


def test_changing_one_recorded_value_fails_the_replay(corpus, tmp_path):
    entries = golden_corpus.index(corpus, "programs")
    seed = golden_corpus.PROGRAM_SEEDS[0]
    entry = entries[(seed, "ltp")]
    case = golden_corpus.program_case(seed)
    runs = {skip: golden_corpus.run_program(case, "ltp", skip)
            for skip in (True, False)}
    for skip, stats in runs.items():
        golden_corpus.assert_matches(entry, stats, skip)

    # every recorded field takes part in the comparison
    numeric = [name for name, value in entry["stats"].items()
               if isinstance(value, (int, float))]
    assert len(numeric) == len(entry["stats"])
    for name in numeric:
        changed = dict(entry, stats=dict(entry["stats"]))
        changed["stats"][name] += 1
        with pytest.raises(AssertionError):
            golden_corpus.assert_matches(changed, runs[True], True)

    # one value changed in the corpus file fails the replay that reads it
    lines = (golden_corpus.CORPUS.read_text()).splitlines()
    position = corpus.index(entry)
    tampered = json.loads(lines[position])
    tampered["stats"]["cycles"] += 1
    lines[position] = json.dumps(tampered, sort_keys=True)
    copy = tmp_path / "engine_corpus.jsonl"
    copy.write_text("\n".join(lines) + "\n")
    reloaded = golden_corpus.index(golden_corpus.load_corpus(copy),
                                   "programs")[(seed, "ltp")]
    for skip in (True, False):
        with pytest.raises(AssertionError):
            golden_corpus.assert_matches(reloaded, runs[skip], skip)
