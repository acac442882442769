from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from dataclasses import FrozenInstanceError
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ranweave import harness, retrieval
from ranweave.agents import Mode, RunContext, orchestrate_batch, query_text
from ranweave.cli import main as cli_main
from ranweave.harness import (
    FixtureError,
    RunReport,
    build_knowledge_store,
    emit_report,
    load_fixtures,
    make_transport,
    run_scenario,
    validate_fixture_soundness,
)
from ranweave.memory import MemoryBuffer
from ranweave.model import DeploymentState
from ranweave.planner import InfeasibleIntentError, max_conflict_free_subset, synthesize_ground_truth
from ranweave.retrieval import embed
from ranweave.transport import CHAT_BASE_URL_ENV, CHAT_MODEL_ENV, HttpChatTransport

from .helpers import PERFBENCH

# One sha256 over RunReport.to_dict() for bundled scenarios 1-4 x every mode x
# seeds 0-2 under mock-noisy, and each mode's agent calls over the same grid.
# A change that moves a run's outcome, or spends more calls, must say so here.
# Perception is asked only when the conflict graph holds a record; that gate
# alone moves no report, as the noisy mock keys its draws per role and intent.
# The score's correct-candidates field lengthens each score_history entry by
# one; no other field of these reports moved with it.
REPORT_DIGEST = "c9c1049b53daf8f4273652fbf3b82342b9ccc81c76e7b775ef58139740e09ef3"
GRID_CALLS = {"f5": 45, "sa": 127, "nr": 71, "np": 46, "fcfs": 45}


def test_load_fixtures_counts(bundle):
    assert len(bundle.registry) == 14
    assert len(bundle.intents) == 7
    assert len(bundle.scenarios) == 4


def test_scenario_compositions(bundle):
    layouts = {
        1: ((3, 4), (2,)),
        2: ((1, 2, 7), (5,)),
        3: ((2, 4, 5, 6), (3, 7)),
        4: ((1, 2, 3, 4, 5, 6, 7), ()),
    }
    for scenario_id, (new, pre) in layouts.items():
        spec = bundle.scenarios[scenario_id]
        assert tuple(sorted(spec.new_intents)) == new
        assert tuple(sorted(spec.pre_deployed_intents)) == pre


def test_scenario_4_starts_empty(bundle):
    assert bundle.scenarios[4].pre_deployed_intents == ()


def _copy_catalog(bundle, tmp_path, **edits):
    """A copy of the bundled catalog; each edit maps a file stem to a function of its JSON."""
    target = tmp_path / "fixtures"
    shutil.copytree(bundle.knowledge_dir.parent, target)
    for stem, edit in edits.items():
        file = target / f"{stem}.json"
        file.write_text(json.dumps(edit(json.loads(file.read_text()))))
    return target


def _grow_catalog(bundle, tmp_path):
    """The bundled catalog plus intent 8 (intent 4's needs) and scenario 5 (new 3 and 8, pre 2)."""

    def add_intent(intents):
        return intents + [dict(intents[3], id=8, text="Detect signalling storms and steer around them.")]

    def add_scenario(scenarios):
        return scenarios + [{"id": 5, "new_intents": [3, 8], "pre_deployed_intents": [2]}]

    return _copy_catalog(bundle, tmp_path, intents=add_intent, scenarios=add_scenario)


def test_load_accepts_catalog_of_another_size(tmp_path, bundle):
    grown = load_fixtures(_grow_catalog(bundle, tmp_path))
    assert len(grown.intents) == 8
    assert sorted(grown.scenarios) == [1, 2, 3, 4, 5]
    assert grown.scenarios[5].new_intents == (3, 8)
    assert validate_fixture_soundness(grown) == []


def test_load_rejects_scenario_with_unknown_intent(tmp_path, bundle):
    def edit(scenarios):
        scenarios[0]["new_intents"] = [3, 99]
        return scenarios

    with pytest.raises(FixtureError, match=r"scenarios.json: scenario 1: unknown intent ids \[99\]"):
        load_fixtures(_copy_catalog(bundle, tmp_path, scenarios=edit))


@pytest.mark.parametrize("stem", ["xapps", "intents", "scenarios"])
def test_load_rejects_duplicate_ids(tmp_path, bundle, stem):
    with pytest.raises(FixtureError, match=rf"{stem}.json: entry \d+: duplicate id"):
        load_fixtures(_copy_catalog(bundle, tmp_path, **{stem: lambda doc: doc + doc[:1]}))


def _set(index, key, value):
    def edit(doc):
        doc[index][key] = value
        return doc

    return edit


def _drop(index, key):
    def edit(doc):
        del doc[index][key]
        return doc

    return edit


@pytest.mark.parametrize(
    "stem, edit, match",
    [
        ("scenarios", _drop(0, "id"), "entry 0: missing field 'id'"),
        ("scenarios", _set(1, "id", "one"), "entry 1: expected an integer id"),
        ("scenarios", _set(0, "new_intents", [3, "4"]), "entry 0: expected an integer id"),
        ("scenarios", _set(0, "new_intents", [3, 4, 3]), "scenario 1: intents [3] listed more than once"),
        ("scenarios", _set(0, "new_intents", [3, 4, 2]), "scenario 1: intents [2] listed more than once"),
        ("intents", _set(2, "id", "one"), "entry 2: expected an integer id"),
        ("intents", _set(0, "id", True), "entry 0: expected an integer id"),
        (
            "intents",
            _set(0, "target_kpis", {"mobility_robustness": "-1"}),
            "entry 0: intent 1: target direction on 'mobility_robustness' must be -1 or +1, found '-1'",
        ),
        (
            "intents",
            _set(0, "target_kpis", {"mobility_robustness": True}),
            "entry 0: intent 1: target direction on 'mobility_robustness' must be -1 or +1, found True",
        ),
        (
            "xapps",
            _set(0, "kpi_effects", {"mobility_robustness": 0.9}),
            "entry 0: xApp 'mobility_predictor': effect on 'mobility_robustness' must be -1, 0 or +1, "
            "found 0.9",
        ),
        (
            "xapps",
            _set(0, "kpi_effects", {"mobility_robustness": False}),
            "entry 0: xApp 'mobility_predictor': effect on 'mobility_robustness' must be -1, 0 or +1, "
            "found False",
        ),
        ("xapps", lambda doc: {"profiles": doc}, "expected a JSON array, found dict"),
        ("xapps", lambda doc: doc + ["oops"], "entry 14:"),
        ("xapps", _set(0, "kpi_effects", float("inf")), "not a JSON value"),
        ("scenarios", lambda doc: {str(s["id"]): s for s in doc}, "expected a JSON array"),
        ("intents", lambda doc: [list(doc[0].items())] + doc[1:], "entry 0:"),
        ("vendor_matrix", lambda doc: [doc], "list indices must be integers"),
        (
            "xapps",
            _set(1, "controlled_params", "tx_power"),
            "entry 1: controlled_params must be an array of strings, found 'tx_power'",
        ),
        ("xapps", _set(0, "capabilities", "mobility_prediction"), "entry 0: capabilities must be an array"),
        ("xapps", _set(0, "interfaces", ["e2-report", 2]), "entry 0: interfaces must be an array of strings"),
        (
            "intents",
            _set(0, "required_capabilities", "traffic_steering"),
            "entry 0: required_capabilities must be an array of strings",
        ),
        ("intents", _set(2, "required_xapps", "mobility_predictor"), "entry 2: required_xapps must be an array"),
        (
            "vendor_matrix",
            lambda doc: {"incompatible": doc["incompatible"] + ["xy"]},
            "an incompatible pair must be an array of strings, found 'xy'",
        ),
        (
            "vendor_matrix",
            lambda doc: {"incompatible": [["slicing-a", 7]]},
            "an incompatible pair must be an array of strings",
        ),
        (
            "vendor_matrix",
            lambda doc: {"incompatible": [["slicing-a", "slicing-b", "ts-alpha"]]},
            "an incompatible pair must hold two dialects",
        ),
        (
            "intents",
            _set(0, "target_kpis", [["mobility_robustness", 1]]),
            "entry 0: target_kpis must be an object, found [['mobility_robustness', 1]]",
        ),
        ("xapps", _set(0, "kpi_effects", ["mobility_robustness"]), "entry 0: kpi_effects must be an object, found"),
        ("xapps", _set(0, "id", ""), "entry 0: xApp id must be nonempty"),
        ("intents", _set(0, "target_kpis", {}), "entry 0: intent 1 targets no KPIs"),
        ("intents", _set(0, "required_capabilities", []), "entry 0: intent 1 requires no capabilities"),
        ("intents", _set(6, "required_xapps", ["ghost_xapp"]), "intent 7 mandates unregistered xApps ['ghost_xapp']"),
    ],
    ids=[
        "scenario-without-id",
        "scenario-id-string",
        "scenario-intent-string",
        "scenario-intent-repeated",
        "scenario-intent-new-and-pre",
        "intent-id-string",
        "intent-id-bool",
        "intent-target-string",
        "intent-target-bool",
        "xapp-effect-float",
        "xapp-effect-bool",
        "xapps-object",
        "xapp-entry-string",
        "xapp-infinity",
        "scenarios-object",
        "intent-entry-list",
        "matrix-list",
        "xapp-params-string",
        "xapp-capabilities-string",
        "xapp-interface-int",
        "intent-capabilities-string",
        "intent-xapps-string",
        "matrix-pair-string",
        "matrix-dialect-int",
        "matrix-pair-of-three",
        "intent-targets-list",
        "xapp-effects-list",
        "xapp-id-empty",
        "intent-targets-none",
        "intent-capabilities-none",
        "intent-xapp-unregistered",
    ],
)
def test_malformed_fixture_files_raise_fixture_error(tmp_path, bundle, stem, edit, match):
    with pytest.raises(FixtureError, match=rf"^{stem}.json: .*{re.escape(match)}"):
        load_fixtures(_copy_catalog(bundle, tmp_path, **{stem: edit}))


@pytest.mark.parametrize("stem", ["xapps", "intents", "scenarios", "vendor_matrix"])
def test_a_missing_fixture_file_is_refused_naming_it(tmp_path, bundle, stem):
    root = _copy_catalog(bundle, tmp_path)
    (root / f"{stem}.json").unlink()
    with pytest.raises(FixtureError, match=rf"^{stem}.json: fixture file missing$"):
        load_fixtures(root)


def test_a_number_past_the_float_range_is_refused_as_no_json(tmp_path, bundle):
    """1e400 decodes to an infinity; the loader refuses the file as it does
    the literal Infinity, before any entry check sees the value."""
    root = _copy_catalog(bundle, tmp_path, xapps=_set(0, "kpi_effects", {"mobility_robustness": "?"}))
    file = root / "xapps.json"
    file.write_text(file.read_text().replace('"?"', "1e400"))
    with pytest.raises(FixtureError, match=r"^xapps.json: invalid JSON: 1e400 is past the float range$"):
        load_fixtures(root)


@pytest.mark.parametrize(
    "stem, index, key, value",
    [
        ("xapps", 11, "dialect", ["slicing-a"]),
        ("xapps", 11, "vendor", 7),
        ("xapps", 11, "id", 11),
        ("xapps", 11, "name", None),
        ("xapps", 11, "stage", ["act"]),
        ("intents", 0, "text", ["steer around congestion"]),
    ],
    ids=["dialect-list", "vendor-int", "id-int", "name-null", "stage-list", "text-list"],
)
def test_loader_refuses_a_non_string_where_a_string_belongs(tmp_path, bundle, stem, index, key, value):
    """A list or number is refused, not loaded as its repr: a dialect of
    "['slicing-a']" would match no vendor-matrix pair and drop a clash."""
    with pytest.raises(FixtureError, match=rf"^{stem}.json: entry {index}: {key} must be a string, found "):
        load_fixtures(_copy_catalog(bundle, tmp_path, **{stem: _set(index, key, value)}))


@pytest.mark.parametrize(
    "stem, index, key, value",
    [
        ("intents", 0, "text", "Steer around congestion.\ud800"),
        ("intents", 0, "required_capabilities", ["traffic_steering", "\ud800"]),
        ("xapps", 11, "id", "slicing_ctrl\ud800"),
    ],
    ids=["intent-text", "capability", "xapp-id"],
)
def test_a_lone_surrogate_is_refused_in_one_line_naming_the_field(tmp_path, bundle, capsys, stem, index, key, value):
    """A JSON "\\ud800" escape loads as a string that does not encode as
    UTF-8, so it would crash the first embed or prompt of a run. The loader
    refuses it, and every command stops with one line naming the field."""
    root = _copy_catalog(bundle, tmp_path, **{stem: _set(index, key, value)})
    assert "\\ud800" in (root / f"{stem}.json").read_text()
    with pytest.raises(FixtureError, match=rf"^{stem}.json: entry {index}: {key} must be UTF-8 text, found "):
        load_fixtures(root)
    for command in (["run"], ["fixtures", "validate"]):
        assert cli_main(["--fixtures", str(root), *command]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"ranweave: {stem}.json: entry {index}: {key} must be UTF-8 text")
        assert captured.err.count("\n") == 1


_FIXTURE_STEMS = ("xapps", "intents", "scenarios", "vendor_matrix")
_FIELDS = [
    "id", "name", "vendor", "dialect", "capabilities", "controlled_params", "kpi_effects",
    "stage", "interfaces", "text", "target_kpis", "required_capabilities", "required_xapps",
    "new_intents", "pre_deployed_intents", "incompatible",
]
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
    | st.sampled_from(["act", "sense", "latency", "traffic_steering", "mobility_predictor"]),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(_FIELDS) | st.text(max_size=4), children, max_size=5),
    max_leaves=30,
)


@st.composite
def _fixture_documents(draw, bundled):
    """A file and its new JSON: any value, or the bundled document with one value replaced."""
    stem = draw(st.sampled_from(_FIXTURE_STEMS))
    if draw(st.booleans()):
        return stem, draw(_json_values)
    document = json.loads(json.dumps(bundled[stem]))
    parent, key, node = None, None, document
    while isinstance(node, (dict, list)) and node and (parent is None or draw(st.booleans())):
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        parent, node = node, node[key]
    if parent is None:
        return stem, draw(_json_values)
    parent[key] = draw(_json_values)
    return stem, document


_BUNDLED = {
    stem: json.loads((load_fixtures().knowledge_dir.parent / f"{stem}.json").read_text())
    for stem in _FIXTURE_STEMS
}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(change=_fixture_documents(_BUNDLED))
def test_load_fixtures_is_total(change):
    """Whatever JSON one fixture file holds, the loader returns a bundle or raises FixtureError."""
    stem, document = change
    with tempfile.TemporaryDirectory() as root:
        for name, original in _BUNDLED.items():
            content = document if name == stem else original
            (Path(root) / f"{name}.json").write_text(json.dumps(content))
        try:
            load_fixtures(root)
        except FixtureError:
            pass


def test_load_error_names_file_and_field(tmp_path, bundle):
    source = bundle.knowledge_dir.parent
    target = tmp_path / "fixtures"
    shutil.copytree(source, target)
    intents = json.loads((target / "intents.json").read_text())
    intents[0]["required_capabilities"] = ["does_not_exist"]
    (target / "intents.json").write_text(json.dumps(intents))
    with pytest.raises(FixtureError, match="intents.json"):
        load_fixtures(target)


def test_fixture_soundness_gate(bundle):
    assert validate_fixture_soundness(bundle) == []


def test_fixture_soundness_gate_names_conflicting_references(tmp_path, bundle):
    # Intent 8 is intent 2 with a latency target opposite to intent 3's, so
    # their references interfere; scenario 5 has both pre-deployed.
    def add_intent(intents):
        return intents + [dict(intents[1], id=8, target_kpis={"latency": 1})]

    def add_scenario(scenarios):
        return scenarios + [{"id": 5, "new_intents": [1], "pre_deployed_intents": [3, 8]}]

    root = _copy_catalog(bundle, tmp_path, intents=add_intent, scenarios=add_scenario)
    assert validate_fixture_soundness(load_fixtures(root)) == [
        "scenario 5: reference pipelines pre:3 and pre:8 conflict: latency"
    ]


def test_fixture_soundness_gate_names_new_intents_that_cannot_all_deploy(tmp_path, bundle):
    # Intent 8 is intent 2 with a latency target opposite to intent 3's;
    # scenario 5 asks for both, so the reference objective deploys only 3.
    def add_intent(intents):
        return intents + [dict(intents[1], id=8, target_kpis={"latency": 1})]

    def add_scenario(scenarios):
        return scenarios + [{"id": 5, "new_intents": [3, 8], "pre_deployed_intents": []}]

    root = _copy_catalog(bundle, tmp_path, intents=add_intent, scenarios=add_scenario)
    assert validate_fixture_soundness(load_fixtures(root)) == [
        "scenario 5: reference objective covers [3] instead of all of [3, 8]",
        "scenario 5: reference pipelines 3 and 8 conflict: latency",
    ]


def test_every_scenario_oracle_covers_all_new_intents(bundle):
    for spec in bundle.scenarios.values():
        result = bundle.setup(spec.id).oracle
        assert result.max_subset == frozenset(spec.new_intents)


def test_run_scenario_oracle_mode_perfect(bundle):
    report = run_scenario(bundle, 1, "f5", "mock-oracle", seed=0)
    assert report.generation_accuracy == 1.0
    assert report.deployment_success == 1.0
    assert report.iterations_to_synthesis == 1
    assert report.iterations_to_deployment == 1
    assert report.converged


def test_run_scenario_reports_are_deterministic(bundle):
    first = run_scenario(bundle, 2, "f5", "mock-noisy", seed=5)
    second = run_scenario(bundle, 2, "f5", "mock-noisy", seed=5)
    assert json.dumps(first.to_dict(), sort_keys=True) == json.dumps(second.to_dict(), sort_keys=True)


def test_each_bundle_embeds_its_corpus_once(monkeypatch):
    """Runs of one bundle share its embedded corpus, a bundle loaded again
    embeds it again, and each run's store is its own."""
    embedded: list[str] = []

    def counting_embed(text):
        embedded.append(text)
        return embed(text)

    monkeypatch.setattr(retrieval, "embed", counting_embed)
    fresh = load_fixtures()
    run_scenario(fresh, 1, "f5", "mock-oracle", seed=0)
    first_run = len(embedded)
    run_scenario(fresh, 2, "f5", "mock-noisy", seed=3)
    # The runs also embed their query and memory texts; count the chunks only.
    chunk_texts = {chunk.text for chunk in fresh.knowledge}
    assert len(fresh.knowledge) == 17
    assert sum(text in chunk_texts for text in embedded[:first_run]) == 17
    assert sum(text in chunk_texts for text in embedded[first_run:]) == 0

    embedded.clear()
    assert len(load_fixtures().knowledge) == 17
    assert len(embedded) == 17

    store = build_knowledge_store(fresh)
    store.add_document("extra.md", "notes that one run adds to its own store")
    assert len(store) == 18
    assert len(build_knowledge_store(fresh)) == 17
    vector = fresh.knowledge[0].vector
    with pytest.raises(TypeError, match="does not support item assignment"):
        vector[next(iter(vector))] = 1


def _count_setup_work(monkeypatch):
    """The oracle searches run_scenario starts, and each text embedded, from here on."""
    oracles: list[tuple] = []
    embedded: Counter[str] = Counter()

    def counting_subset(*args, **kwargs):
        oracles.append(args)
        return max_conflict_free_subset(*args, **kwargs)

    def counting_embed(text):
        embedded[text] += 1
        return embed(text)

    monkeypatch.setattr(harness, "max_conflict_free_subset", counting_subset)
    monkeypatch.setattr(retrieval, "embed", counting_embed)
    return oracles, embedded


def _query(bundle, spec):
    return query_text(tuple(bundle.intents[i] for i in spec.new_intents), bundle.registry)


def test_runs_of_one_scenario_search_its_oracle_and_rank_its_query_once(monkeypatch):
    """The oracle and the corpus ranking for the scenario's query are made on
    the scenario's first run and read by the others; a catalog loaded again
    makes them again."""
    oracles, embedded = _count_setup_work(monkeypatch)
    fresh = load_fixtures()
    query = _query(fresh, fresh.scenarios[2])
    reports = [
        run_scenario(fresh, 2, mode, "mock-noisy", seed=seed) for mode, seed in product(["f5", "sa", "nr"], [0, 3])
    ]
    assert any(report.iterations_to_deployment > 1 for report in reports)
    assert len(oracles) == 1
    assert embedded[query] == 1

    again = load_fixtures()
    run_scenario(again, 2, "f5", "mock-noisy", seed=0)
    assert len(oracles) == 2
    assert embedded[query] == 2


def test_the_runs_and_the_gate_share_each_scenario_oracle(monkeypatch):
    oracles, _ = _count_setup_work(monkeypatch)
    fresh = load_fixtures()
    for scenario, mode, seed in product((1, 3), ["f5", "fcfs"], [0, 1, 2]):
        assert run_scenario(fresh, scenario, mode, "mock-oracle", seed=seed).converged
    assert len(oracles) == 2
    assert validate_fixture_soundness(fresh) == []
    assert len(oracles) == 4
    assert fresh.setup(1).oracle is fresh.setup(1).oracle
    assert len(oracles) == 4


def test_a_document_added_to_one_runs_store_stays_in_that_run(monkeypatch):
    """Each run gets a store of its own, seeded with the scenario's ranking:
    a document the first run adds can head that run's ranking, and the next
    run neither holds it nor ranks afresh."""
    fresh = load_fixtures()
    query = _query(fresh, fresh.scenarios[1])
    stores = []

    def recording(ctx, transport, memory, store, oracle):
        if not stores:
            store.add_document("extra.md", query)
        stores.append(store)
        return orchestrate_batch(ctx, transport, memory, store, oracle)

    monkeypatch.setattr(harness, "orchestrate_batch", recording)
    for _ in range(2):
        run_scenario(fresh, 1, "f5", "mock-noisy", seed=3)
    first, second = stores
    assert len(first) == 18 and first.query(query)[0].doc_id == "extra.md"
    assert len(second) == 17
    assert second.query(query, 5) == fresh.setup(1).ranking[1]
    assert "extra.md" not in {chunk.doc_id for chunk in second.query(query, 5)}


def test_an_id_outside_the_bundle_is_refused(bundle):
    """A scenario is one of the bundle's, named by its id: any other id raises
    KeyError, as bundle.scenarios does, before a run or a set-up starts."""
    assert 99 not in bundle.scenarios
    with pytest.raises(KeyError):
        bundle.setup(99)
    with pytest.raises(KeyError):
        run_scenario(bundle, 99, "f5", "mock-oracle", seed=0)


def test_run_scenario_memory_files_are_deterministic(bundle):
    """Two runs of one scenario and seed leave equal memory entries: the same
    intents, pipelines (condition bytes included), flags and conflict
    records, in the same order."""
    buffers = [MemoryBuffer(), MemoryBuffer()]
    for memory in buffers:
        run_scenario(bundle, 1, "f5", "mock-noisy", seed=9, memory=memory)
    assert buffers[0].entries and buffers[0].entries == buffers[1].entries


def test_emit_report_json(bundle, tmp_path):
    report = run_scenario(bundle, 1, "f5", "mock-oracle", seed=0)
    path = emit_report([report], "json", tmp_path / "out.json")
    payload = json.loads(path.read_text())
    assert isinstance(payload, list) and len(payload) == 1
    assert payload[0]["scenario_id"] == 1


def test_emit_report_csv(bundle, tmp_path):
    reports = [
        run_scenario(bundle, 1, "f5", "mock-oracle", seed=0),
        run_scenario(bundle, 1, "sa", "mock-oracle", seed=0),
    ]
    path = emit_report(reports, "csv", tmp_path / "out.csv")
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("scenario_id,mode,")


def test_emit_report_unknown_format(bundle, tmp_path):
    report = run_scenario(bundle, 1, "f5", "mock-oracle", seed=0)
    with pytest.raises(ValueError, match="format"):
        emit_report([report], "yaml", tmp_path / "out.yaml")


def test_emit_report_requires_reports(tmp_path):
    with pytest.raises(ValueError):
        emit_report([], "json", tmp_path / "out.json")


def test_unconverged_runs_report_cap(bundle):
    report = run_scenario(bundle, 4, "sa", "mock-noisy", seed=2, max_iterations=3)
    assert not report.converged
    assert report.iterations_to_deployment == 3


def test_run_outcomes_and_call_budget_are_pinned(bundle):
    hasher = hashlib.sha256()
    calls: Counter[str] = Counter()
    for scenario_id, mode, seed in product((1, 2, 3, 4), Mode, (0, 1, 2)):
        chat = make_transport("mock-noisy", bundle, seed)
        report = run_scenario(bundle, scenario_id, mode, chat, seed=seed)
        hasher.update(json.dumps(report.to_dict(), sort_keys=True).encode("utf-8") + b"\n")
        calls[mode.value] += len(chat.calls)
    assert hasher.hexdigest() == REPORT_DIGEST
    assert dict(calls) == GRID_CALLS


@pytest.mark.parametrize("cap", [0, -3])
def test_run_scenario_refuses_a_cap_below_one_iteration(bundle, cap):
    with pytest.raises(ValueError, match="max_iterations must be at least 1"):
        run_scenario(bundle, 1, "f5", "mock-oracle", seed=0, max_iterations=cap)
    args = (Mode.F5, (), DeploymentState(), bundle.registry, bundle.matrix, bundle.intents)
    with pytest.raises(ValueError, match="max_iterations must be at least 1"):
        RunContext(*args, max_iterations=cap)
    ctx = RunContext(*args)
    with pytest.raises(FrozenInstanceError):
        ctx.max_iterations = cap


def test_converged_runs_stay_within_cap(bundle):
    for seed in (1, 2, 3):
        report = run_scenario(bundle, 2, "f5", "mock-noisy", seed=seed)
        if report.converged:
            assert report.iterations_to_synthesis <= 50
            assert report.iterations_to_deployment <= 50
        assert 0.0 <= report.generation_accuracy <= 1.0
        assert 0.0 <= report.deployment_success <= 1.0


def test_cli_run_writes_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = cli_main(
        ["run", "--scenario", "1", "--mode", "f5", "--transport", "mock-oracle", "--report", str(out)]
    )
    assert code == 0
    assert json.loads(out.read_text())[0]["converged"] is True
    assert "scenario 1" in capsys.readouterr().out


@pytest.mark.parametrize("value", ["0", "-3"])
def test_cli_run_refuses_a_cap_below_one_iteration(value, capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli_main(["run", "--scenario", "1", "--max-iters", value])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert f"argument --max-iters: {value} is not a positive integer" in captured.err
    assert "scenario 1" not in captured.out


@pytest.mark.parametrize("value", ["-1", "-2"])
def test_cli_run_refuses_a_negative_analogue_count(value, capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli_main(["run", "--scenario", "1", "--analogues", value])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert f"argument --analogues: {value} is not a non-negative integer" in captured.err
    assert "scenario 1" not in captured.out


def test_cli_run_refuses_an_unknown_mode(capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli_main(["run", "--scenario", "1", "--mode", "xx"])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert "argument --mode: invalid choice: 'xx'" in captured.err
    assert "scenario 1" not in captured.out


def test_make_transport_refuses_an_unknown_kind(bundle):
    with pytest.raises(ValueError, match="unknown transport 'carrier-pigeon'"):
        make_transport("carrier-pigeon", bundle)


def test_make_transport_configures_the_http_backend_from_the_environment(bundle, monkeypatch):
    """Building the backend reads its settings and sends no request."""
    monkeypatch.setenv(CHAT_BASE_URL_ENV, "http://localhost:9/v1/")
    monkeypatch.setenv(CHAT_MODEL_ENV, "test-model")
    transport = make_transport("http", bundle)
    assert isinstance(transport, HttpChatTransport)
    assert transport.describe() == "http(model=test-model)"
    assert transport.base_url == "http://localhost:9/v1"
    assert transport.calls == []


def test_cli_run_takes_zero_analogues(capsys):
    assert cli_main(["run", "--scenario", "1", "--analogues", "0"]) == 0
    assert "scenario 1 mode f5" in capsys.readouterr().out


def test_cli_report_on_a_catalog_without_scenarios_is_a_catalog_error(tmp_path, bundle, capsys):
    root = str(_copy_catalog(bundle, tmp_path, scenarios=lambda doc: []))
    out = tmp_path / "report.json"
    assert cli_main(["--fixtures", root, "run", "--report", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ranweave: scenarios.json: ") and err.count("\n") == 1
    assert not out.exists()


def test_cli_run_on_a_knowledge_file_that_is_not_utf8_is_a_catalog_error(tmp_path, bundle, capsys):
    """The corpus is read on a run's first use; a file of it that is not
    UTF-8 text stops the run with one line naming the file, before any run
    line is printed."""
    root = _copy_catalog(bundle, tmp_path)
    (root / "knowledge" / "latin1.md").write_bytes(b"Caf\xe9 handover notes.\n")
    assert cli_main(["--fixtures", str(root), "run", "--scenario", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "ranweave: knowledge/latin1.md: not UTF-8 text\n"
    with pytest.raises(FixtureError, match="^knowledge/latin1.md: not UTF-8 text$"):
        load_fixtures(root).knowledge


def test_cli_fixtures_validate_reads_the_knowledge_corpus(tmp_path, bundle, capsys):
    """Validation reads the corpus a run reads, so a catalog whose corpus
    holds a file that is not UTF-8 text is refused as run refuses it: one
    line naming the file and exit status 2, not "fixtures sound"."""
    root = _copy_catalog(bundle, tmp_path)
    (root / "knowledge" / "latin1.md").write_bytes(b"Caf\xe9 handover notes.\n")
    assert cli_main(["--fixtures", str(root), "fixtures", "validate"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "ranweave: knowledge/latin1.md: not UTF-8 text\n"


def test_cli_run_on_an_unconfigured_http_backend_is_a_transport_error(monkeypatch, capsys):
    monkeypatch.delenv(CHAT_BASE_URL_ENV, raising=False)
    assert cli_main(["run", "--scenario", "1", "--transport", "http"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"ranweave: no chat endpoint configured; set {CHAT_BASE_URL_ENV}\n"
    assert "scenario" not in captured.out


def test_cli_run_into_a_missing_directory_reports_the_write_error(tmp_path, capsys):
    """A report path whose directory does not exist is refused before the
    first run: no run line is printed and nothing is written."""
    out = tmp_path / "no" / "such" / "report.json"
    assert cli_main(["run", "--scenario", "1", "--report", str(out)]) == 2
    captured = capsys.readouterr()
    assert "scenario" not in captured.out and "wrote" not in captured.out
    assert captured.err.startswith("ranweave: ") and str(out) in captured.err and captured.err.count("\n") == 1
    assert not out.parent.exists()


def test_cli_run_into_a_directory_is_refused_before_the_first_run(tmp_path, capsys):
    """A report path that is a directory could never be written: it is
    refused before any run, in one line, rather than after all of them."""
    assert cli_main(["run", "--scenario", "1", "--report", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"ranweave: the report path {tmp_path} is a directory\n"


def test_cli_oracle_prints_reference(capsys):
    assert cli_main(["oracle", "--scenario", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["objective_value"] == 3


def test_cli_fixture_validation(capsys):
    assert cli_main(["fixtures", "validate"]) == 0
    assert "sound" in capsys.readouterr().out


def test_cli_runs_a_catalog_of_another_size(tmp_path, bundle, capsys):
    root = str(_grow_catalog(bundle, tmp_path))
    out = tmp_path / "report.json"
    args = ["--fixtures", root, "run", "--scenario", "5", "--mode", "all", "--transport", "mock-oracle"]
    assert cli_main(args + ["--report", str(out)]) == 0
    reports = json.loads(out.read_text())
    assert [r["mode"] for r in reports] == ["f5", "sa", "nr", "np", "fcfs"]
    assert all(r["scenario_id"] == 5 and r["converged"] for r in reports)
    capsys.readouterr()

    assert cli_main(["--fixtures", root, "oracle", "--scenario", "5"]) == 0
    assert json.loads(capsys.readouterr().out)["max_subset"] == [3, 8]
    assert cli_main(["--fixtures", root, "fixtures", "validate"]) == 0
    assert "8 intents, 5 scenarios" in capsys.readouterr().out

    # An unknown scenario is an input error like any other: status 2, not
    # the status 1 of an unsound catalog, and one stderr line naming the ids.
    for value, command in product(("6", "x"), ("run", "oracle")):
        assert cli_main(["--fixtures", root, command, "--scenario", value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(rf"ranweave: .*unknown scenario '{value}'.*\[1, 2, 3, 4, 5\].*\n", captured.err)


def _catalog_with_an_infeasible_intent(bundle, tmp_path):
    """The bundled catalog plus intent 8, which needs all 12 capabilities, so
    no cover of at most 5 xApps exists, and scenario 5 (new 3 and 8)."""
    capabilities = sorted({c for p in bundle.registry for c in p.capabilities})
    assert len(capabilities) == 12

    def add_intent(intents):
        return intents + [dict(intents[0], id=8, required_capabilities=capabilities)]

    def add_scenario(scenarios):
        return scenarios + [{"id": 5, "new_intents": [3, 8], "pre_deployed_intents": []}]

    return _copy_catalog(bundle, tmp_path, intents=add_intent, scenarios=add_scenario), capabilities


def test_an_infeasible_scenario_is_searched_again_on_every_lookup(tmp_path, bundle, monkeypatch):
    """A set-up that raises is not kept: each lookup tries the intent again."""
    searched: list[int] = []

    def counting_synthesis(intent, *args):
        searched.append(intent.id)
        return synthesize_ground_truth(intent, *args)

    monkeypatch.setattr(harness, "synthesize_ground_truth", counting_synthesis)
    grown = load_fixtures(_catalog_with_an_infeasible_intent(bundle, tmp_path)[0])
    for _ in range(2):
        with pytest.raises(InfeasibleIntentError, match="intent 8"):
            grown.setup(5).oracle
    assert searched.count(8) == 2
    assert grown.setup(1).oracle.max_subset == frozenset({3, 4})


def test_cli_isolates_an_infeasible_intent(tmp_path, bundle, capsys):
    root, capabilities = _catalog_with_an_infeasible_intent(bundle, tmp_path)
    root = str(root)
    assert cli_main(["--fixtures", root, "fixtures", "validate"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "FAIL intent 8: no xApp subset of size <= 5 covers capabilities "
        f"{capabilities} for intent 8"
    ]

    assert cli_main(["--fixtures", root, "run", "--scenario", "1", "--mode", "all"]) == 0
    assert capsys.readouterr().out.count("converged") == 5
    assert cli_main(["--fixtures", root, "oracle", "--scenario", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["max_subset"] == [3, 4]

    for command in (["run", "--scenario", "5"], ["oracle", "--scenario", "5"]):
        assert cli_main(["--fixtures", root] + command) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("ranweave: no xApp subset of size <= 5 covers capabilities")


def test_cli_isolates_a_scenario_past_the_subset_bound(tmp_path, bundle, capsys):
    # Intents 8-13 copy intents 1-6, so scenario 9 has 13 feasible new
    # intents, and all 13 deploy. Scenario 10 has two conflicting references
    # (test_fixture_soundness_gate_names_conflicting_references) and is
    # listed after it, so it must fail alone.
    def add_intents(intents):
        copies = [dict(intents[i], id=i + 8) for i in range(6)]
        return intents + copies + [dict(intents[1], id=14, target_kpis={"latency": 1})]

    def add_scenarios(scenarios):
        return scenarios + [
            {"id": 9, "new_intents": list(range(1, 14)), "pre_deployed_intents": []},
            {"id": 10, "new_intents": [1], "pre_deployed_intents": [3, 14]},
        ]

    root = str(_copy_catalog(bundle, tmp_path, intents=add_intents, scenarios=add_scenarios))
    assert cli_main(["--fixtures", root, "fixtures", "validate"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "FAIL scenario 10: reference pipelines pre:14 and pre:3 conflict: latency",
    ]

    assert cli_main(["--fixtures", root, "run", "--scenario", "9", "--mode", "all"]) == 0
    assert capsys.readouterr().out.count("converged") == 5
    assert cli_main(["--fixtures", root, "oracle", "--scenario", "9"]) == 0
    assert json.loads(capsys.readouterr().out)["max_subset"] == list(range(1, 14))


def test_cli_reports_fixture_error_in_one_line(tmp_path, bundle, capsys):
    root = _copy_catalog(bundle, tmp_path, scenarios=lambda doc: {"scenarios": doc})
    assert cli_main(["--fixtures", str(root), "fixtures", "validate"]) == 2
    err = capsys.readouterr().err
    assert err == "ranweave: scenarios.json: expected a JSON array, found dict\n"


def test_run_report_csv_fields_are_stable():
    assert RunReport.CSV_FIELDS == (
        "scenario_id",
        "mode",
        "generation_accuracy",
        "deployment_success",
        "iterations_to_synthesis",
        "iterations_to_deployment",
        "converged",
        "seed",
        "transport",
    )


# Bundled runs under both mocks and one generated wide-catalog run, printed
# as report lines, then the sha256 of every rendered request in call order.
_PURE_RUNS = """
import hashlib, json, sys
sys.path.insert(0, sys.argv[1])
from wide_catalog import generate_catalog
from ranweave import harness, transport
from ranweave.agents import Mode, RunContext, orchestrate_batch
from ranweave.memory import MemoryBuffer
from ranweave.model import DeploymentState
from ranweave.planner import max_conflict_free_subset, synthesize_ground_truth

rendered = []
complete = transport.ChatTransport.complete

def hashed(self, request):
    text = json.dumps(request.messages, sort_keys=True)
    rendered.append(hashlib.sha256(text.encode("utf-8")).hexdigest())
    return complete(self, request)

transport.ChatTransport.complete = hashed
bundle = harness.load_fixtures()
for scenario_id, mode, chat in ((3, "f5", "mock-noisy"), (4, "sa", "mock-noisy"), (2, "fcfs", "mock-oracle")):
    report = harness.run_scenario(bundle, scenario_id, mode, chat, seed=1)
    print(json.dumps(report.to_dict(), sort_keys=True))
catalog = generate_catalog(1)
truths = {i: synthesize_ground_truth(intent, catalog.registry, catalog.matrix) for i, intent in sorted(catalog.intents.items())}
pre = DeploymentState(tuple(truths[i] for i in catalog.pre_intents))
candidates = {i: truths[i] for i in catalog.new_intents}
oracle = max_conflict_free_subset(candidates, pre, catalog.intents, catalog.matrix, catalog.registry, truths=candidates)
ctx = RunContext(Mode.F5, tuple(catalog.intents[i] for i in catalog.new_intents), pre, catalog.registry, catalog.matrix, catalog.intents)
chat = transport.NoisyTransport(transport.MockBundle(catalog.registry, catalog.intents, catalog.matrix, truths), 1)
outcome = orchestrate_batch(ctx, chat, MemoryBuffer(), harness.build_knowledge_store(bundle), oracle)
spec = harness.ScenarioSpec(0, tuple(catalog.new_intents), tuple(catalog.pre_intents))
report = harness._report_from_outcome(spec, ctx.mode, chat, 1, oracle, outcome, ctx.max_iterations)
print(json.dumps(report.to_dict(), sort_keys=True))
print("\\n".join(rendered))
"""


def test_runs_are_pure_across_hash_seeds():
    """A run is a function of its inputs alone, whatever the process's string
    hashes: the same runs under PYTHONHASHSEED 0 and 1 print the same report
    bytes and render every request to the same bytes. Sets of strings, and
    the conflict memo's pipeline-value keys, hash differently in the two."""
    src = str(Path(harness.__file__).resolve().parents[1])
    outputs = []
    for hash_seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-c", _PURE_RUNS, str(PERFBENCH)], capture_output=True, text=True, env=env, timeout=60
        )
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    lines = outputs[0].splitlines()
    reports, requests = lines[:4], lines[4:]
    assert all(json.loads(report)["converged"] for report in reports) and len(requests) == 19
    assert outputs[0] == outputs[1]
