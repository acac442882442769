from __future__ import annotations

import copy
import pickle
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ranweave.model import (
    Pipeline,
    Registry,
    Stage,
    XAppProfile,
    pipelines_equal,
    stage_chain,
    validate_pipeline_structure,
)

from .helpers import (
    brute_after_cycles,
    random_pipeline,
    random_registry,
)


def _mini_registry() -> Registry:
    return Registry(
        [
            XAppProfile.build("a", capabilities=["sensing"], stage="sense"),
            XAppProfile.build("b", capabilities=["deciding"], stage="decide"),
            XAppProfile.build("c", capabilities=["acting"], stage="act", controlled_params=["p"]),
        ]
    )


def _codes(pipeline: Pipeline, registry: Registry) -> set[str]:
    return {v.code for v in validate_pipeline_structure(pipeline, registry)}


def test_valid_chain_passes(bundle):
    pipeline = Pipeline.build(
        1,
        [("mobility_predictor", {}), ("traffic_steering_a", {"steering_policy": "auto"})],
        [("mobility_predictor", "traffic_steering_a")],
    )
    assert validate_pipeline_structure(pipeline, bundle.registry) == ()


def test_cycle_is_reported():
    registry = _mini_registry()
    pipeline = Pipeline.build(1, [("b", {}), ("c", {})], [("b", "c"), ("c", "b")])
    assert "cycle" in _codes(pipeline, registry)


def test_duplicate_node_is_reported():
    registry = _mini_registry()
    pipeline = Pipeline.build(1, [("a", {}), ("a", {})])
    assert "duplicate_node" in _codes(pipeline, registry)


def test_unknown_xapp_and_dangling_edge():
    registry = _mini_registry()
    pipeline = Pipeline.build(1, [("ghost", {})], [("ghost", "nowhere")])
    codes = _codes(pipeline, registry)
    assert "unknown_xapp" in codes
    assert "dangling_edge" in codes


def test_stage_order_violation():
    registry = _mini_registry()
    pipeline = Pipeline.build(1, [("a", {}), ("c", {})], [("c", "a")])
    assert "stage_order" in _codes(pipeline, registry)


def test_empty_pipeline_reported():
    assert "empty_pipeline" in _codes(Pipeline.build(1, []), _mini_registry())


def test_same_stage_edge_is_legal():
    registry = Registry(
        [
            XAppProfile.build("m", capabilities=["x"], stage="act"),
            XAppProfile.build("n", capabilities=["y"], stage="act"),
        ]
    )
    pipeline = Pipeline.build(1, [("m", {}), ("n", {})], [("m", "n")])
    assert validate_pipeline_structure(pipeline, registry) == ()


def test_validation_is_total_on_garbage():
    registry = _mini_registry()
    pipeline = Pipeline.build(
        1,
        [("a", {}), ("a", {}), ("ghost", {})],
        [("a", "ghost"), ("ghost", "a"), ("x", "y")],
        conditions='{"window":"off-peak"}',
    )
    violations = validate_pipeline_structure(pipeline, registry)
    assert isinstance(violations, tuple)
    assert violations


_DIGRAPHS = st.integers(1, 8).flatmap(
    lambda n: st.tuples(
        st.just([f"x{i}" for i in range(n)]),
        st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))),
    )
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(digraph=_DIGRAPHS)
def test_peel_finds_cycles(digraph):
    nodes, index_edges = digraph
    edges = {(nodes[a], nodes[b]) for a, b in index_edges}
    # One stage for all, so no edge breaks the stage order.
    registry = Registry([XAppProfile.build(x, capabilities=["c"], stage="decide") for x in nodes])
    pipeline = Pipeline.build(1, [(x, {}) for x in nodes], edges)

    cycles = [v for v in validate_pipeline_structure(pipeline, registry) if v.code == "cycle"]
    after_cycles = brute_after_cycles(nodes, edges)
    expected = [f"cycle through {sorted(after_cycles)}"] if after_cycles else []
    assert [v.detail for v in cycles] == expected


def test_stage_chain_sorts_by_stage_then_id_and_links_neighbours():
    registry = Registry(
        [
            XAppProfile.build("z", capabilities=["c"], stage="sense"),
            XAppProfile.build("b", capabilities=["c"], stage="act"),
            XAppProfile.build("a", capabilities=["c"], stage="act"),
            XAppProfile.build("m", capabilities=["c"], stage="decide"),
        ]
    )
    assert stage_chain(["a", "b", "m", "z"], registry) == (
        ("z", "m", "a", "b"),
        frozenset({("z", "m"), ("m", "a"), ("a", "b")}),
    )
    assert stage_chain(["a"], registry) == (("a",), frozenset())


def test_pipelines_equal_reflexive():
    pipeline = Pipeline.build(1, [("a", {"p": "v"})], [])
    assert pipelines_equal(pipeline, pipeline)


def test_pipelines_equal_ignores_conditions():
    base = [("a", {"p": "v"}), ("b", {})]
    p = Pipeline.build(1, base, [("a", "b")], conditions='{"load":"low"}')
    q = Pipeline.build(1, base, [("a", "b")], conditions='{"load":"high","time":"night"}')
    assert pipelines_equal(p, q)


def test_pipelines_equal_detects_edge_difference():
    nodes = [("a", {}), ("b", {})]
    p = Pipeline.build(1, nodes, [("a", "b")])
    q = Pipeline.build(1, nodes, [])
    assert not pipelines_equal(p, q)


def test_pipelines_equal_detects_directive_difference():
    p = Pipeline.build(1, [("a", {"p": "1"})])
    q = Pipeline.build(1, [("a", {"p": "2"})])
    assert not pipelines_equal(p, q)


def test_pipelines_equal_is_equivalence_relation():
    rng = random.Random(23)
    for _ in range(50):
        registry = random_registry(rng, 5)
        p = random_pipeline(rng, registry, 1)
        q = random_pipeline(rng, registry, 1)
        r = random_pipeline(rng, registry, 1)
        assert pipelines_equal(p, p)
        assert pipelines_equal(p, q) == pipelines_equal(q, p)
        if pipelines_equal(p, q) and pipelines_equal(q, r):
            assert pipelines_equal(p, r)


def test_a_pipeline_keeps_its_hash_but_copies_and_pickles_work_their_own_out():
    """The hash is kept on first use and skipped by == and repr; a copy or a
    pickle, taken before or after, is rebuilt through the constructor, so
    no kept hash travels to a process whose string hashes differ."""
    pipeline = Pipeline.build(1, [("a", {"p": "x"}), ("c", {})], [("a", "c")], '{"max_load":1}')
    fresh = [pickle.loads(pickle.dumps(pipeline)), copy.copy(pipeline), copy.deepcopy(pipeline)]
    value = hash(pipeline)
    assert hash(pipeline) == value and "_hash" not in repr(pipeline)
    made = [pickle.loads(pickle.dumps(pipeline)), copy.copy(pipeline), copy.deepcopy(pipeline), replace(pipeline)]
    for other in fresh + made:
        assert other == pipeline and repr(other) == repr(pipeline)
        with pytest.raises(AttributeError):
            other._hash
        assert hash(other) == value


def test_directive_order_is_normalized():
    p = Pipeline.build(1, [("a", {"x": "1", "y": "2"})])
    q = Pipeline.build(1, [("a", {"y": "2", "x": "1"})])
    assert p.nodes[0].directive == q.nodes[0].directive


def test_registry_rejects_duplicate_ids():
    profile = XAppProfile.build("dup", capabilities=["c"])
    with pytest.raises(ValueError, match="duplicate"):
        Registry([profile, profile])


def test_profile_requires_capabilities():
    with pytest.raises(ValueError, match="capabilities"):
        XAppProfile.build("bare")


def test_stage_parsing():
    assert Stage.parse("sense") is Stage.SENSE
    assert Stage.parse("ACT") is Stage.ACT
    with pytest.raises(ValueError):
        Stage.parse("think")
    assert Stage.SENSE < Stage.DECIDE < Stage.ACT
