"""ranweave: conflict-aware rApp pipeline orchestration for Open RAN.

Translates service intents into DAG-structured xApp pipelines through a
perception / reasoning / refinement agent loop backed by episodic memory
and document retrieval, and checks every deployment against exact
conflict and planning oracles.
"""

from .agents import Mode, RunContext, enforce_monotonicity, orchestrate_batch
from .conflicts import (
    ConflictGraph,
    ConflictKind,
    ConflictRecord,
    VendorCompatibilityMatrix,
    build_conflict_graph,
    validity,
)
from .harness import (
    FixtureBundle,
    RunReport,
    ScenarioSpec,
    compare_modes,
    emit_report,
    load_fixtures,
    run_scenario,
)
from .memory import MemoryBuffer, MemoryEntry, OutcomeRecord
from .model import (
    DeploymentState,
    Intent,
    Pipeline,
    Registry,
    Stage,
    XAppProfile,
    pipelines_equal,
    validate_pipeline_structure,
)
from .planner import (
    OracleResult,
    SolutionScore,
    max_conflict_free_subset,
    score_solution,
    synthesize_ground_truth,
)
from .retrieval import VectorStore, chunk_document, embed, k_schedule

__version__ = "0.1.0"

__all__ = [
    "ConflictGraph",
    "ConflictKind",
    "ConflictRecord",
    "DeploymentState",
    "FixtureBundle",
    "Intent",
    "MemoryBuffer",
    "MemoryEntry",
    "Mode",
    "OracleResult",
    "OutcomeRecord",
    "Pipeline",
    "Registry",
    "RunContext",
    "RunReport",
    "ScenarioSpec",
    "SolutionScore",
    "Stage",
    "VendorCompatibilityMatrix",
    "VectorStore",
    "XAppProfile",
    "build_conflict_graph",
    "chunk_document",
    "compare_modes",
    "embed",
    "emit_report",
    "enforce_monotonicity",
    "k_schedule",
    "load_fixtures",
    "max_conflict_free_subset",
    "orchestrate_batch",
    "pipelines_equal",
    "run_scenario",
    "score_solution",
    "synthesize_ground_truth",
    "validate_pipeline_structure",
    "validity",
]
