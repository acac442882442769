"""Seeded generator for the ``wide-catalog`` workload.

The bundled fixtures hold 14 xApps and 7 intents, too few to show how the
cover search, the subset selector and prompt size scale. This module draws a
larger catalog straight from the public model types. Every intent's
capabilities come from a *planted* cover: a stage-sorted chain of xApps with
no incompatible dialects adjacent, so ``synthesize_ground_truth`` always
finds a cover of at most three xApps and never raises
``InfeasibleIntentError``. The ground truth it returns may still differ from
the planted cover: it is the minimum-size, id-smallest feasible cover over
the whole registry.

A *bridged* intent needs two capabilities that only two xApps offer, one at
the sense stage and one at the act stage, in dialects that cannot touch.
Every feasible chain therefore needs a third, "spacer" xApp between them
that covers no required capability. ``transport.refine_pipeline`` strips
such a spacer, so a run whose new intents include a bridged one never
converges. Unplanted draws produce this case too, but only in about one
catalog in forty, which would make the benchmark's convergence and
iteration figures jump from seed to seed; planting it in a fixed share of
catalogs keeps the defect in every sample at the same rate.

All draws come from one ``random.Random`` and walk sorted sequences only, so
a seed gives a byte-identical catalog in every process.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ranweave.conflicts import VendorCompatibilityMatrix
from ranweave.model import Intent, Registry, Stage, XAppProfile

STAGES = (Stage.SENSE, Stage.DECIDE, Stage.ACT)


DIALECTS = 8
INCOMPATIBLE_PAIRS = 3
SHARED_PARAMS = 10
# Chance that an xApp offers a second capability, that it also writes a
# parameter from the shared pool, and that it degrades a second KPI.
P_SECOND_CAPABILITY = 0.3
P_SHARED_PARAM = 0.2
P_SIDE_EFFECT = 0.2
BRIDGE_CAPS = ("bridge-a", "bridge-b")


@dataclass(frozen=True)
class CatalogParams:
    """Sizes of one generated catalog."""

    xapps: int = 50
    capabilities: int = 40
    kpis: int = 30
    new_intents: int = 12
    pre_intents: int = 12


@dataclass(frozen=True)
class Catalog:
    registry: Registry
    matrix: VendorCompatibilityMatrix
    intents: dict[int, Intent]
    new_intents: tuple[int, ...]
    pre_intents: tuple[int, ...]


def generate_catalog(seed: int, params: CatalogParams = CatalogParams(), bridged: bool = False) -> Catalog:
    """One catalog; if ``bridged``, one new intent gets a dialect-bridged cover."""
    rng = random.Random(seed)
    caps = [f"cap{i:02d}" for i in range(params.capabilities)]
    kpis = [f"kpi{i:02d}" for i in range(params.kpis)]
    # A KPI's polarity is the direction intents want it to move; an xApp's
    # primary effect improves its KPI and a side effect degrades another.
    polarity = {kpi: rng.choice((-1, 1)) for kpi in kpis}
    dialects = [f"dialect-{i}" for i in range(DIALECTS)]
    pairs = sorted({tuple(sorted(rng.sample(dialects, 2))) for _ in range(INCOMPATIBLE_PAIRS)})
    matrix = VendorCompatibilityMatrix.of(*pairs)
    shared = [f"shared_param_{i:02d}" for i in range(SHARED_PARAMS)]

    # The bridge puts capability bridge-a on a sense-stage xApp and bridge-b
    # on an act-stage xApp whose dialects clash.
    bridge_roles = {}
    if bridged:
        sense_slot, act_slot = rng.sample(range(params.xapps), 2)
        pair = rng.choice(pairs)
        bridge_roles = {
            sense_slot: (Stage.SENSE, pair[0], BRIDGE_CAPS[0]),
            act_slot: (Stage.ACT, pair[1], BRIDGE_CAPS[1]),
        }

    profiles = []
    for index in range(params.xapps):
        xapp_id = f"wx{index:03d}"
        own_caps = [caps[index % len(caps)]]
        if rng.random() < P_SECOND_CAPABILITY:
            own_caps.append(rng.choice([c for c in caps if c not in own_caps]))
        primary = rng.choice(kpis)
        effects = {primary: polarity[primary]}
        if rng.random() < P_SIDE_EFFECT:
            side = rng.choice([k for k in kpis if k != primary])
            effects[side] = -polarity[side]
        stage = rng.choice(STAGES)
        dialect = rng.choice(dialects)
        if index in bridge_roles:
            stage, dialect, bridge_cap = bridge_roles[index]
            own_caps.append(bridge_cap)
        controlled = [] if stage is Stage.SENSE else [f"{xapp_id}_param"]
        if stage is not Stage.SENSE and rng.random() < P_SHARED_PARAM:
            controlled.append(rng.choice(shared))
        profiles.append(
            XAppProfile.build(
                xapp_id,
                name=f"generated xApp {index}",
                vendor=f"vendor-{dialect.rsplit('-', 1)[1]}",
                dialect=dialect,
                capabilities=own_caps,
                controlled_params=controlled,
                kpi_effects=effects,
                stage=stage,
                interfaces=("e2-report",) if stage is Stage.SENSE else ("nearrt-api",),
            )
        )
    registry = Registry(profiles, kpis)
    bridge_chain = [registry[f"wx{slot:03d}"] for slot in bridge_roles]
    if bridged and not any(
        p.stage is Stage.DECIDE and not any(matrix.clashes(p.dialect, q.dialect) for q in bridge_chain)
        for p in registry
    ):
        raise ValueError(f"catalog seed {seed}: the bridge has no decide-stage spacer")

    total = params.new_intents + params.pre_intents
    new_ids = tuple(range(1, params.new_intents + 1))
    bridged_id = rng.choice(new_ids) if bridged else None
    # Half the plain intents get a three-xApp planted cover, the rest two.
    plain_ids = [i for i in range(1, total + 1) if i != bridged_id]
    sizes = [3] * (len(plain_ids) // 2) + [2] * (len(plain_ids) - len(plain_ids) // 2)
    rng.shuffle(sizes)
    cover_sizes = dict(zip(plain_ids, sizes))

    intents: dict[int, Intent] = {}
    for intent_id in range(1, total + 1):
        if intent_id == bridged_id:
            chain, required = bridge_chain, list(BRIDGE_CAPS)
        else:
            chain, required = _planted_cover(rng, registry, matrix, cover_sizes[intent_id])
        intents[intent_id] = _intent(intent_id, rng, chain, required, polarity)
    return Catalog(
        registry=registry,
        matrix=matrix,
        intents=intents,
        new_intents=new_ids,
        pre_intents=tuple(range(params.new_intents + 1, total + 1)),
    )


def _planted_cover(rng, registry, matrix, size):
    """A conflict-free chain of ``size`` xApps and one capability per member."""
    profiles = list(registry)
    while True:
        chain = sorted(rng.sample(profiles, size), key=lambda p: (p.stage, p.id))
        if any(matrix.clashes(a.dialect, b.dialect) for a, b in zip(chain, chain[1:])):
            continue
        # One distinct capability per member, so every member is needed.
        required: list[str] = []
        for profile in chain:
            options = sorted(
                c for c in profile.capabilities if c not in required and c not in BRIDGE_CAPS
            )
            if not options:
                break
            required.append(rng.choice(options))
        if len(required) == size:
            return chain, required


def _intent(intent_id, rng, chain, required, polarity) -> Intent:
    target = rng.choice(sorted({kpi for p in chain for kpi, _ in p.kpi_effects}))
    return Intent.build(
        intent_id,
        f"Intent {intent_id}: drive {target} {'up' if polarity[target] > 0 else 'down'} "
        f"using {', '.join(sorted(required))}.",
        target_kpis={target: polarity[target]},
        required_capabilities=required,
    )
