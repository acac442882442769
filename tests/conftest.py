from __future__ import annotations

import pytest

from ranweave.harness import FixtureBundle, load_fixtures


@pytest.fixture(scope="session")
def bundle() -> FixtureBundle:
    return load_fixtures()


@pytest.fixture(scope="session")
def truths(bundle):
    return dict(bundle.truths)


@pytest.fixture(scope="session")
def registry(bundle):
    return bundle.registry


@pytest.fixture(scope="session")
def matrix(bundle):
    return bundle.matrix


@pytest.fixture(scope="session")
def intents(bundle):
    return bundle.intents
