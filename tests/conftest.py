import sys
from pathlib import Path

import pytest
from hypothesis import settings

# Property tests replay the same examples on every run and have no per-example
# deadline, so a slow shared machine cannot make them flake.
settings.register_profile("tspmeta", deadline=None, derandomize=True)
settings.load_profile("tspmeta")

# allow running the suite from a fresh checkout without installing
_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

import tspmeta as tm  # noqa: E402


@pytest.fixture
def five_city() -> tm.Instance:
    return tm.five_city_instance()


@pytest.fixture
def unit_square() -> tm.Instance:
    return tm.Instance.from_coords(
        "unit-square", [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])


@pytest.fixture(scope="session")
def berlin52() -> tm.Instance:
    return tm.packaged_instance("berlin52")


def random_instance(rng, n: int, name: str = "random") -> tm.Instance:
    """Uniform random coordinates in the unit square from a seeded stream."""
    return tm.Instance.from_coords(name, [(rng.random(), rng.random()) for _ in range(n)])
