import pytest

from fstheta import run_study

# fixtures that run the level-7 sweeps; tests using them are marked slow, so
# `pytest -m "not slow"` gives a quick loop
SLOW_FIXTURES = {"case1_sweep", "case2_sweep"}


def pytest_collection_modifyitems(items):
    for item in items:
        if SLOW_FIXTURES & set(getattr(item, "fixturenames", ())):
            item.add_marker(pytest.mark.slow)


@pytest.fixture(scope="session")
def case1_sweep():
    """Case (1), levels 3..7 with k = h; shared by the acceptance tests."""
    return run_study(1, range(3, 8))


@pytest.fixture(scope="session")
def case2_sweep():
    """Case (2), levels 4..7; shared by the reliability tests."""
    return run_study(2, range(4, 8))
