import pytest

from crankrank import verification

ACCEPTANCE_NMAX = 2000
ACCEPTANCE_BRUTE_NMAX = 40


@pytest.fixture(scope="session")
def big_ctx():
    """The full-scale verification context shared by the acceptance tests.

    Building the crank/rank tables to N=2000 plus the bulk moments and the
    brute-force oracle to N=40 takes a few seconds, so it happens once per
    session.
    """
    return verification.build_context(ACCEPTANCE_NMAX, ACCEPTANCE_BRUTE_NMAX)


@pytest.fixture(scope="session")
def small_tables():
    """Crank and rank tables to N=40 for unit-level comparisons."""
    from crankrank.moments import CrankRankTable

    return {
        "crank": CrankRankTable.build("crank", 40),
        "rank": CrankRankTable.build("rank", 40),
    }
