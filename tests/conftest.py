import pytest

from cycmat import free_spike, psi, uniform, wheel, whirl
from cycmat.constructions import truncate
from cycmat.suite import PSI_GRID


@pytest.fixture(scope="session")
def psi_oracles():
    """Shared psi oracles so independence memoisation carries across tests.

    Only the n <= 12 part of the grid: tests sweep all 2^n masks of these.
    """
    return {(n, s): psi(n, s) for n, s in PSI_GRID if n <= 12}


@pytest.fixture(scope="session")
def small_fixtures(psi_oracles):
    """Every constructed family at enumeration scale (n <= 12)."""
    out = {
        "U(2,4)": uniform(2, 4),
        "U(2,5)": uniform(2, 5),
        "U(3,6)": uniform(3, 6),
        "wheel(3)": wheel(3),
        "wheel(4)": wheel(4),
        "wheel(5)": wheel(5),
        "whirl(3)": whirl(3),
        "whirl(4)": whirl(4),
        "whirl(5)": whirl(5),
        "wheel(6)": wheel(6),
        "whirl(6)": whirl(6),
        "spike(3)": free_spike(3)[0],
        "spike(4)": free_spike(4)[0],
        "spike(5)": free_spike(5)[0],
        "spike(6)": free_spike(6)[0],
    }
    for (n, s), oracle in psi_oracles.items():
        out[f"psi({n},{s})"] = oracle
    out["T1(psi(10,3))"] = truncate(psi(10, 3), 1)
    out["T1(psi(12,3))"] = truncate(psi(12, 3), 1)
    out["T1(psi(12,4))"] = truncate(psi(12, 4), 1)
    return out
