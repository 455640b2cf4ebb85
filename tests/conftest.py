"""Shared fixtures.

The reproduction suite takes a few seconds (it re-runs every tuning), so
it executes once per session and the per-criterion tests read from the
cached results.
"""

from __future__ import annotations

import pytest

from positronium import acceptance


@pytest.fixture(scope="session")
def acceptance_results():
    results = acceptance.run_all()
    return {c.number: c for c in results}


@pytest.fixture
def grids_compared(monkeypatch):
    """Run every find_local_minima call that is given an array form
    ``f_grid`` twice, with it and with ``f`` alone, and fail unless both
    find the same minima, bit for bit.  Yields the list of the compared
    calls' windows, so a test can check that its calls were compared."""
    from positronium import acceptance, cli, models, optimize

    original = optimize.find_local_minima
    compared = []

    def both(f, r_min, r_max, points_per_decade, x_tol=optimize.DEFAULT_X_TOL, *, f_grid=None):
        got = original(f, r_min, r_max, points_per_decade, x_tol, f_grid=f_grid)
        if f_grid is not None:
            assert got == original(f, r_min, r_max, points_per_decade, x_tol), (r_min, r_max)
            compared.append((r_min, r_max))
        return got

    for module in (optimize, models, cli, acceptance):
        monkeypatch.setattr(module, "find_local_minima", both)
    yield compared
