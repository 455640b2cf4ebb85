"""Shared fixtures.

The reproduction suite takes a few seconds (it re-runs every tuning), so
it executes once per session and the per-criterion tests read from the
cached results.
"""

from __future__ import annotations

import numpy as np
import pytest

from positronium import acceptance


@pytest.fixture(scope="session")
def acceptance_results():
    results = acceptance.run_all()
    return {c.number: c for c in results}


@pytest.fixture
def fresh_bltp_tables():
    """The angular tables of the Bopp pair and of the flux integral G, built
    afresh in the test (with its monkeypatched tolerances, say) and
    forgotten after it."""
    from positronium import models

    models._bltp_table.cache_clear()
    yield
    models._bltp_table.cache_clear()


def elementwise(f):
    """``f`` evaluated float by float: an ndarray argument gives the array
    of ``f`` at each of its elements, in order."""

    def each(x):
        if isinstance(x, np.ndarray):
            return np.array([f(v) for v in x.tolist()])
        return f(x)

    return each


@pytest.fixture
def grids_compared(monkeypatch):
    """Run every find_local_minima and sample_curve call twice, with the
    callable as given (one array call on the grid) and with its element-by-
    element float evaluation (see elementwise), and fail unless both find
    the same minima or sample the same values, bit for bit.  Yields the
    list of the compared calls' windows, so a test can check that its calls
    were compared."""
    from positronium import acceptance, cli, models, optimize, variational

    find, sample = optimize.find_local_minima, models.sample_curve
    compared = []

    def find_both(f, r_min, r_max, points_per_decade):
        got = find(f, r_min, r_max, points_per_decade)
        assert got == find(elementwise(f), r_min, r_max, points_per_decade), (r_min, r_max)
        compared.append((r_min, r_max))
        return got

    def sample_both(model, r_min, r_max, points, spacing="log"):
        got = sample(model, r_min, r_max, points, spacing)
        floats = sample(elementwise(model), r_min, r_max, points, spacing)
        assert (got.grid, got.values) == (floats.grid, floats.values), (r_min, r_max)
        compared.append((r_min, r_max))
        return got

    for module in (optimize, models, cli, acceptance, variational):
        monkeypatch.setattr(module, "find_local_minima", find_both)
    monkeypatch.setattr(models, "sample_curve", sample_both)
    yield compared
