"""lambda and t of the thermal records are derived from p, once, on first access."""

import collections
import dataclasses

import numpy as np
import pytest

from quditgeom import (
    LMGParams,
    PhaseGrid,
    ThermalTrajectory,
    invariants,
    linear_spectrum,
    lmg_spectrum,
    p_to_lambda,
    phase_grid,
    trajectory,
)
from quditgeom import models, representations, thermal

BUILDERS = {
    "trajectory-linear": lambda: trajectory(linear_spectrum(1.5)),
    "trajectory-lmg": lambda: trajectory(lmg_spectrum(2, LMGParams(g_x=0.7, g_y=-1.2))),
    "phase-grid": lambda: phase_grid(1.5, np.linspace(-3, 3, 7), np.linspace(-3, 3, 5), 1.0),
}


@pytest.mark.parametrize("record", [ThermalTrajectory, PhaseGrid])
def test_records_hold_p_but_no_lambda_or_t_field(record):
    names = {field.name for field in dataclasses.fields(record)}
    assert "p" in names
    assert not names & {"lam", "t"}


@pytest.mark.parametrize("build", BUILDERS.values(), ids=BUILDERS)
def test_p_is_validated_once_and_lambda_and_t_derived_once_on_access(build, monkeypatch):
    calls = collections.Counter()

    def counting(name, func):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)
        return wrapper

    for module in (representations, thermal, models):
        for name in ("check_probability_vector", "p_to_lambda", "invariants"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))

    record = build()
    assert calls == {"check_probability_vector": 1}
    lam, t = record.lam, record.t
    assert record.lam is lam and record.t is t
    assert calls == {"check_probability_vector": 1, "p_to_lambda": 1, "invariants": 1}
    monkeypatch.undo()
    assert np.array_equal(lam, p_to_lambda(record.p))
    assert np.array_equal(t, invariants(record.p))
