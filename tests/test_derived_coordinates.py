"""The thermal records hold p alone, validated once where it is made; lambda
and t come from ``p_to_lambda`` and ``invariants``."""

import collections

import numpy as np
import pytest

from quditgeom import (
    LMGParams,
    linear_spectrum,
    lmg_spectrum,
    phase_grid,
    trajectory,
)
from quditgeom import models, representations, thermal

BUILDERS = {
    "trajectory-linear": lambda: trajectory(linear_spectrum(1.5)),
    "trajectory-lmg": lambda: trajectory(lmg_spectrum(2, LMGParams(g_x=0.7, g_y=-1.2))),
    "phase-grid": lambda: phase_grid(1.5, np.linspace(-3, 3, 7), np.linspace(-3, 3, 5), 1.0),
}
RECORDS = {"ThermalTrajectory": BUILDERS["trajectory-lmg"], "PhaseGrid": BUILDERS["phase-grid"]}


@pytest.mark.parametrize("build", RECORDS.values(), ids=RECORDS)
def test_records_hold_p_but_no_lambda_or_t_field(build):
    record = build()
    assert len(record.p) == len(record)
    assert not hasattr(record, "lam") and not hasattr(record, "t")


@pytest.mark.parametrize("build", BUILDERS.values(), ids=BUILDERS)
def test_p_is_validated_once(build, monkeypatch):
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

    build()
    assert calls == {"check_probability_vector": 1}
