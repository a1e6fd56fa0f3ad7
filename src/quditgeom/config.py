"""Centralized numeric tolerances.

Every tolerance used by the library lives in this one record so that
tests, validators and the CLI agree on what "equal" and "nonnegative"
mean.  Callers may pass their own values to individual functions; the
module-level ``DEFAULT`` instance supplies the defaults.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    #: slack on simplex membership: p_j in [-simplex, 1+simplex], |sum p - 1| <= simplex
    simplex: float = 1e-12
    #: accepted Hermiticity defect max|H - H^dagger|
    hermitian: float = 1e-10
    #: slack on characteristic-polynomial coefficients in the positivity test
    positivity: float = 1e-10
    #: eigenvalue clustering threshold, relative to the largest eigenvalue
    degeneracy: float = 1e-9
    #: allowed defect when a generated locus is re-checked through the invariants
    invariant_recheck: float = 1e-9


DEFAULT = Tolerances()
