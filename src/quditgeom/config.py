"""Shared numeric tolerances.

The tolerances that several functions, tests and validators share live in
this one record, so that they agree on what "equal" and "nonnegative"
mean.  Every function reads its slack from the module-level ``DEFAULT``
instance; only ``check_probability_vector`` takes a per-call slack, which
the CLI uses for p read from text.

A few fixed slacks that serve one site each are literals there instead:
the CLI's simplex slack for p read from text (``cli._TEXT_SIMPLEX_SLACK``),
the 1e-10 root slack of ``curves._smallest_admissible_root``, the 1e-12
closed-form match of ``curves.lambda_segment_images`` and the 1e-12 test that
2J is an integer (``models._check_spin``, which ``cli._parse_spin`` calls
too).
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    #: slack on simplex membership: p_j in [-simplex, 1+simplex], |sum p - 1| <= simplex
    simplex: float = 1e-12
    #: accepted Hermiticity defect max|H - H^dagger|
    hermitian: float = 1e-10
    #: slack on the smallest eigenvalue in the positivity test, relative to
    #: the largest eigenvalue magnitude
    positivity: float = 1e-12
    #: eigenvalue clustering threshold, relative to the largest eigenvalue
    degeneracy: float = 1e-9
    #: allowed defect when a generated locus is re-checked through the invariants
    invariant_recheck: float = 1e-9


DEFAULT = Tolerances()
