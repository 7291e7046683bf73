"""The package's numeric tolerances: three fixed, absolute module constants.

All geometry runs in float64.  The thresholds below decide the certified
verdicts, and no function takes them as arguments:

* ``RANK_TOL`` decides rank: a Gram-Schmidt remainder or singular value at
  or below it (times max(1, the data's largest entry)) counts as zero, so it
  settles whether a Kirchberger witness flat, a keep-normal set or a point
  subset is degenerate.
* ``GEOM_TOL`` decides coincidence: the residual allowed when two flats meet,
  when a point is recombined from barycentric or common-point coefficients,
  and the length below which an eliminating direction counts as zero.
* ``LP_TOL`` decides separation: an LP optimum may violate a row by this much
  (times the data scale).  A nearest-point plane counts as strict when its
  margin exceeds it times the radius of the centred data; on the LP
  fallback, the maximum slack must exceed it.

``RANK_TOL``, ``GEOM_TOL`` and the LP's use of ``LP_TOL`` are absolute, so
a verdict that rests on them can change when the input is rescaled far below
unit scale; deriving them from the input's scale is ROADMAP item 1.
"""
from __future__ import annotations

RANK_TOL = 1e-9     # pivot / singular-value threshold for rank decisions
GEOM_TOL = 1e-8     # point coincidence and recombination residuals
LP_TOL = 1e-9       # LP feasibility and strictness threshold
