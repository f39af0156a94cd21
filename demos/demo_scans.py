"""
Finite-field scans: smoothness, base locus, membership crosscheck
=================================================================

Everything geometric is checked pointwise over F_5: the Jacobian criterion
on every projective point, the common vanishing locus of all extracted
forms, and the rank-condition characterization of that locus.
"""

from mcmforms.exact_algebra import Field
from mcmforms.finite_geometry import (
    base_locus_scan,
    characterization_crosscheck,
    smoothness_with_resampling,
)
from mcmforms.schedule import ProblemShape, build_schedule
from mcmforms.section_builder import build_sections, standard_forms

F5 = Field(5)
shape = ProblemShape(4, 3, 0)
sched = build_schedule(shape, heart=2)

# Random families can be singular over a tiny field; reseeding a few times
# finds a smooth one (the report records which attempt succeeded).
smooth = smoothness_with_resampling(shape, "mcm", F5, schedule=sched,
                                    seed=1, q=5)
print(f"smooth family after {smooth['attempt']} reseeds:"
      f" {smooth['points']} points on X, seed={smooth['family_seed']}")

fam = build_sections(shape, "mcm", field=F5, schedule=sched,
                     seed=smooth["family_seed"])

# The base locus collects (point, tangent direction) pairs where every
# extracted form vanishes; fiber counts summarize vanishing per point. The
# forms are evaluated from their divided matrices and never expanded.
forms = standard_forms(fam)
locus = base_locus_scan(fam, forms, 5)
print(f"base locus: {locus['base_count']} of {locus['directions']} pairs"
      f" ({len(forms)} forms), ok={locus['ok']}")
print("fiber counts:", dict(list(locus["fiber_counts"].items())[:3]))

# Membership in the rank variety must agree with the vanishing of the same
# forms on every pair; the forward direction is exact. The incidence pairs,
# those of the base-locus walk, are visited one by one.
cross = characterization_crosscheck(fam, 5)  # every pair
print(f"crosscheck: {cross['samples']} pairs, agree={cross['agree']},"
      f" incidence={cross['incidence_pairs']},"
      f" member-but-not-vanishing={cross['member_not_vanish']}")
