"""
Building section families and extracting twisted forms
======================================================

Constructs a moving-coefficients family over F_5, shows the structured
matrix bundle, verifies the declared column divisors, and extracts one
negatively twisted symmetric differential form, evaluated at a point.
"""

from mcmforms.exact_algebra import Field, to_literal
from mcmforms.schedule import ProblemShape, build_schedule
from mcmforms.section_builder import (
    build_matrices,
    build_sections,
    build_selected,
    column_divisors,
    extract_forms,
    save_family,
)

# A small shape keeps the polynomials printable: N=3, two cutting sections.
shape = ProblemShape(3, 2, 0)
sched = build_schedule(shape, heart=2)
fam = build_sections(shape, "mcm", field=Field(5), schedule=sched, seed=3)

print(f"built {len(fam.sections)} sections of degree {sched.d} over F_5")
print(f"first section, first terms: {to_literal(fam.sections[0])[:70]} ...")

# The bundle stacks value rows and their total differentials; selected
# sub-bundles (K_nu, K_tau_rho) combine its columns and carry declared
# column divisors.
K = build_selected(build_matrices(fam), ("K_nu", 0))
divisors = column_divisors(K)
print("K_nu=0 column divisors:",
      [(d["coordinate"], d["exponent"]) for d in divisors])

# Extracting a form divides each column by its declared power and takes the
# signed determinant with one column omitted; the twist comes out negative.
# The determinant is never expanded: the form is evaluated at a point from
# its divided matrix.
form = extract_forms(K, [(1,)], omit=0)[0]
z, dz = [1, 1, 1, 1], [1, 0, 0, 0]
print(f"extracted form: twist={form.twist}, z-degree={form.z_degree},"
      f" dz-degree={form.dz_degree}, value mod 5 at z={z}, dz={dz}: {form.evaluate_at(z, dz, 5)}")

# Families round-trip through JSON with exact coefficient literals.
save_family(fam, "/tmp/demo_family.json")
print("saved family to /tmp/demo_family.json")
