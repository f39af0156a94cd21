"""
Machine-checking the gluing and transition identities
=====================================================

The extracted forms are defined chart by chart; two identities make them
globally consistent. Both are verified exactly for small shapes and by
random evaluation (Schwartz-Zippel) for the larger ones.
"""

from mcmforms.exact_algebra import QQ, Field
from mcmforms.identity_verifier import verify_gluing, verify_transition
from mcmforms.schedule import ProblemShape, build_schedule
from mcmforms.section_builder import build_sections

shape = ProblemShape(3, 2, 0)
sched = build_schedule(shape, heart=2)
fam = build_sections(shape, "mcm", field=Field(5), schedule=sched, seed=3)

# Gluing: two chart realizations agree on X because each value row of the
# matrix sums to its section and each differential row is the differential
# of its value row; the check compares exactly these pairs.
rep = verify_gluing(fam, selection=(1,), j1=0, j2=1, which=("K_nu", 0))
print("gluing (exact):", [(c["id"], c["verdict"]) for c in rep["checks"]],
      f"generators={rep['generators']}")

# Transition: changing charts rescales the form by a power of z_l; the
# exponent must match the ledger-recorded twist exactly.
rep = verify_transition(fam, selection=(1,), omit=0, l1=0, l2=1,
                        which=("K_nu", 0))
print("transition (exact):", [c["verdict"] for c in rep["checks"]],
      f"exponent={rep['exponent']}")

# For N=4 over the rationals the same identities are checked numerically at
# random points modulo a 31-bit prime: 20 trials push the failure
# probability below 2^-40 for these degree budgets.
big = build_sections(ProblemShape(4, 3, 0), "general_fermat", field=QQ,
                     lambdas=(2, 1, 2, 1, 2), degrees=(3, 3, 4), seed=7)
rep = verify_gluing(big, selection=(1,), j1=0, j2=4, mode="probabilistic",
                    trials=20, seed=0)
print("gluing (probabilistic, N=4/QQ):",
      [(c["verdict"], c["trials"]) for c in rep["checks"]])
