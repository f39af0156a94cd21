"""Exact construction and verification of twisted symmetric differential forms
on Fermat-type and moving-coefficient complete intersections.

Modules:
  exact_algebra    sparse bigraded polynomials over Q or F_p, differentials,
                   exact division, compiled evaluation mod m, determinants mod p
  schedule         exponent recurrences, twist-degree ledger, bound reports
  section_builder  section families, structured matrices, form extraction
  identity_verifier  gluing, transition, surjectivity and hidden-form checks
  finite_geometry  point enumeration, rank-condition census, base-locus scans
  product_coup     semigroup splits and product-decomposition checks
  pipeline         staged deterministic runs; cli exposes the `mcm` command
"""

__version__ = "0.1.0"
