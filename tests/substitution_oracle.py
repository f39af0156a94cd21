"""The general substitution dz_k -> image_k, and the exact transition check
that expands a form and substitutes into it.

Kept apart from the library, which only projects polynomials linear in dz
entry by entry: this is the reference that projection and the exact
transition checks are compared with. Terms are substituted one by one and
accumulated in a plain dict.
"""

from conftest import expand_form

from mcmforms.exact_algebra import MultiPoly


def substitute_dz(p, images):
    """p with every dz_k replaced by images[k]; z is left alone."""
    N, field = p.N, p.field
    n1 = N + 1
    out = {}
    for exp, c in p.terms.items():
        piece = MultiPoly(N, field, {exp[:n1] + (0,) * n1: c})
        for k, e in enumerate(exp[n1:]):
            for _ in range(e):
                piece = piece * images[k]
        for key, value in piece.terms.items():
            out[key] = out.get(key, 0) + value
    return MultiPoly(N, field, out)


def chart_images(N, field, l):
    """w_l,k = z_l dz_k - dz_l z_k for k = 0..N."""
    z, dz = MultiPoly.z, MultiPoly.dz
    return [z(N, l, field) * dz(N, k, field) - dz(N, l, field) * z(N, k, field)
            for k in range(N + 1)]


def reference_transition(form, l1, l2):
    """(id, verdict) of the exact scaling and transition checks of a form,
    in report order, made by expanding G (expand_form) and substituting
    w_l into it."""
    G = expand_form(form)
    N, field, n = G.N, G.field, form.dz_degree
    charts = sorted({l1, l2})
    at = {l: substitute_dz(G, chart_images(N, field, l)) for l in charts}

    def times(x, l):
        return x * MultiPoly.z(N, l, field, power=n)

    checks = [(f"scaling chart {l}", at[l] == times(G, l)) for l in charts]
    checks.append(("transition", times(at[l1], l2) == times(at[l2], l1)))
    return [(check_id, "pass" if ok else "fail") for check_id, ok in checks]
