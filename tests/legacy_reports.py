"""Today's verifier and pipeline reports, mapped back to the form they had
while each hypothesis was reported once per chart.

The digests pinned on that form keep holding on the mapped reports, so a
pin moved for the new form proves that nothing but the copies changed. In
the old form:

- verify_gluing named its one check "hypothesis j1=<j1> j2=<j2>";
- verify_transition reported its one comparison as "scaling chart l" for
  each distinct chart l, then as "transition", which passed without a
  witness when both charts were one;
- verify_hidden on an mcm family made no check of the restricted bundle
  alone: each "hypothesis <layout>" check compared the restricted pairs
  first and then the layout's own, so a failing restricted pair was the
  witness of every layout check;
- the pipeline glued each layout at charts (0, 1) and again at (1, N)
  (mcm) or (0, N) (general Fermat), numbering the units in that order, and
  a transition unit's verdicts held the chart copies.

Guard reports, which hold only the "characteristic guard" skip, are the
same in both forms. The pipeline map takes passing and skipped stages
only: a failing stage stopped at another unit in the old form.

legacy_crosscheck maps a pipeline report back to the form it had while
the crosscheck stage drew 10,000 of the ambient pairs by index, with the
run's seed, instead of visiting every pair.
"""

from mcmforms.finite_geometry import characterization_crosscheck
from mcmforms.pipeline import build_family, config_from_dict


def legacy_gluing(rep):
    (check,) = rep["checks"]
    if check["id"] != "hypothesis":
        return rep
    return dict(rep, checks=[dict(check, id=f"hypothesis j1={rep['j1']} j2={rep['j2']}")])


def _transition_copies(transition, charts):
    l1, l2 = charts
    same = dict(transition, verdict="pass", witness=None) if l1 == l2 else transition
    return [dict(transition, id=f"scaling chart {l}") for l in sorted({l1, l2})] + [same]


def legacy_transition(rep):
    if rep["checks"][0]["id"] != "transition":
        return rep
    transition, exponent = rep["checks"]
    return dict(rep, checks=_transition_copies(transition, rep["charts"]) + [exponent])


def legacy_hidden(rep):
    checks = rep["checks"]
    if checks[0]["id"] != "hypothesis" or checks[1]["id"] == "twist increment":
        return rep
    restricted = checks[0]
    merged = [dict(restricted, id=c["id"])
              if c["id"].startswith("hypothesis ") and restricted["verdict"] == "fail" else c
              for c in checks[1:]]
    return dict(rep, checks=merged)


def legacy_pipeline(report):
    stages = dict(report["stages"])
    N = report["config"]["shape"]["N"]
    second = (1, N) if report["config"]["mode"] == "mcm" else (0, N)
    for name in ("gluing", "transition"):
        entry = stages.get(name)
        if entry is None or "report" not in entry:
            continue
        assert entry["status"] in ("PASS", "SKIP"), "only passing stages map back"
        units = []
        for u in entry["report"]["units"]:
            if name == "gluing":
                units += [dict(u, unit=len(units)),
                          dict(u, unit=len(units) + 1, j1=second[0], j2=second[1])]
            elif len(u["verdicts"]) == 1:  # the guard's skip
                units.append(u)
            else:
                transition, exponent = u["verdicts"]
                copies = _transition_copies({"verdict": transition, "witness": None}, u["charts"])
                units.append(dict(u, verdicts=[c["verdict"] for c in copies] + [exponent]))
        stages[name] = dict(entry, report=dict(entry["report"], units=units))
    return dict(report, stages=stages)


def legacy_crosscheck(report):
    entry = report["stages"]["crosscheck"]
    assert entry["status"] == "PASS", "only a passing crosscheck maps back"
    cfg = config_from_dict(report["config"])
    fam = build_family(cfg, report["stages"]["smoothness"]["report"]["family_seed"])
    sampled = characterization_crosscheck(fam, cfg.field.p, sample=10_000, seed=cfg.seed)
    return dict(report, stages=dict(report["stages"], crosscheck=dict(entry, report=sampled)))
