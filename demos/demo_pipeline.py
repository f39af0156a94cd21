"""
Config-driven pipelines and witness replay
==========================================

One INI config drives the whole verification story: schedule, family
build, divisibility, identities, twist ledger, smoothness, base locus,
crosscheck, census. Reports are canonical JSON; failures carry replayable
witnesses.
"""

import json

from mcmforms.pipeline import (
    RunConfig,
    default_config_text,
    parse_config,
    replay,
    report_to_json,
    run_pipeline,
    strip_timings,
)
from mcmforms.schedule import ProblemShape

# The default config is the flagship shape: N=4, c=3, r=0 over F_5, seed 1.
print(default_config_text())

cfg = parse_config(default_config_text())
report = run_pipeline(cfg)
for name, entry in report["stages"].items():
    print(f"  {name:14s} {entry['status']}")
print(f"overall ok: {report['ok']}")

# Identical configs give byte-identical reports once timings are stripped.
again = run_pipeline(parse_config(default_config_text()))
same = report_to_json(strip_timings(report)) == report_to_json(strip_timings(again))
print(f"deterministic: {same}")

# A failing stage leaves a witness: the stage, the run config restricted
# to it, and what failed. Every resampled (2,1,0) general Fermat family
# over F_2 is singular, so the smoothness stage FAILs; replay reruns the
# witness's config through run_pipeline and reproduces the failure.
failing = RunConfig(shape=ProblemShape(2, 1, 0), mode="general_fermat",
                    field_spec="2", seed=0, stages=("smoothness",))
witness = run_pipeline(failing)["stages"]["smoothness"]["witness"]
print(f"witness: stage={witness['stage']}, family_seed={witness['family_seed']},"
      f" singular points={[p['z'] for p in witness['singular']]}")
rep = replay(json.loads(report_to_json(witness)))
print(f"replayed {rep['replayed']}: {rep['status']},"
      f" same witness: {rep['witness'] == witness}")

# Reports serialize with sorted keys for stable diffs.
blob = json.loads(report_to_json(report))
print(f"report keys: {sorted(blob.keys())}")
