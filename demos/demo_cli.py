"""
The mcm command line tool
=========================

Every library capability is reachable from the `mcm` executable; this demo
drives it in-process through the same entry point the console script uses.
All subcommands print canonical JSON and exit 0 iff nothing failed.
"""

import json
import tempfile
from pathlib import Path

from mcmforms.cli import main

workdir = Path(tempfile.mkdtemp(prefix="mcm-demo-"))

# Build the flagship schedule and keep its JSON report.
sched_json = workdir / "schedule.json"
code = main(["schedule", "--N", "4", "--c", "3", "--r", "0", "--heart", "2",
             "--json", str(sched_json)])
report = json.loads(sched_json.read_text())
print(f"# mcm schedule -> exit {code}, d={report['d']},"
      f" ledger ok={report['ledger']['ok']}")

# Build a family file, then verify and scan it.
family = workdir / "family.json"
code = main(["build", "--shape", "3,2,0", "--field", "5", "--seed", "3",
             "--out", str(family)])
print(f"# mcm build -> exit {code}, wrote {family.name}")

# verify gluing runs the pipeline's gluing stage on the family file.
verify_json = workdir / "verify.json"
code = main(["verify", "gluing", "--family", str(family),
             "--json", str(verify_json)])
report = json.loads(verify_json.read_text())
verdicts = {v for unit in report["units"] for v in unit["verdicts"]}
print(f"# mcm verify gluing -> exit {code}, {report['status']},"
      f" {len(report['units'])} units all {verdicts}")

scan_json = workdir / "scan.json"
code = main(["scan", "smooth", "--family", str(family),
             "--json", str(scan_json)])
report = json.loads(scan_json.read_text())
print(f"# mcm scan smooth -> exit {code}, points={report['points']},"
      f" ok={report['ok']}")

# Degree arithmetic needs no family file.
code = main(["coup", "split", "--d", "7", "--s", "3",
             "--json", str(workdir / "split.json")])
print(f"# mcm coup split -> exit {code}")

# And the pipeline runs from an INI config.
config = workdir / "run.ini"
config.write_text("[run]\nschema = 1\nseed = 3\n"
                  "stages = schedule twist-ledger census\n\n"
                  "[shape]\nN = 3\nc = 2\nr = 0\n\n"
                  "[census]\nshapes = 2 2 2\n")
run_json = workdir / "run.json"
code = main(["run", "--config", str(config), "--json", str(run_json)])
report = json.loads(run_json.read_text())
print(f"# mcm run -> exit {code},"
      f" stages={[s for s in report['stages']]}, ok={report['ok']}")
