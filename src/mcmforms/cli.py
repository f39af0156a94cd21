"""The `mcm` command line tool.

Subcommands mirror the library layers: `schedule` prints exponent schedules
with their twist ledgers, `build` writes family files, `verify` runs the
identity checkers, `scan` runs the finite-field scans, `coup` exposes the
degree arithmetic, and `run`/`replay` drive config-based pipelines.
`verify gluing|transition` and `scan base-locus` print the report of the
pipeline's stage body run on the loaded family; `scan smooth|crosscheck`
call the scans without a run's point budget, resampling or SKIPs. Every
handler returns its report, and main emits it as canonical JSON on stdout
(and to --json PATH when given). The exit code is 0 when nothing FAILed, 1
when a check FAILed, and 2 when the command is refused, as for a missing
--family or --shape. Identities are checked exactly on every path.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from typing import List, Optional

from .exact_algebra import Field, from_literal
from .finite_geometry import characterization_crosscheck, rank_condition_census, smoothness_check
from .identity_verifier import verify_hidden, verify_surjectivity
from .pipeline import (
    RunConfig,
    build_family,
    parse_config,
    replay,
    report_to_json,
    run_pipeline,
    stage_base_locus,
    stage_gluing,
    stage_transition,
)
from .product_coup import (
    NoRepresentation,
    effective_bound_NN2,
    frobenius_split,
    verify_product_decomposition,
    verify_semigroup_bound,
)
from .schedule import (
    ProblemShape,
    build_schedule,
    effective_bound_report,
    ledger_to_dict,
    schedule_to_dict,
    twist_ledger,
    validate_schedule,
)
from .section_builder import FamilyData, load_family, save_family


def _csv_ints(text: Optional[str]) -> Optional[tuple]:
    if text is None:
        return None
    return tuple(int(x) for x in text.replace(",", " ").split())


def _shape(text: str) -> ProblemShape:
    parts = _csv_ints(text)
    if len(parts) not in (2, 3):
        raise argparse.ArgumentTypeError("shape must be N,c[,r]")
    return ProblemShape(*parts) if len(parts) == 3 else ProblemShape(parts[0], parts[1], 0)


def _needs(args, flag: str):
    """The value of --flag, or ValueError naming the missing flag."""
    value = getattr(args, flag)
    if value is None:
        raise ValueError(f"{args.command} {args.what} needs --{flag}")
    return value


# ----- subcommand handlers: each returns its report -----


def _cmd_schedule(args) -> dict:
    shape = ProblemShape(args.N, args.c, args.r)
    sched = build_schedule(shape, heart=args.heart, eps=_csv_ints(args.eps))
    validation = validate_schedule(sched)
    ledger = ledger_to_dict(twist_ledger(sched))
    return {
        "op": "schedule",
        **{k: v for k, v in schedule_to_dict(sched).items() if k != "slack"},
        "ledger": ledger,
        "bounds": effective_bound_report(sched),
        "validation": validation,
        "ok": validation["ok"] and ledger["ok"],
    }


def _cmd_build(args) -> dict:
    cfg = RunConfig(shape=args.shape, mode=args.mode, field_spec=args.field,
                    heart=args.heart, eps=_csv_ints(args.eps),
                    lambdas=_csv_ints(args.lambdas), degrees=_csv_ints(args.degrees))
    fam = build_family(cfg, args.seed)
    save_family(fam, args.out)
    return {
        "op": "build",
        "out": args.out,
        "mode": fam.mode,
        "field": args.field,
        "seed": args.seed,
        "sections": len(fam.sections),
        "degrees": [F.z_degree() for F in fam.sections],
        "ok": True,
    }


def _cmd_verify(args) -> dict:
    if args.what == "surjectivity":
        return verify_surjectivity(args.N, args.d, trials=args.trials, seed=args.seed)
    fam = load_family(_needs(args, "family"))
    if args.what == "hidden":
        return verify_hidden(fam, _csv_ints(args.vanished) or (),
                             _csv_ints(args.selection) or ())
    stage = stage_gluing if args.what == "gluing" else stage_transition
    status, report, _ = stage(FamilyData(fam), checks=True)
    return {"op": f"verify-{args.what}", "family": args.family, "status": status, **report,
            "ok": status != "FAIL"}


def _cmd_scan(args) -> dict:
    if args.what == "census":
        return rank_condition_census(args.a, args.b, args.q, mode=args.mode,
                                     sample_size=10_000 if args.sample is None else args.sample,
                                     seed=args.seed)
    fam = load_family(_needs(args, "family"))
    q = args.q if args.q else fam.field.p
    if not q:
        raise ValueError("scan over a rational family needs --q")
    if args.what == "smooth":
        return smoothness_check(fam, q)
    if args.what == "base-locus":
        return stage_base_locus(FamilyData(fam), q, _csv_ints(args.vanished) or ())[1]
    return characterization_crosscheck(fam, q, sample=args.sample, seed=args.seed)


def _cmd_coup(args) -> dict:
    if args.what == "split":
        try:
            p, q = frobenius_split(args.d, args.s)
            return {"op": "coup-split", "d": args.d, "s": args.s, "p": p, "q": q, "ok": True}
        except NoRepresentation as exc:
            return {"op": "coup-split", "d": args.d, "s": args.s,
                    "error": str(exc), "ok": False}
    if args.what == "bound":
        return effective_bound_NN2(args.N)
    if args.what == "semigroup":
        return verify_semigroup_bound(args.s, args.horizon)
    shape, field = _needs(args, "shape"), Field.from_spec(args.field)
    factors = [[from_literal(lit.strip(), shape.N, field) for lit in group.split(";")]
               for group in args.factors]
    return verify_product_decomposition(factors, shape, args.q)


def _cmd_run(args) -> dict:
    with open(args.config) as fh:
        cfg = parse_config(fh.read())
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    return run_pipeline(cfg)


def _cmd_replay(args) -> dict:
    with open(args.witness) as fh:
        return replay(json.load(fh))


# ----- parser -----


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcm",
        description="Exact construction and verification of negatively "
                    "twisted symmetric differential forms.")
    sub = parser.add_subparsers(dest="command", required=True)
    eps_help = "the epsilon_i, comma-separated: one per section, each at least 1"
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", help="also write the report to this path")

    def add(name: str, fn, **kwargs) -> argparse.ArgumentParser:
        command = sub.add_parser(name, parents=[common], **kwargs)
        command.set_defaults(fn=fn)
        return command

    p = add("schedule", _cmd_schedule, help="build and validate an exponent schedule")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--r", type=int, default=0)
    p.add_argument("--heart", type=int, default=2)
    p.add_argument("--eps", help=eps_help)

    p = add("build", _cmd_build, help="build a section family and save it")
    p.add_argument("--shape", type=_shape, required=True, help="N,c,r")
    p.add_argument("--mode", choices=("mcm", "general_fermat"), default="mcm")
    p.add_argument("--field", default="5", help="prime p, or Q for rationals")
    p.add_argument("--heart", type=int, default=2)
    p.add_argument("--eps", help=eps_help)
    p.add_argument("--lambdas", help="explicit exponents (general_fermat)")
    p.add_argument("--degrees", help="section degrees (general_fermat)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", required=True, help="family file to write")

    p = add("verify", _cmd_verify, help="run identity checks")
    p.add_argument("what", choices=("gluing", "transition", "surjectivity", "hidden"))
    p.add_argument("--family", help="family file (gluing/transition/hidden)")
    p.add_argument("--trials", type=int, default=20, help="sampled points (surjectivity)")
    p.add_argument("--seed", type=int, default=0, help="seed of the points (surjectivity)")
    p.add_argument("--N", type=int, default=2, help="ambient dim (surjectivity)")
    p.add_argument("--d", type=int, default=3, help="degree (surjectivity)")
    p.add_argument("--vanished", help="coordinates set to zero (hidden)")
    p.add_argument("--selection", help="differential rows (hidden)")

    p = add("scan", _cmd_scan, help="finite-field scans")
    p.add_argument("what", choices=("base-locus", "smooth", "census", "crosscheck"))
    p.add_argument("--family")
    p.add_argument("--q", type=int, help="field size (defaults to the family's)")
    p.add_argument("--a", type=int, default=2, help="census row pairs")
    p.add_argument("--b", type=int, default=2, help="census rows")
    p.add_argument("--mode", choices=("exhaustive", "sample"), default="exhaustive")
    p.add_argument("--sample", type=int,
                   help="census: matrices drawn in sample mode (default 10000); "
                        "crosscheck: pairs drawn (default every pair)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--vanished", help="coordinates set to zero (base-locus)")

    p = add("coup", _cmd_coup, help="product-coup degree arithmetic")
    p.add_argument("what", choices=("split", "bound", "semigroup", "decompose"))
    p.add_argument("--d", type=int, default=0)
    p.add_argument("--s", type=int, default=2)
    p.add_argument("--N", type=int, default=4)
    p.add_argument("--horizon", type=int, default=10_000)
    p.add_argument("--shape", type=_shape, help="N,c,r (decompose)")
    p.add_argument("--q", type=int, default=3, help="field size (decompose)")
    p.add_argument("--field", default="3")
    p.add_argument("--factors", action="append", default=[],
                   help="factors of one section, ';'-separated literals; "
                        "repeat per section")

    p = add("run", _cmd_run, help="run a config-driven pipeline")
    p.add_argument("--config", required=True, help="INI config path")
    p.add_argument("--seed", type=int, help="override the config seed")

    p = add("replay", _cmd_replay, help="rerun the stage behind a failure witness")
    p.add_argument("--witness", required=True, help="witness JSON path")

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report = args.fn(args)
        text = report_to_json(report)
        sys.stdout.write(text)
        if args.json:
            with open(args.json, "w") as fh:
                fh.write(text)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    return 0 if report.get("ok", True) else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
