"""Benchmark harness: closed-loop passes, end-to-end metrics, traced runs.

One run builds one workload from its seed, then repeats passes over the
same inputs in a single thread, each unit starting when the previous one
has finished, for the requested number of seconds.  Every unit's output is
checked; a wrong or failed unit counts in ``failed`` and makes the run exit
non-zero.  With ``--trace 1`` every unit runs untraced and traced back to
back, and the run reports per-layer self times and work counts instead.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import workloads  # imports no numpy, so threads can still be pinned
from speed import Speedometer

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

# The layers: the modules of mcmforms, in the order the benchmark reports them.
LAYERS = ("exact_algebra", "section_builder", "identity_verifier", "finite_geometry",
          "util", "schedule", "product_coup", "pipeline")

# A later claim must hold on this seed too, not only on the seeds it was
# tuned on.
HOLDOUT_SEED = 20261017

# (name, unit, better) of the end-to-end metrics of the result line.  The
# times are in reference-machine seconds (see speed.py): the host's speed
# drifts too much for raw wall time to compare two runs.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("pass_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

# Printed with every untraced run, but not in the result line: the raw
# wall-clock times behind pass_s and setup_s, and the host's speed.
RAW_TIMES = (
    ("wall_s", "s", "lower"),
    ("setup_wall_s", "s", "lower"),
    ("host_speed", "ratio", "higher"),
)

# Printed with every untraced run, but not in the result line: over ten
# seeds their spread (interquartile range over median) reached 0.22 for the
# p50 on pipeline-default and 0.30 for the tail on scan-fp.  Which unit
# sits at a percentile depends on the seed, because the units of a
# workload differ in size by orders of magnitude.
UNIT_LATENCY = (
    ("unit_p50_ms", "ms", "lower"),
    ("unit_tail_ms", "ms", "lower"),
)

PER_LAYER = (
    # exact_algebra
    ("mul_calls", "count", "lower"),
    ("mul_term_pairs", "count", "lower"),
    ("mul_terms_out", "count", "lower"),
    ("merge_ratio", "ratio", "higher"),
    ("mul_self_s", "s", "lower"),
    ("add_self_s", "s", "lower"),
    ("poly_det_calls", "count", "lower"),
    ("poly_det_terms_out", "count", "lower"),
    ("poly_det_self_s", "s", "lower"),
    ("eval_calls", "count", "lower"),
    ("eval_terms", "count", "lower"),
    ("eval_self_s", "s", "lower"),
    ("det_mod_p_calls", "count", "lower"),
    ("det_mod_p_self_s", "s", "lower"),
    # section_builder
    ("extract_form_calls", "count", "lower"),
    ("extract_form_self_s", "s", "lower"),
    ("form_terms", "count", "lower"),
    ("build_matrices_calls", "count", "lower"),
    ("matrix_rebuild_ratio", "ratio", "lower"),
    ("build_selected_self_s", "s", "lower"),
    # identity_verifier
    ("gluing_units", "count", "lower"),
    ("gluing_self_s", "s", "lower"),
    ("transition_units", "count", "lower"),
    ("transition_self_s", "s", "lower"),
    ("sz_trials", "count", "lower"),
    # finite_geometry
    ("points_enumerated", "count", "lower"),
    ("directions_visited", "count", "lower"),
    ("incidence_pairs", "count", "higher"),
    ("crosscheck_coverage", "ratio", "higher"),
    ("census_matrices", "count", "lower"),
    ("census_self_s", "s", "lower"),
    ("membership_calls", "count", "lower"),
    ("base_locus_self_s", "s", "lower"),
    ("crosscheck_self_s", "s", "lower"),
    ("smoothness_self_s", "s", "lower"),
    # util
    ("rank_mod_p_calls", "count", "lower"),
    ("rank_mod_p_self_s", "s", "lower"),
    ("kernel_basis_calls", "count", "lower"),
    # schedule
    ("twist_ledger_calls", "count", "lower"),
    ("twist_ledger_self_s", "s", "lower"),
    # product_coup
    ("decomposition_pairs", "count", "lower"),
    ("decomposition_self_s", "s", "lower"),
    # pipeline
    *((f"stage_s.{stage}", "s", "lower") for stage in workloads.PIPELINE_STAGES),
    # every layer, and the unit spans of the benchmark itself
    *((f"layer_self_s.{layer}", "s", "lower") for layer in LAYERS + ("bench",)),
    ("trace_spans", "count", "lower"),
    ("trace_overhead_pct", "%", "lower"),
)

# The per-layer metrics of the result line: every count and ratio, and the
# times measured on every workload.  A self time of a layer that a workload
# never calls reads 0 on every run; those times are printed and written to
# the trace summary only.
TIMED_EVERYWHERE = ("mul_self_s", "add_self_s", "layer_self_s.exact_algebra",
                    "layer_self_s.section_builder", "layer_self_s.bench",
                    "trace_overhead_pct")
PER_LAYER_RESULT = tuple(m for m in PER_LAYER
                         if m[1] in ("count", "ratio") or m[0] in TIMED_EVERYWHERE)

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

SETUP_CHILDREN = 4


def pin_threads() -> None:
    """One BLAS/OpenMP thread; must run before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def load_program(root: Path = ROOT) -> Dict[str, object]:
    """Import the layers from ``root/src``; never from anywhere else."""
    src = root / "src"
    if not (src / "mcmforms" / "__init__.py").is_file():
        raise FileNotFoundError(f"no mcmforms package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import importlib

    mods = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"mcmforms.{layer}")
        if Path(mod.__file__).resolve().parent != (src / "mcmforms").resolve():
            raise ImportError(f"mcmforms.{layer} was imported from {mod.__file__}, not {src}")
        mods[layer] = mod
    return mods


def _git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "commit": _git_commit(ROOT),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "holdout_seed": HOLDOUT_SEED,
    }


# ----- statistics -----


def nearest_rank(values: Sequence[float], level: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(level * len(ordered)) - 1)]


def tail_level(workload) -> float:
    """The highest percentile with at least 10 units beyond it in a run of
    ``min_passes`` passes; fixed per workload, so it does not move with
    the number of passes a faster program fits in."""
    n = workload.units_per_pass * workload.min_passes
    return max(0.5, 1.0 - 10.0 / n)


# ----- passes -----


@dataclass
class PassRecord:
    """One pass: its wall time, and per unit its digest and outcomes.
    An untraced pass also has its time in reference-machine seconds and
    the host's speed."""

    wall: float
    unit_digests: List[str]
    outcomes: List[list]
    norm: Optional[float] = None
    speed: Optional[float] = None


def run_unit(unit, tracer=None) -> tuple:
    """(unit, report, traceback or None, seconds) of one call; a traced
    call installs the tracer's wrappers around it and removes them after."""
    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter()
    try:
        rep = tracer.unit(unit.name, unit.run) if tracer else unit.run()
        return unit, rep, None, time.perf_counter() - t0
    except Exception:  # a crashing unit is a failed unit, not a crashed run
        return unit, None, traceback.format_exc(), time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()


def finish_pass(wall: float, results: list) -> PassRecord:
    """Check a pass's outputs; runs after the clock has stopped."""
    digests, outcomes = [], []
    for unit, rep, raised, seconds in results:
        if raised is None:
            try:
                outcomes.append(unit.outcomes(rep, seconds))
                digests.append(unit.digest(rep))
                continue
            except Exception:
                raised = traceback.format_exc()
        print(f"# unit {unit.name} failed:\n{raised}", file=sys.stderr)
        outcomes.append([workloads.Outcome(unit.name, seconds, ["raised"], "")])
        digests.append("")
    return PassRecord(wall, digests, outcomes)


def run_pass(workload) -> PassRecord:
    """Every unit once, in order, untraced, with the host's speed probed."""
    meter = Speedometer().start()
    results = [run_unit(unit) for unit in workload.units]
    meter.stop()
    rec = finish_pass(meter.elapsed - sum(meter.samples), results)
    rec.norm, rec.speed = meter.normalized(), meter.speed()
    return rec


def run_paired_pass(workload, tracer, traced_first: bool) -> Tuple[PassRecord, PassRecord]:
    """Every unit twice in a row, untraced and traced, so both measurements
    of a unit see the same machine; returns (untraced, traced) records whose
    walls are the sums of their units' times."""
    plain, traced = [], []
    for unit in workload.units:
        order = (tracer, None) if traced_first else (None, tracer)
        for t in order:
            (traced if t is not None else plain).append(run_unit(unit, t))
    return tuple(finish_pass(sum(r[3] for r in res), res) for res in (plain, traced))


def tally(passes: List[PassRecord]) -> Tuple[int, List[str], List[float]]:
    """Failed unit count, error lines and unit latencies over all passes.

    A unit whose output differs from the first pass's is wrong too: the
    inputs are the same, so the outputs must be.
    """
    failed, errors, latencies = 0, [], []
    first = passes[0]
    for k, rec in enumerate(passes):
        for u, outs in enumerate(rec.outcomes):
            whole_differs = rec.unit_digests[u] != first.unit_digests[u]
            for i, out in enumerate(outs):
                latencies.append(out.seconds)
                errs = list(out.errors)
                if out.digest != first.outcomes[u][i].digest or (whole_differs and not errs):
                    errs.append("output differs from pass 0")
                if errs:
                    failed += 1
                    errors += [f"pass {k} {out.name}: {e}" for e in errs]
    return failed, errors, latencies


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def loop(min_passes: int, seconds: float, one_pass) -> None:
    """Call one_pass(index), which returns its wall time, until
    ``min_passes`` are done and the next pass would overrun ``seconds``."""
    start = time.perf_counter()
    walls: List[float] = []
    while True:
        spent = time.perf_counter() - start
        if len(walls) >= min_passes and spent + _median(walls) > seconds:
            return
        walls.append(one_pass(len(walls)))


# ----- setup -----


def measure_setup(name: str, seed: int, small: bool,
                  meter: Speedometer) -> Tuple[dict, object, float, float]:
    """Import the program and build the workload from the seed; returns the
    modules, the workload, and the time since ``meter`` was started in
    reference-machine seconds and in wall-clock seconds."""
    mods = load_program()
    wl = workloads.build(name, seed, mods, small=small)
    meter.stop()
    return mods, wl, meter.normalized(), meter.elapsed


def setup_in_children(name: str, seed: int, count: int) -> List[dict]:
    """Repeat set-up in fresh interpreters, one after another."""
    script = Path(__file__).resolve().parent / "run.py"
    out = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(script), "--workload", name, "--seed", str(seed),
             "--setup-only"],
            cwd=str(ROOT), capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed:\n{proc.stderr}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


# ----- metrics -----


def end_to_end_metrics(workload, passes: List[PassRecord], setups: List[float],
                       setup_walls: List[float]) -> Tuple[dict, dict]:
    _, _, latencies = tally(passes)
    level = tail_level(workload)
    values = {
        "setup_s": _median(setups),
        "pass_s": _median([p.norm for p in passes]),
        "wall_s": _median([p.wall for p in passes]),
        "setup_wall_s": _median(setup_walls),
        "host_speed": _median([p.speed for p in passes]),
        "unit_p50_ms": 1e3 * _median(latencies),
        "unit_tail_ms": 1e3 * nearest_rank(latencies, level),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {
        "passes": len(passes),
        "units": len(latencies),
        "tail_percentile": 100.0 * level,
        "pass_walls": [p.wall for p in passes],
        "pass_norms": [p.norm for p in passes],
        "setup_samples": setups,
    }
    return values, detail


def _sum(table: Dict[str, float], *names: str) -> float:
    return sum(table.get(n, 0.0) for n in names)


def layer_metrics(tracer, self_times: Dict[str, float]) -> Dict[str, float]:
    """Per-layer values of one traced pass (times: this pass's self time)."""
    c = tracer.counts
    st = self_times
    ea, fg = "exact_algebra.", "finite_geometry."
    families = len(tracer.families)
    samples = c["crosscheck_samples"]
    out = {
        "mul_calls": c["mul_calls"],
        "mul_term_pairs": c["mul_term_pairs"],
        "mul_terms_out": c["mul_terms_out"],
        "merge_ratio": c["mul_terms_out"] / c["mul_term_pairs"] if c["mul_term_pairs"] else 0.0,
        "mul_self_s": _sum(st, ea + "MultiPoly.__mul__"),
        "add_self_s": _sum(st, ea + "MultiPoly.__add__", ea + "MultiPoly.__sub__",
                           ea + "MultiPoly.__neg__"),
        "poly_det_calls": c["poly_det_calls"],
        "poly_det_terms_out": c["poly_det_terms_out"],
        "poly_det_self_s": _sum(st, ea + "poly_det"),
        "eval_calls": c["eval_calls"],
        "eval_terms": c["eval_terms"],
        "eval_self_s": _sum(st, ea + "MultiPoly.evaluate", ea + "MultiPoly.evaluate_mod"),
        "det_mod_p_calls": c["det_mod_p_calls"],
        "det_mod_p_self_s": _sum(st, ea + "det_mod_p"),
        "extract_form_calls": c["extract_form_calls"],
        "extract_form_self_s": _sum(st, "section_builder.extract_form"),
        "form_terms": c["form_terms"],
        "build_matrices_calls": c["build_matrices_calls"],
        "matrix_rebuild_ratio": c["build_matrices_calls"] / families if families else 0.0,
        "build_selected_self_s": _sum(st, "section_builder.build_selected"),
        "gluing_units": c["gluing_units"],
        "gluing_self_s": _sum(st, "identity_verifier.verify_gluing"),
        "transition_units": c["transition_units"],
        "transition_self_s": _sum(st, "identity_verifier.verify_transition"),
        "sz_trials": c["sz_trials"],
        "points_enumerated": c["points_enumerated"],
        "directions_visited": c["directions_visited"],
        "incidence_pairs": c["incidence_pairs"],
        "crosscheck_coverage": c["incidence_pairs"] / samples if samples else 0.0,
        "census_matrices": c["census_matrices"],
        "census_self_s": _sum(st, fg + "rank_condition_census"),
        "membership_calls": c["membership_calls"],
        "base_locus_self_s": _sum(st, fg + "base_locus_scan"),
        "crosscheck_self_s": _sum(st, fg + "characterization_crosscheck"),
        "smoothness_self_s": _sum(st, fg + "smoothness_check", fg + "smoothness_with_resampling"),
        "rank_mod_p_calls": c["rank_mod_p_calls"],
        "rank_mod_p_self_s": _sum(st, "util.rank_mod_p"),
        "kernel_basis_calls": c["kernel_basis_calls"],
        "twist_ledger_calls": c["twist_ledger_calls"],
        "twist_ledger_self_s": _sum(st, "schedule.twist_ledger"),
        "decomposition_pairs": c["decomposition_pairs"],
        "decomposition_self_s": _sum(st, "product_coup.verify_product_decomposition"),
        "trace_spans": len(tracer.spans),
    }
    for name, _, _ in PER_LAYER:
        if name.startswith("layer_self_s."):
            layer = name.split(".", 1)[1]
            out[name] = sum(v for k, v in st.items() if k.split(".", 1)[0] == layer)
    return out


COUNT_METRICS = tuple(n for n, unit, _ in PER_LAYER if unit in ("count", "ratio"))


def traced_run(workload, mods, seconds: float,
               spans_path: Optional[Path]) -> Tuple[dict, dict, List[PassRecord]]:
    """Paired passes: each unit runs untraced and traced back to back, the
    order alternating between passes.

    Times are medians over the traced passes; counts come from the first
    traced pass and must repeat exactly in the others.  Stage times are read
    from the untraced runs' reports.  The overhead is the summed traced time
    over the summed untraced time, minus one.
    """
    from tracing import Tracer

    tracer = Tracer(mods)
    plain: List[PassRecord] = []
    traced: List[PassRecord] = []
    per_pass: List[Dict[str, float]] = []

    def one(index: int) -> float:
        tracer.reset()
        p, t = run_paired_pass(workload, tracer, traced_first=index % 2 == 1)
        plain.append(p)
        traced.append(t)
        per_pass.append(layer_metrics(tracer, tracer.self_times()))
        return p.wall + t.wall

    loop(1, seconds, one)
    if spans_path is not None:
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        tracer.save(str(spans_path))

    stage_times = []  # per pass: seconds per stage, summed over the pass's pipelines
    for rec in plain:
        times: Dict[str, float] = {}
        for outs in rec.outcomes:
            for o in outs:
                times[o.name] = times.get(o.name, 0.0) + o.seconds
        stage_times.append(times)
    values: Dict[str, float] = {}
    for name, unit, _ in PER_LAYER:
        if name in COUNT_METRICS:
            values[name] = per_pass[0][name]
        elif name.startswith("stage_s."):
            stage = "stage:" + name.split(".", 1)[1]
            values[name] = _median([t[stage] for t in stage_times if stage in t])
        elif name == "trace_overhead_pct":
            values[name] = 100.0 * (sum(p.wall for p in traced) / sum(p.wall for p in plain) - 1.0)
        else:
            values[name] = _median([p[name] for p in per_pass])
    detail = {
        "paired_passes": len(plain),
        "count_mismatch": [n for n in COUNT_METRICS
                           if any(p[n] != per_pass[0][n] for p in per_pass[1:])],
        "self_s_by_span": dict(sorted(tracer.self_times().items())),
        "calls_by_span": dict(sorted(tracer.calls().items())),
    }
    return values, detail, plain + traced


# ----- entry point -----


def run(name: str, seed: int, seconds: float, trace: bool, meter: Speedometer,
        small: bool = False, children: int = SETUP_CHILDREN,
        out_dir: Optional[Path] = OUT_DIR) -> dict:
    """One benchmark run.  ``meter`` was started before the program was
    imported, and times its set-up.  Returns the result object (the last
    stdout line) together with details for the report."""
    mods, workload, own_setup, own_wall = measure_setup(name, seed, small, meter)
    errors: List[str] = []
    if trace:
        spans_path = out_dir / f"spans-{name}-seed{seed}.npz" if out_dir else None
        values, detail, passes = traced_run(workload, mods, seconds, spans_path)
        if detail["count_mismatch"]:
            errors.append(f"traced counts differ between passes: {detail['count_mismatch']}")
        specs = PER_LAYER_RESULT
        if out_dir is not None:
            summary = {"workload": name, "seed": seed, "env": environment(),
                       "per_layer": values, "detail": detail}
            (out_dir / f"trace-{name}-seed{seed}.json").write_text(
                json.dumps(summary, indent=1, sort_keys=True) + "\n")
    else:
        setups, setup_walls = [own_setup], [own_wall]
        for child in setup_in_children(name, seed, children):
            setups.append(child["setup_s"])
            setup_walls.append(child["setup_wall_s"])
            if child["inputs_digest"] != workload.inputs_digest:
                errors.append("a fresh interpreter generated other inputs from the seed")
        passes = []

        def one(index: int) -> float:
            passes.append(run_pass(workload))
            return passes[-1].wall

        loop(workload.min_passes, seconds, one)
        values, detail = end_to_end_metrics(workload, passes, setups, setup_walls)
        specs = END_TO_END
    failed, unit_errors, latencies = tally(passes)
    # A failure outside any unit (inputs or counts not reproducible) still
    # makes the run wrong.
    if errors and not failed:
        failed = 1
    result = {
        "correct": failed == 0,
        "attempted": len(latencies),
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": u} for n, u, _ in specs},
    }
    return {"result": result, "values": values, "detail": detail,
            "errors": errors + unit_errors, "env": environment()}


def print_report(name: str, seed: int, out: dict, trace: bool) -> None:
    """Environment, details and every metric by name and unit."""
    res, detail, values = out["result"], out["detail"], out["values"]
    brief = {k: v for k, v in detail.items() if not k.endswith("_by_span")}
    print(f"# env {json.dumps(out['env'], sort_keys=True)}")
    print(f"# workload {name} seed {seed}: {json.dumps(brief)}")
    for err in out["errors"][:20]:
        print(f"# ERROR {err}")
    specs = PER_LAYER if trace else END_TO_END + RAW_TIMES + UNIT_LATENCY
    width = max(len(n) for n, _, _ in specs)
    for n, unit, _ in specs:
        note = ""
        if n == "unit_tail_ms":
            note = f"  (p{detail['tail_percentile']:.1f} of {detail['units']} units)"
        if n not in res["metrics"]:
            note += "  (not in the result line)"
        print(f"{n:<{width}}  {values[n]:>16.6f} {unit}{note}")
    ratio = res["failed"] / res["attempted"] if res["attempted"] else 1.0
    print(f"{'fail_ratio':<{width}}  {ratio:>16.6f}  ({res['failed']} of {res['attempted']} units)")
