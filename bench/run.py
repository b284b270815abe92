"""Benchmark of the edgepot solver; prints one JSON result as its last line.

    python3 bench/run.py --workload mms_fine --seed 0 --seconds 40 --trace 0

Run from the repository root: the package is imported from ./src.  With
``--trace 0`` the result holds the end-to-end metrics; with ``--trace 1`` the
workload runs once untraced and once with spans, the result holds the
per-layer metrics and the spans are written to bench/out/.  The line before
the result records the work counts, the gate details and the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
WORKLOADS = ("mms_fine", "full_limiter", "cond_sweep")
MIN_REPEATS = 3  # stepping runs or sweeps per untraced run, so set-up has a median


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def cap_threads() -> int:
    """Cap BLAS/OpenMP threads at the CPUs this process may use; before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(nproc)
    return nproc


def machine(nproc: int) -> dict:
    import numpy
    import scipy

    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "nproc": nproc,
        "thread_cap": nproc,
        "cpu_model": model,
    }


def execute(workload: str, seed: int, seconds: float, min_repeats: int, tracer) -> dict:
    """Run one workload; returns its end-to-end metrics, counts and gate record."""
    import workloads as w

    if workload == "cond_sweep":
        etas = w.draw_etas(w.COND_ETAS, seed)
        sweeps = w.run_cond_sweep(etas, seconds, min_repeats, tracer)
        rss = w.peak_rss_mb()
        work = w.cond_counts(etas[0])
        # One operation is one (eta, scheme) system; the sweeps repeat the
        # same systems for timing, so each system and each gate problem
        # counts once however many sweeps fit in the time.
        problems = sorted({p for sweep in sweeps for p in w.cond_gate(sweep, etas)})
        first = sweeps[0]
        refused = {(op.eta, op.scheme) for sweep in sweeps for op in sweep if op.refused and op.scheme == "ap"}
        work["cond_iters"] = sum(op.iters for op in first)
        return {
            "metrics": w.cond_metrics(sweeps, rss),
            "attempted": len(first),
            "failed": len(refused) + len(problems),
            "problems": problems,
            "work": work,
            "refused": sum(1 for op in first if op.refused and op.scheme == "ap"),
            "naive_refused": sum(1 for op in first if op.refused and op.scheme == "naive"),
            "details": {
                "etas": etas,
                "sweeps": len(sweeps),
                "refusals": [
                    {"eta": op.eta, "scheme": op.scheme, "message": op.refused}
                    for op in first
                    if op.refused
                ],
                "kappa": [{"eta": op.eta, "scheme": op.scheme, "kappa": op.kappa} for op in first if not op.refused],
            },
        }

    case = getattr(w, workload)(seed)
    runs, failures = w.run_stepping(case, seconds, min_repeats, tracer)
    if not runs:
        raise RuntimeError(f"every run failed: {failures}")
    rss = w.peak_rss_mb()
    last = runs[-1]
    fill = w.lu_fill(last.factors)
    last.factors = None
    problems = failures + [p for r in runs for p in r.problems]
    return {
        "metrics": w.stepping_metrics(runs, rss),
        "attempted": len(runs) + len(failures),
        "failed": len(failures) + sum(1 for r in runs if r.problems),
        "problems": problems,
        "work": {
            "unknowns": last.unknowns,
            "nnz": last.nnz,
            "lu_fill": fill,
            "solve_bytes_computed": w.LU_ENTRY_BYTES * fill,
            "cond_iters": runs[0].cond_iters,
        },
        "refused": 0,
        "naive_refused": 0,
        "details": {
            "eta": case.phys.eta,
            "steps_per_run": w.STEPS,
            "per_run": {k: [getattr(r, k) for r in runs] for k in ("setup", "total", "cond")},
            "gate": last.details,
        },
    }


def layer_metrics(tracer, traced: dict, untraced: dict) -> dict:
    import numpy as np

    spans = tracer.by_name()

    def p50(name, self_time=False, scale=1.0):
        vals = [s[1] if self_time else s[0] for s in spans.get(name, [])]
        return float(np.median(vals)) * scale if vals else 0.0

    rates = [work / dur for dur, _, work in spans.get("linsolve.solve", []) if work]
    n_cond = len(spans.get("linsolve.cond", []))
    cond_solves = tracer.children_of("linsolve.cond", ("linsolve.solve", "linsolve.solve_T"))
    work = traced["work"]
    step_traced = traced["metrics"]["step_ms_p50"][0]
    return {
        "geometry.unknowns": (work["unknowns"], "count"),
        "geometry.build_grid_s": (p50("geometry.build_grid"), "s"),
        "assembly.nnz": (work["nnz"], "count"),
        "assembly.build_system_s.ap": (p50("assembly.build_system.ap"), "s"),
        "assembly.build_system_s.naive": (p50("assembly.build_system.naive"), "s"),
        "assembly.rhs_ms_p50": (p50("assembly.rhs", True, 1e3), "ms"),
        "assembly.mmd_ms_p50": (p50("assembly.mmd", scale=1e3), "ms"),
        "manufactured.source_ms_p50": (p50("manufactured.source", scale=1e3), "ms"),
        "linsolve.factorize_s": (p50("linsolve.factorize"), "s"),
        "linsolve.lu_fill": (work["lu_fill"], "count"),
        "linsolve.lu_mb": (work["solve_bytes_computed"] / 2**20, "MB"),
        "linsolve.solve_ms_p50": (p50("linsolve.solve", scale=1e3), "ms"),
        "linsolve.solve_gbps": (float(np.median(rates)) / 1e9 if rates else 0.0, "GB/s"),
        "linsolve.solve_T_ms_p50": (p50("linsolve.solve_T", scale=1e3), "ms"),
        "linsolve.solve_calls": (cond_solves / n_cond if n_cond else 0.0, "count"),
        "linsolve.cond_s": (p50("linsolve.cond"), "s"),
        "linsolve.cond_iters": (work["cond_iters"], "count"),
        "linsolve.refused": (traced["refused"], "count"),
        "linsolve.naive_refused": (traced["naive_refused"], "count"),
        "timeloop.step_self_ms_p50": (p50("timeloop.step", True, 1e3), "ms"),
        "verification.observer_ms_p50": (p50("verification.observer", scale=1e3), "ms"),
        "trace.step_ms_p50": (step_traced, "ms"),
        "trace.overhead_ms": (step_traced - untraced["metrics"]["step_ms_p50"][0], "ms"),
        "trace.unaccounted_ms": (p50("bench.step", True, 1e3), "ms"),
        "trace.missing_layers": (len(tracer.missing), "count"),
    }


def step_sum_check(layers: dict) -> dict:
    """Traced step p50 against the sum of its layers' p50 self times."""
    parts = ("linsolve.solve_ms_p50", "assembly.rhs_ms_p50", "manufactured.source_ms_p50", "timeloop.step_self_ms_p50")
    total = sum(layers[p][0] for p in parts)
    return {
        "sum_of_parts_ms": total,
        "traced_step_ms_p50": layers["trace.step_ms_p50"][0],
        "gap_ms": layers["trace.step_ms_p50"][0] - total,
        "overhead_ms": layers["trace.overhead_ms"][0],
        "largest": max(parts, key=lambda p: layers[p][0]),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "edgepot", "__init__.py")):
        print(f"no edgepot package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    nproc = cap_threads()
    sys.path.insert(0, SRC)
    import workloads as w
    from tracing import NullTracer, Tracer

    w.warm_up()
    if args.trace:
        half = args.seconds / 2
        untraced = execute(args.workload, args.seed, half, 1, NullTracer())
        tracer = Tracer()
        for module in (w.timeloop, w.linsolve):
            tracer.patch(module, "lu_solve", tracer.wrap_solve)
        tracer.patch(w.timeloop, "assemble_ap_rhs", lambda fn: tracer.wrap("assembly.rhs", fn))
        try:
            out = execute(args.workload, args.seed, half, 1, tracer)
        finally:
            tracer.restore()
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        tracer.write(os.path.join(HERE, "out", f"trace-{args.workload}-seed{args.seed}.json"))
        metrics = layer_metrics(tracer, out, untraced)
        out["details"]["missing_layers"] = tracer.missing
        if args.workload != "cond_sweep":
            out["details"]["step_sum_check"] = step_sum_check(metrics)
        out["attempted"] += untraced["attempted"]
        out["failed"] += untraced["failed"]
        out["problems"] += untraced["problems"]
    else:
        out = execute(args.workload, args.seed, args.seconds, MIN_REPEATS, NullTracer())
        metrics = out["metrics"]

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "work": out["work"],
        "problems": out["problems"],
        "details": out["details"],
        "machine": machine(nproc),
    }
    print(json.dumps(info))
    result = {
        "correct": not out["problems"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
