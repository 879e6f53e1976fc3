"""Benchmark driver for qgidem.

Run from the root of a checkout:

    python3 perfbench/run.py --workload structure_s4 --seed 0 --seconds 30 --trace 0

Builds the workload's inputs from --seed, repeats passes over them for
about --seconds seconds in this one process, checks every result, and
prints a readable report followed, as the last line, by one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` untraced and traced
passes alternate and the metrics are the per-layer ones.  The full
result, with the environment block and, for traced runs, every span, is
also written to ``.perfbench_out/`` in the checkout.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

WORKLOADS = ("solve_zoo", "structure_s4", "unitary_dk", "dense_basis")
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
# setup_s is the median of this many fresh processes that stop after setup
SETUP_REPS = 5
# every run times at least this many passes, so its median never rests on
# the first pass alone
MIN_PASSES = 2
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="build the inputs and exit (used to time set-up)")
    return p.parse_args(argv)


def cap_blas_threads() -> int:
    """One process, BLAS threads capped at the CPUs this process may use."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, str(nproc))
    return nproc


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(nproc: int, seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy without the dict form
        blas = {}
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = "not installed"
    # the Newton path in use, read off the already-imported solver module
    # without importing anything private; a package without _kernels has
    # a single numpy path
    kernels = sys.modules.get("qgidem._kernels")
    if kernels is None:
        newton = "numpy (no qgidem._kernels)"
    else:
        newton = "compiled" if getattr(kernels, "HAVE_COMPILED", False) else "numpy fallback"
    return {
        "nproc": nproc,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "seed": seed,
        "newton_path": newton,
    }


def time_setup(args) -> list[float]:
    """Wall time of fresh processes that import, build the inputs, exit."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    out = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        # no timeout: with one, the wait polls and rounds the time to 50 ms
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        out.append(time.perf_counter() - t0)
    return out


def measure(qgbench, args, inputs, tally):
    """Repeat passes while the next one still fits into --seconds, and at
    least MIN_PASSES times.

    Untraced passes only with --trace 0; with --trace 1, untraced and
    traced passes alternate, starting untraced.
    """
    plain, traced = [], []
    t_start = time.perf_counter()
    while True:
        trace_this = bool(args.trace) and len(traced) < len(plain)
        tracer = qgbench.Tracer(trace_this)
        pipe = qgbench.Pipeline(args.workload, inputs, args.seed, tracer, tally)
        t0 = time.perf_counter()
        per_input = pipe.run_pass()
        wall = time.perf_counter() - t0
        (traced if trace_this else plain).append((wall, per_input, tracer))
        done = len(plain) + len(traced)
        elapsed = time.perf_counter() - t_start
        if done >= MIN_PASSES and elapsed + elapsed / done > args.seconds:
            return plain, traced


def end_to_end(qgbench, plain, setup):
    walls = [w for w, _, _ in plain]
    slowest = [max(per.values()) for _, per, _ in plain]
    return {
        "wall_s": (qgbench.median(walls), "s"),
        "slowest_task_s": (qgbench.median(slowest), "s"),
        "setup_s": (qgbench.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(qgbench, plain, traced, inputs, tally):
    q = qgbench
    dims = {inp.label: inp.qg.dim for inp in inputs}
    layers = [q.layer_seconds(tr.spans) for _, _, tr in traced]
    counts = [tr.counts for _, _, tr in traced]
    out = {}
    for name in q.LAYER_SPANS:
        out[f"{name}.s"] = (q.median([l[name] for l in layers]), "s")

    def cnt(name):
        return (q.median([c[name] for c in counts]), "count")

    for name in ("states.solve_idempotents.calls", "states.solve_idempotents.starts",
                 "states.solve_idempotents.found", "analysis.classify.calls",
                 "analysis.classify.haar", "analysis.errors", "core.validate.calls",
                 "core.multiplicative_unitary.calls"):
        out[name] = cnt(name)
    starts = out["states.solve_idempotents.starts"][0]
    out["states.solve_idempotents.found_per_start"] = (
        out["states.solve_idempotents.found"][0] / starts if starts else 0.0, "ratio")
    for name in ("core.multiplicative_unitary", "core.validate"):
        out[f"{name}.exponent"] = (
            q.median([q.scaling_exponent(tr.spans, name, dims) for _, _, tr in traced]), "1")
    out["bench.self_s"] = (q.median([l["bench.self"] for l in layers]), "s")
    out["trace.overhead_s"] = (
        q.median([w for w, _, _ in traced]) - q.median([w for w, _, _ in plain]), "s")
    out["bench.oracle_recall"] = (
        tally.oracle_matched / tally.oracle_total if tally.oracle_total else 1.0, "ratio")
    out["bench.failed_frac"] = (tally.failed / max(tally.attempted, 1), "ratio")
    return out


def report_lines(args, metrics, plain, traced, tally, qgbench):
    lines = [f"qgidem benchmark: workload {args.workload}, seed {args.seed}, "
             f"trace {args.trace}, {len(plain)} untraced + {len(traced)} traced pass(es)"]
    for name, (value, unit) in metrics.items():
        lines.append(f"  {name:44s} {value:14.6f} {unit}")
    walls = [w for w, _, _ in plain]
    tail = qgbench.tail_percentile(walls)
    lines.append(
        f"  wall_s tail: {'n/a (fewer than 11 passes)' if tail is None else f'p{tail[0]:.1f} = {tail[1]:.6f} s'}"
        f", {len(walls)} sample(s)")
    recall = tally.oracle_matched / tally.oracle_total if tally.oracle_total else None
    lines.append(
        "  oracle_recall: "
        + ("n/a (no solver work)" if recall is None
           else f"{recall:.4f} ({tally.oracle_matched}/{tally.oracle_total})"))
    lines.append(f"  failed_frac: {tally.failed / max(tally.attempted, 1):.4f} "
                 f"({tally.failed} failed of {tally.attempted} attempted)")
    for err, n in sorted(tally.errors.items()):
        lines.append(f"    x{n} {err}")
    if traced:
        lt = qgbench.median([sum(qgbench.layer_seconds(tr.spans).values()) for _, _, tr in traced])
        lines.append(
            f"  traced pass: layers + bench.self = {lt:.6f} s, untraced wall_s = "
            f"{qgbench.median(walls):.6f} s, trace overhead = "
            f"{metrics['trace.overhead_s'][0]:+.6f} s")
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qgidem" / "__init__.py").is_file():
        print(f"error: no qgidem sources under {SRC}", file=sys.stderr)
        return 2
    nproc = cap_blas_threads()
    sys.path.insert(0, str(SRC))
    import qgbench  # after the BLAS cap and the path
    import qgidem

    if Path(qgidem.__file__).resolve().parent != SRC / "qgidem":
        print(f"error: imported qgidem from {qgidem.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.setup_only:
        qgbench.make_inputs(args.workload, args.seed)
        return 0

    setup = time_setup(args)
    inputs = qgbench.make_inputs(args.workload, args.seed)
    tally = qgbench.Tally()
    plain, traced = measure(qgbench, args, inputs, tally)

    e2e = end_to_end(qgbench, plain, setup)
    metrics = per_layer(qgbench, plain, traced, inputs, tally) if args.trace else e2e
    env = environment(nproc, args.seed)
    shown = {**e2e, **metrics} if args.trace else e2e
    for line in report_lines(args, shown, plain, traced, tally, qgbench):
        print(line)
    print("environment: " + json.dumps(env, sort_keys=True))

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    detail = {
        **result,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "setup_samples_s": setup,
        "pass_walls_s": [w for w, _, _ in plain],
        "traced_pass_walls_s": [w for w, _, _ in traced],
        "per_input_s": [per for _, per, _ in plain],
        "oracle": {"matched": tally.oracle_matched, "total": tally.oracle_total},
        "errors": dict(tally.errors),
        "spans": [tr.spans for _, _, tr in traced],
    }
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(detail) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
