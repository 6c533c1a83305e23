"""lidkit benchmark: paper-width training, 20 s prediction and the short-clip CLI pipeline.

Run from the repository root, one workload per process:

    python3 bench/run.py --workload train_paper_width --seed 0 --seconds 30 --trace 0

A run sets the workload up, does one untimed warm-up op, then runs ops
in a closed loop with one caller for ``--seconds`` seconds, and last
runs the checks that need a reference.  Eight more set-ups, spread over
the window and discarded, make ``setup_s`` the median of nine.  An op
that raises or fails its check counts as failed and the loop goes on.
``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced ops and reports the per-layer metrics of the traced
ones, plus the tracing overhead.

Standard output is the run record, a table of every metric with its
unit, and, as the last line, the JSON result.  The same, with the loss
trace and (for a traced run) the spans, is written under ``bench/out/``.
BLAS gets one thread per CPU this process may use.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SETUP_REPEATS = 9
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class Op:
    index: int
    seconds: float
    frames: int
    traced: bool
    error: str | None


def git_commit(root: Path) -> str | None:
    """The commit checked out at ``root``, or None outside a git work tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)})
    except OSError:  # no git
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def blas_info(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"name": blas.get("name"), "version": blas.get("version")}


def run_record(np, name: str, seed: int, seconds: float, trace: bool) -> dict:
    lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (ROOT / "src" / "lidkit").rglob("*.py"))
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(np),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": git_commit(ROOT),
        "src_lidkit_lines": lines,
    }


def quartiles_ms(ops: list[Op]) -> tuple[float, float]:
    ms = [1000.0 * o.seconds for o in ops]
    if len(ms) == 1:
        return ms[0], ms[0]
    _, p50, p75 = statistics.quantiles(ms, n=4, method="inclusive")
    return p50, p75


def run_workload(name: str, seed: int, seconds: float, trace: bool, sizes=None, out_dir: Path = OUT_DIR):
    """Run one workload; returns (result, record, table rows of (name, value, unit))."""
    import numpy as np

    import tracing
    import workloads

    sizes = sizes or workloads.BENCH
    out_dir.mkdir(parents=True, exist_ok=True)
    work_dir = out_dir / f"work-{os.getpid()}"
    make = workloads.WORKLOADS[name]
    record = run_record(np, name, seed, seconds, trace)
    tracer = tracing.Tracer(sizes.channels, workloads.FEATURE_DIM) if trace else None
    ops: list[Op] = []
    setup_s = []
    wl = None

    def attempt(i: int, traced: bool) -> None:
        if traced:
            tracer.op_id = i
            tracer.install()
        start = time.perf_counter()
        try:
            try:
                frames, result = wl.op(i)
            finally:
                elapsed = time.perf_counter() - start
                if traced:
                    tracer.uninstall()
            error = wl.check(i, result)
        except Exception as exc:  # a failed op or check counts into error_rate; the loop goes on
            frames, error = 0, f"op {i}: {type(exc).__name__}: {exc}"
            traceback.print_exc()
        ops.append(Op(i, elapsed, frames, traced, error))

    def set_up():
        start = time.perf_counter()
        built = make(seed, sizes, work_dir / f"setup{len(setup_s)}")
        setup_s.append(time.perf_counter() - start)
        return built

    try:
        wl = set_up()
        attempt(0, False)  # warm-up
        t0 = time.perf_counter()
        i = 1
        while True:
            attempt(i, trace and i % 2 == 0)
            elapsed = time.perf_counter() - t0
            # the other set-ups are spread over the window, so that their
            # median does not rest on the machine's speed at one moment
            if len(setup_s) < SETUP_REPEATS and elapsed >= len(setup_s) * seconds / SETUP_REPEATS:
                set_up().close()
            if elapsed >= seconds and (not trace or i % 2 == 0):
                break
            i += 1
        while len(setup_s) < SETUP_REPEATS:
            set_up().close()
        errors = wl.verify()
        for op in ops:
            if op.error is None and op.index in errors:
                op.error = errors[op.index]
        record.update(wl.record())
    finally:
        if wl is not None:
            wl.close()
        shutil.rmtree(work_dir, ignore_errors=True)

    timed = ops[1:]
    untraced = [o for o in timed if not o.traced]
    p50, p75 = quartiles_ms(untraced)
    stats = {
        "setup_s": statistics.median(setup_s),
        "op_p50_ms": p50,
        "op_p75_ms": p75,
        "frames_per_s": sum(o.frames for o in untraced) / sum(o.seconds for o in untraced),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    failed = [o.error for o in ops if o.error is not None]
    record.update({
        "setup_s_each": setup_s,
        "op_ms": [1000.0 * o.seconds for o in timed],
        "op_traced": [o.traced for o in timed],
        "errors": failed,
    })
    end_to_end = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    rows = [(k, v, end_to_end[k]) for k, v in stats.items()]
    if not trace:  # the workload's own figures would mix in traced ops
        rows += [(k, v, unit) for k, (v, unit) in wl.headline(stats).items()]
    rows.append(("error_rate", len(failed) / len(ops), "frac"))
    if trace:
        traced = [o for o in timed if o.traced]
        metrics = tracer.per_layer(len(traced))
        metrics["trace_overhead_frac"] = (
            statistics.fmean(o.seconds for o in traced) / statistics.fmean(o.seconds for o in untraced) - 1.0
        )
        units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        rows += [(k, metrics[k], u) for k, u in units.items()]
        tracer.write(out_dir / f"{name}-seed{seed}.spans.jsonl", t0)
    else:
        metrics = stats
        units = end_to_end
    if set(metrics) != set(units):
        raise ValueError(f"computed metrics and BENCHMARK.json differ in {sorted(set(metrics) ^ set(units))}")
    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    (out_dir / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps({"record": record, "result": result}, indent=1) + "\n", encoding="utf-8")
    return result, record, rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "lidkit" / "__init__.py").is_file():
        print(f"error: no lidkit sources at {src / 'lidkit'}", file=sys.stderr)
        return 2
    threads = str(len(os.sched_getaffinity(0)))
    for var in BLAS_ENV:  # read by BLAS when numpy is first imported, below
        os.environ[var] = threads
    sys.path.insert(0, str(src))
    import lidkit

    if Path(lidkit.__file__).resolve().parent != (src / "lidkit").resolve():
        print(f"error: imported lidkit from {lidkit.__file__}, not from {src}", file=sys.stderr)
        return 2

    result, record, rows = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print("run_record " + json.dumps(record))
    for key, value, unit in rows:
        print(f"{key:48s} {value:14.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
