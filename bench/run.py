"""oplspm benchmark: one workload per process, tracing off unless ``--trace 1``.

    python3 bench/run.py --workload sim_grid --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports the package from its
``src/``. Set-up (imports, input generation, CSV writing, one warm-up
operation) is repeated and timed apart from the measured phase. The last
line of stdout is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (the end-to-end metrics, or with ``--trace 1`` the
per-layer ones). The lines above it print every metric by name with its
unit, and the environment record. See bench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
WORKLOAD_NAMES = ("sim_grid", "survey_large", "boot_pls", "boot_opls")


@dataclass
class Record:
    op: object
    batch: int
    seconds: float
    result: object = None
    error: BaseException | None = None
    failed: int = 0
    ok: bool = True
    bytes_written: int = 0
    excluded: int = 0


def run_phase(workload, budget: float, tag: str, tracer=None) -> list[Record]:
    """Run whole batches until the next one would overrun ``budget`` seconds.

    Only ``op.call`` is timed; at least one batch always runs.
    """
    records, batch_times = [], []
    start = time.perf_counter()
    if tracer is not None:
        tracer.install()
    try:
        b = 0
        while not batch_times or time.perf_counter() - start + median(batch_times) <= budget:
            t_batch = time.perf_counter()
            for op in workload.batch(b, tag):
                call = op.call if tracer is None else tracer.wrap(op.span, op.call)
                t = time.perf_counter()
                try:
                    result, error = call(), None
                except Exception as exc:  # counted as a failed operation, run goes on
                    result, error = None, exc
                records.append(Record(op, b, time.perf_counter() - t, result, error))
            batch_times.append(time.perf_counter() - t_batch)
            release_memory()
            b += 1
    finally:
        if tracer is not None:
            tracer.wall = time.perf_counter() - start
            tracer.remove()
    return records


def release_memory() -> None:
    """Free the last batch's garbage and hand freed heap back to the OS.

    Without it, whether the next command's peak stacks on memory the
    allocator kept varies from process to process, and so does peak RSS.
    """
    gc.collect()
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (OSError, AttributeError):  # not glibc
        pass


def verify(records: list[Record]) -> None:
    for rec in records:
        if rec.error is not None:
            rec.failed, rec.ok = rec.op.units, False
            traceback.print_exception(rec.error, file=sys.stderr)
            continue
        try:
            rec.failed, rec.ok, rec.bytes_written, rec.excluded = rec.op.verify(rec.result)
        except Exception:
            rec.failed, rec.ok = rec.op.units, False
            traceback.print_exc(file=sys.stderr)


def blas_threads() -> int | None:
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                              timeout=60, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def environment(args, size: dict) -> dict:
    import numpy as np
    import scipy
    from workloads import BOOT_ROWS, SIM_N, WARM_ROWS

    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in info if line.startswith("model name")),
                None,
            )
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "workload_sizes": {**size, "sim_n": SIM_N, "boot_rows": BOOT_ROWS, "warm_rows": WARM_ROWS},
    }


def end_to_end(records: list[Record], setup_s: float) -> dict:
    """Medians over operations, so a short slow spell of a shared machine counts once."""
    return {
        "setup_s": (setup_s, "s"),
        "reps_per_s": (median(r.op.units / r.seconds for r in records), "1/s"),
        "command_s": (median(r.seconds for r in records), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer, untraced: list[Record], traced: list[Record], workload_name: str) -> dict:
    from spans import layer_metrics

    out = layer_metrics(tracer)
    m = min(len(untraced), len(traced))
    base = sum(r.seconds for r in untraced[:m])
    out["trace.overhead_frac"] = (sum(r.seconds for r in traced[:m]) / base - 1.0, "frac")
    units = sum(r.op.units for r in traced)
    used = sum(r.op.units for r in traced if not (r.failed or r.excluded))
    out["simulate.used_frac"] = (used / units if workload_name == "sim_grid" else 0.0, "frac")
    out["cli.bytes_written"] = (sum(r.bytes_written for r in traced), "bytes")
    return out


def run(args) -> dict:
    """One benchmark run; returns the result record."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import oplspm
    import oplspm.cli
    import oplspm.simulate
    from workloads import SIZES, WORKLOADS, compare

    import_s = time.perf_counter() - t0
    if not Path(oplspm.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: imported oplspm from {oplspm.__file__}, not from {SRC}")

    size = SIZES[args.size]
    work = WORK / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](work, args.seed, size)
        setup_times = []
        for i in range(size["setups"]):
            t = time.perf_counter()
            workload.setup(i)
            setup_times.append(time.perf_counter() - t)
        setup_s = import_s + median(setup_times)

        tracer = None
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
            untraced = run_phase(workload, args.seconds / 2, "untraced")
            traced = run_phase(workload, args.seconds / 2, "traced", tracer)
            records = untraced + traced
        else:
            records = run_phase(workload, args.seconds, "timed")
        verify(records)

        expected = json.loads(REFERENCE.read_text(encoding="utf-8"))[args.workload]
        try:
            problems = compare(expected, workload.reference())
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            problems = [f"reference run raised {exc!r}"]
        for problem in problems:
            print(f"reference check failed: {problem}", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r.op.units for r in records) + 1
    failed = sum(r.failed for r in records) + bool(problems)
    if args.trace:
        metrics = per_layer(tracer, untraced, traced, args.workload)
        metrics["failed_frac"] = (failed / attempted, "frac")
    else:
        metrics = end_to_end(records, setup_s)
    return {
        "correct": not problems and all(r.ok for r in records),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "excluded": sum(r.excluded for r in records),
        "metrics": metrics,
        "setup_times_s": [import_s, *setup_times],
        "operations": [[r.batch, r.op.units, r.seconds, r.failed, r.excluded] for r in records],
        "reference_problems": problems,
        "environment": environment(args, size),
        "tracer": tracer,
    }


def record_reference() -> None:
    """Write reference.json from the current code (done once, at the commit that added it)."""
    sys.path.insert(0, str(SRC))
    from workloads import SIZES, WORKLOADS, as_json

    work = WORK / f"reference-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        reference = {
            name: as_json(cls(work, 0, SIZES["full"]).reference())
            for name, cls in WORKLOADS.items()
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    REFERENCE.write_text(json.dumps(reference) + "\n", encoding="utf-8")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs for the self-test")
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite reference.json from the current code and exit")
    args = parser.parse_args(argv)
    if not args.record_reference and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "oplspm" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.record_reference:
        record_reference()
        return 0
    result = run(args)
    tracer = result.pop("tracer")
    WORK.joinpath("results").mkdir(parents=True, exist_ok=True)
    stem = WORK / "results" / f"{args.workload}_seed{args.seed}_trace{args.trace}"
    if tracer is not None:
        tracer.write(stem.with_name(stem.name + "_spans.csv"))
    metrics = result["metrics"]
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    stem.with_suffix(".json").write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")

    for key, value in result["environment"].items():
        print(f"env {key}: {value}")
    print(f"attempted {result['attempted']}  failed {result['failed']}  "
          f"failed_frac {result['failed_frac']:.6g}  excluded {result['excluded']}  "
          f"correct {result['correct']}")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name:40s} {value:16.6g} {unit}")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
