"""One benchmark run: set-up, a closed loop of cells, metrics and records.

A run is one process with one client that runs cells back to back.  The
untraced run (``trace=False``) gives the end-to-end metrics; its cell times
are reported in multiples of a fixed reference work timed around every cell
(see ``reference.py``), so that host-speed drift cancels.  The traced run
runs every cell twice, first untraced and then with the layer wrappers
installed, and gives the per-layer metrics, the trace overhead and the check
that tracing leaves the output bytes unchanged.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from . import cells
from .reference import Reference
from .tracer import CELL_SPAN, LAYERS, Tracer

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# (name, unit, better) of every end-to-end metric.  Unit "ref" is the time of
# one chunk of the reference work, timed just before and after each cell.
E2E_METRICS = (
    ("cell_p50_ref", "ref", "lower"),
    ("cell_tail_ref", "ref", "lower"),
    ("cells_per_ref", "1/ref", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


def _layer_metrics():
    specs = []
    for layer, fnames in LAYERS.items():
        if layer == "bounds":
            continue
        for fname in fnames:
            specs += [
                (f"{layer}.{fname}.calls", "count", "lower"),
                (f"{layer}.{fname}.self_s", "s", "lower"),
            ]
    specs += [
        ("kernels.gram.elements", "count", "lower"),
        ("chol.factor.flops", "count", "lower"),
        ("chol.factor.jittered", "count", "lower"),
        ("chol.append_index.rejected", "count", "lower"),
        ("inducing.advance.steps", "count", "higher"),
        ("inducing.advance.us_per_step", "us", "lower"),
        ("inducing.advance.accept_ratio", "ratio", "higher"),
        ("bounds.calls", "count", "lower"),
        ("bounds.self_s", "s", "lower"),
        ("harness.self_s", "s", "lower"),
        ("trace.coverage", "ratio", "higher"),
        ("trace.overhead_frac", "ratio", "lower"),
    ]
    return tuple(specs)


# (name, unit, better) of every per-layer metric.  Counts and times are per
# traced cell (totals divided by the number of traced cells).
LAYER_METRICS = _layer_metrics()


class BenchError(Exception):
    """The checkout cannot be benchmarked (missing sources or configs)."""


def load_library(root: Path) -> SimpleNamespace:
    """Import sparsegp from ``root/src`` and refuse any other copy."""
    src = (root / "src").resolve()
    if not (src / "sparsegp" / "__init__.py").is_file():
        raise BenchError(f"no sparsegp package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    lib = SimpleNamespace(
        **{name: importlib.import_module(f"sparsegp.{name}") for name in LAYERS},
        cli=importlib.import_module("sparsegp.harness.cli"),
        config=importlib.import_module("sparsegp.harness.config"),
        emit=importlib.import_module("sparsegp.harness.emit"),
    )
    lib.SparseGPError = importlib.import_module("sparsegp.errors").SparseGPError
    if Path(lib.cli.__file__).resolve().parents[2] != src:
        raise BenchError(f"imported sparsegp from {lib.cli.__file__}, not from {src}")
    return lib


_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import sparsegp.harness.cli; print(repr(time.perf_counter() - t))"
)


def child_import_seconds(root: Path) -> float:
    """Seconds a fresh interpreter spends importing the CLI and its libraries."""
    env = dict(os.environ, **{var: "1" for var in BLAS_THREAD_VARS})
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(root / "src")],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def tail_statistic(values: list[float]) -> tuple[float, float]:
    """Highest order statistic with at least ten cells beyond it.

    Returns (value, percentile).  With fewer than 21 cells no such statistic
    lies above the median, so the median is returned with percentile 50.
    """
    ordered = sorted(values)
    n = len(ordered)
    k = n - 11  # zero-based index with exactly ten larger values
    if k < n // 2:
        return statistics.median(ordered), 50.0
    return ordered[k], 100.0 * (k + 1) / n


def run(
    workload_name: str,
    seed: int,
    seconds: float,
    trace: bool,
    root: Path,
    out_dir: Path,
    setup_reps: int = 3,
    max_cells: int | None = None,
) -> dict:
    """Run one workload and return the result record (metrics included)."""
    workload = cells.WORKLOADS[workload_name]
    if seed < 0:
        raise BenchError("the seed must be nonnegative")
    if not (root / workload.config).is_file():
        raise BenchError(f"missing shipped config {root / workload.config}")
    lib = load_library(root)
    out_dir.mkdir(parents=True, exist_ok=True)
    workdir = out_dir / f"work-{workload_name}-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    problems: list[str] = []
    attempted = failed = 0

    def checked(result: cells.CellResult) -> cells.CellResult:
        nonlocal attempted, failed
        attempted += 1
        if result.problem:
            failed += 1
            problems.append(result.problem)
        return result

    try:
        setups = []
        for r in range(setup_reps):
            imported = child_import_seconds(root)
            t0 = perf_counter()
            shipped = cells.read_shipped(root, workload)
            warm = cells.unit_cells(lib, workload, shipped, seed, cells.WARMUP_UNIT + r)
            checked(cells.run_cell(lib, warm[len(warm) // 2], workdir))
            setups.append(imported + perf_counter() - t0)

        tracer = Tracer() if trace else None
        reference = None if trace else Reference(workload.reference)
        if reference is not None:
            reference.sample()
        times, twin_times, outputs, busy = [], [], [], []
        digest_equal = True
        unit = 0
        t_start = t_mark = perf_counter()
        while True:
            for cell in cells.unit_cells(lib, workload, shipped, seed, unit):
                if tracer is None:
                    result = checked(cells.run_cell(lib, cell, workdir))
                    # Loop time of this cell, config generation and check
                    # included, reference samples excluded.
                    busy.append(perf_counter() - t_mark)
                    reference.sample(result.seconds)
                    t_mark = perf_counter()
                else:
                    # Alternate which copy runs first, so neither always
                    # finds the caches and the allocator warmed by the other.
                    tracer.cell_id = len(times)
                    if len(times) % 2:
                        twin = checked(cells.run_cell(lib, cell, workdir))
                    with tracer.installed(vars(lib)):
                        result = checked(cells.run_cell(lib, cell, workdir, tracer))
                    if len(times) % 2 == 0:
                        twin = checked(cells.run_cell(lib, cell, workdir))
                    twin_times.append(twin.seconds)
                    if result.output != twin.output:
                        digest_equal = False
                        problems.append(f"traced output differs from untraced in cell {len(times)}")
                times.append(result.seconds)
                outputs.append(result.output)
                if len(times) == max_cells:
                    break
            unit += 1
            if perf_counter() - t_start >= seconds or len(times) == max_cells:
                break
    finally:
        for path in workdir.iterdir():
            path.unlink()
        workdir.rmdir()

    digest = hashlib.sha256(b"".join(outputs[: workload.digest_cells])).hexdigest()
    record = {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(root),
        "cells": len(times),
        "units": unit,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "rows_digest": digest,
        "rows_digest_cells": min(len(outputs), workload.digest_cells),
        "setup_s_reps": setups,
    }
    record["correct"] = not problems
    if tracer is None:
        scales = reference.scales()
        normalized = [t / r for t, r in zip(times, scales)]
        tail, pct = tail_statistic(normalized)
        record.update(
            cell_s_p50=statistics.median(times),
            cell_s_tail=tail_statistic(times)[0],
            cells_per_s=len(times) / sum(busy),
            reference_chunk_s=statistics.median(scales),
            cell_tail_percentile=pct,
            cell_times_s=times,
            cell_busy_s=busy,
            reference_windows_s=reference.windows,
        )
        metrics = {
            "cell_p50_ref": statistics.median(normalized),
            "cell_tail_ref": tail,
            "cells_per_ref": len(times) / sum(b / r for b, r in zip(busy, scales)),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        specs = E2E_METRICS
    else:
        record["traced_equals_untraced"] = digest_equal
        metrics = layer_metrics(tracer, times, twin_times)
        specs = LAYER_METRICS
        tracer.write(out_dir / f"spans-{workload_name}.npz")
    record["metrics"] = {name: {"value": metrics[name], "unit": u} for name, u, _ in specs}
    path = out_dir / f"result-{workload_name}-seed{seed}-trace{int(trace)}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return record


def layer_metrics(tracer: Tracer, traced: list[float], untraced: list[float]) -> dict:
    totals = tracer.totals()
    counters = tracer.counters
    n = len(traced)
    zero = {"calls": 0, "self_s": 0.0, "total_s": 0.0}
    metrics = {}
    for layer, fnames in LAYERS.items():
        for fname in fnames:
            t = totals.get(f"{layer}.{fname}", zero)
            key = "bounds" if layer == "bounds" else f"{layer}.{fname}"
            metrics[f"{key}.calls"] = metrics.get(f"{key}.calls", 0) + t["calls"] / n
            metrics[f"{key}.self_s"] = metrics.get(f"{key}.self_s", 0.0) + t["self_s"] / n
    steps = counters["inducing.advance.steps"]
    advance_s = totals.get("inducing.advance", zero)["total_s"]
    cell = totals[CELL_SPAN]
    metrics.update(
        {
            "kernels.gram.elements": counters["kernels.gram.elements"] / n,
            "chol.factor.flops": counters["chol.factor.flops"] / n,
            "chol.factor.jittered": counters["chol.factor.jittered"] / n,
            "chol.append_index.rejected": counters["chol.append_index.rejected"] / n,
            "inducing.advance.steps": steps / n,
            "inducing.advance.us_per_step": 1e6 * advance_s / steps if steps else 0.0,
            "inducing.advance.accept_ratio": (
                counters["inducing.advance.accepted"] / steps if steps else 0.0
            ),
            "harness.self_s": cell["self_s"] / n,
            "trace.coverage": 1.0 - cell["self_s"] / cell["total_s"],
            "trace.overhead_frac": statistics.median(traced) / statistics.median(untraced) - 1.0,
        }
    )
    return metrics


def environment(root: Path) -> dict:
    """Machine, library and code version recorded with every result."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        src.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(root),
        "src_sha256": src.hexdigest(),
    }


def git_commit(root: Path) -> str | None:
    """HEAD of the repository rooted exactly at `root`, or None."""
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None
