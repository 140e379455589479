"""Workloads as streams of one-cell configs run through the sparsegp CLI.

Each workload starts from one shipped ``configs/*.cfg`` file and narrows it
to a single cell per generated config: one seed, one N, one M.  The library
sees only these generated configs; every seed in them derives from the
benchmark's ``--seed``.
"""

from __future__ import annotations

import configparser
import io
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from .tracer import CELL_SPAN


@dataclass(frozen=True)
class Workload:
    name: str
    config: str  # shipped config, relative to the checkout root
    command: str  # CLI subcommand that runs it
    overrides: tuple[tuple[str, str], ...]
    sweep: str | None  # config key whose values are split into one cell each
    digest_cells: int  # leading cells whose output bytes make the row digest
    reference: tuple[str, ...]  # parts of a reference chunk (see reference.py)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "dense-cell",
            "configs/fig4.cfg",
            "log-schedule",
            (("n_grid", "4000"),),
            None,
            3,
            ("blas", "stream"),
        ),
        Workload(
            "chain-dpp",
            "configs/dispersion.cfg",
            "dispersion",
            (),
            None,
            10,
            ("chain", "blas"),
        ),
        Workload(
            "m-sweep",
            "configs/fig3.cfg",
            "m-sweep",
            (),
            "m_grid",
            10,
            ("chain", "blas"),
        ),
    )
}

# Cell seeds: config seed = SEED_STRIDE * --seed + unit index.  Warm-up
# cells use unit indices from WARMUP_UNIT up, so they never repeat a timed cell.
SEED_STRIDE = 100_000
WARMUP_UNIT = 90_000

CERTIFIED_COLUMNS = ("t", "elbo", "upper", "upper_refined", "kl_exact")


@dataclass(frozen=True)
class Cell:
    """One generated config and what its output must look like."""

    command: str
    config_text: str
    n: int
    m: int  # requested inducing count; a point selection may realize fewer
    selections: int  # selection rows expected from the dispersion demo


@dataclass
class CellResult:
    seconds: float
    output: bytes
    problem: str  # empty when the cell passed every check


def read_shipped(root: Path, workload: Workload) -> configparser.ConfigParser:
    parser = configparser.ConfigParser()
    with open(root / workload.config, encoding="utf-8") as fh:
        parser.read_file(fh)
    sections = [s for s in parser.sections() if s.startswith("experiment:")]
    if len(sections) != 1:
        raise ValueError(f"{workload.config} must hold exactly one experiment section")
    return parser


def unit_cells(lib, workload: Workload, shipped, seed: int, unit: int) -> list[Cell]:
    """Cells of one unit: one config seed, and one cell per swept value."""
    section = next(s for s in shipped.sections() if s.startswith("experiment:"))
    base = dict(shipped[section])
    base.pop("out_svg", None)
    base.update(workload.overrides)
    base.update(
        seeds=str(SEED_STRIDE * seed + unit), record_timing="off", out_csv="cell.csv"
    )
    values = base[workload.sweep].split() if workload.sweep else [None]
    cells = []
    for value in values:
        keys = dict(base)
        if value is not None:
            keys[workload.sweep] = value
        out = configparser.ConfigParser()
        out[section] = keys
        buf = io.StringIO()
        out.write(buf)
        text = buf.getvalue()
        cfg = lib.config.parse_config_text(text)[0]
        n = cfg.n_grid[0]
        m = cfg.m_grid[0] if cfg.m_grid else cfg.m_rule.resolve(n, cfg)
        cells.append(
            Cell(workload.command, text, n, min(m, n), len(cfg.dispersion_lengthscales) + 1)
        )
    return cells


def run_cell(lib, cell: Cell, workdir: Path, tracer=None) -> CellResult:
    """Run one cell through ``cli.main`` and check its output.

    Only the ``cli.main`` call is timed.  With a tracer, the call is wrapped
    in the tracer's cell span (the caller installs the layer wrappers).
    """
    cfg_path = workdir / "cell.cfg"
    out_path = workdir / "cell.csv"
    cfg_path.write_text(cell.config_text, encoding="utf-8")
    out_path.unlink(missing_ok=True)
    argv = [cell.command, "--config", str(cfg_path), "--out-dir", str(workdir)]
    sink = io.StringIO()
    problem = ""
    with redirect_stdout(sink), redirect_stderr(sink):
        t0 = perf_counter()
        try:
            if tracer is None:
                rc = lib.cli.main(argv)
            else:
                with tracer.span(CELL_SPAN):
                    rc = lib.cli.main(argv)
        except lib.SparseGPError as exc:
            rc, problem = None, f"raised {type(exc).__name__}: {exc}"
        seconds = perf_counter() - t0
    if rc != 0 and not problem:
        problem = f"exit code {rc}: {sink.getvalue().strip()[-300:]}"
    output = out_path.read_bytes() if out_path.exists() else b""
    if not problem:
        check = check_selections if cell.command == "dispersion" else check_rows
        problem = check(lib, cell, out_path)
    return CellResult(seconds, output, problem)


def check_rows(lib, cell: Cell, path: Path) -> str:
    rows = lib.emit.parse_csv(str(path))
    if len(rows) != 1:
        return f"expected one row, got {len(rows)}"
    row = rows[0]
    if row.violation:
        return f"violation {row.violation!r}"
    for col in CERTIFIED_COLUMNS:
        value = getattr(row, col)
        if value is None or not math.isfinite(value):
            return f"certified column {col} is {value!r}"
    if row.n != cell.n or not 1 <= row.m <= cell.m:
        return f"row has N={row.n}, M={row.m}; expected N={cell.n}, M<={cell.m}"
    return ""


def check_selections(lib, cell: Cell, path: Path) -> str:
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "run_id,method,seed,indices":
        return "selection file lacks its header"
    if len(lines) - 1 != cell.selections:
        return f"expected {cell.selections} selections, got {len(lines) - 1}"
    for line in lines[1:]:
        idx = [int(tok) for tok in line.rsplit(",", 1)[1].split()]
        if len(idx) != cell.m or len(set(idx)) != cell.m:
            return f"selection {line!r} does not hold {cell.m} distinct indices"
        if not all(0 <= i < cell.n for i in idx):
            return f"selection {line!r} has an index outside [0, {cell.n})"
    return ""
