"""Experiment harness: config parsing, runners, CSV/SVG emission, oracle suite."""

from .config import DEFAULT_CONFIGS, ExperimentConfig, MRule, default_config, parse_config, parse_config_text
from .emit import CSV_COLUMNS, PlotSpec, ResultRow, emit_csv, emit_selection_csv, emit_svg, parse_csv, render_svg
from .oracle_suite import OracleCheck, run_oracle_suite
from .runners import run_dispersion_demo, run_grid

__all__ = [
    "DEFAULT_CONFIGS",
    "ExperimentConfig",
    "MRule",
    "default_config",
    "parse_config",
    "parse_config_text",
    "CSV_COLUMNS",
    "PlotSpec",
    "ResultRow",
    "emit_csv",
    "emit_selection_csv",
    "emit_svg",
    "parse_csv",
    "render_svg",
    "OracleCheck",
    "run_oracle_suite",
    "run_dispersion_demo",
    "run_grid",
]
