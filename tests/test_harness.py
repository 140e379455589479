"""Harness tests: config parsing, emission determinism, runners, CLI."""

import csv
import hashlib
import re
import subprocess
import sys
import tracemalloc
from collections import Counter
from dataclasses import asdict, fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from sparsegp import bounds, chol, gp_exact, inducing, kernels, svgp
from sparsegp.errors import ConfigError, DenseLimitExceededError
from sparsegp.harness import cli, config, emit, oracle_suite, runners

CONFIG_MD = Path(__file__).resolve().parents[1] / "CONFIG.md"

SMOKE_CONFIG = """
[defaults]
kernel = se
variance = 1.0
noise_variance = 0.1

[experiment:smoke]
kind = fixed-m
lengthscale = 0.4
density = uniform
density_lower = 0.0
density_upper = 5.0
n_grid = 40 80
m_rule = fixed
m = 8
method = points-kdpp
chain_steps = 200
seeds = 0 1
out_csv = smoke.csv
out_svg = smoke.svg
"""


# The spectrum schedule of Theorem 4 (``m_rule = schedule-se-1d``): M and the
# chain's epsilon both derive from N, gamma and delta.  CONFIG.md shows it too.
LOG_SCHEDULE_CONFIG = """
[experiment:log-schedule-default]
kind = log-schedule
kernel = se
variance = 1.0
lengthscale = 0.6
density = gaussian
density_mean = 0.0
density_std = 1.0
noise_variance = 1.0
n_grid = 250 500 1000 2000 4000
m_rule = schedule-se-1d
gamma = 1.0
delta = 0.1
method = points-kdpp
chain_steps = 2000
seeds = 0:20
out_csv = log_schedule.csv
out_svg = log_schedule.svg
"""


def _with_line(text: str, line: str) -> str:
    """``text`` with ``line`` appended to its last section, after dropping the
    lines that already set that key (a repeated key is malformed config)."""
    key = line.split(" = ")[0]
    kept = [old for old in text.splitlines() if not old.startswith(key + " = ")]
    return "\n".join(kept) + "\n" + line + "\n"


class TestConfigParsing:
    def test_parse_and_defaults_merge(self):
        cfgs = config.parse_config_text(SMOKE_CONFIG)
        assert len(cfgs) == 1
        cfg = cfgs[0]
        assert cfg.name == "smoke"
        assert cfg.kernel.variance == 1.0
        assert cfg.noise.variance == 0.1
        assert cfg.n_grid == [40, 80]
        assert cfg.seeds == [0, 1]
        assert cfg.chain_steps == 200

    def test_seed_range_syntax(self):
        cfgs = config.parse_config_text(
            SMOKE_CONFIG.replace("seeds = 0 1", "seeds = 3:6")
        )
        assert cfgs[0].seeds == [3, 4, 5]

    def test_duplicate_seeds_rejected(self):
        with pytest.raises(ConfigError):
            config.parse_config_text(SMOKE_CONFIG.replace("seeds = 0 1", "seeds = 2 2"))

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigError):
            config.parse_config_text(
                SMOKE_CONFIG.replace("method = points-kdpp", "method = magic")
            )

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError):
            config.parse_config_text(SMOKE_CONFIG + "\n[stray]\nx = 1\n")

    def test_m_sweep_needs_grid(self):
        text = SMOKE_CONFIG.replace("kind = fixed-m", "kind = m-sweep")
        with pytest.raises(ConfigError):
            config.parse_config_text(text)

    def test_shipped_configs_parse(self):
        shipped = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.cfg"))
        assert len(shipped) == 4
        for path in shipped:
            assert config.parse_config(str(path))

    @pytest.mark.parametrize(
        "line", ["chain_step = 5", "r_bound = -3", "Lengthscales = 1", "m_alpha = 0.5"]
    )
    def test_unknown_key_rejected(self, line):
        key = line.split(" = ")[0].lower()
        with pytest.raises(ConfigError, match=key):
            config.parse_config_text(SMOKE_CONFIG + line + "\n")
        text = SMOKE_CONFIG.replace("[defaults]\n", "[defaults]\n" + line + "\n")
        with pytest.raises(ConfigError, match=key):
            config.parse_config_text(text)

    @pytest.mark.parametrize(
        "edits",
        [
            {"kernel = se": "kernel = matern", "density = uniform": "density = gaussian"},
            {
                "lengthscale = 0.4": "lengthscale = 0.4 0.4",
                "density = uniform": "density = gaussian",
            },
            {},
            # Matern-3/2 on [0, 1] has a calibrated tail, but only as an
            # asymptotic bound, which cannot certify a count.
            {
                "kernel = se": "kernel = matern",
                "lengthscale = 0.4": "lengthscale = 0.5",
                "density_upper = 5.0": "density_upper = 1.0",
            },
        ],
        ids=["matern", "two-dims", "uniform-density", "calibrated-matern"],
    )
    def test_se_schedule_needs_se_gaussian_one_dim(self, edits):
        text = SMOKE_CONFIG.replace("m_rule = fixed", "m_rule = schedule-se-1d")
        for old, new in edits.items():
            text = text.replace(old, new)
        with pytest.raises(ConfigError, match="schedule-se-1d"):
            config.parse_config_text(text)
        ok = text.replace("kernel = matern", "kernel = se").replace("0.4 0.4", "0.4")
        ok = ok.replace("density = uniform", "density = gaussian")
        cfg = config.parse_config_text(ok)[0]
        ell = float(cfg.kernel.lengthscales[0])
        tail = kernels.se_gaussian_spectrum_tail(1.0, ell, 1.0)
        sched = bounds.m_schedule_se_1d(100, bounds.ScheduleParams(), tail, 0.1)
        assert cfg.m_rule.resolve(100, cfg) == sched.m

    @pytest.mark.parametrize(
        "line",
        [
            "epsilon = -0.001",
            "epsilon = 0",
            "epsilon = 1",
            "chain_steps = -5",
            "m_rule = log\nm_coeff = -3",
            "m_rule = log\nm_coeff = 0",
            "m_rule = log\nm_coeff = inf",
            "m_rule = fixed\nm = 0",
            "m_rule = fixed\nm = -3",
            "delta = 1.5",
            "gamma = 0",
            "method = eigfunc\nquadrature = 0",
            "method = eigfunc\nquadrature = -4",
            "m_grid = 0 5",
            "n_grid = 0",
            f"n_grid = 40 {gp_exact.DENSE_LIMIT + 1}",
            "n_grid = 40 abc",
            "seeds = 0 x",
            "seeds = 0:x",
            "quadrature = 2.5",
            "m = 2.5",
            "lengthscale = x",
            "variance = x",
            "density_std = 1 x",
            "noise_variance = x",
            "epsilon = x",
            "dispersion_lengthscales = x",
            "m_intercept = x",
            "matern_order = -1",
        ],
        ids=[
            "eps-negative",
            "eps-zero",
            "eps-one",
            "steps-negative",
            "coeff-negative",
            "coeff-zero",
            "coeff-infinite",
            "m-zero",
            "m-negative",
            "delta-above-one",
            "gamma-zero",
            "quadrature-zero",
            "quadrature-negative",
            "m-grid-zero",
            "n-grid-zero",
            "n-grid-above-dense-limit",
            "n-grid-not-int",
            "seeds-not-int",
            "seed-range-not-int",
            "quadrature-not-int",
            "m-not-int",
            "lengthscale-not-float",
            "variance-not-float",
            "density-std-not-float",
            "noise-not-float",
            "eps-not-float",
            "dispersion-lengthscales-not-float",
            "unused-intercept-not-float",
            "unused-matern-order-negative",
        ],
    )
    def test_documented_ranges_checked_when_parsed(self, line):
        key = line.split("\n")[-1].split(" = ")[0]
        text = SMOKE_CONFIG
        for dropped in (
            "m_rule = fixed\nm = 8\n",
            "chain_steps = 200\n",
            "n_grid = 40 80\n",
            "method = points-kdpp\n",
            "seeds = 0 1\n",
            "lengthscale = 0.4\n",
        ):
            text = text.replace(dropped, "")
        config.parse_config_text(text)  # the base text parses
        with pytest.raises(ConfigError, match=key):
            config.parse_config_text(text + line + "\n")

    def test_power_rule_rejected(self):
        with pytest.raises(ConfigError, match="power"):
            config.parse_config_text(SMOKE_CONFIG.replace("m_rule = fixed", "m_rule = power"))

    def test_hash_manifest_lists_each_shipped_output_once(self):
        # Checks names only, so it holds on any machine; the hashes
        # themselves are checked by README's regeneration command.
        root = Path(__file__).resolve().parents[1] / "configs"
        outputs = [
            name
            for path in sorted(root.glob("*.cfg"))
            for cfg in config.parse_config(str(path))
            for name in (cfg.out_csv, cfg.out_svg)
            if name
        ]
        lines = (root / "SHA256SUMS").read_text(encoding="utf-8").splitlines()
        listed = [re.fullmatch(r"[0-9a-f]{64}  (\S+)", line) for line in lines]
        assert all(listed), lines
        assert sorted(m.group(1) for m in listed) == sorted(outputs)
        assert len(set(outputs)) == len(outputs)

    @pytest.mark.parametrize("ells", ["2 2.0", "0.1234567 0.1234568"])
    def test_dispersion_labels_must_differ(self, ells):
        # Both lists print as two equal kdpp-ell={:g} labels, so one demo
        # selection would overwrite the other.
        with pytest.raises(ConfigError, match="dispersion_lengthscales"):
            config.parse_config_text(_with_line(SMOKE_CONFIG, f"dispersion_lengthscales = {ells}"))

    def test_empty_dispersion_lengthscales_rejected(self):
        # With no lengthscale the demo would run no chain at all.
        with pytest.raises(ConfigError, match="dispersion_lengthscales"):
            config.parse_config_text(_with_line(SMOKE_CONFIG, "dispersion_lengthscales ="))

    @pytest.mark.parametrize("key", ["out_csv", "out_svg"])
    def test_empty_output_file_rejected(self, key):
        # An empty value is read as written, not as the key's default.
        with pytest.raises(ConfigError, match=key):
            config.parse_config_text(_with_line(SMOKE_CONFIG, f"{key} = "))

    def test_parsing_resolves_the_output_files(self):
        (cfg,) = config.parse_config_text(SMOKE_CONFIG.replace("out_csv = smoke.csv\n", ""))
        assert (cfg.out_csv, cfg.out_svg) == ("smoke.csv", "smoke.svg")
        # The dispersion demo writes no chart, whatever out_svg says.
        demo_text = SMOKE_CONFIG.replace("kind = fixed-m", "kind = dispersion")
        (demo,) = config.parse_config_text(_with_line(demo_text, "out_svg = x.svg"))
        assert (demo.out_csv, demo.out_svg) == ("smoke.csv", None)

    def test_readme_regenerates_every_shipped_config(self):
        # README's regeneration loop names each configs/*.cfg once, with the
        # CLI subcommand of that file's experiments.
        root = Path(__file__).resolve().parents[1]
        readme = (root / "README.md").read_text(encoding="utf-8")
        loops = re.findall(r"^for c in ([^;]*); do", readme, flags=re.MULTILINE)
        assert len(loops) == 1, loops
        listed = dict(entry.split(":") for entry in loops[0].split())
        assert len(listed) == len(loops[0].split())
        shipped = {
            path.stem: {cfg.kind for cfg in config.parse_config(str(path))}
            for path in (root / "configs").glob("*.cfg")
        }
        assert {name: {kind} for name, kind in listed.items()} == shipped

    def test_config_md_documents_exactly_the_known_keys(self):
        doc = CONFIG_MD.read_text(encoding="utf-8")
        documented = set(re.findall(r"^\| `(\w+)` \|", doc, flags=re.MULTILINE))
        assert documented == config.KNOWN_KEYS

    def test_config_md_shows_the_defaults_config_uses(self):
        # Split on unescaped bars only: a values cell such as `se` \| `matern`
        # holds escaped ones.
        doc = CONFIG_MD.read_text(encoding="utf-8")
        rows = re.findall(r"^\| `\w+` \|.*$", doc, flags=re.MULTILINE)
        shown = {}
        for row in rows:
            cells = [cell.strip() for cell in re.split(r"(?<!\\)\|", row)]
            assert len(cells) == 6, row  # empty, key, values, default, meaning, empty
            shown[cells[1].strip("`")] = cells[3]
        for key, default in config._DEFAULTS.items():
            if default:
                assert shown[key] == f"`{default}`", key

    def test_every_numeric_key_is_cast_when_parsed(self):
        # A key CONFIG.md documents as int or float rejects a non-number with
        # a ConfigError naming it, also when the experiment does not use it.
        doc = CONFIG_MD.read_text(encoding="utf-8")
        rows = re.findall(r"^\| `(\w+)` \| ([^|]*) \|", doc, flags=re.MULTILINE)
        numeric = [key for key, values in rows if re.search(r"\b(int|float)", values)]
        assert len(numeric) >= 20
        for key in numeric:
            with pytest.raises(ConfigError, match=key):
                config.parse_config_text(_with_line(SMOKE_CONFIG, f"{key} = x"))

    def test_epsilon_decided_in_one_place(self):
        # The schedule's own epsilon, delta * noise / (v N^(gamma + 2)), sets
        # both the chain budget and the theorem-3/4 columns.
        (cfg,) = config.parse_config_text(LOG_SCHEDULE_CONFIG)
        assert cfg.epsilon_at(1000) == pytest.approx(1e-10, rel=1e-12)
        unbounded = replace(cfg, chain_steps=None)
        assert unbounded.chain_budget(1000, 12) == inducing.mixing_steps(1000, 12, 1e-10)
        assert replace(cfg, epsilon=0.01).epsilon_at(1000) == 0.01
        tail = kernels.spectrum_tail(cfg.kernel, cfg.density)
        (row,) = runners._run_dataset(replace(cfg, chain_steps=200), 0, 60, [5], tail)
        eps = 0.1 / 60.0**3
        expected = bounds.thm4(60, row.m, cfg.delta, eps, 1.0, 1.0, tail)
        assert row.thm4 == pytest.approx(expected, rel=1e-12)
        fixed = config.parse_config_text(SMOKE_CONFIG)[0]
        assert fixed.epsilon_at(40) == 40.0**-3

    def test_m_rules(self):
        cfg = config.parse_config_text(SMOKE_CONFIG)[0]
        assert cfg.m_rule.resolve(40, cfg) == 8
        log_rule = config.MRule("log", coeff=2.0, intercept=1.0)
        assert log_rule.resolve(100, cfg) == int(np.ceil(2.0 * np.log(100) + 1.0))


class TestCsvEmission:
    def _rows(self):
        cfg = config.parse_config_text(SMOKE_CONFIG)[0]
        return runners.run_grid(cfg)

    def test_round_trip_exact(self, tmp_path):
        rows = self._rows()
        path = tmp_path / "rows.csv"
        emit.emit_csv(rows, str(path))
        assert emit.parse_csv(str(path)) == rows

    def test_byte_determinism(self, tmp_path):
        rows = self._rows()
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit.emit_csv(rows, str(p1))
        emit.emit_csv(self._rows(), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_only_for_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit.emit_csv([], str(path))
        content = path.read_text()
        assert content == ",".join(emit.CSV_COLUMNS) + "\n"

    def test_rows_sorted(self):
        rows = self._rows()
        keys = [(r.experiment, r.seed, r.n, r.m) for r in rows]
        assert keys == sorted(keys)

    def test_none_fields_round_trip(self, tmp_path):
        rows = self._rows()
        rows[0].thm1 = None
        path = tmp_path / "none.csv"
        emit.emit_csv(rows, str(path))
        assert emit.parse_csv(str(path))[0].thm1 is None

    @pytest.mark.parametrize(
        "edit", [lambda cells: cells + ["1"], lambda cells: cells[:-1]], ids=["long", "short"]
    )
    def test_record_of_wrong_length_rejected(self, tmp_path, edit):
        path = tmp_path / "rows.csv"
        emit.emit_csv(self._rows()[:2], str(path))
        lines = path.read_text().splitlines()
        lines[2] = ",".join(edit(lines[2].split(",")))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="line 3"):
            emit.parse_csv(str(path))

    def test_every_report_field_is_a_column(self):
        # Rows are built from the report's fields by name.
        missing = {f.name for f in fields(svgp.BoundReport)} - set(emit.CSV_COLUMNS)
        assert not missing

    def test_columns_are_the_row_fields_in_documented_order(self):
        assert sorted(emit.CSV_COLUMNS) == sorted(f.name for f in fields(emit.ResultRow))
        doc = CONFIG_MD.read_text(encoding="utf-8")
        listed = doc.split("Fixed order: `", 1)[1].split("`", 1)[0]
        assert tuple(col.strip() for col in listed.split(",")) == emit.CSV_COLUMNS


class TestSelectionSerialization:
    def test_csv_line_format(self, tmp_path):
        path = tmp_path / "sel.csv"
        emit.emit_selection_csv([("fig2", "kdpp-ell=2", 7, np.array([9, 1, 4]))], str(path))
        line = path.read_text(encoding="utf-8").splitlines()[1]
        assert line == "fig2,kdpp-ell=2,7,1 4 9"

    def test_run_id_with_comma_and_quote_round_trips(self, tmp_path):
        text = """
[experiment:a,"b]
kind = dispersion
n_grid = 30
m_rule = fixed
m = 4
chain_steps = 50
seeds = 0 1
out_csv = sel.csv
"""
        cfg_path = tmp_path / "sel.cfg"
        cfg_path.write_text(text, encoding="utf-8")
        assert cli.main(["dispersion", "--config", str(cfg_path), "--out-dir", str(tmp_path)]) == 0
        selections, _ = runners.run_dispersion_demo(config.parse_config_text(text)[0])
        with open(tmp_path / "sel.csv", encoding="utf-8", newline="") as fh:
            records = list(csv.reader(fh))
        assert records[0] == ["run_id", "method", "seed", "indices"]
        assert len(records) == 1 + len(selections) == 7
        for record, (run_id, method, seed, idx) in zip(records[1:], selections, strict=True):
            assert record == [run_id, method, str(seed), " ".join(map(str, sorted(idx)))]
            assert run_id == 'a,"b'


class TestSvgEmission:
    def test_deterministic_bytes_and_structure(self, tmp_path):
        cfg = config.parse_config_text(SMOKE_CONFIG)[0]
        rows = runners.run_grid(cfg)
        spec = emit.PlotSpec(x="n", ys=("kl_exact", "lemma2_lo", "lemma2_hi"), title="smoke")
        s1 = emit.render_svg(rows, spec)
        s2 = emit.render_svg(list(rows), spec)
        assert s1 == s2
        assert s1.startswith("<svg")
        assert s1.count("<polyline") == 3
        assert "kl_exact" in s1
        p = tmp_path / "plot.svg"
        emit.emit_svg(rows, spec, str(p))
        assert p.read_text() == s1

    def test_empty_rows_still_valid_svg(self):
        s = emit.render_svg([], emit.PlotSpec(x="n", ys=("kl_exact",), title="empty"))
        assert s.startswith("<svg") and s.rstrip().endswith("</svg>")

    @staticmethod
    def _chart_rows():
        # Three seeds at three (n, m) points.  kl_exact's median is 0.0 at the
        # last point (a zero on a log axis), one lemma2_lo is None, and thm3
        # has no point at all.
        rows = []
        for seed in range(3):
            for i, (n, m) in enumerate(((50, 2), (200, 5), (800, 9))):
                rows.append(
                    SimpleNamespace(
                        n=n,
                        m=m,
                        kl_exact=0.0 if i == 2 and seed < 2 else (1.5 + seed) / (i + 1) ** 2,
                        lemma2_lo=None if (seed, i) == (1, 1) else 0.25 * (i + 1) + 0.1 * seed,
                        lemma2_hi=0.5 * (i + 1) + 0.2 * seed,
                        upper=3.0 / (i + 1) + 0.01 * seed,
                        thm3=None,
                        thm4=40.0 / (i + 1) ** 3 + seed,
                    )
                )
        return rows

    # The sha256 of each shipped plot spec's chart of ``_chart_rows``.  The
    # bytes depend only on Python's float formatting and np.median, so they
    # hold on any machine (the configs/SHA256SUMS charts also depend on BLAS).
    CHART_SHA256 = {
        "fixed-m": "813d2094278772a1f5c2d88f9d46ce6511c8288277e7aa461dd4305c883d2057",
        "m-sweep": "5090f4bae793af5719d21f7d081993c72dc21d501d726068a5c663761e934a78",
        "log-schedule": "6eeb9887b41c704da32d59874db5560b389424c0e9e18561637f3e2668589f53",
    }

    @pytest.mark.parametrize("kind", sorted(CHART_SHA256))
    def test_chart_bytes_pinned(self, kind):
        svg = emit.render_svg(self._chart_rows(), cli._PLOTS[kind])
        assert hashlib.sha256(svg.encode("utf-8")).hexdigest() == self.CHART_SHA256[kind]


class TestRunners:
    def test_fixed_m_rows_have_apriori_slots(self):
        cfg = config.parse_config_text(SMOKE_CONFIG)[0]
        rows = runners.run_grid(cfg)
        assert len(rows) == 4
        for r in rows:
            assert r.violation == ""
            assert r.lemma1 is not None and r.lemma2_lo is not None
            assert r.kl_exact is not None and r.kl_exact <= r.lemma1 + 1e-8
            assert r.lemma2_hi == pytest.approx(2 * r.lemma2_lo)
            # uniform density: no closed-form operator tail
            assert r.thm1 is None

    def test_gaussian_density_fills_theorem_slots(self):
        # Theorems 1-2 fill only eigfunc rows and theorems 3-4 only
        # points-kdpp rows; every method reads the same dataset per cell.
        text = SMOKE_CONFIG.replace(
            "density = uniform", "density = gaussian"
        ).replace("lengthscale = 0.4", "lengthscale = 0.6")
        cfg = config.parse_config_text(text)[0]
        rows = runners.run_grid(cfg)
        eig = runners.run_grid(replace(cfg, method="eigfunc"))
        uniform = runners.run_grid(replace(cfg, method="points-uniform"))
        for r, e, u in zip(rows, eig, uniform, strict=True):
            assert r.norm_y_sq == e.norm_y_sq == u.norm_y_sq and r.m == e.m
            assert e.thm1 is not None and r.thm4 is not None
            assert r.thm3 >= (r.m + 1) * e.thm1 - 1e-9
            assert (r.thm1, r.thm2) == (e.thm3, e.thm4) == (None, None)
            assert (u.thm1, u.thm2, u.thm3, u.thm4) == (None, None, None, None)

    @staticmethod
    def _matern_unit_interval(lengthscale, variance):
        # Matern-3/2 on [0, 1], the pair with a calibrated tail constant in 1-D.
        text = (
            SMOKE_CONFIG.replace("kernel = se", "kernel = matern")
            .replace("lengthscale = 0.4", f"lengthscale = {lengthscale}")
            .replace("variance = 1.0", f"variance = {variance}")
            .replace("density_upper = 5.0", "density_upper = 1.0")
            .replace("n_grid = 40 80", "n_grid = 40")
        )
        return config.parse_config_text(text)[0]

    def test_matern_in_two_dimensions_leaves_theorem_slots_empty(self):
        cfg = self._matern_unit_interval("0.5 0.5", 1.0)
        assert cfg.kernel.dim == 2 and cfg.density.dim == 2
        rows = runners.run_grid(cfg)
        for r in rows:
            assert r.violation == "" and r.lemma1 is not None
            assert (r.thm1, r.thm2, r.thm3, r.thm4) == (None, None, None, None)

    def test_matern_theorem_slots_scale_with_variance(self):
        cfg = replace(self._matern_unit_interval("0.5", 4.0), method="eigfunc")
        row = runners.run_grid(cfg)[0]
        tail = kernels.matern_spectrum_tail(1, 4.0 * 0.85)
        assert row.thm2 == bounds.thm2(row.n, row.m, cfg.delta, cfg.noise.variance, tail)

    def test_dense_limit_enforced(self):
        # A parsed config cannot hold such an N (see the parse-time ranges);
        # one built in code still stops where its dense system is built.
        cfg = config.parse_config_text(SMOKE_CONFIG)[0]
        with pytest.raises(DenseLimitExceededError):
            runners.run_grid(replace(cfg, n_grid=[gp_exact.DENSE_LIMIT + 1]))

    def test_record_timing_fills_only_the_time_columns(self):
        timed = runners.run_grid(
            config.parse_config_text(_with_line(SMOKE_CONFIG, "record_timing = on"))[0]
        )
        untimed = runners.run_grid(config.parse_config_text(SMOKE_CONFIG)[0])
        time_columns = ("time_select", "time_solve", "time_bounds")
        rest = [col for col in emit.CSV_COLUMNS if col not in time_columns]
        for on, off in zip(timed, untimed, strict=True):
            assert 0 < on.time_select < np.inf and 0 < on.time_solve < np.inf
            assert (off.time_select, off.time_solve, off.time_bounds) == (0.0, 0.0, 0.0)
            assert [getattr(on, c) for c in rest] == [getattr(off, c) for c in rest]

    def test_determinism_across_runs(self):
        cfg = config.parse_config_text(SMOKE_CONFIG)[0]
        assert runners.run_grid(cfg) == runners.run_grid(cfg)

    def test_one_dense_gram_and_factor_per_cell(self, monkeypatch):
        # The y draw, the lambda_max block products and the exact KL share
        # one N x N Gram, one factor of K + s2 I and one log marginal
        # likelihood, built once per dataset: once per (seed, N) cell, and
        # once per seed for every M of an m-sweep.
        cfg = config.parse_config_text(SMOKE_CONFIG)[0]
        sweep = replace(cfg, kind="m-sweep", m_grid=[2, 5, 8])
        calls = Counter()
        gram, factor = kernels.gram, chol.factor
        lml = gp_exact.log_marginal_likelihood

        def counting_gram(*args, **kwargs):
            K = gram(*args, **kwargs)
            calls["gram", K.shape] += 1
            return K

        def counting_factor(*args, **kwargs):
            f = factor(*args, **kwargs)
            calls["factor", f.L.shape] += 1
            return f

        def counting_lml(system, y):
            calls["lml", len(y)] += 1
            return lml(system, y)

        monkeypatch.setattr(kernels, "gram", counting_gram)
        monkeypatch.setattr(chol, "factor", counting_factor)
        monkeypatch.setattr(gp_exact, "log_marginal_likelihood", counting_lml)
        rows = runners.run_grid(cfg)
        assert len(rows) == len(cfg.seeds) * len(cfg.n_grid)
        for n in cfg.n_grid:
            assert calls["gram", (n, n)] == len(cfg.seeds)
            assert calls["factor", (n, n)] == len(cfg.seeds)
            assert calls["lml", n] == len(cfg.seeds)
        calls.clear()
        assert len(runners.run_grid(sweep)) == len(cfg.seeds) * len(sweep.m_grid)
        n = sweep.n_grid[0]
        assert calls["gram", (n, n)] == calls["factor", (n, n)] == len(cfg.seeds)
        assert calls["lml", n] == len(cfg.seeds)

    def test_one_dense_gram_per_eigvec_cell(self, monkeypatch):
        # Eigenvector features come from the cell's one N x N Gram, and their
        # eigendecomposition is done before K + s2 I is factored.
        cfg = replace(config.parse_config_text(SMOKE_CONFIG)[0], method="eigvec")
        events = []
        gram, factor, eigh = kernels.gram, chol.factor, np.linalg.eigh

        def counting_gram(*args, **kwargs):
            K = gram(*args, **kwargs)
            events.append(("gram", K.shape))
            return K

        def counting_factor(A, **kwargs):
            events.append(("factor", A.shape))
            return factor(A, **kwargs)

        def counting_eigh(A, *args, **kwargs):
            events.append(("eigh", A.shape))
            return eigh(A, *args, **kwargs)

        monkeypatch.setattr(kernels, "gram", counting_gram)
        monkeypatch.setattr(chol, "factor", counting_factor)
        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        rows = runners.run_grid(cfg)
        assert [r.method for r in rows] == ["eigvec"] * 4
        expected = [
            (name, (n, n))
            for _ in cfg.seeds
            for n in cfg.n_grid
            for name in ("gram", "eigh", "factor")
        ]
        assert [e for e in events if e[1] in {(n, n) for n in cfg.n_grid}] == expected
        # An m-sweep dataset runs one eigendecomposition for every M, before
        # its one factor.
        events.clear()
        runners.run_grid(replace(cfg, kind="m-sweep", m_grid=[2, 5, 8]))
        n = cfg.n_grid[0]
        expected = [("gram", (n, n)), ("eigh", (n, n)), ("factor", (n, n))]
        assert [e for e in events if e[1] == (n, n)] == expected * len(cfg.seeds)

    def test_dense_cell_holds_one_n_by_n_array(self):
        # fig4's settings at N=1500: the selection, the lambda_max estimate
        # and the factor all work in the cell's one Gram, so the traced peak
        # (numpy's buffers included) stays near N^2 doubles, not twice that.
        shipped = Path(__file__).resolve().parents[1] / "configs" / "fig4.cfg"
        cfg = config.parse_config(str(shipped))[0]
        n = 1500
        tail = kernels.spectrum_tail(cfg.kernel, cfg.density)
        tracemalloc.start()
        try:
            runners._run_dataset(cfg, cfg.seeds[0], n, [cfg.m_rule.resolve(n, cfg)], tail)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * n * n * 8

    def test_outputs_drawn_from_the_evaluated_system(self, monkeypatch):
        cfg = config.parse_config_text(SMOKE_CONFIG)[0]
        seen = []
        lml = gp_exact.log_marginal_likelihood

        def capturing_lml(system, y):
            seen.append((system, y))
            return lml(system, y)

        monkeypatch.setattr(gp_exact, "log_marginal_likelihood", capturing_lml)
        (row,) = runners._run_dataset(cfg, 1, 40, [8], None)
        (dense, y), = seen
        assert row.norm_y_sq == float(y @ y)
        seed = runners._derived_seed(1, 40, 8, runners._PHASE_OUTPUTS)
        z = np.random.default_rng(seed).standard_normal(40)
        assert np.array_equal(y, dense.noisy.L @ z)
        X = runners._draw_inputs(
            cfg.density, 40, runners._derived_seed(1, 40, 8, runners._PHASE_DATA)
        )
        K = kernels.gram(cfg.kernel, X)
        assert np.array_equal(dense.noisy.L, chol.factor(K + cfg.noise.variance * np.eye(40)).L)

    def test_m_sweep_rows_of_a_seed_share_one_dataset(self):
        # Every M of an m-sweep seed reads the X and y keyed by (seed, N)
        # with M = 0; only the selection is keyed by M.
        cfg = replace(
            config.parse_config_text(SMOKE_CONFIG)[0], kind="m-sweep", m_grid=[2, 5, 8]
        )
        rows = runners.run_grid(cfg)
        n = cfg.n_grid[0]
        for seed in cfg.seeds:
            X = runners._draw_inputs(
                cfg.density, n, runners._derived_seed(seed, n, 0, runners._PHASE_DATA)
            )
            dense = gp_exact.DenseSystem.from_gram(gp_exact.dense_gram(X, cfg.kernel), cfg.noise)
            y = gp_exact.sample_prior_outputs(
                dense, runners._derived_seed(seed, n, 0, runners._PHASE_OUTPUTS)
            )
            norms = {r.norm_y_sq for r in rows if r.seed == seed}
            assert norms == {float(y @ y)}
        assert len({r.norm_y_sq for r in rows}) == len(cfg.seeds)

    def test_eigvec_m_sweep_rows_equal_one_decomposition_per_m(self):
        # Each M's eigenpairs sliced from the dataset's one decomposition at
        # the largest M give the row a decomposition at that M gives.
        cfg = replace(
            config.parse_config_text(SMOKE_CONFIG)[0],
            kind="m-sweep",
            m_grid=[2, 5, 8],
            method="eigvec",
        )
        rows = runners.run_grid(cfg)
        n = cfg.n_grid[0]
        assert len(rows) == len(cfg.seeds) * len(cfg.m_grid)
        for row in rows:
            X = runners._draw_inputs(
                cfg.density, n, runners._derived_seed(row.seed, n, 0, runners._PHASE_DATA)
            )
            K = gp_exact.dense_gram(X, cfg.kernel)
            ind = runners._select_inducing(cfg, X, K, row.m, 0)
            res = svgp.residual(ind, cfg.kernel, X, K)
            dense = gp_exact.DenseSystem.from_gram(K, cfg.noise)
            y = gp_exact.sample_prior_outputs(
                dense, runners._derived_seed(row.seed, n, 0, runners._PHASE_OUTPUTS)
            )
            report = svgp.evaluate(y, cfg.noise, res, gp_exact.log_marginal_likelihood(dense, y))
            runners._fill_apriori(report, cfg, n, ind.count, None)
            assert asdict(report) == {k: getattr(row, k) for k in asdict(report)}

    @pytest.mark.parametrize("kind", ["fixed-m", "log-schedule"])
    def test_one_m_rows_keyed_by_seed_n_m(self, kind):
        # A one-M dataset derives X, y and the selection from (seed, N, M,
        # phase); rebuilt step by step, each row is the one run_grid returns.
        text = SMOKE_CONFIG.replace("kind = fixed-m", f"kind = {kind}")
        if kind == "log-schedule":
            text = text.replace("m_rule = fixed", "m_rule = log\nm_coeff = 1.5")
        cfg = config.parse_config_text(text)[0]
        tail = kernels.spectrum_tail(cfg.kernel, cfg.density)
        rows = runners.run_grid(cfg)
        assert len(rows) == len(cfg.seeds) * len(cfg.n_grid)
        for row in rows:
            seed, n, m = row.seed, row.n, cfg.m_rule.resolve(row.n, cfg)
            X = runners._draw_inputs(
                cfg.density, n, runners._derived_seed(seed, n, m, runners._PHASE_DATA)
            )
            K = gp_exact.dense_gram(X, cfg.kernel)
            ind = runners._select_inducing(
                cfg, X, K, m, runners._derived_seed(seed, n, m, runners._PHASE_SELECT)
            )
            res = svgp.residual(ind, cfg.kernel, X, K)
            dense = gp_exact.DenseSystem.from_gram(K, cfg.noise)
            y = gp_exact.sample_prior_outputs(
                dense, runners._derived_seed(seed, n, m, runners._PHASE_OUTPUTS)
            )
            report = svgp.evaluate(y, cfg.noise, res, gp_exact.log_marginal_likelihood(dense, y))
            runners._fill_apriori(report, cfg, n, ind.count, tail)
            expected = emit.ResultRow(
                **asdict(report),
                experiment=cfg.name,
                seed=seed,
                n=n,
                m=ind.count,
                method=cfg.method,
                time_select=0.0,
                time_solve=0.0,
                time_bounds=0.0,
                violation=runners._violations(report),
            )
            assert row == expected

    def test_m_sweep_monotone_kl_for_eigvec(self):
        text = """
[experiment:sweep]
kind = m-sweep
kernel = se
variance = 1.0
lengthscale = 0.6
density = gaussian
noise_variance = 1.0
n_grid = 120
m_grid = 2 5 10 20
m_rule = fixed
m = 2
method = eigvec
seeds = 0 1 2
"""
        cfg = config.parse_config_text(text)[0]
        rows = runners.run_grid(cfg)
        # Each seed's M share one dataset, so more Gram eigenvectors never raise the KL.
        for seed in (0, 1, 2):
            kls = [r.kl_exact for r in rows if r.seed == seed]
            assert all(a >= b - 1e-8 for a, b in zip(kls, kls[1:]))

    def test_m_sweep_bound_ordering_monte_carlo(self):
        # kl <= (upper - elbo) holds deterministically row by row; the
        # a-priori theorem bound dominates the a-posteriori gap in well over
        # the 1 - delta fraction of seeds it is guaranteed for.
        text = """
[experiment:sweep]
kind = m-sweep
kernel = se
variance = 1.0
lengthscale = 0.6
density = gaussian
noise_variance = 1.0
n_grid = 200
m_grid = 3 8 15
m_rule = fixed
m = 3
method = points-kdpp
chain_steps = 300
delta = 0.5
seeds = 0:20
"""
        cfg = config.parse_config_text(text)[0]
        rows = runners.run_grid(cfg)
        held = 0
        for r in rows:
            assert r.kl_exact <= r.upper - r.elbo + 1e-8
            if r.upper - r.elbo <= r.thm3:
                held += 1
        assert held >= 0.5 * len(rows)


class TestDispersionDemo:
    def test_spread_ordering_over_seeds(self):
        text = """
[experiment:spread]
kind = dispersion
kernel = se
variance = 1.0
lengthscale = 1.0
density = gaussian
noise_variance = 1.0
n_grid = 100
m_rule = fixed
m = 10
method = points-kdpp
chain_steps = 1200
seeds = 0:100
dispersion_lengthscales = 2.0 0.5
"""
        cfg = config.parse_config_text(text)[0]
        selections, nn = runners.run_dispersion_demo(cfg)
        assert len(selections) == 300
        assert nn["kdpp-ell=2"] >= nn["kdpp-ell=0.5"] >= nn["uniform"]

    def test_selections_have_no_duplicates(self):
        text = """
[experiment:spread]
kind = dispersion
kernel = se
variance = 1.0
lengthscale = 1.0
density = gaussian
noise_variance = 1.0
n_grid = 60
m_rule = fixed
m = 8
method = points-kdpp
chain_steps = 300
seeds = 0:5
"""
        cfg = config.parse_config_text(text)[0]
        selections, _ = runners.run_dispersion_demo(cfg)
        for _, _, _, indices in selections:
            idx = [int(i) for i in indices]
            assert len(idx) == len(set(idx)) == 8


    def test_matern_config_builds_matern_grams(self, monkeypatch):
        text = """
[experiment:spread]
kind = dispersion
kernel = matern
matern_order = 2
variance = 1.5
lengthscale = 1.0
density = gaussian
noise_variance = 1.0
n_grid = 40
m_rule = fixed
m = 5
method = points-kdpp
chain_steps = 50
seeds = 0:2
dispersion_lengthscales = 2.0 0.5
"""
        cfg = config.parse_config_text(text)[0]
        seen = []
        gram = kernels.gram

        def capturing_gram(kernel, *args, **kwargs):
            seen.append(kernel)
            return gram(kernel, *args, **kwargs)

        monkeypatch.setattr(kernels, "gram", capturing_gram)
        runners.run_dispersion_demo(cfg)
        got = [(k.family, k.matern_order, k.variance, list(k.lengthscales)) for k in seen]
        assert got == [(kernels.MATERN, 2, 1.5, [ell]) for ell in (2.0, 0.5)] * len(cfg.seeds)


class TestCli:
    def _run(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "sparsegp.harness.cli", *args],
            capture_output=True,
            text=True,
        )

    def test_usage_error_exit_2(self):
        assert self._run().returncode == 2
        assert self._run("no-such-command").returncode == 2

    def test_missing_config_exit_2(self):
        res = self._run("fixed-m", "--config", "/does/not/exist.cfg")
        assert res.returncode == 2

    @pytest.mark.parametrize("kind", config.KINDS)
    def test_config_flag_left_out_exit_2(self, tmp_path, monkeypatch, capsys, kind):
        def refuse(cfg):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(runners, "run_grid", refuse)
        monkeypatch.setattr(runners, "run_dispersion_demo", refuse)
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli.main([kind])
        assert exc.value.code == 2
        assert "--config" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_smoke_run_exit_0(self, tmp_path):
        cfg_path = tmp_path / "smoke.cfg"
        cfg_path.write_text(SMOKE_CONFIG)
        res = self._run(
            "fixed-m", "--config", str(cfg_path), "--out-dir", str(tmp_path)
        )
        assert res.returncode == 0, res.stderr
        assert (tmp_path / "smoke.csv").exists()
        assert (tmp_path / "smoke.svg").exists()
        rows = emit.parse_csv(str(tmp_path / "smoke.csv"))
        assert len(rows) == 4

    def test_seed_offset_changes_rows(self, tmp_path):
        cfg_path = tmp_path / "smoke.cfg"
        cfg_path.write_text(SMOKE_CONFIG)
        self._run("fixed-m", "--config", str(cfg_path), "--out-dir", str(tmp_path / "a"))
        self._run(
            "fixed-m",
            "--config",
            str(cfg_path),
            "--out-dir",
            str(tmp_path / "b"),
            "--seed-offset",
            "100",
        )
        rows_a = emit.parse_csv(str(tmp_path / "a" / "smoke.csv"))
        rows_b = emit.parse_csv(str(tmp_path / "b" / "smoke.csv"))
        assert {r.seed for r in rows_b} == {100, 101}
        assert rows_a != rows_b

    def test_seed_offset_below_zero_exit_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "smoke.cfg"
        cfg_path.write_text(SMOKE_CONFIG)
        args = ["fixed-m", "--config", str(cfg_path), "--out-dir", str(tmp_path)]
        assert cli.main([*args, "--seed-offset", "-1"]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not list(tmp_path.glob("*.csv"))

    def test_config_of_wrong_kind_exit_2(self, tmp_path):
        cfg_path = tmp_path / "smoke.cfg"
        cfg_path.write_text(SMOKE_CONFIG)
        res = self._run("m-sweep", "--config", str(cfg_path))
        assert res.returncode == 2

    @pytest.mark.parametrize(
        "line",
        [
            "record_timing = maybe",
            "out_csv = a%b.csv",
            "out_csv = %(missing)s.csv",
            "n_grid = 40 abc",
            "seeds = 0 x",
            "seeds = 0:x",
            "seeds = -1",
            "seeds = -3:2",
            "quadrature = 2.5",
            "m = 2.5",
            "lengthscale = x",
            "variance = x",
            "density_std = 1 x",
            "noise_variance = x",
            "epsilon = x",
            "dispersion_lengthscales = x",
        ],
    )
    def test_bad_config_value_exit_2(self, tmp_path, line):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(_with_line(SMOKE_CONFIG, line))
        assert cli.main(["fixed-m", "--config", str(cfg_path), "--out-dir", str(tmp_path)]) == 2
        assert not list(tmp_path.glob("*.csv"))

    def test_undecodable_config_exit_2(self, tmp_path):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_bytes(b"\xff\xfe" + SMOKE_CONFIG.encode("utf-16-le"))
        res = self._run("fixed-m", "--config", str(cfg_path), "--out-dir", str(tmp_path))
        assert res.returncode == 2
        assert res.stderr.startswith("error: ") and len(res.stderr.splitlines()) == 1

    def test_out_dir_naming_a_file_exit_2(self, tmp_path, monkeypatch, capsys):
        def refuse_grid(cfg):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(runners, "run_grid", refuse_grid)
        cfg_path = tmp_path / "smoke.cfg"
        cfg_path.write_text(SMOKE_CONFIG)
        out = tmp_path / "taken"
        out.write_text("")
        assert cli.main(["fixed-m", "--config", str(cfg_path), "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "kind,text,path",
        [
            ("fixed-m", "kind = fixed-m\nout_csv = shared.csv\n[experiment:a]\n", "shared.csv"),
            ("dispersion", "kind = dispersion\nout_csv = shared.csv\n[experiment:a]\n", "shared.csv"),
            ("m-sweep", "kind = m-sweep\nm_grid = 2\n[experiment:a]\nout_svg = b.csv\n", "b.csv"),
        ],
        ids=["csv", "dispersion-csv", "svg-on-csv"],
    )
    def test_two_experiments_writing_one_file_exit_2(
        self, tmp_path, monkeypatch, capsys, kind, text, path
    ):
        def refuse(cfg):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(runners, "run_grid", refuse)
        monkeypatch.setattr(runners, "run_dispersion_demo", refuse)
        cfg_path = tmp_path / "dup.cfg"
        cfg_path.write_text("[defaults]\n" + text + "[experiment:b]\n")
        assert cli.main([kind, "--config", str(cfg_path), "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and path in err and "'a' and 'b'" in err
        assert not list(tmp_path.glob("*.csv"))

    def test_percent_escape_read_once(self, tmp_path):
        cfg_path = tmp_path / "pct.cfg"
        text = SMOKE_CONFIG.replace("out_csv = smoke.csv", "out_csv = a%%b.csv")
        cfg_path.write_text(text.replace("n_grid = 40 80", "n_grid = 40"))
        assert cli.main(["fixed-m", "--config", str(cfg_path), "--out-dir", str(tmp_path)]) == 0
        assert len(emit.parse_csv(str(tmp_path / "a%b.csv"))) == 2

    # oracle-suite takes no --config; this runs it without one.
    @pytest.mark.parametrize("passed,code,tag", [(True, 0, "PASS"), (False, 1, "FAIL")])
    def test_oracle_suite_exit_code(self, monkeypatch, capsys, passed, code, tag):
        seen = []

        def fake_suite(fast=False):
            seen.append(fast)
            return [oracle_suite.OracleCheck("stub", passed, "detail")]

        monkeypatch.setattr(oracle_suite, "run_oracle_suite", fake_suite)
        assert cli.main(["oracle-suite", "--fast"]) == code
        assert capsys.readouterr().out == f"{tag} stub: detail\n"
        assert seen == [True]
