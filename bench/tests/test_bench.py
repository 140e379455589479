"""Tests of the cell benchmark itself: tracer arithmetic, restoration, specs, smoke runs."""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from benchlib import cells, core  # noqa: E402
from benchlib.reference import Reference  # noqa: E402
from benchlib.tracer import LAYERS, Tracer  # noqa: E402


def _ticks(*values):
    it = iter(values)
    return lambda: next(it)


def test_self_time_subtracts_direct_children_only():
    mod = types.ModuleType("fake")

    def leaf():
        return 1

    def middle():
        return mod.leaf()

    def outer():
        return mod.middle() + mod.leaf()

    # outer [0, 100] -> middle [10, 60] -> leaf [20, 30]; outer -> leaf [70, 75]
    tracer = Tracer(clock=_ticks(0, 10, 20, 30, 60, 70, 75, 100))
    for name, fn in (("leaf", leaf), ("middle", middle), ("outer", outer)):
        setattr(mod, name, tracer.wrap(f"fake.{name}", fn))
    assert mod.outer() == 2
    totals = tracer.totals()
    assert totals["fake.outer"]["calls"] == 1
    assert totals["fake.outer"]["self_s"] == pytest.approx(45e-9)
    assert totals["fake.outer"]["total_s"] == pytest.approx(100e-9)
    assert totals["fake.middle"]["self_s"] == pytest.approx(40e-9)
    assert totals["fake.leaf"]["calls"] == 2
    assert totals["fake.leaf"]["self_s"] == pytest.approx(15e-9)
    parents = list(tracer.parent)
    assert parents == [-1, 0, 1, 0]


def test_rejection_is_counted_and_reraised():
    class Rejected(Exception):
        pass

    def refuse():
        raise Rejected

    tracer = Tracer()
    wrapped = tracer.wrap("fake.refuse", refuse, rejection=Rejected)
    with pytest.raises(Rejected):
        wrapped()
    assert tracer.counters["fake.refuse.rejected"] == 1
    assert tracer.totals()["fake.refuse"]["calls"] == 1


def test_originals_restored_after_tracing():
    lib = core.load_library(ROOT)
    originals = {
        (layer, fname): getattr(getattr(lib, layer), fname)
        for layer, fnames in LAYERS.items()
        for fname in fnames
    }
    with pytest.raises(RuntimeError, match="body failed"):
        with Tracer().installed(vars(lib)):
            for (layer, fname), fn in originals.items():
                current = getattr(getattr(lib, layer), fname)
                assert current is not fn and current.__wrapped__ is fn
            raise RuntimeError("body failed")
    for (layer, fname), fn in originals.items():
        assert getattr(getattr(lib, layer), fname) is fn


def test_metric_specs_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(cells.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(
        core.E2E_METRICS
    )
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        core.LAYER_METRICS
    )


def test_tail_statistic_needs_ten_cells_beyond():
    assert core.tail_statistic([3.0, 1.0, 2.0]) == (2.0, 50.0)
    values = [float(i) for i in range(40)]
    value, pct = core.tail_statistic(values)
    assert value == 29.0 and sum(v > value for v in values) == 10
    assert pct == pytest.approx(75.0)


def test_reference_scale_spans_samples_around_each_cell():
    reference = Reference(("chain", "blas", "stream"))
    reference.windows = [[1.0, 3.0], [2.0], [5.0, 6.0], [9.0], [7.0, 8.0]]
    # Cell i ran between windows i and i + 1 and is scaled by windows
    # i - 1 to i + 2: [0, 2], [0, 3], [1, 4], [2, 4].
    assert reference.scales() == [3.0, 4.0, 6.5, 7.0]
    assert reference.sample(0.0) > 0 and len(reference.windows) == 6
    assert reference.windows[-1] and all(t > 0 for t in reference.windows[-1])


@pytest.mark.parametrize("workload", list(cells.WORKLOADS))
def test_one_cell_smoke(workload, tmp_path):
    record = core.run(workload, 0, 0.0, False, ROOT, tmp_path, setup_reps=1, max_cells=1)
    assert record["correct"] and record["failed"] == 0, record["problems"]
    assert record["cells"] == 1 and record["attempted"] == 2
    assert list(record["metrics"]) == [name for name, _, _ in core.E2E_METRICS]
    assert all(m["value"] > 0 for m in record["metrics"].values())


@pytest.mark.parametrize("workload", ["chain-dpp", "m-sweep"])
def test_one_cell_traced_smoke(workload, tmp_path):
    record = core.run(workload, 0, 0.0, True, ROOT, tmp_path, setup_reps=1, max_cells=1)
    assert record["correct"] and record["traced_equals_untraced"], record["problems"]
    metrics = {name: m["value"] for name, m in record["metrics"].items()}
    assert list(metrics) == [name for name, _, _ in core.LAYER_METRICS]
    assert metrics["trace.coverage"] >= 0.95
    assert metrics["inducing.advance.steps"] == 2000 * (2 if workload == "chain-dpp" else 1)
    assert 0 < metrics["inducing.advance.accept_ratio"] < 1
    assert (tmp_path / f"spans-{workload}.npz").is_file()


def test_refuses_checkout_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "chain-dpp", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
