"""BENCHMARK.json and the result line keep to the benchmark contract."""

import json
import math
import re
import shutil
import subprocess
import sys

import pytest

from perfbench.common import ROOT, Outcome
from perfbench.metrics import END_TO_END, PER_LAYER, layer_metrics
from perfbench.run import WORKLOADS, result_line
from perfbench.spans import Tracer

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def bench():
    path = ROOT / "BENCHMARK.json"
    assert path.stat().st_size <= 64 * 1024
    return json.loads(path.read_text())


def test_top_level_keys(bench):
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert bench["command"] == ["python3", "perfbench/run.py"]
    assert bench["paths"] == ["perfbench"]
    assert isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60


def test_workloads_are_the_runnable_ones(bench):
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    for w in bench["workloads"]:
        assert set(w) == {"name", "why"}
        assert NAME.match(w["name"])
        assert 0 < len(w["why"]) <= 200 and "\n" not in w["why"]


def test_metric_lists_match_the_catalogue(bench):
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]] == [
        tuple(row) for row in END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        tuple(row) for row in PER_LAYER
    ]
    for m in bench["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in bench["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert NAME.match(m["name"]), m["name"]
        assert UNIT.match(m["unit"]), m["unit"]
        assert m["better"] in ("higher", "lower")
    assert 1 <= len(bench["end_to_end"]) <= 16 and 1 <= len(bench["per_layer"]) <= 128


def test_setup_has_the_largest_bound(bench):
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def _outcome() -> Outcome:
    out = Outcome("w", attempted=10, failed=0, checks={"ok": True})
    out.end_to_end = {name: 1.5 for name, *_ in END_TO_END}
    out.per_layer = layer_metrics(Tracer("r"))
    return out


@pytest.mark.parametrize("trace", [False, True])
def test_result_line_schema(trace):
    line = result_line(_outcome(), trace)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert isinstance(line["attempted"], int) and line["attempted"] >= 1
    assert isinstance(line["failed"], int)
    want = PER_LAYER if trace else END_TO_END
    assert list(line["metrics"]) == [row[0] for row in want]
    for (name, unit, *_), entry in zip(want, line["metrics"].values()):
        assert entry == {"value": entry["value"], "unit": unit}
        assert isinstance(entry["value"], float) and math.isfinite(entry["value"])
    json.dumps(line, allow_nan=False)


def test_non_finite_metric_is_refused():
    out = _outcome()
    out.end_to_end["setup_s"] = float("inf")
    with pytest.raises(SystemExit):
        result_line(out, trace=False)


def test_bypassed_layers_read_zero():
    metrics = layer_metrics(Tracer("r"))
    assert list(metrics) == [row[0] for row in PER_LAYER]
    assert set(metrics.values()) == {0.0}


def test_fails_without_the_program(tmp_path):
    """Holding only BENCHMARK.json and perfbench/, the command exits
    non-zero without printing a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig11-campaign",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
