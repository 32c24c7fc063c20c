"""The compare-schedulers grid: determinism, traces, campaign units."""

import hashlib

import pytest

from repro.campaigns.runner import run_campaign
from repro.campaigns.spec import get_unit_kind
from repro.campaigns.trace import load as load_trace
from repro.schedulers import CompareConfig, compare_cell, render_table, run_compare
from repro.schedulers import compare
from repro.schedulers.compare import DEFAULT_POLICIES, _instance_for, sanity_check
from repro.schedulers.units import (
    COMPARE_UNIT_KIND,
    build_compare_campaign,
    compare_unit,
)

SMALL = CompareConfig(m=4, n=60, k=2, loads=(0.8,), seed=1)


class TestDeterminism:
    def test_identical_configs_identical_output(self):
        a = run_compare(SMALL)
        b = run_compare(SMALL)
        assert a["rows"] == b["rows"]
        assert a["text"] == b["text"]

    def test_rows_cover_grid_in_order(self):
        out = run_compare(SMALL)
        assert [(r["policy"], r["load"]) for r in out["rows"]] == [
            (p, 0.8) for p in DEFAULT_POLICIES
        ]
        for row in out["rows"]:
            assert row["n_completed"] == SMALL.n
            assert 0.0 < row["utilization"] <= 1.0

    def test_policies_see_the_same_instance(self):
        """Every cell runs the identical seeded workload: fault-free,
        work-conserving policies on identical machines finish the same
        total work, so n_completed agrees across the whole grid."""
        config = CompareConfig(m=4, n=60, k=2, loads=(0.8,), seed=1, faults=False)
        out = run_compare(config)
        assert {r["n_completed"] for r in out["rows"]} == {60}

    def test_seed_changes_output(self):
        a = run_compare(SMALL)
        b = run_compare(CompareConfig(m=4, n=60, k=2, loads=(0.8,), seed=4))
        assert a["rows"] != b["rows"]

    def test_only_preemptive_policies_preempt(self):
        out = run_compare(SMALL)
        for row in out["rows"]:
            if row["policy"] != "srpt-ps":
                assert row["n_preempted"] == 0

    def test_faults_actually_fire(self):
        out = run_compare(SMALL)
        assert any(r["n_requeued"] > 0 for r in out["rows"])


class TestSanity:
    def test_srpt_at_most_eft_and_line_greppable(self):
        out = run_compare(SMALL)
        s = out["sanity"]
        assert s["ok"] is True
        assert s["srpt_mean_flow"] <= s["eft_mean_flow"] + 1e-9
        assert "sanity identical-machines fault-free" in out["text"]
        assert out["text"].rstrip().endswith("OK")

    def test_sanity_is_fault_free(self):
        # same instance, faults on/off: the sanity numbers must not move
        with_faults = sanity_check(SMALL)
        without = sanity_check(
            CompareConfig(m=4, n=60, k=2, loads=(0.8,), seed=1, faults=False)
        )
        assert with_faults == without


class TestTable:
    def test_renders_all_rows_fixed_width(self):
        out = run_compare(SMALL)
        lines = out["table"].splitlines()
        assert len(lines) == 2 + len(out["rows"])  # header + rule + rows
        assert lines[0].startswith("load")
        assert all(len(line) == len(lines[0]) for line in lines[1:])

    def test_stable_bytes_for_equal_rows(self):
        rows = run_compare(SMALL)["rows"]
        assert render_table(rows) == render_table([dict(r) for r in rows])


class TestTraces:
    def test_cells_emit_replayable_traces(self, tmp_path):
        row = compare_cell(SMALL, "srpt-ps", 0.8, trace_dir=tmp_path)
        path = tmp_path / "compare_srpt-ps_load0.8.trace.jsonl"
        assert row["trace"] == str(path)
        trace = load_trace(path)
        assert trace.scheduler == "SRPT-PS"
        assert trace.meta["experiment"] == "compare-schedulers"
        sched = trace.schedule()  # validates placements
        assert len(sched) == SMALL.n

    def test_trace_bytes_stable_across_runs(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        compare_cell(SMALL, "nc-setup", 0.8, trace_dir=tmp_path / "a")
        compare_cell(SMALL, "nc-setup", 0.8, trace_dir=tmp_path / "b")
        name = "compare_nc-setup_load0.8.trace.jsonl"
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes()


class TestCampaignUnits:
    def test_unit_kind_is_importable(self):
        assert get_unit_kind(COMPARE_UNIT_KIND) is compare_unit

    def test_unit_matches_inline_cell(self):
        params = {"policy": "srpt-ps", "load": 0.8, "m": 4, "n": 60, "k": 2}
        assert compare_unit(params, seed=1) == compare_cell(SMALL, "srpt-ps", 0.8)

    def test_campaign_runs_the_grid(self):
        spec = build_compare_campaign(SMALL)
        assert [u.label for u in spec.units] == [
            f"{p}@0.8" for p in DEFAULT_POLICIES
        ]
        result = run_campaign(spec)
        assert result.n_failed == 0
        inline = run_compare(SMALL)["rows"]
        by_policy = {r["policy"]: r for r in result.results()}
        for row in inline:
            unit_row = dict(by_policy[row["policy"]])
            assert unit_row == row

    def test_campaign_spec_is_deterministic(self):
        a = build_compare_campaign(SMALL)
        b = build_compare_campaign(SMALL)
        assert a.spec_hash() == b.spec_hash()
        assert a.unit_hashes() == b.unit_hashes()


#: The ``make zoo-smoke`` grid.
SMOKE = CompareConfig(m=6, n=200, loads=(0.7, 0.9), seed=0)

#: sha256 of the smoke grid's text and per-cell traces, captured from
#: the implementation that regenerated the instance for every cell.
_SMOKE_TEXT_SHA256 = "2595c1b92ab06884bc42678884ea1327b4514cfac0f5ceaaa91bfcf94fc7ae6b"
_SMOKE_TRACE_SHA256 = {
    "compare_eft-min_load0.7.trace.jsonl": "d137d4b01d578d7991c2275b6bc0ee4377a3c8cba334948e405c920989507a2d",
    "compare_eft-min_load0.9.trace.jsonl": "3dc5f79c5ff5aacefb1a6343c4a979bf1dae8815842c29aab44bd9eeb815631d",
    "compare_nc-setup_load0.7.trace.jsonl": "909dfa4c8030b5b3404bf275fbb40fba2618a4377a841655f6e8f22b23e146b5",
    "compare_nc-setup_load0.9.trace.jsonl": "2aec8bb076b81af3d00e39043f229b7193d704b0f70b42c44af2b158318e263c",
    "compare_speed-eft_load0.7.trace.jsonl": "a8c9ec9d776cd2b66b3b5eddbba403d087d7fa3046d2aaaafd35140224982a6b",
    "compare_speed-eft_load0.9.trace.jsonl": "d56cd2473dc901e9739a50bd4b3ded166d00db2131cea6ba8d412cbe617a8d8a",
    "compare_srpt-ps_load0.7.trace.jsonl": "63d0c0509998372feccaca650e8ad68a8eb859129cee16cad14b304950cf6a1c",
    "compare_srpt-ps_load0.9.trace.jsonl": "2cad310d302a070c0c81ba14f828752a42e2d170c5749e17cfe5737d0d132ff0",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestPinnedGrid:
    def test_smoke_grid_bytes_are_pinned(self, tmp_path):
        out = run_compare(SMOKE, trace_dir=tmp_path)
        assert _sha256(out["text"].encode()) == _SMOKE_TEXT_SHA256
        traces = {p.name: _sha256(p.read_bytes()) for p in tmp_path.iterdir()}
        assert traces == _SMOKE_TRACE_SHA256

    def test_one_instance_per_load(self, monkeypatch):
        calls = []
        generate = compare.generate_workload

        def counting(*args, **kwargs):
            calls.append(args[0])
            return generate(*args, **kwargs)

        monkeypatch.setattr(compare, "generate_workload", counting)
        run_compare(SMOKE)
        assert [spec.lam for spec in calls] == [SMOKE.m * load for load in SMOKE.loads]

    def test_shared_instance_equals_standalone(self):
        inst = _instance_for(SMALL, 0.8)
        for policy in DEFAULT_POLICIES:
            assert compare_cell(SMALL, policy, 0.8, instance=inst) == compare_cell(
                SMALL, policy, 0.8
            )
        assert sanity_check(SMALL, instance=inst) == sanity_check(SMALL)
