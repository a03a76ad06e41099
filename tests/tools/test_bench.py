"""The bench gate ``check(baseline, current)`` on small synthetic reports.

Each gate family gets one report it passes and one it fails with that
gate's message; nothing here measures anything.
"""

import copy
import json
import pathlib

import pytest

from repro.tools import bench

DIGEST = "ab" * 32


def report(cores=1):
    """A minimal passing report with one row per gated section."""
    return {
        "schema": bench.SCHEMA,
        "cpu_cores": cores,
        "workloads": {
            "checksum": {
                "sim_cycles": 93024,
                "steps": 59203,
                "result": 1336546311,
                "speedup": 6.0,
                "speedup_turbo": 50.0,
            }
        },
        "micro": {"enter_exit": {"sim_cycles": 788}},
        "campaigns": {
            name: {"reports_identical": True, "violations": 0}
            for name in ("lifecycle", "bitflip")
        },
        "restore": {
            "rows": [{"dirty_pages": 8, "delta_us": 25.0, "full_us": 225.0}],
            "footprint_pages": 8,
            "footprint_speedup": 9.0,
        },
        "sharding": {"jobs": 4, "speedup": 2.5, "digests_equal": True, "violations": 0},
        "cloud": {
            "results_digest": DIGEST,
            "golden_digests": {"turbo": DIGEST, "fast": DIGEST},
            "configs": [
                {
                    "engine": engine,
                    "workers": workers,
                    "wall_s": 0.2,
                    "req_per_s": 130.0,
                    "p50_ms": 90.0,
                    "p99_ms": 210.0,
                }
                for engine in ("turbo", "fast")
                for workers in (1, 2)
            ],
            "delta_restore": {
                "engine": "turbo",
                "workers": 1,
                "delta_on_req_per_s": 132.0,
                "delta_off_req_per_s": 127.0,
                "ratio": 1.04,
            },
        },
        "table3": {"Attest": {"sim_cycles": 12331, "paper_cycles": 12411}},
    }


def failures(mutate_baseline=None, mutate_current=None, **kwargs):
    baseline, current = report(**kwargs), report(**kwargs)
    if mutate_baseline:
        mutate_baseline(baseline)
    if mutate_current:
        mutate_current(current)
    return bench.check(baseline, current)


def set_path(path, value):
    """A mutator setting ``report[path[0]][path[1]]... = value``."""

    def mutate(data):
        for key in path[:-1]:
            data = data[key]
        data[path[-1]] = value

    return mutate


def at(where, mutate):
    """Apply ``mutate`` to the committed (baseline) or live (current) report."""
    return {"mutate_baseline" if where == "committed" else "mutate_current": mutate}


def test_identical_reports_pass():
    assert failures() == []


def test_committed_baseline_passes_against_itself():
    path = pathlib.Path(__file__).resolve().parents[2] / "BENCH.json"
    committed = json.loads(path.read_text())
    current = copy.deepcopy(committed)
    current["cloud"]["golden_digests"] = {
        config["engine"]: committed["cloud"]["results_digest"]
        for config in committed["cloud"]["configs"]
    }
    assert bench.check(committed, current) == []


@pytest.mark.parametrize("schema", [None, "repro-bench-1", "repro-bench-2"])
def test_wrong_schema_baseline_fails(schema):
    got = failures(mutate_baseline=set_path(["schema"], schema))
    assert len(got) == 1 and "schema" in got[0]


def test_missing_section_fails():
    got = failures(mutate_current=lambda data: data.pop("table3"))
    assert got == ["table3 missing from current run"]


class TestExactGates:
    @pytest.mark.parametrize("key", ["sim_cycles", "steps", "result"])
    def test_workload_drift_fails(self, key):
        got = failures(mutate_current=set_path(["workloads", "checksum", key], 1))
        assert got and "no longer deterministic" in got[0]

    @pytest.mark.parametrize(
        "suite, name, cycles", [("micro", "enter_exit", 788), ("table3", "Attest", 12331)]
    )
    def test_cycle_drift_fails(self, suite, name, cycles):
        got = failures(mutate_current=set_path([suite, name, "sim_cycles"], 1))
        assert got == [f"{suite} {name!r}: sim_cycles changed {cycles} -> 1"]

    def test_missing_row_fails(self):
        got = failures(mutate_current=lambda data: data["table3"].clear())
        assert got == ["table3 row 'Attest' missing from current run"]


class TestSpeedupFloor:
    @pytest.mark.parametrize("key, base", [("speedup", 6.0), ("speedup_turbo", 50.0)])
    def test_at_the_floor_passes(self, key, base):
        floor = base * bench.SPEEDUP_FLOOR
        assert failures(mutate_current=set_path(["workloads", "checksum", key], floor)) == []

    @pytest.mark.parametrize("key, base", [("speedup", 6.0), ("speedup_turbo", 50.0)])
    def test_below_the_floor_fails(self, key, base):
        floor = base * bench.SPEEDUP_FLOOR
        got = failures(mutate_current=set_path(["workloads", "checksum", key], floor - 0.01))
        assert len(got) == 1 and f"{key}" in got[0] and "below gate" in got[0]


class TestCampaignGate:
    def test_diverging_reports_fail(self):
        got = failures(
            mutate_current=set_path(["campaigns", "bitflip", "reports_identical"], False)
        )
        assert got == ["campaign bitflip: snapshot and deep-copy reports diverge"]

    def test_violations_fail(self):
        got = failures(mutate_current=set_path(["campaigns", "lifecycle", "violations"], 2))
        assert got == ["campaign lifecycle: 2 violation(s)"]


class TestRestoreGate:
    def test_at_the_floor_passes(self):
        at_floor = set_path(["restore", "footprint_speedup"], bench.RESTORE_FLOOR)
        assert failures(mutate_baseline=at_floor, mutate_current=at_floor) == []

    @pytest.mark.parametrize("where", ["committed", "live"])
    def test_below_the_floor_fails(self, where):
        slow = set_path(["restore", "footprint_speedup"], 4.9)
        got = failures(**at(where, slow))
        assert len(got) == 1
        assert got[0].startswith(f"{where} delta-restore speedup 4.9x at 8 dirty pages")

    def test_committed_non_positive_row_fails(self):
        def zero_row(data):
            data["restore"]["rows"][0]["delta_us"] = 0

        assert failures(mutate_baseline=zero_row) == [
            "committed restore row 8: non-positive time"
        ]


class TestShardingGate:
    @pytest.mark.parametrize("where", ["committed", "live"])
    def test_digest_mismatch_fails(self, where):
        split = set_path(["sharding", "digests_equal"], False)
        got = failures(**at(where, split))
        assert got == [f"{where} sharded campaign: report digest != serial"]

    def test_committed_violations_fail(self):
        got = failures(mutate_baseline=set_path(["sharding", "violations"], 1))
        assert got == ["committed sharded campaign: 1 violation(s)"]

    @pytest.mark.parametrize("where", ["committed", "live"])
    def test_parallel_floor_armed_at_four_cores(self, where):
        slow = set_path(["sharding", "speedup"], 1.9)
        got = failures(cores=4, **at(where, slow))
        assert len(got) == 1 and got[0].startswith(f"{where} --jobs 4 speedup 1.9x")
        assert "4-core host" in got[0]

    def test_parallel_floor_not_armed_at_one_core(self):
        slow = set_path(["sharding", "speedup"], 0.7)
        assert failures(cores=1, mutate_baseline=slow, mutate_current=slow) == []


class TestCloudGate:
    def test_digest_mismatch_fails_live_and_per_engine(self):
        got = failures(mutate_baseline=set_path(["cloud", "results_digest"], "0" * 64))
        assert len(got) == 3
        assert got[0].startswith("results_digest mismatch on the live-served matrix")
        assert all(line.startswith("results_digest mismatch on engine") for line in got[1:])

    def test_live_served_digest_mismatch_fails(self):
        got = failures(mutate_current=set_path(["cloud", "results_digest"], "0" * 64))
        assert got == [
            f"results_digest mismatch on the live-served matrix: committed "
            f"{DIGEST[:16]}.., served {'0' * 16}.."
        ]

    def test_engine_not_recomputed_fails(self):
        got = failures(mutate_current=lambda data: data["cloud"]["golden_digests"].pop("fast"))
        assert got == [
            f"results_digest mismatch on engine fast: committed {DIGEST[:16]}.., "
            "recomputed (not recomputed).."
        ]

    def test_thin_matrix_fails(self):
        def thin(data):
            data["cloud"]["configs"] = data["cloud"]["configs"][:1]

        got = failures(mutate_baseline=thin)
        assert any(">=2 engines" in line for line in got)
        assert any(">=2 worker counts" in line for line in got)

    @pytest.mark.parametrize("field", ["wall_s", "req_per_s", "p50_ms", "p99_ms"])
    def test_non_positive_field_fails(self, field):
        got = failures(mutate_baseline=set_path(["cloud", "configs", 0, field], 0))
        assert f"cloud turbo/w1: non-positive {field}" in got

    def test_p50_above_p99_fails(self):
        got = failures(mutate_baseline=set_path(["cloud", "configs", 0, "p50_ms"], 300.0))
        assert got == ["cloud turbo/w1: p50 exceeds p99"]

    @pytest.mark.parametrize("field", ["delta_on_req_per_s", "delta_off_req_per_s"])
    def test_non_positive_delta_run_fails(self, field):
        got = failures(mutate_baseline=set_path(["cloud", "delta_restore", field], 0))
        assert got == [f"cloud: non-positive {field}"]

    @pytest.mark.parametrize(
        "cores, ratio, ok",
        [(1, 0.66, True), (1, 0.64, False), (2, 0.93, True), (2, 0.91, False)],
    )
    def test_worker_scaling_floor_keyed_to_recorded_cores(self, cores, ratio, ok):
        # turbo/w2 (configs[1]) against turbo/w1 at 130 req/s.
        slower = set_path(["cloud", "configs", 1, "req_per_s"], 130.0 * ratio)
        got = failures(cores=cores, mutate_baseline=slower)
        assert (got == []) is ok
        if not ok:
            assert got[0].startswith("cloud turbo: req/s regresses with workers")


class TestRendering:
    def test_markdown_and_text_share_one_renderer(self):
        cloud_only = {"cloud": report()["cloud"]}
        markdown = bench.render(cloud_only, markdown=True)
        assert "### Enclave cloud" in markdown
        assert "| engine | workers | req/s |" in markdown
        text = bench.render(cloud_only)
        header = text.splitlines()[1]
        assert header.split()[:3] == ["engine", "workers", "req/s"]
        assert "|" not in text

    def test_gate_prints_ok_and_fail(self, capsys):
        assert bench.gate(report(), report(), "BENCH.json") == 0
        assert "OK: no regressions vs BENCH.json" in capsys.readouterr().out
        assert bench.gate({"schema": "repro-bench-2"}, report(), "old.json") == 1
        assert "FAIL: 1 regression(s) vs old.json" in capsys.readouterr().out
