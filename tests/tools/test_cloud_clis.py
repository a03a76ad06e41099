"""Smoke tests for the cloudcamp CLI and the bench's cloud suite."""

import json
import os

from repro.tools import bench, cloudcamp


class TestCloudcamp:
    def test_check_gate_passes_on_a_small_sweep(self, capsys):
        status = cloudcamp.main(
            ["--check", "--kill-stride", "9", "--kinds", "attest,spin"]
        )
        out = capsys.readouterr().out
        assert status == 0
        assert "bit-exact" in out
        assert "0 hangs" in out


class TestCloudbench:
    """The bench's cloud suite plus its gate, on a small matrix."""

    @staticmethod
    def run(**kwargs):
        cloud = bench.run_cloud(per_kind=1, repeats=1, **kwargs)
        return {"schema": bench.SCHEMA, "cpu_cores": os.cpu_count() or 1, "cloud": cloud}

    def test_run_then_check_then_summary(self, tmp_path, capsys):
        out_path = tmp_path / "BENCH.json"
        report = self.run(worker_counts=(1, 2))
        out_path.write_text(json.dumps(report))
        data = json.loads(out_path.read_text())
        cloud = data["cloud"]
        assert {c["workers"] for c in cloud["configs"]} == {1, 2}
        assert {c["engine"] for c in cloud["configs"]} == {"turbo", "fast"}
        assert data["cpu_cores"] >= 1
        assert cloud["repeats"] == 1

        assert bench.gate(data, report, str(out_path)) == 0
        assert "OK" in capsys.readouterr().out

        assert "| engine |" in bench.render(data, markdown=True)

    def test_check_fails_on_a_tampered_digest(self, capsys):
        report = self.run(worker_counts=(1, 2))
        baseline = json.loads(json.dumps(report))
        baseline["cloud"]["results_digest"] = "0" * 64
        assert bench.gate(baseline, report, "BENCH.json") == 1
        assert "results_digest mismatch" in capsys.readouterr().out

    def test_check_fails_on_a_thin_matrix(self, capsys):
        report = self.run(worker_counts=(1,), engines=("turbo",))
        assert bench.gate(report, report, "BENCH.json") == 1
        out = capsys.readouterr().out
        assert ">=2 engines" in out
        assert ">=2 worker counts" in out

    def test_missing_file_fails_check(self, tmp_path):
        assert bench.main(["--check", str(tmp_path / "missing.json")]) == 1
