"""CLI contract tests for the faultcamp and bitflip campaign tools."""

import pytest

from repro.tools import bitflip, faultcamp

#: (tool, arguments for a small strided run)
TOOLS = [
    pytest.param(faultcamp, ["--stride", "29"], id="faultcamp"),
    pytest.param(bitflip, ["--stride", "401", "--targets", "pagedb"], id="bitflip"),
]


@pytest.mark.parametrize("tool, small", TOOLS)
class TestCampaignCli:
    def test_check_run_exits_zero_and_prints_the_digest(self, tool, small, capsys):
        assert tool.main(["--check", *small]) == 0
        out = capsys.readouterr().out
        assert "report digest [turbo]: " in out

    def test_zero_jobs_is_a_usage_error(self, tool, small, capsys):
        with pytest.raises(SystemExit) as exit_info:
            tool.main(["--jobs", "0", *small])
        assert exit_info.value.code == 2
        assert "--jobs must be at least 1" in capsys.readouterr().err

    def test_unknown_engine_is_rejected(self, tool, small, capsys):
        with pytest.raises(SystemExit) as exit_info:
            tool.main(["--engine", "warp", *small])
        assert exit_info.value.code == 2
        assert "invalid choice: 'warp'" in capsys.readouterr().err

    def test_sharded_run_verifies_against_serial(self, tool, small, capsys):
        assert tool.main(["--check", "--jobs", "2", "--verify-serial", *small]) == 0
        out = capsys.readouterr().out
        assert "verify-serial [turbo]: jobs=2 " in out
        assert out.count(": OK") == 1
