"""Sharded campaign execution: fork scaffolding + byte-identical merges.

The contract under test: a campaign sharded across ``--jobs N`` workers
and merged back must be *indistinguishable* from the serial run — equal
as a dataclass tree and equal under :func:`report_digest`, the oracle
the CLIs' ``--verify-serial`` flag and CI pin this claim with.  The
merge must also refuse, loudly, to combine shards that disagree on any
state every shard is required to reproduce (discovery, golden runs,
clean-run audits).
"""

import dataclasses

import pytest

from repro.faults.bitflip import BitflipCampaign
from repro.faults.campaign import LifecycleCampaign
from repro.faults.parallel import (
    MergeError,
    ShardError,
    differential,
    merge_reports,
    report_digest,
    run_sharded,
    run_shards,
    check_witnesses_sharded,
)
from repro.pipeline.campaign import PipelineCampaign


class TestRunShards:
    def test_single_job_runs_inline(self):
        calls = []

        def fn(index, count):
            calls.append((index, count))
            return index * 10

        assert run_shards(fn, 1) == [0]
        assert calls == [(0, 1)]

    def test_results_come_back_in_shard_order(self):
        def fn(index, count):
            return (index, count)

        assert run_shards(fn, 3) == [(0, 3), (1, 3), (2, 3)]

    def test_worker_exception_raises_shard_error(self):
        def fn(index, count):
            if index == 1:
                raise ValueError("boom in shard one")
            return index

        with pytest.raises(ShardError, match="shard 1/2.*boom in shard one"):
            run_shards(fn, 2)

    def test_rejects_nonpositive_jobs(self):
        with pytest.raises(ValueError):
            run_shards(lambda i, c: i, 0)


class TestReportDigest:
    def test_digest_is_content_addressed(self):
        @dataclasses.dataclass
        class Row:
            name: str
            values: list

        assert report_digest(Row("a", [1, 2])) == report_digest(Row("a", [1, 2]))
        assert report_digest(Row("a", [1, 2])) != report_digest(Row("a", [2, 1]))


class TestShardedEqualsSerial:
    def test_lifecycle_sharded_report_is_byte_identical(self):
        kwargs = dict(seed=0xC0FFEE, engine="turbo", stride=17, secure_pages=16)
        serial = LifecycleCampaign(**kwargs).run()
        sharded = run_sharded(lambda shard: LifecycleCampaign(shard=shard, **kwargs), 2)
        assert serial.ok, serial.violations[:5]
        assert sharded == serial
        assert report_digest(sharded) == report_digest(serial)

    def test_bitflip_sharded_report_is_byte_identical(self):
        kwargs = dict(stride=211, targets=("pagedb", "itag"), secure_pages=16)
        serial = BitflipCampaign(engine="turbo", **kwargs).run()
        sharded = run_sharded(
            lambda shard: BitflipCampaign(engine="turbo", shard=shard, **kwargs), 2
        )
        assert serial.total_trials > 0
        assert sharded == serial
        assert report_digest(sharded) == report_digest(serial)

    def test_pipeline_sharded_report_is_byte_identical(self):
        from repro.pipeline.campaign import run_campaign

        serial = run_campaign("counter-notary", engine="turbo", stride=19)
        sharded = run_sharded(
            lambda shard: PipelineCampaign(
                "counter-notary", engine="turbo", stride=19, shard=shard
            ),
            2,
        )
        assert len(serial.trials) > 1  # golden + kill trials
        assert sharded == serial
        assert report_digest(sharded) == report_digest(serial)

    def test_more_shards_than_trials_still_merges_exactly(self):
        kwargs = dict(seed=0xC0FFEE, engine="turbo", stride=200, secure_pages=16)
        serial = LifecycleCampaign(**kwargs).run()
        sharded = run_sharded(lambda shard: LifecycleCampaign(shard=shard, **kwargs), 4)
        assert sharded == serial

    def test_lifecycle_differential_sharded_matches_serial(self):
        def make_campaign(engine, shard):
            return LifecycleCampaign(
                seed=0xC0FFEE, engine=engine, stride=37, secure_pages=16, shard=shard
            )

        engines = ("fast", "turbo")
        *serial_reports, serial_mismatches = differential(make_campaign, engines)
        *sharded_reports, sharded_mismatches = differential(
            make_campaign, engines, jobs=2
        )
        assert sharded_mismatches == serial_mismatches == []
        for sharded, serial in zip(sharded_reports, serial_reports):
            assert report_digest(sharded) == report_digest(serial)


class TestMergeGuards:
    """The merge refuses shards that disagree; one subclass per report type."""

    merge = staticmethod(merge_reports)
    identity_error = "campaign identity"
    invariant_error = "discovery/clean-run state"

    def shards(self, count=2):
        return [
            LifecycleCampaign(
                seed=0xC0FFEE,
                engine="turbo",
                stride=29,
                secure_pages=16,
                shard=(index, count),
            ).run()
            for index in range(count)
        ]

    def break_identity(self, report):
        report.seed ^= 1

    def break_invariant(self, report):
        report.steps[0].post_digest = "0" * 64

    def test_merge_rejects_divergent_clean_run_state(self):
        shards = self.shards()
        self.break_invariant(shards[1])
        with pytest.raises(MergeError, match=self.invariant_error):
            self.merge(shards)

    def test_merge_rejects_duplicate_ordinals(self):
        shard = self.shards(count=2)[0]
        with pytest.raises(MergeError, match="duplicate trial ordinals"):
            self.merge([shard, shard])

    def test_merge_rejects_mismatched_identity(self):
        shards = self.shards()
        self.break_identity(shards[1])
        with pytest.raises(MergeError, match=self.identity_error):
            self.merge(shards)

    def test_merge_rejects_empty_input(self):
        with pytest.raises(MergeError, match="no shard reports"):
            self.merge([])


class TestBitflipMergeGuards(TestMergeGuards):
    identity_error = r"campaign identity \(engine/seed/stride\)"
    invariant_error = "sites or the golden run"

    def shards(self, count=2):
        return [
            BitflipCampaign(
                engine="turbo", stride=401, targets=("pagedb",), shard=(index, count)
            ).run()
            for index in range(count)
        ]

    def break_invariant(self, report):
        report.steps[0].sites += 1


class TestPipelineMergeGuards(TestMergeGuards):
    identity_error = r"golden run \(pipeline/engine/ops/digest\)"
    invariant_error = "golden trial verdict"

    def shards(self, count=2):
        return [
            PipelineCampaign("counter-notary", stride=61, shard=(index, count)).run()
            for index in range(count)
        ]

    def break_identity(self, report):
        report.golden_digest = "0" * 64

    def break_invariant(self, report):
        report.trials[0].outcome = "hang"


class TestOraclePins:
    """Report digests the CLIs print, pinned so a refactor of the trial
    protocol cannot move them unnoticed."""

    @pytest.mark.parametrize(
        "campaign, digest",
        [
            (
                "lifecycle",
                "3a289b5a0236a1ae220fc2deb29592ee62278324206c662739d8577f724580b8",
            ),
            (
                "bitflip",
                "abe1cffc1339b73b1432e338b3ef623df556eca6c9ecdcd8db37dafa3536b512",
            ),
            (
                "counter-notary",
                "4178aa22a1fadb582126ec37d0a1b0ba38734f619bc3239473331fea129774e0",
            ),
            (
                "attest-sign-seal",
                "3444bcfa926f1039e4a89591dba876c35472a2ff5d7735ce6376f635ea8de912",
            ),
        ],
    )
    def test_report_digest_is_pinned(self, campaign, digest):
        from repro.pipeline.campaign import run_campaign

        if campaign == "lifecycle":
            report = LifecycleCampaign(engine="turbo", stride=6).run()
        elif campaign == "bitflip":
            report = BitflipCampaign(engine="turbo", stride=151).run()
        else:
            report = run_campaign(campaign, stride=29)
        assert report.ok, report.violations[:5]
        assert report_digest(report) == digest


class TestShardedWitnessReplay:
    def test_sharded_replay_matches_serial_failure_list(self):
        from repro.analysis.symbex.explore import explore_smc
        from repro.analysis.symbex.replay import ReplayHarness
        from repro.analysis.symbex.witness import build_witnesses

        witnesses = build_witnesses(explore_smc("stop"))
        assert witnesses
        serial = ReplayHarness(engines=("turbo",)).check(witnesses)
        sharded = check_witnesses_sharded(witnesses, 2, engines=("turbo",))
        assert sharded == serial == []
