"""Pipeline chaos campaign CLI.

Sweeps stage-kill points across every machine-visible monitor operation
of composite multi-enclave pipelines (``repro.pipeline``) and gates on
the crash-anywhere contract: every trial terminates bit-exact against
the fault-free golden digest or with a typed retryable error — never a
hang, never partial cross-enclave state, never a counter value issued
twice.

Usage::

    python -m repro.tools.pipecamp                    # sweep, print a table
    python -m repro.tools.pipecamp --check            # CI gate (exit 1)
    python -m repro.tools.pipecamp --stride 1         # exhaustive sweep
    python -m repro.tools.pipecamp --pipelines counter-notary
    python -m repro.tools.pipecamp --engine all       # + tri-engine golden leg

``--engine all`` runs the sweep on the turbo engine and adds a bounded
differential leg: the golden run must produce the identical logical
digest on all three execution engines.

``--jobs N`` shards each pipeline's kill points across N forked workers
(``repro.faults.parallel``); the merged report and printed digest are
byte-identical to the serial run's.  ``--verify-serial`` re-runs the
sweep serially in-process and fails on any digest divergence.
"""

from __future__ import annotations

import sys
from typing import List, Optional

from repro.faults.parallel import run_sharded
from repro.pipeline.campaign import (
    DEFAULT_SEED,
    PipelineCampaign,
    PipelineReport,
    tri_engine_digests,
)
from repro.pipeline.pipelines import PIPELINE_KINDS
from repro.tools.campaigncli import (
    campaign_parser,
    parse,
    print_violations,
    report_and_verify,
    split_list,
)
from repro.util.watchdog import TrialTimeout, time_limit

_ENGINES = ("fast", "reference", "turbo")


def _print_report(report: PipelineReport) -> None:
    print(
        f"{report.pipeline:<18} engine={report.engine} ops={report.ops} "
        f"kill-points={report.kill_points} bit-exact={report.bit_exact} "
        f"typed-retryable={report.retryable}"
    )
    print_violations(report.violations)


def main(argv: Optional[List[str]] = None) -> int:
    parser = campaign_parser(
        "python -m repro.tools.pipecamp",
        "crash composite enclave pipelines at every monitor "
        "op; gate on bit-exact-or-typed-retryable termination",
        [
            ("--check", dict(help="exit 1 on any violation or hang (CI gate)")),
            (
                "--stride",
                dict(
                    default=7,
                    help="sample every N-th monitor op as a kill point "
                    "(1 = exhaustive)",
                ),
            ),
            (
                "--pipelines",
                dict(
                    help=f"comma-separated pipeline kinds (default: all: "
                    f"{','.join(sorted(PIPELINE_KINDS))})"
                ),
            ),
            (
                "--engine",
                dict(
                    choices=_ENGINES + ("all",),
                    help="execution engine for the sweep; 'all' adds the tri-engine "
                    "golden differential leg",
                ),
            ),
            ("--seed", dict(default=DEFAULT_SEED)),
            (
                "--timeout",
                dict(
                    help="wall-clock watchdog over the whole campaign (CI safety net)"
                ),
            ),
            (
                "--jobs",
                dict(
                    help="shard kill points across N forked workers; the merged "
                    "report is byte-identical to the serial run (1 = serial)"
                ),
            ),
            (
                "--verify-serial",
                dict(
                    help="also run each sweep serially and fail unless the report "
                    "digests match the --jobs run exactly"
                ),
            ),
        ],
    )
    args = parse(parser, argv)
    if args.stride < 1:
        parser.error("--stride must be at least 1")
    kinds = split_list(args.pipelines)
    if kinds is None:
        kinds = sorted(PIPELINE_KINDS)
    for kind in kinds:
        if kind not in PIPELINE_KINDS:
            parser.error(
                f"unknown pipeline {kind!r} (expected one of "
                f"{sorted(PIPELINE_KINDS)})"
            )

    sweep_engine = "turbo" if args.engine == "all" else args.engine
    failures = 0
    try:
        with time_limit(args.timeout, label="pipecamp"):
            for kind in kinds:

                def make_campaign(shard, kind=kind) -> PipelineCampaign:
                    return PipelineCampaign(
                        kind,
                        engine=sweep_engine,
                        seed=args.seed,
                        stride=args.stride,
                        shard=shard,
                    )

                failures += len(
                    report_and_verify(
                        lambda jobs: ([run_sharded(make_campaign, jobs)], []),
                        args,
                        _print_report,
                        lambda report, what: f"{report.pipeline:<18} {what}",
                    )
                )
            if args.engine == "all":
                for kind in kinds:
                    digests = tri_engine_digests(kind, _ENGINES, seed=args.seed)
                    agree = len(set(digests.values())) == 1
                    print(
                        f"{kind:<18} tri-engine golden: "
                        f"{'agree' if agree else 'SPLIT ' + repr(digests)}"
                    )
                    if not agree:
                        failures += 1
    except TrialTimeout as timeout:
        print(f"pipecamp: {timeout}")
        return 1
    if failures == 0:
        print(
            "pipecamp: every trial terminated bit-exact or typed-retryable; "
            "invariants and audits clean"
        )
        return 0
    print(f"pipecamp: {failures} violation(s)")
    return 1 if args.check else 0


if __name__ == "__main__":
    sys.exit(main())
