"""Bit-flip campaign CLI.

Runs the exhaustive single-bit-flip campaign against the monitor's
memory-integrity engine (see ``repro.faults.bitflip``): at each
quiescent lifecycle step, flip one bit of one monitor-critical word —
PageDB entries, integrity-tag arrays, enclave metadata, enclave
code/data — then let the OS drive the lifecycle to completion.  Every
trial must end benign, repaired, or quarantined-with-containment; a
wrong enclave result or a final state differing from the unflipped
golden run fails the campaign.

Usage::

    python -m repro.tools.bitflip                    # run, print a table
    python -m repro.tools.bitflip --check            # CI gate (exit 1 on violation)
    python -m repro.tools.bitflip --engine both      # fast/reference differential
    python -m repro.tools.bitflip --engine all       # fast/reference/turbo differential
    python -m repro.tools.bitflip --targets pagedb,itag
    python -m repro.tools.bitflip --stride 97        # every 97th (site, bit) pair

``--stride N`` samples every N-th (site, bit) pair for a bounded smoke
campaign; 1 is exhaustive (tens of thousands of trials — minutes, not
seconds).  Every run is deterministic in ``--seed``.  Trials are
snapshot-accelerated by default; ``--no-snapshot`` forces the original
per-trial deep-copy path (same reports, slower).

``--jobs N`` shards the (site, bit) sweep across N forked workers
(``repro.faults.parallel``); the merged report and printed digest are
byte-identical to the serial run's.  ``--verify-serial`` re-runs
serially in-process and fails unless the digests agree.
"""

from __future__ import annotations

import sys
from typing import List, Optional

from repro.faults.bitflip import TARGET_FAMILIES, BitflipCampaign, BitflipReport
from repro.tools.campaigncli import (
    campaign_parser,
    parse,
    run_engine_campaign,
    split_list,
)


def _print_report(report: BitflipReport) -> None:
    print(f"engine={report.engine} seed={report.seed:#x} stride={report.stride}")
    header = (
        f"{'step':<12} {'sites':>6} {'trials':>7} {'benign':>7} "
        f"{'repaired':>9} {'quarantined':>12} {'violations':>11}"
    )
    print(header)
    for step in report.steps:
        print(
            f"{step.name:<12} {step.sites:>6} {step.trials:>7} {step.benign:>7} "
            f"{step.repaired:>9} {step.quarantined:>12} {len(step.violations):>11}"
        )
    counts = report.outcome_counts
    print(
        f"{'total':<12} {'':>6} {report.total_trials:>7} {counts['benign']:>7} "
        f"{counts['repaired']:>9} {counts['quarantined']:>12} "
        f"{len(report.violations):>11}"
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = campaign_parser(
        "python -m repro.tools.bitflip",
        "memory-integrity bit-flip campaign",
        [
            ("--check", {}),
            ("--seed", dict(default=0xB17F11B)),
            ("--engine", {}),
            (
                "--no-snapshot",
                dict(
                    help="deep-copy monitor+kernel per trial instead of snapshot rewind"
                ),
            ),
            (
                "--targets",
                dict(help=f"comma-separated flip-target families {TARGET_FAMILIES}"),
            ),
            (
                "--stride",
                dict(help="flip every N-th (site, bit) pair (1 = exhaustive)"),
            ),
            ("--secure-pages", {}),
            ("--timeout", {}),
            (
                "--jobs",
                dict(
                    help="shard (site, bit) trials across N forked workers; the "
                    "merged report is byte-identical to the serial run (1 = serial)"
                ),
            ),
            ("--verify-serial", {}),
        ],
    )
    args = parse(parser, argv)
    targets = split_list(args.targets)

    def make_campaign(engine, shard) -> BitflipCampaign:
        return BitflipCampaign(
            seed=args.seed,
            engine=engine,
            secure_pages=args.secure_pages,
            targets=targets,
            stride=args.stride,
            use_snapshots=not args.no_snapshot,
            trial_timeout=args.timeout,
            shard=shard,
        )

    return run_engine_campaign(
        "bitflip",
        args,
        make_campaign,
        _print_report,
        "every injection was detected and contained (or provably benign)",
    )


if __name__ == "__main__":
    sys.exit(main())
