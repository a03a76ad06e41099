"""Fault-injection campaign CLI.

Runs the exhaustive per-step crash campaign over a full enclave
lifecycle (see ``repro.faults.campaign``): for every machine-visible
monitor operation of every lifecycle step, kill the monitor there,
recover, audit, and have the OS retry path finish the lifecycle.

Usage::

    python -m repro.tools.faultcamp                 # run, print a table
    python -m repro.tools.faultcamp --check         # CI gate (exit 1 on any violation)
    python -m repro.tools.faultcamp --engine both   # fast/reference differential
    python -m repro.tools.faultcamp --engine all    # fast/reference/turbo differential
    python -m repro.tools.faultcamp --steps init_addrspace,map_secure,remove

``--steps`` restricts *injection* to the named steps (prefix match, so
``remove`` covers every Remove); the lifecycle itself always runs in
full.  ``--stride N`` injects at every N-th operation for a bounded
smoke campaign.  Every run is deterministic in ``--seed``.  Trials are
snapshot-accelerated by default; ``--no-snapshot`` forces the original
per-trial deep-copy path (same reports, slower).

``--jobs N`` shards the trial sweep across N forked worker processes
(``repro.faults.parallel``); the merged report — and the digest the
tool prints — is byte-identical to the serial run's.  ``--verify-serial``
additionally re-runs the campaign serially in-process and fails unless
the digests agree (the CI leg that pins the claim).
"""

from __future__ import annotations

import sys
from typing import List, Optional

from repro.faults.campaign import CampaignReport, LifecycleCampaign
from repro.tools.campaigncli import (
    campaign_parser,
    parse,
    run_engine_campaign,
    split_list,
)


def _print_report(report: CampaignReport) -> None:
    print(f"engine={report.engine} seed={report.seed:#x}")
    print(f"{'step':<16} {'ops':>5} {'trials':>7} {'violations':>11}")
    for step in report.steps:
        print(
            f"{step.name:<16} {step.fault_points:>5} {step.trials:>7} "
            f"{len(step.violations):>11}"
        )
    print(
        f"{'total':<16} {report.total_fault_points:>5} "
        f"{report.total_trials:>7} {len(report.violations):>11}"
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = campaign_parser(
        "python -m repro.tools.faultcamp",
        "monitor crash-consistency campaign",
        [
            ("--check", {}),
            ("--seed", dict(default=0xC0FFEE)),
            ("--engine", {}),
            (
                "--no-snapshot",
                dict(help="deep-copy the monitor per trial instead of snapshot rewind"),
            ),
            (
                "--steps",
                dict(help="comma-separated step names (prefix match) to inject on"),
            ),
            ("--stride", dict(help="inject at every N-th operation (1 = exhaustive)")),
            ("--secure-pages", {}),
            ("--timeout", {}),
            (
                "--jobs",
                dict(
                    help="shard trials across N forked workers; the merged report "
                    "is byte-identical to the serial run (1 = serial)"
                ),
            ),
            ("--verify-serial", {}),
        ],
    )
    args = parse(parser, argv)
    inject_steps = split_list(args.steps)

    def make_campaign(engine, shard) -> LifecycleCampaign:
        return LifecycleCampaign(
            seed=args.seed,
            engine=engine,
            secure_pages=args.secure_pages,
            inject_steps=inject_steps,
            stride=args.stride,
            use_snapshots=not args.no_snapshot,
            trial_timeout=args.timeout,
            shard=shard,
        )

    return run_engine_campaign(
        "faultcamp",
        args,
        make_campaign,
        _print_report,
        "every injection point recovered to a quiescent state",
    )


if __name__ == "__main__":
    sys.exit(main())
