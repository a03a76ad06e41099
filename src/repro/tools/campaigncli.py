"""The argument group and report loop shared by the campaign CLIs.

``faultcamp``, ``bitflip`` and ``pipecamp`` take the same campaign
flags — each tool picks its own defaults and help text — and drive the
same protocol: run the sweep (sharded across forked workers with
``--jobs N``), print every report and its ``report_digest``, and with
``--verify-serial`` re-run serially in-process and fail on any digest
divergence.
"""

from __future__ import annotations

import argparse
from functools import partial
from typing import Callable, List, Optional, Sequence, Tuple

from repro.faults.parallel import differential, report_digest, run_sharded

#: ``--engine`` values that run a multi-engine differential.
ENGINE_SETS = {"both": ("fast", "reference"), "all": ("fast", "reference", "turbo")}

#: The campaign flags, with the options most tools share.
FLAGS = {
    "--check": dict(action="store_true", help="exit 1 on any violation (CI gate)"),
    "--seed": dict(type=lambda s: int(s, 0)),
    "--engine": dict(
        choices=("fast", "reference", "turbo", *ENGINE_SETS),
        default="turbo",
        help="execution engine (default: turbo, the fastest bit-identical "
        "tier); 'both' = fast/reference differential, 'all' adds turbo",
    ),
    "--no-snapshot": dict(action="store_true"),
    "--stride": dict(type=int, default=1),
    "--secure-pages": dict(type=int, default=16),
    "--timeout": dict(
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock watchdog per trial: a wedged trial fails that "
        "trial with a recorded violation instead of hanging the run",
    ),
    "--jobs": dict(type=int, default=1, metavar="N"),
    "--verify-serial": dict(
        action="store_true",
        help="also run the campaign serially and fail unless the report "
        "digests match the --jobs run exactly",
    ),
}


def campaign_parser(
    prog: str, description: str, flags: Sequence[Tuple[str, dict]]
) -> argparse.ArgumentParser:
    """A parser taking ``flags`` in help order: each is a flag name and
    the options overriding its :data:`FLAGS` entry."""
    parser = argparse.ArgumentParser(prog=prog, description=description)
    for flag, options in flags:
        parser.add_argument(flag, **{**FLAGS.get(flag, {}), **options})
    return parser


def parse(parser: argparse.ArgumentParser, argv: Optional[List[str]]):
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be at least 1")
    return args


def split_list(text: Optional[str]) -> Optional[List[str]]:
    """A comma-separated flag value as a list (None when not given)."""
    if not text:
        return None
    return [token.strip() for token in text.split(",") if token.strip()]


def print_violations(violations: List[str], limit: int = 20) -> None:
    for violation in violations[:limit]:
        print(f"  FAIL: {violation}")
    if len(violations) > limit:
        print(f"  ... and {len(violations) - limit} more")


def report_and_verify(
    run: Callable[[int], Tuple[list, List[str]]],
    args: argparse.Namespace,
    print_report: Callable,
    title: Callable[[object, str], str],
) -> List[str]:
    """Run ``run(jobs) -> (reports, engine mismatches)``, print every
    report with its digest line (``title(report, "report digest")``),
    and with ``--verify-serial`` re-run ``run(1)`` and compare digests.
    Returns every failure."""
    failures: List[str] = []
    reports, mismatches = run(args.jobs)
    for report in reports:
        print_report(report)
        failures.extend(report.violations)
        print(f"{title(report, 'report digest')}: {report_digest(report)}")
    if mismatches:
        print("engine differential mismatches:")
        print_violations(mismatches)
    failures.extend(mismatches)
    if args.verify_serial:
        serial_reports, serial_mismatches = run(1)
        for report, serial in zip(reports, serial_reports):
            jobs_digest = report_digest(report)
            serial_digest = report_digest(serial)
            verdict = "OK" if jobs_digest == serial_digest else "MISMATCH"
            print(
                f"{title(report, 'verify-serial')}: jobs={args.jobs} "
                f"{jobs_digest[:16]} vs serial {serial_digest[:16]}: {verdict}"
            )
            if jobs_digest != serial_digest:
                failures.append(
                    f"--jobs {args.jobs} report diverged from serial ({report.engine})"
                )
        if mismatches != serial_mismatches:
            failures.append("--jobs differential mismatches diverged from serial")
    return failures


def run_engine_campaign(
    name: str,
    args: argparse.Namespace,
    make_campaign: Callable,
    print_report: Callable,
    passed: str,
) -> int:
    """The whole run of an ``--engine``-selectable campaign CLI.

    ``make_campaign(engine, shard)`` builds one campaign; ``--engine
    both``/``all`` runs it as a differential.  Returns the exit status.
    """

    def run(jobs: int):
        engines = ENGINE_SETS.get(args.engine)
        if engines is None:
            return [run_sharded(partial(make_campaign, args.engine), jobs)], []
        *reports, mismatches = differential(make_campaign, engines, jobs)
        return reports, mismatches

    failures = report_and_verify(
        run, args, print_report, lambda report, what: f"{what} [{report.engine}]"
    )
    if failures:
        print_violations(failures)
        print(f"{name}: {len(failures)} violation(s)")
        return 1
    print(f"{name}: {passed}")
    return 0
