"""The lifecycle fault campaign as a workload: trials per second.

Each operation is one injected-fault trial of a serial turbo
``LifecycleCampaign``: crash at one monitor operation, recover, audit,
and finish the lifecycle.  A run repeats whole campaigns, alternating
two seeds, until its time is up; every repeat of a seed must produce
the same ``report_digest``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.faults.campaign import LifecycleCampaign
from repro.faults.parallel import report_digest

import tracing
from workloads import TRACE_SHARE, Workload, campaign_seeds

ENGINE = "turbo"


class TimedCampaign(LifecycleCampaign):
    """A campaign that records the wall time of every trial."""

    def __init__(self, *args, tracer: Optional[tracing.Tracer] = None, **kwargs):
        super().__init__(*args, **kwargs)
        self.tracer = tracer
        self.trial_seconds: List[float] = []

    def _trial(self, *args, **kwargs):
        if self.tracer is not None:
            self.tracer.enter("trial")
        start = time.monotonic()
        try:
            return super()._trial(*args, **kwargs)
        finally:
            self.trial_seconds.append(time.monotonic() - start)
            if self.tracer is not None:
                self.tracer.exit()


@dataclass
class CampaignPhase:
    """The campaigns one phase ran, in order."""

    seeds: List[int] = field(default_factory=list)
    digests: List[str] = field(default_factory=list)
    #: Per campaign: its trials' wall times, and its own wall time.
    trial_seconds: List[List[float]] = field(default_factory=list)
    walls: List[float] = field(default_factory=list)
    trials: int = 0
    failed: int = 0
    wall: float = 0.0


def run_phase(
    workload: Workload,
    seeds: Iterable[int],
    seconds: Optional[float] = None,
    tracer: Optional[tracing.Tracer] = None,
) -> CampaignPhase:
    """Run one campaign per seed, stopping early once ``seconds`` have
    passed."""
    phase = CampaignPhase()
    start = time.monotonic()
    for campaign_seed in seeds:
        if seconds is not None and time.monotonic() - start >= seconds:
            break
        campaign = TimedCampaign(
            seed=campaign_seed, engine=ENGINE, stride=workload.stride, tracer=tracer
        )
        began = time.monotonic()
        report = campaign.run()
        phase.walls.append(time.monotonic() - began)
        phase.seeds.append(campaign_seed)
        phase.digests.append(report_digest(report))
        phase.trial_seconds.append(campaign.trial_seconds)
        phase.trials += report.total_trials
        failed = sum(
            1 for step in report.steps for record in step.trial_records if record.violations
        )
        # A violation outside any trial (discovery, clean run) fails one.
        phase.failed += failed or (0 if report.ok else 1)
    phase.wall = time.monotonic() - start
    return phase


def digest_problems(*phases: CampaignPhase) -> List[str]:
    """Every campaign of one seed must report the same digest."""
    first: Dict[int, str] = {}
    problems = []
    for phase in phases:
        for campaign_seed, digest in zip(phase.seeds, phase.digests):
            expected = first.setdefault(campaign_seed, digest)
            if digest != expected:
                problems.append(
                    f"seed {campaign_seed:#x}: report_digest {digest[:12]} != {expected[:12]}"
                )
    return problems


@dataclass
class CampaignRun:
    untraced: CampaignPhase
    traced: Optional[CampaignPhase] = None
    tracer: Optional[tracing.Tracer] = None
    problems: List[str] = field(default_factory=list)


def run(workload: Workload, seed: int, seconds: float, trace: bool = False) -> CampaignRun:
    untraced = run_phase(
        workload, campaign_seeds(seed), seconds=(TRACE_SHARE if trace else 1.0) * seconds
    )
    result = CampaignRun(untraced=untraced)
    if trace:
        tracer = tracing.Tracer()
        installation = tracing.install(tracer)
        try:
            result.traced = run_phase(workload, untraced.seeds, tracer=tracer)
        finally:
            installation.uninstall()
        result.tracer = tracer
    phases = [p for p in (result.untraced, result.traced) if p is not None]
    result.problems.extend(digest_problems(*phases))
    for phase in phases:
        if phase.failed:
            result.problems.append(f"{phase.failed} trials reported violations")
    return result
