"""The pipeline chaos campaign: crash-anywhere sweeps over composite
multi-enclave workloads.

A campaign builds one pipeline on a fresh monitor, captures a
``CampaignSnapshot`` (monitor + kernel + multicore scheduler, so every
trial forks bit-identically), runs the fault-free *golden* trial, then
sweeps stage-kill points: for each machine-visible monitor operation of
the golden run, one trial crashes the machine at exactly that operation
and lets the saga layer recover.

The gate is the robustness contract of ``repro.pipeline``:

* every trial **terminates** — a scheduler ``max_steps`` overrun is a
  hang and a hard violation;
* a trial either completes **bit-exact** against the golden logical
  digest (replies, per-stage committed slots, checksum legs) or raises
  a **typed retryable** ``PipelineError``;
* either way the cross-enclave invariants hold: no torn transaction
  state, no counter value issued twice, and a clean monitor audit.

``RepeatingFaultPlan`` extends the single-shot ``FaultPlan`` with
periodic re-arming — the tool for driving a stage's respawn budget to
exhaustion and checking that the saga surfaces ``StageRetryExhausted``
rather than looping forever.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.arm.bits import words_to_bytes
from repro.arm.machine import MachineState
from repro.crypto.rng import HardwareRNG
from repro.crypto.sha256 import sha256
from repro.faults.audit import audit_monitor
from repro.faults.injector import FaultPlan, inject
from repro.faults.parallel import Campaign, ShardLayout
from repro.faults.snapshot import CampaignSnapshot
from repro.monitor.komodo import KomodoMonitor
from repro.multicore.scheduler import MultiCoreMachine
from repro.osmodel.kernel import OSKernel
from repro.osmodel.saga import PipelineOutcome, run_pipeline
from repro.pipeline import stages as st
from repro.pipeline.errors import PipelineError
from repro.pipeline.pipelines import (
    PIPELINE_KINDS,
    AttestSignSealPipeline,
    Pipeline,
    build_pipeline,
)

DEFAULT_SECURE_PAGES = 48
DEFAULT_SEED = 0x51BE
DEFAULT_REQUESTS = 2
DEFAULT_MAX_STEPS = 300_000


class RepeatingFaultPlan(FaultPlan):
    """A fault plan that re-arms: crash at ``abort_at``, then every
    ``period`` further operations, up to ``max_fires`` times.

    A single-shot crash is always recoverable by one respawn; driving a
    retry budget to exhaustion needs the *recovery itself* to keep
    crashing, which is exactly what periodic re-arming models (a machine
    whose watchdog keeps firing).  ``max_fires`` defaults to a finite
    bound because an unbounded small-period plan also fires during every
    recovery attempt — a machine that never boots, which the scheduler
    reports as its recovery-retry limit rather than a pipeline verdict.
    """

    def __init__(
        self,
        abort_at: int,
        period: int,
        max_fires: Optional[int] = 16,
        kinds: Optional[Set[str]] = None,
    ) -> None:
        super().__init__(abort_at=abort_at, kinds=kinds)
        if period < 1:
            raise ValueError("period must be at least 1")
        self.period = period
        self.max_fires = max_fires
        self.fires = 0

    def visit(self, state: MachineState, kind: str, detail: int) -> None:
        if self.kinds is not None and kind not in self.kinds:
            return
        self.count += 1
        self.trace.append((kind, detail))
        if kind == "txn-boundary" and self.on_boundary is not None:
            self.on_boundary(state)
        if self.max_fires is not None and self.fires >= self.max_fires:
            return
        if self.count >= self.abort_at:
            self.fires += 1
            self.fired = True
            self.abort_at = self.count + self.period
            from repro.arm.machine import FaultInjected

            raise FaultInjected(self.count, kind, detail)


def default_requests(kind: str, count: int = DEFAULT_REQUESTS) -> List[List[int]]:
    """Deterministic request payloads (document digests) per pipeline."""
    words = PIPELINE_KINDS[kind].request_words
    mix = lambda i: (0x9E3779B9 * (i + 1) + 0x85EBCA6B) & 0xFFFFFFFF  # noqa: E731
    return [
        [mix(index * words + j) for j in range(words)] for index in range(count)
    ]


@dataclass
class TrialResult:
    """One kill point's verdict."""

    kill_point: int  # 0 = golden (fault-free) trial
    outcome: str  # "bit-exact" | a typed error code | "hang" | "violation"
    op: Optional[Tuple[str, int]] = None  # (kind, detail) crashed at
    detail: str = ""
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass
class PipelineReport:
    """Everything one pipeline's sweep produced."""

    pipeline: str
    engine: str
    ops: int = 0
    golden_digest: str = ""
    trials: List[TrialResult] = field(default_factory=list)

    @property
    def kill_points(self) -> int:
        return sum(1 for trial in self.trials if trial.kill_point > 0)

    @property
    def bit_exact(self) -> int:
        return sum(1 for t in self.trials if t.outcome == "bit-exact")

    @property
    def retryable(self) -> int:
        return sum(
            1
            for t in self.trials
            if t.outcome not in ("bit-exact", "hang", "violation")
        )

    @property
    def violations(self) -> List[str]:
        out: List[str] = []
        for trial in self.trials:
            for violation in trial.violations:
                out.append(f"kill@{trial.kill_point}: {violation}")
        return out

    @property
    def ok(self) -> bool:
        return not self.violations

    #: Every shard runs the golden trial (kill point 0); the merge keeps
    #: one and interleaves the kill trials by kill point.
    SHARDS = ShardLayout(
        identity=("pipeline", "engine", "ops", "golden_digest"),
        identity_error=(
            "shards disagree on the golden run (pipeline/engine/ops/digest)"
        ),
        invariant=(),
        invariant_error="shards disagree on the golden trial verdict",
        records="trials",
        key="kill_point",
        steps=None,
        head=1,
    )


def outcome_digest(
    pipeline: Pipeline, outcome: PipelineOutcome
) -> str:
    """The logical digest a successful trial is compared on: replies,
    checksum legs, and each stage's *committed* (active-slot) state.

    Raw page digests would be wrong here — the inactive shadow slot and
    the insecure channel pages legitimately differ between a trial that
    crashed mid-commit and one that did not.
    """
    words: List[int] = []
    for frame in outcome.replies:
        words += [frame.txid, frame.opcode, len(frame.payload), *frame.payload]
    for value in outcome.checksums:
        words.append(value & 0xFFFFFFFF)
    for stage in pipeline.stages:
        slot = stage.active_slot()
        words += [len(slot), *slot]
    return sha256(words_to_bytes([w & 0xFFFFFFFF for w in words])).hex()


def _reply_values(pipeline: Pipeline, outcome: PipelineOutcome) -> List[int]:
    """Counter values carried by successful counter-notary replies.
    Other pipelines carry opaque blobs, not counter values."""
    from repro.pipeline.pipelines import CounterNotaryPipeline

    if not isinstance(pipeline, CounterNotaryPipeline):
        return []
    values = []
    for frame in outcome.replies:
        if frame.payload and frame.payload[0] == st.ST_OK and len(frame.payload) > 1:
            values.append(frame.payload[1])
    return values


class PipelineCampaign(Campaign):
    """Sweep stage-kill points across one pipeline's golden run."""

    def __init__(
        self,
        kind: str,
        *,
        engine: str = "turbo",
        seed: int = DEFAULT_SEED,
        secure_pages: int = DEFAULT_SECURE_PAGES,
        stride: int = 1,
        requests: Optional[Sequence[Sequence[int]]] = None,
        max_steps: int = DEFAULT_MAX_STEPS,
        with_checksum: Optional[bool] = None,
        shard: Optional[Tuple[int, int]] = None,
    ):
        super().__init__(stride, shard)
        self.kind = kind
        self.engine = engine
        self.seed = seed
        self.max_steps = max_steps
        self.requests = [list(r) for r in (requests or default_requests(kind))]
        self.monitor = KomodoMonitor(
            secure_pages=secure_pages,
            rng=HardwareRNG(seed),
            cpu_engine=engine,
        )
        self.kernel = OSKernel(self.monitor)
        self.pipeline = build_pipeline(kind, self.kernel)
        # The machine-code CRC leg makes the campaign engine-sensitive
        # (the tri-engine differential's anchor); it rides on the relay
        # pipeline by default.
        if with_checksum is None:
            with_checksum = isinstance(self.pipeline, AttestSignSealPipeline)
        self.checksum = None
        if with_checksum:
            from repro.apps.checksum import ChecksumService

            self.checksum = ChecksumService(self.kernel)
        self.machine = MultiCoreMachine(self.monitor, seed=seed)
        # Captured at the quiescent point right after the build: every
        # trial (golden included) rewinds to exactly here.
        self.snapshot = CampaignSnapshot(
            self.monitor, self.kernel, scheduler=self.machine
        )

    # -- one trial ---------------------------------------------------------

    def _run_once(self, plan: Optional[FaultPlan]) -> PipelineOutcome:
        self.snapshot.restore()
        with inject(self.monitor.state, plan):  # a None plan injects nothing
            return run_pipeline(
                self.pipeline,
                self.machine,
                self.requests,
                checksum=self.checksum,
                max_steps=self.max_steps,
            )

    def _check_state(self, golden_values: List[int]) -> List[str]:
        problems = list(self.pipeline.check_invariants())
        problems += [f"audit: {p}" for p in audit_monitor(self.monitor)]
        if len(set(golden_values)) != len(golden_values):
            problems.append(f"counter value reused: {golden_values}")
        return problems

    def _trial(
        self, kill_point: int, plan: Optional[FaultPlan], golden_digest: str
    ) -> TrialResult:
        result = TrialResult(kill_point=kill_point, outcome="bit-exact")
        try:
            outcome = self._run_once(plan)
        except PipelineError as error:
            result.outcome = error.code
            result.detail = str(error)
            if not error.retryable:
                result.violations.append(
                    f"non-retryable pipeline error: {error.code}: {error}"
                )
        except RuntimeError as error:
            result.outcome = "hang"
            result.detail = str(error)
            result.violations.append(f"hang (scheduler backstop): {error}")
        except Exception as error:  # noqa: BLE001 - the gate wants a verdict
            result.outcome = "violation"
            result.detail = f"{type(error).__name__}: {error}"
            result.violations.append(
                f"untyped escape: {type(error).__name__}: {error}"
            )
        else:
            digest = outcome_digest(self.pipeline, outcome)
            if digest != golden_digest:
                result.violations.append(
                    f"digest mismatch: {digest[:16]} != golden {golden_digest[:16]}"
                )
            result.violations.extend(
                self._check_state(_reply_values(self.pipeline, outcome))
            )
        if plan is not None and plan.fired:
            index = min(plan.abort_at, len(plan.trace)) - 1
            if isinstance(plan, RepeatingFaultPlan):
                index = min(kill_point, len(plan.trace)) - 1
            if 0 <= index < len(plan.trace):
                result.op = plan.trace[index]
        # A crash was requested but never fired: the trial degenerates
        # to a golden re-run; record it so sweeps stay honest.
        if plan is not None and plan.abort_at is not None and not plan.fired:
            result.detail = result.detail or "fault never fired"
        return result

    # -- the sweep ---------------------------------------------------------

    def run(self) -> PipelineReport:
        report = PipelineReport(pipeline=self.kind, engine=self.engine)
        # Golden + discovery in one pass: count every machine-visible
        # monitor op of the fault-free run.
        discovery = FaultPlan()
        golden = self._run_once(discovery)
        report.ops = discovery.count
        report.golden_digest = outcome_digest(self.pipeline, golden)
        golden_trial = TrialResult(kill_point=0, outcome="bit-exact")
        golden_trial.violations.extend(
            self._check_state(_reply_values(self.pipeline, golden))
        )
        report.trials.append(golden_trial)
        # The last op is always a kill point, whatever the stride.
        for _, kill_point in self._trials(range(1, report.ops + 1), keep_last=True):
            plan = FaultPlan(abort_at=kill_point)
            report.trials.append(
                self._trial(kill_point, plan, report.golden_digest)
            )
        return report


def run_campaign(
    kind: str,
    *,
    engine: str = "turbo",
    seed: int = DEFAULT_SEED,
    stride: int = 1,
    requests: Optional[Sequence[Sequence[int]]] = None,
    secure_pages: int = DEFAULT_SECURE_PAGES,
    shard: Optional[Tuple[int, int]] = None,
) -> PipelineReport:
    return PipelineCampaign(
        kind,
        engine=engine,
        seed=seed,
        stride=stride,
        requests=requests,
        secure_pages=secure_pages,
        shard=shard,
    ).run()


def tri_engine_digests(
    kind: str,
    engines: Sequence[str] = ("reference", "fast", "turbo"),
    *,
    seed: int = DEFAULT_SEED,
    requests: Optional[Sequence[Sequence[int]]] = None,
) -> Dict[str, str]:
    """Golden logical digests per engine.  The pipeline result must be
    engine-invariant; a split is an engine bug, not a pipeline bug."""
    digests: Dict[str, str] = {}
    for engine in engines:
        campaign = PipelineCampaign(
            kind, engine=engine, seed=seed, requests=requests
        )
        outcome = campaign._run_once(FaultPlan())
        digests[engine] = outcome_digest(campaign.pipeline, outcome)
    return digests
