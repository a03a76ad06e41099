"""Exhaustive per-step fault campaigns over a full enclave lifecycle.

For every step of the lifecycle (init → map → finalise → enter → svc →
stop → remove), the campaign:

1. runs the step on a **discovery** copy of the machine, counting its
   machine-visible monitor operations and snapshotting the quiescent
   state at every transaction boundary;
2. for each operation index ``n``, runs a **trial** on a fresh copy with
   a plan that crashes the monitor at exactly the n-th operation, then
   invokes ``KomodoMonitor.recover()`` and checks:

   * the full audit (spec invariants + machine-level walk) is clean;
   * the secure-state digest equals one of the discovery snapshots —
     i.e. recovery landed in *exactly* the pre-call or the completed
     state (or, for execution calls, a quiescent boundary between
     their bookkeeping windows), never in between;
   * the OS retry path (``OSKernel.retry_after_crash`` /
     ``recover_execution``) then finishes the interrupted step and the
     whole remaining lifecycle, ending with every secure page free.

The campaign's enclave program performs no user-mode stores, so the
quiescent digests classify states exactly; randomness comes only from
the seeded ``HardwareRNG``, keeping every trial bit-deterministic.

``repro.faults.parallel.differential`` runs the same campaign under
each requested execution engine (any subset of fast/reference/turbo)
and compares their per-step operation counts, digests, and cycle
counters (``StepReport.fingerprint``) — injected aborts must not let
the decode cache, micro-TLB, or compiled block cache desynchronise from
flat memory.

The stride, shard filter and per-trial watchdog are the shared trial
protocol of ``repro.faults.parallel.Campaign``.

Trials default to snapshot acceleration: the pre-step state is
captured once per step (``CampaignSnapshot``) and rewound in place per
injected fault, instead of deep-copying the whole monitor per trial.
``use_snapshots=False`` keeps the original deep-copy path; both paths
produce bit-identical reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.arm.assembler import Assembler
from repro.arm.pagetable import l1_index
from repro.crypto.rng import HardwareRNG
from repro.faults.audit import audit_monitor, secure_state_digest
from repro.faults.injector import FaultInjected, FaultPlan, inject
from repro.faults.parallel import Campaign, ShardLayout
from repro.monitor.errors import KomErr
from repro.monitor.komodo import KomodoMonitor
from repro.monitor.layout import SMC, SVC, Mapping, PageType
from repro.osmodel.kernel import OSKernel
from repro.util.watchdog import TrialTimeout, time_limit

#: Fixed secure-page assignment for the lifecycle enclave.
AS_PAGE, L1_PAGE, L2_PAGE, CODE_PAGE, THREAD_PAGE = 0, 1, 2, 3, 4
CODE_VA = 0x0001_0000
EXIT_VALUE = 0x600D
#: Teardown order: threads and data first, the addrspace last.
REMOVE_ORDER = (THREAD_PAGE, CODE_PAGE, L2_PAGE, L1_PAGE, AS_PAGE)

_EXECUTE = "execute"


@dataclass(frozen=True)
class _Step:
    """One lifecycle step: a plain SMC, or the composite execute step."""

    name: str
    callno: Optional[int]  # None for the composite execute step
    args: Tuple[int, ...] = ()


@dataclass
class TrialRecord:
    """One injected-fault trial.

    ``ordinal`` is the trial's index in the *serial* trial sequence
    (before any shard filtering), so a sharded campaign's records merge
    back into exactly the serial report (``repro.faults.parallel``).
    """

    ordinal: int
    abort_at: int
    violations: List[str] = field(default_factory=list)


@dataclass
class StepReport:
    """Per-step results, with violations in explicit buckets.

    ``pre_violations`` come from the discovery pass, each trial's
    violations live on its :class:`TrialRecord`, and ``post_violations``
    come from the clean-run audit — the flattened ``violations``
    property reproduces the historical (serial-order) list exactly.
    """

    name: str
    fault_points: int = 0
    pre_violations: List[str] = field(default_factory=list)
    trial_records: List[TrialRecord] = field(default_factory=list)
    post_violations: List[str] = field(default_factory=list)
    post_digest: str = ""
    post_cycles: int = 0

    @property
    def trials(self) -> int:
        return len(self.trial_records)

    @property
    def violations(self) -> List[str]:
        out = list(self.pre_violations)
        for record in self.trial_records:
            out.extend(record.violations)
        out.extend(self.post_violations)
        return out

    def fingerprint(self) -> Dict[str, object]:
        """What every engine must agree on (the differential)."""
        return {
            "fault points": self.fault_points,
            "post-step state digests": self.post_digest,
            "cycle counters": self.post_cycles,
        }


@dataclass
class CampaignReport:
    engine: str
    seed: int
    steps: List[StepReport] = field(default_factory=list)

    SHARDS = ShardLayout(
        identity=("engine", "seed"),
        identity_error="shards disagree on campaign identity (engine/seed)",
        steps_error="shards disagree on the lifecycle step sequence",
        invariant=(
            "fault_points",
            "pre_violations",
            "post_violations",
            "post_digest",
            "post_cycles",
        ),
        invariant_error=(
            "step {column.name}: shards disagree on discovery/clean-run state"
        ),
        records="trial_records",
        key="ordinal",
    )

    @property
    def violations(self) -> List[str]:
        return [v for step in self.steps for v in step.violations]

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def total_trials(self) -> int:
        return sum(step.trials for step in self.steps)

    @property
    def total_fault_points(self) -> int:
        return sum(step.fault_points for step in self.steps)


def _program_words() -> List[int]:
    """The campaign enclave: one non-exit SVC, then Exit(0x600D).

    Deliberately store-free — user-mode stores are architecturally
    immediate, so a program that wrote memory would create states
    between transaction boundaries and break exact classification.
    """
    asm = Assembler()
    asm.svc(SVC.GET_RANDOM)
    asm.movw("r0", EXIT_VALUE)
    asm.svc(SVC.EXIT)
    return asm.assemble()


class LifecycleCampaign(Campaign):
    """Run the exhaustive per-step fault campaign.

    Parameters
    ----------
    seed:
        drives the monitor's hardware RNG; the whole campaign is a
        deterministic function of (seed, engine, steps, stride).
    engine:
        execution engine for enclave code ("fast", "reference", or
        None for the default).
    inject_steps:
        restrict injection to steps whose name equals or starts with
        one of these tokens (e.g. ``["remove"]`` covers every Remove);
        all steps still *run* so the lifecycle advances.  None injects
        everywhere.
    stride:
        inject at every ``stride``-th operation index (1 = exhaustive).
    use_snapshots:
        capture the pre-step state once per step with
        ``CampaignSnapshot`` and rewind it in place per trial, instead
        of deep-copying the monitor per trial.  Reports are
        bit-identical either way (pinned by
        tests/faults/test_snapshot.py); snapshots are just faster.
    trial_timeout:
        optional wall-clock budget (seconds) per discovery run / trial;
        a wedged trial fails with a recorded violation instead of
        hanging the campaign (``repro.util.watchdog``).  None disables.
    shard:
        optional ``(index, count)``: run only trials whose serial
        ordinal is ``index`` modulo ``count``.  Discovery and the
        clean-run lifecycle still execute in full (they are what every
        shard's trials fork from), so ``count`` sharded reports merge
        back into exactly the serial report — see
        ``repro.faults.parallel``.
    """

    def __init__(
        self,
        seed: int = 0xC0FFEE,
        engine: Optional[str] = None,
        secure_pages: int = 16,
        inject_steps: Optional[Iterable[str]] = None,
        stride: int = 1,
        use_snapshots: bool = True,
        trial_timeout: Optional[float] = None,
        shard: Optional[Tuple[int, int]] = None,
    ) -> None:
        super().__init__(stride, shard, trial_timeout, use_snapshots)
        self.seed = seed
        self.engine = engine
        self.secure_pages = secure_pages
        self.inject_steps = None if inject_steps is None else tuple(inject_steps)

    # -- machinery -------------------------------------------------------

    def _fresh_monitor(self) -> KomodoMonitor:
        monitor = KomodoMonitor(
            rng=HardwareRNG(self.seed),
            secure_pages=self.secure_pages,
            cpu_engine=self.engine,
        )
        # Stage the enclave program in insecure RAM (the OS's staging
        # page); every trial copy inherits it.
        state = monitor.state
        state.memory.write_words(state.memmap.insecure.base, _program_words())
        return monitor

    def _steps(self, monitor: KomodoMonitor) -> List[_Step]:
        staged = monitor.state.memmap.insecure.base
        code_mapping = Mapping(
            va=CODE_VA, readable=True, writable=False, executable=True
        ).encode()
        steps = [
            _Step("init_addrspace", SMC.INIT_ADDRSPACE, (AS_PAGE, L1_PAGE)),
            _Step(
                "init_l2ptable",
                SMC.INIT_L2PTABLE,
                (AS_PAGE, L2_PAGE, l1_index(CODE_VA)),
            ),
            _Step(
                "map_secure",
                SMC.MAP_SECURE,
                (AS_PAGE, CODE_PAGE, code_mapping, staged),
            ),
            _Step("init_thread", SMC.INIT_THREAD, (AS_PAGE, THREAD_PAGE, CODE_VA)),
            _Step("finalise", SMC.FINALISE, (AS_PAGE,)),
            _Step(_EXECUTE, None),
            _Step("stop", SMC.STOP, (AS_PAGE,)),
        ]
        steps.extend(
            _Step(f"remove_{['thread','code','l2','l1','as'][i]}", SMC.REMOVE, (p,))
            for i, p in enumerate(REMOVE_ORDER)
        )
        return steps

    def _injects(self, step: _Step) -> bool:
        if self.inject_steps is None:
            return True
        return any(
            step.name == token or step.name.startswith(token)
            for token in self.inject_steps
        )

    @staticmethod
    def _run_step(monitor: KomodoMonitor, step: _Step) -> None:
        """Run one step to completion, asserting the expected result."""
        if step.callno is not None:
            err, _ = monitor.smc(step.callno, *step.args)
            if err is not KomErr.SUCCESS:
                raise RuntimeError(f"lifecycle step {step.name} failed: {err!r}")
            return
        # Composite execute: enter with an interrupt scheduled so the
        # save/resume path runs, then resume across interrupts.
        monitor.schedule_interrupt(1)
        err, value = monitor.smc(SMC.ENTER, THREAD_PAGE, 0, 0, 0)
        while err is KomErr.INTERRUPTED:
            err, value = monitor.smc(SMC.RESUME, THREAD_PAGE)
        if err is not KomErr.SUCCESS or value != EXIT_VALUE:
            raise RuntimeError(f"enclave run returned ({err!r}, {value:#x})")

    def _finish_after_crash(
        self,
        monitor: KomodoMonitor,
        steps: List[_Step],
        crashed_index: int,
    ) -> List[str]:
        """OS retry path: complete the interrupted step, then the rest."""
        problems: List[str] = []
        kernel = OSKernel(monitor)
        step = steps[crashed_index]
        if step.callno is not None:
            err, _ = kernel.retry_after_crash(step.callno, *step.args)
            if err is not KomErr.SUCCESS:
                problems.append(f"{step.name}: retry after crash failed: {err!r}")
                return problems
        else:
            err, value = kernel.recover_execution(THREAD_PAGE)
            if err is not KomErr.SUCCESS or value != EXIT_VALUE:
                problems.append(
                    f"{step.name}: recovery run returned ({err!r}, {value:#x})"
                )
                return problems
        for later in steps[crashed_index + 1 :]:
            try:
                self._run_step(monitor, later)
            except RuntimeError as exc:
                problems.append(f"after {step.name} crash: {exc}")
                return problems
        problems.extend(
            f"after {step.name} crash, final audit: {violation}"
            for violation in audit_monitor(monitor)
        )
        pagedb = monitor.pagedb
        not_free = [
            pageno
            for pageno in range(pagedb.npages)
            if pagedb.page_type(pageno) is not PageType.FREE
        ]
        if not_free:
            problems.append(
                f"after {step.name} crash, pages not freed by teardown: {not_free}"
            )
        return problems

    # -- the campaign ----------------------------------------------------

    def run(self) -> CampaignReport:
        report = CampaignReport(engine=self.engine or "default", seed=self.seed)
        monitor = self._fresh_monitor()
        steps = self._steps(monitor)
        for index, step in enumerate(steps):
            step_report = StepReport(name=step.name)
            report.steps.append(step_report)
            if self._injects(step):
                self._campaign_step(monitor, steps, index, step_report)
            # Advance the base machine through the step.
            self._run_step(monitor, step)
            clean = audit_monitor(monitor)
            step_report.post_violations.extend(
                f"{step.name}: clean-run audit: {violation}" for violation in clean
            )
            step_report.post_digest = secure_state_digest(monitor.state)
            step_report.post_cycles = monitor.state.cycles
        return report

    def _campaign_step(
        self,
        base: KomodoMonitor,
        steps: List[_Step],
        index: int,
        step_report: StepReport,
    ) -> None:
        step = steps[index]
        # Every probe/trial below forks the pre-step state of `base`.
        fork, rewind = self._checkpoint(base)
        # Discovery: count operations and snapshot quiescent boundaries.
        probe, _ = fork()
        boundaries = {secure_state_digest(probe.state)}
        plan = FaultPlan(
            on_boundary=lambda state: boundaries.add(secure_state_digest(state))
        )
        try:
            with time_limit(self.trial_timeout, f"{step.name} discovery"):
                with inject(probe.state, plan):
                    self._run_step(probe, step)
        except TrialTimeout as exc:
            step_report.pre_violations.append(f"{step.name}: {exc}")
            rewind()
            return
        boundaries.add(secure_state_digest(probe.state))
        step_report.fault_points = plan.count
        # Trials: crash at every (stride-th) operation.
        for ordinal, abort_at in self._trials(range(1, plan.count + 1)):
            trial, _ = fork()
            record = TrialRecord(ordinal=ordinal, abort_at=abort_at)
            step_report.trial_records.append(record)
            with self._watchdog(f"{step.name} op {abort_at}", record, step.name):
                self._trial(
                    trial, steps, index, abort_at, boundaries, record.violations
                )
        # Leave `base` at the pre-step state for the clean run.
        rewind()

    def _trial(
        self,
        trial: KomodoMonitor,
        steps: List[_Step],
        index: int,
        abort_at: int,
        boundaries,
        violations: List[str],
    ) -> None:
        step = steps[index]
        trial_plan = FaultPlan(abort_at=abort_at)
        crashed = False
        try:
            with inject(trial.state, trial_plan):
                self._run_step(trial, step)
        except FaultInjected:
            crashed = True
        if not crashed:
            violations.append(
                f"{step.name}: injection at op {abort_at} did not fire"
            )
            return
        kind, detail = trial_plan.trace[-1]
        where = f"{step.name} op {abort_at} ({kind} {detail:#x})"
        trial.recover()
        violations.extend(
            f"{where}: audit: {violation}" for violation in audit_monitor(trial)
        )
        if secure_state_digest(trial.state) not in boundaries:
            violations.append(
                f"{where}: recovered state is neither pre-call nor completed"
            )
        violations.extend(self._finish_after_crash(trial, steps, index))
