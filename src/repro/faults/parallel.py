"""The campaign kernel: one trial protocol, sharded and merged byte-identical.

The lifecycle, bit-flip and pipeline campaigns all run the same
protocol, written once here:

* :class:`Campaign` — the trial loop.  Enumerate the trial points at a
  stride, number them by *serial* ordinal, keep those whose ordinal is
  ``index`` modulo ``count`` for a ``shard=(index, count)``, and run
  each under the per-trial watchdog (``repro.util.watchdog``).  Every
  trial forks (or rewinds) the same captured pre-trial state, so a shard
  produces exactly the records a serial run produces for its ordinals;
* :func:`merge_reports` — each report type names, in a
  :class:`ShardLayout`, the fields every shard must reproduce
  (discovery counts, golden digests, clean-run audits) and its ordinal-
  keyed record list.  The merge checks the former for agreement and
  interleaves the latter back into serial order, so the merged report is
  **byte-identical** to the serial one — :func:`report_digest` is the
  oracle CI pins that claim with;
* :func:`run_shards` and :func:`run_sharded` — fork ``jobs`` worker
  processes (POSIX ``fork``, so the workload closure is inherited, not
  pickled), run one shard each and merge (the CLIs' ``--jobs N``);
* :func:`differential` — run one campaign factory per execution engine
  and compare the reports step by step on each step type's
  ``fingerprint()``.

Each forked shard is a fresh process with its own main thread, so the
SIGALRM-based trial watchdog keeps working inside shards unchanged.
Symbex witness replay shards the same way (:func:`check_witnesses_sharded`).
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import multiprocessing
import os
from contextlib import contextmanager
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from repro.faults.snapshot import CampaignSnapshot
from repro.util.watchdog import TrialTimeout, time_limit


class ShardError(RuntimeError):
    """A worker process failed to produce its shard's result."""


class MergeError(AssertionError):
    """Shard reports disagree on a field every shard must reproduce."""


# -- the trial loop ---------------------------------------------------------


class Campaign:
    """The trial protocol every fault campaign runs.

    ``stride`` keeps every ``stride``-th trial point (1 = exhaustive);
    ``shard=(index, count)`` keeps only the trials whose serial ordinal
    is ``index`` modulo ``count``; ``trial_timeout`` (seconds, None =
    off) bounds each trial's wall-clock time; ``use_snapshots=False``
    forks trials by deep copy instead of snapshot rewind (same reports,
    slower — the oracle the snapshot path is checked against).
    """

    def __init__(
        self,
        stride: int = 1,
        shard: Optional[Tuple[int, int]] = None,
        trial_timeout: Optional[float] = None,
        use_snapshots: bool = True,
    ) -> None:
        if stride < 1:
            raise ValueError("stride must be >= 1")
        if shard is not None and not 0 <= shard[0] < shard[1]:
            raise ValueError(f"shard index out of range: {shard}")
        self.stride = stride
        self.shard = shard
        self.trial_timeout = trial_timeout
        self.use_snapshots = use_snapshots

    def _checkpoint(self, monitor, kernel=None):
        """Capture the pre-trial state once; returns ``(fork, rewind)``.

        ``fork()`` returns a ``(monitor, kernel)`` pair at the captured
        state for one trial — the originals rewound in place, or a deep
        copy when snapshots are off.  ``rewind()`` leaves the originals
        at the captured state.
        """
        if self.use_snapshots:
            checkpoint = CampaignSnapshot(monitor, kernel)
            return checkpoint.restore, checkpoint.restore

        def fork():
            # Decoded-instruction caches are heavy and rebuildable;
            # reset before copying so copies stay cheap.
            monitor.state.uarch.reset()
            return copy.deepcopy((monitor, kernel))

        return fork, lambda: None

    def _trials(
        self, points: Sequence, keep_last: bool = False
    ) -> Iterator[Tuple[int, object]]:
        """``(ordinal, point)`` for this shard's share of the strided points.

        ``keep_last`` appends the final point when the stride skips it.
        Trials are isolated (each forks or rewinds the same state), so a
        shard may skip any subset without perturbing the rest.
        """
        chosen = list(points)[:: self.stride]
        if keep_last and chosen and chosen[-1] != points[-1]:
            chosen.append(points[-1])
        for ordinal, point in enumerate(chosen):
            if self.shard is None or ordinal % self.shard[1] == self.shard[0]:
                yield ordinal, point

    @contextmanager
    def _watchdog(self, label: str, record, step: str, **timed_out) -> Iterator:
        """Run one trial under the watchdog.

        A wedged trial keeps its record — so differential records stay
        aligned — with ``timed_out`` field values and a violation; the
        next fork or rewind discards the stranded machine.
        """
        try:
            with time_limit(self.trial_timeout, label):
                yield
        except TrialTimeout as exc:
            for name, value in timed_out.items():
                setattr(record, name, value)
            record.violations.append(f"{step}: {exc}")


# -- process scaffolding ----------------------------------------------------


def _shard_main(fn, index: int, count: int, conn) -> None:
    """Worker entry: run one shard, ship the result, exit hard.

    ``os._exit`` skips the parent's inherited atexit/teardown machinery
    — the child must not flush handles or reap resources it shares with
    the parent by fork.
    """
    try:
        conn.send(("ok", fn(index, count)))
    except BaseException as exc:  # noqa: BLE001 - must reach the parent
        try:
            conn.send(("err", f"{type(exc).__name__}: {exc}"))
        except Exception:
            pass
    finally:
        try:
            conn.close()
        finally:
            os._exit(0)


def run_shards(fn: Callable[[int, int], object], jobs: int) -> List[object]:
    """Run ``fn(index, jobs)`` for each shard index; return results in order.

    ``jobs <= 1`` (or a platform without the ``fork`` start method) runs
    the single shard inline — the degenerate case is the serial campaign
    itself.  Worker failures surface as :class:`ShardError`; a shard
    that dies without reporting (e.g. OOM-killed) is included with a
    clear message rather than hanging the parent.
    """
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    if jobs == 1:
        return [fn(0, 1)]
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:
        return [fn(index, jobs) for index in range(jobs)]
    workers = []
    for index in range(jobs):
        recv, send = ctx.Pipe(duplex=False)
        process = ctx.Process(
            target=_shard_main, args=(fn, index, jobs, send), daemon=True
        )
        process.start()
        send.close()  # parent keeps only the read end
        workers.append((process, recv))
    results: List[object] = []
    failures: List[str] = []
    for index, (process, recv) in enumerate(workers):
        try:
            status, payload = recv.recv()
        except EOFError:
            status, payload = "err", "worker died without reporting a result"
        recv.close()
        process.join()
        if status == "ok":
            results.append(payload)
        else:
            failures.append(f"shard {index}/{jobs}: {payload}")
    if failures:
        raise ShardError("; ".join(failures))
    return results


# -- digests ----------------------------------------------------------------


def _jsonable(value):
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: _jsonable(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    return value


def report_digest(report) -> str:
    """Canonical content digest of a report (or any dataclass tree).

    This is the byte-identity oracle: a sharded run merged back together
    must produce the same digest as the serial run.  Only stored fields
    enter the digest (properties are derived and would double-count).
    """
    payload = json.dumps(_jsonable(report), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


# -- merges -----------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class ShardLayout:
    """How one report type's shards merge back into the serial report.

    A report is a list of *columns* — its ``steps``, or the report
    itself when ``steps`` is None.  Each column holds fields every shard
    reproduces (``invariant``, plus its first ``head`` records, such as
    a pipeline's golden trial) and a ``records`` list the shards split
    by the ordinal field ``key``.  The ``*_error`` texts are the
    :class:`MergeError` messages for each kind of disagreement.
    """

    identity: Tuple[str, ...]
    identity_error: str
    invariant: Tuple[str, ...]
    invariant_error: str  # formatted with the column as ``column``
    records: str
    key: str
    steps: Optional[str] = "steps"
    steps_error: str = ""
    head: int = 0


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise MergeError(message)


def merge_reports(shards: Sequence):
    """Merge one campaign's shard reports into its serial report."""
    _require(bool(shards), "no shard reports to merge")
    first = shards[0]
    layout: ShardLayout = first.SHARDS

    def identity(report) -> tuple:
        return tuple(getattr(report, name) for name in layout.identity)

    def columns(report) -> list:
        return [report] if layout.steps is None else getattr(report, layout.steps)

    def invariant(column) -> tuple:
        head = getattr(column, layout.records)[: layout.head]
        return (*(getattr(column, name) for name in layout.invariant), head)

    for other in shards[1:]:
        _require(
            identity(other) == identity(first), layout.identity_error
        )
        if layout.steps is not None:
            _require(
                [s.name for s in columns(other)] == [s.name for s in columns(first)],
                layout.steps_error,
            )
    merged = []
    for index, base in enumerate(columns(first)):
        column = [columns(shard)[index] for shard in shards]
        for other in column[1:]:
            _require(
                invariant(other) == invariant(base),
                layout.invariant_error.format(column=base),
            )
        records = sorted(
            (
                record
                for shard_column in column
                for record in getattr(shard_column, layout.records)[layout.head :]
            ),
            key=lambda record: getattr(record, layout.key),
        )
        ordinals = [getattr(record, layout.key) for record in records]
        _require(
            len(set(ordinals)) == len(ordinals),
            f"duplicate trial ordinals across shards: {layout.records}",
        )
        head = getattr(base, layout.records)[: layout.head]
        merged.append(dataclasses.replace(base, **{layout.records: head + records}))
    if layout.steps is None:
        return merged[0]
    return dataclasses.replace(first, **{layout.steps: merged})


# -- sharded runs and differentials -----------------------------------------


def run_sharded(make_campaign: Callable, jobs: int):
    """Run ``make_campaign(shard).run()`` across ``jobs`` forked shards
    and merge the reports; ``jobs == 1`` runs ``make_campaign(None)``
    serially in-process."""

    def shard(index: int, count: int):
        return make_campaign((index, count) if count > 1 else None).run()

    return merge_reports(run_shards(shard, jobs))


def differential(
    make_campaign: Callable[[str, Optional[Tuple[int, int]]], object],
    engines: Sequence[str],
    jobs: int = 1,
) -> Tuple:
    """Run ``make_campaign(engine, shard)`` under each engine and compare.

    Returns ``(*reports, mismatches)`` in ``engines`` order.  Every
    engine's report must agree with the first one's on every step's
    ``fingerprint()``: an injected fault that desynchronised a decode
    cache, micro-TLB or block cache from flat memory shows up here.
    """
    if len(engines) < 2:
        raise ValueError("differential needs at least two engines")
    reports = [
        run_sharded(lambda shard, engine=engine: make_campaign(engine, shard), jobs)
        for engine in engines
    ]
    return (*reports, compare_reports(engines, reports))


def compare_reports(engines: Sequence[str], reports: Sequence) -> List[str]:
    """Pairwise engine comparison of already-run reports, step by step.

    Counts that differ are printed; digests and per-trial lists are not.
    """
    base_name, baseline = engines[0], reports[0]
    mismatches: List[str] = []
    for engine, report in zip(engines[1:], reports[1:]):
        for base_step, step in zip(baseline.steps, report.steps):
            theirs = step.fingerprint()
            for what, ours in base_step.fingerprint().items():
                if ours == theirs[what]:
                    continue
                if isinstance(ours, int):
                    detail = f"{base_name} {ours}, {engine} {theirs[what]}"
                else:
                    detail = f"{base_name} vs {engine}"
                mismatches.append(f"{step.name}: {what} differ ({detail})")
    return mismatches


def check_witnesses_sharded(
    witnesses: Sequence,
    jobs: int,
    *,
    engines: Sequence[str],
    trial_timeout: Optional[float] = None,
) -> List:
    """Sharded symbex witness replay; failures in serial witness order.

    Witnesses stripe across shards by ordinal; each shard boots its own
    per-engine monitors and keeps the harness's post-setup checkpoint
    cache for the witnesses it owns.  Per-witness failure groups merge
    back in ordinal order, so the failure list (and its digest) matches
    the serial ``ReplayHarness.check`` exactly.
    """
    from repro.analysis.symbex.replay import ReplayHarness

    witnesses = list(witnesses)

    def shard(index: int, count: int):
        harness = ReplayHarness(engines=engines)
        groups = []
        for ordinal, witness in enumerate(witnesses):
            if ordinal % count != index:
                continue
            groups.append(
                (ordinal, harness.check([witness], trial_timeout=trial_timeout))
            )
        return groups

    merged = sorted(
        (group for shard_groups in run_shards(shard, jobs) for group in shard_groups),
        key=lambda group: group[0],
    )
    return [failure for _, failures in merged for failure in failures]
