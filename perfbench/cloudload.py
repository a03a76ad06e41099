"""Cloud workloads: open-loop latency and closed-loop capacity.

An open-loop segment sends seeded Poisson arrivals at the workload's
fixed rate from one asyncio generator and times every request from the
moment it was *due*, so a stall also charges the requests queued behind
it.  A closed-loop segment keeps ``workers * pipeline_depth`` requests
outstanding and counts completions per second.  Every request carries a
unique nonce, so none is answered from the idempotency table.

Requests take the payload shapes of the repository's own cloud traffic
(``repro.cloud.chaos.base_payload``, which the chaos campaign and
``cloudbench`` send) with seeded random words; only ``checksum``, the
one kind that runs real ARM code, draws its length from a range.
"""

from __future__ import annotations

import asyncio
import dataclasses
import math
import multiprocessing
import os
import random
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.cloud.api import (
    MAX_PAYLOAD_WORDS,
    REQUEST_KINDS,
    CloudRequest,
    CloudResponse,
    results_digest,
)
from repro.cloud.chaos import base_payload
from repro.cloud.service import CloudService
from repro.cloud.worker import get_template

import stats
import tracing
from workloads import (
    CLOUD_ENGINE,
    CLOUD_WORKERS,
    NONCE_CLOSED,
    NONCE_OPEN,
    NONCE_WARMUP,
    PIPELINE_DEPTH,
    TRACE_SHARE,
    Workload,
    arrival_schedule,
)

#: Seconds of closed-loop load before any timing starts.  Freshly
#: forked workers serve markedly slower for their first few seconds.
WARMUP_SECONDS = 3.0
#: Share of an untraced run's seconds spent in the open-loop phase; the
#: closed-loop phase takes the rest.
OPEN_SHARE = 0.7
#: Untraced runs alternate this many open-loop and closed-loop segments.
ROUNDS = 10
#: Delay between building the schedule and its first due time.
LEAD_SECONDS = 0.05
#: Responses per run compared against the in-process golden.
GOLDEN_SAMPLE = 60
#: The generator is behind its schedule, and the run is invalid, when
#: its p99 lateness exceeds this.
MAX_GEN_LAG_P99_MS = 50.0
#: Error code given to a response that differs from its golden.
WRONG_RESULT = "wrong_result"
#: Inclusive range of ``checksum`` word counts, drawn uniformly: from one
#: compiled turbo region (8 words) up to the API's limit.
CHECKSUM_WORDS = (8, MAX_PAYLOAD_WORDS)
#: Nonces reserved for one open-loop segment: segment ``i`` numbers its
#: requests from ``NONCE_OPEN + i * SEGMENT_NONCES``.
SEGMENT_NONCES = 1 << 12


def make_service() -> CloudService:
    """The service every cloud workload measures (set-up probes too)."""
    return CloudService(
        workers=CLOUD_WORKERS, engine=CLOUD_ENGINE, pipeline_depth=PIPELINE_DEPTH
    )


@dataclass
class Served:
    """One request's outcome, with its timing on the parent's clock."""

    request: CloudRequest
    response: CloudResponse
    due: float
    done: float

    @property
    def latency(self) -> float:
        return self.done - self.due if self.response.ok else math.inf


@dataclass
class PhaseResult:
    """The requests one open-loop or closed-loop segment served."""

    served: List[Served] = field(default_factory=list)
    lags: List[float] = field(default_factory=list)
    start: float = 0.0
    wall: float = 0.0

    def latencies(self) -> List[float]:
        """Request latencies, in order of due time."""
        return [item.latency for item in sorted(self.served, key=lambda item: item.due)]

    @property
    def failed(self) -> int:
        return sum(1 for item in self.served if not item.response.ok)

    def digest(self) -> str:
        return results_digest(item.response for item in self.served)


def make_payload(rng: random.Random, kind: str) -> Tuple[int, ...]:
    """A payload as long as ``base_payload``'s for ``kind`` (``checksum``:
    drawn from ``CHECKSUM_WORDS``), filled with seeded random words;
    ``spin``'s one word, its count of preemption points, is kept."""
    shape = base_payload(kind, 0)
    if kind == "spin":
        return shape
    count = rng.randint(*CHECKSUM_WORDS) if kind == "checksum" else len(shape)
    return tuple(rng.getrandbits(32) for _ in range(count))


def request_stream(seed: int, phase: int) -> Iterator[CloudRequest]:
    """Endless seeded requests, numbered from the nonce ``phase``.

    Kinds come in shuffled decks of all seven, so the first ``n``
    requests hold every kind equally often, to within one.
    """
    rng = random.Random(f"cloud/{seed}/{phase}")
    nonce = phase
    while True:
        deck = list(REQUEST_KINDS)
        rng.shuffle(deck)
        for kind in deck:
            yield CloudRequest(kind=kind, payload=make_payload(rng, kind), nonce=nonce)
            nonce += 1


async def closed_loop(
    service: CloudService, source: Iterator[CloudRequest], seconds: float
) -> PhaseResult:
    """Keep ``workers * depth`` requests from ``source`` outstanding for
    ``seconds``; only completions inside the window count."""
    loop = asyncio.get_running_loop()
    result = PhaseResult(start=loop.time())
    start = result.start
    stop = start + seconds

    async def client() -> None:
        while loop.time() < stop:
            request = next(source)
            issued = loop.time()
            response = await service.submit(request)
            done = loop.time()
            if done <= stop:
                result.served.append(Served(request, response, issued, done))

    await asyncio.gather(*(client() for _ in range(CLOUD_WORKERS * PIPELINE_DEPTH)))
    # Up to the last counted completion, so the rate is not quantised
    # by the fixed window.
    result.wall = max((item.done for item in result.served), default=stop) - start
    return result


async def open_loop(
    service: CloudService, requests: List[CloudRequest], offsets: List[float]
) -> PhaseResult:
    """Send each request at its due time; never wait for replies."""
    loop = asyncio.get_running_loop()
    result = PhaseResult()

    async def one(request: CloudRequest, due: float) -> None:
        response = await service.submit(request)
        result.served.append(Served(request, response, due, loop.time()))

    tasks = []
    start = result.start = loop.time() + LEAD_SECONDS
    for request, offset in zip(requests, offsets):
        due = start + offset
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        result.lags.append(loop.time() - due)
        tasks.append(loop.create_task(one(request, due)))
    await asyncio.gather(*tasks)
    result.wall = loop.time() - start
    return result


def open_loop_segments(
    workload: Workload, seed: int, seconds: float, rounds: int
) -> List[Tuple[List[CloudRequest], List[float]]]:
    """Cut one seeded Poisson schedule of ``seconds`` into ``rounds``
    consecutive segments of equal length, each re-based to start at zero.

    Each segment takes its requests from a stream of its own, so it holds
    every kind equally often and its percentiles do not depend on how
    the kinds happened to be sampled.
    """
    width = seconds / rounds
    segments: List[Tuple[List[CloudRequest], List[float]]] = [([], []) for _ in range(rounds)]
    for offset in arrival_schedule(workload.rate, seconds, seed):
        index = min(int(offset / width), rounds - 1)
        segments[index][1].append(offset - index * width)
    for index, (requests, offsets) in enumerate(segments):
        if len(offsets) > SEGMENT_NONCES:
            raise ValueError(f"open-loop segment of {len(offsets)} requests")
        source = request_stream(seed, NONCE_OPEN + index * SEGMENT_NONCES)
        requests.extend(next(source) for _ in offsets)
    return segments


def check_golden(spec: Dict, phases: List[PhaseResult], seed: int) -> List[str]:
    """Compare a seeded sample of the run's responses with in-process
    goldens.

    A mismatching response is marked failed in place (its latency
    becomes infinite) and reported.
    """
    template = get_template(spec)
    everything = [item for phase in phases for item in phase.served]
    rng = random.Random(f"golden/{seed}")
    problems = []
    for index in sorted(rng.sample(range(len(everything)), min(GOLDEN_SAMPLE, len(everything)))):
        item = everything[index]
        if not item.response.ok:
            continue
        expected = template.expected(item.request)
        if expected.digest() != item.response.digest():
            problems.append(f"{item.request.kind} {item.request.key}: wrong result")
            item.response = dataclasses.replace(
                item.response, ok=False, error_code=WRONG_RESULT
            )
    return problems


@dataclass
class CloudRun:
    #: Untraced rounds: each an open-loop segment, then (unless traced)
    #: a closed-loop segment.
    opens: List[PhaseResult] = field(default_factory=list)
    closeds: List[PhaseResult] = field(default_factory=list)
    traced: Optional[PhaseResult] = None
    records: List[Dict] = field(default_factory=list)
    counters: Dict = field(default_factory=dict)
    rss_mb: float = 0.0
    spec: Dict = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)

    def phases(self) -> List[PhaseResult]:
        return [*self.opens, *self.closeds, *([self.traced] if self.traced else [])]


async def _serve_phases(workload: Workload, seed: int, seconds: float, trace_dir: Optional[str]) -> CloudRun:
    """Untraced, the run alternates ``ROUNDS`` open-loop and closed-loop
    segments, so each metric's median over rounds is taken from samples
    spread over the whole run.  Traced, it serves one open-loop phase
    untraced and then the same phase traced, on a fresh pool."""
    traced = trace_dir is not None
    open_seconds = (TRACE_SHARE if traced else OPEN_SHARE) * seconds
    rounds = 1 if traced else ROUNDS
    segments = open_loop_segments(workload, seed, open_seconds, rounds)
    closed_seconds = (1 - OPEN_SHARE) * seconds / rounds
    run = CloudRun()
    service = make_service()
    await service.start()
    try:
        await closed_loop(service, request_stream(seed, NONCE_WARMUP), WARMUP_SECONDS)
        closed_source = request_stream(seed, NONCE_CLOSED)
        for part, part_offsets in segments:
            run.opens.append(await open_loop(service, part, part_offsets))
            if not traced:
                run.closeds.append(
                    await closed_loop(service, closed_source, closed_seconds)
                )
        run.rss_mb = stats.peak_rss_mb(
            [os.getpid(), *(child.pid for child in multiprocessing.active_children())]
        )
        run.spec = service.spec
    finally:
        await service.close()
    if traced:
        requests, offsets = segments[0]
        run.traced, run.records, run.counters = await _traced_phase(
            seed, requests, offsets, trace_dir
        )
    return run


async def _traced_phase(seed, requests, offsets, trace_dir):
    tracer = tracing.Tracer(out_dir=trace_dir)
    installation = tracing.install(tracer)
    try:
        service = make_service()
        await service.start()  # workers fork with the wrappers in place
        try:
            await closed_loop(service, request_stream(seed, NONCE_WARMUP), WARMUP_SECONDS)
            traced = await open_loop(service, requests, offsets)
            counters = service.stats()
        finally:
            await service.close()
    finally:
        installation.uninstall()
    keys = {request.key for request in requests}
    records = [r for r in tracing.read_records(trace_dir) if r["id"] in keys]
    return traced, records, counters


def run(workload: Workload, seed: int, seconds: float, trace_dir: Optional[str] = None) -> CloudRun:
    """Serve the workload's phases; check outputs against goldens."""
    result = asyncio.run(_serve_phases(workload, seed, seconds, trace_dir))
    phases = result.phases()
    result.problems.extend(
        f"{item.request.kind}: {item.response.error_code}"
        for phase in phases
        for item in phase.served
        if not item.response.ok
    )
    result.problems.extend(check_golden(result.spec, phases, seed))
    if result.traced is not None and result.traced.digest() != result.opens[0].digest():
        result.problems.append("traced results_digest differs from the untraced one")
    return result
