"""The repository benchmark: one command per workload, checked outputs.

Usage, from the repository root::

    python3 perfbench/run.py --workload cloud-mix --seed 1 --seconds 45 --trace 0

Workloads (see ``workloads.py`` for why each exists):

* ``cloud-mix`` — a live ``CloudService`` with two turbo workers,
  alternating open-loop segments of seeded Poisson arrivals at a fixed
  rate, each holding the seven request kinds in equal shares (latency
  timed from each request's due time), with closed-loop
  segments keeping ``workers * pipeline_depth`` = 4 requests
  outstanding (capacity);
* ``campaign-lifecycle`` — serial turbo ``LifecycleCampaign`` runs at a
  fixed stride; an operation is one injected-fault trial, and
  ``max_rps`` is the campaign's trials per second.

Timings are medians over a run's segments (or campaigns), so a burst of
load from outside the program in one of them does not move the result.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload untraced and then traced (same inputs), checks that both give
the same digests, and prints the per-layer metrics.  Human-readable
lines come first; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  A run whose outputs
are wrong, or whose load generator fell behind its schedule, prints
``"correct": false`` with no metrics and exits with status 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import platform
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Dict, List, Tuple

import stats

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Set-up is measured this many times per run, in fresh processes,
#: by kind of workload (a campaign's set-up is short, so noisier).
SETUP_SAMPLES = {"cloud": 3, "campaign": 7}
#: Prefix of the per-run directory for worker span files (inside the
#: checkout; removed when the run ends).
RUN_DIR_PREFIX = ".perfbench_run-"


def _require_program() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program source under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))


# -- set-up ----------------------------------------------------------------


def setup_probe(name: str) -> None:
    """Child side of a set-up sample: get ready, say so, then tear down
    once the parent closes our stdin."""
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    if workload.kind == "cloud":
        import asyncio

        import cloudload

        async def serve() -> None:
            service = cloudload.make_service()
            await service.start()
            try:
                print("ready", flush=True)
                await asyncio.get_running_loop().run_in_executor(None, sys.stdin.read)
            finally:
                await service.close()

        asyncio.run(serve())
    else:
        import campaignload

        campaignload.TimedCampaign(engine=campaignload.ENGINE, stride=workload.stride)
        print("ready", flush=True)
        sys.stdin.read()


def measure_setup(workload) -> List[float]:
    """Seconds from process start to ready, once per sample."""
    name = workload.name
    samples = []
    for _ in range(SETUP_SAMPLES[workload.kind]):
        start = time.monotonic()
        child = subprocess.Popen(
            [sys.executable, __file__, "--setup-probe", name],
            cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        try:
            line = child.stdout.readline()
            samples.append(time.monotonic() - start)
            child.stdin.close()
            child.wait(timeout=60)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
            child.stdout.close()
        if line.strip() != "ready":
            raise RuntimeError(f"set-up probe for {name} exited with {child.returncode}")
    return samples


# -- metrics ---------------------------------------------------------------

#: (name, unit) of every end-to-end metric, as BENCHMARK.json lists them.
END_TO_END = (
    ("setup_s", "s"),
    ("max_rps", "1/s"),
    ("peak_rss_mb", "MB"),
)


def per_layer_metrics() -> Tuple[Tuple[str, str], ...]:
    """(name, unit) of every per-layer metric, as BENCHMARK.json lists
    them.  Imports the program, so only once the run needs them."""
    from repro.cloud.api import REQUEST_KINDS

    return (
        ("cloud.queue_wait_ms.p50", "ms"),
        ("cloud.queue_wait_ms.p90", "ms"),
        ("cloud.reply_ms.p50", "ms"),
        ("cloud.latency_ms.p50", "ms"),
        ("cloud.latency_ms.p90", "ms"),
        ("cloud.latency_ms.p99", "ms"),
        ("gen.lag_ms.p99", "ms"),
        ("cloud.retries", "count"),
        ("cloud.degraded", "count"),
        *((f"cloud.serve_ms.{kind}.p50", "ms") for kind in REQUEST_KINDS),
        ("snapshot.restores", "count"),
        ("snapshot.restore_us.p50", "us"),
        ("monitor.smc_calls", "count"),
        ("monitor.smc_self_ms", "ms"),
        ("monitor.svc_calls", "count"),
        ("monitor.svc_self_ms", "ms"),
        ("integrity.prechecks", "count"),
        ("integrity.precheck_ms", "ms"),
        ("measure.pages", "count"),
        ("measure.page_ms", "ms"),
        ("crypto.sha256_bytes", "bytes"),
        ("crypto.sha256_ms", "ms"),
        ("crypto.hmac_calls", "count"),
        ("crypto.hmac_ms", "ms"),
        ("crypto.rsa_sign_ms", "ms"),
        ("engine.steps", "count"),
        ("engine.run_ms", "ms"),
        ("engine.compiles", "count"),
        ("engine.compile_ms", "ms"),
        ("audit.calls", "count"),
        ("audit.ms", "ms"),
        ("recover.calls", "count"),
        ("recover.ms", "ms"),
        ("campaign.trial_ms.p50", "ms"),
        ("campaign.trial_ms.p90", "ms"),
        ("trace.ops", "count"),
        ("trace.overhead_ms", "ms"),
    )


#: Per-layer metrics read from span totals: name -> (span, statistic).
#: ``*_self_ms`` is self time; every other ``_ms`` is inclusive time.
SPAN_METRICS = {
    "snapshot.restores": ("restore", "count"),
    "monitor.smc_calls": ("smc", "count"),
    "monitor.smc_self_ms": ("smc", "self_ms"),
    "monitor.svc_calls": ("svc", "count"),
    "monitor.svc_self_ms": ("svc", "self_ms"),
    "integrity.prechecks": ("precheck", "count"),
    "integrity.precheck_ms": ("precheck", "ms"),
    "measure.pages": ("measure", "count"),
    "measure.page_ms": ("measure", "ms"),
    "crypto.sha256_bytes": ("sha256", "units"),
    "crypto.sha256_ms": ("sha256", "ms"),
    "crypto.hmac_calls": ("hmac", "count"),
    "crypto.hmac_ms": ("hmac", "ms"),
    "crypto.rsa_sign_ms": ("rsa_sign", "ms"),
    "engine.steps": ("engine", "units"),
    "engine.run_ms": ("engine", "ms"),
    "engine.compiles": ("compile", "count"),
    "engine.compile_ms": ("compile", "ms"),
    "audit.calls": ("audit", "count"),
    "audit.ms": ("audit", "ms"),
    "recover.calls": ("recover", "count"),
    "recover.ms": ("recover", "ms"),
}


def span_metrics(totals: Dict[str, list], samples: Dict[str, List[float]]) -> Dict[str, float]:
    values = {}
    for metric, (span, stat) in SPAN_METRICS.items():
        count, total, self_s, units = totals.get(span, (0, 0.0, 0.0, 0))
        values[metric] = {
            "count": count, "units": units, "ms": total * 1e3, "self_ms": self_s * 1e3,
        }[stat]
    values["snapshot.restore_us.p50"] = stats.median(samples.get("restore", [])) * 1e6
    return values


def ms(value: float) -> float:
    return value * 1e3


@dataclass
class Outcome:
    """A workload run's metrics, operation counts and check failures."""

    metrics: Dict[str, float]
    attempted: int
    failed: int
    problems: List[str]


# -- cloud -----------------------------------------------------------------


def cloud_run(workload, seed: int, seconds: float, trace: bool) -> Tuple[Outcome, List[str]]:
    import cloudload

    if trace:
        with tempfile.TemporaryDirectory(prefix=RUN_DIR_PREFIX, dir=ROOT) as trace_dir:
            result = cloudload.run(workload, seed, seconds, trace_dir)
    else:
        result = cloudload.run(workload, seed, seconds)
    phases = result.phases()
    attempted = sum(len(p.served) for p in phases)
    failed = sum(p.failed for p in phases)
    rounds = [phase.latencies() for phase in result.opens]
    latencies = [latency for part in rounds for latency in part]
    lags = [lag for phase in result.opens for lag in phase.lags]
    lag_p99 = ms(stats.percentile(lags, 99))
    p50, p90 = (
        ms(stats.median([stats.percentile(part, q) for part in rounds])) for q in (50, 90)
    )
    tail_pct, tail_value = stats.tail(latencies)
    lines = [
        f"open loop: Poisson arrivals at {workload.rate:g} req/s offered, "
        f"{len(latencies)} requests in {len(rounds)} segments, latency timed from each due time",
        f"  p50 {p50:.3f} ms, p90 {p90:.3f} ms (medians over segments); "
        f"pooled p50 {ms(stats.percentile(latencies, 50)):.3f} ms, "
        f"p90 {ms(stats.percentile(latencies, 90)):.3f} ms, "
        f"tail p{tail_pct:g} {ms(tail_value):.3f} ms (n={len(latencies)})",
        f"  gen.lag_ms.p99 {lag_p99:.3f} ms (limit {cloudload.MAX_GEN_LAG_P99_MS:g} ms)",
    ]
    problems = list(result.problems)
    if lag_p99 > cloudload.MAX_GEN_LAG_P99_MS:
        problems.append(f"load generator fell behind its schedule (lag p99 {lag_p99:.1f} ms)")
    metrics: Dict[str, float] = {"peak_rss_mb": result.rss_mb}
    if result.closeds:
        rates = [
            sum(1 for item in phase.served if item.response.ok) / phase.wall
            for phase in result.closeds
        ]
        completed = sum(len(phase.served) for phase in result.closeds)
        metrics["max_rps"] = stats.median(rates)
        lines.append(
            f"closed loop: {cloudload.CLOUD_WORKERS * cloudload.PIPELINE_DEPTH} requests "
            f"outstanding ({cloudload.CLOUD_WORKERS} workers x pipeline depth "
            f"{cloudload.PIPELINE_DEPTH}), {completed} completed in {len(rates)} segments"
        )
        lines.append(
            f"  max_rps {metrics['max_rps']:.2f} 1/s (median over segments: "
            + ", ".join(f"{rate:.1f}" for rate in rates) + ")"
        )
    if result.traced is not None:
        metrics.update(_cloud_layers(result, latencies, lag_p99))
        lines.append(
            f"traced open loop: {len(result.records)} request records; results_digest "
            f"{result.traced.digest()[:16]} (untraced {result.opens[0].digest()[:16]})"
        )
    lines.append(f"peak_rss_mb {result.rss_mb:.1f} MB (parent plus workers)")
    return Outcome(metrics, attempted, failed, problems), lines


def _cloud_layers(result, latencies, lag_p99) -> Dict[str, float]:
    import cloudload
    import tracing

    due = {item.request.key: item.due for item in result.traced.served}
    done = {item.request.key: item.done for item in result.traced.served}
    records = result.records
    waits = [r["start"] - due[r["id"]] for r in records]
    replies = [done[r["id"]] - r["end"] for r in records]
    values = {
        "cloud.queue_wait_ms.p50": ms(stats.percentile(waits, 50)),
        "cloud.queue_wait_ms.p90": ms(stats.percentile(waits, 90)),
        "cloud.reply_ms.p50": ms(stats.percentile(replies, 50)),
        "cloud.latency_ms.p50": ms(stats.percentile(latencies, 50)),
        "cloud.latency_ms.p90": ms(stats.percentile(latencies, 90)),
        "cloud.latency_ms.p99": ms(stats.percentile(latencies, 99)),
        "gen.lag_ms.p99": lag_p99,
        "cloud.retries": result.counters.get("retries", 0),
        "cloud.degraded": result.counters.get("degraded", 0),
    }
    for kind in cloudload.REQUEST_KINDS:
        serve = [r["end"] - r["start"] for r in records if r["kind"] == kind]
        values[f"cloud.serve_ms.{kind}.p50"] = ms(stats.median(serve))
    totals = tracing.merge_totals(r["totals"] for r in records)
    samples = {"restore": [s for r in records for s in r["samples"].get("restore", [])]}
    values.update(span_metrics(totals, samples))
    traced_latencies = [item.latency for item in result.traced.served]
    values["trace.ops"] = len(records)
    values["trace.overhead_ms"] = ms(
        stats.percentile(traced_latencies, 50) - stats.percentile(latencies, 50)
    )
    return values


# -- campaign --------------------------------------------------------------


def campaign_run(workload, seed: int, seconds: float, trace: bool) -> Tuple[Outcome, List[str]]:
    import campaignload

    result = campaignload.run(workload, seed, seconds, trace)
    base = result.untraced
    phases = [p for p in (base, result.traced) if p is not None]
    per_campaign = base.trial_seconds
    p50, p90 = (
        ms(stats.median([stats.percentile(trials, q) for trials in per_campaign]))
        for q in (50, 90)
    )
    every_trial = [t for trials in per_campaign for t in trials]
    tail_pct, tail_value = stats.tail(every_trial)
    trials_per_s = stats.median(
        [len(trials) / wall for trials, wall in zip(per_campaign, base.walls)]
    )
    rss = stats.peak_rss_mb([os.getpid()])
    metrics = {"max_rps": trials_per_s, "peak_rss_mb": rss}
    lines = [
        f"campaign: {len(base.seeds)} serial turbo LifecycleCampaign runs at stride "
        f"{workload.stride}, alternating seeds {sorted(set(base.seeds))}",
        f"  trials_per_s {trials_per_s:.2f} 1/s (median over campaigns: "
        + ", ".join(f"{len(t) / w:.1f}" for t, w in zip(per_campaign, base.walls))
        + "; reported as max_rps: a closed loop of one outstanding trial)",
        f"  trial p50 {p50:.3f} ms, p90 {p90:.3f} ms (medians over campaigns); "
        f"tail p{tail_pct:g} {ms(tail_value):.3f} ms (n={len(every_trial)})",
        f"peak_rss_mb {rss:.1f} MB",
    ]
    if result.traced is not None:
        tracer = result.tracer
        metrics.update(span_metrics(tracer.totals, tracer.samples))
        trials = tracer.samples.get("trial", [])
        metrics["campaign.trial_ms.p50"] = ms(stats.percentile(trials, 50))
        metrics["campaign.trial_ms.p90"] = ms(stats.percentile(trials, 90))
        metrics["trace.ops"] = len(trials)
        metrics["trace.overhead_ms"] = metrics["campaign.trial_ms.p50"] - ms(
            stats.percentile(every_trial, 50)
        )
        lines.append(
            f"traced: {len(result.traced.seeds)} campaigns, report digests "
            + ", ".join(d[:12] for d in result.traced.digests)
        )
    attempted = sum(p.trials for p in phases)
    failed = sum(p.failed for p in phases)
    return Outcome(metrics, attempted, failed, result.problems), lines


# -- main ------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="WORKLOAD", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _require_program()
    from workloads import WORKLOADS

    if args.setup_probe:
        setup_probe(args.setup_probe)
        return 0
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    print(
        f"perfbench: workload {workload.name}, seed {args.seed}, {args.seconds:g} s, "
        f"trace {args.trace}; host nproc={os.cpu_count()}, python {platform.python_version()}"
    )
    setup = [] if args.trace else measure_setup(workload)
    runner = cloud_run if workload.kind == "cloud" else campaign_run
    outcome, lines = runner(workload, args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    for problem in outcome.problems:
        print(f"problem: {problem}")
    if args.trace:
        # A layer the workload never enters reports zero.
        metrics = {name: (outcome.metrics.get(name, 0), unit) for name, unit in per_layer_metrics()}
    else:
        outcome.metrics["setup_s"] = stats.median(setup)
        print(f"setup_s {outcome.metrics['setup_s']:.3f} s (median of {len(setup)} fresh processes)")
        metrics = {name: (outcome.metrics[name], unit) for name, unit in END_TO_END}
    attempted, failed = outcome.attempted, outcome.failed
    print(f"error_rate {failed / attempted:.6f} ({failed} of {attempted} operations)")
    correct = (
        not outcome.problems
        and failed == 0
        and all(math.isfinite(value) for value, _ in metrics.values())
    )
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(value), "unit": unit} for name, (value, unit) in metrics.items()
        } if correct else {},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
