"""Delta-snapshot / sharded-campaign benchmark + CI gate (``BENCH_PR10.json``).

Measures the two mechanisms this perf PR added and pins them in CI:

* **restore** — ``MachineState.restore`` latency, full-buffer copy vs
  O(dirty-pages) delta, across dirty-page counts bracketing the real
  cloud-request footprints (attest/seal/unseal dirty ~3 pages, sign ~5,
  a full pipeline ~8).  The delta/full ratio is an in-process wall
  ratio, so it is stable across hosts — the gate requires the delta
  path to stay >= ``RESTORE_FLOOR`` x faster at the request footprint;
* **campaign** — fault-campaign trials/s, serial vs ``--jobs N``
  sharded (``repro.faults.parallel``), asserting the merged report
  digest equals the serial one.  Parallel *speedup* is only meaningful
  with real cores: the gate arms the >= ``PARALLEL_FLOOR`` x check
  only when the measuring host has >= ``PARALLEL_MIN_CORES`` cores
  (a single-core container can only show the byte-identity half);
* **cloud** — end-to-end enclave-cloud req/s with delta restore on vs
  off (``repro.arm.machine.DELTA_RESTORE``), recorded for context: the
  restore is one slice of a request's cost, so the end-to-end ratio is
  informative, not gated.

Usage::

    python -m repro.tools.deltabench                 # run + write JSON
    python -m repro.tools.deltabench --check         # CI gate
    python -m repro.tools.deltabench --summary-md    # markdown table

``--check`` validates the committed JSON structurally, then re-measures
on the current host: the restore ratio live, the sharded-vs-serial
report digest live, and (on >= ``PARALLEL_MIN_CORES``-core hosts) the
parallel campaign speedup live.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import pathlib
import sys
import time
from typing import Dict, List, Optional

from repro.arm.machine import MachineState
from repro.faults.campaign import LifecycleCampaign
from repro.faults.parallel import report_digest, run_sharded
from repro.util.watchdog import TrialTimeout, time_limit

BENCH_VERSION = 1
DEFAULT_PATH = pathlib.Path(__file__).resolve().parents[3] / "BENCH_PR10.json"

#: Secure-page count matching the cloud worker template.
SECURE_PAGES = 48
#: Dirty-page counts to sweep; FOOTPRINT_PAGES brackets the heaviest
#: real cloud request (a full pipeline dirties ~8 pages).
DIRTY_COUNTS = (1, 2, 4, 8, 16)
FOOTPRINT_PAGES = 8
RESTORE_ITERATIONS = 400

#: Gates.
RESTORE_FLOOR = 5.0  # delta restore >= 5x faster at the request footprint
PARALLEL_FLOOR = 2.0  # --jobs 4 >= 2x serial trials/s ...
PARALLEL_MIN_CORES = 4  # ... but only on hosts with real cores
PARALLEL_JOBS = 4
CAMPAIGN_STRIDE = 6
CAMPAIGN_SEED = 0xC0FFEE


# -- restore microbenchmark -------------------------------------------------


def _time_restore(state, snap, pages: List[int], delta: bool, iterations: int) -> float:
    """Mean microseconds per (dirty ``pages`` + restore) round trip."""
    memory = state.memory
    addresses = [state.memmap.page_base(page) for page in pages]
    start = time.perf_counter()
    for _ in range(iterations):
        for address in addresses:
            memory.write_word(address, 0xD117)
        state.restore(snap, delta=delta)
    return (time.perf_counter() - start) / iterations * 1e6


def bench_restore(iterations: int = RESTORE_ITERATIONS) -> Dict:
    """Full vs delta restore latency by dirty-page count."""
    state = MachineState.boot(secure_pages=SECURE_PAGES)
    snap = state.snapshot()
    rows = []
    for count in DIRTY_COUNTS:
        pages = list(range(count))
        delta_us = _time_restore(state, snap, pages, True, iterations)
        full_us = _time_restore(state, snap, pages, False, iterations)
        # The full path un-anchors nothing (same token), so re-anchor
        # semantics stay intact; assert both paths land bit-identical.
        rows.append(
            {
                "dirty_pages": count,
                "delta_us": round(delta_us, 2),
                "full_us": round(full_us, 2),
                "speedup": round(full_us / delta_us, 2),
            }
        )
    footprint = next(row for row in rows if row["dirty_pages"] == FOOTPRINT_PAGES)
    return {
        "secure_pages": SECURE_PAGES,
        "memory_bytes": len(state.memory._buf),
        "iterations": iterations,
        "rows": rows,
        "footprint_pages": FOOTPRINT_PAGES,
        "footprint_speedup": footprint["speedup"],
    }


# -- campaign parallelism ---------------------------------------------------


def bench_campaign(
    jobs: int = PARALLEL_JOBS, stride: int = CAMPAIGN_STRIDE
) -> Dict:
    """Serial vs sharded campaign wall time + report byte-identity."""
    start = time.perf_counter()
    serial = LifecycleCampaign(
        seed=CAMPAIGN_SEED, engine="turbo", stride=stride
    ).run()
    serial_s = time.perf_counter() - start
    start = time.perf_counter()
    sharded = run_sharded(
        lambda shard: LifecycleCampaign(
            seed=CAMPAIGN_SEED, engine="turbo", stride=stride, shard=shard
        ),
        jobs,
    )
    jobs_s = time.perf_counter() - start
    serial_digest = report_digest(serial)
    return {
        "jobs": jobs,
        "stride": stride,
        "trials": serial.total_trials,
        "serial_s": round(serial_s, 3),
        "jobs_s": round(jobs_s, 3),
        "serial_trials_per_s": round(serial.total_trials / serial_s, 2),
        "jobs_trials_per_s": round(sharded.total_trials / jobs_s, 2),
        "speedup": round(serial_s / jobs_s, 2),
        "digests_equal": serial_digest == report_digest(sharded),
        "report_digest": serial_digest,
        "violations": len(serial.violations),
    }


# -- cloud end-to-end -------------------------------------------------------


def bench_cloud(repeats: int = 3) -> Dict:
    """Enclave-cloud req/s with delta restore on vs off (context only)."""
    import repro.arm.machine as machine_mod
    from repro.tools.cloudbench import _bench_config, workload

    requests = workload(seed=0xBE7C, per_kind=4)

    def best(delta: bool) -> Dict:
        machine_mod.DELTA_RESTORE = delta
        try:
            runs = [
                asyncio.run(_bench_config("turbo", 1, requests))
                for _ in range(repeats)
            ]
        finally:
            machine_mod.DELTA_RESTORE = True
        digests = {run["digest"] for run in runs}
        if len(digests) != 1:
            raise RuntimeError(
                f"delta={delta}: repeats disagree on results: {sorted(digests)}"
            )
        return max(runs, key=lambda run: run["req_per_s"])

    off = best(False)
    on = best(True)
    if on["digest"] != off["digest"]:
        raise RuntimeError("delta on/off runs disagree on results")
    return {
        "engine": "turbo",
        "workers": 1,
        "requests": len(requests),
        "repeats": repeats,
        "delta_on_req_per_s": on["req_per_s"],
        "delta_off_req_per_s": off["req_per_s"],
        "ratio": round(on["req_per_s"] / off["req_per_s"], 2),
    }


def run_bench(repeats: int = 3) -> Dict:
    return {
        "version": BENCH_VERSION,
        "cpu_cores": os.cpu_count() or 1,
        "restore": bench_restore(),
        "campaign": bench_campaign(),
        "cloud": bench_cloud(repeats=repeats),
    }


# -- the gate ---------------------------------------------------------------


def check_committed(data: Dict) -> List[str]:
    """Structural + ratio checks on the committed JSON."""
    problems = []
    if data.get("version") != BENCH_VERSION:
        return [f"unsupported bench version {data.get('version')!r}"]
    restore = data.get("restore", {})
    for row in restore.get("rows", []):
        if row.get("delta_us", 0) <= 0 or row.get("full_us", 0) <= 0:
            problems.append(f"restore row {row.get('dirty_pages')}: non-positive time")
    if restore.get("footprint_speedup", 0) < RESTORE_FLOOR:
        problems.append(
            f"committed delta-restore speedup "
            f"{restore.get('footprint_speedup')}x at "
            f"{restore.get('footprint_pages')} dirty pages is below the "
            f"{RESTORE_FLOOR}x gate"
        )
    campaign = data.get("campaign", {})
    if not campaign.get("digests_equal"):
        problems.append("committed campaign: sharded report digest != serial")
    if campaign.get("violations", 0):
        problems.append(
            f"committed campaign recorded {campaign['violations']} violation(s)"
        )
    if (
        data.get("cpu_cores", 1) >= PARALLEL_MIN_CORES
        and campaign.get("speedup", 0) < PARALLEL_FLOOR
    ):
        problems.append(
            f"committed --jobs {campaign.get('jobs')} speedup "
            f"{campaign.get('speedup')}x below the {PARALLEL_FLOOR}x gate "
            f"(recorded on a {data.get('cpu_cores')}-core host)"
        )
    cloud = data.get("cloud", {})
    for field in ("delta_on_req_per_s", "delta_off_req_per_s"):
        if cloud.get(field, 0) <= 0:
            problems.append(f"cloud: non-positive {field}")
    return problems


def check_live(quick_stride: int = 17) -> List[str]:
    """Re-measure the gated claims on the current host."""
    problems = []
    restore = bench_restore(iterations=200)
    if restore["footprint_speedup"] < RESTORE_FLOOR:
        problems.append(
            f"live delta-restore speedup {restore['footprint_speedup']}x at "
            f"{FOOTPRINT_PAGES} dirty pages is below the {RESTORE_FLOOR}x gate"
        )
    else:
        print(
            f"deltabench: live restore speedup at {FOOTPRINT_PAGES} dirty "
            f"pages: {restore['footprint_speedup']}x (gate {RESTORE_FLOOR}x)"
        )
    cores = os.cpu_count() or 1
    if cores >= PARALLEL_MIN_CORES:
        campaign = bench_campaign(jobs=PARALLEL_JOBS, stride=CAMPAIGN_STRIDE)
        if not campaign["digests_equal"]:
            problems.append("live sharded campaign digest != serial")
        if campaign["speedup"] < PARALLEL_FLOOR:
            problems.append(
                f"live --jobs {PARALLEL_JOBS} speedup {campaign['speedup']}x "
                f"below the {PARALLEL_FLOOR}x gate on a {cores}-core host"
            )
        else:
            print(
                f"deltabench: live --jobs {PARALLEL_JOBS} speedup "
                f"{campaign['speedup']}x on {cores} cores (gate {PARALLEL_FLOOR}x)"
            )
    else:
        # No cores to scale onto — still pin the byte-identity claim.
        serial = LifecycleCampaign(
            seed=CAMPAIGN_SEED, engine="turbo", stride=quick_stride
        ).run()
        sharded = run_sharded(
            lambda shard: LifecycleCampaign(
                seed=CAMPAIGN_SEED, engine="turbo", stride=quick_stride, shard=shard
            ),
            2,
        )
        if report_digest(serial) != report_digest(sharded):
            problems.append("live sharded campaign digest != serial")
        else:
            print(
                f"deltabench: live sharded digest equals serial "
                f"({serial.total_trials} trials; {cores}-core host, "
                f"speedup gate not armed)"
            )
    return problems


# -- CLI --------------------------------------------------------------------


def _table(data: Dict, markdown: bool) -> str:
    lines = []
    if markdown:
        lines += [
            "| dirty pages | delta us | full us | speedup |",
            "|---|---:|---:|---:|",
        ]
        for row in data["restore"]["rows"]:
            lines.append(
                f"| {row['dirty_pages']} | {row['delta_us']:.1f} "
                f"| {row['full_us']:.1f} | {row['speedup']:.1f}x |"
            )
    else:
        lines.append(f"{'dirty pages':>12} {'delta us':>9} {'full us':>9} {'speedup':>8}")
        for row in data["restore"]["rows"]:
            lines.append(
                f"{row['dirty_pages']:>12} {row['delta_us']:>9.1f} "
                f"{row['full_us']:>9.1f} {row['speedup']:>7.1f}x"
            )
    campaign = data["campaign"]
    cloud = data["cloud"]
    lines += [
        "",
        f"campaign: {campaign['trials']} trials, serial "
        f"{campaign['serial_trials_per_s']:.1f}/s vs --jobs {campaign['jobs']} "
        f"{campaign['jobs_trials_per_s']:.1f}/s ({campaign['speedup']:.2f}x), "
        f"digests equal: {campaign['digests_equal']}",
        f"cloud: delta on {cloud['delta_on_req_per_s']:.1f} req/s vs off "
        f"{cloud['delta_off_req_per_s']:.1f} req/s ({cloud['ratio']:.2f}x), "
        f"{data['cpu_cores']} core(s)",
    ]
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.deltabench",
        description="delta-restore and sharded-campaign benchmark",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="validate the committed JSON and re-measure the gated "
        "ratios on this host",
    )
    parser.add_argument(
        "--summary-md",
        action="store_true",
        help="print a markdown table from the JSON (for CI job summaries)",
    )
    parser.add_argument("--out", default=str(DEFAULT_PATH), metavar="PATH")
    parser.add_argument("--repeats", type=int, default=3, metavar="N")
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock watchdog over the whole run (CI safety net)",
    )
    args = parser.parse_args(argv)
    path = pathlib.Path(args.out)
    try:
        with time_limit(args.timeout, label="deltabench"):
            return _run(args, path)
    except TrialTimeout as timeout:
        print(f"deltabench: {timeout}")
        return 1


def _run(args, path: pathlib.Path) -> int:
    if args.check or args.summary_md:
        if not path.is_file():
            print(f"deltabench: {path} missing; run the bench and commit it")
            return 1
        with open(path) as handle:
            data = json.load(handle)
        if args.summary_md:
            print("### Delta snapshots & sharded campaigns\n")
            print(_table(data, markdown=True))
        if args.check:
            problems = check_committed(data)
            problems += check_live()
            if problems:
                for problem in problems:
                    print(f"deltabench: FAIL: {problem}")
                return 1
            print(f"deltabench: {path.name} OK — all gates hold")
        return 0
    if args.repeats < 1:
        raise SystemExit("deltabench: --repeats must be at least 1")
    data = run_bench(repeats=args.repeats)
    with open(path, "w") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(_table(data, markdown=False))
    print(f"deltabench: wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
