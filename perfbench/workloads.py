"""The benchmark's workloads: names, reasons, and seeded schedules.

Every input is a pure function of the ``--seed`` argument: the
open-loop arrival schedule and the campaign seeds here, and the cloud
requests and their payloads in ``cloudload.py``.  The program under
test receives only the generated inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterator, List

#: Worker processes for every cloud workload (at most ``nproc`` on the
#: two-core hosts the baseline was recorded on).
CLOUD_WORKERS = 2
#: The service's default pipeline depth; the closed-loop phase keeps
#: ``CLOUD_WORKERS * PIPELINE_DEPTH`` requests outstanding.
PIPELINE_DEPTH = 2
CLOUD_ENGINE = "turbo"

#: Share of a traced run's seconds given to its untraced phase; the
#: traced phase then serves the same inputs again.
TRACE_SHARE = 0.45

#: Nonce offsets keep the phases' idempotency keys disjoint, so no
#: request is ever answered from the service's idempotency table.
NONCE_WARMUP = 0
NONCE_OPEN = 1 << 20
NONCE_CLOSED = 2 << 20


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "cloud" or "campaign"
    #: Cloud: fixed offered rate of the open-loop segments, requests/s:
    #: about a twelfth of the closed-loop capacity (``max_rps``) on the
    #: two-core host the baseline was recorded on, whose speed swings by
    #: tens of percent over minutes.  Queueing delay turns such a swing
    #: into a larger one in latency, the more so the nearer the rate is
    #: to capacity: in runs alternated on seeds 1-6, the spread of p50
    #: (quartile distance over median) was 0.11 at 10 req/s and 0.36 at 20.
    rate: float = 0.0
    #: Campaign: fault-injection stride.
    stride: int = 0


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="cloud-mix",
            why=(
                "representative tenant traffic: all seven request kinds in equal "
                "shares at a fixed Poisson rate; HMAC/SHA-256, the ARM engine and "
                "monitor prechecks take most of the service time"
            ),
            kind="cloud",
            rate=10.0,
        ),
        Workload(
            name="campaign-lifecycle",
            why=(
                "the verification user's serial turbo lifecycle fault campaign: "
                "measurement hashing, audit, recovery and whole-lifecycle "
                "rewinds, with no IPC"
            ),
            kind="campaign",
            stride=2,
        ),
    )
}


def arrival_schedule(rate: float, seconds: float, seed: int) -> List[float]:
    """Seeded Poisson arrival offsets (seconds from the phase start)."""
    rng = random.Random(f"arrivals/{seed}")
    offsets = []
    t = rng.expovariate(rate)
    while t < seconds:
        offsets.append(t)
        t += rng.expovariate(rate)
    return offsets


def campaign_seeds(seed: int) -> Iterator[int]:
    """The campaign seeds one run cycles through.

    Two distinct seeds alternate, so every seed's campaign runs more
    than once in a long enough run and its ``report_digest`` can be
    compared across repeats.
    """
    base = random.Random(f"campaign/{seed}").getrandbits(32)
    index = 0
    while True:
        yield (base + (index % 2)) & 0xFFFFFFFF
        index += 1
