"""Fault injection and crash-consistency auditing for the monitor.

The paper's proofs quantify over *every* reachable state; this package
makes the states a watchdog reset can expose mid-SMC reachable in the
executable model and checks them:

* :mod:`repro.faults.injector` — deterministic plans that abort
  execution at the N-th machine-visible monitor operation;
* :mod:`repro.faults.audit` — post-crash consistency checking (spec
  invariants via extraction plus an independent machine-level walk);
* :mod:`repro.faults.campaign` — exhaustive per-step fault campaigns
  over a full enclave lifecycle, with OS-side retry to completion;
* :mod:`repro.faults.bitflip` — exhaustive single-bit-flip campaigns
  against the memory-integrity engine: every injection must end
  benign, repaired, or quarantined-and-contained, never in a silent
  wrong result;
* :mod:`repro.faults.snapshot` — campaign checkpoints: capture a
  lifecycle prefix once and rewind it in place per injected fault,
  bit-identical to the per-trial deep-copy path but cheaper;
* :mod:`repro.faults.parallel` — the campaign kernel every campaign
  (these two and ``repro.pipeline.campaign``) runs on: one trial loop
  (stride, serial ordinals, shard filter, watchdog), one shard merge
  that reproduces the serial report byte for byte (the CLIs' ``--jobs
  N``), and one multi-engine differential.
"""

from repro.faults.audit import (
    audit_monitor,
    integrity_consistency,
    machine_consistency,
    secure_state_digest,
)
from repro.faults.bitflip import (
    BitflipCampaign,
    BitflipReport,
    FlipRecord,
    FlipSite,
)
from repro.faults.campaign import (
    CampaignReport,
    LifecycleCampaign,
    StepReport,
    TrialRecord,
)
from repro.faults.injector import FaultInjected, FaultPlan, inject
from repro.faults.parallel import differential
from repro.faults.snapshot import CampaignSnapshot

__all__ = [
    "BitflipCampaign",
    "BitflipReport",
    "CampaignReport",
    "CampaignSnapshot",
    "FaultInjected",
    "FaultPlan",
    "FlipRecord",
    "FlipSite",
    "LifecycleCampaign",
    "StepReport",
    "TrialRecord",
    "audit_monitor",
    "differential",
    "inject",
    "integrity_consistency",
    "machine_consistency",
    "secure_state_digest",
]
