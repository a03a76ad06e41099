"""Spans around the program's layers, recorded from outside ``src/``.

:func:`install` replaces each traced function or method with a wrapper
that opens a span, calls the original and closes the span.  A span's
self time is its duration minus the durations of the spans nested
directly inside it; spans of one thread nest strictly, so that is the
part of the interval its children cover.

Per process, a :class:`Tracer` folds spans into per-name totals
(count, inclusive time, self time, units of work) plus raw durations
for a few names whose percentiles are reported.  Cloud workers are
forked after :func:`install`, so they inherit the wrappers; they never
run ``atexit``, so each worker appends one JSON line per served request
(the ``serve`` span, keyed by the request's idempotency key) to a file
named after its PID.  The benchmark process reads those files after the
pool has stopped.

Wrapped code must run on one thread at a time per process: the cloud
parent only serves requests itself on its single degraded-path thread.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: Span names whose individual durations are kept, not just totals.
SAMPLED = ("restore", "trial")

#: Marker attribute set on every wrapper, so tests can prove removal.
MARK = "__perfbench_span__"


class Tracer:
    """Span stack and per-name aggregates for one process."""

    def __init__(self, out_dir: Optional[str] = None, clock: Callable[[], float] = time.monotonic):
        self.out_dir = out_dir
        self.clock = clock
        self._stack: List[list] = []  # [name, start, child_seconds]
        self.reset()
        self._pid: Optional[int] = None
        self._file = None

    def reset(self) -> None:
        #: name -> [count, total_s, self_s, units]
        self.totals: Dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0, 0])
        self.samples: Dict[str, List[float]] = defaultdict(list)

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def exit(self, units: int = 0) -> Tuple[str, float, float]:
        name, start, child = self._stack.pop()
        end = self.clock()
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        entry = self.totals[name]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child
        entry[3] += units
        if name in SAMPLED:
            self.samples[name].append(duration)
        return name, start, end

    @property
    def depth(self) -> int:
        return len(self._stack)

    def flush_request(self, key: str, kind: str, start: float, end: float) -> None:
        """Append one served request's record to this process's file."""
        if self.out_dir is None:
            return
        pid = os.getpid()
        if self._pid != pid:  # first write in a (forked) process
            self._pid = pid
            self._file = open(os.path.join(self.out_dir, f"spans-{pid}.jsonl"), "a")
        record = {
            "id": key,
            "kind": kind,
            "start": start,
            "end": end,
            "totals": self.totals,
            "samples": self.samples,
        }
        self._file.write(json.dumps(record) + "\n")
        self._file.flush()
        self.reset()

    def close(self) -> None:
        if self._file is not None and self._pid == os.getpid():
            self._file.close()
        self._file = None
        self._pid = None


def read_records(out_dir: str) -> List[Dict]:
    """Every request record the workers wrote under ``out_dir``."""
    records = []
    for name in sorted(os.listdir(out_dir)):
        if name.startswith("spans-") and name.endswith(".jsonl"):
            with open(os.path.join(out_dir, name)) as handle:
                records.extend(json.loads(line) for line in handle if line.strip())
    return records


def merge_totals(parts: Iterable[Dict[str, list]]) -> Dict[str, list]:
    merged: Dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0, 0])
    for part in parts:
        for name, (count, total, self_s, units) in part.items():
            entry = merged[name]
            entry[0] += count
            entry[1] += total
            entry[2] += self_s
            entry[3] += units
    return merged


# -- wrappers ------------------------------------------------------------


def _span(tracer: Tracer, name: str, fn, units=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.enter(name)
        done = 0
        try:
            result = fn(*args, **kwargs)
            if units is not None:
                done = units(args, result)
            return result
        finally:
            tracer.exit(done)

    setattr(wrapper, MARK, name)
    return wrapper


def _serve_span(tracer: Tracer, fn):
    """``serve_request(template, request, ...)``: the request's root span."""

    @functools.wraps(fn)
    def wrapper(template, request, *args, **kwargs):
        tracer.enter("serve")
        try:
            return fn(template, request, *args, **kwargs)
        finally:
            _, start, end = tracer.exit()
            if tracer.depth == 0:
                tracer.flush_request(request.key, request.kind, start, end)

    setattr(wrapper, MARK, "serve")
    return wrapper


def _bytes_hashed(args, _result) -> int:
    return len(args[1])


def _steps(_args, result) -> int:
    return result.steps


def targets() -> List[Tuple[object, str, str, Optional[Callable]]]:
    """``(owner, attribute, span name, units)`` for every traced layer.

    Owners are classes (patched in their own ``__dict__``; every caller
    resolves the method through the instance) or modules (patched in
    the defining module and in every ``repro`` module that from-imported
    the same function object).
    """
    from repro.arm import blocks, cpu
    from repro.cloud import worker
    from repro.crypto import hmac, rsa
    from repro.crypto.sha256 import SHA256
    from repro.faults import audit
    from repro.faults.snapshot import CampaignSnapshot
    from repro.monitor import enclave_exec, integrity
    from repro.monitor.komodo import KomodoMonitor
    from repro.monitor.measurement import MeasurementContext

    found = [
        (worker, "serve_request", "serve", None),
        (CampaignSnapshot, "restore", "restore", None),
        (KomodoMonitor, "smc", "smc", None),
        (KomodoMonitor, "recover", "recover", None),
        (enclave_exec, "dispatch_svc", "svc", None),
        (integrity, "precheck", "precheck", None),
        (MeasurementContext, "measure_page_contents", "measure", None),
        (SHA256, "update", "sha256", _bytes_hashed),
        (SHA256, "update_block_words", "sha256", lambda _a, _r: 64),
        (hmac, "hmac_sha256", "hmac", None),
        (rsa, "sign", "rsa_sign", None),
        (blocks, "compile_region", "compile", None),
        (audit, "audit_monitor", "audit", None),
    ]
    for klass in (cpu.CPU, cpu.FastCPU, cpu.TurboCPU):
        if "run" in vars(klass):
            found.append((klass, "run", "engine", _steps))
    return found


class Installation:
    """The wrappers one :func:`install` put in place."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        #: (owner, attribute, original) for every patched binding.
        self.patches: List[Tuple[object, str, object]] = []

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()
        self.tracer.close()


def install(tracer: Tracer) -> Installation:
    """Wrap every layer in :func:`targets`; returns the undo handle."""
    installation = Installation(tracer)
    for owner, attr, name, units in targets():
        original = vars(owner)[attr]
        if hasattr(original, MARK):
            raise RuntimeError(f"{attr} is already traced")
        if name == "serve":
            wrapper = _serve_span(tracer, original)
        else:
            wrapper = _span(tracer, name, original, units)
        if isinstance(owner, type):
            bindings = [owner]
        else:
            bindings = [
                module
                for mod_name, module in list(sys.modules.items())
                if mod_name.split(".")[0] == "repro"
                and getattr(module, attr, None) is original
            ]
        for binding in bindings:
            installation.patches.append((binding, attr, original))
            setattr(binding, attr, wrapper)
    return installation

