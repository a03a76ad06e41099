"""One-command experiment report: regenerate every paper artifact.

``python -m repro.tools.report`` runs the Table 3 microbenchmarks, the
Figure 5 notary series, and the Table 2 line counts directly (without
pytest) and prints the paper-vs-measured tables.  Useful for a quick
smoke of the whole reproduction.  ``table3_rows`` is also the Table 3
suite of ``python -m repro.tools.bench``, whose ``--check`` gates its
cycles exactly against ``BENCH.json``.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.apps.notary import NativeNotary, NotaryEnclave
from repro.arm.assembler import Assembler
from repro.monitor.errors import KomErr
from repro.monitor.komodo import KomodoMonitor
from repro.monitor.layout import Mapping, SMC, SVC
from repro.osmodel.kernel import OSKernel
from repro.sdk.builder import CODE_VA, EnclaveBuilder
from repro.sdk.native import NativeEnclaveProgram

CPU_MHZ = 900


@dataclass
class Row:
    name: str
    paper: float
    measured: float

    def render(self) -> str:
        ratio = self.measured / self.paper if self.paper else 0.0
        return f"  {self.name:36} {self.paper:>10.0f} {self.measured:>10.0f} {ratio:6.2f}x"


def table3_rows() -> List[Row]:
    """Regenerate the Table 3 microbenchmarks."""
    monitor = KomodoMonitor(secure_pages=64)
    kernel = OSKernel(monitor)
    rows: List[Row] = []

    def cycles(fn) -> int:
        before = monitor.state.cycles
        fn()
        return monitor.state.cycles - before

    rows.append(Row("GetPhysPages (null SMC)", 123,
                    cycles(lambda: monitor.smc(SMC.GET_PHYSPAGES))))

    asm = Assembler()
    asm.svc(SVC.EXIT)
    exit_enclave = EnclaveBuilder(kernel).add_code(asm).add_thread(CODE_VA).build()
    marks: Dict[str, int] = {}
    monitor.on_user_entry = lambda c: marks.__setitem__("entry", c)
    before = monitor.state.cycles
    exit_enclave.enter()
    rows.append(Row("Enter only (no return)", 496, marks["entry"] - before))
    rows.append(Row("Enter + Exit (full crossing)", 738, monitor.state.cycles - before))

    spin = Assembler()
    spin.label("spin")
    spin.b("spin")
    spin_enclave = EnclaveBuilder(kernel).add_code(spin).add_thread(CODE_VA).build()
    monitor.schedule_interrupt(3)
    spin_enclave.enter()
    monitor.schedule_interrupt(3)
    before = monitor.state.cycles
    spin_enclave.resume()
    rows.append(Row("Resume only (no return)", 625, marks["entry"] - before))

    crypto_marks: Dict[str, int] = {}

    def crypto_body(ctx, a, b, c):
        start = ctx.monitor.state.cycles
        mac = ctx.attest([0] * 8)
        crypto_marks["attest"] = ctx.monitor.state.cycles - start
        meas = ctx.monitor.pagedb.measurement(ctx.asno)
        start = ctx.monitor.state.cycles
        ok = ctx.verify([0] * 8, meas, mac)
        crypto_marks["verify"] = ctx.monitor.state.cycles - start
        return 1 if ok else 0
        yield

    crypto_enclave = (
        EnclaveBuilder(kernel)
        .set_native_program(NativeEnclaveProgram("report-crypto", crypto_body))
        .build()
    )
    if crypto_enclave.call() != (KomErr.SUCCESS, 1):
        raise RuntimeError("Table 3 attest/verify enclave failed")
    rows.append(Row("Attest", 12411, crypto_marks["attest"]))
    rows.append(Row("Verify", 13373, crypto_marks["verify"]))

    spare = kernel.alloc_page()
    rows.append(Row("AllocSpare", 217,
                    cycles(lambda: monitor.smc(SMC.ALLOC_SPARE, crypto_enclave.as_page, spare))))

    map_marks: Dict[str, int] = {}

    def map_body(ctx, spare_page, b, c):
        mapping = Mapping(
            va=0x0010_0000, readable=True, writable=True, executable=False
        ).encode()
        start = ctx.monitor.state.cycles
        ctx.map_data(spare_page, mapping)
        map_marks["mapdata"] = ctx.monitor.state.cycles - start
        return 0
        yield

    map_enclave = (
        EnclaveBuilder(kernel)
        .add_spares(1)
        .set_native_program(NativeEnclaveProgram("report-map", map_body))
        .build()
    )
    if map_enclave.call(map_enclave.spares[0])[0] is not KomErr.SUCCESS:
        raise RuntimeError("Table 3 MapData enclave failed")
    rows.append(Row("MapData", 5826, map_marks["mapdata"]))
    return rows


def figure5_rows(max_kb: int = 64) -> List[Row]:
    """Regenerate a truncated Figure 5 series (enclave ms vs native ms)."""
    monitor = KomodoMonitor(secure_pages=192, insecure_size=0x200000, step_budget=10**9)
    kernel = OSKernel(monitor)
    enclave_notary = NotaryEnclave(kernel, max_doc_bytes=max_kb * 1024)
    enclave_notary.init()
    native_notary = NativeNotary()
    native_notary.init()
    rows = []
    size_kb = 4
    while size_kb <= max_kb:
        document = bytes((i * 31) & 0xFF for i in range(size_kb * 1024))
        start = monitor.state.cycles
        enclave_notary.notarize(document)
        enclave_ms = (monitor.state.cycles - start) / CPU_MHZ / 1000
        start = native_notary.cycles
        native_notary.notarize(document)
        native_ms = (native_notary.cycles - start) / CPU_MHZ / 1000
        rows.append(Row(f"notary {size_kb} kB (native vs enclave, ms*100)",
                        native_ms * 100, enclave_ms * 100))
        size_kb *= 2
    return rows


def main() -> None:
    print("Komodo reproduction — experiment report")
    print()
    print("Table 3: microbenchmarks (cycles)")
    print(f"  {'operation':36} {'paper':>10} {'measured':>10}  ratio")
    for row in table3_rows():
        print(row.render())
    print()
    print("Figure 5: notary (values are ms x 100; 'paper' = native baseline)")
    for row in figure5_rows():
        print(row.render())
    print()
    print("Table 2: line counts")
    from repro.tools.linecount import component_linecounts, format_table

    root = pathlib.Path(__file__).resolve().parents[3]
    print(format_table(component_linecounts(root)))


if __name__ == "__main__":
    main()
