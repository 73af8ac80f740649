"""Layer ladder: per-call cost of each public function that the workloads'
ops are built from, timed in isolation on fixed seeded inputs.

Every figure is host-normalized like the end-to-end ones (see harness.py),
always against PLUMBING so a ladder figure means the same in every
workload's traced run.
Items that finish the calling thread's register file run last.
"""

from __future__ import annotations

import contextlib
import io
import random
from time import perf_counter_ns as clock

from harness import PLUMBING, timed_per_call

SMALL = 256        # bytes: per-call plumbing dominates (small-ops' middle)
LARGE = 1 << 20    # bytes: the cores dominate (bulk's cache-resident size)
PER_BYTE = 256     # bytes unhidden per call in the per-byte reload mode

REGFILE_FNS = ("setbnd_low", "setbnd_high", "setbnd128", "qsetbnd_low", "getbnd_low",
               "getbnd_high", "getbnd128", "qgetbnd_low", "reset_slot", "reset_all")
KINDS = ("memcmp", "memchr", "memcpy", "memmove", "memset")


def _loop(fn, *args, **kwargs):
    """run(n) for timed_per_call: n back-to-back calls, elapsed ns."""
    def run(n: int) -> int:
        t0 = clock()
        for _ in range(n):
            fn(*args, **kwargs)
        return clock() - t0
    return run


def _quiet(fn, *args):
    def call():
        with contextlib.redirect_stdout(io.StringIO()):
            code = fn(*args)
        if code != 0:
            raise RuntimeError(f"cli exited {code}")
    return call


class _Buffers:
    """Seeded operands for one op kind at one length; memmove overlaps."""

    def __init__(self, sx, file, kind: str, length: int, rng: random.Random) -> None:
        base = bytearray(rng.randbytes(length).replace(b"\xaa", b"\xab"))
        self.kind = sx.OpKind(kind)
        self.aux = 0xAA if kind == "memchr" else 0x5A
        if kind == "memmove":
            shift = length // 4
            self.keep = bytearray(base) + bytearray(shift)
            view = memoryview(self.keep)
            self.dst, self.src = view[shift:shift + length], view[:length]
            dst_addr = sx.byte_address(self.keep) + shift
            src_addr = sx.byte_address(self.keep)
        else:
            self.dst, self.src = bytearray(base), base   # memcmp: equal, full scan
            dst_addr, src_addr = sx.byte_address(self.dst), sx.byte_address(self.src)
        self.bind = lambda: (file.qsetbnd_low(sx.SlotId.BND0, dst_addr),
                             file.qsetbnd_low(sx.SlotId.BND1, src_addr))


CAL_UNITS = 150


def run_ladder(sx, seed: int, item_s: float) -> dict[str, tuple]:
    """Return {metric name: (value, unit)}, each item timed for ~item_s."""
    rng = random.Random(seed)
    out: dict[str, float] = {}

    def per_call(run) -> float:
        return timed_per_call(run, item_s, PLUMBING, CAL_UNITS)

    file = sx.process_specific_init()
    values = [rng.getrandbits(64) for _ in range(3)]
    for name in REGFILE_FNS:
        fn = getattr(file, name)
        if name in ("setbnd_low", "setbnd_high", "qsetbnd_low"):
            run = _loop(fn, sx.SlotId.BND1, values[0])
        elif name == "setbnd128":
            run = _loop(fn, sx.SlotId.BND1, values[1], values[2])
        elif name == "reset_all":
            run = _loop(fn)
        else:
            run = _loop(fn, sx.SlotId.BND1)
        out[f"regfile.{name}.ns"] = per_call(run)

    ref_ns: dict[tuple[str, int], float] = {}
    slot_ns: dict[tuple[str, int], float] = {}
    for length in (SMALL, LARGE):
        for kind in KINDS:
            bufs = _Buffers(sx, file, kind, length, rng)
            bufs.bind()
            slot_ns[kind, length] = per_call(_loop(
                sx.slot_op, bufs.kind, file, dst_slot=sx.SlotId.BND0,
                src_slot=sx.SlotId.BND1, length=length, aux=bufs.aux))
            ref_ns[kind, length] = per_call(_loop(
                sx.ref_op, bufs.kind, dst=bufs.dst, src=bufs.src, length=length, aux=bufs.aux))
    for kind in KINDS:
        out[f"strops.slot_op.{kind}.ns"] = slot_ns[kind, SMALL]
        out[f"strops.ref_op.{kind}.ns"] = ref_ns[kind, SMALL]
        out[f"strops.slot_op.{kind}.MiB_per_s"] = LARGE / (1 << 20) / (slot_ns[kind, LARGE] / 1e9)
    out["strops.fixed_ns"] = sum(slot_ns[k, SMALL] - ref_ns[k, SMALL] for k in KINDS) / len(KINDS)
    out["strops.overhead_pct"] = sx.geomean(
        (slot_ns[cell] / ref_ns[cell] - 1.0) * 100.0 for cell in slot_ns)

    page = bytearray(4096)
    file.qsetbnd_low(sx.SlotId.BND0, sx.byte_address(page))
    out["strops.slot_address.ns"] = per_call(_loop(sx.slot_address, file, sx.SlotId.BND0))
    out["strops.view_at.ns"] = per_call(_loop(sx.view_at, sx.byte_address(page), len(page)))
    out["strops.byte_address.ns"] = per_call(_loop(sx.byte_address, page))

    secret = bytes(rng.randbytes(LARGE))

    def hide(n: int) -> int:
        copies = [bytearray(secret) for _ in range(n)]
        t0 = clock()
        for copy in copies:
            sx.hide_split(file, copy, rng=rng)
        return clock() - t0
    out["bench.hide_split.ns_per_byte"] = per_call(hide) / LARGE
    hidden = sx.hide_split(file, bytearray(secret), rng=rng)
    buf = bytearray(LARGE)
    per_pass = per_call(_loop(sx.unhide_combine, file, hidden, out=buf, reload="per-pass"))
    out["bench.unhide_combine.per_pass.MiB_per_s"] = LARGE / (1 << 20) / (per_pass / 1e9)
    small = sx.hide_split(file, bytearray(secret[:PER_BYTE]), rng=rng)
    buf = bytearray(PER_BYTE)
    out["bench.unhide_combine.per_byte.ns_per_byte"] = per_call(_loop(
        sx.unhide_combine, file, small, out=buf, reload="per-byte")) / PER_BYTE
    if bytes(buf) != secret[:PER_BYTE]:
        raise RuntimeError("ladder per-byte unhide produced wrong bytes")

    # From here on items finish the thread's register file.
    report = sx.probe()
    out["probe.probe.us"] = per_call(_loop(sx.probe)) / 1e3
    out["probe.select_backend.us"] = per_call(_loop(sx.select_backend, report)) / 1e3

    def init_finish(timed_init: bool):
        def run(n: int) -> int:
            total = 0
            for _ in range(n):
                t0 = clock()
                f = sx.process_specific_init()
                t1 = clock()
                sx.process_specific_finish(f)
                total += (t1 - t0) if timed_init else (clock() - t1)
            return total
        return run
    out["runtime.process_specific_init.us"] = per_call(init_finish(True)) / 1e3
    out["runtime.process_specific_finish.us"] = per_call(init_finish(False)) / 1e3

    for name in ("reinit_harness", "thread_harness", "fork_harness"):
        out[f"context.{name}.ms"] = per_call(_loop(getattr(sx, name))) / 1e6
    out["cli.selftest.ms"] = per_call(_loop(_quiet(
        sx.cli.main, ["selftest", "--reinit", "--roundtrip"]))) / 1e6
    out["cli.probe.ms"] = per_call(_loop(_quiet(sx.cli.main, ["probe", "--json"]))) / 1e6
    return {name: (value, _unit(name)) for name, value in out.items()}


def _unit(name: str) -> str:
    for suffix, unit in (("ns_per_byte", "ns/B"), ("MiB_per_s", "MiB/s"), ("ns", "ns"),
                         ("us", "us"), ("ms", "ms"), ("overhead_pct", "%")):
        if name.endswith(suffix):
            return unit
    raise KeyError(name)
