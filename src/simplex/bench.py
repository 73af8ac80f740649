"""Benchmark fixtures: load/store rate, two-share unhiding, string-op overhead.

All fixtures share the same shape: a plain-addressed baseline and a
slot-addressed treatment run over identical work, timed with the monotonic
nanosecond clock.  Each configuration performs one warm-up repetition whose
time is discarded (steady state), then `runs` measured repetitions; summary
statistics (mean, median, quartiles, min, max) cover the measured runs.
Every treatment run is verified against its oracle; a run with a wrong
result is counted as a failure and its time is discarded, never averaged.
Fixtures fold their produced values into a checksum that is consumed and
reported, so hot loops cannot be optimized away and results are sensitive
to the input seed.

Reference parameters (also the CLI defaults): the load/store fixture at
10^4 runs of 10^6 operations; traversal and string fixtures over buffers of
4 KiB, 8 KiB, 1 MiB, and 16 MiB with 100 runs (1000 passes per traversal
run).  They are sized for a compiled hot path, so desk-scale overrides are
the sensible choice on the emulated backend.
"""

from __future__ import annotations

import json
import math
import os
import random
import statistics
import zlib
from dataclasses import dataclass
from time import perf_counter_ns

from .errors import DomainError
from .regfile import MASK64, RegisterFile, SlotId
from .strops import OpKind, byte_address, ref_op, slot_op, slot_address, view_at

__all__ = [
    "REFERENCE_SIZES",
    "CSV_HEADER",
    "RunStats",
    "BenchRecord",
    "geomean",
    "HiddenBuffer",
    "hide_split",
    "unhide_combine",
    "bench_loadstore",
    "loadstore_ratios",
    "bench_traversal",
    "bench_strops",
    "render_csv",
    "render_markdown",
    "render_json",
]

# Default buffer sizes for the traversal and string-op fixtures.
REFERENCE_SIZES = (4096, 8192, 1 << 20, 16 << 20)

CSV_HEADER = "fixture,target,detail,size_bytes,runs,iters,elapsed_ns,rate,overhead_pct"


# --------------------------------------------------------------------------
# Statistics
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class RunStats:
    """Per-run rate statistics over the measured (post-warm-up) runs."""

    mean: float
    median: float
    q1: float
    q3: float
    minimum: float
    maximum: float

    @classmethod
    def from_samples(cls, samples) -> "RunStats":
        data = sorted(float(s) for s in samples)
        if not data:
            raise ValueError("no samples")
        if len(data) == 1:
            v = data[0]
            return cls(v, v, v, v, v, v)
        q1, median, q3 = statistics.quantiles(data, n=4, method="inclusive")
        return cls(statistics.fmean(data), median, q1, q3, data[0], data[-1])


@dataclass(frozen=True)
class BenchRecord:
    fixture: str
    target: str          # "register"/"ref" baseline or "slot" treatment
    detail: str
    size_bytes: int
    runs: int            # measured runs (warm-up excluded)
    iters: int           # inner operations or passes per run
    elapsed_ns: int      # total measured time
    rate: float          # work units per second, aggregated
    overhead_pct: float | None
    checksum: int
    stats: RunStats
    failures: int = 0


def geomean(overheads_pct) -> float:
    """Geometric mean of percent overheads, folded as ratios.

    Each x passes through 1 + x/100; the result is converted back to a
    percentage.  Values at or below -100% have no ratio and raise
    DomainError, as does an empty sequence.
    """
    values = [float(x) for x in overheads_pct]
    if not values:
        raise DomainError("geomean of an empty sequence")
    for x in values:
        if x <= -100.0:
            raise DomainError(f"overhead {x}% is at or below -100%")
    folded = math.fsum(math.log1p(x / 100.0) for x in values) / len(values)
    return (math.exp(folded) - 1.0) * 100.0


# --------------------------------------------------------------------------
# Timing plumbing
# --------------------------------------------------------------------------


def _timed(fn) -> tuple[int, object]:
    t0 = perf_counter_ns()
    result = fn()
    return perf_counter_ns() - t0, result


def _measure(fn, runs: int) -> tuple[list[int], list[object]]:
    """One discarded warm-up call, then `runs` timed calls."""
    fn()
    times = []
    results = []
    for _ in range(runs):
        dt, result = _timed(fn)
        times.append(dt)
        results.append(result)
    return times, results


def _record(fixture, target, detail, size_bytes, runs, iters, times,
            work_per_run, checksum, overhead_pct=None, failures=0) -> BenchRecord:
    total = sum(times)
    rates = [work_per_run / t * 1e9 for t in times]
    return BenchRecord(
        fixture=fixture,
        target=target,
        detail=detail,
        size_bytes=size_bytes,
        runs=len(times),
        iters=iters,
        elapsed_ns=total,
        rate=work_per_run * len(times) / total * 1e9,
        overhead_pct=overhead_pct,
        checksum=checksum & MASK64,
        stats=RunStats.from_samples(rates),
        failures=failures,
    )


def _overhead(treat_times, base_times) -> float:
    return (statistics.fmean(treat_times) / statistics.fmean(base_times) - 1.0) * 100.0


# --------------------------------------------------------------------------
# Load/store rate
# --------------------------------------------------------------------------


def bench_loadstore(file: RegisterFile, *, runs: int = 10_000,
                    iters: int = 1_000_000, seed: int = 0) -> list[BenchRecord]:
    """Slot store/load rate against an ordinary-variable baseline.

    The slot path uses the quick accessors (one bounds-make per store, one
    spill-and-read per load), the thinnest fast path this storage is meant
    to be used with.  Four records: register/slot x store/load.
    """
    rng = random.Random(seed)
    base_vals = tuple(rng.getrandbits(64) for _ in range(1024))
    reps, rem = divmod(iters, len(base_vals))
    seq = base_vals * reps + base_vals[:rem]
    store_checksum = sum(seq) & MASK64  # consumed below, reported in records
    slot = SlotId.BND0
    load_range = range(iters)

    def register_store():
        x = 0
        for v in seq:
            x = v
        return x

    def slot_store():
        qset = file.qsetbnd_low
        for v in seq:
            qset(slot, v)

    def register_load():
        # Additive fold: XOR would cancel to zero on even iteration counts.
        acc = 0
        x = store_checksum
        for _ in load_range:
            acc += x
        return acc & MASK64

    def slot_load():
        acc = 0
        qget = file.qgetbnd_low
        for _ in load_range:
            acc += qget(slot)
        return acc & MASK64

    records = []
    reg_store_times, results = _measure(register_store, runs)
    checksum = store_checksum ^ (results[-1] or 0)
    records.append(_record("loadstore", "register", "store", 8, runs, iters,
                           reg_store_times, iters, checksum))

    slot_store_times, _ = _measure(slot_store, runs)
    records.append(_record("loadstore", "slot", "store", 8, runs, iters,
                           slot_store_times, iters, store_checksum,
                           overhead_pct=_overhead(slot_store_times, reg_store_times)))

    file.qsetbnd_low(slot, store_checksum)
    reg_load_times, results = _measure(register_load, runs)
    records.append(_record("loadstore", "register", "load", 8, runs, iters,
                           reg_load_times, iters, results[-1]))

    slot_load_times, results = _measure(slot_load, runs)
    records.append(_record("loadstore", "slot", "load", 8, runs, iters,
                           slot_load_times, iters, results[-1],
                           overhead_pct=_overhead(slot_load_times, reg_load_times)))
    return records


def loadstore_ratios(records) -> dict[str, float]:
    """Slot/register rate ratios: {"store": r, "load": r}."""
    rates = {(r.target, r.detail): r.rate for r in records if r.fixture == "loadstore"}
    return {
        op: rates[("slot", op)] / rates[("register", op)]
        for op in ("store", "load")
        if ("slot", op) in rates and ("register", op) in rates
    }


# --------------------------------------------------------------------------
# Two-share hiding and the unhiding traversal
# --------------------------------------------------------------------------


@dataclass
class HiddenBuffer:
    """Two XOR shares; unhide_combine reads their base addresses only from slots."""

    share_a: bytearray
    share_b: bytearray
    slot_a: SlotId
    slot_b: SlotId
    length: int


def hide_split(file: RegisterFile, secret: bytearray, *,
               slot_a: SlotId = SlotId.BND2, slot_b: SlotId = SlotId.BND3,
               rng: random.Random | None = None) -> HiddenBuffer:
    """Split `secret` into two XOR shares and wipe the original in place.

    Share A is fresh randomness, share B is secret XOR share A; neither
    alone says anything about the secret.  The share base addresses are
    parked in two slots via the quick store.  The input must be a bytearray
    because it is zeroed before returning; only the shares survive, and
    they are never written anywhere else.
    """
    if not isinstance(secret, bytearray):
        raise TypeError("secret must be a bytearray (it is wiped in place)")
    if not secret:
        raise ValueError("secret must be nonempty")
    n = len(secret)
    share_a = bytearray(os.urandom(n) if rng is None else rng.randbytes(n))
    mask = int.from_bytes(share_a, "little")
    value = int.from_bytes(secret, "little")
    share_b = bytearray((mask ^ value).to_bytes(n, "little"))
    secret[:] = bytes(n)
    file.qsetbnd_low(slot_a, byte_address(share_a))
    file.qsetbnd_low(slot_b, byte_address(share_b))
    return HiddenBuffer(share_a, share_b, slot_a, slot_b, n)


def unhide_combine(file: RegisterFile, hidden: HiddenBuffer, *,
                   out: bytearray | None = None,
                   reload: str = "per-pass") -> bytearray:
    """Reconstruct the secret: out[i] = share_a[i] XOR share_b[i].

    Share addresses come from the slots, never from the HiddenBuffer.
    reload picks how often they are re-read: "per-pass" loads each address
    once per call with a sanitizing read and XORs the whole buffer,
    "per-byte" re-reads both addresses through the quick path for every
    byte unhidden (two slot loads per byte).
    """
    n = hidden.length
    if out is None:
        out = bytearray(n)
    elif len(out) != n:
        raise ValueError(f"out buffer is {len(out)} bytes, need {n}")
    if n == 0:
        return out
    if reload == "per-pass":
        a = view_at(slot_address(file, hidden.slot_a, sanitize=True), n)
        b = view_at(slot_address(file, hidden.slot_b, sanitize=True), n)
        combined = int.from_bytes(a, "little") ^ int.from_bytes(b, "little")
        out[:] = combined.to_bytes(n, "little")
    elif reload == "per-byte":
        base_a = slot_address(file, hidden.slot_a)
        base_b = slot_address(file, hidden.slot_b)
        va = view_at(base_a, n)
        vb = view_at(base_b, n)
        qget = file.qgetbnd_low
        sa, sb = hidden.slot_a, hidden.slot_b
        for i in range(n):
            out[i] = va[qget(sa) - base_a + i] ^ vb[qget(sb) - base_b + i]
    else:
        raise ValueError(f"unknown reload mode {reload!r}; use per-pass or per-byte")
    return out


def bench_traversal(file: RegisterFile, *, sizes=REFERENCE_SIZES, runs: int = 100,
                    iters: int = 1000, reload: str = "per-byte",
                    seed: int = 0) -> list[BenchRecord]:
    """Unhiding traversal vs a plain-addressed XOR baseline, per size.

    Baseline and treatment use the same loop shape for the chosen reload
    mode; the treatment's only extra work is fetching share addresses from
    slots.  Every treatment run is verified against the original secret.
    """
    rng = random.Random(seed)
    records = []
    for size in sizes:
        secret = bytearray(rng.randbytes(size))
        oracle = bytes(secret)
        hidden = hide_split(file, secret, rng=rng)
        plain_a = bytes(hidden.share_a)
        plain_b = bytes(hidden.share_b)
        out = bytearray(size)

        if reload == "per-pass":
            def baseline_run():
                for _ in range(iters):
                    combined = (int.from_bytes(plain_a, "little")
                                ^ int.from_bytes(plain_b, "little"))
                    out[:] = combined.to_bytes(size, "little")
                return zlib.crc32(out)
        elif reload == "per-byte":
            def baseline_run():
                a, b, o = plain_a, plain_b, out
                for _ in range(iters):
                    for i in range(size):
                        o[i] = a[i] ^ b[i]
                return zlib.crc32(out)
        else:
            raise ValueError(f"unknown reload mode {reload!r}; use per-pass or per-byte")

        def treatment_run():
            for _ in range(iters):
                unhide_combine(file, hidden, out=out, reload=reload)
            return zlib.crc32(out)

        work = size * iters
        base_times, base_results = _measure(baseline_run, runs)
        # Additive fold: XOR of identical per-run values cancels when runs is even.
        base_checksum = sum(base_results) & MASK64
        records.append(_record("traversal", "register", f"xor-unhide {reload}",
                               size, runs, iters, base_times, work, base_checksum))

        treat_times = []
        treat_checksum = 0
        failures = 0
        treatment_run()  # warm-up, discarded
        for _ in range(runs):
            dt, crc = _timed(treatment_run)
            if out == oracle:
                treat_times.append(dt)
                treat_checksum = (treat_checksum + crc) & MASK64
            else:
                failures += 1
        if not treat_times:
            raise DomainError(f"all {runs} traversal runs at {size} bytes failed verification")
        records.append(_record("traversal", "slot", f"xor-unhide {reload}",
                               size, len(treat_times), iters, treat_times, work,
                               treat_checksum,
                               overhead_pct=_overhead(treat_times, base_times),
                               failures=failures))
    return records


# --------------------------------------------------------------------------
# String-op overhead grid
# --------------------------------------------------------------------------


def bench_strops(file: RegisterFile, *, kinds=tuple(OpKind), sizes=REFERENCE_SIZES,
                 runs: int = 100, seed: int = 0) -> tuple[list[BenchRecord], float]:
    """Overhead of slot_op over ref_op for every (operation, size) cell.

    Ref and slot runs are interleaved (one of each per measured run) so the
    pair sees the same machine state; the slot result is verified against
    the ref result every run.  Returns the records plus the geometric mean
    of the per-cell overheads.
    """
    rng = random.Random(seed)
    records = []
    overheads = []
    for size in sizes:
        for kind in kinds:
            cell = _StropsCell(file, kind, size, rng)
            cell.ref_call()   # warm-up pair, discarded
            cell.slot_call()
            cell.resync()
            ref_times = []
            slot_times = []
            checksum = 0
            failures = 0
            for _ in range(runs):
                dt_ref, ref_result = _timed(cell.ref_call)
                dt_slot, slot_result = _timed(cell.slot_call)
                ref_times.append(dt_ref)
                ok = cell.verify(ref_result, slot_result)
                if ok:
                    slot_times.append(dt_slot)
                    checksum = (checksum + cell.fold(slot_result)) & MASK64
                else:
                    failures += 1
                    cell.resync()
            if not slot_times:
                raise DomainError(
                    f"all {runs} slot runs failed verification for {kind.value} at {size}"
                )
            overhead = _overhead(slot_times, ref_times)
            overheads.append(overhead)
            records.append(_record("strops", "ref", kind.value, size,
                                   len(ref_times), 1, ref_times, size, checksum))
            records.append(_record("strops", "slot", kind.value, size,
                                   len(slot_times), 1, slot_times, size, checksum,
                                   overhead_pct=overhead, failures=failures))
    return records, geomean(overheads)


class _StropsCell:
    """One (operation, size) benchmark cell: buffers, slots, and closures."""

    def __init__(self, file: RegisterFile, kind: OpKind, size: int,
                 rng: random.Random) -> None:
        self.kind = kind
        self.size = size
        base = bytearray(rng.randbytes(size))
        if kind is OpKind.MEMCMP:
            # Equal inputs: the full-scan case, timing proportional to size.
            self.ref_a, self.ref_b = bytearray(base), bytearray(base)
            self.slot_a, self.slot_b = bytearray(base), bytearray(base)
            self._bind(file, self.slot_a, self.slot_b)
            self.ref_call = lambda: ref_op(kind, dst=self.ref_a, src=self.ref_b, length=size)
            self.slot_call = lambda: slot_op(kind, file, dst_slot=SlotId.BND0,
                                             src_slot=SlotId.BND1, length=size)
            self.verify = lambda r, s: r == s
            self.fold = lambda r: (r & 0xFF) | 0x100
        elif kind is OpKind.MEMCHR:
            # Needle absent: full scan.
            needle = 0xAA
            body = bytearray(base.replace(b"\xaa", b"\xab"))
            self.ref_a = body
            self.slot_a = bytearray(body)
            self._bind(file, self.slot_a, None)
            self.ref_call = lambda: ref_op(kind, src=self.ref_a, length=size, aux=needle)
            self.slot_call = lambda: slot_op(kind, file, src_slot=SlotId.BND0,
                                             length=size, aux=needle)
            self.verify = lambda r, s: r == s
            self.fold = lambda r: 0 if r is None else r + 1
        elif kind is OpKind.MEMSET:
            self.ref_a = bytearray(size)
            self.slot_a = bytearray(size)
            self._bind(file, self.slot_a, None)
            self.ref_call = lambda: ref_op(kind, dst=self.ref_a, length=size, aux=0x5A)
            self.slot_call = lambda: slot_op(kind, file, dst_slot=SlotId.BND0,
                                             length=size, aux=0x5A)
            self.verify = lambda r, s: self.slot_a == self.ref_a
            self.fold = lambda r: zlib.crc32(self.slot_a)
        elif kind is OpKind.MEMCPY:
            self.ref_src = base
            self.ref_a = bytearray(size)
            self.slot_src = bytearray(base)
            self.slot_a = bytearray(size)
            self._bind(file, self.slot_a, self.slot_src)
            self.ref_call = lambda: ref_op(kind, dst=self.ref_a, src=self.ref_src, length=size)
            self.slot_call = lambda: slot_op(kind, file, dst_slot=SlotId.BND0,
                                             src_slot=SlotId.BND1, length=size)
            self.verify = lambda r, s: self.slot_a == self.ref_a
            self.fold = lambda r: zlib.crc32(self.slot_a)
        else:  # MEMMOVE: overlapping move of `size` bytes inside one buffer
            shift = max(1, size // 4)
            self.ref_a = bytearray(base) + bytearray(shift)
            self.slot_a = bytearray(self.ref_a)
            slot_base = byte_address(self.slot_a)
            file.qsetbnd_low(SlotId.BND0, slot_base + shift)  # dst
            file.qsetbnd_low(SlotId.BND1, slot_base)          # src
            ref_dst = memoryview(self.ref_a)[shift:shift + size]
            ref_src = memoryview(self.ref_a)[0:size]
            self.ref_call = lambda: ref_op(kind, dst=ref_dst, src=ref_src, length=size)
            self.slot_call = lambda: slot_op(kind, file, dst_slot=SlotId.BND0,
                                             src_slot=SlotId.BND1, length=size)
            self.verify = lambda r, s: self.slot_a == self.ref_a
            self.fold = lambda r: zlib.crc32(self.slot_a)

    def _bind(self, file: RegisterFile, a: bytearray | None, b: bytearray | None) -> None:
        if a is not None:
            file.qsetbnd_low(SlotId.BND0, byte_address(a))
        if b is not None:
            file.qsetbnd_low(SlotId.BND1, byte_address(b))

    def resync(self) -> None:
        """Make the slot-path state identical to the ref-path state."""
        self.slot_a[:] = self.ref_a
        if self.kind is OpKind.MEMCMP:
            self.slot_b[:] = self.ref_b


# --------------------------------------------------------------------------
# Emitters
# --------------------------------------------------------------------------


def _fmt_overhead(value: float | None) -> str:
    return "" if value is None else f"{value:.4f}"


def render_csv(records) -> str:
    lines = [CSV_HEADER]
    for r in records:
        lines.append(",".join([
            r.fixture,
            r.target,
            r.detail,
            str(r.size_bytes),
            str(r.runs),
            str(r.iters),
            str(r.elapsed_ns),
            f"{r.rate:.6g}",
            _fmt_overhead(r.overhead_pct),
        ]))
    return "\n".join(lines) + "\n"


def render_markdown(records, *, notes: list[str] | None = None) -> str:
    headers = ["fixture", "target", "detail", "size_bytes", "runs", "iters",
               "rate", "overhead_pct", "checksum"]
    rows = [
        [r.fixture, r.target, r.detail, str(r.size_bytes), str(r.runs),
         str(r.iters), f"{r.rate:.4g}", _fmt_overhead(r.overhead_pct) or "-",
         f"{r.checksum:#x}"]
        for r in records
    ]
    widths = [max(len(headers[i]), *(len(row[i]) for row in rows)) if rows
              else len(headers[i]) for i in range(len(headers))]

    def line(parts):
        return "| " + " | ".join(p.ljust(w) for p, w in zip(parts, widths)) + " |"

    out = [line(headers), line(["-" * w for w in widths])]
    out.extend(line(row) for row in rows)
    if notes:
        out.append("")
        out.extend(notes)
    return "\n".join(out) + "\n"


def render_json(records, *, extra: dict | None = None) -> str:
    payload = []
    for r in records:
        entry = {
            "fixture": r.fixture,
            "target": r.target,
            "detail": r.detail,
            "size_bytes": r.size_bytes,
            "runs": r.runs,
            "iters": r.iters,
            "elapsed_ns": r.elapsed_ns,
            "rate": r.rate,
            "overhead_pct": r.overhead_pct,
            "checksum": r.checksum,
            "failures": r.failures,
            "stats": {
                "mean": r.stats.mean,
                "median": r.stats.median,
                "q1": r.stats.q1,
                "q3": r.stats.q3,
                "min": r.stats.minimum,
                "max": r.stats.maximum,
            },
        }
        payload.append(entry)
    doc = {"records": payload}
    if extra:
        doc.update(extra)
    return json.dumps(doc, indent=2) + "\n"
