"""Benchmark fixtures: load/store rate, two-share unhiding, string-op overhead.

Every fixture measures through one loop: a plain-addressed baseline and a
slot-addressed treatment over identical work on one set of buffers, which
are restored untimed before every run of either route.  The runs come in
interleaved pairs, baseline first in even pairs and treatment first in odd
ones, timed with the monotonic nanosecond clock.  One warm-up pair runs
first and is discarded (steady state), then `runs` measured pairs; summary
statistics (mean, median, quartiles, min, max) cover the measured runs, and
a treatment's overhead_pct is the ratio of the two routes' median run times,
so one preempted run cannot decide it.  A string-op route is ref_op or
slot_op itself, bound once per cell.  Each treatment run is checked as it
returns against its baseline or oracle; a run with a wrong result is counted
as a failure and its time is discarded, never averaged, and a fixture whose
every run fails raises DomainError.  Verified treatment results (string ops
add the verified snapshot's CRC) are folded into a checksum that is consumed
and reported, so hot loops cannot be optimized away and results are
sensitive to the input seed.

Reference parameters (also the CLI defaults): the load/store fixture at
10^4 runs of 10^6 operations; traversal and string fixtures over buffers of
4 KiB, 8 KiB, 1 MiB, and 16 MiB with 100 runs (1000 passes per traversal
run).  They are sized for a compiled hot path, so desk-scale overrides are
the sensible choice on the emulated backend.
"""

from __future__ import annotations

import ctypes
import functools
import json
import math
import operator
import random
import statistics
import zlib
from dataclasses import asdict, dataclass
from time import perf_counter_ns

from . import machine
from .errors import DomainError
from .hide import _check_reload, hide_split, unhide_combine
from .regfile import MASK64, RegisterFile, SlotId
from .strops import OpKind, byte_address, ref_op, slot_op

__all__ = [
    "REFERENCE_SIZES",
    "CSV_HEADER",
    "geomean",
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
# The measurement loop
# --------------------------------------------------------------------------


def _record(fixture, target, detail, size_bytes, iters, times, work_per_run,
            checksum, overhead_pct=None, failures=0) -> BenchRecord:
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


def _check_counts(runs: int, iters: int) -> None:
    """ValueError when runs or iters < 1; fixtures call it before writing a slot."""
    if runs < 1:
        raise ValueError(f"runs must be at least 1, got {runs}")
    if iters < 1:
        raise ValueError(f"iters must be at least 1, got {iters}")


def _interleaved(fixture, base_target, detail, size_bytes, iters, work_per_run,
                 baseline, treatment, *, runs, verify, fold=int,
                 restore=None) -> list[BenchRecord]:
    """Time interleaved baseline/treatment pairs; return their two records.

    One warm-up pair runs first and is discarded, then `runs` timed pairs,
    the baseline first in even pairs and the treatment in odd ones.
    restore() (when given) runs untimed before every run of either route
    and puts their shared state back where it started.  verify(base_result,
    treat_result) checks each treatment run as it returns, against the
    warm-up baseline's result (a fixture's baseline is deterministic): a
    failed run's time is dropped and it is counted in `failures`.
    fold(treat_result) of every verified run (int by default) is summed
    into the checksum both records carry.  The treatment's overhead_pct
    compares the two routes' median run times.
    ValueError when runs or iters < 1, DomainError when every run fails.
    """
    _check_counts(runs, iters)
    restore = restore or (lambda: None)
    restore()
    expected = baseline()
    restore()
    treatment()
    base_times = []
    treat_times = []
    checksum = 0
    for pair in range(runs):
        for is_treatment in (pair % 2 == 1, pair % 2 == 0):
            restore()
            t0 = perf_counter_ns()
            result = treatment() if is_treatment else baseline()
            elapsed = perf_counter_ns() - t0
            if not is_treatment:
                base_times.append(elapsed)
            elif verify(expected, result):
                treat_times.append(elapsed)
                checksum += fold(result)
    if not treat_times:
        raise DomainError(f"all {runs} {fixture} runs failed verification "
                          f"({detail}, {size_bytes} bytes)")
    overhead = (statistics.median(treat_times) / statistics.median(base_times) - 1.0) * 100.0
    return [
        _record(fixture, base_target, detail, size_bytes, iters, base_times,
                work_per_run, checksum),
        _record(fixture, "slot", detail, size_bytes, iters, treat_times,
                work_per_run, checksum, overhead_pct=overhead, failures=runs - len(treat_times)),
    ]


# --------------------------------------------------------------------------
# Load/store rate
# --------------------------------------------------------------------------


def bench_loadstore(file: RegisterFile, *, runs: int = 10_000,
                    iters: int = 1_000_000, seed: int = 0) -> list[BenchRecord]:
    """Slot store/load rate against an ordinary-variable baseline.

    The slot path uses the quick accessors (one bounds-make per store, one
    spill-and-read per load), the thinnest fast path this storage is meant
    to be used with.  A slot store run must read back the last stored
    value after its loop; a slot load run must sum to the register load's
    total.  Four records: register/slot x store/load.
    """
    rng = random.Random(seed)
    base_vals = tuple(rng.getrandbits(64) for _ in range(1024))
    reps, rem = divmod(iters, len(base_vals))
    seq = base_vals * reps + base_vals[:rem]
    loaded = sum(seq) & MASK64
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
        return file.qgetbnd_low(slot)

    def register_load():
        # Additive fold: XOR would cancel to zero on even iteration counts.
        acc = 0
        x = loaded
        for _ in load_range:
            acc += x
        return acc & MASK64

    def slot_load():
        acc = 0
        qget = file.qgetbnd_low
        for _ in load_range:
            acc += qget(slot)
        return acc & MASK64

    records = _interleaved("loadstore", "register", "store", 8, iters, iters,
                           register_store, slot_store, runs=runs, verify=operator.eq)
    file.qsetbnd_low(slot, loaded)
    records += _interleaved("loadstore", "register", "load", 8, iters, iters,
                            register_load, slot_load, runs=runs, verify=operator.eq)
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
# The unhiding traversal
# --------------------------------------------------------------------------


def bench_traversal(file: RegisterFile, *, sizes=REFERENCE_SIZES, runs: int = 100,
                    iters: int = 1000, reload: str = "per-byte",
                    seed: int = 0) -> list[BenchRecord]:
    """Unhiding traversal vs a plain-addressed XOR baseline, per size.

    Both routes share one loop shape per reload mode and one set of buffers:
    the hidden shares, read in place, and `out`, zeroed before every run.
    Per pass both run the xor_cells kernel, per byte the traverse kernel,
    the baseline packing its cells with the plain share addresses.  The
    treatment's only extra work is fetching share addresses from slots (on
    hardware, per byte, the bndmov spills before the kernel's plain loads).
    Every treatment run is verified against the original secret.
    """
    _check_reload(reload)
    _check_counts(runs, iters)
    rng = random.Random(seed)
    records = []
    for size in sizes:
        secret = bytearray(rng.randbytes(size))
        oracle = bytes(secret)
        hidden = hide_split(file, secret, rng=rng)
        out = bytearray(size)
        addr_out, addr_a, addr_b = map(byte_address, (out, hidden.share_a, hidden.share_b))

        # The treatment's kernel, its cells packed with the plain share addresses.
        kernel = machine.stubs().xor_cells if reload == "per-pass" else machine.stubs().traverse
        cells = machine._Cells()
        addr_cells = ctypes.addressof(cells)

        def baseline():
            for _ in range(iters):
                machine._CELL_ARGS.pack_into(cells, 0, addr_a, addr_out, addr_b, size)
                kernel(addr_cells)
            return zlib.crc32(out)

        def treatment():
            for _ in range(iters):
                unhide_combine(file, hidden, out=out, reload=reload)
            return zlib.crc32(out)

        records += _interleaved("traversal", "register", f"xor-unhide {reload}",
                                size, iters, size * iters, baseline, treatment,
                                runs=runs, verify=lambda base, treat: out == oracle,
                                restore=lambda: ctypes.memset(addr_out, 0, size))
    return records


# --------------------------------------------------------------------------
# String-op overhead grid
# --------------------------------------------------------------------------


def bench_strops(file: RegisterFile, *, sizes=REFERENCE_SIZES, runs: int = 100,
                 seed: int = 0) -> tuple[list[BenchRecord], float]:
    """Overhead of slot_op over ref_op for every (operation, size) cell.

    Each route is ref_op or slot_op itself, bound once per cell with
    functools.partial.  Both run on one set of buffers: BND0 and BND1 park
    the ref route's dst and src.  The touched buffer (dst, else src) is
    restored before every run of either route; a slot run passes when its
    result equals the ref run's and the touched buffer equals a snapshot of
    one ref run, whose CRC the checksum folds with each verified result.
    Returns the records and the geomean of the per-cell overheads.
    """
    _check_counts(runs, 1)
    rng = random.Random(seed)
    records = []
    for size in sizes:
        for kind in OpKind:
            ref_dst, ref_src, aux, shift = _strops_operands(kind, size, rng)
            dst = None
            if ref_dst is not None:
                dst = memoryview(ref_dst)[shift:]
                file.qsetbnd_low(SlotId.BND0, byte_address(ref_dst) + shift)
            if ref_src is not None:
                file.qsetbnd_low(SlotId.BND1, byte_address(ref_src))
            touched = ref_dst if ref_dst is not None else ref_src
            initial = bytes(touched)

            def restore():
                touched[:] = initial

            ref_route = functools.partial(ref_op, kind, dst=dst, src=ref_src, length=size,
                                          aux=aux)
            ref_route()  # on the buffers as built, which restore() puts back
            snapshot = bytes(touched)
            crc = zlib.crc32(snapshot)
            records += _interleaved(
                "strops", "ref", kind.value, size, 1, size, ref_route,
                functools.partial(slot_op, kind, file, dst_slot=SlotId.BND0,
                                  src_slot=SlotId.BND1, length=size, aux=aux),
                runs=runs, restore=restore,
                verify=lambda ref, slot: slot == ref and touched == snapshot,
                fold=lambda slot: crc + (slot or 0))
    return records, geomean(r.overhead_pct for r in records if r.target == "slot")


def _strops_operands(kind: OpKind, size: int, rng: random.Random):
    """One cell's ref-route operands: (dst, src, aux, dst shift).

    None marks a buffer the operation does not use.  memmove's dst and src
    are one buffer, dst `shift` bytes above src, so the move overlaps.
    """
    base = bytearray(rng.randbytes(size))
    if kind is OpKind.MEMCMP:  # equal inputs: the full-scan case
        return bytearray(base), base, 0, 0
    if kind is OpKind.MEMCHR:  # needle absent: full scan
        return None, base.replace(b"\xaa", b"\xab"), 0xAA, 0
    if kind is OpKind.MEMSET:
        return bytearray(size), None, 0x5A, 0
    if kind is OpKind.MEMCPY:
        return bytearray(size), base, 0, 0
    shift = max(1, size // 4)
    moved = base + bytearray(shift)
    return moved, moved, 0, shift


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
        entry = asdict(r)
        stats = entry["stats"]
        stats["min"] = stats.pop("minimum")
        stats["max"] = stats.pop("maximum")
        payload.append(entry)
    doc = {"records": payload}
    if extra:
        doc.update(extra)
    return json.dumps(doc, indent=2) + "\n"
