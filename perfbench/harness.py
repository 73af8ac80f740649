"""Measurement core: host calibration, interleaved chunks, statistics, spans.

Raw rates on a shared host drift by up to 2x between processes, so every
timing here is host-normalized.  Work runs in chunks (one workload cycle
each) that alternate with a fixed calibration loop calling nothing in
simplex; the pair order flips every chunk.  A chunk's raw times are
scaled by (measured calibration rate / pinned reference rate), i.e.
restated at the reference host speed.
"""

from __future__ import annotations

import ctypes
import gc
import random
import statistics
import struct
from collections.abc import Callable
from dataclasses import dataclass, field
from time import perf_counter_ns as clock

MASK64 = (1 << 64) - 1

_CAL = struct.Struct("<QQ")
_CAL_A = bytearray(range(256)) * 16
_CAL_B = bytearray(_CAL_A)
_BIG_A = bytes(range(256)) * 1024            # 256 KiB
_BIG_B = bytes(reversed(range(256))) * 1024


class _CalCells:
    __slots__ = ("scratch", "cells")

    def __init__(self) -> None:
        self.scratch = bytearray(16)
        self.cells = [[0, 0] for _ in range(4)]

    def step(self, i: int, value: int) -> int:
        cell = self.cells[i & 3]
        cell[0] = value
        cell[1] = ~value & MASK64
        _CAL.pack_into(self.scratch, 0, cell[0], cell[1])
        return _CAL.unpack_from(self.scratch, 0)[0]


def _plumbing_steps(units: int) -> None:
    """Work shaped like the library's per-call path, calling none of it:
    four method calls that mask values and spill them through a 16-byte
    struct, then two ctypes arrays over raw addresses, cast to memoryviews,
    compared, sliced and searched."""
    cells = _CalCells()
    a_addr = ctypes.addressof((ctypes.c_ubyte * 0).from_buffer(_CAL_A))
    b_addr = ctypes.addressof((ctypes.c_ubyte * 0).from_buffer(_CAL_B))
    acc = 0
    for i in range(units):
        for j in range(4):
            acc = (acc + cells.step(j, (i * 0x9E3779B97F4A7C15 + j) & MASK64)) & MASK64
        n = 64 + (i & 255) * 15
        a = memoryview((ctypes.c_ubyte * n).from_address(a_addr)).cast("B")
        b = memoryview((ctypes.c_ubyte * n).from_address(b_addr)).cast("B")
        acc += (a == b) + bytes(a[:n // 2]).find(7)


def _buffer_steps(units: int) -> None:
    """Whole-buffer C loops like the string cores and the XOR split:
    256 KiB memoryview equality, big-int XOR and back to bytes, seeded
    random bytes."""
    va, vb = memoryview(_BIG_A), memoryview(bytearray(_BIG_A))
    for i in range(units):
        va == vb
        x = int.from_bytes(_BIG_A, "little") ^ int.from_bytes(_BIG_B, "little")
        x.to_bytes(len(_BIG_A), "little")
        random.Random(i).randbytes(len(_BIG_A))


@dataclass(frozen=True)
class Calibration:
    """A fixed loop that calls nothing in simplex, and the rate (steps per
    second) pinned as reference host speed for it.  Only the constancy of
    `ref_rate` matters: normalized time = raw time x (measured rate /
    ref_rate).  The pinned rates are round numbers inside the range each
    loop ran at under CPython 3.11 on a 2-core x86-64 VM."""

    name: str
    steps: Callable[[int], None]
    ref_rate: float

    def rate(self, units: int) -> float:
        """Run `units` steps and return steps per second."""
        t0 = clock()
        self.steps(units)
        return units * 1e9 / (clock() - t0)


# Interpreter-bound workloads.  Against this loop their speed tracked to
# 1-3% while host speed swung 1.6x; against method calls alone, to 3-7%.
PLUMBING = Calibration("plumbing", _plumbing_steps, 40_000.0)   # seen 28k-57k/s
# Bulk: its time is C loops over whole buffers, which this loop follows
# across processes to ~5% where PLUMBING follows them to ~9%.
BUFFERS = Calibration("buffers", _buffer_steps, 300.0)          # seen 270-430/s


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile (q in 0..100) of an ascending sequence."""
    if not sorted_values:
        raise ValueError("no samples")
    rank = max(1, -(-len(sorted_values) * q // 100))
    return float(sorted_values[int(rank) - 1])


# --------------------------------------------------------------------------
# Span tracing
# --------------------------------------------------------------------------


class NullTracer:
    """Tracing off: spans cost one no-op method call, outside timed calls."""

    enabled = False

    def begin(self, name: str, parent: int = -1) -> int:
        return -1

    def end(self, span: int) -> None:
        pass

    def add(self, name: str, start: int, end: int, parent: int) -> None:
        pass

    def call(self, name: str, parent: int, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer(NullTracer):
    """In-memory spans: (name, start_ns, end_ns, parent index, op id).

    Op ids number the root spans; a child span carries its root's id, so
    all spans of one workload op share an identifier.
    """

    enabled = True

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._ops = 0

    def _op(self, parent: int) -> int:
        if parent >= 0:
            return self.spans[parent][4]
        self._ops += 1
        return self._ops - 1

    def begin(self, name: str, parent: int = -1) -> int:
        self.spans.append([name, clock(), 0, parent, self._op(parent)])
        return len(self.spans) - 1

    def end(self, span: int) -> None:
        self.spans[span][2] = clock()

    def add(self, name: str, start: int, end: int, parent: int) -> None:
        self.spans.append([name, start, end, parent, self._op(parent)])

    def call(self, name: str, parent: int, fn, *args, **kwargs):
        start = clock()
        result = fn(*args, **kwargs)
        self.spans.append([name, start, clock(), parent, self._op(parent)])
        return result

    def self_times(self) -> dict[str, int]:
        """Self time per layer (span name prefix before the first dot)."""
        child_ns = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        layers: dict[str, int] = {}
        for (name, start, end, _, _), inner in zip(self.spans, child_ns):
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0) + (end - start - inner)
        return layers

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for span in self.spans:
            out[span[0]] = out.get(span[0], 0) + 1
        return out


# --------------------------------------------------------------------------
# Interleaved measurement
# --------------------------------------------------------------------------


@dataclass
class CycleResult:
    """One workload cycle: per-op in-call times of verified ops, payload
    bytes those ops carried, and how many ops failed verification."""

    times: list = field(default_factory=list)
    nbytes: int = 0
    failed: int = 0


@dataclass
class Measurement:
    ops_per_s: float
    ops_per_s_raw: float
    mib_per_s: float
    mib_per_s_raw: float
    p50_us: float
    p99_us: float
    samples: int
    windows: int
    chunks: int
    attempted: int
    failed: int
    cal_rate: float


SMOOTH = 4          # scale of chunk i = median calibration rate of chunks i-4..i+4
WINDOW_OPS = 1000   # latency window: p99 of 1000 ops has 10 samples beyond it


def measure(cycle, seconds: float, cal: Calibration, cal_units: int,
            max_ops: int | None = None) -> Measurement:
    """Alternate calibration runs and workload cycles for `seconds`.

    ops_per_s and MiB_per_s are medians over chunks of (verified ops or
    bytes) / (in-call time).  A chunk's times are scaled by the
    rolling-median calibration rate around it, so one disturbed calibration
    run does not skew its chunk.  p50/p99 are taken in windows of
    consecutive chunks holding at least WINDOW_OPS ops each, and the median
    over windows is reported, so a burst of host noise moves one window,
    not the result.  Garbage collection runs between chunks, not inside
    them.  At least two chunks always run.
    """
    results: list[CycleResult] = []
    cal_rates: list[float] = []
    attempted = failed = 0
    deadline = clock() + int(seconds * 1e9)
    while len(results) < 2 or (clock() < deadline and (max_ops is None or attempted < max_ops)):
        gc.disable()
        try:
            if len(results) % 2 == 0:
                rate = cal.rate(cal_units)
                res = cycle()
            else:
                res = cycle()
                rate = cal.rate(cal_units)
        finally:
            gc.enable()
        gc.collect()
        results.append(res)
        cal_rates.append(rate)
        attempted += len(res.times) + res.failed
        failed += res.failed

    rates, rates_raw, brates, brates_raw = [], [], [], []
    p50s, p99s = [], []
    window: list[float] = []
    samples = 0
    for i, res in enumerate(results):
        total = sum(res.times)
        if total <= 0:
            continue
        scale = statistics.median(cal_rates[max(0, i - SMOOTH):i + SMOOTH + 1]) / cal.ref_rate
        rates_raw.append(len(res.times) * 1e9 / total)
        rates.append(rates_raw[-1] / scale)
        brates_raw.append(res.nbytes * 1e9 / total / (1 << 20))
        brates.append(brates_raw[-1] / scale)
        window.extend(t * scale for t in res.times)
        samples += len(res.times)
        if len(window) >= WINDOW_OPS:
            window.sort()
            p50s.append(percentile(window, 50))
            p99s.append(percentile(window, 99))
            window = []
    if not rates:
        raise RuntimeError("no verified operation completed")
    if not p50s:  # fewer than WINDOW_OPS ops in all: one short window
        window.sort()
        p50s.append(percentile(window, 50))
        p99s.append(percentile(window, 99))
    return Measurement(
        ops_per_s=statistics.median(rates),
        ops_per_s_raw=statistics.median(rates_raw),
        mib_per_s=statistics.median(brates),
        mib_per_s_raw=statistics.median(brates_raw),
        p50_us=statistics.median(p50s) / 1e3,
        p99_us=statistics.median(p99s) / 1e3,
        samples=samples,
        windows=len(p50s),
        chunks=len(results),
        attempted=attempted,
        failed=failed,
        cal_rate=statistics.median(cal_rates),
    )


def timed_per_call(run, target_s: float, cal: Calibration, cal_units: int,
                   reps: int = 5) -> float:
    """Normalized ns per call of `run(n) -> elapsed ns of n calls`.

    One call warms up and sizes the batch; then `reps` batches alternate
    with calibration runs and the median per-call time is returned.
    """
    first = max(1, run(1))
    n = max(1, int(target_s * 1e9 / reps / first))
    norm = []
    for rep in range(reps):
        if rep % 2 == 0:
            rate = cal.rate(cal_units)
            elapsed = run(n)
        else:
            elapsed = run(n)
            rate = cal.rate(cal_units)
        norm.append(elapsed / n * rate / cal.ref_rate)
    return statistics.median(norm)
