"""The four workloads.  Each one is set up from a seed and then run as a
closed loop by one thread: `cycle(tracer)` performs one fixed-composition
pass of public simplex calls, each call waiting for the previous one, and
verifies every result.

A cycle has the same op mix whatever the seed; the seed picks values,
lengths inside fixed strata, offsets and buffer contents.  That keeps
seeds comparable while still varying the inputs.

Tracer span names are "<layer>.<public function>"; the harness's own work
sits in "harness.*" root spans.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from time import perf_counter_ns as clock

from harness import BUFFERS, PLUMBING, CycleResult


class _Workload:
    """Counters every workload carries.  `reads`/`residue` count, on traced
    runs only, reads after which the spill scratch still holds bytes;
    `examined` sums ByteCounter totals of string ops."""

    cal = PLUMBING
    cal_units = 150          # calibration steps per chunk, ~4 ms
    setup_reps = 9
    reads = 0
    residue = 0
    examined = 0
    file = None

    def close(self) -> None:
        """Finish the register file the workload set up, if any."""
        if self.file is not None:
            self.sx.process_specific_finish(self.file)

    def note_read(self, tr, root: int, file) -> None:
        if tr.enabled:
            self.reads += 1
            if any(tr.call("regfile.scratch_snapshot", root, file.scratch_snapshot)):
                self.residue += 1


def _log_uniform_lengths(rng: random.Random, count: int, low: int, high: int) -> list[int]:
    """One seeded draw from each of `count` equal log-strata of [low, high]."""
    ratio = high / low
    return [min(high, max(low, int(low * ratio ** ((j + rng.random()) / count))))
            for j in range(count)]


class SlotChurn(_Workload):
    """Seeded RegisterFile calls over BND0-BND3, checked by a shadow model."""

    # Calls per 25-op block; every block is the same multiset, shuffled.
    MIX = (("qgetbnd_low", 5), ("getbnd_low", 3), ("getbnd_high", 2), ("getbnd128", 2),
           ("qsetbnd_low", 4), ("setbnd_low", 3), ("setbnd_high", 2), ("setbnd128", 3),
           ("reset_slot", 1))
    BLOCKS = 80
    READS = frozenset({"qgetbnd_low", "getbnd_low", "getbnd_high", "getbnd128"})

    def __init__(self, sx, seed: int) -> None:
        self.sx = sx
        self.file = sx.process_specific_init()
        rng = random.Random(seed)
        block = [name for name, count in self.MIX for _ in range(count)]
        self.stream = []
        for _ in range(self.BLOCKS):
            rng.shuffle(block)
            for name in block:
                slot = sx.SlotId(rng.randrange(4))
                self.stream.append((name, slot, rng.getrandbits(64), rng.getrandbits(64)))
        # Shadow of every slot: [low, high]; high None = unspecified.
        self.shadow = [[sx.LOW_RESET, sx.HIGH_RESET] for _ in range(4)]

    def cycle(self, tr) -> CycleResult:
        file, shadow = self.file, self.shadow
        res = CycleResult()
        times = res.times
        nbytes = 0
        traced = tr.enabled
        for name, slot, a, b in self.stream:
            op = tr.begin("harness.op")
            cell = shadow[slot]
            if name == "qgetbnd_low":
                t0 = clock(); v = file.qgetbnd_low(slot); t1 = clock()
                ok = v == cell[0]
                nbytes += 8
            elif name == "getbnd_low":
                t0 = clock(); v = file.getbnd_low(slot); t1 = clock()
                ok = v == cell[0]
                nbytes += 8
            elif name == "getbnd_high":
                t0 = clock(); v = file.getbnd_high(slot); t1 = clock()
                ok = cell[1] is None or v == cell[1]
                nbytes += 8
            elif name == "getbnd128":
                t0 = clock(); v = file.getbnd128(slot); t1 = clock()
                ok = v.low == cell[0] and (cell[1] is None or v.high == cell[1])
                nbytes += 16
            elif name == "qsetbnd_low":
                t0 = clock(); file.qsetbnd_low(slot, a); t1 = clock()
                cell[0], cell[1] = a, None
                ok = True
                nbytes += 8
            elif name == "setbnd_low":
                t0 = clock(); file.setbnd_low(slot, a); t1 = clock()
                cell[0] = a
                ok = True
                nbytes += 8
            elif name == "setbnd_high":
                t0 = clock(); file.setbnd_high(slot, b); t1 = clock()
                cell[1] = b
                ok = True
                nbytes += 8
            elif name == "setbnd128":
                t0 = clock(); file.setbnd128(slot, a, b); t1 = clock()
                cell[0], cell[1] = a, b
                ok = True
                nbytes += 16
            else:  # reset_slot
                t0 = clock(); file.reset_slot(slot); t1 = clock()
                cell[0], cell[1] = self.sx.LOW_RESET, self.sx.HIGH_RESET
                ok = True
                nbytes += 16
            if traced:
                tr.add("regfile." + name, t0, t1, op)
                if name in self.READS:
                    self.note_read(tr, op, file)
            tr.end(op)
            if ok:
                times.append(t1 - t0)
            else:
                res.failed += 1
        res.nbytes = nbytes
        return res


class _StrOp:
    """One prepared slot_op call and what ref_op returned on its inputs."""

    __slots__ = ("kind", "length", "aux", "dst_addr", "src_addr", "out", "pristine",
                 "want", "want_examined", "want_out", "keep")


class _StringOps(_Workload):
    """Shared machinery of small-ops and bulk.

    Every prepared op runs ref_op once at set-up on the same inputs (twin
    buffers for the mutators).  Each timed slot_op must then return the
    same result, the same ByteCounter total and the same written bytes.
    Inputs never change between calls: memmove's overlapping buffer is
    restored from a pristine copy, untimed, before every call.
    """

    def __init__(self, sx, seed: int) -> None:
        self.sx = sx
        self.file = sx.process_specific_init()
        self.rng = random.Random(seed)

    def _random(self, length: int) -> bytearray:
        """Seeded bytes free of the memchr needle 0xAA."""
        return bytearray(self.rng.randbytes(length).replace(b"\xaa", b"\xab"))

    def _prepare(self, kind: str, base: bytearray, *, differ_at: int | None = None,
                 needle_at: int | None = None, shift: int = 0, out=None) -> _StrOp:
        """Prepare one op over `base`, which only memmove writes to.

        memcmp compares base with a copy (differing at `differ_at` if
        given); memchr scans base for 0xAA (planted at `needle_at` if
        given); memcpy copies base into `out`; memset fills `out`; memmove
        moves base's bytes `shift` bytes further within base + shift bytes.
        """
        sx, rng = self.sx, self.rng
        length = len(base)
        op = _StrOp()
        op.kind, op.length, op.aux = sx.OpKind(kind), length, 0
        op.dst_addr = op.src_addr = op.out = op.pristine = op.want_out = op.want = None
        counter = sx.ByteCounter()
        if kind == "memcmp":
            other = bytearray(base)
            if differ_at is not None:
                other[differ_at] ^= 1 + rng.randrange(255)
            op.keep = (base, other)
            op.dst_addr, op.src_addr = sx.byte_address(base), sx.byte_address(other)
            op.want = sx.ref_op(op.kind, dst=base, src=other, length=length, counter=counter)
        elif kind == "memchr":
            op.aux = 0xAA
            if needle_at is not None:
                base[needle_at] = 0xAA
            op.keep = base
            op.src_addr = sx.byte_address(base)
            op.want = sx.ref_op(op.kind, src=base, length=length, aux=op.aux, counter=counter)
        elif kind in ("memcpy", "memset"):
            op.out = bytearray(length) if out is None else out
            op.dst_addr = sx.byte_address(op.out)
            if kind == "memcpy":
                op.keep = base
                op.src_addr = sx.byte_address(base)
            else:
                op.aux = rng.randrange(256)
            op.want_out = bytearray(length)
            sx.ref_op(op.kind, dst=op.want_out, src=base, length=length, aux=op.aux)
        else:  # memmove: dst overlaps src, `shift` bytes further on
            op.out = base + bytearray(rng.randbytes(shift))
            op.pristine = bytes(op.out)
            op.dst_addr = sx.byte_address(op.out) + shift
            op.src_addr = sx.byte_address(op.out)
            op.want_out = bytearray(op.pristine)
            view = memoryview(op.want_out)
            sx.ref_op(op.kind, dst=view[shift:shift + length], src=view[:length], length=length)
            view.release()
        op.want_examined = counter.examined
        return op

    def run_strop(self, op: _StrOp, tr, res: CycleResult) -> None:
        sx, file = self.sx, self.file
        if op.pristine is not None:
            op.out[:] = op.pristine
        root = tr.begin("harness.op")
        if op.dst_addr is not None:
            tr.call("regfile.qsetbnd_low", root, file.qsetbnd_low, sx.SlotId.BND0, op.dst_addr)
        if op.src_addr is not None:
            tr.call("regfile.qsetbnd_low", root, file.qsetbnd_low, sx.SlotId.BND1, op.src_addr)
        counter = sx.ByteCounter()
        t0 = clock()
        got = sx.slot_op(op.kind, file, dst_slot=sx.SlotId.BND0, src_slot=sx.SlotId.BND1,
                         length=op.length, aux=op.aux, counter=counter)
        t1 = clock()
        tr.add("strops.slot_op", t0, t1, root)
        self.note_read(tr, root, file)
        tr.end(root)
        self.examined += counter.examined
        if (got == op.want and counter.examined == op.want_examined
                and (op.want_out is None or op.out == op.want_out)):
            res.times.append(t1 - t0)
            res.nbytes += op.length
        else:
            res.failed += 1

    def run_unhide(self, hidden, secret: bytes, out: bytearray, reload: str, tr,
                   res: CycleResult) -> None:
        sx, file = self.sx, self.file
        root = tr.begin("harness.op")
        # Park this secret's share addresses; another hide may have moved them.
        for slot, share in ((hidden.slot_a, hidden.share_a), (hidden.slot_b, hidden.share_b)):
            tr.call("regfile.qsetbnd_low", root, file.qsetbnd_low, slot, sx.byte_address(share))
        t0 = clock()
        got = sx.unhide_combine(file, hidden, out=out, reload=reload)
        t1 = clock()
        tr.add("bench.unhide_combine", t0, t1, root)
        self.note_read(tr, root, file)
        tr.end(root)
        if got == secret:
            res.times.append(t1 - t0)
            res.nbytes += len(secret)
        else:
            res.failed += 1


class SmallOps(_StringOps):
    """slot_op over all five kinds at 16 B-4 KiB, plus 32-byte key unhiding."""

    KINDS = ("memcmp", "memchr", "memcpy", "memmove", "memset")
    # 500 slot_ops, 44 per-pass and 11 per-byte unhides per cycle.  Many
    # lengths make the long-memcmp tail, where p99 falls, dense enough that
    # p99 does not jump between neighbouring ops.
    LENGTHS_PER_KIND = 100
    KEYS = 44
    PER_BYTE_PER_CYCLE = 11

    def __init__(self, sx, seed: int) -> None:
        super().__init__(sx, seed)
        rng = self.rng
        n = self.LENGTHS_PER_KIND
        self.ops = []
        for kind in self.KINDS:
            # Lengths and (as fractions of the length) memcmp's first
            # difference, memchr's needle and memmove's shift each take one
            # seeded draw per stratum.  Strata pair up in a fixed pattern,
            # so the cost profile, tail included, is the same for every seed.
            lengths = _log_uniform_lengths(rng, n, 16, 4096)
            fractions = [[((j * step) % n + rng.random()) / n for j in range(n)]
                         for step in (7, 11, 13)]
            for length, f_diff, f_needle, f_shift in zip(lengths, *fractions):
                self.ops.append(self._prepare(
                    kind, self._random(length),
                    differ_at=int(f_diff * length),
                    needle_at=int(f_needle * length),
                    shift=1 + int(f_shift * (length - 1))))
        self.keys = []
        for _ in range(self.KEYS):
            secret = rng.randbytes(32)
            hidden = sx.hide_split(self.file, bytearray(secret), rng=rng)
            self.keys.append((hidden, secret, bytearray(32)))
        # Per-pass unhides of every key and a few per-byte ones, mixed in.
        plan = [("op", op) for op in self.ops]
        plan += [("per-pass", key) for key in self.keys]
        plan += [("per-byte", key) for key in self.keys[:self.PER_BYTE_PER_CYCLE]]
        rng.shuffle(plan)
        self.plan = plan

    def cycle(self, tr) -> CycleResult:
        res = CycleResult()
        for what, item in self.plan:
            if what == "op":
                self.run_strop(item, tr, res)
            else:
                self.run_unhide(*item, what, tr, res)
        return res


class Bulk(_StringOps):
    """The five kinds plus hide/unhide over 1 MiB and 16 MiB buffers."""

    SIZES = (1 << 20, 16 << 20)
    STRIDE = 1 << 16   # the string cores' stride
    cal = BUFFERS
    cal_units = 15           # ~50 ms
    setup_reps = 5

    def __init__(self, sx, seed: int) -> None:
        super().__init__(sx, seed)
        rng = self.rng
        self.sets = []
        for size in self.SIZES:
            # One read-only base serves memcmp (equal, and differing in the
            # last stride), memchr (needle absent: full scan), memcpy's
            # source and the hidden secret.  memcpy and memset share `out`.
            base = self._random(size)
            out = bytearray(size)
            ops = [
                self._prepare("memcmp", base),
                self._prepare("memcmp", base, differ_at=size - 1 - rng.randrange(self.STRIDE)),
                self._prepare("memchr", base),
                self._prepare("memcpy", base, out=out),
                self._prepare("memmove", self._random(size), shift=1 + rng.randrange(size // 16)),
                self._prepare("memset", base, out=out),
            ]
            if size == self.SIZES[-1]:
                # An early-hit memchr makes 17 ops per round: with an odd
                # count, op_p50_us sits mid-cluster of one op, not at an edge.
                ops.append(self._prepare("memchr", self._random(size),
                                         needle_at=rng.randrange(size // 2)))
            hidden = sx.hide_split(self.file, bytearray(base), rng=rng)
            self.sets.append((ops, base, hidden, bytearray(size)))

    def cycle(self, tr) -> CycleResult:
        res = CycleResult()
        sx = self.sx
        for index, (ops, secret, hidden, out) in enumerate(self.sets):
            for op in ops:
                self.run_strop(op, tr, res)
            fresh = bytearray(secret)
            root = tr.begin("harness.op")
            t0 = clock()
            hidden = sx.hide_split(self.file, fresh, rng=self.rng)
            t1 = clock()
            tr.add("bench.hide_split", t0, t1, root)
            tr.end(root)
            if fresh.count(0) == len(fresh):
                res.times.append(t1 - t0)
                res.nbytes += len(secret)
            else:
                res.failed += 1
            del fresh
            self.sets[index] = (ops, secret, hidden, out)
            self.run_unhide(hidden, secret, out, "per-pass", tr, res)
        return res


class Lifecycle(_Workload):
    """Thread sessions plus re-init harness and in-process CLI commands."""

    SESSIONS_PER_CYCLE = 8   # 8 of 11 ops: p50 falls inside the session cluster

    def __init__(self, sx, seed: int) -> None:
        self.sx = sx
        self.rng = random.Random(seed)
        report = sx.probe()
        self.backend = sx.select_backend(report)
        self.values = [tuple(self.rng.getrandbits(64) for _ in range(4))
                       for _ in range(self.SESSIONS_PER_CYCLE)]

    def _session(self, values, tr, res: CycleResult) -> None:
        sx = self.sx
        call = tr.call
        a, b, c, d = values
        root = tr.begin("harness.op")
        t0 = clock()
        report = call("probe.probe", root, sx.probe)
        backend = call("probe.select_backend", root, sx.select_backend, report)
        file = call("runtime.process_specific_init", root, sx.process_specific_init, backend)
        call("regfile.setbnd128", root, file.setbnd128, sx.SlotId.BND0, a, b)
        call("regfile.setbnd_low", root, file.setbnd_low, sx.SlotId.BND1, c)
        call("regfile.qsetbnd_low", root, file.qsetbnd_low, sx.SlotId.BND2, d)
        got128 = call("regfile.getbnd128", root, file.getbnd128, sx.SlotId.BND0)
        self.note_read(tr, root, file)
        got_low = call("regfile.getbnd_low", root, file.getbnd_low, sx.SlotId.BND1)
        self.note_read(tr, root, file)
        got_q = call("regfile.qgetbnd_low", root, file.qgetbnd_low, sx.SlotId.BND2)
        self.note_read(tr, root, file)
        call("runtime.process_specific_finish", root, sx.process_specific_finish, file)
        t1 = clock()
        tr.end(root)
        ok = (backend is self.backend and got128.low == a and got128.high == b
              and got_low == c and got_q == d and not sx.is_enabled(file)
              and not any(file.scratch_snapshot()))
        if ok:
            res.times.append(t1 - t0)
            res.nbytes += 64
        else:
            res.failed += 1

    def _reinit(self, tr, res: CycleResult) -> None:
        sx = self.sx
        root = tr.begin("harness.op")
        t0 = clock()
        try:
            log = sx.reinit_harness()
        except sx.HarnessMismatchError:
            log = None
        t1 = clock()
        tr.add("context.reinit_harness", t0, t1, root)
        tr.end(root)
        if log is not None and log.compare(sx.EXPECTED_REINIT_TABLE) is None:
            res.times.append(t1 - t0)
        else:
            res.failed += 1

    def _cli(self, argv, check, tr, res: CycleResult) -> None:
        root = tr.begin("harness.op")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            t0 = clock()
            code = self.sx.cli.main(argv)
            t1 = clock()
        tr.add("cli.main." + argv[0], t0, t1, root)
        tr.end(root)
        if code == 0 and check(out.getvalue()):
            res.times.append(t1 - t0)
        else:
            res.failed += 1

    def _probe_ok(self, text: str) -> bool:
        return json.loads(text)["selected"] == self.backend.value

    @staticmethod
    def _selftest_ok(text: str) -> bool:
        return ("PASS reinit-and-finish: 5 rows match" in text
                and "PASS round-trip:" in text)

    def cycle(self, tr) -> CycleResult:
        res = CycleResult()
        for values in self.values:
            self._session(values, tr, res)
        self._reinit(tr, res)
        self._cli(["probe", "--json"], self._probe_ok, tr, res)
        self._cli(["selftest", "--reinit", "--roundtrip"], self._selftest_ok, tr, res)
        return res


WORKLOADS = {
    "slot-churn": SlotChurn,
    "small-ops": SmallOps,
    "bulk": Bulk,
    "lifecycle": Lifecycle,
}
