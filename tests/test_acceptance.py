"""Acceptance gate: ten numbered criteria, one PASS/FAIL line each.

Every criterion pins its tolerance and wall-clock budget in the constants
below.  Criteria marked (HW) need real MPX state: on machines whose CPU or
OS cannot provide it they print a visible NOTICE line and skip instead of
reporting a pass they never measured.
"""

import collections
import csv
import io
import json
import random
import statistics
import time

import pytest

from simplex import (
    CSV_HEADER,
    BackendKind,
    ByteCounter,
    OpKind,
    REFERENCE_SIZES,
    SlotId,
    bench_loadstore,
    bench_strops,
    bench_traversal,
    byte_address,
    fork_harness,
    hide_split,
    loadstore_ratios,
    probe,
    process_specific_finish,
    process_specific_init,
    ref_op,
    reinit_harness,
    slot_op,
    thread_harness,
    unhide_combine,
)
from simplex.cli import main as cli_main
from simplex.probe import ENV_BACKEND
from test_strops import _libc_op

BUDGET_S = {1: 5.0, 2: 10.0, 3: 1.0, 4: 60.0, 5: 60.0, 9: 30.0}
C1_CYCLES = 10_000
C3_OPS = 1_000
C4_TRIALS = 100          # randomized inputs per op/size pair
C5_ITERS = 100           # reconstructions per size
C6_STORE_RATIO = (0.8, 1.2)
C6_LOAD_RATIO = (0.5, 1.0)
C7_OVERHEAD_PCT = (150.0, 400.0)
C8_GEOMEAN_PCT = 10.0
C9_SCALING = (1.5, 3.0)  # elapsed ratio after doubling iters
C9_ROUNDS = 5            # alternating x1/x2 rounds; a row passes on the median

_ZERO_SCRATCH = bytes(16)


def _passed(n: int, detail: str, elapsed: float | None = None) -> None:
    if elapsed is not None:
        budget = BUDGET_S[n]
        assert elapsed < budget, (
            f"criterion {n} blew its budget: {elapsed:.2f}s >= {budget:.0f}s"
        )
        print(f"PASS criterion {n}: {detail} [{elapsed:.2f}s < {budget:.0f}s]")
    else:
        print(f"PASS criterion {n}: {detail}")


def _hardware_or_skip(n: int, envelope: str):
    report = probe()
    if report.hardware_capable:
        return
    notice = (
        f"NOTICE criterion {n} (HW): skipped, this machine cannot provide MPX "
        f"state (cpu_has_mpx={report.cpu_has_mpx}, "
        f"os_context_saves_mpx={report.os_context_saves_mpx}); "
        f"unmeasured envelope: {envelope}"
    )
    print(notice)
    pytest.skip(notice)


# ---------------------------------------------------------------------------
# Criterion 1: randomized 64/128-bit round trips across all slots/accessors
# ---------------------------------------------------------------------------


def _roundtrip_cycles(kind: BackendKind, cycles: int, seed: int) -> None:
    file = process_specific_init(kind)
    try:
        rng = random.Random(seed)
        slots = list(SlotId)
        low = dict.fromkeys(slots, None)
        high = dict.fromkeys(slots, None)

        def learn_high(slot):
            # A quick write leaves the upper half unspecified; a sanitizing
            # read pins it, and it must stay stable afterwards.
            if high[slot] is None:
                high[slot] = file.getbnd_high(slot)

        for i in range(cycles):
            slot = slots[i % 4]
            variant = rng.randrange(5)
            value = rng.getrandbits(64)
            if variant == 0:
                file.setbnd_low(slot, value)
                low[slot] = value
                assert file.getbnd_low(slot) == value
            elif variant == 1:
                file.setbnd_high(slot, value)
                high[slot] = value
                assert file.getbnd_high(slot) == value
            elif variant == 2:
                other = rng.getrandbits(64)
                file.setbnd128(slot, value, other)
                low[slot], high[slot] = value, other
                got = file.getbnd128(slot)
                assert (got.low, got.high) == (value, other)
            elif variant == 3:
                file.qsetbnd_low(slot, value)
                low[slot], high[slot] = value, None
                assert file.qgetbnd_low(slot) == value
            else:
                if low[slot] is not None:
                    assert file.qgetbnd_low(slot) == low[slot]
                learn_high(slot)
                assert file.getbnd_high(slot) == high[slot]
            if i % 257 == 0:
                for s in slots:
                    if low[s] is not None:
                        assert file.getbnd_low(s) == low[s]
                    learn_high(s)
                    assert file.getbnd_high(s) == high[s]
    finally:
        process_specific_finish(file)


def test_c01_slot_roundtrip_cycles():
    start = time.perf_counter()
    _roundtrip_cycles(BackendKind.EMULATED, C1_CYCLES, seed=101)
    _passed(1, f"{C1_CYCLES} randomized accessor cycles, emulated backend",
            time.perf_counter() - start)


def test_c01_hw_slot_roundtrip_cycles():
    _hardware_or_skip(1, f"{C1_CYCLES} randomized accessor cycles on hardware")
    start = time.perf_counter()
    _roundtrip_cycles(BackendKind.HARDWARE, C1_CYCLES, seed=101)
    _passed(1, f"{C1_CYCLES} randomized accessor cycles, hardware backend",
            time.perf_counter() - start)


# ---------------------------------------------------------------------------
# Criterion 2: the three inheritance tables, cell for cell
# ---------------------------------------------------------------------------


def _run_harnesses(kind: BackendKind) -> str:
    fork_log = fork_harness(kind)
    thread_log = thread_harness(kind)
    reinit_log = reinit_harness(kind)
    counts = (len(fork_log.rows), len(thread_log.rows), len(reinit_log.rows))
    assert counts == (6, 9, 5)
    return f"fork {counts[0]} rows, threads {counts[1]} rows, reinit {counts[2]} rows"


def test_c02_inheritance_tables():
    start = time.perf_counter()
    detail = _run_harnesses(BackendKind.EMULATED)
    _passed(2, f"{detail}, all cells match, emulated backend",
            time.perf_counter() - start)


def test_c02_hw_inheritance_tables():
    _hardware_or_skip(2, "three inheritance tables on hardware")
    start = time.perf_counter()
    detail = _run_harnesses(BackendKind.HARDWARE)
    _passed(2, f"{detail}, all cells match, hardware backend",
            time.perf_counter() - start)


# ---------------------------------------------------------------------------
# Criterion 3: every sanitizing operation leaves the spill scratch zeroed
# ---------------------------------------------------------------------------


def test_c03_spill_sanitization(emulated_file):
    from simplex import slot_address

    file = emulated_file
    start = time.perf_counter()
    rng = random.Random(33)
    slots = list(SlotId)
    for slot in slots:
        # Nonzero, non-reset lower halves so slot_address never rejects.
        file.setbnd128(slot, rng.randrange(1, 1 << 48), rng.getrandbits(64))
    sanitizers = (
        lambda s: file.getbnd_low(s),
        lambda s: file.getbnd_high(s),
        lambda s: file.getbnd128(s),
        lambda s: slot_address(file, s, sanitize=True),
    )
    dirtied = 0
    for _ in range(C3_OPS):
        slot = rng.choice(slots)
        file.qgetbnd_low(slot)  # leaves the spilled image behind
        if file.scratch_snapshot() != _ZERO_SCRATCH:
            dirtied += 1
        rng.choice(sanitizers)(slot)
        assert file.scratch_snapshot() == _ZERO_SCRATCH
    assert dirtied == C3_OPS  # the quick read really does leave residue
    _passed(3, f"{C3_OPS} sanitizing reads wiped the scratch every time",
            time.perf_counter() - start)


# ---------------------------------------------------------------------------
# Criterion 4: string ops agree with the plain route and with libc
# ---------------------------------------------------------------------------


def _c04_one_size(file, rng, size: int) -> None:
    src = bytearray(rng.randbytes(size))
    other = bytearray(src)  # memcmp second operand, mostly equal to src
    dst_ref = bytearray(size)
    dst_slot = bytearray(size)
    dst_c = bytearray(size)
    shift_max = max(1, size // 8)
    blob = rng.randbytes(size + shift_max)
    move_ref = bytearray(blob)
    move_slot = bytearray(blob)
    move_c = bytearray(blob)

    def lengths():
        for trial in range(C4_TRIALS):
            yield size if trial < 2 else rng.randint(1, size)

    # memcmp: flip a few bytes of the second operand, compare three routes,
    # then revert so the buffers stay mostly equal.
    for n in lengths():
        flips = []
        if rng.random() < 0.8:
            for _ in range(rng.randint(1, 3)):
                pos = rng.randrange(size)
                flips.append((pos, other[pos]))
                other[pos] ^= rng.randint(1, 255)
        ref_counter = ByteCounter()
        slot_counter = ByteCounter()
        want = ref_op(OpKind.MEMCMP, dst=src, src=other, length=n,
                      counter=ref_counter)
        file.qsetbnd_low(SlotId.BND0, byte_address(src))
        file.qsetbnd_low(SlotId.BND1, byte_address(other))
        got = slot_op(OpKind.MEMCMP, file, dst_slot=SlotId.BND0,
                      src_slot=SlotId.BND1, length=n, counter=slot_counter)
        assert got == want
        assert slot_counter.examined == ref_counter.examined
        assert _libc_op(OpKind.MEMCMP, dst=src, src=other, length=n) == want
        for pos, old in flips:
            other[pos] = old

    # memchr: random needle (sometimes > 255 to exercise masking).
    for n in lengths():
        needle = rng.randrange(512)
        want = ref_op(OpKind.MEMCHR, src=src, length=n, aux=needle)
        file.qsetbnd_low(SlotId.BND1, byte_address(src))
        got = slot_op(OpKind.MEMCHR, file, src_slot=SlotId.BND1,
                      length=n, aux=needle)
        assert got == want
        assert _libc_op(OpKind.MEMCHR, src=src, length=n, aux=needle) == want

    # memcpy: all three destination lanes must stay byte-identical.
    for n in lengths():
        pos = rng.randrange(size)
        src[pos] ^= rng.randint(1, 255)
        ref_op(OpKind.MEMCPY, dst=dst_ref, src=src, length=n)
        file.qsetbnd_low(SlotId.BND0, byte_address(dst_slot))
        file.qsetbnd_low(SlotId.BND1, byte_address(src))
        slot_op(OpKind.MEMCPY, file, dst_slot=SlotId.BND0,
                src_slot=SlotId.BND1, length=n)
        _libc_op(OpKind.MEMCPY, dst=dst_c, src=src, length=n)
        assert dst_ref == dst_slot == dst_c

    # memmove: random overlapping windows inside one buffer per lane.
    for trial, n in enumerate(lengths()):
        if trial % 25 == 24:
            fresh = rng.randbytes(size + shift_max)
            move_ref[:] = fresh
            move_slot[:] = fresh
            move_c[:] = fresh
        dst_off = rng.randint(0, shift_max)
        src_off = rng.randint(0, shift_max)
        ref_op(OpKind.MEMMOVE, dst=memoryview(move_ref)[dst_off:],
               src=memoryview(move_ref)[src_off:], length=n)
        file.qsetbnd_low(SlotId.BND0, byte_address(move_slot) + dst_off)
        file.qsetbnd_low(SlotId.BND1, byte_address(move_slot) + src_off)
        slot_op(OpKind.MEMMOVE, file, dst_slot=SlotId.BND0,
                src_slot=SlotId.BND1, length=n)
        _libc_op(OpKind.MEMMOVE, dst=memoryview(move_c)[dst_off:],
                 src=memoryview(move_c)[src_off:], length=n)
        assert move_ref == move_slot == move_c

    # memset: aux above 255 must mask identically everywhere.
    for n in lengths():
        value = rng.randrange(512)
        ref_op(OpKind.MEMSET, dst=dst_ref, length=n, aux=value)
        file.qsetbnd_low(SlotId.BND0, byte_address(dst_slot))
        slot_op(OpKind.MEMSET, file, dst_slot=SlotId.BND0, length=n, aux=value)
        _libc_op(OpKind.MEMSET, dst=dst_c, length=n, aux=value)
        assert dst_ref == dst_slot == dst_c


def test_c04_string_ops_equivalence(emulated_file):
    start = time.perf_counter()
    rng = random.Random(404)
    for size in REFERENCE_SIZES:
        _c04_one_size(emulated_file, rng, size)
    _passed(4, f"5 ops x {len(REFERENCE_SIZES)} sizes x {C4_TRIALS} randomized "
               "inputs agree across slot, plain, and libc routes",
            time.perf_counter() - start)


# ---------------------------------------------------------------------------
# Criterion 5: two-share traversal reconstructs the secret at every size
# ---------------------------------------------------------------------------


def test_c05_traversal_reconstruction(emulated_file):
    start = time.perf_counter()
    rng = random.Random(505)
    for size in REFERENCE_SIZES:
        secret = bytearray(rng.randbytes(size))
        original = bytes(secret)
        hidden = hide_split(emulated_file, secret, rng=rng)
        for mode in ("per-pass", "per-byte"):
            out = bytearray(size)
            for _ in range(C5_ITERS):
                unhide_combine(emulated_file, hidden, out=out, reload=mode)
                assert out == original
    _passed(5, f"XOR unhide reproduced secrets at {len(REFERENCE_SIZES)} sizes, "
               f"{C5_ITERS} reconstructions per reload mode each",
            time.perf_counter() - start)


# ---------------------------------------------------------------------------
# Criteria 6-8 (HW): published performance envelopes
# ---------------------------------------------------------------------------


def test_c06_hw_loadstore_ratio_envelope():
    _hardware_or_skip(
        6, f"slot/register rate ratio store in {C6_STORE_RATIO}, "
           f"load in {C6_LOAD_RATIO}")
    file = process_specific_init(BackendKind.HARDWARE)
    try:
        records = bench_loadstore(file, runs=20, iters=200_000, seed=0)
        ratios = loadstore_ratios(records)
    finally:
        process_specific_finish(file)
    assert C6_STORE_RATIO[0] <= ratios["store"] <= C6_STORE_RATIO[1]
    assert C6_LOAD_RATIO[0] <= ratios["load"] <= C6_LOAD_RATIO[1]
    _passed(6, f"hardware rate ratios store={ratios['store']:.3f} "
               f"load={ratios['load']:.3f} inside the envelopes")


def test_c07_hw_traversal_overhead_envelope():
    _hardware_or_skip(7, f"per-byte traversal overhead in {C7_OVERHEAD_PCT}%")
    file = process_specific_init(BackendKind.HARDWARE)
    try:
        records = bench_traversal(file, sizes=REFERENCE_SIZES, runs=5, iters=20,
                                  reload="per-byte", seed=0)
    finally:
        process_specific_finish(file)
    overheads = [r.overhead_pct for r in records if r.target == "slot"]
    assert all(C7_OVERHEAD_PCT[0] <= o <= C7_OVERHEAD_PCT[1] for o in overheads)
    _passed(7, f"hardware traversal overheads {overheads} inside the envelope")


def test_c08_hw_strops_overhead_envelope():
    _hardware_or_skip(8, f"string-op geometric mean overhead <= {C8_GEOMEAN_PCT}%")
    file = process_specific_init(BackendKind.HARDWARE)
    try:
        _, overall = bench_strops(file, sizes=REFERENCE_SIZES, runs=20, seed=0)
    finally:
        process_specific_finish(file)
    assert overall <= C8_GEOMEAN_PCT
    _passed(8, f"hardware string-op geomean {overall:.2f}% <= {C8_GEOMEAN_PCT}%")


# ---------------------------------------------------------------------------
# Criterion 9: measurements scale with work and fold real data
# ---------------------------------------------------------------------------


def _host_loop_ns() -> int:
    """Time a fixed pure-Python loop that calls nothing in simplex."""
    start = time.perf_counter_ns()
    acc = 0
    for i in range(100_000):
        acc ^= i
    return time.perf_counter_ns() - start


def test_c09_measurement_scaling_guard(emulated_file):
    start = time.perf_counter()
    base_iters = 80_000
    # The x1 and x2 calls alternate, in rounds that switch which runs first.
    # Each round compares each row's fastest x2 run with its fastest x1 run,
    # and divides that by the round's host ratio: the same pure-Python loop,
    # timed right before and right after each call, x2 over x1.  The host
    # switches speed within seconds; a slow spell over one call slows the
    # host loop around it too, and the division takes it out.  A row passes
    # on the median over rounds.
    ratios = collections.defaultdict(list)  # row -> host-corrected x2/x1 run time, by round
    host = []  # x2/x1 host loop time, by round
    for round_ in range(C9_ROUNDS):
        fastest, host_ns = {}, {}
        for scale in (1, 2) if round_ % 2 == 0 else (2, 1):
            before = _host_loop_ns()
            for r in bench_loadstore(emulated_file, runs=2, iters=scale * base_iters, seed=7):
                fastest[scale, f"{r.target}/{r.detail}"] = r.iters / r.stats.maximum
            host_ns[scale] = before + _host_loop_ns()
        host.append(host_ns[2] / host_ns[1])
        for (scale, key), seconds in fastest.items():
            if scale == 1:
                ratios[key].append(fastest[2, key] / seconds / host[-1])
    # A code fault moves the fixture ratios and not the host loop's.
    host = "host loop x2/x1 by round " + ", ".join(f"{x:.2f}" for x in host)
    medians = {key: statistics.median(values) for key, values in ratios.items()}
    for key, ratio in medians.items():
        assert C9_SCALING[0] <= ratio <= C9_SCALING[1], (
            f"{key}: doubling iters scaled elapsed by a host-corrected median {ratio:.2f} "
            f"(by round {', '.join(f'{x:.2f}' for x in ratios[key])}), "
            f"outside {C9_SCALING}; the loop is being optimized away "
            f"or the timer is not measuring it ({host})"
        )
    seed_a = bench_loadstore(emulated_file, runs=2, iters=4096, seed=1)
    seed_b = bench_loadstore(emulated_file, runs=2, iters=4096, seed=2)
    assert [r.checksum for r in seed_a] != [r.checksum for r in seed_b]
    pretty = ", ".join(f"{k} x{v:.2f}" for k, v in medians.items())
    _passed(9, f"elapsed scales with work ({pretty}; {host}) and checksums "
               "track seeds",
            time.perf_counter() - start)


# ---------------------------------------------------------------------------
# Criterion 10: command-line contract
# ---------------------------------------------------------------------------


def test_c10_cli_contract(monkeypatch, capsys):
    monkeypatch.delenv(ENV_BACKEND, raising=False)

    assert cli_main(["probe", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["selected"] in ("hardware", "emulated")

    assert cli_main([]) == 1
    capsys.readouterr()

    monkeypatch.setenv(ENV_BACKEND, "turbo")
    assert cli_main(["probe"]) == 2
    monkeypatch.delenv(ENV_BACKEND)
    capsys.readouterr()

    assert cli_main(["--backend", "emulated", "selftest", "--fork",
                     "--inject-fault"]) == 3
    assert "row 2" in capsys.readouterr().err

    assert cli_main(["bench", "--help"]) == 0
    help_text = capsys.readouterr().out
    for token in ("10000", "1000000", "1000", "4K,8K,1M,16M", "per-byte", "100"):
        assert token in help_text

    assert cli_main(["--backend", "emulated", "bench", "traversal",
                     "--sizes", "1K", "--runs", "2", "--iters", "1",
                     "--format", "csv"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(list(csv.DictReader(io.StringIO(out)))) == 2

    _passed(10, "probe --json parses; exit codes 0/1/2/3 observed under "
                "induced failures; documented defaults and CSV header intact")
