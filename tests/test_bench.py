"""Benchmark fixtures: statistics, hiding, correctness folds, emitters."""

import csv
import ctypes
import functools
import io
import itertools
import json
import math
import operator
import os
import random
import threading
import time
import tracemalloc
from types import SimpleNamespace

import pytest

import simplex.bench
import simplex.hide
from simplex import machine
from simplex import (
    CSV_HEADER,
    DisabledError,
    DomainError,
    NullSlotAddressError,
    OpKind,
    SlotId,
    bench_loadstore,
    bench_strops,
    bench_traversal,
    byte_address,
    geomean,
    hide_split,
    loadstore_ratios,
    process_specific_finish,
    render_csv,
    render_json,
    render_markdown,
    snapshot,
    unhide_combine,
)
from simplex.bench import BenchRecord, RunStats
from simplex.machine import _BLOCK  # the portable cores' stride; sizes straddle it
from simplex.strops import _Pin

# Reference overhead grid measured on MPX hardware (percent), one mean and
# one median cell per op/size; the two missing cells enter the overall
# figure as zero.  The overall geometric mean of this grid is the published
# 0.69; the means-only pooling gives the 0.9 headline figure.
REFERENCE_GRID_MEANS = [
    0.11, 0.08, 0.53, 1.18, 0.00,
    -0.29, 0.12, 0.14, 2.03, -0.24,
    5.58, -0.07, -0.10, 1.41, 0.02,
    5.86, -0.33, 1.46, 0.02,
]
REFERENCE_GRID_MEDIANS = [
    0.00, 0.16, 0.57, 1.20, -0.01,
    -0.02, 0.14, 0.22, 2.88, 0.00,
    -0.08, -0.06, -0.05, 1.44, 0.00,
    2.29, -0.06, 1.46, 0.02,
]
REFERENCE_OVERALL_GEOMEAN = 0.69
REFERENCE_MEANS_ONLY_GEOMEAN = 0.9


# ---------------------------------------------------------------------------
# geomean
# ---------------------------------------------------------------------------


def test_geomean_fixed_points():
    assert geomean([0, 0, 0]) == pytest.approx(0.0, abs=1e-12)
    assert geomean([100]) == pytest.approx(100.0, abs=1e-9)
    # 0.5x and 2x cancel exactly.
    assert geomean([-50, 100]) == pytest.approx(0.0, abs=1e-9)


def test_geomean_domain_errors():
    with pytest.raises(DomainError):
        geomean([])
    with pytest.raises(DomainError):
        geomean([-100])
    with pytest.raises(DomainError):
        geomean([5, -150])


def test_geomean_matches_product_oracle():
    rng = random.Random(31)
    values = [rng.uniform(-40, 250) for _ in range(64)]
    via_logs = geomean(values)
    product = math.prod(1 + v / 100 for v in values) ** (1 / len(values))
    assert via_logs == pytest.approx((product - 1) * 100, rel=1e-9)


def test_geomean_reproduces_reference_grid_figures():
    pooled = REFERENCE_GRID_MEANS + REFERENCE_GRID_MEDIANS + [0.0, 0.0]
    overall = geomean(pooled)
    # Independent product-based route, then the published targets.
    product = math.prod(1 + v / 100 for v in pooled) ** (1 / len(pooled))
    assert overall == pytest.approx((product - 1) * 100, rel=1e-9)
    assert abs(overall - REFERENCE_OVERALL_GEOMEAN) < 0.02
    means_only = geomean(REFERENCE_GRID_MEANS)
    assert abs(means_only - REFERENCE_MEANS_ONLY_GEOMEAN) < 0.02
    assert max(pooled) == 5.86  # the quoted maximum cell


# ---------------------------------------------------------------------------
# RunStats
# ---------------------------------------------------------------------------


def test_runstats_quartiles_inclusive():
    stats = RunStats.from_samples([1, 2, 3, 4])
    assert stats.mean == pytest.approx(2.5)
    assert stats.median == pytest.approx(2.5)
    assert stats.q1 == pytest.approx(1.75)
    assert stats.q3 == pytest.approx(3.25)
    assert stats.minimum == 1 and stats.maximum == 4


def test_runstats_single_sample_and_empty():
    stats = RunStats.from_samples([7])
    assert (stats.mean, stats.median, stats.q1, stats.q3) == (7, 7, 7, 7)
    with pytest.raises(ValueError):
        RunStats.from_samples([])


# ---------------------------------------------------------------------------
# Hiding
# ---------------------------------------------------------------------------


# 1 and 7 are shorter than one stride, the rest sit on or just past a
# stride boundary, where the XOR core's last stride is cut short.
HIDE_SIZES = [1, 7, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5]

# The table fixture pinned to one table, whose name stays out of the test id.
ON_THE_FALLBACK = pytest.mark.parametrize("table", ["portable"], ids=[pytest.HIDDEN_PARAM],
                                          indirect=True)
WITHOUT_AES = pytest.mark.parametrize("table", ["no-aes"], ids=[pytest.HIDDEN_PARAM],
                                      indirect=True)
# Every table, under the ids these cases have always had: "native" is the live page.
NATIVE_AND_FALLBACKS = pytest.mark.parametrize("table", ["live", "no-aes", "portable"],
                                               ids=["native", "no-aes", "fallback"],
                                               indirect=True)


def _assert_roundtrip_and_wipe(file, size):
    rng = random.Random(2024)
    secret = bytearray(rng.randbytes(size))
    original = bytes(secret)
    hidden = hide_split(file, secret, rng=rng)
    assert secret == bytearray(size)  # wiped in place
    assert (hidden.slot_a, hidden.slot_b) == (SlotId.BND2, SlotId.BND3)
    assert file.getbnd_low(SlotId.BND2) == byte_address(hidden.share_a)
    assert file.getbnd_low(SlotId.BND3) == byte_address(hidden.share_b)
    assert len(hidden.share_a) == len(hidden.share_b) == size
    assert bytes(hidden.share_a) != original
    assert bytes(hidden.share_b) != original
    combined = bytes(a ^ b for a, b in zip(hidden.share_a, hidden.share_b))
    assert combined == original
    for mode in ("per-pass", "per-byte"):
        assert bytes(unhide_combine(file, hidden, reload=mode)) == original
    # Both routes check their share addresses with the sanitizing read.
    assert file.scratch_snapshot() == bytes(16)


@pytest.mark.parametrize("size", HIDE_SIZES)
def test_hide_unhide_roundtrip_and_wipe(file, size):
    _assert_roundtrip_and_wipe(file, size)


# The live page hides above; the portable table hides with the Python XOR
# and SHAKE-128 share A, a page without AES-NI with the native XOR and
# SHAKE-128 share A.
@ON_THE_FALLBACK
@pytest.mark.parametrize("size", HIDE_SIZES)
def test_hide_unhide_roundtrip_on_the_fallback(emulated_file, table, size):
    _assert_roundtrip_and_wipe(emulated_file, size)


@WITHOUT_AES
@pytest.mark.parametrize("size", HIDE_SIZES)
def test_hide_unhide_roundtrip_without_aes(emulated_file, table, size):
    _assert_roundtrip_and_wipe(emulated_file, size)


def _hide_in_foreign_thread(file, secret):
    refusals = []

    def attempt():
        try:
            hide_split(file, secret, rng=random.Random(3))
        except DisabledError as exc:
            refusals.append(exc)

    worker = threading.Thread(target=attempt)
    worker.start()
    worker.join(timeout=30)
    assert not worker.is_alive()
    if refusals:
        raise refusals[0]


@pytest.mark.parametrize("refused_by", ["disabled-file", "foreign-thread"])
def test_refused_hide_keeps_secret_and_slots(file, refused_by):
    file.setbnd128(SlotId.BND2, 0x1122, 0x3344)
    file.setbnd128(SlotId.BND3, 0x5566, 0x7788)
    if refused_by == "disabled-file":
        process_specific_finish(file)
        hide = lambda secret: hide_split(file, secret, rng=random.Random(3))
    else:
        hide = lambda secret: _hide_in_foreign_thread(file, secret)
    before = file._peek_raw_slots()
    secret = bytearray(random.Random(6).randbytes(300))
    original = bytes(secret)
    with pytest.raises(DisabledError):
        hide(secret)
    assert secret == original
    assert file._peek_raw_slots() == before


def test_hide_all_zero_secret_gives_equal_shares(file):
    secret = bytearray(64)
    hidden = hide_split(file, secret, rng=random.Random(1))
    assert hidden.share_a == hidden.share_b


def test_hide_rejects_bad_inputs(file):
    with pytest.raises(ValueError):
        hide_split(file, bytearray())
    with pytest.raises(TypeError):
        hide_split(file, b"immutable")


def test_unhide_argument_validation(file):
    hidden = hide_split(file, bytearray(b"abcd"), rng=random.Random(2))
    with pytest.raises(ValueError):
        unhide_combine(file, hidden, out=bytearray(3))
    with pytest.raises(ValueError):
        unhide_combine(file, hidden, reload="per-word")
    hidden.destroy()  # the reload mode is checked first, even on a destroyed buffer
    with pytest.raises(ValueError):
        unhide_combine(file, hidden, reload="bogus")


def _hide_older_then_newer(file, older_size, newer_size):
    """Hide two secrets on one file; both results stay alive."""
    rng = random.Random(10)
    secrets = [bytearray(rng.randbytes(size)) for size in (older_size, newer_size)]
    originals = [bytes(secret) for secret in secrets]
    older, newer = (hide_split(file, secret, rng=rng) for secret in secrets)
    return older, newer, originals


# same-length: the older buffer would read the newer secret; over-read:
# it would read 4096 bytes from the newer buffer's 16-byte shares.
@pytest.mark.parametrize("reload", ["per-pass", "per-byte"])
@pytest.mark.parametrize("older_size, newer_size", [(16, 16), (4096, 16)],
                         ids=["same-length", "over-read"])
def test_unhide_refuses_a_buffer_a_later_hide_displaced(file, reload, older_size, newer_size):
    older, newer, originals = _hide_older_then_newer(file, older_size, newer_size)
    out = bytearray(b"\xaa" * older_size)
    with pytest.raises(NullSlotAddressError, match="BND2/BND3"):
        unhide_combine(file, older, out=out, reload=reload)
    assert out == bytearray(b"\xaa" * older_size)  # not a byte was read into it
    assert bytes(unhide_combine(file, newer, reload=reload)) == originals[1]


@pytest.mark.parametrize("reload", ["per-pass", "per-byte"])
def test_reparked_older_buffer_unhides_again(file, reload):
    # What a caller holding several buffers does before each unhide.
    older, _newer, originals = _hide_older_then_newer(file, 300, 300)
    file.qsetbnd_low(older.slot_a, byte_address(older.share_a))
    file.qsetbnd_low(older.slot_b, byte_address(older.share_b))
    assert bytes(unhide_combine(file, older, reload=reload)) == originals[0]


UNHIDE_AFTER_DROPPED_SHARES = """
import random, sys
from simplex import (BackendKind, NullSlotAddressError, hide_split, process_specific_init,
                     unhide_combine)
file = process_specific_init(BackendKind.EMULATED)
rng = random.Random(12)
older = hide_split(file, bytearray(rng.randbytes(1 << 20)), rng=rng)
for _ in range(4):  # each result is dropped, so BND2/BND3 end up naming freed shares
    hide_split(file, bytearray(rng.randbytes(1 << 20)), rng=rng)
try:
    unhide_combine(file, older, reload=sys.argv[1])
except NullSlotAddressError:
    print("refused")
"""


@pytest.mark.parametrize("reload", ["per-pass", "per-byte"])
def test_unhide_after_newer_shares_were_freed_is_refused(run_python, reload):
    done = run_python(UNHIDE_AFTER_DROPPED_SHARES, reload)
    assert (done.returncode, done.stdout.strip()) == (0, "refused"), done.stderr


@pytest.mark.parametrize("table", ["live", "no-aes", "portable"],
                         ids=["native", "no-aes", "portable"], indirect=True)
def test_per_pass_unhide_holds_no_full_size_temporary(emulated_file, table):
    n = 4 << 20
    secret = bytearray(random.Random(8).randbytes(n))
    original = bytes(secret)
    hidden = hide_split(emulated_file, secret, rng=random.Random(9))
    out = bytearray(n)
    tracemalloc.start()
    try:
        unhide_combine(emulated_file, hidden, out=out, reload="per-pass")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out == original
    assert peak < 8 * _BLOCK, f"traced peak {peak} bytes while unhiding {n}"


def test_shares_look_uniform_and_uncorrelated(file):
    n = 1 << 20
    rng = random.Random(99)
    secret = bytearray(rng.randbytes(n))
    original = bytes(secret)
    hidden = hide_split(file, secret, rng=rng)
    expected = n / 256
    for share in (bytes(hidden.share_a), bytes(hidden.share_b)):
        chi2 = sum(
            (share.count(v) - expected) ** 2 / expected for v in range(256)
        )
        # df=255: mean 255, sd ~22.6; 400 is far beyond plausible for uniform.
        assert chi2 < 400
        # About half the bits should disagree with the secret.
        disagree = (
            int.from_bytes(share, "little") ^ int.from_bytes(original, "little")
        ).bit_count()
        assert 0.45 < disagree / (n * 8) < 0.55


# ---------------------------------------------------------------------------
# Share A's seed: what the rng gives, and where the seed goes
# ---------------------------------------------------------------------------


def test_seeded_hides_give_identical_shares(file):
    secret = random.Random(4).randbytes(300)
    first, second = (hide_split(file, bytearray(secret), rng=random.Random(5))
                     for _ in range(2))
    assert (first.share_a, first.share_b) == (second.share_a, second.share_b)


@pytest.mark.parametrize("n", [1, 32, 4096])
def test_rng_seeds_the_keystream_and_is_not_the_pad(file, n):
    secret = bytearray(random.Random(4).randbytes(n))
    original = bytes(secret)
    rng = random.Random(5)
    hidden = hide_split(file, secret, rng=rng)
    pad = random.Random(5).randbytes(n)
    assert bytes(hidden.share_a) != pad
    assert bytes(hidden.share_b) != bytes(x ^ y for x, y in zip(original, pad))
    # The rng gave exactly one 32-byte seed, whatever the secret's length.
    drawn = random.Random(5)
    drawn.randbytes(32)
    assert rng.getstate() == drawn.getstate()


def test_default_seed_comes_from_getrandom_not_urandom(file, monkeypatch):
    if simplex.hide._getrandom is None:
        pytest.skip("libc has no getrandom on this host")

    def urandom(n):
        raise AssertionError("os.urandom was called")

    monkeypatch.setattr("os.urandom", urandom)
    secret = random.Random(4).randbytes(64)
    first, second = (hide_split(file, bytearray(secret)) for _ in range(2))
    assert first.share_a != second.share_a
    assert unhide_combine(file, second) == bytearray(secret)


@pytest.mark.parametrize("getrandom", [None, lambda buf, n, flags: 16, lambda *args: -1],
                         ids=["missing", "short", "failed"])
def test_default_seed_falls_back_to_urandom(file, monkeypatch, getrandom):
    drawn, real = [], os.urandom

    def urandom(n):
        drawn.append(real(n))
        return drawn[-1]

    monkeypatch.setattr("simplex.hide._getrandom", getrandom)
    monkeypatch.setattr("os.urandom", urandom)
    secret = random.Random(4).randbytes(64)
    first, second = (hide_split(file, bytearray(secret)) for _ in range(2))
    assert [len(d) for d in drawn] == [32, 32]
    assert first.share_a != second.share_a
    assert unhide_combine(file, second) == bytearray(secret)


@pytest.fixture
def seeds(monkeypatch):
    """Every seed buffer hide_split makes, kept so a test can read it afterwards."""
    made, real = [], simplex.hide._Seed

    class Seed:
        def __new__(cls):  # the default route: getrandom fills it in place
            made.append(real())
            return made[-1]

        @staticmethod
        def from_buffer_copy(source):  # the rng route
            made.append(real.from_buffer_copy(source))
            return made[-1]

    monkeypatch.setattr("simplex.hide._Seed", Seed)
    return made


# The hide returns on every table; the split raises, or the file refuses
# the hide, on the portable table, which every host has.
@pytest.mark.parametrize("table, outcome", [
    ("live", "returns"), ("no-aes", "returns"), ("portable", "returns"),
    ("portable", "kernel-raises"), ("portable", "refused"),
], ids=["native", "no-aes", "fallback", "kernel-raises", "refused"], indirect=["table"])
def test_seed_is_zeroed_on_every_exit(emulated_file, monkeypatch, table, seeds, outcome):
    if outcome == "kernel-raises":
        def split(*args):
            raise RuntimeError("split kernel failed")
        monkeypatch.setattr(table, "split", split)
    elif outcome == "refused":
        process_specific_finish(emulated_file)
    secret = bytearray(b"the seed must not outlive the hide")
    original = bytes(secret)
    try:
        hide_split(emulated_file, secret, rng=random.Random(5))
    except (RuntimeError, DisabledError):
        assert outcome in ("kernel-raises", "refused")
        assert secret == original
    else:
        assert outcome == "returns"
        assert secret == bytearray(len(original))
    assert len(seeds) == 1 and bytes(seeds[0]) == bytes(32)


@NATIVE_AND_FALLBACKS
def test_default_seed_is_zeroed(emulated_file, table, seeds):
    secret = bytearray(b"the seed must not outlive the hide")
    hidden = hide_split(emulated_file, secret)
    assert len(seeds) == 1 and bytes(seeds[0]) == bytes(32)
    assert bytes(hidden.share_a) != bytes(len(secret))


def test_importing_and_hiding_leave_hashlib_unloaded(run_python):
    # hashlib loads libcrypto (~4 MiB RSS); only the SHAKE-128 fallback needs it.
    done = run_python(
        "import random, sys, simplex\n"
        "file = simplex.process_specific_init(simplex.BackendKind.EMULATED)\n"
        "native = simplex.machine.stubs().aes\n"
        "simplex.hide_split(file, bytearray(32), rng=random.Random(1))\n"
        "simplex.hide_split(file, bytearray(32))\n"
        "print(native, 'hashlib' in sys.modules or '_hashlib' in sys.modules)")
    assert done.returncode == 0, done.stderr
    native, loaded = done.stdout.split()
    if native == "False":
        pytest.skip("no AES-NI kernel on this host: hiding takes the hashlib route")
    assert loaded == "False"


@NATIVE_AND_FALLBACKS
def test_share_a_is_the_routes_stream_of_the_seed(emulated_file, table):
    seed = bytearray(random.Random(5).randbytes(32))
    stream = bytearray(100)
    if table.aes:
        share_b, zeros = bytearray(100), bytearray(100)
        pins = [_Pin.from_buffer(buf) for buf in (stream, share_b, zeros, seed)]
        addr_stream, addr_b, addr_zeros, addr_seed = map(ctypes.addressof, pins)
        table.split(addr_stream, addr_b, addr_zeros, 100, addr_seed, addr_seed + 16)
    else:
        import hashlib
        stream[:] = hashlib.shake_128(seed).digest(100)
    hidden = hide_split(emulated_file, bytearray(100), rng=random.Random(5))
    assert hidden.share_a == stream


def test_xor_operands_cannot_be_resized_while_the_core_runs(emulated_file, monkeypatch):
    # The native core runs without the GIL, so another thread could resize
    # an operand under it and free memory the kernel is still writing.  The
    # callers' buffer exports turn any such resize of `secret` and `out` into
    # BufferError; the shares are memoryviews, which cannot be resized at
    # all, over regions their own views pin.  The hide runs the split
    # kernel, here a stand-in on any host; the unhide runs the XOR core,
    # through the portable xor_cells over it.
    guarded, calls = [], []

    def resize_then_xor(out_addr, a_addr, b_addr, n):
        for buf in guarded:
            with pytest.raises(BufferError):
                buf.extend(b"x")
        calls.append(n)
        machine._xor_strided(out_addr, a_addr, b_addr, n)

    def resize_then_split(a_addr, b_addr, secret_addr, n, key_addr, ctr_addr):
        ctypes.memset(a_addr, 0x5A, n)
        resize_then_xor(b_addr, a_addr, secret_addr, n)
        ctypes.memset(secret_addr, 0, n)

    fake = SimpleNamespace(split=resize_then_split, xor=resize_then_xor,
                           **machine._cells_cores(resize_then_xor, machine._mismatch_strided))
    monkeypatch.setattr("simplex.machine.stubs", lambda: fake)
    secret = bytearray(b"pinned while the kernel runs")
    original = bytes(secret)
    guarded[:] = [secret]
    hidden = hide_split(emulated_file, secret, rng=random.Random(1))
    for share in (hidden.share_a, hidden.share_b):
        assert not hasattr(share, "extend") and not hasattr(share, "resize")
        with pytest.raises(BufferError):
            share.obj.resize(1)
    out = bytearray(len(original))
    guarded[:] = [out]
    unhide_combine(emulated_file, hidden, out=out)
    assert calls == [len(original)] * 2 and out == original
    for buf in (secret, *guarded):
        buf.extend(b"x")  # every export is released on return


# ---------------------------------------------------------------------------
# The XOR kernel against the portable core
# ---------------------------------------------------------------------------

native_only = pytest.mark.skipif(machine.stubs() is machine._PORTABLE,
                                 reason="no native stubs on this host")

# 0-9 sit around one 8-byte word, 63-127 around the native kernel's 64-byte
# step, the rest on either side of a stride edge.
XOR_LENGTHS = [0, 1, 7, 8, 9, 63, 64, 65, 127, _BLOCK - 1, _BLOCK + 1, 3 * _BLOCK + 5]


@native_only
@pytest.mark.parametrize("skew", range(8), ids=lambda k: f"skew{k}")
@pytest.mark.parametrize("n", XOR_LENGTHS)
def test_native_xor_equals_fallback(n, skew):
    # out, a and b start skew, skew+3 and skew+5 bytes (mod 8) past an
    # 8-byte boundary, so over the eight skews each operand takes every
    # misalignment from 0 to 7.
    rng = random.Random(n * 8 + skew)
    pad = 16
    a_buf = bytearray(rng.randbytes(n + pad))
    b_buf = bytearray(rng.randbytes(n + pad))
    outs = [bytearray(b"\xee" * (n + pad)) for _ in range(2)]
    pins = [_Pin.from_buffer(buf) for buf in (*outs, a_buf, b_buf)]
    bases = [ctypes.addressof(pin) for pin in pins]
    shifts = [(want - base) % 8 for want, base in
              zip((skew, skew, skew + 3, skew + 5), bases)]
    native_out, fallback_out, addr_a, addr_b = (
        base + shift for base, shift in zip(bases, shifts))
    machine.stubs().xor(native_out, addr_a, addr_b, n)
    machine._xor_strided(fallback_out, addr_a, addr_b, n)
    got = [out[shift:shift + n] for out, shift in zip(outs, shifts)]
    assert got[0] == got[1]
    a = a_buf[shifts[2]:shifts[2] + n]
    b = b_buf[shifts[3]:shifts[3] + n]
    assert got[0] == bytes(x ^ y for x, y in zip(a, b))
    # Neither route writes outside its n bytes.
    for out, shift in zip(outs, shifts):
        assert out[:shift] + out[shift + n:] == b"\xee" * pad


@native_only
def test_native_per_pass_unhide_makes_no_temporaries(emulated_file):
    n = 4 << 20
    secret = bytearray(random.Random(8).randbytes(n))
    original = bytes(secret)
    hidden = hide_split(emulated_file, secret, rng=random.Random(9))
    out = bytearray(n)
    tracemalloc.start()
    try:
        unhide_combine(emulated_file, hidden, out=out, reload="per-pass")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out == original
    assert peak < 16 << 10, f"traced peak {peak} bytes while unhiding {n}"


# ---------------------------------------------------------------------------
# Fixtures at desk scale
# ---------------------------------------------------------------------------


def test_loadstore_records_shape(file):
    records = bench_loadstore(file, runs=4, iters=512, seed=5)
    assert [(r.target, r.detail) for r in records] == [
        ("register", "store"), ("slot", "store"),
        ("register", "load"), ("slot", "load"),
    ]
    for r in records:
        assert r.fixture == "loadstore"
        assert r.runs == 4 and r.iters == 512
        assert r.elapsed_ns > 0 and r.rate > 0
        assert r.stats.minimum <= r.stats.median <= r.stats.maximum
        assert r.checksum != 0
    assert records[0].overhead_pct is None
    assert records[1].overhead_pct is not None
    ratios = loadstore_ratios(records)
    assert set(ratios) == {"store", "load"} and all(v > 0 for v in ratios.values())


def test_loadstore_checksums_are_seed_sensitive(file):
    one = bench_loadstore(file, runs=2, iters=256, seed=1)
    two = bench_loadstore(file, runs=2, iters=256, seed=2)
    assert [r.checksum for r in one] != [r.checksum for r in two]
    again = bench_loadstore(file, runs=2, iters=256, seed=1)
    assert [r.checksum for r in one] == [r.checksum for r in again]


def _assert_traversal_verified_and_folded(file, reload_mode):
    records = bench_traversal(file, sizes=(2048, 4096), runs=4, iters=2,
                              reload=reload_mode, seed=9)
    assert len(records) == 4
    for base, treat in zip(records[::2], records[1::2]):
        assert base.target == "register" and treat.target == "slot"
        assert treat.failures == 0
        assert treat.overhead_pct is not None
        # No failures means both folds cover identical reconstructions.
        assert base.checksum == treat.checksum != 0
        assert base.detail == treat.detail == f"xor-unhide {reload_mode}"


@pytest.mark.parametrize("reload_mode", ["per-pass", "per-byte"])
def test_traversal_verified_and_folded(file, reload_mode):
    _assert_traversal_verified_and_folded(file, reload_mode)


@ON_THE_FALLBACK
def test_per_pass_traversal_on_the_fallback(emulated_file, table):
    _assert_traversal_verified_and_folded(emulated_file, "per-pass")


def test_traversal_checksum_seed_sensitive(file):
    a = bench_traversal(file, sizes=(1024,), runs=2, iters=1, seed=1, reload="per-pass")
    b = bench_traversal(file, sizes=(1024,), runs=2, iters=1, seed=2, reload="per-pass")
    assert a[0].checksum != b[0].checksum


def test_strops_grid_records(file):
    records, overall = bench_strops(file, sizes=(1024,), runs=3, seed=3)
    assert len(records) == 10  # five ops x (ref, slot)
    details = {r.detail for r in records}
    assert details == {"memcmp", "memcpy", "memmove", "memset", "memchr"}
    for r in records:
        assert r.failures == 0
        assert r.elapsed_ns > 0
    slot_rows = [r for r in records if r.target == "slot"]
    assert all(r.overhead_pct is not None for r in slot_rows)
    assert overall == pytest.approx(
        geomean([r.overhead_pct for r in slot_rows]), rel=1e-9
    )


def test_overhead_is_the_ratio_of_median_run_times():
    # One baseline run stalls for 50 ms, as a preempted run would.  Over the
    # mean run times the slot route would read ~90% faster than the baseline.
    calls = itertools.count()

    def baseline():
        time.sleep(0.05 if next(calls) == 3 else 0.001)  # call 0 is the warm-up's
        return 1

    def treatment():
        time.sleep(0.001)
        return 1

    base, treat = simplex.bench._interleaved("stall", "ref", "sleep", 8, 1, 1, baseline,
                                             treatment, runs=5, verify=operator.eq)
    assert base.elapsed_ns >= 50_000_000  # the stall was timed
    assert abs(treat.overhead_pct) < 50


def test_restore_runs_before_every_run_of_either_route(monkeypatch):
    # On a fake clock, each route takes 4 units cold and 1 unit right after
    # another route ran, as a warm cache would make it; restore() makes the
    # next run cold again.  Restored once per pair, the pair's second route
    # would run warm, and an odd number of pairs keeps that visible in the
    # medians (about -75%) even when the pair order alternates.
    state = {"warm": False, "now": 0}
    monkeypatch.setattr(simplex.bench, "perf_counter_ns", lambda: state["now"])

    def run_once():
        state["now"] += 1 if state["warm"] else 4
        state["warm"] = True
        return 1

    def baseline():
        return run_once()

    def treatment():
        return run_once()

    def restore():
        state["warm"] = False

    _, treat = simplex.bench._interleaved("warm", "ref", "clock", 8, 1, 1, baseline, treatment,
                                          runs=5, verify=operator.eq, restore=restore)
    assert abs(treat.overhead_pct) < 25


def test_strops_routes_share_one_buffer_set(file, monkeypatch):
    # The addresses slot_op loads from BND0/BND1 are the ones ref_op is handed.
    real_ref, real_slot = simplex.bench.ref_op, simplex.bench.slot_op
    ref_addrs, slot_addrs = {}, {}

    def ref_spy(kind, **kwargs):
        ref_addrs[kind] = [None if kwargs[role] is None else byte_address(kwargs[role])
                           for role in ("dst", "src")]
        return real_ref(kind, **kwargs)

    def slot_spy(kind, file, **kwargs):
        slot_addrs[kind] = [file.qgetbnd_low(kwargs[role]) for role in ("dst_slot", "src_slot")]
        return real_slot(kind, file, **kwargs)

    monkeypatch.setattr(simplex.bench, "ref_op", ref_spy)
    monkeypatch.setattr(simplex.bench, "slot_op", slot_spy)
    bench_strops(file, sizes=(256,), runs=1)
    assert set(ref_addrs) == set(slot_addrs) == set(OpKind)
    for kind in OpKind:
        for ref_addr, slot_addr in zip(ref_addrs[kind], slot_addrs[kind]):
            assert ref_addr in (None, slot_addr), kind


def test_strops_routes_are_the_bound_public_calls(file, monkeypatch):
    # Each timed route is ref_op or slot_op itself with the cell's arguments
    # bound, so no wrapper's cost is timed with it.
    real = simplex.bench._interleaved
    routes = {}

    def spy(fixture, base_target, detail, size_bytes, iters, work, baseline, treatment,
            **kwargs):
        routes[OpKind(detail)] = baseline, treatment
        return real(fixture, base_target, detail, size_bytes, iters, work, baseline,
                    treatment, **kwargs)

    monkeypatch.setattr(simplex.bench, "_interleaved", spy)
    bench_strops(file, sizes=(256,), runs=1)
    aux = {OpKind.MEMSET: 0x5A, OpKind.MEMCHR: 0xAA}
    assert set(routes) == set(OpKind)
    for kind, (ref, slot) in routes.items():
        assert isinstance(ref, functools.partial) and ref.func is simplex.bench.ref_op
        assert isinstance(slot, functools.partial) and slot.func is simplex.bench.slot_op
        assert ref.args == (kind,) and slot.args == (kind, file)
        assert set(ref.keywords) == {"dst", "src", "length", "aux"}, kind
        assert ref.keywords["length"] == 256 and ref.keywords["aux"] == aux.get(kind, 0)
        assert slot.keywords == {"dst_slot": SlotId.BND0, "src_slot": SlotId.BND1,
                                 "length": 256, "aux": aux.get(kind, 0)}, kind


def test_traversal_rejects_bad_reload_before_touching_slots(file):
    file.setbnd128(SlotId.BND2, 0x1122, 0x3344)
    file.setbnd128(SlotId.BND3, 0x5566, 0x7788)
    before = [file.getbnd128(slot) for slot in (SlotId.BND2, SlotId.BND3)]
    with pytest.raises(ValueError):
        bench_traversal(file, sizes=(64,), runs=1, iters=1, reload="bogus")
    assert [file.getbnd128(slot) for slot in (SlotId.BND2, SlotId.BND3)] == before


@pytest.mark.parametrize("call", [
    pytest.param(lambda f: bench_traversal(f, sizes=(64,), runs=2, iters=0), id="traversal-iters-0"),
    pytest.param(lambda f: bench_traversal(f, sizes=(64,), runs=0, iters=1), id="traversal-runs-0"),
    pytest.param(lambda f: bench_strops(f, sizes=(64,), runs=0), id="strops-runs-0"),
])
def test_fixtures_reject_bad_counts_before_touching_slots(file, call):
    for slot in SlotId:
        file.setbnd128(slot, 0x1100 + slot.value, 0x2200 + slot.value)
    before = snapshot(file)
    with pytest.raises(ValueError, match="must be at least 1"):
        call(file)
    assert snapshot(file) == before


SABOTAGE_RUNS = 4


def _run_fixture(fixture, file, runs=SABOTAGE_RUNS, iters=None):
    if fixture == "loadstore":
        return bench_loadstore(file, runs=runs, iters=64 if iters is None else iters, seed=4)
    if fixture == "traversal":
        return bench_traversal(file, sizes=(256,), runs=runs, iters=1 if iters is None else iters,
                               reload="per-pass", seed=4)
    return bench_strops(file, sizes=(256,), runs=runs, seed=4)[0]


NON_POSITIVE_COUNTS = [
    pytest.param(fixture, "runs", runs, id=f"{fixture}-{runs}")
    for fixture in ("loadstore", "traversal", "strops") for runs in (0, -1)
] + [
    pytest.param(fixture, "iters", 0, id=f"{fixture}-iters-0")
    for fixture in ("loadstore", "traversal")
]


@pytest.mark.parametrize("fixture, count, value", NON_POSITIVE_COUNTS)
def test_fixtures_reject_non_positive_runs(file, fixture, count, value):
    with pytest.raises(ValueError, match=f"{count} must be at least 1"):
        _run_fixture(fixture, file, **{count: value})


def _flip_first_byte(out):
    out[0] ^= 1
    return out


def _corrupt_result(change):
    return lambda real, *args, **kwargs: change(real(*args, **kwargs))


def _skip_call(real, *args, **kwargs):
    return None  # what memcpy and memset return, with nothing written


def _any_call(*args):
    return True


def _write_call(kind, *args):
    return kind in (OpKind.MEMCPY, OpKind.MEMSET)


# Each fixture's slot route: which of its calls may be sabotaged, and how.
# Call 0 of those is the warm-up pair's; call 1 belongs to the first timed
# run (for loadstore, the store readback; for strops, memcmp's first run,
# or memcpy's when only the writes are skipped).
SLOT_ROUTES = [
    ("loadstore", "qgetbnd_low", _any_call, _corrupt_result(lambda got: got ^ 1)),
    ("traversal", "unhide_combine", _any_call, _corrupt_result(_flip_first_byte)),
    ("traversal", "unhide_combine", _any_call, _skip_call),
    ("strops", "slot_op", _any_call, _corrupt_result(lambda got: "sabotaged")),
    ("strops", "slot_op", _write_call, _skip_call),
]


@pytest.mark.parametrize("every_call", [True, False], ids=["all-runs", "one-run"])
@pytest.mark.parametrize("fixture, target, applies, corrupt", SLOT_ROUTES,
                         ids=["loadstore", "traversal", "traversal-skipped", "strops",
                              "strops-skipped-write"])
def test_sabotaged_slot_route_is_counted_or_raises(file, monkeypatch, fixture,
                                                   target, applies, corrupt, every_call):
    owner = file if target == "qgetbnd_low" else simplex.bench
    real = getattr(owner, target)
    calls = itertools.count()

    def sabotaged(*args, **kwargs):
        if applies(*args) and (every_call or next(calls) == 1):
            return corrupt(real, *args, **kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, target, sabotaged)
    if every_call:
        with pytest.raises(DomainError):
            _run_fixture(fixture, file)
        return
    slot_rows = [r for r in _run_fixture(fixture, file) if r.target == "slot"]
    assert sum(r.failures for r in slot_rows) == 1
    assert sum(SABOTAGE_RUNS - r.runs for r in slot_rows) == 1


# ---------------------------------------------------------------------------
# Emitters
# ---------------------------------------------------------------------------


def _sample_records():
    stats = RunStats.from_samples([1.0, 2.0, 3.0])
    return [
        BenchRecord("traversal", "register", "xor-unhide per-pass", 4096, 3, 10,
                    1500, 2.0e9, None, 0xABC, stats),
        BenchRecord("traversal", "slot", "xor-unhide per-pass", 4096, 3, 10,
                    4500, 0.7e9, 200.0, 0xABC, stats, failures=1),
    ]


def test_csv_header_is_pinned_and_parseable():
    text = render_csv(_sample_records())
    lines = text.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert CSV_HEADER == "fixture,target,detail,size_bytes,runs,iters,elapsed_ns,rate,overhead_pct"
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == 2
    assert rows[0]["overhead_pct"] == ""
    assert float(rows[1]["overhead_pct"]) == pytest.approx(200.0)
    assert int(rows[1]["elapsed_ns"]) == 4500


def test_json_emitter_roundtrips():
    doc = json.loads(render_json(_sample_records(), extra={"geomean_overhead_pct": 1.5}))
    assert doc["geomean_overhead_pct"] == 1.5
    assert len(doc["records"]) == 2
    record = doc["records"][1]
    assert record["failures"] == 1
    assert record["stats"]["q1"] == pytest.approx(1.5)
    assert record["overhead_pct"] == pytest.approx(200.0)
    assert doc["records"][0]["overhead_pct"] is None


def test_markdown_emitter_renders_rows_and_notes():
    text = render_markdown(_sample_records(), notes=["geometric mean overhead: 1.5%"])
    lines = text.splitlines()
    assert lines[0].startswith("| fixture")
    assert any("xor-unhide per-pass" in line for line in lines)
    assert text.rstrip().endswith("geometric mean overhead: 1.5%")
