"""String-op semantics: hand vectors, libc agreement, counters, slot routing."""

import ctypes
import gc
import random
import re
import struct
import sys
import threading

import pytest

from simplex import (
    LOW_RESET,
    BackendKind,
    ByteCounter,
    DisabledError,
    NullSlotAddressError,
    OpKind,
    RegisterFile,
    SlotId,
    byte_address,
    hide_split,
    ref_op,
    slot_address,
    slot_op,
    unhide_combine,
    view_at,
)
from simplex import machine, process_specific_finish, regfile, strops
from simplex.machine import _BLOCK  # the portable cores' stride; counter tests straddle it
from test_regfile import _ALL_OPS


# ---------------------------------------------------------------------------
# Hand-computed vectors
# ---------------------------------------------------------------------------


def test_memcmp_sign_convention():
    assert ref_op(OpKind.MEMCMP, dst=b"abc", src=b"abc", length=3) == 0
    assert ref_op(OpKind.MEMCMP, dst=b"abc", src=b"abd", length=3) < 0
    assert ref_op(OpKind.MEMCMP, dst=b"abd", src=b"abc", length=3) > 0
    # Unsigned byte comparison: 0xFF > 0x00.
    assert ref_op(OpKind.MEMCMP, dst=b"\xff", src=b"\x00", length=1) > 0
    # Only the first `length` bytes matter.
    assert ref_op(OpKind.MEMCMP, dst=b"abX", src=b"abY", length=2) == 0


def test_memchr_offsets():
    assert ref_op(OpKind.MEMCHR, src=b"abc", length=3, aux=ord("b")) == 1
    assert ref_op(OpKind.MEMCHR, src=b"abcabc", length=6, aux=ord("c")) == 2
    assert ref_op(OpKind.MEMCHR, src=b"abc", length=3, aux=ord("z")) is None
    # Search window stops at `length`.
    assert ref_op(OpKind.MEMCHR, src=b"abz", length=2, aux=ord("z")) is None


def test_memcpy_and_memset_vectors():
    dst = bytearray(4)
    ref_op(OpKind.MEMCPY, dst=dst, src=b"wxyz", length=4)
    assert dst == bytearray(b"wxyz")
    ref_op(OpKind.MEMSET, dst=dst, length=3, aux=0x41)
    assert dst == bytearray(b"AAAz")


def test_memmove_overlap_hand_vectors():
    buf = bytearray(b"0123456789")
    view = memoryview(buf)
    ref_op(OpKind.MEMMOVE, dst=view[2:], src=view[0:], length=6)  # forward
    assert buf == bytearray(b"0101234589")
    buf = bytearray(b"0123456789")
    view = memoryview(buf)
    ref_op(OpKind.MEMMOVE, dst=view[0:], src=view[2:], length=6)  # backward
    assert buf == bytearray(b"2345676789")


def test_zero_length_is_noop():
    buf = bytearray(b"abc")
    counter = ByteCounter()
    assert ref_op(OpKind.MEMCMP, dst=b"x", src=b"y", length=0, counter=counter) == 0
    assert ref_op(OpKind.MEMCHR, src=b"x", length=0, aux=ord("x")) is None
    ref_op(OpKind.MEMCPY, dst=buf, src=b"zzz", length=0)
    ref_op(OpKind.MEMMOVE, dst=buf, src=b"zzz", length=0)
    ref_op(OpKind.MEMSET, dst=buf, length=0, aux=0)
    assert buf == bytearray(b"abc")
    assert counter.examined == 0


def test_aux_values_masked_to_byte():
    dst = bytearray(2)
    ref_op(OpKind.MEMSET, dst=dst, length=2, aux=0x15A)
    assert dst == bytearray(b"\x5a\x5a")
    assert ref_op(OpKind.MEMCHR, src=b"\x62", length=1, aux=0x162) == 0


def test_length_validation():
    with pytest.raises(ValueError):
        ref_op(OpKind.MEMCPY, dst=bytearray(2), src=b"abc", length=3)
    with pytest.raises(ValueError):
        ref_op(OpKind.MEMCMP, dst=b"ab", src=b"abc", length=-1)


def test_readonly_source_accepted_and_destination_rejected():
    out = bytearray(3)
    ref_op(OpKind.MEMCPY, dst=out, src=b"abc", length=3)  # bytes src is fine
    assert out == bytearray(b"abc")
    ref_op(OpKind.MEMMOVE, dst=out, src=b"xyz", length=3)  # staging path
    assert out == bytearray(b"xyz")
    with pytest.raises((TypeError, ValueError)):
        ref_op(OpKind.MEMSET, dst=b"abc", length=3, aux=0)


# ---------------------------------------------------------------------------
# Examined-byte counters: short-circuit is exact
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    ("diff_at", "sign", "later"),
    [(0, -1, None), (1, -1, None), (5, -1, None), (_BLOCK - 1, -1, None),
     (_BLOCK, -1, None), (_BLOCK + 1, -1, None), (0, 1, None),
     (7, -1, None), (7, 1, None), (8, -1, None), (8, 1, None),
     (2 * _BLOCK - 1, -1, None), (2 * _BLOCK - 1, 1, None),
     (_BLOCK + 8, -1, _BLOCK + 9), (_BLOCK + 8, 1, 2 * _BLOCK - 1)],
    ids=["0", "1", "5", str(_BLOCK - 1), str(_BLOCK), str(_BLOCK + 1), "0-pos",
         "7-neg", "7-pos", "8-neg", "8-pos", "last-neg", "last-pos",
         "first-neg-then-pos", "first-pos-then-neg"],
)
def test_memcmp_counter_stops_at_decision_point(diff_at, sign, later):
    n = _BLOCK * 2
    a = bytearray(n)
    b = bytearray(n)
    low, high = (a, b) if sign < 0 else (b, a)
    high[diff_at] = 0x01
    if later is not None:
        # A later difference of the opposite sign in the same stride, with
        # higher bits set, must not decide the result or the count.
        low[later] = 0xFF
    counter = ByteCounter()
    result = ref_op(OpKind.MEMCMP, dst=a, src=b, length=n, counter=counter)
    assert (result > 0) - (result < 0) == sign
    assert counter.examined == diff_at + 1


def test_memcmp_counter_equal_buffers_examines_all():
    n = _BLOCK + 17
    a = bytes(n)
    counter = ByteCounter()
    assert ref_op(OpKind.MEMCMP, dst=a, src=bytes(n), length=n, counter=counter) == 0
    assert counter.examined == n


@pytest.mark.parametrize("found_at", [0, 3, _BLOCK - 1, _BLOCK, _BLOCK + 7])
def test_memchr_counter_stops_at_match(found_at):
    n = _BLOCK * 2
    buf = bytearray(n)
    buf[found_at] = 0xEE
    counter = ByteCounter()
    assert ref_op(OpKind.MEMCHR, src=buf, length=n, aux=0xEE, counter=counter) == found_at
    assert counter.examined == found_at + 1


def test_memchr_counter_absent_examines_all():
    n = _BLOCK + 3
    counter = ByteCounter()
    assert ref_op(OpKind.MEMCHR, src=bytes(n), length=n, aux=1, counter=counter) is None
    assert counter.examined == n


@pytest.mark.skipif(machine.stubs() is machine._PORTABLE, reason="no native stubs on this host")
def test_memcmp_fallback_agrees_with_the_kernel(emulated_file, monkeypatch):
    # Randomized lengths and first differences around the stride edges,
    # each run through both routes, first on the stub page's mismatch
    # kernel, then on the portable table (the Python strided core).
    rng = random.Random(0xFA11)
    cases = []
    for _ in range(40):
        n = rng.choice([1, 2, 3]) * _BLOCK + rng.randrange(-17, 18)
        a = bytearray(rng.randbytes(n))
        b = bytearray(a)
        at = n  # equal
        if rng.random() < 0.8:
            edge = rng.choice([0, _BLOCK, 2 * _BLOCK, n])
            at = min(n - 1, max(0, edge + rng.randrange(-9, 9)))
            b[at] ^= rng.randrange(1, 256)
        cases.append((a, b, n, at))

    def run_all():
        results = []
        for a, b, n, _ in cases:
            emulated_file.qsetbnd_low(SlotId.BND0, byte_address(a))
            emulated_file.qsetbnd_low(SlotId.BND1, byte_address(b))
            ref_count, slot_count = ByteCounter(), ByteCounter()
            results.append((
                ref_op(OpKind.MEMCMP, dst=a, src=b, length=n, counter=ref_count),
                slot_op(OpKind.MEMCMP, emulated_file, dst_slot=SlotId.BND0,
                        src_slot=SlotId.BND1, length=n, counter=slot_count),
                ref_count.examined, slot_count.examined))
        return results

    native = run_all()
    monkeypatch.setattr(machine, "stubs", lambda: machine._PORTABLE)
    assert run_all() == native
    for (a, b, n, at), (ref, slot, ref_examined, slot_examined) in zip(cases, native):
        assert ref == slot == (0 if at == n else (-1 if a[at] < b[at] else 1))
        assert ref_examined == slot_examined == min(at + 1, n)


def test_slot_route_preserves_counters(file):
    a = bytearray(100)
    b = bytearray(100)
    b[41] = 9
    file.qsetbnd_low(SlotId.BND0, byte_address(a))
    file.qsetbnd_low(SlotId.BND1, byte_address(b))
    counter = ByteCounter()
    result = slot_op(OpKind.MEMCMP, file, dst_slot=SlotId.BND0,
                     src_slot=SlotId.BND1, length=100, counter=counter)
    assert result < 0
    assert counter.examined == 42


# ---------------------------------------------------------------------------
# Three-route agreement: slot_op == ref_op == platform libc
# ---------------------------------------------------------------------------

_libc = ctypes.CDLL(None, use_errno=True)
_libc.memcmp.restype = ctypes.c_int
_libc.memcmp.argtypes = [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_size_t]
_libc.memchr.restype = ctypes.c_void_p
_libc.memchr.argtypes = [ctypes.c_void_p, ctypes.c_int, ctypes.c_size_t]
_libc.memcpy.restype = ctypes.c_void_p
_libc.memcpy.argtypes = [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_size_t]
_libc.memmove.restype = ctypes.c_void_p
_libc.memmove.argtypes = [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_size_t]
_libc.memset.restype = ctypes.c_void_p
_libc.memset.argtypes = [ctypes.c_void_p, ctypes.c_int, ctypes.c_size_t]


def _sign(x):
    return (x > 0) - (x < 0)


def _libc_op(kind, *, dst=None, src=None, length=0, aux=0):
    if kind is OpKind.MEMCMP:
        return _sign(_libc.memcmp(byte_address(dst), byte_address(src), length))
    if kind is OpKind.MEMCHR:
        base = byte_address(src)
        found = _libc.memchr(base, aux & 0xFF, length)
        return None if not found else found - base
    if kind is OpKind.MEMSET:
        _libc.memset(byte_address(dst), aux & 0xFF, length)
        return None
    fn = _libc.memcpy if kind is OpKind.MEMCPY else _libc.memmove
    fn(byte_address(dst), byte_address(src), length)
    return None


def test_three_routes_agree_on_randomized_inputs(file):
    rng = random.Random(0x57505)
    for trial in range(150):
        n = rng.randrange(0, 600)
        src = bytearray(rng.randbytes(n))
        base = bytearray(rng.randbytes(n))
        if n and rng.random() < 0.5:
            # Force a first-difference somewhere to exercise short-circuit.
            src[rng.randrange(n)] ^= 0xFF
        kind = rng.choice(list(OpKind))
        aux = rng.randrange(256)

        ref_dst = bytearray(base)
        libc_dst = bytearray(base)
        slot_dst = bytearray(base)
        ref_src = bytearray(src)
        libc_src = bytearray(src)
        slot_src = bytearray(src)

        ref_result = ref_op(kind, dst=ref_dst, src=ref_src, length=n, aux=aux)
        libc_result = _libc_op(kind, dst=libc_dst, src=libc_src, length=n, aux=aux)

        file.qsetbnd_low(SlotId.BND0, byte_address(slot_dst))
        file.qsetbnd_low(SlotId.BND1, byte_address(slot_src))
        if kind is OpKind.MEMCHR:
            slot_result = slot_op(kind, file, src_slot=SlotId.BND1, length=n, aux=aux)
        elif kind is OpKind.MEMSET:
            slot_result = slot_op(kind, file, dst_slot=SlotId.BND0, length=n, aux=aux)
        else:
            slot_result = slot_op(kind, file, dst_slot=SlotId.BND0,
                                  src_slot=SlotId.BND1, length=n, aux=aux)

        if kind is OpKind.MEMCMP:
            assert _sign(ref_result) == libc_result == _sign(slot_result), trial
        else:
            assert ref_result == libc_result == slot_result, trial
        assert ref_dst == libc_dst == slot_dst, trial
        assert ref_src == libc_src == slot_src, trial


@pytest.mark.parametrize(
    ("direction", "max_n"),
    [("forward", 400), ("backward", 400),
     ("forward", 3 * _BLOCK + 5), ("backward", 3 * _BLOCK + 5)],
    ids=["forward", "backward", "forward-straddling", "backward-straddling"],
)
def test_memmove_overlap_agrees_with_libc(file, direction, max_n):
    rng = random.Random(0xD1FF)
    for _ in range(60):
        n = rng.randrange(1, max_n)
        shift = rng.randrange(1, n + 1)
        total = n + shift
        content = rng.randbytes(total)
        ref_buf = bytearray(content)
        libc_buf = bytearray(content)
        slot_buf = bytearray(content)
        if direction == "forward":
            dst_off, src_off = shift, 0
        else:
            dst_off, src_off = 0, shift

        rv = memoryview(ref_buf)
        ref_op(OpKind.MEMMOVE, dst=rv[dst_off:dst_off + n], src=rv[src_off:src_off + n],
               length=n)
        _libc.memmove(byte_address(libc_buf) + dst_off,
                      byte_address(libc_buf) + src_off, n)
        file.qsetbnd_low(SlotId.BND0, byte_address(slot_buf) + dst_off)
        file.qsetbnd_low(SlotId.BND1, byte_address(slot_buf) + src_off)
        slot_op(OpKind.MEMMOVE, file, dst_slot=SlotId.BND0, src_slot=SlotId.BND1, length=n)

        assert ref_buf == libc_buf == slot_buf


# ---------------------------------------------------------------------------
# Slot addressing guards
# ---------------------------------------------------------------------------


def test_slot_op_rejects_never_stored_slots(file):
    # Fresh post-init slots hold the reset pattern.
    with pytest.raises(NullSlotAddressError):
        slot_op(OpKind.MEMSET, file, dst_slot=SlotId.BND0, length=4, aux=0)
    # Length zero still loads the addresses, so it is rejected too.
    with pytest.raises(NullSlotAddressError):
        slot_op(OpKind.MEMCPY, file, dst_slot=SlotId.BND0, src_slot=SlotId.BND1, length=0)
    file.qsetbnd_low(SlotId.BND1, 0)
    with pytest.raises(NullSlotAddressError):
        slot_op(OpKind.MEMCHR, file, src_slot=SlotId.BND1, length=4, aux=0)


def test_slot_address_guards_and_reads(file):
    buf = bytearray(8)
    file.qsetbnd_low(SlotId.BND2, byte_address(buf))
    assert slot_address(file, SlotId.BND2) == byte_address(buf)
    assert slot_address(file, SlotId.BND2, sanitize=True) == byte_address(buf)
    assert file.scratch_snapshot() == bytes(16)  # sanitize=True wiped
    file.setbnd_low(SlotId.BND2, LOW_RESET)
    with pytest.raises(NullSlotAddressError):
        slot_address(file, SlotId.BND2)


@pytest.mark.parametrize("bad", [7, -1, "x", None], ids=repr)
def test_slot_address_rejects_non_slots(file, bad):
    with pytest.raises(ValueError, match=f"^{re.escape(repr(bad))} is not a valid SlotId$"):
        slot_address(file, bad)


def _bind(file, dst, src):
    """Park dst in BND0 and BND3 (where a stray -1 would land), src in BND1."""
    for slot, buf in ((SlotId.BND0, dst), (SlotId.BND1, src), (SlotId.BND3, dst)):
        file.qsetbnd_low(slot, byte_address(buf))


def _no_view(*args):
    raise AssertionError("memcmp read memory through the address-space view")


class _NoSpace:
    """Stands in for strops._SPACE: any index or slice raises."""

    def __getitem__(self, key):
        _no_view(key)


# (length, first differing index or None, dst byte there, src byte there):
# every pair order on two 16-byte blocks and an 8-byte tail, then a 4 KiB
# buffer that differs at its first byte, inside it and at its last byte.
_MEMCMP_CASES = [(40, None, 0, 0)] + [
    (40, at, x, y) for at in (0, 20, 39) for x, y in ((0x00, 0xFF), (0xFF, 0x00), (0x41, 0x42))
] + [(4096, 0, 0x00, 0xFF), (4096, 1000, 0xFF, 0x00), (4096, 4095, 0x41, 0x40)]


# "native" is the live page, as this case has always named it.
@pytest.mark.parametrize("table", ["live", "no-aes", "portable"],
                         ids=["native", "no-aes", "portable"], indirect=True)
def test_memcmp_takes_its_sign_from_mismatch_alone(emulated_file, monkeypatch, table):
    # mismatch returns the sign with the index, so memcmp reads no byte
    # itself: with the address-space view and view_at stubbed to raise on
    # any use, every case holds.
    monkeypatch.setattr(strops, "_SPACE", _NoSpace())
    monkeypatch.setattr(strops, "view_at", _no_view)
    for n, at, x, y in _MEMCMP_CASES:
        same = random.Random(n).randbytes(n)
        dst, src = bytearray(same), bytearray(same)
        if at is not None:
            dst[at], src[at] = x, y
        sign = 0 if at is None else (-1 if x < y else 1)
        _bind(emulated_file, dst, src)
        ref_count, slot_count = ByteCounter(), ByteCounter()
        assert ref_op(OpKind.MEMCMP, dst=dst, src=src, length=n, counter=ref_count) == sign
        assert slot_op(OpKind.MEMCMP, emulated_file, dst_slot=SlotId.BND0,
                       src_slot=SlotId.BND1, length=n, counter=slot_count) == sign
        assert ref_count.examined == slot_count.examined == (n if at is None else at + 1)


def test_every_kind_agrees_through_both_routes_on_every_table(emulated_file, table):
    # Both routes on 4 KiB buffers that differ at one byte: the same result,
    # ByteCounter count and bytes; then the slot route refuses a finished file.
    base = random.Random(4096).randbytes(4096)
    for kind in OpKind:
        seen = []
        for route in ("ref", "slot"):
            dst, src, counter = bytearray(base), bytearray(base), ByteCounter()
            src[2048] ^= 0xFF
            args = dict(length=4096, aux=0x5A, counter=counter)
            if route == "ref":
                got = ref_op(kind, dst=dst, src=src, **args)
            else:
                _bind(emulated_file, dst, src)
                got = slot_op(kind, emulated_file, dst_slot=SlotId.BND0, src_slot=SlotId.BND1,
                              **args)
            seen.append((got, counter.examined, dst, src))
        assert seen[0] == seen[1], (kind, seen[0][:2], seen[1][:2])
    process_specific_finish(emulated_file)
    with pytest.raises(DisabledError):
        slot_op(OpKind.MEMSET, emulated_file, dst_slot=SlotId.BND0, length=4096)


@pytest.mark.parametrize("kind", [OpKind.MEMCPY, "memcpy"], ids=repr)
def test_ops_accept_members_and_values(file, kind):
    dst = bytearray(4)
    ref_op(kind, dst=dst, src=b"wxyz", length=4)
    assert dst == bytearray(b"wxyz")
    dst, src = bytearray(4), bytearray(b"abcd")
    _bind(file, dst, src)
    slot_op(kind, file, dst_slot=SlotId.BND0, src_slot=SlotId.BND1, length=4)
    assert dst == src


@pytest.mark.parametrize("bad", ["memfoo", None, []], ids=repr)
def test_ops_reject_non_kinds(file, bad):
    dst, src = bytearray(b"keep"), bytearray(b"abcd")
    with pytest.raises(ValueError, match="is not a valid OpKind"):
        ref_op(bad, dst=dst, src=src, length=4)
    _bind(file, dst, src)
    with pytest.raises(ValueError, match="is not a valid OpKind"):
        slot_op(bad, file, dst_slot=SlotId.BND0, src_slot=SlotId.BND1, length=4)
    assert dst == bytearray(b"keep")


@pytest.mark.parametrize("dst_slot,src_slot", [(-1, SlotId.BND1), (SlotId.BND0, 4)],
                         ids=["dst--1", "src-4"])
def test_slot_op_rejects_non_slots(file, dst_slot, src_slot):
    dst, src = bytearray(b"keep"), bytearray(b"abcd")
    _bind(file, dst, src)
    with pytest.raises(ValueError, match="is not a valid SlotId"):
        slot_op(OpKind.MEMCPY, file, dst_slot=dst_slot, src_slot=src_slot, length=4)
    assert dst == bytearray(b"keep")


def test_hot_paths_construct_no_enum(file, monkeypatch):
    # Coercing an argument through SlotId()/OpKind() costs more than the
    # rest of a quick slot access; the hot paths look slots and kinds up in
    # tables instead.  Every enum class shares this metaclass __call__.
    dst, src = bytearray(b"abcd"), bytearray(b"abce")
    secret = bytearray(b"\x01\x02\x03\x04")
    constructed = []
    real_call = type(SlotId).__call__

    def counting(cls, *args, **kwargs):
        constructed.append((cls, args))
        return real_call(cls, *args, **kwargs)

    monkeypatch.setattr(type(SlotId), "__call__", counting)
    for name, args in _ALL_OPS:
        getattr(file, name)(*args)
    _bind(file, dst, src)
    for kind in OpKind:
        slot_op(kind, file, dst_slot=SlotId.BND0, src_slot=SlotId.BND1, length=4, aux=3)
    hidden = hide_split(file, secret, rng=random.Random(5))
    out = unhide_combine(file, hidden, reload="per-byte")
    monkeypatch.undo()
    assert constructed == []
    assert out == bytearray(b"\x01\x02\x03\x04")


# ---------------------------------------------------------------------------
# One gate per call, and the order of refusals
# ---------------------------------------------------------------------------

_READS_DST = [kind for kind in OpKind if kind is not OpKind.MEMCHR]


def count_gates(monkeypatch, file) -> list:
    """Wrap the file's own gate; the returned list grows by one per gate pass."""
    gates, real = [], file._require_enabled
    monkeypatch.setattr(file, "_require_enabled", lambda: gates.append(1) or real())
    return gates


def count_reads(monkeypatch, file) -> list:
    """Wrap the file's context read; the returned list collects each slot read."""
    reads, real = [], file._ctx.read
    monkeypatch.setattr(file._ctx, "read",
                        lambda slot, wipe: reads.append(slot) or real(slot, wipe))
    return reads


def refuse_accessors(monkeypatch) -> None:
    """Make the RegisterFile read accessors fail if any slot-addressed call enters them."""
    def entered(*args):
        raise AssertionError("a slot-addressed call went through a RegisterFile accessor")
    for name in ("qgetbnd_low", "getbnd_low"):
        monkeypatch.setattr(RegisterFile, name, entered)


@pytest.mark.parametrize("kind", list(OpKind), ids=lambda k: k.value)
def test_slot_op_gates_once_and_reads_through_the_context(file, monkeypatch, kind):
    dst, src = bytearray(b"abcd"), bytearray(b"abce")
    _bind(file, dst, src)
    want = ref_op(kind, dst=bytearray(dst), src=src, length=4, aux=0x65)
    gates = count_gates(monkeypatch, file)
    reads = count_reads(monkeypatch, file)
    refuse_accessors(monkeypatch)
    got = slot_op(kind, file, dst_slot=SlotId.BND0, src_slot=SlotId.BND1, length=4, aux=0x65)
    assert (got, len(gates)) == (want, 1)
    assert reads == ([SlotId.BND1] if kind is OpKind.MEMCHR else
                     [SlotId.BND0] if kind is OpKind.MEMSET else [SlotId.BND0, SlotId.BND1])


@pytest.mark.parametrize("bad", ["memfoo", None], ids=repr)
def test_a_bad_kind_is_refused_before_the_gate(file, monkeypatch, bad):
    gates = count_gates(monkeypatch, file)
    with pytest.raises(ValueError, match="is not a valid OpKind"):
        slot_op(bad, file, dst_slot=-1, src_slot=4, length=4)
    assert gates == []
    process_specific_finish(file)
    with pytest.raises(ValueError, match="is not a valid OpKind"):
        slot_op(bad, file, dst_slot=-1, src_slot=4, length=4)


@pytest.mark.parametrize("kind", list(OpKind), ids=lambda k: k.value)
def test_a_refused_file_raises_before_its_slots_are_coerced(file, kind):
    bad_slots = dict(dst_slot=-1, src_slot=4, length=4)
    refusals = []

    def foreign():
        try:
            slot_op(kind, file, **bad_slots)
        except DisabledError as exc:
            refusals.append(exc)

    worker = threading.Thread(target=foreign)
    worker.start()
    worker.join(timeout=30)
    assert not worker.is_alive() and len(refusals) == 1
    assert "belongs to thread" in str(refusals[0])
    process_specific_finish(file)
    with pytest.raises(DisabledError, match="is not enabled"):
        slot_op(kind, file, **bad_slots)


@pytest.mark.parametrize("kind", _READS_DST, ids=lambda k: k.value)
def test_slot_op_refuses_dst_before_reading_src(file, monkeypatch, kind):
    reads = count_reads(monkeypatch, file)
    with pytest.raises(ValueError, match=r"^-1 is not a valid SlotId"):
        slot_op(kind, file, dst_slot=-1, src_slot=4, length=4)
    with pytest.raises(ValueError, match=r"^-1 is not a valid SlotId"):
        slot_op(kind, file, dst_slot=-1, src_slot=SlotId.BND1, length=4)
    assert reads == []
    # BND0 reads zero and BND1 holds the reset pattern: both are null.
    file.qsetbnd_low(SlotId.BND0, 0)
    with pytest.raises(NullSlotAddressError, match=r"^BND0 reads zero"):
        slot_op(kind, file, dst_slot=SlotId.BND0, src_slot=SlotId.BND1, length=4)
    with pytest.raises(NullSlotAddressError, match=r"^BND1 holds the reset pattern"):
        slot_op(kind, file, dst_slot=SlotId.BND1, src_slot=SlotId.BND0, length=4)
    assert reads == [SlotId.BND0, SlotId.BND1]


def test_scratch_after_slot_op_holds_the_last_quick_read(file):
    # A two-slot op reads dst, then src, quick: src's image stays in the
    # scratch (dst's after memset).  unhide_combine's reads sanitize.
    dst, src = bytearray(b"abcd"), bytearray(b"abce")
    _bind(file, dst, src)
    for kind in OpKind:
        slot_op(kind, file, dst_slot=SlotId.BND0, src_slot=SlotId.BND1, length=4, aux=0x61)
        last = SlotId.BND0 if kind is OpKind.MEMSET else SlotId.BND1
        assert file.scratch_snapshot() == struct.pack("<QQ", *file._peek_raw_slots()[last]), kind
        file.getbnd_low(SlotId.BND2)
        assert file.scratch_snapshot() == bytes(16)
    hidden = hide_split(file, bytearray(b"\x01\x02\x03\x04"), rng=random.Random(5))
    for reload in ("per-pass", "per-byte"):
        slot_op(OpKind.MEMCPY, file, dst_slot=SlotId.BND0, src_slot=SlotId.BND1, length=4)
        assert any(file.scratch_snapshot())
        assert unhide_combine(file, hidden, reload=reload) == b"\x01\x02\x03\x04"
        assert file.scratch_snapshot() == bytes(16), reload


@pytest.mark.parametrize("table, member", [(strops._OPS, OpKind.MEMCPY),
                                           (regfile._BACKENDS, BackendKind.EMULATED)],
                         ids=["OpKind", "BackendKind"])
def test_kind_tables_resolve_members_and_values_in_c(table, member):
    # Both kinds hash by identity: a member lookup runs no Python frame.
    assert table[member] is table[member.value]
    calls, outer = [], sys.getprofile()
    sys.setprofile(lambda frame, event, arg: event == "call" and calls.append(frame.f_code))
    try:
        table[member]
    finally:
        sys.setprofile(outer)
    assert calls == []


@pytest.mark.parametrize("length", [0, 1, 4096])
def test_byte_address_view_at_roundtrip(length):
    buf = bytearray(random.Random(length).randbytes(length))
    view = view_at(byte_address(buf), length)
    assert (view.format, view.ndim, view.readonly, len(view)) == ("B", 1, False, length)
    assert bytes(view) == buf
    if length:
        view[0] ^= 0xFF
        assert view[0] == buf[0]


@pytest.mark.parametrize(("addr", "length"), [
    (4096, -1), (strops._END - 3, 4), (1 << 63, 0), (-1, 1),
], ids=["negative-length", "ends-past-the-mapped-space", "addr-2**63", "negative-addr"])
def test_view_at_refuses_ranges_it_cannot_map(addr, length):
    # A slice of the process-wide view would silently clip these instead.
    with pytest.raises(ValueError, match="range at address"):
        view_at(addr, length)


@pytest.fixture
def address_space_32(monkeypatch):
    """view_at's view as a 32-bit interpreter builds it (sys.maxsize 2**31 - 1)."""
    space_end = (1 << 31) - 1
    space = memoryview((ctypes.c_ubyte * space_end).from_address(0)).cast("B")
    monkeypatch.setattr(strops, "_END", (1 << 32) - 1)
    monkeypatch.setattr(strops, "_SPACE_END", space_end)
    monkeypatch.setattr(strops, "_SPACE", space)


@pytest.mark.parametrize(("addr", "length"), [
    (0x0804_8000, 4096), (0x7FFF_F800, 4096), (0xB7F0_0000, 4096), (0xF7FF_F000, 4096),
    (0xFFFF_F000, 4095), (0x3FFF_FFFF, 1 << 30), (0, (1 << 31) - 1),
], ids=["heap", "straddles-2**31", "mmap", "stack", "ends-at-end", "1GiB", "2GiB"])
def test_view_at_reaches_a_32_bit_address_space(address_space_32, addr, length):
    # On a 32-bit interpreter buffers sit above sys.maxsize; the views are
    # only built and their addresses read, nothing is dereferenced.
    view = view_at(addr, length)
    assert (byte_address(view), len(view)) == (addr, length)


@pytest.mark.parametrize(("addr", "length"), [
    (0xFFFF_F000, 4096), (1 << 32, 0), (0x7FFF_FFFF, 1 << 31),
], ids=["ends-past-2**32", "addr-2**32", "too-long-for-a-window"])
def test_view_at_refuses_past_a_32_bit_address_space(address_space_32, addr, length):
    with pytest.raises(ValueError, match="range at address"):
        view_at(addr, length)


@pytest.mark.parametrize("kind", list(OpKind), ids=lambda k: k.value)
def test_slot_op_refuses_a_slot_at_or_above_2_63(file, kind):
    dst, src = bytearray(b"keep"), bytearray(b"abcd")
    _bind(file, dst, src)
    bogus = SlotId.BND1 if kind is OpKind.MEMCHR else SlotId.BND0
    file.qsetbnd_low(bogus, 1 << 63)
    with pytest.raises(ValueError, match="range at address"):
        slot_op(kind, file, dst_slot=SlotId.BND0, src_slot=SlotId.BND1, length=4, aux=0x41)
    assert (dst, src) == (bytearray(b"keep"), bytearray(b"abcd"))


@pytest.mark.parametrize("kind", list(OpKind), ids=lambda k: k.value)
def test_a_length_that_is_no_integer_raises_type_error_on_both_routes(file, kind):
    dst, src = bytearray(b"keep"), bytearray(b"abcd")
    _bind(file, dst, src)
    for length in (1.5, 4.0, "4", None):
        with pytest.raises(TypeError):
            ref_op(kind, dst=dst, src=src, length=length, aux=0x61)
        with pytest.raises(TypeError):
            slot_op(kind, file, dst_slot=SlotId.BND0, src_slot=SlotId.BND1, length=length,
                    aux=0x61)
        assert bytes(file._ctx._cells) == bytes(32), length
    assert (dst, src) == (bytearray(b"keep"), bytearray(b"abcd"))


@pytest.mark.parametrize("length", [-1, -2**63, -2**63 - 1, 2**63, 2**64])
def test_slot_op_refuses_a_length_out_of_range_and_leaves_no_address_in_the_cells(file, length):
    # -1 and -2**63 reach the kernel, which refuses them; the others do not
    # fit the cells, which were packed up to the length and are zeroed again.
    dst, src = bytearray(b"keep"), bytearray(b"abcd")
    _bind(file, dst, src)
    with pytest.raises(ValueError, match=f"no {length}-byte range at address"):
        slot_op(OpKind.MEMCPY, file, dst_slot=SlotId.BND0, src_slot=SlotId.BND1, length=length)
    assert bytes(file._ctx._cells) == bytes(32)
    assert (dst, src) == (bytearray(b"keep"), bytearray(b"abcd"))


@pytest.mark.parametrize("kind", [OpKind.MEMCMP, OpKind.MEMCPY, OpKind.MEMMOVE],
                         ids=lambda k: k.value)
def test_aux_is_ignored_where_the_kind_does_not_use_it(file, kind):
    seen = []
    for aux in (0, 1.5, "x"):
        dst, src = bytearray(b"abcd"), bytearray(b"abce")
        _bind(file, dst, src)
        got = slot_op(kind, file, dst_slot=SlotId.BND0, src_slot=SlotId.BND1, length=4, aux=aux)
        ref_dst = bytearray(b"abcd")
        want = ref_op(kind, dst=ref_dst, src=src, length=4, aux=aux)
        seen.append((got, want, dst, ref_dst))
    assert seen[0] == seen[1] == seen[2]
    assert seen[0][0] == seen[0][1]


def test_slot_op_builds_no_type_per_length(file):
    # ctypes frees an array type only at the next cyclic collection, so a
    # view built as (c_ubyte * length) would leave one class per new length.
    dst, src = bytearray(4096), bytearray(random.Random(1).randbytes(4096))
    _bind(file, dst, src)
    lengths = [1009 + 37 * i for i in range(64)]
    gc.collect()
    gc.disable()
    try:
        before = sum(isinstance(o, type) for o in gc.get_objects())
        for length in lengths:
            for kind in OpKind:
                slot_op(kind, file, dst_slot=SlotId.BND0, src_slot=SlotId.BND1,
                        length=length, aux=7)
            view_at(byte_address(src), length)
        after = sum(isinstance(o, type) for o in gc.get_objects())
    finally:
        gc.enable()
    assert after <= before
