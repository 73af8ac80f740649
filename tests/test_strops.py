"""String-op semantics: hand vectors, libc agreement, counters, slot routing."""

import ctypes
import random

import pytest

from simplex import (
    LOW_RESET,
    ByteCounter,
    NullSlotAddressError,
    OpKind,
    SlotId,
    byte_address,
    ref_op,
    slot_address,
    slot_op,
    view_at,
)

_BLOCK = 1 << 16  # internal chunking size; counter tests straddle it


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


@pytest.mark.parametrize("diff_at", [0, 1, 5, _BLOCK - 1, _BLOCK, _BLOCK + 1])
def test_memcmp_counter_stops_at_decision_point(diff_at):
    n = _BLOCK * 2
    a = bytearray(n)
    b = bytearray(n)
    b[diff_at] = 1
    counter = ByteCounter()
    assert ref_op(OpKind.MEMCMP, dst=a, src=b, length=n, counter=counter) < 0
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


def test_slot_route_preserves_counters(emulated_file):
    a = bytearray(100)
    b = bytearray(100)
    b[41] = 9
    emulated_file.qsetbnd_low(SlotId.BND0, byte_address(a))
    emulated_file.qsetbnd_low(SlotId.BND1, byte_address(b))
    counter = ByteCounter()
    result = slot_op(OpKind.MEMCMP, emulated_file, dst_slot=SlotId.BND0,
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


def test_three_routes_agree_on_randomized_inputs(emulated_file):
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

        emulated_file.qsetbnd_low(SlotId.BND0, byte_address(slot_dst))
        emulated_file.qsetbnd_low(SlotId.BND1, byte_address(slot_src))
        if kind is OpKind.MEMCHR:
            slot_result = slot_op(kind, emulated_file, src_slot=SlotId.BND1,
                                  length=n, aux=aux)
        elif kind is OpKind.MEMSET:
            slot_result = slot_op(kind, emulated_file, dst_slot=SlotId.BND0,
                                  length=n, aux=aux)
        else:
            slot_result = slot_op(kind, emulated_file, dst_slot=SlotId.BND0,
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
def test_memmove_overlap_agrees_with_libc(emulated_file, direction, max_n):
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
        emulated_file.qsetbnd_low(SlotId.BND0, byte_address(slot_buf) + dst_off)
        emulated_file.qsetbnd_low(SlotId.BND1, byte_address(slot_buf) + src_off)
        slot_op(OpKind.MEMMOVE, emulated_file, dst_slot=SlotId.BND0,
                src_slot=SlotId.BND1, length=n)

        assert ref_buf == libc_buf == slot_buf


# ---------------------------------------------------------------------------
# Slot addressing guards
# ---------------------------------------------------------------------------


def test_slot_op_rejects_never_stored_slots(emulated_file):
    # Fresh post-init slots hold the reset pattern.
    with pytest.raises(NullSlotAddressError):
        slot_op(OpKind.MEMSET, emulated_file, dst_slot=SlotId.BND0, length=4, aux=0)
    emulated_file.qsetbnd_low(SlotId.BND1, 0)
    with pytest.raises(NullSlotAddressError):
        slot_op(OpKind.MEMCHR, emulated_file, src_slot=SlotId.BND1, length=4, aux=0)


def test_slot_address_guards_and_reads(emulated_file):
    buf = bytearray(8)
    emulated_file.qsetbnd_low(SlotId.BND2, byte_address(buf))
    assert slot_address(emulated_file, SlotId.BND2) == byte_address(buf)
    assert slot_address(emulated_file, SlotId.BND2, sanitize=True) == byte_address(buf)
    assert emulated_file.scratch_snapshot() == bytes(16)  # sanitize=True wiped
    emulated_file.setbnd_low(SlotId.BND2, LOW_RESET)
    with pytest.raises(NullSlotAddressError):
        slot_address(emulated_file, SlotId.BND2)


def test_byte_address_view_at_roundtrip():
    buf = bytearray(b"hello world!")
    addr = byte_address(buf)
    view = view_at(addr, len(buf))
    assert bytes(view) == b"hello world!"
    view[0] = ord("H")
    assert buf[0] == ord("H")
