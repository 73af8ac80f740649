"""Slot-addressed string.h operations.

Five byte-exact reference operations (memcmp, memcpy, memmove, memset,
memchr) in two calling styles:

* ref_op()  - buffers passed as plain arguments; the reference semantics.
* slot_op() - buffer addresses never appear as arguments; they are loaded
  from bounds slots (stored earlier with qsetbnd_low) once per call, then
  the same cores run on the addressed memory.

Every `kind` is an OpKind member or its string value (OpKind.MEMCPY or
"memcpy"), and every slot argument a SlotId member or an int equal to 0..3;
anything else raises ValueError("<repr> is not a valid OpKind") or
ValueError("<repr> is not a valid SlotId") before any byte moves.

Semantics follow the C library: memcmp returns the sign of the first
differing byte compared as unsigned chars, memchr returns the offset of the
first occurrence (None when absent, with the needle truncated to unsigned
char), and memmove tolerates overlap as if it staged through a temporary.
Length zero leaves every buffer untouched, but slot_op still loads and
checks each slot it uses, so a slot that holds no address raises
NullSlotAddressError even then.

An optional ByteCounter reports the C-semantics count for memcmp and
memchr: the bytes up to and including the deciding byte, or all `length`
bytes when none decides.  The emulated cores read whole 64 KiB strides, so
they may copy bytes past the deciding one within its stride, never past
`length`.

Callers own buffer lifetime and validity.  A slot that reads back zero or
the post-reset pattern clearly holds no address and raises
NullSlotAddressError.  view_at slices process-wide memoryviews built at
import, which span addresses 0 to 2**63 - 1 on a 64-bit interpreter and 0
to 2**32 - 1 on a 32-bit one.  A range that would end past that (on 64-bit,
any slot value of 2**63 or more, never a user-space address on x86-64)
raises ValueError before a byte moves.  Any other value is dereferenced
as a raw pointer, as in C: a stale or bogus one (say qsetbnd_low(slot, 5))
reads or writes wherever it points and can kill the interpreter with
SIGSEGV.  There is deliberately no check against the buffers actually
parked, because one would need the parked addresses in ordinary memory,
which the hiding model keeps them out of.
"""

from __future__ import annotations

import ctypes
import sys
from dataclasses import dataclass
from enum import Enum

from .errors import NullSlotAddressError
from .regfile import LOW_RESET, RegisterFile, SlotId

__all__ = [
    "OpKind",
    "ByteCounter",
    "ref_op",
    "slot_op",
    "slot_address",
    "byte_address",
    "view_at",
]

_BLOCK = 1 << 16


class OpKind(Enum):
    MEMCMP = "memcmp"
    MEMCPY = "memcpy"
    MEMMOVE = "memmove"
    MEMSET = "memset"
    MEMCHR = "memchr"


@dataclass
class ByteCounter:
    """C-semantics count of the bytes memcmp/memchr examine (see module doc)."""

    examined: int = 0


# --------------------------------------------------------------------------
# Address plumbing
# --------------------------------------------------------------------------


# _Pin.from_buffer(buf) holds a buffer export on buf for as long as it lives,
# so a resize of buf raises BufferError instead of freeing memory that a
# GIL-free native call still uses; ctypes.addressof of it is buf's base.
_Pin = ctypes.c_ubyte * 0


def byte_address(buf) -> int:
    """Return the base address of a writable buffer (bytearray, mmap, ...).

    The value is stable as long as the buffer is alive and never resized;
    it is what callers store into a slot with qsetbnd_low.
    """
    return ctypes.addressof(_Pin.from_buffer(buf))


def _windows(end: int, shift: int) -> tuple[memoryview, ...]:
    """Flat, writable, format-"B" views covering addresses 0 to `end`.

    Window k starts at k << shift and spans (2 << shift) - 1 bytes, or up
    to `end`, so a range shorter than 1 << shift always fits inside the
    window its first byte falls in.
    """
    return tuple(
        memoryview((ctypes.c_ubyte * min((2 << shift) - 1, end - base)).from_address(base)).cast("B")
        for base in range(0, end, 1 << shift))


# A memoryview spans at most sys.maxsize bytes, so windows start every
# (sys.maxsize + 1) // 2 bytes.  The mapped space ends at 2**63 - 1 on a
# 64-bit interpreter, whose first window spans it all (the top half of the
# address space is the kernel's on x86-64), and at 2**32 - 1 on a 32-bit
# one, whose buffers sit above 2**31.  Built once, so a slice costs no
# ctypes array type (ctypes frees those only at the next cyclic
# collection), no cast and no foreign call.
_END = (1 << min(8 * ctypes.sizeof(ctypes.c_void_p), 63)) - 1
_SHIFT = sys.maxsize.bit_length() - 1
_MASK = (1 << _SHIFT) - 1
_WINDOWS = _windows(_END, _SHIFT)
_FIRST = _WINDOWS[0]
_FIRST_END = len(_FIRST)


def view_at(addr: int, length: int) -> memoryview:
    """Memoryview over `length` bytes of raw memory at `addr`.

    A slice of a process-wide view.  Raises ValueError for a negative
    length or a range that does not end by _END, which a slice would
    silently clip; every other range is taken on trust (see module doc).
    """
    if 0 <= addr and 0 <= length:
        if addr + length <= _FIRST_END:  # first, and on 64-bit the only window needed
            return _FIRST[addr:addr + length]
        if addr < _END:
            window, start = _WINDOWS[addr >> _SHIFT], addr & _MASK
            if start + length <= len(window):
                return window[start:start + length]
    raise ValueError(f"no {length}-byte range at address {addr:#x}")


def _window(buf, length: int, role: str) -> memoryview:
    # One flat format-"B" view of exactly `length` bytes: mixed formats
    # (ctypes exports "<B") would reject slice assignment between views.
    view = buf if isinstance(buf, memoryview) else memoryview(buf)
    if view.format != "B" or view.ndim != 1:
        view = view.cast("B")
    if length < 0:
        raise ValueError(f"negative length: {length}")
    if length > len(view):
        raise ValueError(f"{role} buffer too small: {len(view)} < {length}")
    return view[:length]


# --------------------------------------------------------------------------
# Cores take (dst, src, aux, counter), each buffer they use already cut to
# exactly `length` bytes.  memcmp, memchr and memset work in 64 KiB strides
# so temporaries stay bounded; memcpy and memmove are one slice assignment.
# --------------------------------------------------------------------------


def _memcmp(dst: memoryview, src: memoryview, aux: int, counter: ByteCounter | None) -> int:
    for off in range(0, len(dst), _BLOCK):
        a = bytes(dst[off:off + _BLOCK])
        b = bytes(src[off:off + _BLOCK])
        if a != b:
            # The first differing byte holds the lowest set bit of the
            # little-endian XOR of the two strides.
            d = int.from_bytes(a, "little") ^ int.from_bytes(b, "little")
            idx = ((d & -d).bit_length() - 1) >> 3
            if counter is not None:
                counter.examined += idx + 1
            return -1 if a[idx] < b[idx] else 1
        if counter is not None:
            counter.examined += len(a)
    return 0


def _memchr(dst, src: memoryview, aux: int, counter: ByteCounter | None) -> int | None:
    needle = aux & 0xFF
    for off in range(0, len(src), _BLOCK):
        block = bytes(src[off:off + _BLOCK])
        idx = block.find(needle)
        if idx >= 0:
            if counter is not None:
                counter.examined += idx + 1
            return off + idx
        if counter is not None:
            counter.examined += len(block)
    return None


def _memset(dst: memoryview, src, aux: int, counter) -> None:
    n = len(dst)
    pattern = bytes([aux & 0xFF]) * min(_BLOCK, n)
    for off in range(0, n, _BLOCK):
        dst[off:off + _BLOCK] = pattern[:n - off]


def _copy(dst: memoryview, src: memoryview, aux: int, counter) -> None:
    # memcpy and memmove alike: slice assignment between contiguous views
    # memmoves when the ranges overlap, which is the C memmove contract in
    # either direction.  An empty window skips it, so a read-only dst at
    # length zero stays a no-op.
    if dst:
        dst[:] = src


# kind -> (uses dst, uses src, core), keyed by each member and by its string
# value, so one lookup both checks and dispatches a kind without the cost of
# the OpKind() constructor.
_OPS = {
    OpKind.MEMCMP: (True, True, _memcmp),
    OpKind.MEMCPY: (True, True, _copy),
    OpKind.MEMMOVE: (True, True, _copy),
    OpKind.MEMSET: (True, False, _memset),
    OpKind.MEMCHR: (False, True, _memchr),
}
_OPS.update({kind.value: _OPS[kind] for kind in OpKind})


def _op(kind):
    try:
        return _OPS[kind]
    except (KeyError, TypeError):
        raise ValueError(f"{kind!r} is not a valid OpKind") from None


# --------------------------------------------------------------------------
# Public entry points
# --------------------------------------------------------------------------


def ref_op(kind, *, dst=None, src=None, length: int = 0, aux: int = 0,
           counter: ByteCounter | None = None):
    """Run one operation with buffers passed as plain arguments.

    Argument roles per kind: memcmp compares dst (s1) against src (s2);
    memcpy/memmove copy src into dst; memset fills dst with aux; memchr
    scans src for aux.  Returns the memcmp sign, the memchr offset (or
    None), and None for the three mutators.
    """
    uses_dst, uses_src, core = _op(kind)
    dst = _window(dst, length, "dst") if uses_dst else None
    src = _window(src, length, "src") if uses_src else None
    return core(dst, src, aux, counter)


def slot_address(file: RegisterFile, slot: SlotId, *, sanitize: bool = False) -> int:
    """Read a buffer address out of a slot, rejecting never-stored values.

    The default is the quick (non-sanitizing) load, the one a hot path
    would use; sanitize=True wipes the spill scratch as part of the read.
    """
    address = file.getbnd_low(slot) if sanitize else file.qgetbnd_low(slot)
    if address == 0:
        raise NullSlotAddressError(f"{SlotId(slot).name} reads zero: no address stored")
    if address == LOW_RESET:
        raise NullSlotAddressError(f"{SlotId(slot).name} holds the reset pattern: no address stored")
    return address


def slot_op(kind, file: RegisterFile, *, dst_slot: SlotId | None = None,
            src_slot: SlotId | None = None, length: int = 0, aux: int = 0,
            counter: ByteCounter | None = None):
    """Run one operation with every buffer address loaded from a slot.

    Addresses are read once per call through the quick lower-half accessor,
    exactly like a callee that had its pointer arguments replaced by
    bounds-register loads.  Slot roles mirror ref_op: dst_slot carries the
    written (or first compared) buffer, src_slot the read one.  Results are
    identical to ref_op on the same memory.
    """
    uses_dst, uses_src, core = _op(kind)
    dst = view_at(slot_address(file, dst_slot), length) if uses_dst else None
    src = view_at(slot_address(file, src_slot), length) if uses_src else None
    return core(dst, src, aux, counter)
