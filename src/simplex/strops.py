"""Slot-addressed string.h operations.

Five byte-exact reference operations (memcmp, memcpy, memmove, memset,
memchr) in two calling styles:

* ref_op()  - buffers passed as plain arguments; the reference semantics.
* slot_op() - buffer addresses never appear as arguments; they are loaded
  from bounds slots (stored earlier with qsetbnd_low) once per call, then
  the same cores run on the addressed memory.

Semantics follow the C library: memcmp returns the sign of the first
differing byte compared as unsigned chars, memchr returns the offset of the
first occurrence (None when absent, with the needle truncated to unsigned
char), memmove tolerates overlap as if it staged through a temporary, and
length zero is always a no-op.

memcmp and memchr short-circuit: bytes past the decision point are never
examined.  An optional ByteCounter records exactly how many bytes an
operation examined, which makes the short-circuit observable on the
emulated path.

Callers own buffer lifetime and validity.  A slot that reads back zero or
the post-reset pattern clearly holds no address and raises
NullSlotAddressError; any other stale value is the caller's bug, as with
raw pointers.
"""

from __future__ import annotations

import ctypes
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
    """Counts bytes examined by memcmp/memchr (short-circuit instrumentation)."""

    examined: int = 0


# --------------------------------------------------------------------------
# Address plumbing
# --------------------------------------------------------------------------


def byte_address(buf) -> int:
    """Return the base address of a writable buffer (bytearray, mmap, ...).

    The value is stable as long as the buffer is alive and never resized;
    it is what callers store into a slot with qsetbnd_low.
    """
    return ctypes.addressof((ctypes.c_ubyte * 0).from_buffer(buf))


def view_at(addr: int, length: int) -> memoryview:
    """Memoryview over `length` bytes of raw memory at `addr`."""
    return memoryview((ctypes.c_ubyte * length).from_address(addr)).cast("B")


def _view(buf) -> memoryview:
    # Normalize to format "B": mixed formats (ctypes exports "<B") would
    # reject slice assignment between views and slow down comparisons.
    view = buf if isinstance(buf, memoryview) else memoryview(buf)
    return view if view.format == "B" and view.ndim == 1 else view.cast("B")


def _check_length(view: memoryview, length: int, role: str) -> None:
    if length < 0:
        raise ValueError(f"negative length: {length}")
    if length > len(view):
        raise ValueError(f"{role} buffer too small: {len(view)} < {length}")


# --------------------------------------------------------------------------
# Cores.  memcmp, memchr and memset work in 64 KiB strides: comparisons and
# scans consume a stride only up to the deciding byte, so counters report the
# exact number of bytes examined, and memset's fill pattern stays bounded.
# memcpy and memmove are one slice assignment (see _dispatch).
# --------------------------------------------------------------------------


def _memcmp_core(a: memoryview, b: memoryview, n: int, counter: ByteCounter | None) -> int:
    off = 0
    while off < n:
        step = min(_BLOCK, n - off)
        if a[off:off + step] == b[off:off + step]:
            if counter is not None:
                counter.examined += step
            off += step
            continue
        ablk = bytes(a[off:off + step])
        bblk = bytes(b[off:off + step])
        idx = next(i for i in range(step) if ablk[i] != bblk[i])
        if counter is not None:
            counter.examined += idx + 1
        return -1 if ablk[idx] < bblk[idx] else 1
    return 0


def _memchr_core(buf: memoryview, needle: int, n: int, counter: ByteCounter | None) -> int | None:
    off = 0
    while off < n:
        step = min(_BLOCK, n - off)
        idx = bytes(buf[off:off + step]).find(needle)
        if idx >= 0:
            if counter is not None:
                counter.examined += idx + 1
            return off + idx
        if counter is not None:
            counter.examined += step
        off += step
    return None


def _memset_core(dst: memoryview, value: int, n: int) -> None:
    if n == 0:
        return
    pattern = bytes([value]) * min(_BLOCK, n)
    off = 0
    while off < n:
        step = min(_BLOCK, n - off)
        dst[off:off + step] = pattern if step == len(pattern) else pattern[:step]
        off += step


# Which buffers each op uses: (dst, src).
_ROLES = {
    OpKind.MEMCMP: (True, True),
    OpKind.MEMCPY: (True, True),
    OpKind.MEMMOVE: (True, True),
    OpKind.MEMSET: (True, False),
    OpKind.MEMCHR: (False, True),
}


def _dispatch(kind: OpKind, dst, src, n: int, aux: int, counter: ByteCounter | None):
    if kind is OpKind.MEMCMP:
        return _memcmp_core(dst, src, n, counter)
    if kind is OpKind.MEMCHR:
        return _memchr_core(src, aux & 0xFF, n, counter)
    if kind is OpKind.MEMSET:
        _memset_core(dst, aux & 0xFF, n)
    elif n:
        # memcpy and memmove alike: memoryview slice assignment between
        # contiguous views memmoves when the ranges overlap, which is the
        # C memmove contract in either direction.
        dst[:n] = src[:n]
    return None


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
    kind = OpKind(kind)
    uses_dst, uses_src = _ROLES[kind]
    if uses_dst:
        dst = _view(dst)
        _check_length(dst, length, "dst")
    if uses_src:
        src = _view(src)
        _check_length(src, length, "src")
    return _dispatch(kind, dst, src, length, aux, counter)


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
    kind = OpKind(kind)
    uses_dst, uses_src = _ROLES[kind]
    dst = view_at(slot_address(file, dst_slot), length) if uses_dst else None
    src = view_at(slot_address(file, src_slot), length) if uses_src else None
    return _dispatch(kind, dst, src, length, aux, counter)
