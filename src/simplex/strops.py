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

Each call makes one foreign call on raw addresses, which drops the GIL:
the C library's memchr, memmove (memcpy too) or memset, or for memcmp the
stub page's mismatch kernel, which returns the first differing index and
the sign together, so memcmp reads no byte itself.  On the portable table
(see simplex.machine) mismatch is a Python core instead, one 64 KiB stride
at a time.  ref_op pins each buffer for the call (a resize meanwhile raises
BufferError), copies a read-only buffer it only reads, and refuses a
read-only buffer it writes with TypeError.

An optional ByteCounter reports the C-semantics count for memcmp and
memchr: the bytes up to and including the deciding byte, or all `length`
bytes when none decides.  No core reads at or past `length`.

Callers own buffer lifetime and validity.  A slot that reads back zero or
the post-reset pattern clearly holds no address and raises
NullSlotAddressError.  A range from a slot that would end past _END,
slot_op's range limit (2**63 - 1 on a 64-bit interpreter, so any slot
value of 2**63 or more, never a user-space address on x86-64; 2**32 - 1 on
a 32-bit one), raises ValueError before a byte moves.  Any other value
is dereferenced as a raw pointer, as in C: a stale or bogus one (say
qsetbnd_low(slot, 5)) reads or writes wherever it points and can kill the
interpreter with SIGSEGV.  There is deliberately no check against the
buffers actually parked, because one would need the parked addresses in
ordinary memory, which the hiding model keeps them out of.
"""

from __future__ import annotations

import ctypes
import sys
from dataclasses import dataclass
from enum import Enum

from . import machine
from .errors import NullSlotAddressError
from .regfile import _SLOTS, LOW_RESET, RegisterFile, SlotId

__all__ = [
    "OpKind",
    "ByteCounter",
    "ref_op",
    "slot_op",
    "slot_address",
    "byte_address",
    "view_at",
]

class OpKind(Enum):
    MEMCMP = "memcmp"
    MEMCPY = "memcpy"
    MEMMOVE = "memmove"
    MEMSET = "memset"
    MEMCHR = "memchr"

    # Members are singletons and Enum compares by identity, so the identity
    # hash is exact; Enum's own __hash__ is a Python frame on every _OPS lookup.
    __hash__ = object.__hash__


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


# slot_op's range limit: 2**63 - 1 on a 64-bit interpreter (the top half of
# the address space is the kernel's on x86-64), 2**32 - 1 on a 32-bit one.
_END = (1 << min(8 * ctypes.sizeof(ctypes.c_void_p), 63)) - 1

# view_at's process-wide view.  A memoryview spans at most sys.maxsize bytes:
# all of [0, _END) on a 64-bit interpreter, but only up to 2**31 - 1 on a
# 32-bit one, whose buffers may sit above that.  Built once, so a slice
# costs no ctypes array type (ctypes frees those only at the next cyclic
# collection), no cast and no foreign call.
_SPACE_END = min(_END, sys.maxsize)
_SPACE = memoryview((ctypes.c_ubyte * _SPACE_END).from_address(0)).cast("B")


def view_at(addr: int, length: int) -> memoryview:
    """Memoryview over `length` bytes of raw memory at `addr`.

    No op runs through it.  A slice of a process-wide view.  Raises
    ValueError for a negative length or a range that does not end by _END,
    which a slice would silently clip; every other range is taken on trust
    (see module doc).
    On a 32-bit interpreter a range above the view gets a view of its own,
    and one longer than a memoryview can span is refused too.
    """
    if 0 <= addr and 0 <= length:
        if addr + length <= _SPACE_END:
            return _SPACE[addr:addr + length]
        # In range only on a 32-bit interpreter: on 64-bit _SPACE_END is _END.
        if addr + length <= _END and length <= _SPACE_END:
            return memoryview((ctypes.c_ubyte * length).from_address(addr)).cast("B")
    raise ValueError(f"no {length}-byte range at address {addr:#x}")


def _pin(buf, length: int, role: str, written: bool):
    """A _Pin on the first `length` bytes of buf, held across a GIL-free call.

    A read-only buffer is copied once, or refused (TypeError) where the call
    writes it.  A buffer that is not C-contiguous is refused.
    """
    view = memoryview(buf)
    if length < 0:
        raise ValueError(f"negative length: {length}")
    if length > view.nbytes:
        raise ValueError(f"{role} buffer too small: {view.nbytes} < {length}")
    if view.readonly:
        if written:
            raise TypeError(f"{role} buffer is read-only")
        view = bytearray(view.cast("B")[:length])
    return _Pin.from_buffer(view)


# --------------------------------------------------------------------------
# Cores take (dst, src, length, aux, counter), dst and src raw addresses (0
# when unused), and make one foreign call each.  The C library's memchr,
# memmove and memset run as they are; memcmp runs the stub table's mismatch
# core, because its counter needs the deciding index, not just the sign.
# Each call drops the GIL: callers keep the operands alive and mapped.
# --------------------------------------------------------------------------


def _memcmp(dst: int, src: int, n: int, aux: int, counter: ByteCounter | None) -> int:
    # Looked up per call, so importing simplex builds no stub page.
    found = machine.stubs().mismatch(dst, src, n)  # idx << 1 | (dst[idx] < src[idx])
    idx = found >> 1
    if counter is not None:
        counter.examined += min(idx + 1, n)
    if idx == n:
        return 0
    return -1 if found & 1 else 1


_libc_memchr = machine.libc.memchr


def _memchr(dst, src: int, n: int, aux: int, counter: ByteCounter | None) -> int | None:
    found = _libc_memchr(src, aux & 0xFF, n)  # None when absent
    idx = n if found is None else found - src
    if counter is not None:
        counter.examined += min(idx + 1, n)
    return None if found is None else idx


def _memset(dst: int, src, n: int, aux: int, counter) -> None:
    ctypes.memset(dst, aux & 0xFF, n)


def _memmove(dst: int, src: int, n: int, aux: int, counter) -> None:
    # memcpy too: a copy between ranges that do not overlap is a memmove.
    ctypes.memmove(dst, src, n)


# kind -> (uses dst, uses src, writes dst, core), keyed by each member and by
# its string value, so one lookup both checks and dispatches a kind without
# the cost of the OpKind() constructor.
_OPS = {
    OpKind.MEMCMP: (True, True, False, _memcmp),
    OpKind.MEMCPY: (True, True, True, _memmove),
    OpKind.MEMMOVE: (True, True, True, _memmove),
    OpKind.MEMSET: (True, False, True, _memset),
    OpKind.MEMCHR: (False, True, False, _memchr),
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
    uses_dst, uses_src, writes, core = _op(kind)
    # The pins hold both buffers until the call returns.
    dst_pin = _pin(dst, length, "dst", writes) if uses_dst else None
    src_pin = _pin(src, length, "src", False) if uses_src else None
    return core(0 if dst_pin is None else ctypes.addressof(dst_pin),
                0 if src_pin is None else ctypes.addressof(src_pin), length, aux, counter)


def _load(ctx, slot, wipe: bool) -> int:
    """Spill `slot` through a context the caller has gated; return its lower half.

    Coerces the slot as the RegisterFile accessors do, and rejects the two
    values that clearly hold no address.
    """
    try:
        slot = _SLOTS[slot]
    except (KeyError, TypeError):
        raise ValueError(f"{slot!r} is not a valid SlotId") from None
    address = ctx.read(slot, wipe)[0]
    if address == 0:
        raise NullSlotAddressError(f"{slot.name} reads zero: no address stored")
    if address == LOW_RESET:
        raise NullSlotAddressError(f"{slot.name} holds the reset pattern: no address stored")
    return address


def slot_address(file: RegisterFile, slot: SlotId, *, sanitize: bool = False) -> int:
    """Read a buffer address out of a slot, rejecting never-stored values.

    The file is gated once, then the slot is spilled through its context.
    The default is the quick (non-sanitizing) read that slot_op makes;
    sanitize=True wipes the spill scratch as part of the read.
    """
    return _load(file._require_enabled(), slot, sanitize)


def slot_op(kind, file: RegisterFile, *, dst_slot: SlotId | None = None,
            src_slot: SlotId | None = None, length: int = 0, aux: int = 0,
            counter: ByteCounter | None = None):
    """Run one operation with every buffer address loaded from a slot.

    The file is gated once per call, then each slot the kind uses is read
    once with a quick spill through its context, dst before src, exactly
    like a callee that had its pointer arguments replaced by bounds-register
    loads.  Slot roles mirror ref_op: dst_slot carries the written (or first
    compared) buffer, src_slot the read one.  Results are identical to
    ref_op on the same memory.
    """
    uses_dst, uses_src, _, core = _op(kind)
    ctx = file._require_enabled()
    dst = _load(ctx, dst_slot, False) if uses_dst else 0
    src = _load(ctx, src_slot, False) if uses_src else 0
    if length < 0 or max(dst, src) + length > _END:
        raise ValueError(f"no {length}-byte range at address {max(dst, src):#x}")
    return core(dst, src, length, aux, counter)
