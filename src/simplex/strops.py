"""Slot-addressed string.h operations.

Five byte-exact reference operations (memcmp, memcpy, memmove, memset,
memchr) in two calling styles:

* ref_op()  - buffers passed as plain arguments; the reference semantics.
* slot_op() - buffer addresses never appear as arguments; they are loaded
  from bounds slots (stored earlier with qsetbnd_low) once per call, then
  a kernel runs the same libc function or mismatch on the addressed memory.

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

Each call makes one foreign call, which drops the GIL.  ref_op calls the C
library's memchr, memmove (memcpy too) or memset on raw addresses, or for
memcmp the stub page's mismatch kernel, which returns the first differing
index and the sign together, so memcmp reads no byte itself.  ref_op pins
each buffer for the call (a resize meanwhile raises BufferError), copies a
read-only buffer it only reads, and refuses a read-only buffer it writes
with TypeError.  slot_op packs (dst, aux, src, length) into its context's
32-byte cells, simplex.machine's one layout (slot address, plain operand,
slot address, n), and calls the stub table's cells kernel of the kind once:
memmove_cells (memcpy too), memset_cells, memcmp_cells or memchr_cells.
The kernel loads its operands from the cells, zeroes them, checks them as
below before it touches a byte, and runs the same libc function or
mismatch (see simplex.machine).  On the portable table mismatch and the
cells kernels are Python cores instead, mismatch one 64 KiB stride at a
time.  A length that is not an integer raises TypeError on both routes;
aux is ignored where the kind does not use it.

An optional ByteCounter reports the C-semantics count for memcmp and
memchr: the bytes up to and including the deciding byte, or all `length`
bytes when none decides.  No core reads at or past `length`.

Callers own buffer lifetime and validity.  A slot that reads back zero or
the post-reset pattern clearly holds no address and raises
NullSlotAddressError, right after its read.  A negative length, or a
range from a slot that would end past _END, slot_op's range limit (2**63 -
1 on a 64-bit interpreter, so any slot value of 2**63 or more, never a
user-space address on x86-64; 2**32 - 1 on a 32-bit one), is refused by the
kernel and raises ValueError before a byte moves.  Any other value
is dereferenced as a raw pointer, as in C: a stale or bogus one (say
qsetbnd_low(slot, 5)) reads or writes wherever it points and can kill the
interpreter with SIGSEGV.  There is deliberately no check against the
buffers actually parked, because one would need the parked addresses in
ordinary memory, which the hiding model keeps them out of.
"""

from __future__ import annotations

import ctypes
import operator
import struct
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


# slot_op's cells packer, range limit and the cells kernels' refusal (see
# simplex.machine).  Assigned, not imported: CPython 3.11 compiles a method
# call on an imported name, _CELL_ARGS.pack_into(...), as an attribute load
# and a call, and small-ops read x0.96 in ops_per_s with it.
_CELL_ARGS, _END, _REFUSED = machine._CELL_ARGS, machine._END, machine._REFUSED

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
# Each kind has two routes to one native call, which drops the GIL: callers
# keep the operands alive and mapped.  ref_op runs a core on the cells'
# layout (dst, aux, src, length), dst and src raw addresses (0 when unused):
# simplex.machine's cores over the C library's memmove, memset and memchr,
# and for memcmp the stub table's mismatch kernel, because its counter needs
# the deciding index, not just the sign.  slot_op packs the same four values
# into its context's cells and runs the stub table's cells kernel of the
# kind.  A core returns what the kernel does: memcmp the mismatch code,
# memchr the index or length when absent, the mutators 0; one decoder per
# kind turns it into the result and the counter's count.
# --------------------------------------------------------------------------


def _memcmp(dst: int, aux, src: int, n: int) -> int:
    # Looked up per call, so importing simplex builds no stub page.
    return machine.stubs().mismatch(dst, src, n)  # idx << 1 | (dst[idx] < src[idx])


def _sign(found: int, n: int, counter: ByteCounter | None) -> int:
    idx = found >> 1
    if counter is not None:
        counter.examined += min(idx + 1, n)
    if idx == n:
        return 0
    return -1 if found & 1 else 1


def _offset(idx: int, n: int, counter: ByteCounter | None) -> int | None:
    if counter is not None:
        counter.examined += min(idx + 1, n)
    return None if idx == n else idx


# kind -> (uses dst, uses src, writes dst, uses aux, core, the name of its
# cells kernel in the stub table, decoder or None), keyed by each member and
# by its string value, so one lookup both checks and dispatches a kind
# without the cost of the OpKind() constructor.
_OPS = {
    OpKind.MEMCMP: (True, True, False, False, _memcmp, "memcmp_cells", _sign),
    OpKind.MEMCPY: (True, True, True, False, machine._memmove, "memmove_cells", None),
    OpKind.MEMMOVE: (True, True, True, False, machine._memmove, "memmove_cells", None),
    OpKind.MEMSET: (True, False, True, True, machine._memset, "memset_cells", None),
    OpKind.MEMCHR: (False, True, False, True, machine._memchr, "memchr_cells", _offset),
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
    uses_dst, uses_src, writes, _, core, _, decode = _op(kind)
    length = operator.index(length)  # TypeError for a length that is not an integer
    # The pins hold both buffers until the call returns.
    dst_pin = _pin(dst, length, "dst", writes) if uses_dst else None
    src_pin = _pin(src, length, "src", False) if uses_src else None
    found = core(0 if dst_pin is None else ctypes.addressof(dst_pin), aux,
                 0 if src_pin is None else ctypes.addressof(src_pin), length)
    return None if decode is None else decode(found, length, counter)


def _no_address(slot: SlotId, address: int) -> NullSlotAddressError:
    """The refusal of a slot that reads zero or the reset pattern."""
    if address == 0:
        return NullSlotAddressError(f"{slot.name} reads zero: no address stored")
    return NullSlotAddressError(f"{slot.name} holds the reset pattern: no address stored")


def slot_address(file: RegisterFile, slot: SlotId, *, sanitize: bool = False) -> int:
    """Read a buffer address out of a slot, rejecting never-stored values.

    The file is gated once, then the slot, coerced as the RegisterFile
    accessors coerce it, is spilled through its context.  The default is
    the quick (non-sanitizing) read that slot_op makes; sanitize=True wipes
    the spill scratch as part of the read.
    """
    ctx = file._require_enabled()
    try:
        slot = _SLOTS[slot]
    except (KeyError, TypeError):
        raise ValueError(f"{slot!r} is not a valid SlotId") from None
    address = ctx.read(slot, sanitize)[0]
    if address == 0 or address == LOW_RESET:
        raise _no_address(slot, address)
    return address


def slot_op(kind, file: RegisterFile, *, dst_slot: SlotId | None = None,
            src_slot: SlotId | None = None, length: int = 0, aux: int = 0,
            counter: ByteCounter | None = None):
    """Run one operation with every buffer address loaded from a slot.

    The file is gated once per call, then each slot the kind uses is read
    once with a quick spill through its context, dst before src, exactly
    like a callee that had its pointer arguments replaced by bounds-register
    loads.  The addresses, aux and length go into the context's cells, and
    the stub table's cells kernel of the kind takes them from there in one
    foreign call.  Slot roles mirror ref_op: dst_slot carries the written
    (or first compared) buffer, src_slot the read one.  Results are
    identical to ref_op on the same memory.
    """
    uses_dst, uses_src, _, uses_aux, _, kernel, decode = _op(kind)
    ctx = file._require_enabled()
    # Each slot read as slot_address reads it, written out here: one gate per
    # call and no frame per slot.
    dst = src = 0
    if uses_dst:
        try:
            slot = _SLOTS[dst_slot]
        except (KeyError, TypeError):
            raise ValueError(f"{dst_slot!r} is not a valid SlotId") from None
        dst = ctx.read(slot, False)[0]
        if dst == 0 or dst == LOW_RESET:
            raise _no_address(slot, dst)
    if uses_src:
        try:
            slot = _SLOTS[src_slot]
        except (KeyError, TypeError):
            raise ValueError(f"{src_slot!r} is not a valid SlotId") from None
        src = ctx.read(slot, False)[0]
        if src == 0 or src == LOW_RESET:
            raise _no_address(slot, src)
    cells = ctx._cells
    try:
        _CELL_ARGS.pack_into(cells, 0, dst, aux & 0xFF if uses_aux else 0, src, length)
    except struct.error:  # a length that is no integer, or out of any range
        cells[:] = (0, 0, 0, 0)  # a partly packed call leaves no address behind
        found = _REFUSED
    else:
        found = getattr(machine.stubs(), kernel)(ctx._cells_addr)
    if found == _REFUSED:
        operator.index(length)  # TypeError for a length that is not an integer
        raise ValueError(f"no {length}-byte range at address {max(dst, src):#x}")
    return None if decode is None else decode(found, length, counter)
