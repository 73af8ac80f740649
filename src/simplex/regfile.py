"""Bounds-register file: four 128-bit slots repurposed as hidden storage.

The x86 MPX extension left four architecturally invisible registers
(BND0..BND3) on many shipped CPUs.  Each holds two raw 64-bit halves.  This
module exposes them as addressable storage slots behind one data path with
two interchangeable backends:

* Hardware: the real registers, written with a SIB-addressed BNDMK and read
  by spilling the raw image with BNDMOV.  BNDMK stores the one's complement
  of the effective address as the raw upper half, so the write path
  pre-compensates and callers only ever see raw halves.
* Emulated: a bit-exact software model, usable on any machine.  It keeps
  each slot as one (low, high) pair, and its scratch is the pair the last
  quick read returned, which scratch_snapshot() packs into the 16 bytes a
  spill would have left, so the two backends are indistinguishable
  through the public operations.

Every read spills the slot's image into the thread's scratch, and a
sanitizing read wipes it again.  On hardware the scratch is 16 real bytes
and the wipe memsets them, so a spilled payload never lingers in memory.
On the emulated backend the wipe drops the reference to the last quick
read's pair; the payload itself lives on as the slot's Python ints.  The
quick variants trade that hygiene for speed: qsetbnd_low rewrites a slot
with a single bounds-make (leaving the upper half unspecified) and
qgetbnd_low skips the scratch wipe.

A RegisterFile is a handle to the calling thread's register context.  One
rule decides who may use it: the calling thread's own registry of contexts
(a threading.local) must be the one the file was made from.  Every
accessor, mutator, reset and finish raises DisabledError otherwise, as the
hardware would (the caller's own MPX context is not enabled).  The file
keeps that registry alive, so no later thread can ever hold it: a foreign
thread and one that reuses a dead owner's ident are refused alike.  Files
start disabled.

process_specific_init() turns the calling thread's context on and puts
every slot into the reset state (raw low = all-ones, raw high = zero).
Calling it again is legal and simply resets the slots.

process_specific_finish() destroys stored payloads and disables the
context.  Afterward BND1..BND3 and BND0's lower half sit at their reset
values.  BND0's upper half is backend-specific: the emulated backend pins
it to the deterministic reset value, while on hardware it ends up holding
an unpredictable value whose only stable property is a set most-significant
bit - so that is all anyone may assume there.  Finishing twice is a no-op
the second time; nothing readable survives either way.
"""

from __future__ import annotations

import ctypes
import os
import struct
import threading
from enum import IntEnum
from typing import NamedTuple

from . import machine
from .errors import DisabledError
from .probe import BackendKind, probe

__all__ = [
    "MASK64",
    "LOW_RESET",
    "HIGH_RESET",
    "SlotId",
    "BoundsSlot",
    "RegisterFile",
    "process_specific_init",
    "process_specific_finish",
    "is_enabled",
]

MASK64 = 0xFFFF_FFFF_FFFF_FFFF

# Post-initialization register value, as observed on hardware: the raw lower
# half reads back as the maximum unsigned 64-bit value and the raw upper
# half as zero.
LOW_RESET = MASK64
HIGH_RESET = 0


class SlotId(IntEnum):
    """The four bounds registers; no other slot values are representable.

    Every slot argument in this package is a SlotId member or a value equal
    to 0..3 (so True and 1.0 select BND1, as SlotId() itself would).
    Anything else raises ValueError("<repr> is not a valid SlotId").
    """

    BND0 = 0
    BND1 = 1
    BND2 = 2
    BND3 = 3


# One dict lookup stands in for the SlotId() constructor on every access: it
# accepts exactly the values the constructor does, at a fraction of its cost.
# A tuple index would not do: it takes -1..-4 as BND3..BND0.
_SLOTS = {slot.value: slot for slot in SlotId}
_SLOT_IDS = tuple(_SLOTS.values())  # BND0..BND3; iterating SlotId costs ~3x more


def _slot(slot) -> SlotId:
    try:
        return _SLOTS[slot]
    except (KeyError, TypeError):
        raise ValueError(f"{slot!r} is not a valid SlotId") from None


class BoundsSlot(NamedTuple):
    """Raw 128-bit slot image: a named (low, high) pair of 64-bit halves.

    Nothing validates it: no API takes a BoundsSlot as input, and every
    write checks the halves it is given.
    """

    low: int
    high: int


_QQ = struct.Struct("<QQ")
_Q = struct.Struct("<Q")


# --------------------------------------------------------------------------
# Backend contexts.  One context per (thread, backend kind); it owns the
# slot state, the enable flag, and the spill scratch: 16 aligned bytes on
# hardware, the (low, high) pair the last quick read returned (None once
# wiped) on the emulated backend.  Both classes expose the same primitive
# surface so RegisterFile runs a single data path: make_bounds writes a
# slot, read(slot, wipe) spills it and returns its (low, high) halves, with
# wipe zeroing the hardware scratch and dropping the emulated one,
# traverse(out_addr, n) runs the traverse kernel (see simplex.machine) over
# BND2 and BND3, the slots every HiddenBuffer parks its shares in, with their
# images as its cells, zeroed on return, and finish_bnd0_high() gives BND0's
# upper half for process_specific_finish.  Each also owns 32 bytes of cells,
# _cells at _cells_addr, that simplex.strops.slot_op packs for its kernels.
# --------------------------------------------------------------------------


class _EmulatedContext:
    def __init__(self) -> None:
        self.enabled = False
        self._slots = [(LOW_RESET, HIGH_RESET)] * 4
        self._residue = None  # the last quick read's (low, high), None once wiped
        self._cells = machine._Cells()  # pinned for the context's lifetime
        self._cells_addr = ctypes.addressof(self._cells)

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def make_bounds(self, slot: int, low: int, high: int) -> None:
        self._slots[slot] = (low, high)

    def read(self, slot: int, wipe: bool) -> tuple[int, int]:
        halves = self._slots[slot]
        self._residue = None if wipe else halves
        return halves

    def traverse(self, out_addr: int, n: int) -> None:
        cells = self._cells
        try:
            cells[:] = (*self._slots[2], *self._slots[3])  # BND2, BND3
            machine.stubs().traverse(out_addr, self._cells_addr, n)
        finally:
            cells[:] = (0, 0, 0, 0)

    def finish_bnd0_high(self) -> int:
        return HIGH_RESET

    def scratch_snapshot(self) -> bytes:
        residue = self._residue
        return bytes(16) if residue is None else _QQ.pack(*residue)

    def raw_slots(self) -> list[tuple[int, int]]:
        return list(self._slots)


class _HardwareContext:
    def __init__(self) -> None:
        probe(flag="hardware")  # HardwareUnavailableError on a machine that cannot honor it
        self._stubs = machine.stubs()
        self.enabled = False

        # Scratch: 16 bytes, 16-byte aligned, fixed for the thread's lifetime.
        self._scratch_buf = ctypes.create_string_buffer(32)
        base = ctypes.addressof(self._scratch_buf)
        self._scratch_addr = (base + 15) & ~15
        self._scratch_off = self._scratch_addr - base
        self._cells = machine._Cells()  # slot_op's, pinned for the thread's lifetime
        self._cells_addr = ctypes.addressof(self._cells)

        # XSAVE area sized for every feature the CPU supports, 64-byte aligned.
        _, _, max_size, _ = self._stubs.cpuid(0x0D, 0)
        self._area_buf = ctypes.create_string_buffer(max_size + 64)
        area_base = ctypes.addressof(self._area_buf)
        self._area_addr = (area_base + 63) & ~63
        self._area_size = max_size
        _, self._bndregs_off, _, _ = self._stubs.cpuid(0x0D, 3)
        _, self._bndcsr_off, _, _ = self._stubs.cpuid(0x0D, 4)

    # XSAVE header layout: XSTATE_BV at +512, XCOMP_BV at +520 (must stay
    # zero for the standard, non-compacted format), remainder reserved.
    def _clear_area(self) -> None:
        ctypes.memset(self._area_addr, 0, self._area_size)

    def enable(self) -> None:
        # User-mode XRSTOR of the BNDCSR component with BNDCFGU = enable |
        # preserve-on-legacy-branch.  The bounds-table base (bits 63:12) is
        # deliberately left zero: slots are plain storage, never bounds.
        self._clear_area()
        ctypes.memmove(self._area_addr + 512, _Q.pack(1 << 4), 8)
        ctypes.memmove(self._area_addr + self._bndcsr_off, _QQ.pack(0b11, 0), 16)
        self._stubs.xrstor(self._area_addr, 1 << 4)
        self.enabled = True

    def disable(self) -> None:
        # XRSTOR with the BNDCSR bit clear in XSTATE_BV writes the component's
        # initial configuration: BNDCFGU = 0, i.e. MPX off for this thread.
        self._clear_area()
        self._stubs.xrstor(self._area_addr, 1 << 4)
        self.enabled = False

    def make_bounds(self, slot: int, low: int, high: int) -> None:
        # BNDMK bndN, [low + index] leaves raw low = low and raw high =
        # ~(low + index); solve for index to land on the requested high.
        index = (~high - low) & MASK64
        self._stubs.bndmk(slot, low, index)

    def read(self, slot: int, wipe: bool) -> tuple[int, int]:
        addr = self._scratch_addr
        self._stubs.bndmov_spill(slot, addr)
        halves = _QQ.unpack_from(self._scratch_buf, self._scratch_off)
        if wipe:
            ctypes.memset(addr, 0, 16)
        return halves

    def traverse(self, out_addr: int, n: int) -> None:
        # The kernel spills BND2 and BND3 into its red zone, which it zeroes.
        self._stubs.traverse_bnd(out_addr, n)

    def finish_bnd0_high(self) -> int:
        # Finish leaves noise whose only stable property is the set top bit.
        (noise,) = _Q.unpack(os.urandom(8))
        return noise | (1 << 63)

    def scratch_snapshot(self) -> bytes:
        return ctypes.string_at(self._scratch_addr, 16)

    def raw_slots(self) -> list[tuple[int, int]]:
        # XSAVE can dump the bounds registers even while MPX is disabled, as
        # long as XCR0 advertises the component.  A clear XSTATE_BV bit after
        # the save means the registers sit in their INIT state (raw zeros).
        self._clear_area()
        self._stubs.xsave(self._area_addr, 1 << 3)
        (xstate_bv,) = _Q.unpack_from(ctypes.string_at(self._area_addr + 512, 8), 0)
        if not (xstate_bv >> 3) & 1:
            return [(0, 0)] * 4
        image = ctypes.string_at(self._area_addr + self._bndregs_off, 64)
        return list(_QQ.iter_unpack(image))


# The calling thread's registry: .contexts maps a backend kind to the
# thread's context, and is set when the thread makes its first file.
_tls = threading.local()


def _at_home(file: RegisterFile) -> bool:
    """The ownership rule: the calling thread's registry is the file's."""
    try:
        return _tls.contexts is file._home
    except AttributeError:  # the calling thread never made a file
        return False


# A backend argument is a BackendKind member or its string value, as a slot
# is a SlotId or its value; one dict lookup resolves it, as in _slot.
_BACKENDS = {kind: kind for kind in BackendKind}
_BACKENDS.update({kind.value: kind for kind in BackendKind})


def _check_value(value: int) -> int:
    """The half as an int (a bool as 0 or 1).

    TypeError for a value that is not an integer, ValueError for one outside
    64 bits: one shift checks both, at the cost of a range check alone.
    """
    try:
        if value >> 64:
            raise ValueError(f"slot half out of 64-bit range: {value:#x}")
    except TypeError:
        raise TypeError(f"slot half must be an int, not {type(value).__name__}") from None
    return +value


class RegisterFile:
    """Thread-private handle to the four bounds slots of one backend.

    All accessors, mutators and resets require the file to be enabled and
    to be called from the thread that created it; otherwise they raise
    DisabledError, leaving state untouched.
    """

    def __init__(self, kind: BackendKind | str) -> None:
        try:
            kind = _BACKENDS[kind]
        except (KeyError, TypeError):
            raise ValueError(f"{kind!r} is not a valid BackendKind") from None
        self.backend = kind
        try:
            home = _tls.contexts
        except AttributeError:
            home = _tls.contexts = {}
        ctx = home.get(kind)
        if ctx is None:
            ctx = home[kind] = (_HardwareContext() if kind is BackendKind.HARDWARE
                                else _EmulatedContext())
        self._home = home
        self._ctx = ctx
        self._owner_name = threading.current_thread().name
        # simplex.hide's pool: length -> one released hide's mapping entry; None once finished.
        self._shares = {}

    # -- gating ---------------------------------------------------------

    def _require_enabled(self):
        ctx = self._ctx
        try:  # _at_home inlined, as the gate runs on every op
            if ctx.enabled and _tls.contexts is self._home:
                return ctx
        except AttributeError:  # the calling thread never made a file
            pass
        raise self._refusal()

    def _refusal(self) -> DisabledError:
        if not _at_home(self):
            return DisabledError(
                f"{self.backend.value} register file belongs to thread "
                f"{self._owner_name!r}; it is not enabled in this thread"
            )
        return DisabledError(f"{self.backend.value} register file is not enabled")

    # -- mutators ---------------------------------------------------------

    def setbnd_low(self, slot: SlotId, value: int) -> None:
        """Write the lower half, preserving the upper half."""
        ctx = self._require_enabled()
        slot = _slot(slot)
        value = _check_value(value)
        ctx.make_bounds(slot, value, ctx.read(slot, True)[1])

    def setbnd_high(self, slot: SlotId, value: int) -> None:
        """Write the upper half, preserving the lower half."""
        ctx = self._require_enabled()
        slot = _slot(slot)
        value = _check_value(value)
        ctx.make_bounds(slot, ctx.read(slot, True)[0], value)

    def setbnd128(self, slot: SlotId, low: int, high: int) -> None:
        """Write both halves at once."""
        ctx = self._require_enabled()
        slot = _slot(slot)
        ctx.make_bounds(slot, _check_value(low), _check_value(high))

    def qsetbnd_low(self, slot: SlotId, value: int) -> None:
        """Quick lower-half write: a single bounds-make, no spill.

        The upper half is UNSPECIFIED afterwards; callers must not rely on
        it.  (Both backends currently leave the bitwise complement of the
        written value there, an artifact of the zero-index bounds-make, but
        that is an implementation detail, not API.)
        """
        ctx = self._require_enabled()
        slot = _slot(slot)
        value = _check_value(value)
        ctx.make_bounds(slot, value, ~value & MASK64)

    # -- accessors ---------------------------------------------------------

    def getbnd_low(self, slot: SlotId) -> int:
        """Sanitizing lower-half read."""
        return self._require_enabled().read(_slot(slot), True)[0]

    def getbnd_high(self, slot: SlotId) -> int:
        """Sanitizing upper-half read."""
        return self._require_enabled().read(_slot(slot), True)[1]

    def getbnd128(self, slot: SlotId) -> BoundsSlot:
        """Sanitizing full read of both halves."""
        # Not BoundsSlot._make: read always returns a pair, so its frame and
        # length check buy nothing.
        return tuple.__new__(BoundsSlot, self._require_enabled().read(_slot(slot), True))

    def qgetbnd_low(self, slot: SlotId) -> int:
        """Quick lower-half read: spills but skips the scratch wipe.

        The spilled register image stays in the scratch buffer until the
        next sanitizing operation; scratch_snapshot() makes that visible.
        """
        return self._require_enabled().read(_slot(slot), False)[0]

    # -- resets ---------------------------------------------------------

    def reset_slot(self, slot: SlotId) -> None:
        """Restore one slot to the post-initialization state. Idempotent."""
        ctx = self._require_enabled()
        ctx.make_bounds(_slot(slot), LOW_RESET, HIGH_RESET)

    def reset_all(self) -> None:
        """Restore all four slots to the post-initialization state."""
        ctx = self._require_enabled()
        for slot in _SLOT_IDS:
            ctx.make_bounds(slot, LOW_RESET, HIGH_RESET)

    # -- hooks ---------------------------------------------------------

    def scratch_snapshot(self) -> bytes:
        """Return the current 16-byte spill scratch contents (test hook)."""
        return self._ctx.scratch_snapshot()

    def _peek_raw_slots(self) -> list[tuple[int, int]]:
        """Raw slot images regardless of enablement (inspection hook).

        Works through XSAVE on hardware and direct state access on the
        emulated backend; used by the harnesses to verify post-finalize
        state without re-enabling anything.
        """
        return self._ctx.raw_slots()


# --------------------------------------------------------------------------
# Lifecycle
# --------------------------------------------------------------------------


def process_specific_init(backend: BackendKind | str | None = None) -> RegisterFile:
    """Enable the calling thread's register file and reset all four slots.

    backend=None takes probe().selected, so SIMPLEX_BACKEND applies with
    probe()'s rule: "hardware" on an incapable machine warns and falls back
    to emulated.  Otherwise backend is a BackendKind member or its string
    value; anything else raises ValueError("<repr> is not a valid
    BackendKind").  Passing BackendKind.HARDWARE (or "hardware") explicitly
    is a strict demand and raises HardwareUnavailableError on machines that
    cannot honor it.
    """
    file = RegisterFile(probe().selected if backend is None else backend)
    file._ctx.enable()
    file.reset_all()
    return file


def process_specific_finish(file: RegisterFile) -> None:
    """Destroy slot contents, drop the share pool and disable the file. Idempotent.

    Slots are reset while the context is still enabled: on hardware the
    bounds-make instruction becomes a NOP once MPX is off, and registers
    left un-reset would still be visible to an XSAVE afterwards.  BND0's
    upper half gets the backend-specific post-finalize value described in
    the module docstring.  The ownership rule of the module docstring
    applies: from any thread whose registry is not the file's, this raises
    DisabledError and keeps the pool.
    """
    if not _at_home(file):
        raise file._refusal()
    file._shares = None  # unmaps the pooled mappings; shares released later are unmapped too
    ctx = file._ctx
    if not ctx.enabled:
        return
    for slot in _SLOT_IDS[1:]:
        ctx.make_bounds(slot, LOW_RESET, HIGH_RESET)
    ctx.make_bounds(_SLOT_IDS[0], LOW_RESET, ctx.finish_bnd0_high())
    ctx.read(_SLOT_IDS[0], True)  # leaves the scratch wiped
    ctx.disable()


def is_enabled(file: RegisterFile) -> bool:
    """True while the file accepts accessor and mutator operations."""
    return file._ctx.enabled and _at_home(file)
