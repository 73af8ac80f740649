"""Two-share hiding: hide_split and unhide_combine.

hide_split makes one machine.stubs().split call, and the table picks its
keystream; unhide_combine one xor_cells (per pass) or traverse (per byte)
call over the register context's cells, packed (A, out, B, n) in
simplex.machine's one cells layout, or per byte on hardware one
traverse_bnd call.  Each is a stub page kernel or, where the CPU cannot run
one, a Python core (all in simplex.machine).  The README's "Hiding model"
states what hiding guarantees in this Python implementation, and what it
does not.
"""

from __future__ import annotations

import ctypes
import mmap
import os
import random
import sys

from . import machine
from .errors import NullSlotAddressError
from .regfile import LOW_RESET, RegisterFile, SlotId
from .strops import _REFUSED, _Pin, _no_address

__all__ = ["HiddenBuffer", "hide_split", "unhide_combine"]

# unhide_combine and bench_traversal accept exactly these reload modes.
_RELOAD_MODES = ("per-pass", "per-byte")

# The cells packer (see simplex.machine), bound by assignment as in simplex.strops.
_CELL_ARGS = machine._CELL_ARGS


# A hide's shares live in one private anonymous mapping (mmap's default,
# MAP_SHARED, a fork child would share live): share A is bytes [0, n) and
# share B bytes [span, span + n), span being n rounded up to a page, so no
# page holds bytes of both.  A file's pool keeps at most one released
# mapping per length, so a repeated hide reuses faulted-in pages.  A mapping
# travels as an entry (mmap, address, n, address as c_void_p, size as
# c_size_t): the C values let libc memset wipe it with no argtypes conversion.
_MAP_FLAGS = mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS
_DONTDUMP = getattr(mmap, "MADV_DONTDUMP", None)  # Linux only
_memset = machine.libc.memset


def _fresh_region(n: int) -> tuple:
    """The entry of a fresh mapping for two n-byte shares, kept out of core dumps."""
    size = 2 * -(-n // mmap.PAGESIZE) * mmap.PAGESIZE
    region = mmap.mmap(-1, size, flags=_MAP_FLAGS)
    if _DONTDUMP is not None:
        region.madvise(_DONTDUMP)
    addr = ctypes.addressof(_Pin.from_buffer(region))
    return region, addr, n, ctypes.c_void_p(addr), ctypes.c_size_t(size)


# What sys.getrefcount(entry[0]) reads while only its entry holds the
# mapping (destroy reads the same expression).  Every view, slice or pin of
# a share holds a reference to the mapping (its buffer's obj), as do a
# caller that kept share.obj and a running unhide_combine, so it reads more
# while any of them lives.
# That is stricter than mmap's own export count (which mmap.resize
# checks), and it costs no syscall.
_entry = (object(),)
_UNVIEWED = sys.getrefcount(_entry[0])
del _entry


class HiddenBuffer:
    """Two XOR shares; unhide_combine reads their base addresses only from slots.

    Only hide_split makes one.  Its shares, share_a and share_b, are
    writable memoryviews over one private mapping that its file's pool lends
    out; destroy(), or dropping the buffer, wipes it.
    """

    # The slots hide_split parks the share addresses in.
    slot_a = SlotId.BND2
    slot_b = SlotId.BND3
    # The entry of the mapping under both shares, and the file whose pool
    # lent it.  _region is None once destroyed, and on a buffer whose
    # construction failed, which __del__ destroys too.
    _region = None

    def __init__(self, *, file: RegisterFile, entry: tuple) -> None:
        region, _, n = entry[:3]
        span = len(region) // 2
        # The share views pin the mapping: while they live, nothing can
        # resize or unmap it under the GIL-free kernel.
        with memoryview(region) as view:
            self.share_a, self.share_b = view[:n], view[span:span + n]
        self._file, self._region = file, entry

    def destroy(self) -> None:
        """Zero the shares' mapping and return it to the file's pool. Idempotent.

        The share views are released, and unhide_combine on this buffer
        raises NullSlotAddressError from then on.  The mapping is unmapped
        instead when its file is finished or the pool holds one of its
        length, and when its last use goes if a view, slice or pin of a
        share still uses it.  Dropping the buffer destroys it.
        """
        entry = self._region
        if entry is None:
            return
        self._region = None
        for share in (self.share_a, self.share_b):
            try:
                share.release()
            except BufferError:  # a pin on the share itself: the mapping stays viewed
                pass
        _memset(entry[3], 0, entry[4])
        pool = self._file._shares
        # setdefault is one atomic step under the GIL: of concurrent drops of
        # a length, at most one pools its mapping, and the others unmap theirs.
        if sys.getrefcount(entry[0]) == _UNVIEWED and (
                pool is None or pool.setdefault(entry[2], entry) is not entry):
            entry[0].close()

    __del__ = destroy

    def __copy__(self):
        # A copy would give the same mapping back a second time.
        raise TypeError("a HiddenBuffer owns its shares' mapping; it cannot be copied")


# hide_split's seed: share A's key (bytes 0-15) and counter block (16-31),
# in memory ctypes owns, so no other code can resize or free it.
_Seed = ctypes.c_ubyte * 32

# libc getrandom(2) fills the default seed in place, so no unwiped bytes
# object ever holds it; None where libc lacks it (os.urandom then).  Its
# arguments are passed as prebuilt C values: argtypes conversion costs a
# 32-byte hide ~0.7 us.
_getrandom = getattr(machine.libc, "getrandom", None)
_SEED_SIZE, _NO_FLAGS = ctypes.c_size_t(32), ctypes.c_uint(0)


def _check_reload(reload: str) -> None:
    if reload not in _RELOAD_MODES:
        raise ValueError(f"unknown reload mode {reload!r}; use per-pass or per-byte")


def hide_split(file: RegisterFile, secret: bytearray, *,
               rng: random.Random | None = None) -> HiddenBuffer:
    """Split `secret` into two XOR shares and wipe the original in place.

    Share A is a keystream expanded from a 32-byte seed, share B is secret
    XOR share A.  By default libc getrandom(2) writes the seed straight into
    the seed buffer (os.urandom(32) is copied in where libc has no getrandom
    or it comes up short).  When an rng is given the seed is
    rng.randbytes(32): the rng supplies the seed and nothing else, so seeded
    shares are reproducible and no more secret than the rng's state.  One
    call of the stub table's split (key = seed bytes 0-15, counter block =
    bytes 16-31) writes both shares and zeroes the secret; the table picks
    the keystream (see simplex.machine): AES-128-CTR where the CPU has
    AES-NI, SHAKE-128 of the seed elsewhere, the portable table included,
    so the two routes give different shares for one seed.  The seed buffer
    is zeroed on every exit.  The share base addresses are parked in BND2
    and BND3 via the quick store.  The input must be a bytearray because
    it is zeroed in place, with no temporary, before returning.  Only
    the shares survive, and they are never written anywhere else.  They
    are two views over the mapping the file's pool holds for this length
    (zeroed when it was given back) or over a fresh one, and are written in
    full before they are returned.  A file that refuses the hide
    (DisabledError: it is not enabled, or it belongs to another thread)
    raises before the mapping, a slot or a byte of `secret` is touched.
    """
    if not isinstance(secret, bytearray):
        raise TypeError("secret must be a bytearray (it is wiped in place)")
    if not secret:
        raise ValueError("secret must be nonempty")
    n = len(secret)
    pin_secret = _Pin.from_buffer(secret)
    addr_secret = ctypes.addressof(pin_secret)
    if rng is not None:
        seed = _Seed.from_buffer_copy(rng.randbytes(32))
    else:
        seed = _Seed()
        if _getrandom is None or _getrandom(seed, _SEED_SIZE, _NO_FLAGS) != 32:
            memoryview(seed).cast("B")[:] = os.urandom(32)
    try:
        # Gate before the pool, so only the owner thread takes from it; a
        # buffer dropped in another thread only ever puts a mapping back.
        file._require_enabled()
        pool = file._shares
        entry = (pool.pop(n, None) if pool is not None else None) or _fresh_region(n)
        # Built before the stores: an error from here on hands the mapping back.
        hidden = HiddenBuffer(file=file, entry=entry)
        addr_a, addr_b = entry[1], entry[1] + len(entry[0]) // 2
        file.qsetbnd_low(HiddenBuffer.slot_a, addr_a)
        file.qsetbnd_low(HiddenBuffer.slot_b, addr_b)
        addr_seed = ctypes.addressof(seed)
        machine.stubs().split(addr_a, addr_b, addr_secret, n, addr_seed, addr_seed + 16)
    finally:
        memoryview(seed).cast("B")[:] = bytes(32)  # in place, without a foreign call
    return hidden


def unhide_combine(file: RegisterFile, hidden: HiddenBuffer, *,
                   out: bytearray | None = None,
                   reload: str = "per-pass") -> bytearray:
    """Reconstruct the secret: out[i] = share_a[i] XOR share_b[i].

    Share addresses come from the slots; the HiddenBuffer only vouches for
    them.  The file is gated once per call; each address is then loaded
    once with a sanitizing read through the gated context, which leaves
    the spill scratch zeroed.  They, out's address and n go into the
    context's 32-byte cells for one kernel call, which zeroes them:
    xor_cells ("per-pass") or traverse ("per-byte"), which re-loads both
    addresses from the cells for every byte unhidden.  On hardware
    traverse_bnd re-loads them per byte from BND2/BND3 instead.
    The first load of each slot must equal this buffer's own share address
    before a byte is read: every hide_split re-points BND2/BND3, so an older
    buffer raises NullSlotAddressError until its addresses are parked there
    again.  A destroyed buffer raises NullSlotAddressError before anything
    is read, an out that is not n bytes ValueError, and one that is not
    writable and C-contiguous TypeError.
    """
    _check_reload(reload)
    entry = hidden._region
    try:
        # Taken with no call or allocation after the entry was read, and held
        # until the call returns, so a destroy() meanwhile cannot pool or unmap it.
        region, addr_a, n = entry[0], entry[1], entry[2]
    except TypeError:  # entry is None
        raise NullSlotAddressError("this HiddenBuffer was destroyed; its shares are gone") from None
    if out is None:
        out = bytearray(n)
    # Its size in bytes: len() counts items, which an array('I') has fewer of.
    elif (len(out) if type(out) is bytearray else memoryview(out).nbytes) != n:
        raise ValueError(f"out buffer is {memoryview(out).nbytes} bytes, need {n}")
    try:
        pin_out = _Pin.from_buffer(out)  # held until the kernel returns: out cannot be resized
    except TypeError:
        raise TypeError("out must be a writable, C-contiguous buffer") from None
    ctx = file._require_enabled()
    # Each slot read and checked as strops.slot_address reads it (both are
    # SlotIds), written out here: one gate per call and no frame per slot.
    slot_a, slot_b = hidden.slot_a, hidden.slot_b
    base_a = ctx.read(slot_a, True)[0]
    if base_a == 0 or base_a == LOW_RESET:
        raise _no_address(slot_a, base_a)
    base_b = ctx.read(slot_b, True)[0]
    if base_b == 0 or base_b == LOW_RESET:
        raise _no_address(slot_b, base_b)
    if base_a != addr_a or base_b != addr_a + len(region) // 2:
        raise NullSlotAddressError(
            f"{slot_a.name}/{slot_b.name} no longer address this buffer's "
            "shares (a later hide_split re-points them)")
    addr_out = ctypes.addressof(pin_out)
    if reload == "per-pass":
        kernel = machine.stubs().xor_cells
    elif ctx.traverse_bnd is None:
        kernel = machine.stubs().traverse
    else:
        ctx.traverse_bnd(addr_out, n)
        return out
    _CELL_ARGS.pack_into(ctx._cells, 0, base_a, addr_out, base_b, n)
    if kernel(ctx._cells_addr) == _REFUSED:
        raise ValueError(f"no {n}-byte range at address {max(base_a, addr_out, base_b):#x}")
    return out
