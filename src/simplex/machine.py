"""JIT-assembled x86-64 helpers for feature probing and bounds-register access.

CPython cannot emit CPUID, XGETBV, XSAVE/XRSTOR, or the MPX bounds
instructions on its own, so this module writes fixed byte sequences into an
anonymous executable mapping and calls them through ctypes.  All encodings
below were checked against objdump; comments give the disassembly.

Safety rules, enforced by the callers in probe.py and regfile.py:

* CPUID is baseline x86-64 and always safe to execute.
* XGETBV faults (#UD) unless CPUID.01H:ECX.OSXSAVE is set; callers must
  check that bit first.
* XSAVE/XRSTOR are only issued when XCR0 advertises the requested state
  components, otherwise they can raise #GP.
* BNDMK / BNDMOV execute as NOPs on CPUs without MPX (or with MPX
  disabled), so probing with them never traps.

Beside those instructions the page carries one plain kernel, ``xor``: the
two-share XOR that hiding and unhiding run over whole buffers (see
simplex.bench).  It touches only the memory its caller names.

The page is mapped read-write, filled, then switched to read-execute with
mprotect before any stub runs, so it is never writable and executable at
once.  On non-x86-64 hosts, or when the kernel refuses the mapping or the
switch, ``stubs()`` returns None instead of raising.
"""

from __future__ import annotations

import ctypes
import functools
import mmap
import os
import platform
import sys

__all__ = ["MachineStubs", "stubs", "mpx_facts"]

# --------------------------------------------------------------------------
# Encodings (SysV AMD64 calling convention: rdi, rsi, rdx, ...)
# --------------------------------------------------------------------------

# cpuid_count(leaf: edi, subleaf: esi, out: rdx -> 4 x u32 {eax,ebx,ecx,edx})
_CODE_CPUID = bytes(
    [
        0x53,                          # push  rbx        (callee-saved, cpuid clobbers it)
        0x49, 0x89, 0xD0,              # mov   r8, rdx    (out pointer; cpuid overwrites edx)
        0x89, 0xF8,                    # mov   eax, edi
        0x89, 0xF1,                    # mov   ecx, esi
        0x0F, 0xA2,                    # cpuid
        0x41, 0x89, 0x00,              # mov   [r8], eax
        0x41, 0x89, 0x58, 0x04,        # mov   [r8+4], ebx
        0x41, 0x89, 0x48, 0x08,        # mov   [r8+8], ecx
        0x41, 0x89, 0x50, 0x0C,        # mov   [r8+12], edx
        0x5B,                          # pop   rbx
        0xC3,                          # ret
    ]
)

# xgetbv(index: edi) -> u64 (edx:eax folded into rax)
_CODE_XGETBV = bytes(
    [
        0x89, 0xF9,                    # mov   ecx, edi
        0x0F, 0x01, 0xD0,              # xgetbv
        0x48, 0xC1, 0xE2, 0x20,        # shl   rdx, 32
        0x48, 0x09, 0xD0,              # or    rax, rdx
        0xC3,                          # ret
    ]
)

# xsave(area: rdi, mask: rsi); mask is split into edx:eax as XSAVE expects
_CODE_XSAVE = bytes(
    [
        0x48, 0x89, 0xF2,              # mov   rdx, rsi
        0x89, 0xF0,                    # mov   eax, esi
        0x48, 0xC1, 0xEA, 0x20,        # shr   rdx, 32
        0x0F, 0xAE, 0x27,              # xsave [rdi]
        0xC3,                          # ret
    ]
)

# xrstor(area: rdi, mask: rsi)
_CODE_XRSTOR = bytes(
    [
        0x48, 0x89, 0xF2,              # mov   rdx, rsi
        0x89, 0xF0,                    # mov   eax, esi
        0x48, 0xC1, 0xEA, 0x20,        # shr   rdx, 32
        0x0F, 0xAE, 0x2F,              # xrstor [rdi]
        0xC3,                          # ret
    ]
)


def _code_bndmk(slot: int) -> bytes:
    # bndmk bndN, [rdi + rsi*1]; ret
    #
    # BNDMK loads the lower bound from the SIB base register and stores the
    # one's complement of the full effective address as the raw upper half,
    # so callers pick rsi to hit any 128-bit raw value they want.  ModRM
    # reg field selects the bounds register.
    return bytes([0xF3, 0x0F, 0x1B, 0x04 | (slot << 3), 0x37, 0xC3])


def _code_bndmov_store(slot: int) -> bytes:
    # bndmov [rdi], bndN; ret  -- spills the raw 128-bit register image,
    # lower half at bytes 0..7, upper half at bytes 8..15.
    return bytes([0x66, 0x0F, 0x1B, 0x07 | (slot << 3), 0xC3])


# xor(out: rdi, a: rsi, b: rdx, n: rcx): out[i] = a[i] ^ b[i] for n bytes,
# eight bytes per step, then the 0-7 tail bytes one at a time.
_CODE_XOR = bytes.fromhex(
    "4989c8"      # mov   r8, rcx            (keep n for the tail)
    "48c1e903"    # shr   rcx, 3             (whole words)
    "741a"        # je    tail
    "488b06"      # words: mov rax, [rsi]
    "483302"      # xor   rax, [rdx]
    "488907"      # mov   [rdi], rax
    "4883c608"    # add   rsi, 8
    "4883c208"    # add   rdx, 8
    "4883c708"    # add   rdi, 8
    "48ffc9"      # dec   rcx
    "75e6"        # jne   words
    "4983e007"    # tail: and r8, 7
    "7414"        # je    done
    "8a06"        # bytes: mov al, [rsi]
    "3202"        # xor   al, [rdx]
    "8807"        # mov   [rdi], al
    "48ffc6"      # inc   rsi
    "48ffc2"      # inc   rdx
    "48ffc7"      # inc   rdi
    "49ffc8"      # dec   r8
    "75ec"        # jne   bytes
    "c3"          # done: ret
)

_STUB_ALIGN = 16

_PROTO_CPUID = ctypes.CFUNCTYPE(None, ctypes.c_uint32, ctypes.c_uint32, ctypes.c_void_p)
_PROTO_XGETBV = ctypes.CFUNCTYPE(ctypes.c_uint64, ctypes.c_uint32)
_PROTO_XSTATE = ctypes.CFUNCTYPE(None, ctypes.c_void_p, ctypes.c_uint64)
_PROTO_BNDMK = ctypes.CFUNCTYPE(None, ctypes.c_uint64, ctypes.c_uint64)
_PROTO_BNDSPILL = ctypes.CFUNCTYPE(None, ctypes.c_void_p)
_PROTO_XOR = ctypes.CFUNCTYPE(None, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
                              ctypes.c_size_t)


def _make_executable(addr: int, size: int) -> None:
    """mprotect the page at addr to read-execute; OSError when refused."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.mprotect.argtypes = (ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int)
    if libc.mprotect(addr, size, mmap.PROT_READ | mmap.PROT_EXEC) != 0:
        errno = ctypes.get_errno()
        raise OSError(errno, f"mprotect to read-execute: {os.strerror(errno)}")


class MachineStubs:
    """Callable wrappers around the assembled helpers, in one read-execute mapping.

    ``xor(out_addr, a_addr, b_addr, n)`` sets out[i] = a[i] ^ b[i] for n
    bytes of raw memory.  The call drops the GIL, so the caller keeps every
    operand alive and unresizable (holds a buffer export on it) until it
    returns.
    """

    def __init__(self) -> None:
        pieces = [
            ("cpuid", _CODE_CPUID, _PROTO_CPUID),
            ("xgetbv", _CODE_XGETBV, _PROTO_XGETBV),
            ("xsave", _CODE_XSAVE, _PROTO_XSTATE),
            ("xrstor", _CODE_XRSTOR, _PROTO_XSTATE),
            ("xor", _CODE_XOR, _PROTO_XOR),
        ]
        for slot in range(4):
            pieces.append((f"bndmk{slot}", _code_bndmk(slot), _PROTO_BNDMK))
        for slot in range(4):
            pieces.append((f"bndspill{slot}", _code_bndmov_store(slot), _PROTO_BNDSPILL))

        offsets = {}
        cursor = 0
        for name, code, _ in pieces:
            offsets[name] = cursor
            cursor += len(code)
            cursor = (cursor + _STUB_ALIGN - 1) & ~(_STUB_ALIGN - 1)

        size = max(cursor, mmap.PAGESIZE)
        buf = mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE,
                        prot=mmap.PROT_READ | mmap.PROT_WRITE)
        for name, code, _ in pieces:
            buf.seek(offsets[name])
            buf.write(code)
        base = ctypes.addressof(ctypes.c_char.from_buffer(buf))
        _make_executable(base, size)

        self._map = buf  # keep the mapping alive for the process lifetime
        self._base = base
        self._offsets = offsets
        fns = {name: proto(base + offsets[name]) for name, _, proto in pieces}
        self._cpuid = fns["cpuid"]
        self._xgetbv = fns["xgetbv"]
        self._xsave = fns["xsave"]
        self._xrstor = fns["xrstor"]
        self._bndmk = [fns[f"bndmk{slot}"] for slot in range(4)]
        self._bndspill = [fns[f"bndspill{slot}"] for slot in range(4)]
        # Bound straight to the foreign function: per-pass unhiding calls
        # it once per unhide, where a wrapper frame would be a measurable
        # share of a 32-byte unhide.
        self.xor = fns["xor"]

    # -- probing ------------------------------------------------------------

    def cpuid(self, leaf: int, subleaf: int = 0) -> tuple[int, int, int, int]:
        """Run CPUID and return (eax, ebx, ecx, edx)."""
        out = (ctypes.c_uint32 * 4)()
        self._cpuid(leaf, subleaf, ctypes.addressof(out))
        return out[0], out[1], out[2], out[3]

    def xgetbv(self, index: int = 0) -> int:
        """Read an extended control register; caller must verify OSXSAVE first."""
        return self._xgetbv(index)

    # -- xstate -------------------------------------------------------------

    def xsave(self, area_addr: int, mask: int) -> None:
        self._xsave(area_addr, mask)

    def xrstor(self, area_addr: int, mask: int) -> None:
        self._xrstor(area_addr, mask)

    # -- bounds registers ---------------------------------------------------

    def bndmk(self, slot: int, base: int, index: int) -> None:
        """BNDMK bndN, [base + index]: raw low = base, raw high = ~(base+index)."""
        self._bndmk[slot](base, index)

    def bndmov_spill(self, slot: int, dest_addr: int) -> None:
        """BNDMOV [dest], bndN: write the raw 16-byte register image."""
        self._bndspill[slot](dest_addr)


@functools.cache
def stubs() -> MachineStubs | None:
    """Return the process-wide stub table, assembled on first use.

    None when this host cannot run the helpers: not x86-64, a 32-bit
    interpreter, or no anonymous mapping that can be made executable.
    """
    if platform.machine().lower() not in ("x86_64", "amd64") or sys.maxsize <= 2**32:
        return None
    try:
        return MachineStubs()
    except (OSError, ValueError):
        return None


def mpx_facts() -> tuple[bool, bool, bool]:
    """Decode (cpu_has_mpx, xcr0_bndregs, xcr0_bndcsr); all False off-x86.

    XGETBV is gated on CPUID.01H:ECX.OSXSAVE so the sequence never faults,
    even on CPUs without XSAVE support.
    """
    s = stubs()
    if s is None:
        return False, False, False
    _, ebx7, _, _ = s.cpuid(7, 0)
    cpu_has_mpx = bool((ebx7 >> 14) & 1)
    _, _, ecx1, _ = s.cpuid(1, 0)
    osxsave = bool((ecx1 >> 27) & 1)
    xcr0 = s.xgetbv(0) if osxsave else 0
    return cpu_has_mpx, bool((xcr0 >> 3) & 1), bool((xcr0 >> 4) & 1)
