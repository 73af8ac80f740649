"""JIT-assembled x86-64 helpers for feature probing and bounds-register access.

CPython cannot emit CPUID, XGETBV, XSAVE/XRSTOR, or the MPX bounds
instructions on its own, so this module writes fixed byte sequences into an
anonymous executable mapping and calls them through ctypes.  Comments give
each encoding's disassembly.  The ``xor`` and ``split`` kernels are
assembled at import from small templates (one AES round sequence, one
key-schedule step, one step of each kernel, one choice of route), and
``tests/test_machine.py`` decodes the mapped page with objdump against a
listing written independently of those templates.

The CPU facts cannot change while the process runs, so the page reads
them once, right after it is sealed, into ``MachineStubs.mpx`` and
``MachineStubs.aes``.  Safety rules:

* CPUID is baseline x86-64 and always safe to execute.
* XGETBV faults (#UD) unless CPUID.01H:ECX.OSXSAVE is set, so the page
  runs it only after checking that bit.
* XSAVE/XRSTOR can raise #GP unless XCR0 advertises the requested state
  components; regfile.py issues them only where probe() found MPX usable.
* BNDMK / BNDMOV execute as NOPs on CPUs without MPX (or with MPX
  disabled), so probing with them never traps.

Beside those instructions the page carries four plain kernels, which touch
only the memory their caller names:

* ``xor``: the two-share XOR that unhiding (and hiding without AES-NI)
  runs over whole buffers (see simplex.hide).  SSE2, 64 bytes per step,
  then 8-byte words, then bytes; it zeroes xmm0-xmm7 and rax on return.
* ``mismatch``: the index of the first differing byte of two buffers and
  which of the two bytes is lower, from which memcmp in simplex.strops
  takes its sign and byte count.  It uses only SSE2, which every x86-64
  CPU has.
* ``split``: hiding in one pass.  Share A is an AES-128-CTR keystream,
  share B is that keystream XOR the secret, and the secret is zeroed as
  it is read.  It expands the key with AES-NI into xmm5-xmm15, so no round
  key reaches memory, and zeroes xmm0-xmm15 before it returns.  It needs
  AES-NI and SSE4.1, which ``MachineStubs.aes`` records.
* ``traverse``: the per-byte unhide, an XOR that re-loads both share
  addresses from the cells (below) for every byte.  Its hardware twin
  ``traverse_bnd``, built from the same loop, spills BND2 and BND3 into
  the red zone with bndmov for every byte instead, and zeroes it on return.

Five cells kernels each run one call from a context's 32 bytes of cells:
``memmove_cells`` (memcpy too), ``memset_cells``, ``memcmp_cells`` and
``memchr_cells`` for simplex.strops.slot_op, ``xor_cells`` for unhiding.
They and ``traverse`` read one cells layout, (slot address, plain operand,
slot address, n): slot_op's (dst, aux, src, length), an unhide's (A, out,
B, n).  Each zeroes the cells, refuses before it touches a byte unless every
address it uses lies in 1.._END - n, and calls the C library's function or
jumps to ``mismatch`` or ``xor`` through a pointer slot after its ret, which
the page fills in when it is built.  ``traverse`` refuses the same way.

The table binds only the kernels its CPU can run, so no caller tests a CPU
fact.  Where ``aes`` is false, ``split`` is ``_split_shake`` over the
page's ``xor``: share A is SHAKE-128 of key and counter block.
``traverse_bnd`` is bound only where every ``mpx`` fact is true.

``xor`` and ``split`` take one of two routes for their 64-byte steps.  From
``_STREAM_MIN`` (1 MiB) bytes on, when every destination is 16-byte aligned
(out; shares A and B), the streaming route stores with movntdq, which
writes whole lines past the cache without reading them in first, and ends
with sfence.  Below that, or with a destination unaligned, the plain route
stores with movdqu.  The bytes stored, and where, are the same on both;
split zeroes the secret with plain stores on both, since its loads just
brought those lines into the cache.

The page is mapped read-write, filled, then switched to read-execute with
mprotect before any stub runs, so it is never writable and executable at
once.  Where no page can run (not x86-64, a 32-bit interpreter, or a
refused mapping or switch), ``stubs()`` returns the portable table instead:
no MPX, no AES-NI, and ``xor``, ``mismatch``, ``traverse`` and the cells
kernels as the Python cores at the end of this module: the first two work
one 64 KiB stride at a time, and the others keep the native kernels'
contract.  Its ``split`` is the same SHAKE-128 core, over that Python ``xor``.
"""

from __future__ import annotations

import ctypes
import functools
import mmap
import platform
import struct
import sys
from types import SimpleNamespace

__all__ = ["MachineStubs", "stubs", "mpx_facts"]

# The C library, each function typed here once: mprotect and memchr here,
# memset and getrandom in simplex.hide.  Plain, not use_errno: that would add
# 70-300 ns to the memset of every release.
libc = ctypes.CDLL(None)
libc.mprotect.argtypes = (ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int)
libc.memset.restype = None
libc.memchr.restype = ctypes.c_void_p
libc.memchr.argtypes = (ctypes.c_void_p, ctypes.c_int, ctypes.c_size_t)
if hasattr(libc, "getrandom"):  # not in every C library
    libc.getrandom.restype = ctypes.c_ssize_t

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


# mismatch(a: rdi, b: rsi, n: rdx) -> rax: i << 1 | (a[i] < b[i]) for the
# first i < n with a[i] != b[i], or n << 1 (n < 2**63).  Sixteen bytes per
# step while a whole block is left, then one byte at a time, so it never
# reads at or past n.  Both exits share the sign step: a differing pair is
# compared as unsigned bytes, and the equal exit arrives with the carry clear.
_CODE_MISMATCH = bytes.fromhex(
    "31c0"          # xor   eax, eax           (i = 0)
    "4989d0"        # mov   r8, rdx
    "4983e0f0"      # and   r8, -16            (end of the whole blocks)
    "7423"          # je    tail
    "f30f6f0407"    # block: movdqu xmm0, [rdi+rax]
    "f30f6f0c06"    # movdqu xmm1, [rsi+rax]
    "660f74c1"      # pcmpeqb xmm0, xmm1
    "660fd7c8"      # pmovmskb ecx, xmm0       (bit k set: byte k equal)
    "81f1ffff0000"  # xor   ecx, 0xffff        (bit k set: byte k differs)
    "751b"          # jne   found
    "4883c010"      # add   rax, 16
    "4c39c0"        # cmp   rax, r8
    "72dd"          # jb    block
    "4839d0"        # tail: cmp rax, rdx
    "7319"          # jae   sign               (i = n, carry clear)
    "8a0c07"        # mov   cl, [rdi+rax]
    "3a0c06"        # cmp   cl, [rsi+rax]
    "7511"          # jne   sign
    "48ffc0"        # inc   rax
    "ebee"          # jmp   tail
    "0fbcc9"        # found: bsf ecx, ecx
    "4801c8"        # add   rax, rcx
    "8a0c07"        # mov   cl, [rdi+rax]      (the deciding pair, again)
    "3a0c06"        # cmp   cl, [rsi+rax]
    "0f92c1"        # sign: setb cl             (a[i] < b[i], unsigned)
    "0fb6c9"        # movzx ecx, cl
    "488d0441"      # lea   rax, [rcx+rax*2]
    "c3"            # ret
)


# The xor and split kernels are assembled at import from the templates below,
# so each step, and the choice between its plain and streaming routes, is
# written once.  Opcodes of the SSE register-to-register form (reg is
# ModRM.reg, rm is ModRM.rm):
_PXOR, _MOVDQA, _PSHUFD, _PSLLDQ = b"\x0f\xef", b"\x0f\x6f", b"\x0f\x70", b"\x0f\x73"
_AESKEYGENASSIST, _AESENC, _AESENCLAST = b"\x0f\x3a\xdf", b"\x0f\x38\xdc", b"\x0f\x38\xdd"
_MOVQ, _PINSRQ = b"\x0f\x6e", b"\x0f\x3a\x22"  # reg an xmm, rm a 64-bit GPR (REX.W)
_RDX, _RSI, _RDI, _R10, _R11 = 2, 6, 7, 10, 11


def _sse(op: bytes, reg: int, rm: int, imm: int | None = None, w: int = 0) -> bytes:
    """66 [REX] op ModRM [imm8] with both operands registers (0-15)."""
    rex = 0x40 | w << 3 | (reg >> 3) << 2 | rm >> 3
    return bytes([0x66, *([rex] if rex != 0x40 else []), *op, 0xC0 | (reg & 7) << 3 | rm & 7,
                  *([] if imm is None else [imm])])


# The 16-byte moves between an xmm register and memory; the stores take the
# register as ModRM.reg too.  movntdq streams past the cache: its line is not
# read first (no read-for-ownership), and its address must be 16-byte aligned.
_LOAD, _STORE, _STREAM = b"\xf3\x0f\x6f", b"\xf3\x0f\x7f", b"\x66\x0f\xe7"


def _mem(op: bytes, xmm: int, base: int, disp: int) -> bytes:
    """op with xmm (0-7) and [base+disp]; base is rdx, rsi or rdi, disp 0-127."""
    return op + bytes([(0x40 if disp else 0) | xmm << 3 | base, *([disp] if disp else [])])


def _advance(step: int) -> bytes:
    """add rdi, step; add rsi, step; add rdx, step (step 1-127)."""
    return b"".join(bytes([0x48, 0x83, 0xC0 | reg, step]) for reg in (_RDI, _RSI, _RDX))


def _jump(op: str, disp: int) -> bytes:
    """Branch op (hex) to disp bytes past its own end: rel32 after 0f xx or e9, else rel8."""
    wide = len(op) == 4 or op == "e9"
    return bytes.fromhex(op) + disp.to_bytes(4 if wide else 1, "little", signed=True)


# split and xor stream their 64-byte steps from this many bytes on, when
# every destination is 16-byte aligned: the smallest power of two at which
# streaming was no slower for either kernel in a hot-loop sweep on a Xeon
# with 2 MiB of L2 per core.  Below it a call's streams fit in L2, where
# plain stores hit lines already held and streaming only evicts the output.
_STREAM_MIN = 1 << 20


def _routes(step, dests) -> bytes:
    """step(stream) once per count of rax (nonzero), by one of two routes.

    The streaming route (step(True), then sfence) runs when n, in rcx, is at
    least _STREAM_MIN and every register in dests is 16-byte aligned, and
    the plain route (step(False)) otherwise.  Both end at the code after
    this; r8 is clobbered.
    """
    def loop(stream):
        body = step(stream) + bytes.fromhex("48ffc8")  # dec rax
        return body + _jump("0f85", -len(body) - 6)  # jne loop

    plain = loop(False)
    stream = loop(True) + bytes.fromhex("0faef8")  # sfence
    stream += _jump("e9", len(plain))  # jmp past the plain route
    # mov r8d, <first destination>; or r8d, <each other one>; test r8b, 0xf
    aligned = b"".join(bytes([0x41, 0x09 if i else 0x89, 0xC0 | reg << 3])
                       for i, reg in enumerate(dests)) + bytes.fromhex("41f6c00f")
    aligned += _jump("0f85", len(stream))  # jne plain
    return (bytes.fromhex("4881f9") + _STREAM_MIN.to_bytes(4, "little")  # cmp rcx, _STREAM_MIN
            + _jump("0f82", len(aligned) + len(stream))  # jb plain
            + aligned + stream + plain)


# xor(out: rdi, a: rsi, b: rdx, n: rcx): out[i] = a[i] ^ b[i] for n bytes,
# 64 bytes per step (SSE2, a's blocks in xmm0-3 and b's in xmm4-7), then
# 8-byte words, then the 0-7 tail bytes one at a time.  It zeroes rax and
# xmm0-7 before ret, so no output byte stays in a register.
def _xor_step(stream: bool) -> bytes:
    return b"".join(_mem(_LOAD, x, _RSI, 16 * x) + _mem(_LOAD, x + 4, _RDX, 16 * x)
                    + _sse(_PXOR, x, x + 4) + _mem(_STREAM if stream else _STORE, x, _RDI, 16 * x)
                    for x in range(4)) + _advance(64)


def _xor() -> bytes:
    words = bytes.fromhex("488b06"      # words: mov rax, [rsi]
                          "483302"      # xor   rax, [rdx]
                          "488907"      # mov   [rdi], rax
                          ) + _advance(8) + bytes.fromhex("49ffc8")  # dec r8
    words += _jump("75", -len(words) - 2)  # jne words
    tail = bytes.fromhex("8a06"         # bytes: mov al, [rsi]
                         "3202"         # xor   al, [rdx]
                         "8807"         # mov   [rdi], al
                         ) + _advance(1) + bytes.fromhex("48ffc9")  # dec rcx
    tail += _jump("75", -len(tail) - 2)  # jne bytes
    routes = _routes(_xor_step, (_RDI,))
    return (bytes.fromhex("4889c8" "48c1e806")  # mov rax, rcx; shr rax, 0x6
            + _jump("0f84", len(routes)) + routes  # je words
            # words: r8 = (n mod 64) / 8 = (n >> 3) & 7
            + bytes.fromhex("4989c8" "49c1e803" "4183e007")  # mov r8, rcx; shr r8, 3; and r8d, 7
            + _jump("74", len(words)) + words  # je tail
            + bytes.fromhex("83e107") + _jump("74", len(tail)) + tail  # tail: and ecx, 7; je done
            # done: zero rax and every xmm register the steps used.
            + bytes.fromhex("31c0") + b"".join(_sse(_PXOR, x, x) for x in range(8)) + b"\xc3")


_CODE_XOR = _xor()


# split(a: rdi, b: rsi, secret: rdx, n: rcx, key: r8, ctr: r9): one pass over
# n bytes that writes AES-128-CTR keystream to share A, keystream XOR secret
# to share B, and zeros over the secret.  The 16-byte key at r8 is expanded
# with aeskeygenassist into xmm5-xmm15, so no round key is ever stored.  The
# 16-byte counter block at r9 is bytes 0-7 nonce and bytes 8-15 a
# little-endian u64 block counter (mod 2**64, no carry into the nonce); the
# count after the last block used is written back.  Each secret byte is read
# once, before its zero is stored.  Needs AES-NI and SSE4.1 (pinsrq, pextrq).
def _key_schedule() -> bytes:
    """Round key 0 (the key at r8) into xmm5; round key r (1-10) into xmm(5+r).

    Each is built from the one before with aeskeygenassist and rcon(r).
    """
    code = bytes.fromhex("f3410f6f28")  # movdqu xmm5, [r8]
    for key, rcon in enumerate([0x1, 0x2, 0x4, 0x8, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36], 6):
        code += (_sse(_AESKEYGENASSIST, 0, key - 1, rcon) + _sse(_PSHUFD, 0, 0, 0xFF)
                 + _sse(_MOVDQA, key, key - 1) + _sse(_MOVDQA, 1, key - 1)
                 + (_sse(_PSLLDQ, 7, 1, 4) + _sse(_PXOR, key, 1)) * 3 + _sse(_PXOR, key, 0))
    return code


def _keystream(blocks) -> bytes:
    """Counter blocks (nonce r10, counter r11, counted up) into xmm{x}, then AES-128 on them."""
    code = b"".join(_sse(_MOVQ, x, _R10, w=1) + _sse(_PINSRQ, x, _R11, 1, w=1)
                    + bytes.fromhex("49ffc3")  # inc r11
                    for x in blocks)
    rounds = [_PXOR] + [_AESENC] * 9 + [_AESENCLAST]
    return code + b"".join(_sse(op, x, key)
                           for key, op in zip(range(5, 16), rounds) for x in blocks)


def _store(blocks, stream: bool) -> bytes:
    """Keystream xmm{x} to share A, it XOR the secret to share B, then zeros over the secret.

    xmm4 carries each secret block, then the zeros.  The share stores are
    movntdq when stream is true; the zeros are always plain stores, over
    lines the secret's loads just brought in.  rdi, rsi and rdx then step
    past the blocks.
    """
    put = _STREAM if stream else _STORE
    code = b"".join(_mem(put, x, _RDI, 16 * x) for x in blocks)
    code += b"".join(_mem(_LOAD, 4, _RDX, 16 * x) + _sse(_PXOR, x, 4)
                     + _mem(put, x, _RSI, 16 * x) for x in blocks)
    code += _sse(_PXOR, 4, 4) + b"".join(_mem(_STORE, 4, _RDX, 16 * x) for x in blocks)
    return code + _advance(16 * len(blocks))


def _split() -> bytes:
    # Four blocks per step while 64 bytes are left (rax counts the steps),
    # streamed to shares A and B when both are aligned and n is large.
    keystream = _keystream(range(4))  # built once, the same on both routes
    routes = _routes(lambda stream: keystream + _store(range(4), stream), (_RDI, _RSI))
    # The last block's 1-15 bytes go out 8 and then 1 at a time, and its
    # surplus is never stored.
    partial = bytes.fromhex(
        "66480f7ec0"                    # partial: movq rax, xmm0
        "4883f908" "7229"               # cmp rcx, 0x8; jb bytes
        "488907" "483302" "488906"      # mov [rdi], rax; xor rax, [rdx]; mov [rsi], rax
        "48c70200000000"                # mov qword ptr [rdx], 0x0
        "4883c708" "4883c608" "4883c208"  # add rdi, 0x8; add rsi, 0x8; add rdx, 0x8
        "4883e908" "7422"               # sub rcx, 0x8; je done
        "66480f3a16c001"                # pextrq rax, xmm0, 0x1
        "8807" "3202" "8806"            # bytes: mov [rdi], al; xor al, [rdx]; mov [rsi], al
        "c60200" "48c1e808"             # mov byte ptr [rdx], 0x0; shr rax, 0x8
        "48ffc7" "48ffc6" "48ffc2"      # inc rdi; inc rsi; inc rdx
        "48ffc9" "75e5"                 # dec rcx; jne bytes
    )
    # The 0-63 bytes left, one block at a time.
    whole = _store([0], False) + bytes.fromhex("4883e910")  # sub rcx, 0x10
    one = (_keystream([0]) + bytes.fromhex("4883f910")  # cmp rcx, 0x10
           + _jump("72", len(whole) + 4) + whole)  # jb partial (past the two jumps too)
    one += _jump("75", -len(one) - 2) + _jump("eb", len(partial))  # jne one; jmp done
    return (_key_schedule()
            + bytes.fromhex("4d8b11"      # mov r10, [r9]      (nonce)
                            "4d8b5908"    # mov r11, [r9+0x8]  (block counter)
                            "4889c8"      # mov rax, rcx
                            "48c1e806")   # shr rax, 0x6
            + _jump("0f84", len(routes)) + routes  # je rest
            + bytes.fromhex("4883e13f")  # rest: and rcx, 0x3f
            + _jump("0f84", len(one) + len(partial)) + one + partial  # je done
            # done: write the counter back, then zero rax and every xmm register.
            + bytes.fromhex("4d895908" "31c0")  # mov [r9+0x8], r11; xor eax, eax
            + b"".join(_sse(_PXOR, x, x) for x in range(16)) + b"\xc3")  # ret


_CODE_SPLIT = _split()


# traverse(cells: rdi) -> rax: out[i] = A[i] ^ B[i] for i < n from the cells
# (A, out, B, n), re-loading A's base from [cells] and B's from [cells+16] for
# every byte; it refuses as xor_cells does, and returns 0 otherwise.
# traverse_bnd(out: rdi, n: rsi) is the same loop on the bounds registers: its
# cells are the 32 bytes of the red zone below rsp, its load step first spills
# BND2 and BND3 there with bndmov.  Both zero their cells before ret, never
# read at or past n, and leave no share address in r8 or r9.
def _traverse(spill: bool) -> bytes:
    load = bytes.fromhex("4c8b06"        # mov   r8, [rsi]        (share A's base)
                         "4c8b4e10")     # mov   r9, [rsi+0x10]   (share B's base)
    if spill:
        load = bytes.fromhex("660f1b16"      # bndmov [rsi], bnd2
                             "660f1b5e10") + load  # bndmov [rsi+0x10], bnd3
    step = load + bytes.fromhex("418a0408"   # mov   al, [r8+rcx]
                                "41320409"   # xor   al, [r9+rcx]
                                "88040f"     # mov   [rdi+rcx], al
                                "48ffc1"     # inc   rcx
                                "4839d1")    # cmp   rcx, rdx
    step += _jump("72", -len(step) - 2)  # jb step
    # xor ecx, ecx (i = 0); test rdx, rdx; je done; step
    body = bytes.fromhex("31c9" "4885d2") + _jump("74", len(step)) + step
    # zero: xor r8d, r8d; xor r9d, r9d; zero the cells from r8; ret
    zero = bytes.fromhex("4531c0" "4531c9" "4c8906" "4c894608" "4c894610" "4c894618" "c3")
    if spill:  # mov rdx, rsi; lea rsi, [rsp-0x20]
        return bytes.fromhex("4889f2" "488d7424e0") + body + zero
    body += bytes.fromhex("31c0")  # done: xor eax, eax
    checks = b""
    # r8 = A - 1 (mov r8, [rsi]; dec r8), B - 1, out - 1 (lea r8, [rdi-1]); cmp r8, r9; jae zero
    for check in reversed(("4c8b06" "49ffc8", "4c8b4610" "49ffc8", "4c8d47ff")):
        checks = bytes.fromhex(check + "4d39c8") + _jump("73", len(checks + body)) + checks
    return (bytes.fromhex("4883c8ff"     # or    rax, -1  (refused until the checks pass)
                          "4889fe"       # mov   rsi, rdi
                          "488b7e08"     # mov   rdi, [rsi+0x8]   (out)
                          "488b5618"     # mov   rdx, [rsi+0x18]  (n)
                          "49b9ffffffffffffff7f" "4929d1")  # movabs r9, _END; sub r9, rdx
            + _jump("72", len(checks + body)) + checks + body + zero)  # jb zero


_CODE_TRAVERSE, _CODE_TRAVERSE_BND = _traverse(False), _traverse(True)

# The cells: the 32 bytes every kernel reads its operands from, in one layout,
# (slot address, plain operand, slot address, n): slot_op's (dst, aux, src,
# length), an unhide's (A, out, B, n).  The slot addresses sit at +0 and +16,
# where a bndmov spill of two bounds registers puts their lower bounds, as
# traverse_bnd's spills of BND2 and BND3 do.  _CELL_ARGS packs them, n signed
# so that a negative length reaches the kernel, which refuses it.
_Cells = ctypes.c_uint64 * 4
_CELL_ARGS = struct.Struct("<QQQq")

# The last byte a slot_op range may cover: 2**63 - 1 on a 64-bit interpreter
# (the top half of the address space is the kernel's on x86-64), 2**32 - 1 on
# a 32-bit one.
_END = (1 << min(8 * ctypes.sizeof(ctypes.c_void_p), 63)) - 1

# What a cells kernel returns when it refuses: no result takes this value.
_REFUSED = (1 << 64) - 1


# The cells kernels, one per op shape of simplex.strops.slot_op and xor_cells
# for the per-pass unhide: k(cells: rdi) -> rax.  Each loads the cells, zeroes
# them, and refuses with _REFUSED before it touches a byte unless every
# address it uses lies in 1.._END - n: so no zero or LOW_RESET address, and no
# range past _END (a negative n, read as a u64 above _END, borrows and refuses
# too).  It then runs its target, whose address is the 8-byte pointer slot at
# the kernel's end, filled in when the page is built: memmove and memset
# return 0, memchr returns the index of aux or n when it is absent, and
# memcmp and xor_cells tail-jump to the page's mismatch and xor.  Only the
# target touches operand bytes.
def _cells_kernel(checked, setup: str, after: str | None) -> bytes:
    """Load and zero the cells, check each cell (0-2) in checked, run the target.

    Cells 0-3 load into rax, rsi, rdx and rcx (n).  setup (hex) runs before
    the target.  Where after is None the kernel tail-jumps to it; otherwise
    it calls it, with rsp 16-byte aligned by setup and after, then runs
    after and jumps to ret.
    """
    target = setup + ("ff25" if after is None else "ff15") + "00000000"
    run = target + ("" if after is None else after + "eb04")  # ...; jmp done
    checks = ""
    for cell in reversed(checked):  # lea r8, [reg-1]; cmp r8, r9; jae refuse
        checks = f"4c8d{('40', '46', '42')[cell]}ff4d39c873{len(checks + run) // 2:02x}" + checks
    code = bytearray.fromhex(
        "488b07488b7708488b5710488b4f18"  # mov rax, [rdi]; rsi [rdi+8]; rdx [rdi+16]; rcx [rdi+24]
        "4531c04c89074c8947084c8947104c894718"  # xor r8d, r8d; zero the four cells
        "49b9ffffffffffffff7f4929c9"  # movabs r9, _END; sub r9, rcx  (the page is 64-bit)
        f"72{len(checks + run) // 2:02x}{checks}{run}"  # jb refuse
        "4883c8ffc3")  # refuse: or rax, -1; done: ret
    end = len(code) - 5 - len(run) // 2 + len(target) // 2  # just past the call or jump
    code += bytes(-len(code) % 8)
    code[end - 4:end] = (len(code) - end).to_bytes(4, "little")
    return bytes(code + bytes(8))  # the pointer slot


# name: (the cells it checks, what its pointer slot holds (a libc function or
# a stub of the page), kernel), from (name, checked, target, setup, after).
_CELLS_KERNELS = {name: (checked, target, _cells_kernel(checked, setup, after))
                  for name, checked, target, setup, after in (
    # (dst, aux, src, n): mov rdi, rax; mov rsi, rdx; mov rdx, rcx; sub rsp, 8 ...
    # add rsp, 8; xor eax, eax
    ("memmove_cells", (0, 2), "memmove", "4889c74889d64889ca4883ec08", "4883c40831c0"),
    # mov rdi, rax; mov rdx, rcx (aux is in rsi); sub rsp, 8 ... add rsp, 8; xor eax, eax
    ("memset_cells", (0,), "memset", "4889c74889ca4883ec08", "4883c40831c0"),
    # mov rdi, rax; mov rsi, rdx; mov rdx, rcx, then on to mismatch
    ("memcmp_cells", (0, 2), "mismatch", "4889c74889d64889ca", None),
    # push rdx; push rcx; sub rsp, 8; mov rdi, rdx; mov rdx, rcx (aux is in rsi) ...
    # add rsp, 8; pop rdx; pop rsi; mov rcx, rax; sub rax, rsi; test rcx, rcx; cmove rax, rdx
    ("memchr_cells", (2,), "memchr", "52514883ec084889d74889ca",
     "4883c4085a5e4889c14829f04885c9480f44c2"),
    # The per-pass unhide, from (A, out, B, n): mov rdi, rsi; mov rsi, rax, then on to xor
    ("xor_cells", (0, 1, 2), "xor", "4889f74889c6", None),
)}

_STUB_ALIGN = 16

_PROTO_CPUID = ctypes.CFUNCTYPE(None, ctypes.c_uint32, ctypes.c_uint32, ctypes.c_void_p)
_PROTO_XGETBV = ctypes.CFUNCTYPE(ctypes.c_uint64, ctypes.c_uint32)
_PROTO_XSTATE = ctypes.CFUNCTYPE(None, ctypes.c_void_p, ctypes.c_uint64)
_PROTO_BNDMK = ctypes.CFUNCTYPE(None, ctypes.c_uint64, ctypes.c_uint64)
_PROTO_BNDSPILL = ctypes.CFUNCTYPE(None, ctypes.c_void_p)
_PROTO_XOR = ctypes.CFUNCTYPE(None, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
                              ctypes.c_size_t)
_PROTO_MISMATCH = ctypes.CFUNCTYPE(ctypes.c_size_t, ctypes.c_void_p, ctypes.c_void_p,
                                   ctypes.c_size_t)
_PROTO_TRAVERSE_BND = ctypes.CFUNCTYPE(None, ctypes.c_void_p, ctypes.c_size_t)
_PROTO_SPLIT = ctypes.CFUNCTYPE(None, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
                                ctypes.c_size_t, ctypes.c_void_p, ctypes.c_void_p)
_PROTO_CELLS = ctypes.CFUNCTYPE(ctypes.c_uint64, ctypes.c_void_p)


def _make_executable(addr: int, size: int) -> None:
    """mprotect the page at addr to read-execute; OSError when refused."""
    if libc.mprotect(addr, size, mmap.PROT_READ | mmap.PROT_EXEC) != 0:
        raise OSError("mprotect to read-execute was refused")


class MachineStubs:
    """Callable wrappers around the assembled helpers, in one read-execute mapping.

    ``xor(out_addr, a_addr, b_addr, n)`` sets out[i] = a[i] ^ b[i] for n
    bytes of raw memory.  ``mismatch(a_addr, b_addr, n)`` returns
    i << 1 | (a[i] < b[i]) for the first index i below n at which the two
    buffers differ, or n << 1 when they are equal.  ``split(a_addr,
    b_addr, secret_addr, n, key_addr, ctr_addr)`` writes n bytes of
    AES-128-CTR keystream, under the 16-byte key at key_addr from the
    16-byte counter block at ctr_addr, to a; sets b[i] = a[i] ^ secret[i];
    zeroes the n secret bytes; and advances the block's counter (see
    _CODE_SPLIT).  Where ``aes`` is false, split is _split_shake over
    ``xor`` instead: the same shares, with SHAKE-128 of key and counter
    block as share A, and the counter block left as it was.
    ``traverse(cells_addr)`` and ``xor_cells(cells_addr)`` set out[i] =
    A[i] ^ B[i] from the _Cells (A, out, B, n) at cells_addr (see
    _traverse), and ``traverse_bnd(out_addr, n)`` loads A and B from BND2
    and BND3; it is bound only where all of ``mpx`` is true.
    ``memmove_cells(cells_addr)`` and the other slot_op kernels run one
    slot_op from the _Cells at cells_addr (see _cells_kernel).  All these
    calls drop the GIL, so the caller keeps every operand alive and
    unresizable (holds a buffer export on it) until they return.
    """

    def __init__(self) -> None:
        pieces = [
            ("cpuid", _CODE_CPUID, _PROTO_CPUID),
            ("xgetbv", _CODE_XGETBV, _PROTO_XGETBV),
            ("xsave", _CODE_XSAVE, _PROTO_XSTATE),
            ("xrstor", _CODE_XRSTOR, _PROTO_XSTATE),
            ("xor", _CODE_XOR, _PROTO_XOR),
            ("mismatch", _CODE_MISMATCH, _PROTO_MISMATCH),
            ("split", _CODE_SPLIT, _PROTO_SPLIT),
            ("traverse", _CODE_TRAVERSE, _PROTO_CELLS),
            ("traverse_bnd", _CODE_TRAVERSE_BND, _PROTO_TRAVERSE_BND),
        ]
        for slot in range(4):
            pieces.append((f"bndmk{slot}", _code_bndmk(slot), _PROTO_BNDMK))
        for slot in range(4):
            pieces.append((f"bndspill{slot}", _code_bndmov_store(slot), _PROTO_BNDSPILL))
        pieces += [(name, code, _PROTO_CELLS) for name, (_, _, code) in _CELLS_KERNELS.items()]

        # Each stub starts _STUB_ALIGN-aligned; the gaps are zeros.
        offsets = {}
        image = bytearray()
        for name, code, _ in pieces:
            offsets[name] = len(image)
            image += code + bytes(-len(code) % _STUB_ALIGN)

        size = max(len(image), mmap.PAGESIZE)
        buf = mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE,
                        prot=mmap.PROT_READ | mmap.PROT_WRITE)
        buf.write(image)
        base = ctypes.addressof(ctypes.c_char.from_buffer(buf))
        # Each cells kernel's pointer slot, its last 8 bytes, gets its target's address.
        for name, (_, target, code) in _CELLS_KERNELS.items():
            address = (base + offsets[target] if target in offsets
                       else ctypes.cast(getattr(libc, target), ctypes.c_void_p).value)
            end = offsets[name] + len(code)
            buf[end - 8:end] = address.to_bytes(8, "little")
        _make_executable(base, size)

        self._map = buf  # keep the mapping alive for the process lifetime
        self._base = base
        self._offsets = offsets
        fns = {name: proto(base + offsets[name]) for name, _, proto in pieces}
        self._cpuid = fns["cpuid"]
        self._bndmk = [fns[f"bndmk{slot}"] for slot in range(4)]
        self._bndspill = [fns[f"bndspill{slot}"] for slot in range(4)]
        # The plain stubs are their foreign functions, with no wrapper frame
        # (for xor and split one would be a measurable share of a 32-byte hide).
        # xgetbv(index) faults unless CPUID.01H:ECX.OSXSAVE is set: check it
        # first.  xsave and xrstor take (area_addr, mask).
        for name in ("xgetbv", "xsave", "xrstor", "xor", "mismatch", "traverse", *_CELLS_KERNELS):
            setattr(self, name, fns[name])

        _, ebx7, _, _ = self.cpuid(7)
        _, _, ecx1, _ = self.cpuid(1)
        xcr0 = self.xgetbv(0) if ecx1 >> 27 & 1 else 0  # OSXSAVE
        # (cpu_has_mpx, xcr0_bndregs, xcr0_bndcsr): CPUID.07H:EBX bit 14, XCR0 bits 3 and 4.
        self.mpx = (bool(ebx7 >> 14 & 1), bool(xcr0 >> 3 & 1), bool(xcr0 >> 4 & 1))
        # AES-NI (CPUID.01H:ECX bit 25) and SSE4.1 (bit 19, pinsrq), which the kernel needs.
        self.aes = bool(ecx1 >> 25 & 1 and ecx1 >> 19 & 1)
        # Only kernels this CPU can run are bound: without AES-NI the split
        # kernel would raise SIGILL, and without MPX bndmov is a NOP, so
        # traverse_bnd would load stale red-zone bytes as share addresses.
        self.split = fns["split"] if self.aes else functools.partial(_split_shake, self.xor)
        if all(self.mpx):
            self.traverse_bnd = fns["traverse_bnd"]

    # -- probing ------------------------------------------------------------

    def cpuid(self, leaf: int, subleaf: int = 0) -> tuple[int, int, int, int]:
        """Run CPUID and return (eax, ebx, ecx, edx)."""
        out = (ctypes.c_uint32 * 4)()
        self._cpuid(leaf, subleaf, ctypes.addressof(out))
        return out[0], out[1], out[2], out[3]

    # -- bounds registers ---------------------------------------------------

    def bndmk(self, slot: int, base: int, index: int) -> None:
        """BNDMK bndN, [base + index]: raw low = base, raw high = ~(base+index)."""
        self._bndmk[slot](base, index)

    def bndmov_spill(self, slot: int, dest_addr: int) -> None:
        """BNDMOV [dest], bndN: write the raw 16-byte register image."""
        self._bndspill[slot](dest_addr)


_BLOCK = 1 << 16  # the stride of the portable table's cores


def _xor_strided(out_addr: int, a_addr: int, b_addr: int, n: int) -> None:
    """The portable xor: pure Python, one 64 KiB stride at a time.

    At most one stride of each operand, and of the result, exists as a
    Python int or bytes at once; those temporaries are freed without a wipe.
    """
    for off in range(0, n, _BLOCK):
        m = min(_BLOCK, n - off)
        x = (int.from_bytes(ctypes.string_at(a_addr + off, m), "little")
             ^ int.from_bytes(ctypes.string_at(b_addr + off, m), "little"))
        ctypes.memmove(out_addr + off, x.to_bytes(m, "little"), m)


def _traverse_cells(cells_addr: int) -> int:
    """The portable traverse, re-reading both share bases from the cells for every
    byte; it zeroes them on every exit, a raised error included."""
    cells = _Cells.from_address(cells_addr)
    try:
        a, out, b, n = cells
        last = _END - n
        if not (0 < a <= last and 0 < out <= last and 0 < b <= last):
            return _REFUSED
        byte = ctypes.c_ubyte.from_address
        for i in range(n):
            byte(out + i).value = byte(cells[0] + i).value ^ byte(cells[2] + i).value
        return 0
    finally:
        cells[:] = (0, 0, 0, 0)


def _mismatch_strided(a_addr: int, b_addr: int, n: int) -> int:
    """The portable mismatch: pure Python, one 64 KiB stride at a time.

    Returns what the kernel does, i << 1 | (a[i] < b[i]) or n << 1.  The
    first differing byte holds the lowest set bit of the little-endian XOR
    of the two strides.
    """
    for off in range(0, n, _BLOCK):
        m = min(_BLOCK, n - off)
        x, y = ctypes.string_at(a_addr + off, m), ctypes.string_at(b_addr + off, m)
        if x != y:
            d = int.from_bytes(x, "little") ^ int.from_bytes(y, "little")
            i = ((d & -d).bit_length() - 1) >> 3
            return (off + i) << 1 | (x[i] < y[i])
    return n << 1


# The C library's memmove (memcpy too), memset and memchr in cells order,
# each returning what its cells kernel does: simplex.strops.ref_op runs them
# as they are, and _cells_cores behind the kernels' checks.
def _memmove(dst: int, aux, src: int, n: int) -> int:
    ctypes.memmove(dst, src, n)
    return 0


def _memset(dst: int, aux: int, src, n: int) -> int:
    ctypes.memset(dst, aux & 0xFF, n)
    return 0


_libc_memchr = libc.memchr  # a global: CDLL's __getattr__ makes libc.memchr ~50 ns slower


def _memchr(dst, aux: int, src: int, n: int) -> int:
    found = _libc_memchr(src, aux & 0xFF, n)  # None when absent
    return n if found is None else found - src


def _cells_cores(xor, mismatch) -> dict:
    """A table's five Python cells kernels, over its own xor and mismatch.

    Each keeps its native kernel's contract: it reads and zeroes the cells,
    returns _REFUSED unless each cell its _CELLS_KERNELS row checks lies in
    1.._END - n, and otherwise runs its target.
    """
    targets = {"memmove": _memmove, "memset": _memset, "memchr": _memchr,
               "mismatch": lambda dst, aux, src, n: mismatch(dst, src, n),
               "xor": lambda a, out, b, n: xor(out, a, b, n) or 0}

    def core(checked, target):
        def kernel(cells_addr: int) -> int:
            cells = _Cells.from_address(cells_addr)
            operands = tuple(cells)
            cells[:] = (0, 0, 0, 0)
            last = _END - operands[3]  # negative for a negative n, read as a u64 above _END
            if all(0 < operands[cell] <= last for cell in checked):
                return target(*operands)
            return _REFUSED
        return kernel

    return {name: core(checked, targets[target])
            for name, (checked, target, _) in _CELLS_KERNELS.items()}


# The 16-byte key or counter block, read in place so no bytes object holds it.
_Half = ctypes.c_ubyte * 16


def _split_shake(xor, a: int, b: int, secret: int, n: int, key: int, ctr: int) -> None:
    """A table's split without AES-NI: share A is SHAKE-128 of key and counter block.

    Share B is share A XOR the secret, through the table's xor, and the
    secret is then zeroed with memset.  Share A is built as one n-byte bytes
    temporary, freed without a wipe.  The counter block is read, not advanced.
    """
    import hashlib  # here, not at the top: it loads libcrypto (~4 MiB RSS)
    shake = hashlib.shake_128(_Half.from_address(key))
    shake.update(_Half.from_address(ctr))
    ctypes.memmove(a, shake.digest(n), n)
    xor(b, a, secret, n)
    ctypes.memset(secret, 0, n)


# No MPX and no AES-NI: split is the SHAKE-128 core, and no MPX stub is bound.
_PORTABLE = SimpleNamespace(mpx=(False, False, False), aes=False, xor=_xor_strided,
                            mismatch=_mismatch_strided, traverse=_traverse_cells,
                            split=functools.partial(_split_shake, _xor_strided),
                            **_cells_cores(_xor_strided, _mismatch_strided))


@functools.cache
def stubs() -> MachineStubs | SimpleNamespace:
    """Return the process-wide stub table, assembled on first use.

    The portable table where no page can run (not x86-64, a 32-bit
    interpreter, or a refused mapping); both have mpx, aes, xor, mismatch,
    split, traverse and the five cells kernels.
    """
    if platform.machine().lower() not in ("x86_64", "amd64") or sys.maxsize <= 2**32:
        return _PORTABLE
    try:
        return MachineStubs()
    except (OSError, ValueError):
        return _PORTABLE


def mpx_facts() -> tuple[bool, bool, bool]:
    """(cpu_has_mpx, xcr0_bndregs, xcr0_bndcsr) as the stub table holds them; all False off-x86."""
    return stubs().mpx
