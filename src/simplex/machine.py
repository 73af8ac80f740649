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

Beside those instructions the page carries two plain kernels, which touch
only the memory their caller names (see simplex.hide):

* ``xor``: the two-share XOR that unhiding (and hiding without AES-NI)
  runs over whole buffers.
* ``split``: hiding in one pass.  Share A is an AES-128-CTR keystream,
  share B is that keystream XOR the secret, and the secret is zeroed as
  it is read.  It expands the key with AES-NI into xmm5-xmm15, so no round
  key reaches memory, and zeroes xmm0-xmm15 before it returns.  It needs
  AES-NI and SSE4.1, which ``MachineStubs.aes`` checks on first use.

The page is mapped read-write, filled, then switched to read-execute with
mprotect before any stub runs, so it is never writable and executable at
once.  On non-x86-64 hosts, or when the kernel refuses the mapping or the
switch, ``stubs()`` returns None instead of raising.
"""

from __future__ import annotations

import ctypes
import functools
import mmap
import platform
import sys

__all__ = ["MachineStubs", "stubs", "mpx_facts"]

# The C library: mprotect here, memset and getrandom in simplex.hide.  Plain,
# not use_errno: that would add 70-300 ns to the memset of every release.
libc = ctypes.CDLL(None)

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


# split(a: rdi, b: rsi, secret: rdx, n: rcx, key: r8, ctr: r9): one pass over
# n bytes that writes AES-128-CTR keystream to share A, keystream XOR secret
# to share B, and zeros over the secret.  The 16-byte key at r8 is expanded
# with aeskeygenassist into xmm5-xmm15, so no round key is ever stored.  The
# 16-byte counter block at r9 is bytes 0-7 nonce and bytes 8-15 a
# little-endian u64 block counter (mod 2**64, no carry into the nonce); the
# count after the last block used is written back.  Each secret byte is read
# once, before its zero is stored.  Needs AES-NI and SSE4.1 (pinsrq, pextrq).
_CODE_SPLIT = bytes.fromhex(
    # Key schedule: round key 0 is the key; round key r (1-10) goes to
    # xmm(5+r), built from xmm(4+r) with aeskeygenassist and rcon(r).
    "f3410f6f28"      # movdqu xmm5, [r8]
    "660f3adfc501"    # aeskeygenassist xmm0, xmm5, 0x1
    "660f70c0ff"      # pshufd xmm0, xmm0, 0xff
    "660f6ff5"        # movdqa xmm6, xmm5
    "660f6fcd"        # movdqa xmm1, xmm5
    "660f73f904"      # pslldq xmm1, 0x4
    "660feff1"        # pxor   xmm6, xmm1
    "660f73f904"      # pslldq xmm1, 0x4
    "660feff1"        # pxor   xmm6, xmm1
    "660f73f904"      # pslldq xmm1, 0x4
    "660feff1"        # pxor   xmm6, xmm1
    "660feff0"        # pxor   xmm6, xmm0
    "660f3adfc602"    # aeskeygenassist xmm0, xmm6, 0x2
    "660f70c0ff"      # pshufd xmm0, xmm0, 0xff
    "660f6ffe"        # movdqa xmm7, xmm6
    "660f6fce"        # movdqa xmm1, xmm6
    "660f73f904"      # pslldq xmm1, 0x4
    "660feff9"        # pxor   xmm7, xmm1
    "660f73f904"      # pslldq xmm1, 0x4
    "660feff9"        # pxor   xmm7, xmm1
    "660f73f904"      # pslldq xmm1, 0x4
    "660feff9"        # pxor   xmm7, xmm1
    "660feff8"        # pxor   xmm7, xmm0
    "660f3adfc704"    # aeskeygenassist xmm0, xmm7, 0x4
    "660f70c0ff"      # pshufd xmm0, xmm0, 0xff
    "66440f6fc7"      # movdqa xmm8, xmm7
    "660f6fcf"        # movdqa xmm1, xmm7
    "660f73f904"      # pslldq xmm1, 0x4
    "66440fefc1"      # pxor   xmm8, xmm1
    "660f73f904"      # pslldq xmm1, 0x4
    "66440fefc1"      # pxor   xmm8, xmm1
    "660f73f904"      # pslldq xmm1, 0x4
    "66440fefc1"      # pxor   xmm8, xmm1
    "66440fefc0"      # pxor   xmm8, xmm0
    "66410f3adfc008"  # aeskeygenassist xmm0, xmm8, 0x8
    "660f70c0ff"      # pshufd xmm0, xmm0, 0xff
    "66450f6fc8"      # movdqa xmm9, xmm8
    "66410f6fc8"      # movdqa xmm1, xmm8
    "660f73f904"      # pslldq xmm1, 0x4
    "66440fefc9"      # pxor   xmm9, xmm1
    "660f73f904"      # pslldq xmm1, 0x4
    "66440fefc9"      # pxor   xmm9, xmm1
    "660f73f904"      # pslldq xmm1, 0x4
    "66440fefc9"      # pxor   xmm9, xmm1
    "66440fefc8"      # pxor   xmm9, xmm0
    "66410f3adfc110"  # aeskeygenassist xmm0, xmm9, 0x10
    "660f70c0ff"      # pshufd xmm0, xmm0, 0xff
    "66450f6fd1"      # movdqa xmm10, xmm9
    "66410f6fc9"      # movdqa xmm1, xmm9
    "660f73f904"      # pslldq xmm1, 0x4
    "66440fefd1"      # pxor   xmm10, xmm1
    "660f73f904"      # pslldq xmm1, 0x4
    "66440fefd1"      # pxor   xmm10, xmm1
    "660f73f904"      # pslldq xmm1, 0x4
    "66440fefd1"      # pxor   xmm10, xmm1
    "66440fefd0"      # pxor   xmm10, xmm0
    "66410f3adfc220"  # aeskeygenassist xmm0, xmm10, 0x20
    "660f70c0ff"      # pshufd xmm0, xmm0, 0xff
    "66450f6fda"      # movdqa xmm11, xmm10
    "66410f6fca"      # movdqa xmm1, xmm10
    "660f73f904"      # pslldq xmm1, 0x4
    "66440fefd9"      # pxor   xmm11, xmm1
    "660f73f904"      # pslldq xmm1, 0x4
    "66440fefd9"      # pxor   xmm11, xmm1
    "660f73f904"      # pslldq xmm1, 0x4
    "66440fefd9"      # pxor   xmm11, xmm1
    "66440fefd8"      # pxor   xmm11, xmm0
    "66410f3adfc340"  # aeskeygenassist xmm0, xmm11, 0x40
    "660f70c0ff"      # pshufd xmm0, xmm0, 0xff
    "66450f6fe3"      # movdqa xmm12, xmm11
    "66410f6fcb"      # movdqa xmm1, xmm11
    "660f73f904"      # pslldq xmm1, 0x4
    "66440fefe1"      # pxor   xmm12, xmm1
    "660f73f904"      # pslldq xmm1, 0x4
    "66440fefe1"      # pxor   xmm12, xmm1
    "660f73f904"      # pslldq xmm1, 0x4
    "66440fefe1"      # pxor   xmm12, xmm1
    "66440fefe0"      # pxor   xmm12, xmm0
    "66410f3adfc480"  # aeskeygenassist xmm0, xmm12, 0x80
    "660f70c0ff"      # pshufd xmm0, xmm0, 0xff
    "66450f6fec"      # movdqa xmm13, xmm12
    "66410f6fcc"      # movdqa xmm1, xmm12
    "660f73f904"      # pslldq xmm1, 0x4
    "66440fefe9"      # pxor   xmm13, xmm1
    "660f73f904"      # pslldq xmm1, 0x4
    "66440fefe9"      # pxor   xmm13, xmm1
    "660f73f904"      # pslldq xmm1, 0x4
    "66440fefe9"      # pxor   xmm13, xmm1
    "66440fefe8"      # pxor   xmm13, xmm0
    "66410f3adfc51b"  # aeskeygenassist xmm0, xmm13, 0x1b
    "660f70c0ff"      # pshufd xmm0, xmm0, 0xff
    "66450f6ff5"      # movdqa xmm14, xmm13
    "66410f6fcd"      # movdqa xmm1, xmm13
    "660f73f904"      # pslldq xmm1, 0x4
    "66440feff1"      # pxor   xmm14, xmm1
    "660f73f904"      # pslldq xmm1, 0x4
    "66440feff1"      # pxor   xmm14, xmm1
    "660f73f904"      # pslldq xmm1, 0x4
    "66440feff1"      # pxor   xmm14, xmm1
    "66440feff0"      # pxor   xmm14, xmm0
    "66410f3adfc636"  # aeskeygenassist xmm0, xmm14, 0x36
    "660f70c0ff"      # pshufd xmm0, xmm0, 0xff
    "66450f6ffe"      # movdqa xmm15, xmm14
    "66410f6fce"      # movdqa xmm1, xmm14
    "660f73f904"      # pslldq xmm1, 0x4
    "66440feff9"      # pxor   xmm15, xmm1
    "660f73f904"      # pslldq xmm1, 0x4
    "66440feff9"      # pxor   xmm15, xmm1
    "660f73f904"      # pslldq xmm1, 0x4
    "66440feff9"      # pxor   xmm15, xmm1
    "66440feff8"      # pxor   xmm15, xmm0
    # r10 = nonce, r11 = block counter, rax = four-block steps.
    "4d8b11"          # mov    r10, [r9]
    "4d8b5908"        # mov    r11, [r9+0x8]
    "4889c8"          # mov    rax, rcx
    "48c1e806"        # shr    rax, 0x6
    "0f84a9010000"    # je     rest
    # Four counter blocks per step: xmm0-xmm3, pxor round key 0, nine
    # aesenc rounds and aesenclast.  The keystream goes to share A, the
    # keystream XOR the secret to share B, then zeros over those 64
    # secret bytes (xmm4 carries each secret block, then the zeros).
    "66490f6ec2"      # quad: movq   xmm0, r10
    "66490f3a22c301"  # pinsrq xmm0, r11, 0x1
    "49ffc3"          # inc    r11
    "66490f6eca"      # movq   xmm1, r10
    "66490f3a22cb01"  # pinsrq xmm1, r11, 0x1
    "49ffc3"          # inc    r11
    "66490f6ed2"      # movq   xmm2, r10
    "66490f3a22d301"  # pinsrq xmm2, r11, 0x1
    "49ffc3"          # inc    r11
    "66490f6eda"      # movq   xmm3, r10
    "66490f3a22db01"  # pinsrq xmm3, r11, 0x1
    "49ffc3"          # inc    r11
    "660fefc5"        # pxor   xmm0, xmm5
    "660fefcd"        # pxor   xmm1, xmm5
    "660fefd5"        # pxor   xmm2, xmm5
    "660fefdd"        # pxor   xmm3, xmm5
    "660f38dcc6"      # aesenc xmm0, xmm6
    "660f38dcce"      # aesenc xmm1, xmm6
    "660f38dcd6"      # aesenc xmm2, xmm6
    "660f38dcde"      # aesenc xmm3, xmm6
    "660f38dcc7"      # aesenc xmm0, xmm7
    "660f38dccf"      # aesenc xmm1, xmm7
    "660f38dcd7"      # aesenc xmm2, xmm7
    "660f38dcdf"      # aesenc xmm3, xmm7
    "66410f38dcc0"    # aesenc xmm0, xmm8
    "66410f38dcc8"    # aesenc xmm1, xmm8
    "66410f38dcd0"    # aesenc xmm2, xmm8
    "66410f38dcd8"    # aesenc xmm3, xmm8
    "66410f38dcc1"    # aesenc xmm0, xmm9
    "66410f38dcc9"    # aesenc xmm1, xmm9
    "66410f38dcd1"    # aesenc xmm2, xmm9
    "66410f38dcd9"    # aesenc xmm3, xmm9
    "66410f38dcc2"    # aesenc xmm0, xmm10
    "66410f38dcca"    # aesenc xmm1, xmm10
    "66410f38dcd2"    # aesenc xmm2, xmm10
    "66410f38dcda"    # aesenc xmm3, xmm10
    "66410f38dcc3"    # aesenc xmm0, xmm11
    "66410f38dccb"    # aesenc xmm1, xmm11
    "66410f38dcd3"    # aesenc xmm2, xmm11
    "66410f38dcdb"    # aesenc xmm3, xmm11
    "66410f38dcc4"    # aesenc xmm0, xmm12
    "66410f38dccc"    # aesenc xmm1, xmm12
    "66410f38dcd4"    # aesenc xmm2, xmm12
    "66410f38dcdc"    # aesenc xmm3, xmm12
    "66410f38dcc5"    # aesenc xmm0, xmm13
    "66410f38dccd"    # aesenc xmm1, xmm13
    "66410f38dcd5"    # aesenc xmm2, xmm13
    "66410f38dcdd"    # aesenc xmm3, xmm13
    "66410f38dcc6"    # aesenc xmm0, xmm14
    "66410f38dcce"    # aesenc xmm1, xmm14
    "66410f38dcd6"    # aesenc xmm2, xmm14
    "66410f38dcde"    # aesenc xmm3, xmm14
    "66410f38ddc7"    # aesenclast xmm0, xmm15
    "66410f38ddcf"    # aesenclast xmm1, xmm15
    "66410f38ddd7"    # aesenclast xmm2, xmm15
    "66410f38dddf"    # aesenclast xmm3, xmm15
    "f30f7f07"        # movdqu [rdi], xmm0
    "f30f7f4f10"      # movdqu [rdi+0x10], xmm1
    "f30f7f5720"      # movdqu [rdi+0x20], xmm2
    "f30f7f5f30"      # movdqu [rdi+0x30], xmm3
    "f30f6f22"        # movdqu xmm4, [rdx]
    "660fefc4"        # pxor   xmm0, xmm4
    "f30f7f06"        # movdqu [rsi], xmm0
    "f30f6f6210"      # movdqu xmm4, [rdx+0x10]
    "660fefcc"        # pxor   xmm1, xmm4
    "f30f7f4e10"      # movdqu [rsi+0x10], xmm1
    "f30f6f6220"      # movdqu xmm4, [rdx+0x20]
    "660fefd4"        # pxor   xmm2, xmm4
    "f30f7f5620"      # movdqu [rsi+0x20], xmm2
    "f30f6f6230"      # movdqu xmm4, [rdx+0x30]
    "660fefdc"        # pxor   xmm3, xmm4
    "f30f7f5e30"      # movdqu [rsi+0x30], xmm3
    "660fefe4"        # pxor   xmm4, xmm4
    "f30f7f22"        # movdqu [rdx], xmm4
    "f30f7f6210"      # movdqu [rdx+0x10], xmm4
    "f30f7f6220"      # movdqu [rdx+0x20], xmm4
    "f30f7f6230"      # movdqu [rdx+0x30], xmm4
    "4883c740"        # add    rdi, 0x40
    "4883c640"        # add    rsi, 0x40
    "4883c240"        # add    rdx, 0x40
    "48ffc8"          # dec    rax
    "0f8557feffff"    # jne    quad
    # The 0-63 bytes left, one block at a time; the last block's 1-15
    # bytes go out 8 and then 1 at a time, and its surplus is never stored.
    "4883e13f"        # rest: and    rcx, 0x3f
    "0f84ce000000"    # je     done
    "66490f6ec2"      # one: movq   xmm0, r10
    "66490f3a22c301"  # pinsrq xmm0, r11, 0x1
    "49ffc3"          # inc    r11
    "660fefc5"        # pxor   xmm0, xmm5
    "660f38dcc6"      # aesenc xmm0, xmm6
    "660f38dcc7"      # aesenc xmm0, xmm7
    "66410f38dcc0"    # aesenc xmm0, xmm8
    "66410f38dcc1"    # aesenc xmm0, xmm9
    "66410f38dcc2"    # aesenc xmm0, xmm10
    "66410f38dcc3"    # aesenc xmm0, xmm11
    "66410f38dcc4"    # aesenc xmm0, xmm12
    "66410f38dcc5"    # aesenc xmm0, xmm13
    "66410f38dcc6"    # aesenc xmm0, xmm14
    "66410f38ddc7"    # aesenclast xmm0, xmm15
    "4883f910"        # cmp    rcx, 0x10
    "722c"            # jb     partial
    "f30f7f07"        # movdqu [rdi], xmm0
    "f30f6f22"        # movdqu xmm4, [rdx]
    "660fefc4"        # pxor   xmm0, xmm4
    "f30f7f06"        # movdqu [rsi], xmm0
    "660fefe4"        # pxor   xmm4, xmm4
    "f30f7f22"        # movdqu [rdx], xmm4
    "4883c710"        # add    rdi, 0x10
    "4883c610"        # add    rsi, 0x10
    "4883c210"        # add    rdx, 0x10
    "4883e910"        # sub    rcx, 0x10
    "7583"            # jne    one
    "eb4f"            # jmp    done
    "66480f7ec0"      # partial: movq   rax, xmm0
    "4883f908"        # cmp    rcx, 0x8
    "7229"            # jb     bytes
    "488907"          # mov    [rdi], rax
    "483302"          # xor    rax, [rdx]
    "488906"          # mov    [rsi], rax
    "48c70200000000"  # mov    qword ptr [rdx], 0x0
    "4883c708"        # add    rdi, 0x8
    "4883c608"        # add    rsi, 0x8
    "4883c208"        # add    rdx, 0x8
    "4883e908"        # sub    rcx, 0x8
    "7422"            # je     done
    "66480f3a16c001"  # pextrq rax, xmm0, 0x1
    "8807"            # bytes: mov    [rdi], al
    "3202"            # xor    al, [rdx]
    "8806"            # mov    [rsi], al
    "c60200"          # mov    byte ptr [rdx], 0x0
    "48c1e808"        # shr    rax, 0x8
    "48ffc7"          # inc    rdi
    "48ffc6"          # inc    rsi
    "48ffc2"          # inc    rdx
    "48ffc9"          # dec    rcx
    "75e5"            # jne    bytes
    # Write the counter back, then zero rax and every xmm register.
    "4d895908"        # done: mov    [r9+0x8], r11
    "31c0"            # xor    eax, eax
    "660fefc0"        # pxor   xmm0, xmm0
    "660fefc9"        # pxor   xmm1, xmm1
    "660fefd2"        # pxor   xmm2, xmm2
    "660fefdb"        # pxor   xmm3, xmm3
    "660fefe4"        # pxor   xmm4, xmm4
    "660fefed"        # pxor   xmm5, xmm5
    "660feff6"        # pxor   xmm6, xmm6
    "660fefff"        # pxor   xmm7, xmm7
    "66450fefc0"      # pxor   xmm8, xmm8
    "66450fefc9"      # pxor   xmm9, xmm9
    "66450fefd2"      # pxor   xmm10, xmm10
    "66450fefdb"      # pxor   xmm11, xmm11
    "66450fefe4"      # pxor   xmm12, xmm12
    "66450fefed"      # pxor   xmm13, xmm13
    "66450feff6"      # pxor   xmm14, xmm14
    "66450fefff"      # pxor   xmm15, xmm15
    "c3"              # ret
)

_STUB_ALIGN = 16

_PROTO_CPUID = ctypes.CFUNCTYPE(None, ctypes.c_uint32, ctypes.c_uint32, ctypes.c_void_p)
_PROTO_XGETBV = ctypes.CFUNCTYPE(ctypes.c_uint64, ctypes.c_uint32)
_PROTO_XSTATE = ctypes.CFUNCTYPE(None, ctypes.c_void_p, ctypes.c_uint64)
_PROTO_BNDMK = ctypes.CFUNCTYPE(None, ctypes.c_uint64, ctypes.c_uint64)
_PROTO_BNDSPILL = ctypes.CFUNCTYPE(None, ctypes.c_void_p)
_PROTO_XOR = ctypes.CFUNCTYPE(None, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
                              ctypes.c_size_t)
_PROTO_SPLIT = ctypes.CFUNCTYPE(None, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
                                ctypes.c_size_t, ctypes.c_void_p, ctypes.c_void_p)


def _make_executable(addr: int, size: int) -> None:
    """mprotect the page at addr to read-execute; OSError when refused."""
    mprotect = libc.mprotect
    mprotect.argtypes = (ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int)
    if mprotect(addr, size, mmap.PROT_READ | mmap.PROT_EXEC) != 0:
        raise OSError("mprotect to read-execute was refused")


class MachineStubs:
    """Callable wrappers around the assembled helpers, in one read-execute mapping.

    ``xor(out_addr, a_addr, b_addr, n)`` sets out[i] = a[i] ^ b[i] for n
    bytes of raw memory.  ``split(a_addr, b_addr, secret_addr, n, key_addr,
    ctr_addr)`` writes n bytes of AES-128-CTR keystream, under the 16-byte
    key at key_addr from the 16-byte counter block at ctr_addr, to a; sets
    b[i] = a[i] ^ secret[i]; zeroes the n secret bytes; and advances the
    block's counter (see _CODE_SPLIT).  It runs only where ``aes`` is true.
    Both calls drop the GIL, so the caller keeps every operand alive and
    unresizable (holds a buffer export on it) until they return.
    """

    def __init__(self) -> None:
        pieces = [
            ("cpuid", _CODE_CPUID, _PROTO_CPUID),
            ("xgetbv", _CODE_XGETBV, _PROTO_XGETBV),
            ("xsave", _CODE_XSAVE, _PROTO_XSTATE),
            ("xrstor", _CODE_XRSTOR, _PROTO_XSTATE),
            ("xor", _CODE_XOR, _PROTO_XOR),
            ("split", _CODE_SPLIT, _PROTO_SPLIT),
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
        self._bndmk = [fns[f"bndmk{slot}"] for slot in range(4)]
        self._bndspill = [fns[f"bndspill{slot}"] for slot in range(4)]
        # The plain stubs are their foreign functions, with no wrapper frame
        # (for xor and split one would be a measurable share of a 32-byte hide).
        # xgetbv(index) faults unless CPUID.01H:ECX.OSXSAVE is set: check it first.
        self.xgetbv = fns["xgetbv"]
        self.xsave = fns["xsave"]  # xsave/xrstor(area_addr, mask)
        self.xrstor = fns["xrstor"]
        self.xor = fns["xor"]
        self.split = fns["split"]

    @functools.cached_property
    def aes(self) -> bool:
        """CPUID.01H:ECX has AES-NI (bit 25) and SSE4.1 (bit 19, pinsrq), which split needs.

        Read on first use and kept, so probing never pays for it.
        """
        _, _, ecx, _ = self.cpuid(1)
        return bool(ecx >> 25 & 1 and ecx >> 19 & 1)

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
