"""A software model of MPX and XSAVE that stands in for simplex.machine.MachineStubs.

SdmMpxStubs follows the Intel SDM (Vol. 1 ch. 13 for the XSAVE layout and
the INIT state, ch. 17 for MPX) as Oleksenko et al., "Intel MPX Explained"
(SIGMETRICS 2018), describe it:

* CPUID.0DH sub-leaf 0 reports a 1088-byte XSAVE area; sub-leaves 3 and 4
  place BNDREGS (4 x 16 bytes) at offset 960 and BNDCSR (BNDCFGU,
  BNDSTATUS) at offset 1024.
* XSAVE and XRSTOR use the standard (non-compacted) format.  XSAVE clears
  a component's XSTATE_BV bit when the component is in its INIT state;
  XRSTOR loads the INIT state for a requested component whose bit is clear.
* BNDMK bndN, [base + index] sets raw low = base, raw high =
  ~(base + index); BNDMOV [dest], bndN writes the 16-byte raw image.
* Both are NOPs while BNDCFGU.EN is clear.
* Register state is per thread, as the OS context-switches it.

The model covers the whole MachineStubs surface, the kernels included:
its mpx facts are all true, its xor, mismatch and traverse run the portable
table's Python cores, machine._cells_cores builds its cells kernels over the
model's own xor and mismatch, and its split is the machine's SHAKE-128 core
over the portable xor, as on a table without AES-NI.  Its traverse_bnd
re-reads BND2 and BND3 into a per-thread red zone for every byte, as the
kernel's bndmov spills do, and zeroes it on return.

tests/conftest.py's backend fixture routes machine.stubs() (and so
mpx_facts() and probe()) to a fresh model for each sdm-hardware case.
"""

import ctypes
import struct
import threading

from simplex import MASK64
from simplex.machine import (_Cells, _cells_cores, _mismatch_strided, _split_shake,
                             _traverse_cells, _xor_strided)

XCR0 = 0b11011          # x87, SSE, BNDREGS, BNDCSR
BNDREGS, BNDCSR = 3, 4  # XSAVE state-component numbers
AREA_SIZE = 1088
BNDREGS_OFFSET = 960
BNDCSR_OFFSET = 1024
BNDCFGU_EN = 1
BNDCFGU_RESERVED = 0xFFC  # bits 11:2
_QQ = struct.Struct("<QQ")


class GeneralProtection(Exception):
    """The #GP fault the modelled instruction would raise."""


class _Registers(threading.local):
    def __init__(self) -> None:
        self.bnd = [(0, 0)] * 4  # INIT state: raw zeros
        self.bndcfgu = 0
        self.bndstatus = 0
        self.red_zone = _Cells()  # the 32 bytes below the stack pointer that traverse_bnd uses


class SdmMpxStubs:
    """MachineStubs stand-in: MPX and XSAVE modelled in software."""

    mpx = (True, True, True)  # cpu_has_mpx, xcr0_bndregs, xcr0_bndcsr

    def __init__(self) -> None:
        self.regs = _Registers()
        self.xor_calls = 0
        self.split_calls = 0
        self.traverse_bnd_calls = 0
        vars(self).update(_cells_cores(self.xor, self.mismatch))

    def cpuid(self, leaf: int, subleaf: int = 0) -> tuple[int, int, int, int]:
        assert leaf == 0x0D, f"CPUID leaf {leaf:#x} is not modelled"
        return {
            0: (XCR0, AREA_SIZE, AREA_SIZE, 0),
            BNDREGS: (64, BNDREGS_OFFSET, 0, 0),
            BNDCSR: (64, BNDCSR_OFFSET, 0, 0),
        }[subleaf]

    def _requested(self, area: int, mask: int) -> list[int]:
        if area % 64:
            raise GeneralProtection(f"XSAVE area {area:#x} is not 64-byte aligned")
        components = [c for c in range(64) if (mask & XCR0) >> c & 1]
        assert set(components) <= {BNDREGS, BNDCSR}, f"components {components} not modelled"
        return components

    def xsave(self, area: int, mask: int) -> None:
        regs = self.regs
        (xstate_bv,) = struct.unpack("<Q", ctypes.string_at(area + 512, 8))
        for component in self._requested(area, mask):
            if component == BNDREGS:
                image = b"".join(_QQ.pack(*pair) for pair in regs.bnd)
                offset = BNDREGS_OFFSET
            else:
                image = _QQ.pack(regs.bndcfgu, regs.bndstatus) + bytes(48)
                offset = BNDCSR_OFFSET
            if any(image):
                ctypes.memmove(area + offset, image, len(image))
                xstate_bv |= 1 << component
            else:
                xstate_bv &= ~(1 << component)
        ctypes.memmove(area + 512, struct.pack("<Q", xstate_bv), 8)

    def xrstor(self, area: int, mask: int) -> None:
        regs = self.regs
        header = ctypes.string_at(area + 512, 64)
        xstate_bv, xcomp_bv = _QQ.unpack_from(header)
        if xcomp_bv or any(header[16:]) or xstate_bv & ~XCR0:
            raise GeneralProtection("bad XSAVE header for the standard format")
        for component in self._requested(area, mask):
            loaded = xstate_bv >> component & 1
            if component == BNDREGS:
                image = ctypes.string_at(area + BNDREGS_OFFSET, 64) if loaded else bytes(64)
                regs.bnd = [_QQ.unpack_from(image, 16 * n) for n in range(4)]
            else:
                image = ctypes.string_at(area + BNDCSR_OFFSET, 16) if loaded else bytes(16)
                cfgu, status = _QQ.unpack(image)
                if cfgu & BNDCFGU_RESERVED:
                    raise GeneralProtection(f"reserved BNDCFGU bits in {cfgu:#x}")
                regs.bndcfgu, regs.bndstatus = cfgu, status

    def bndmk(self, slot: int, base: int, index: int) -> None:
        if self.regs.bndcfgu & BNDCFGU_EN:
            base &= MASK64
            self.regs.bnd[slot] = (base, ~(base + index) & MASK64)

    def bndmov_spill(self, slot: int, dest_addr: int) -> None:
        if self.regs.bndcfgu & BNDCFGU_EN:
            ctypes.memmove(dest_addr, _QQ.pack(*self.regs.bnd[slot]), 16)

    def xor(self, out_addr: int, a_addr: int, b_addr: int, n: int) -> None:
        self.xor_calls += 1
        _xor_strided(out_addr, a_addr, b_addr, n)

    mismatch = staticmethod(_mismatch_strided)
    traverse = staticmethod(_traverse_cells)

    def traverse_bnd(self, out_addr: int, n: int) -> None:
        self.traverse_bnd_calls += 1
        regs = self.regs
        # With MPX off the spills are NOPs, and the real kernel would load
        # stale red-zone bytes as share addresses.
        assert regs.bndcfgu & BNDCFGU_EN, "traverse_bnd ran with MPX disabled"
        zone, byte = regs.red_zone, ctypes.c_ubyte.from_address
        for i in range(n):
            zone[0], zone[1] = regs.bnd[2]
            zone[2], zone[3] = regs.bnd[3]
            byte(out_addr + i).value = byte(zone[0] + i).value ^ byte(zone[2] + i).value
        zone[:] = (0, 0, 0, 0)

    def split(self, a_addr: int, b_addr: int, secret_addr: int, n: int,
              key_addr: int, ctr_addr: int) -> None:
        self.split_calls += 1
        _split_shake(_xor_strided, a_addr, b_addr, secret_addr, n, key_addr, ctr_addr)

