"""The hardware adapter (_HardwareContext) against a software model of MPX.

SdmMpxStubs stands in for simplex.machine.MachineStubs.  It follows the
Intel SDM (Vol. 1 ch. 13 for the XSAVE layout and the INIT state, ch. 17
for MPX) as Oleksenko et al., "Intel MPX Explained" (SIGMETRICS 2018),
describe it:

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
its xor, mismatch and traverse run the portable table's Python cores, and
its split is the machine's SHAKE-128 core over the portable xor, as on a
table without AES-NI.  Its traverse_bnd re-reads BND2 and BND3 into a
per-thread red zone for every byte, as the kernel's bndmov spills do, and
zeroes it on return.

Every case runs in a fresh thread, so the calling thread never caches a
hardware context built over the model.
"""

import ctypes
import random
import struct
import threading

import pytest

import test_acceptance
import test_bench
import test_context
import test_regfile
import test_strops
import test_threads
from simplex import (
    HIGH_RESET,
    LOW_RESET,
    MASK64,
    BackendKind,
    RegisterFile,
    SlotId,
    process_specific_finish,
    process_specific_init,
)
from simplex.machine import (_Cells, _mismatch_strided, _split_shake, _traverse_cells,
                             _xor_strided)

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

    def __init__(self) -> None:
        self.regs = _Registers()
        self.xor_calls = 0
        self.split_calls = 0
        self.traverse_bnd_calls = 0

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


def in_fresh_thread(fn, *args):
    """Run fn(*args) in a new thread; return its result or re-raise its error."""
    outcome = {}

    def body():
        try:
            outcome["value"] = fn(*args)
        except BaseException as exc:  # handed back to the caller below
            outcome["error"] = exc

    worker = threading.Thread(target=body)
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive(), "fake-hardware case did not finish"
    if "error" in outcome:
        raise outcome["error"]
    return outcome.get("value")


@pytest.fixture
def fake_hardware(monkeypatch):
    """Route the hardware backend to SdmMpxStubs on any host."""
    fake = SdmMpxStubs()
    monkeypatch.setattr("simplex.machine.mpx_facts", lambda: (True, True, True))
    monkeypatch.setattr("simplex.machine.stubs", lambda: fake)
    return fake


def _with_hardware_file(case):
    """Run case(file) on an enabled hardware file in a fresh thread, then finish."""
    def body():
        file = process_specific_init(BackendKind.HARDWARE)
        try:
            case(file)
        finally:
            process_specific_finish(file)
    in_fresh_thread(body)


def test_randomized_sequence_against_model(fake_hardware):
    _with_hardware_file(test_regfile.test_randomized_sequence_against_model)


def test_scratch_zero_after_sanitizing_reads(fake_hardware):
    _with_hardware_file(test_regfile.test_scratch_zero_after_sanitizing_reads)


def test_scratch_residue_after_quick_read(fake_hardware):
    _with_hardware_file(test_regfile.test_scratch_residue_after_quick_read)


def test_scratch_after_slot_op_holds_the_last_quick_read(fake_hardware):
    _with_hardware_file(test_strops.test_scratch_after_slot_op_holds_the_last_quick_read)


def test_backends_agree_run_side_by_side(fake_hardware):
    """One seeded sequence of every op drives an emulated and a hardware file.

    After each op the two files must give the same result, all 16 scratch
    bytes and the same raw slot images; the model test cannot check the
    scratch's high half after a quick write.
    """
    def case():
        rng, slots = random.Random(0x51DE), tuple(SlotId)
        files, residues = [], 0
        try:
            for kind in (BackendKind.EMULATED, BackendKind.HARDWARE):
                files.append(process_specific_init(kind))
            for step in range(2000):
                name, shape = rng.choice(test_regfile._ALL_OPS)
                args = [rng.choice(slots)] if shape else []
                args += [rng.choice((0, MASK64, rng.getrandbits(64))) for _ in shape[1:]]
                seen = [(getattr(file, name)(*args), file.scratch_snapshot(),
                         file._peek_raw_slots()) for file in files]
                assert seen[0] == seen[1], (step, name, args)
                residues += any(seen[0][1])
        finally:
            for file in files:
                process_specific_finish(file)
        assert residues > 100  # quick reads left images for the comparison to see
    in_fresh_thread(case)


# A slot index that slipped through would reach the registers unchecked:
# -1 would silently write BND3.
@pytest.mark.parametrize("bad", test_regfile._BAD_SLOTS, ids=repr)
@pytest.mark.parametrize("name,args", test_regfile._SLOT_OPS,
                         ids=[n for n, _ in test_regfile._SLOT_OPS])
def test_every_accessor_rejects_non_slots(fake_hardware, name, args, bad):
    _with_hardware_file(lambda file: test_regfile.test_every_accessor_rejects_non_slots(
        file, name, args, bad))


def test_accessors_accept_the_slot_domain(fake_hardware):
    _with_hardware_file(test_regfile.test_accessors_accept_the_slot_domain)


def test_adapter_drives_the_registers(fake_hardware):
    def case(file):
        file.setbnd128(SlotId.BND1, 0x1234, 0xFEDC_BA98_7654_3210)
        assert fake_hardware.regs.bnd[SlotId.BND1] == (0x1234, 0xFEDC_BA98_7654_3210)
        assert fake_hardware.regs.bndcfgu & BNDCFGU_EN
    _with_hardware_file(case)


def test_xsave_image_exposes_live_payloads(fake_hardware):
    # Any XSAVE of the BNDREGS component copies the payloads out; the
    # adapter's raw-image read is one such XSAVE, issued from user mode.
    def case(file):
        file.setbnd128(SlotId.BND2, 0x5EC2E7, 0xC0DE_0000_0000_0001)
        assert file._peek_raw_slots()[SlotId.BND2] == (0x5EC2E7, 0xC0DE_0000_0000_0001)
    _with_hardware_file(case)


def test_post_finish_raw_image(fake_hardware):
    def case():
        file = process_specific_init(BackendKind.HARDWARE)
        for slot in SlotId:
            file.setbnd128(slot, 0x1111 * (slot + 1), 0x2222 * (slot + 1))
        process_specific_finish(file)
        assert fake_hardware.regs.bndcfgu == 0  # MPX off for the thread
        return file._peek_raw_slots(), file.scratch_snapshot()

    raw, scratch = in_fresh_thread(case)
    for slot in (SlotId.BND1, SlotId.BND2, SlotId.BND3):
        assert raw[slot] == (LOW_RESET, HIGH_RESET)
    low0, high0 = raw[SlotId.BND0]
    assert low0 == LOW_RESET
    assert high0 >> 63 == 1
    assert scratch == bytes(16)


def test_a_file_never_enabled_peeks_the_init_state(fake_hardware):
    # XSAVE reports registers in their INIT state by a clear XSTATE_BV bit,
    # not by an image; a fresh thread's registers are there.
    raw = in_fresh_thread(lambda: RegisterFile(BackendKind.HARDWARE)._peek_raw_slots())
    assert raw == [(0, 0)] * 4


@pytest.mark.parametrize("harness, row, leftover", test_context._FINISH_CASES)
def test_finish_that_leaves_a_payload_fails_every_harness(fake_hardware, monkeypatch,
                                                          harness, row, leftover):
    in_fresh_thread(test_context.test_finish_that_leaves_a_payload_fails_every_harness,
                    monkeypatch, harness, row, leftover, BackendKind.HARDWARE)


@pytest.mark.parametrize("size", [9, 3 * test_bench._BLOCK + 5])
def test_hide_unhide_roundtrip(fake_hardware, size):
    def case(file):
        test_bench.test_hide_unhide_roundtrip_and_wipe(file, size)
        assert bytes(fake_hardware.regs.red_zone) == bytes(32)
    _with_hardware_file(case)
    assert fake_hardware.xor_calls == 1  # the per-pass unhide
    assert fake_hardware.traverse_bnd_calls == 1  # the per-byte unhide, in one call
    assert fake_hardware.split_calls == 1  # the whole hide, in one call


def test_all_three_harnesses(fake_hardware):
    in_fresh_thread(test_acceptance._run_harnesses, BackendKind.HARDWARE)


def test_foreign_thread_is_refused(fake_hardware):
    def case():
        file = process_specific_init(BackendKind.HARDWARE)
        try:
            test_regfile.assert_foreign_thread_refused(file)
        finally:
            process_specific_finish(file)
    in_fresh_thread(case)


# The owner runs in its own thread that ends; the calling thread only touches
# the dead owner's file, which is refused before any register is reached.
def test_a_file_outliving_its_thread_is_refused_under_a_reused_ident(fake_hardware,
                                                                     monkeypatch):
    test_regfile.test_a_file_outliving_its_thread_is_refused_under_a_reused_ident(
        monkeypatch, BackendKind.HARDWARE)


def test_finish_under_a_reused_ident_is_refused_and_keeps_the_pool(fake_hardware, monkeypatch):
    test_regfile.test_finish_under_a_reused_ident_is_refused_and_keeps_the_pool(
        monkeypatch, BackendKind.HARDWARE)


# Two files in two threads, each thread with its own modelled registers.
def test_two_threads_keep_their_own_files(fake_hardware):
    test_threads.test_two_threads_keep_their_own_files(BackendKind.HARDWARE)


def test_a_finish_in_one_thread_leaves_the_other_threads_file_working(fake_hardware):
    test_threads.test_a_finish_in_one_thread_leaves_the_other_threads_file_working(
        BackendKind.HARDWARE)


def test_a_hide_dropped_in_the_other_thread_goes_back_to_its_owner(fake_hardware):
    test_threads.test_a_hide_dropped_in_the_other_thread_goes_back_to_its_owner(
        BackendKind.HARDWARE)
