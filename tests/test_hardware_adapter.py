"""The hardware adapter's own paths (_HardwareContext) over sdm.SdmMpxStubs.

Every public-behaviour test runs on the adapter already, through the
backend fixture's sdm-hardware cases.  The tests defined here run only
there, and check what only the adapter has: the registers and XSAVE images
it leaves in the model, how it agrees with the emulated backend op by op,
and how many kernel calls a hide and its unhides make.

The tests imported below are collected here as well, pinned to the model,
so the adapter cases this module has always run keep their ids.
"""

import random

import pytest

from sdm import BNDCFGU_EN
from simplex import (
    HIGH_RESET,
    LOW_RESET,
    MASK64,
    BackendKind,
    RegisterFile,
    SlotId,
    hide_split,
    machine,
    process_specific_finish,
    process_specific_init,
    unhide_combine,
)
from simplex.machine import _BLOCK
from test_acceptance import _run_harnesses
from test_context import test_finish_that_leaves_a_payload_fails_every_harness  # noqa: F401
from test_regfile import (  # noqa: F401
    _ALL_OPS,
    test_a_file_outliving_its_thread_is_refused_under_a_reused_ident,
    test_accessors_accept_the_slot_domain,
    test_every_accessor_rejects_non_slots,
    test_finish_under_a_reused_ident_is_refused_and_keeps_the_pool,
    test_foreign_thread_is_refused,
    test_randomized_sequence_against_model,
    test_scratch_residue_after_quick_read,
    test_scratch_zero_after_sanitizing_reads,
)
from test_strops import test_scratch_after_slot_op_holds_the_last_quick_read  # noqa: F401
from test_threads import (  # noqa: F401
    test_a_finish_in_one_thread_leaves_the_other_threads_file_working,
    test_a_hide_dropped_in_the_other_thread_goes_back_to_its_owner,
    test_two_threads_keep_their_own_files,
)

pytestmark = pytest.mark.parametrize("backend", [BackendKind.HARDWARE], ids=[pytest.HIDDEN_PARAM],
                                     indirect=True)


@pytest.fixture
def model(backend):
    """The case's SdmMpxStubs, which machine.stubs() returns."""
    return machine.stubs()


def test_backends_agree_run_side_by_side(backend):
    """One seeded sequence of every op drives an emulated and a hardware file.

    After each op the two files must give the same result, all 16 scratch
    bytes and the same raw slot images; the model test cannot check the
    scratch's high half after a quick write.
    """
    rng, slots = random.Random(0x51DE), tuple(SlotId)
    files, residues = [], 0
    try:
        for kind in (BackendKind.EMULATED, BackendKind.HARDWARE):
            files.append(process_specific_init(kind))
        for step in range(2000):
            name, shape = rng.choice(_ALL_OPS)
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


def test_adapter_drives_the_registers(model, file):
    file.setbnd128(SlotId.BND1, 0x1234, 0xFEDC_BA98_7654_3210)
    assert model.regs.bnd[SlotId.BND1] == (0x1234, 0xFEDC_BA98_7654_3210)
    assert model.regs.bndcfgu & BNDCFGU_EN


def test_xsave_image_exposes_live_payloads(file):
    # Any XSAVE of the BNDREGS component copies the payloads out; the
    # adapter's raw-image read is one such XSAVE, issued from user mode.
    file.setbnd128(SlotId.BND2, 0x5EC2E7, 0xC0DE_0000_0000_0001)
    assert file._peek_raw_slots()[SlotId.BND2] == (0x5EC2E7, 0xC0DE_0000_0000_0001)


def test_post_finish_raw_image(model, file):
    for slot in SlotId:
        file.setbnd128(slot, 0x1111 * (slot + 1), 0x2222 * (slot + 1))
    process_specific_finish(file)
    assert model.regs.bndcfgu == 0  # MPX off for the thread
    raw = file._peek_raw_slots()
    for slot in (SlotId.BND1, SlotId.BND2, SlotId.BND3):
        assert raw[slot] == (LOW_RESET, HIGH_RESET)
    low0, high0 = raw[SlotId.BND0]
    assert low0 == LOW_RESET
    assert high0 >> 63 == 1
    assert file.scratch_snapshot() == bytes(16)


def test_a_file_never_enabled_peeks_the_init_state(backend):
    # XSAVE reports registers in their INIT state by a clear XSTATE_BV bit,
    # not by an image; a fresh model's registers are there.
    assert RegisterFile(backend)._peek_raw_slots() == [(0, 0)] * 4


@pytest.mark.parametrize("size", [9, 3 * _BLOCK + 5])
def test_hide_unhide_roundtrip(model, file, size):
    secret = bytearray(random.Random(size).randbytes(size))
    original = bytes(secret)
    hidden = hide_split(file, secret)
    for reload in ("per-pass", "per-byte"):
        assert unhide_combine(file, hidden, reload=reload) == original
    assert bytes(model.regs.red_zone) == bytes(32)
    assert model.xor_calls == 1  # the per-pass unhide
    assert model.traverse_bnd_calls == 1  # the per-byte unhide, in one call
    assert model.split_calls == 1  # the whole hide, in one call


def test_all_three_harnesses(backend):
    _run_harnesses(backend)
