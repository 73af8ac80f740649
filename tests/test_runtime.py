"""Lifecycle: init resets, re-init is legal, finish destroys and disables."""

import threading

import pytest

from simplex import (
    ENV_BACKEND,
    HIGH_RESET,
    LOW_RESET,
    BackendKind,
    BoundsSlot,
    DisabledError,
    HardwareUnavailableError,
    SlotId,
    is_enabled,
    probe,
    process_specific_finish,
    process_specific_init,
)


def test_init_enables_and_resets():
    file = process_specific_init(BackendKind.EMULATED)
    try:
        assert is_enabled(file)
        for slot in SlotId:
            assert file.getbnd128(slot) == BoundsSlot(LOW_RESET, HIGH_RESET)
    finally:
        process_specific_finish(file)


def test_reinit_destroys_written_value():
    file = process_specific_init(BackendKind.EMULATED)
    file.setbnd_low(SlotId.BND0, 5)
    assert file.getbnd_low(SlotId.BND0) == 5
    file = process_specific_init(BackendKind.EMULATED)
    try:
        assert file.getbnd_low(SlotId.BND0) == LOW_RESET
    finally:
        process_specific_finish(file)


def test_finish_disables_and_blocks_reads():
    file = process_specific_init(BackendKind.EMULATED)
    file.setbnd_low(SlotId.BND0, 9)
    process_specific_finish(file)
    assert not is_enabled(file)
    with pytest.raises(DisabledError):
        file.getbnd_low(SlotId.BND0)


def test_finish_is_idempotent():
    file = process_specific_init(BackendKind.EMULATED)
    process_specific_finish(file)
    before = file._peek_raw_slots()
    process_specific_finish(file)
    process_specific_finish(file)
    assert file._peek_raw_slots() == before
    assert not is_enabled(file)


def test_finish_raw_state_on_emulated_backend():
    file = process_specific_init(BackendKind.EMULATED)
    for slot in SlotId:
        file.setbnd128(slot, 0x1111 * (slot + 1), 0x2222 * (slot + 1))
    process_specific_finish(file)
    raw = file._peek_raw_slots()
    # Emulated finish is fully deterministic: everything at reset.
    for slot in SlotId:
        assert raw[slot] == (LOW_RESET, HIGH_RESET)


def test_no_disclosure_after_finish():
    file = process_specific_init(BackendKind.EMULATED)
    secret = 0x5EC2E7_C0DE
    file.setbnd_low(SlotId.BND2, secret)
    file.qgetbnd_low(SlotId.BND2)  # leave residue on purpose
    process_specific_finish(file)
    for low, high in file._peek_raw_slots():
        assert low != secret
        assert high != secret
    assert file.scratch_snapshot() == bytes(16)


def test_init_finish_init_equals_single_init():
    file = process_specific_init(BackendKind.EMULATED)
    process_specific_finish(file)
    file = process_specific_init(BackendKind.EMULATED)
    try:
        assert is_enabled(file)
        for slot in SlotId:
            assert file.getbnd128(slot) == BoundsSlot(LOW_RESET, HIGH_RESET)
    finally:
        process_specific_finish(file)


def test_strict_hardware_init_on_this_machine():
    report = probe(env={})
    if report.hardware_capable:
        file = process_specific_init(BackendKind.HARDWARE)
        try:
            assert file.backend is BackendKind.HARDWARE
        finally:
            process_specific_finish(file)
    else:
        with pytest.raises(HardwareUnavailableError):
            process_specific_init(BackendKind.HARDWARE)


def test_explicit_hardware_init_on_incapable_machine_raises(incapable_machine):
    # A fresh thread has no cached context, so the hardware context's own
    # construction check is what rejects the request.
    raised = []

    def attempt():
        try:
            process_specific_init(BackendKind.HARDWARE)
        except HardwareUnavailableError as exc:
            raised.append(exc)

    worker = threading.Thread(target=attempt)
    worker.start()
    worker.join()
    assert len(raised) == 1


def test_hardware_env_on_incapable_machine_warns_and_falls_back(incapable_machine,
                                                                  monkeypatch):
    monkeypatch.setenv(ENV_BACKEND, "hardware")
    with pytest.warns(RuntimeWarning):
        file = process_specific_init()
    try:
        assert file.backend is BackendKind.EMULATED
        assert is_enabled(file)
    finally:
        process_specific_finish(file)


def test_emulated_env_init_never_warns(incapable_machine, monkeypatch, recwarn):
    monkeypatch.setenv(ENV_BACKEND, "emulated")
    file = process_specific_init()
    try:
        assert file.backend is BackendKind.EMULATED
        assert not recwarn.list
    finally:
        process_specific_finish(file)
