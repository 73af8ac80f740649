"""Register-file data paths and lifecycle: round trips, isolation, sanitization,
gating; init resets, re-init is legal, finish destroys and disables."""

import concurrent.futures
import random
import struct
import threading
import types

import pytest

from simplex import (
    ENV_BACKEND,
    HIGH_RESET,
    LOW_RESET,
    MASK64,
    BackendKind,
    BoundsSlot,
    DisabledError,
    HardwareUnavailableError,
    RegisterFile,
    SlotId,
    is_enabled,
    probe,
    process_specific_finish,
    process_specific_init,
)

PATTERNS = [0, 1, 0xFF, 0x8000_0000_0000_0000, 0xDEAD_BEEF_CAFE_F00D, MASK64]


def test_post_init_reset_state(file):
    for slot in SlotId:
        assert file.getbnd_low(slot) == LOW_RESET
        assert file.getbnd_high(slot) == HIGH_RESET
        assert file.getbnd128(slot) == BoundsSlot(LOW_RESET, HIGH_RESET)


@pytest.mark.parametrize("value", PATTERNS)
def test_low_roundtrip_preserves_high(file, value):
    file.setbnd_high(SlotId.BND1, 0x1111)
    file.setbnd_low(SlotId.BND1, value)
    assert file.getbnd_low(SlotId.BND1) == value
    assert file.getbnd_high(SlotId.BND1) == 0x1111


@pytest.mark.parametrize("value", PATTERNS)
def test_high_roundtrip_preserves_low(file, value):
    file.setbnd_low(SlotId.BND2, 0x2222)
    file.setbnd_high(SlotId.BND2, value)
    assert file.getbnd_high(SlotId.BND2) == value
    assert file.getbnd_low(SlotId.BND2) == 0x2222


def test_setbnd128_roundtrip(file):
    file.setbnd128(SlotId.BND0, 2, 5)
    assert file.getbnd128(SlotId.BND0) == BoundsSlot(2, 5)
    file.setbnd128(SlotId.BND3, 0, 0)
    assert file.getbnd128(SlotId.BND3) == BoundsSlot(0, 0)


def test_quick_write_then_reads(file):
    file.qsetbnd_low(SlotId.BND0, 0xABCD)
    assert file.qgetbnd_low(SlotId.BND0) == 0xABCD
    assert file.getbnd_low(SlotId.BND0) == 0xABCD


def test_quick_write_high_half_detail(file):
    # Implementation detail, not API: the zero-index bounds-make leaves the
    # complement of the written value in the raw upper half.  Pinned here
    # once because backend equivalence depends on both backends doing it.
    file.qsetbnd_low(SlotId.BND1, 0x1234)
    assert file.getbnd_high(SlotId.BND1) == ~0x1234 & MASK64


def test_key_split_across_slots_reassembles(file):
    rng = random.Random(7)
    key = rng.getrandbits(512)
    words = [(key >> (64 * i)) & MASK64 for i in range(8)]
    for slot in SlotId:
        file.setbnd128(slot, words[2 * slot], words[2 * slot + 1])
    out = 0
    for slot in SlotId:
        image = file.getbnd128(slot)
        out |= image.low << (64 * (2 * slot))
        out |= image.high << (64 * (2 * slot + 1))
    assert out == key


def test_slot_isolation(file):
    rng = random.Random(11)
    stored = {}
    for slot in SlotId:
        stored[slot] = (rng.getrandbits(64), rng.getrandbits(64))
        file.setbnd128(slot, *stored[slot])
    for _ in range(100):
        slot = SlotId(rng.randrange(4))
        value = rng.getrandbits(64)
        file.setbnd_low(slot, value)
        stored[slot] = (value, stored[slot][1])
        for other in SlotId:
            assert file.getbnd128(other) == BoundsSlot(*stored[other])


def test_randomized_sequence_against_model(file):
    """2000 random ops vs a dict model; quick-write voids the model's high.

    The 16-byte scratch is modelled too and checked after every op: writes
    that spill nothing leave it alone, sanitizing reads (the half-writes
    make one) leave zeros, and a quick read leaves the slot's image, whose
    high half the model does not know after a quick write.
    """
    rng = random.Random(0xBEEF)
    unknown = object()
    model = {slot: [LOW_RESET, HIGH_RESET] for slot in SlotId}
    scratch, known = file.scratch_snapshot(), 16  # known: leading bytes the model determines

    def check_scratch():
        assert file.scratch_snapshot()[:known] == scratch[:known]

    for _ in range(2000):
        slot = SlotId(rng.randrange(4))
        op = rng.randrange(6)
        value = rng.getrandbits(64)
        if op == 0:
            file.setbnd_low(slot, value)
            model[slot][0] = value
            scratch, known = bytes(16), 16
        elif op == 1:
            file.setbnd_high(slot, value)
            model[slot][1] = value
            scratch, known = bytes(16), 16
        elif op == 2:
            high = rng.getrandbits(64)
            file.setbnd128(slot, value, high)
            model[slot] = [value, high]
        elif op == 3:
            file.qsetbnd_low(slot, value)
            model[slot] = [value, unknown]
        elif op == 4:
            file.reset_slot(slot)
            model[slot] = [LOW_RESET, HIGH_RESET]
        else:
            probe = SlotId(rng.randrange(4))
            low, high = model[probe]
            assert file.getbnd_low(probe) == low
            assert file.scratch_snapshot() == bytes(16)
            assert file.qgetbnd_low(probe) == low
            if high is unknown:
                scratch, known = struct.pack("<QQ", low, 0), 8
            else:
                scratch, known = struct.pack("<QQ", low, high), 16
            check_scratch()
            if high is not unknown:
                assert file.getbnd_high(probe) == high
                assert file.scratch_snapshot() == bytes(16)
                assert file.getbnd128(probe) == BoundsSlot(low, high)
                scratch, known = bytes(16), 16
        check_scratch()


def test_scratch_zero_after_sanitizing_reads(file):
    file.setbnd128(SlotId.BND2, 0xAAAA, 0xBBBB)
    file.getbnd_low(SlotId.BND2)
    assert file.scratch_snapshot() == bytes(16)
    file.getbnd_high(SlotId.BND2)
    assert file.scratch_snapshot() == bytes(16)
    file.getbnd128(SlotId.BND2)
    assert file.scratch_snapshot() == bytes(16)


def test_scratch_residue_after_quick_read(file):
    file.setbnd128(SlotId.BND3, 0x1122334455667788, 0x99AABBCCDDEEFF00)
    file.qgetbnd_low(SlotId.BND3)
    # The full 16-byte spilled image stays behind: low then high, LE.
    expected = struct.pack("<QQ", 0x1122334455667788, 0x99AABBCCDDEEFF00)
    assert file.scratch_snapshot() == expected
    # Any sanitizing read wipes it again.
    file.getbnd_low(SlotId.BND0)
    assert file.scratch_snapshot() == bytes(16)


def test_reset_slot_and_reset_all(file):
    for slot in SlotId:
        file.setbnd128(slot, 1 + slot, 2 + slot)
    file.reset_slot(SlotId.BND1)
    assert file.getbnd128(SlotId.BND1) == BoundsSlot(LOW_RESET, HIGH_RESET)
    assert file.getbnd128(SlotId.BND0) == BoundsSlot(1, 2)
    file.reset_all()
    for slot in SlotId:
        assert file.getbnd128(slot) == BoundsSlot(LOW_RESET, HIGH_RESET)
    file.reset_all()  # idempotent
    for slot in SlotId:
        assert file.getbnd128(slot) == BoundsSlot(LOW_RESET, HIGH_RESET)


@pytest.mark.parametrize("value", [-1, MASK64 + 1, 1 << 70])
def test_out_of_range_values_rejected(file, value):
    with pytest.raises(ValueError):
        file.setbnd_low(SlotId.BND0, value)
    with pytest.raises(ValueError):
        file.setbnd_high(SlotId.BND0, value)
    with pytest.raises(ValueError):
        file.setbnd128(SlotId.BND0, value, 0)
    with pytest.raises(ValueError):
        file.qsetbnd_low(SlotId.BND0, value)


@pytest.mark.parametrize("value", [1.5, 2.0, "3", None], ids=repr)
def test_non_integer_halves_rejected(file, value):
    # One TypeError on both backends, before any state changes; the upper
    # half of setbnd128 is checked as well as the lower.
    file.setbnd128(SlotId.BND0, 10, 20)
    writes = [(file.setbnd_low, (value,)), (file.setbnd_high, (value,)),
              (file.setbnd128, (value, 0)), (file.setbnd128, (0, value)),
              (file.qsetbnd_low, (value,))]
    for write, args in writes:
        with pytest.raises(TypeError, match="slot half must be an int"):
            write(SlotId.BND0, *args)
        assert file.getbnd128(SlotId.BND0) == BoundsSlot(10, 20), write.__name__


def test_a_bool_half_is_stored_as_an_int(file):
    file.setbnd_high(SlotId.BND0, True)
    file.setbnd_low(SlotId.BND1, True)
    file.setbnd128(SlotId.BND2, False, True)
    file.qsetbnd_low(SlotId.BND3, True)
    halves = [*file.getbnd128(SlotId.BND0), *file.getbnd128(SlotId.BND2),
              file.getbnd_low(SlotId.BND1), file.qgetbnd_low(SlotId.BND3)]
    assert [type(half) for half in halves] == [int] * 6
    assert halves[1:] == [1, 0, 1, 1, 1]


def test_rejected_write_changes_nothing(file):
    file.setbnd128(SlotId.BND0, 10, 20)
    with pytest.raises(ValueError):
        file.setbnd_low(SlotId.BND0, -1)
    assert file.getbnd128(SlotId.BND0) == BoundsSlot(10, 20)


def test_slotid_domain():
    assert SlotId(0) is SlotId.BND0
    assert SlotId(3) is SlotId.BND3
    assert int(SlotId.BND2) == 2
    with pytest.raises(ValueError):
        SlotId(4)
    with pytest.raises(ValueError):
        SlotId(-1)


def test_boundsslot_is_an_immutable_pair(file):
    slot = BoundsSlot(1, 2)
    assert repr(slot) == "BoundsSlot(low=1, high=2)"
    with pytest.raises(AttributeError):
        slot.low = 3
    file.setbnd128(SlotId.BND1, 5, 6)
    low, high = file.getbnd128(SlotId.BND1)
    assert (low, high) == (5, 6)
    assert file.getbnd128(SlotId.BND1) == (5, 6)


_ALL_OPS = [
    ("setbnd_low", (SlotId.BND0, 1)),
    ("setbnd_high", (SlotId.BND0, 1)),
    ("setbnd128", (SlotId.BND0, 1, 2)),
    ("qsetbnd_low", (SlotId.BND0, 1)),
    ("getbnd_low", (SlotId.BND0,)),
    ("getbnd_high", (SlotId.BND0,)),
    ("getbnd128", (SlotId.BND0,)),
    ("qgetbnd_low", (SlotId.BND0,)),
    ("reset_slot", (SlotId.BND0,)),
    ("reset_all", ()),
]


_SLOT_OPS = [(name, args) for name, args in _ALL_OPS if args]
_BAD_SLOTS = [4, -1, 1.5, None, "0", []]
# Values equal to a slot number select that slot, exactly as SlotId() does.
_GOOD_SLOTS = [*SlotId, 0, 1, 2, 3, True, 1.0]


@pytest.mark.parametrize("bad", _BAD_SLOTS, ids=repr)
@pytest.mark.parametrize("name,args", _SLOT_OPS, ids=[n for n, _ in _SLOT_OPS])
def test_every_accessor_rejects_non_slots(file, name, args, bad):
    for slot in SlotId:
        file.setbnd128(slot, 0x10 + slot, 0x20 + slot)
    file.qgetbnd_low(SlotId.BND1)  # scratch residue a stray wipe would clear
    before = file._peek_raw_slots(), file.scratch_snapshot()
    with pytest.raises(ValueError, match="is not a valid SlotId"):
        getattr(file, name)(bad, *args[1:])
    assert (file._peek_raw_slots(), file.scratch_snapshot()) == before


def test_accessors_accept_the_slot_domain(file):
    for good in _GOOD_SLOTS:
        slot = SlotId(good)
        file.reset_all()
        file.setbnd128(good, 0x11, 0x22)
        file.setbnd_low(good, 0x33)
        file.setbnd_high(good, 0x44)
        assert file._peek_raw_slots()[slot] == (0x33, 0x44)
        assert (file.getbnd_low(good), file.getbnd_high(good)) == (0x33, 0x44)
        assert file.getbnd128(good) == BoundsSlot(0x33, 0x44)
        file.qsetbnd_low(good, 0x55)
        assert file.qgetbnd_low(good) == 0x55
        file.reset_slot(good)
        assert file._peek_raw_slots() == [(LOW_RESET, HIGH_RESET)] * 4


@pytest.mark.parametrize("name,args", _ALL_OPS, ids=[n for n, _ in _ALL_OPS])
def test_every_operation_gated_when_disabled(backend, name, args):
    file = process_specific_init(backend)
    process_specific_finish(file)
    with pytest.raises(DisabledError):
        getattr(file, name)(*args)


def test_disabled_write_leaves_no_trace(backend):
    file = process_specific_init(backend)
    process_specific_finish(file)
    with pytest.raises(DisabledError):
        file.setbnd_low(SlotId.BND0, 0x4242)
    # Raw inspection works while disabled and must not show the value.
    for low, high in file._peek_raw_slots():
        assert low != 0x4242


def test_backend_attribute(emulated_file):
    assert emulated_file.backend is BackendKind.EMULATED
    assert isinstance(RegisterFile(BackendKind.EMULATED), RegisterFile)


def test_backend_argument_is_a_member_or_its_value(incapable_machine):
    # Resolved as a slot is: a string never picks a context of its own.
    file = process_specific_init("emulated")
    try:
        assert file.backend is BackendKind.EMULATED
    finally:
        process_specific_finish(file)
    with pytest.raises(DisabledError):
        file.getbnd_low(SlotId.BND0)
    for bad in ("bogus", "EMULATED", "auto", 1, [], BackendKind):
        with pytest.raises(ValueError, match="is not a valid BackendKind"):
            process_specific_init(bad)
    # A fresh thread has no cached context, as in the strict-demand test below.
    with concurrent.futures.ThreadPoolExecutor(1) as pool:
        error = pool.submit(process_specific_init, "hardware").exception()
    assert isinstance(error, HardwareUnavailableError)


def assert_foreign_thread_refused(file):
    """Every gated operation on `file` raises DisabledError from another thread.

    `file` must be enabled and owned by the calling thread; the refusal names
    the owner, and the owner's slots and enablement are untouched.
    """
    for slot in SlotId:
        file.setbnd128(slot, 42 + slot, 0x4300 + slot)
    before = file._peek_raw_slots()
    owner = threading.current_thread().name
    refusals = []
    foreign_view = []

    def foreign():
        calls = [(getattr(file, name), args) for name, args in _ALL_OPS]
        for fn, args in calls + [(process_specific_finish, (file,))]:
            try:
                fn(*args)
            except DisabledError as exc:
                refusals.append(str(exc))
        foreign_view.append(is_enabled(file))

    worker = threading.Thread(target=foreign)
    worker.start()
    worker.join(timeout=30)
    assert not worker.is_alive()
    assert len(refusals) == len(_ALL_OPS) + 1
    assert all(owner in message for message in refusals)
    assert foreign_view == [False]
    assert is_enabled(file)
    assert file._peek_raw_slots() == before
    assert file.getbnd_low(SlotId.BND0) == 42


def test_foreign_thread_is_refused(file):
    assert_foreign_thread_refused(file)


def _outlive_owner(monkeypatch, owner):
    """Run owner() in a thread that ends and return its result.

    A new thread often gets a dead thread's ident; pin that reuse by making
    every later get_ident() in simplex.regfile return the dead owner's.
    """
    made = []

    def body():
        made.append((owner(), threading.get_ident()))

    worker = threading.Thread(target=body)
    worker.start()
    worker.join(timeout=30)
    assert not worker.is_alive()
    (result, dead_ident), = made
    monkeypatch.setattr("simplex.regfile.threading",
                        types.SimpleNamespace(get_ident=lambda: dead_ident))
    return result


def _assert_every_operation_refused(file):
    assert not is_enabled(file)
    for name, args in _ALL_OPS:
        with pytest.raises(DisabledError):
            getattr(file, name)(*args)


def _assert_finish_refused_and_pool_kept(file, pooled):
    with pytest.raises(DisabledError):
        process_specific_finish(file)
    assert file._shares == {32: pooled}


def _init_with_a_payload(kind):
    file = process_specific_init(kind)
    file.setbnd_low(SlotId.BND0, 0x1234)
    file._shares[32] = pooled = object()
    return file, pooled


def test_a_file_outliving_its_thread_is_refused_under_a_reused_ident(backend, monkeypatch):
    file, _ = _outlive_owner(monkeypatch, lambda: _init_with_a_payload(backend))
    _assert_every_operation_refused(file)


def test_finish_under_a_reused_ident_is_refused_and_keeps_the_pool(backend, monkeypatch):
    # The thread that reuses the ident finishes the file: it is refused, as
    # from any other thread, and the pooled mapping stays.
    file, pooled = _outlive_owner(monkeypatch, lambda: _init_with_a_payload(backend))
    _assert_finish_refused_and_pool_kept(file, pooled)


def test_a_lingering_traceback_keeps_no_dead_owners_file_usable(monkeypatch, incapable_machine):
    # The owner keeps an error whose traceback holds the frames that looked
    # up its contexts, so they outlive the thread; its file stays refused.
    kept = []

    def owner():
        made = _init_with_a_payload(BackendKind.EMULATED)
        try:
            process_specific_init(BackendKind.HARDWARE)
        except HardwareUnavailableError as exc:
            kept.append(exc)
        return made

    file, pooled = _outlive_owner(monkeypatch, owner)
    assert len(kept) == 1
    _assert_every_operation_refused(file)
    _assert_finish_refused_and_pool_kept(file, pooled)


# --------------------------------------------------------------------------
# Lifecycle: process_specific_init / process_specific_finish
# --------------------------------------------------------------------------


def test_init_enables_and_resets(backend):
    file = process_specific_init(backend)
    try:
        assert is_enabled(file)
        for slot in SlotId:
            assert file.getbnd128(slot) == BoundsSlot(LOW_RESET, HIGH_RESET)
    finally:
        process_specific_finish(file)


def test_reinit_destroys_written_value(backend):
    file = process_specific_init(backend)
    file.setbnd_low(SlotId.BND0, 5)
    assert file.getbnd_low(SlotId.BND0) == 5
    file = process_specific_init(backend)
    try:
        assert file.getbnd_low(SlotId.BND0) == LOW_RESET
    finally:
        process_specific_finish(file)


def test_finish_disables_and_blocks_reads(backend):
    file = process_specific_init(backend)
    file.setbnd_low(SlotId.BND0, 9)
    process_specific_finish(file)
    assert not is_enabled(file)
    with pytest.raises(DisabledError):
        file.getbnd_low(SlotId.BND0)


def test_finish_is_idempotent(backend):
    file = process_specific_init(backend)
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


def test_no_disclosure_after_finish(backend):
    file = process_specific_init(backend)
    secret = 0x5EC2E7_C0DE
    file.setbnd_low(SlotId.BND2, secret)
    file.qgetbnd_low(SlotId.BND2)  # leave residue on purpose
    process_specific_finish(file)
    for low, high in file._peek_raw_slots():
        assert low != secret
        assert high != secret
    assert file.scratch_snapshot() == bytes(16)


def test_init_finish_init_equals_single_init(backend):
    file = process_specific_init(backend)
    process_specific_finish(file)
    file = process_specific_init(backend)
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


@pytest.mark.parametrize("facts", [(True, False, True), (True, True, False)],
                         ids=["no-bndregs", "no-bndcsr"])
def test_explicit_hardware_init_without_os_support_raises_probes_error(monkeypatch, facts):
    # probe() is the only code that refuses the hardware backend, so a fresh
    # thread's hardware context refuses with probe()'s message.
    monkeypatch.setattr("simplex.machine.mpx_facts", lambda: facts)
    with concurrent.futures.ThreadPoolExecutor(1) as pool:
        error = pool.submit(process_specific_init, BackendKind.HARDWARE).exception()
    assert isinstance(error, HardwareUnavailableError)
    assert "cpu_has_mpx=True, os_context_saves_mpx=False" in str(error)


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
