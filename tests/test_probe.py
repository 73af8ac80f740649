"""Readiness probe and backend selection rules."""

import hashlib
import json
import platform
import random

import pytest

import simplex.machine as machine
from simplex import cli
from simplex import (
    ENV_BACKEND,
    BackendConfigError,
    BackendKind,
    ByteCounter,
    HardwareUnavailableError,
    OpKind,
    SlotId,
    byte_address,
    hide_split,
    probe,
    process_specific_finish,
    process_specific_init,
    select_backend,
    slot_op,
    unhide_combine,
)
from simplex.probe import OverrideSource, ProbeReport

INCAPABLE = ProbeReport(
    cpu_has_mpx=False,
    xstate_bndregs=False,
    xstate_bndcsr=False,
    os_context_saves_mpx=False,
    selected=BackendKind.EMULATED,
    override_source=OverrideSource.NONE,
)
CAPABLE = ProbeReport(
    cpu_has_mpx=True,
    xstate_bndregs=True,
    xstate_bndcsr=True,
    os_context_saves_mpx=True,
    selected=BackendKind.HARDWARE,
    override_source=OverrideSource.NONE,
)


def test_probe_never_traps_and_is_deterministic():
    first = probe(env={})
    second = probe(env={})
    assert first == second
    assert first.selected in (BackendKind.HARDWARE, BackendKind.EMULATED)


def test_selected_hardware_implies_capable():
    report = probe(env={})
    if report.selected is BackendKind.HARDWARE:
        assert report.cpu_has_mpx and report.os_context_saves_mpx
    assert report.os_context_saves_mpx == (report.xstate_bndregs and report.xstate_bndcsr)


def test_env_override_emulated():
    report = probe(env={ENV_BACKEND: "emulated"})
    assert report.selected is BackendKind.EMULATED
    assert report.override_source is OverrideSource.ENV


def test_env_override_auto_keeps_machine_choice():
    plain = probe(env={})
    auto = probe(env={ENV_BACKEND: "auto"})
    assert auto.selected is plain.selected
    assert auto.override_source is OverrideSource.ENV


def test_flag_beats_env():
    report = probe(env={ENV_BACKEND: "emulated"}, flag="auto")
    assert report.override_source is OverrideSource.FLAG


@pytest.mark.parametrize("bad", ["Hardware", "EMULATED", "hw", "on", " emulated", ""])
def test_unknown_override_values_rejected(bad):
    listed = "; valid values: auto, hardware, emulated$"
    with pytest.raises(BackendConfigError, match=listed):
        probe(env={ENV_BACKEND: bad})
    with pytest.raises(BackendConfigError, match=listed):
        probe(env={}, flag=bad)


def test_unsatisfiable_hardware_env_degrades_in_probe(incapable_machine):
    with pytest.warns(RuntimeWarning):
        report = probe(env={ENV_BACKEND: "hardware"})
    assert report.selected is BackendKind.EMULATED
    assert report.override_source is OverrideSource.ENV


def test_unsatisfiable_hardware_flag_raises_in_probe(incapable_machine):
    with pytest.raises(HardwareUnavailableError, match="cpu_has_mpx=False") as info:
        probe(env={}, flag="hardware")
    assert "os_context_saves_mpx=False" in str(info.value)


@pytest.mark.parametrize("source", ["env", "flag"])
def test_emulated_override_never_warns(incapable_machine, recwarn, source):
    report = (probe(env={ENV_BACKEND: "emulated"}) if source == "env"
              else probe(env={}, flag="emulated"))
    assert report.selected is BackendKind.EMULATED
    assert not recwarn.list


def test_select_backend_auto():
    assert select_backend(INCAPABLE) is BackendKind.EMULATED
    assert select_backend(CAPABLE) is BackendKind.HARDWARE


@pytest.mark.parametrize("env, flag, expected", [
    ({}, None, BackendKind.HARDWARE),
    ({ENV_BACKEND: "hardware"}, None, BackendKind.HARDWARE),
    ({}, "hardware", BackendKind.HARDWARE),
    ({ENV_BACKEND: "emulated"}, None, BackendKind.EMULATED),
    ({}, "emulated", BackendKind.EMULATED),
])
def test_capable_machine_selection(capable_machine, recwarn, env, flag, expected):
    report = probe(env=env, flag=flag)
    assert report.selected is expected
    assert select_backend(report) is BackendKind.HARDWARE  # no override applied
    assert not recwarn.list


def test_no_helpers_off_x86_64(monkeypatch):
    # The host's own selection, not a patched stubs(): every caller below
    # must reach the portable table through machine.stubs(), the CLI too.
    monkeypatch.setattr(platform, "machine", lambda: "aarch64")
    monkeypatch.delenv(ENV_BACKEND, raising=False)
    machine.stubs.cache_clear()
    try:
        stubs = machine.stubs()
        assert stubs is machine._PORTABLE
        assert machine.mpx_facts() == (False, False, False)
        assert probe(env={}).selected is BackendKind.EMULATED
        with pytest.raises(HardwareUnavailableError):
            probe(env={}, flag="hardware")
        file = process_specific_init(BackendKind.EMULATED)
        try:
            # Past one stride, so both portable cores cross a stride edge.
            n = machine._BLOCK + 17
            secret = bytearray(random.Random(3).randbytes(n))
            original = bytes(secret)
            hidden = hide_split(file, secret, rng=random.Random(4))
            assert secret == bytearray(n)
            seed = random.Random(4).randbytes(32)
            assert bytes(hidden.share_a) == hashlib.shake_128(seed).digest(n)
            for reload in ("per-pass", "per-byte"):
                assert unhide_combine(file, hidden, reload=reload) == original
            a, b = bytearray(2 * n), bytearray(2 * n)
            b[machine._BLOCK + 9] = 1
            file.qsetbnd_low(SlotId.BND0, byte_address(a))
            file.qsetbnd_low(SlotId.BND1, byte_address(b))
            counter = ByteCounter()
            assert slot_op(OpKind.MEMCMP, file, dst_slot=SlotId.BND0, src_slot=SlotId.BND1,
                           length=2 * n, counter=counter) == -1
            assert counter.examined == machine._BLOCK + 10
        finally:
            process_specific_finish(file)
        # Selftest hides and unhides 1024 bytes, the traversal bench 4096.
        traverse, split, traversed, hidden = stubs.traverse, stubs.split, [], []
        monkeypatch.setattr(stubs, "traverse", lambda cells: traversed.append(
            machine._Cells.from_address(cells)[3]) or traverse(cells))
        monkeypatch.setattr(stubs, "split", lambda *args: hidden.append(args[3]) or split(*args))
        traversal = ["bench", "traversal", "--sizes", "4K", "--runs", "3", "--iters", "2",
                     "--reload"]
        for argv in (["selftest"], ["bench", "strops", "--sizes", "4K", "--runs", "3"],
                     traversal + ["per-pass"], traversal + ["per-byte"]):
            assert cli.main(argv) == 0, argv
        assert {1024, 4096} <= set(traversed), sorted(set(traversed))
        assert {1024, 4096} <= set(hidden), sorted(set(hidden))
    finally:
        machine.stubs.cache_clear()


def test_facts_are_read_once_when_the_page_is_built(monkeypatch):
    stubs = machine.stubs()
    if stubs is machine._PORTABLE:
        pytest.skip("no stub page on this host")

    def read_again(*args):
        raise AssertionError("a CPU fact was read after the page was built")

    monkeypatch.setattr(stubs, "cpuid", read_again)
    monkeypatch.setattr(stubs, "xgetbv", read_again)
    monkeypatch.delenv(ENV_BACKEND, raising=False)
    assert probe().cpu_has_mpx is stubs.mpx[0]
    assert probe(flag="emulated").selected is BackendKind.EMULATED
    process_specific_finish(process_specific_init(BackendKind.EMULATED))


def test_report_to_dict_schema():
    report = probe(env={})
    payload = report.to_dict()
    assert set(payload) == {
        "cpu_has_mpx",
        "xstate_bndregs",
        "xstate_bndcsr",
        "os_context_saves_mpx",
        "selected",
        "override_source",
    }
    round_tripped = json.loads(json.dumps(payload))
    assert round_tripped == payload
    assert isinstance(payload["selected"], str)


def test_hardware_capable_property():
    assert CAPABLE.hardware_capable
    assert not INCAPABLE.hardware_capable
    half = ProbeReport(True, False, False, False, BackendKind.EMULATED, OverrideSource.NONE)
    assert not half.hardware_capable


def test_probe_returns_one_report_per_outcome_and_rereads_every_call(monkeypatch):
    monkeypatch.delenv(ENV_BACKEND, raising=False)
    plain = probe()
    assert probe() is plain and probe(env={}) is plain
    monkeypatch.setenv(ENV_BACKEND, "emulated")  # read on the next call, not cached
    env = probe()
    assert env.override_source is OverrideSource.ENV and env.selected is BackendKind.EMULATED
    assert probe(env={ENV_BACKEND: "emulated"}) is env
    assert probe(flag="emulated").override_source is OverrideSource.FLAG
    monkeypatch.setenv(ENV_BACKEND, "bogus")
    for _ in range(2):  # refused on every call
        with pytest.raises(BackendConfigError):
            probe()


def test_probe_warns_and_raises_on_every_call_and_follows_the_facts(incapable_machine,
                                                                     monkeypatch):
    for _ in range(2):
        with pytest.warns(RuntimeWarning):
            degraded = probe(env={ENV_BACKEND: "hardware"})
        with pytest.raises(HardwareUnavailableError):
            probe(env={}, flag="hardware")
    assert not degraded.hardware_capable
    monkeypatch.setattr("simplex.machine.mpx_facts", lambda: (True, True, True))
    capable = probe(env={ENV_BACKEND: "hardware"})
    assert capable.hardware_capable and capable.selected is BackendKind.HARDWARE
