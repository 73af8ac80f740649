"""Readiness probe and backend selection rules."""

import json
import platform

import pytest

import simplex.machine as machine
from simplex import (
    ENV_BACKEND,
    BackendConfigError,
    BackendKind,
    HardwareUnavailableError,
    probe,
    select_backend,
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
    monkeypatch.setattr(platform, "machine", lambda: "aarch64")
    machine.stubs.cache_clear()
    try:
        assert machine.stubs() is None
        assert machine.mpx_facts() == (False, False, False)
        assert probe(env={}).selected is BackendKind.EMULATED
        with pytest.raises(HardwareUnavailableError):
            probe(env={}, flag="hardware")
    finally:
        machine.stubs.cache_clear()


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
