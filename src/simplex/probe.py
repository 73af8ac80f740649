"""System readiness probe and backend selection.

The hardware backend needs two things at once: a CPU that advertises MPX
(CPUID leaf 7, EBX bit 14) and an OS that context-switches the MPX state,
visible as XCR0 bits 3 (BNDREGS) and 4 (BNDCSR).  The stub page reads
those facts once, when it is built, and runs XGETBV only where OSXSAVE is
set, so nothing traps (see simplex.machine).  probe() judges them and
resolves which backend a process should use.  It is the one place that
judgement happens: everything else reads its `selected` field, a hardware
register context refuses through probe(flag="hardware"), and
select_backend(report) is the no-override answer.

The rule: with no override, hardware exactly when the machine is capable.
Overrides come from an explicit flag or, failing that, the SIMPLEX_BACKEND
environment variable.  Valid values are the exact lowercase strings "auto",
"hardware", and "emulated"; anything else raises BackendConfigError.
"emulated" always wins.  "hardware" on an incapable machine is strict from
the flag (HardwareUnavailableError) and soft from the environment (a
RuntimeWarning and a fallback to emulated), so scripts keep running.
"""

from __future__ import annotations

import functools
import os
import warnings
from dataclasses import dataclass
from enum import Enum

from . import machine
from .errors import BackendConfigError, HardwareUnavailableError

__all__ = [
    "BackendKind",
    "ENV_BACKEND",
    "probe",
    "select_backend",
]

ENV_BACKEND = "SIMPLEX_BACKEND"


class BackendKind(Enum):
    HARDWARE = "hardware"
    EMULATED = "emulated"

    # Hashed by identity, in C, as OpKind is: RegisterFile() keys its
    # backend table and the thread's registry by a member.
    __hash__ = object.__hash__


_VALID_OVERRIDES = {
    "auto": None,
    "hardware": BackendKind.HARDWARE,
    "emulated": BackendKind.EMULATED,
}


class OverrideSource(Enum):
    NONE = "none"
    ENV = "env"
    FLAG = "flag"

    __hash__ = object.__hash__  # probe()'s report cache keys by a member


@dataclass(frozen=True)
class ProbeReport:
    """Readiness facts plus the backend resolution made from them."""

    cpu_has_mpx: bool
    xstate_bndregs: bool
    xstate_bndcsr: bool
    os_context_saves_mpx: bool
    selected: BackendKind
    override_source: OverrideSource

    @property
    def hardware_capable(self) -> bool:
        return self.cpu_has_mpx and self.os_context_saves_mpx

    def to_dict(self) -> dict:
        return {
            "cpu_has_mpx": self.cpu_has_mpx,
            "xstate_bndregs": self.xstate_bndregs,
            "xstate_bndcsr": self.xstate_bndcsr,
            "os_context_saves_mpx": self.os_context_saves_mpx,
            "selected": self.selected.value,
            "override_source": self.override_source.value,
        }


def probe(env: dict | None = None, flag: str | None = None) -> ProbeReport:
    """Gather readiness facts and resolve the backend. Never traps.

    `env` defaults to os.environ; `flag` is a CLI-style override string that
    takes precedence over the environment variable.  Without an override,
    hardware is selected exactly when the CPU and OS are both capable;
    "emulated" always wins.  A "hardware" flag the machine cannot honor
    raises HardwareUnavailableError; the same request from the environment
    warns (RuntimeWarning) and selects emulated.  Every call reads the
    environment and refuses or warns anew; the frozen report of each
    outcome is built once, and later calls return that same object.
    """
    facts = machine.mpx_facts()
    cpu_has_mpx, bndregs, bndcsr = facts
    os_saves = bndregs and bndcsr

    if flag is not None:
        text, source = flag, OverrideSource.FLAG
    else:
        text = (os.environ if env is None else env).get(ENV_BACKEND)
        source = OverrideSource.NONE if text is None else OverrideSource.ENV
    if text is not None and text not in _VALID_OVERRIDES:
        raise BackendConfigError(
            f"unknown backend {text!r}; valid values: {', '.join(_VALID_OVERRIDES)}"
        )
    requested = _VALID_OVERRIDES.get(text)

    capable = cpu_has_mpx and os_saves
    if requested is BackendKind.HARDWARE and not capable:
        if source is OverrideSource.FLAG:
            raise HardwareUnavailableError(
                "hardware backend requested but this machine cannot provide it "
                f"(cpu_has_mpx={cpu_has_mpx}, os_context_saves_mpx={os_saves})"
            )
        warnings.warn(
            "hardware backend unavailable; falling back to emulated",
            RuntimeWarning,
            stacklevel=2,
        )
    hardware = capable and requested is not BackendKind.EMULATED
    return _report(facts, BackendKind.HARDWARE if hardware else BackendKind.EMULATED, source)


@functools.cache
def _report(facts: tuple[bool, bool, bool], selected: BackendKind,
            source: OverrideSource) -> ProbeReport:
    """The frozen report of these CPU facts and this resolution, built once."""
    cpu_has_mpx, bndregs, bndcsr = facts
    return ProbeReport(
        cpu_has_mpx=cpu_has_mpx,
        xstate_bndregs=bndregs,
        xstate_bndcsr=bndcsr,
        os_context_saves_mpx=bndregs and bndcsr,
        selected=selected,
        override_source=source,
    )


def select_backend(report: ProbeReport) -> BackendKind:
    """probe()'s choice with no override: hardware exactly when capable."""
    return BackendKind.HARDWARE if report.hardware_capable else BackendKind.EMULATED
