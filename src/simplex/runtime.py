"""Per-thread lifecycle: enable, reset, and tear down the register file.

process_specific_init() turns the calling thread's MPX context on and puts
every slot into the reset state (raw low = all-ones, raw high = zero).
Calling it again is legal and simply resets the slots.

process_specific_finish() destroys stored payloads and disables the
context.  Afterward BND1..BND3 and BND0's lower half sit at their reset
values.  BND0's upper half is backend-specific: the emulated backend pins
it to the deterministic reset value, while on hardware it ends up holding
an unpredictable value whose only stable property is a set most-significant
bit - so that is all anyone may assume there.  Finishing twice is a no-op
the second time; nothing readable survives either way.
"""

from __future__ import annotations

import os
import struct

from .probe import probe
from .regfile import HIGH_RESET, LOW_RESET, BackendKind, RegisterFile, SlotId

__all__ = ["process_specific_init", "process_specific_finish", "is_enabled"]


def process_specific_init(backend: BackendKind | None = None) -> RegisterFile:
    """Enable the calling thread's register file and reset all four slots.

    backend=None takes probe().selected, so SIMPLEX_BACKEND applies with
    probe()'s rule: "hardware" on an incapable machine warns and falls back
    to emulated.  Passing BackendKind.HARDWARE explicitly is a strict demand
    and raises HardwareUnavailableError on machines that cannot honor it.
    """
    file = RegisterFile(probe().selected if backend is None else backend)
    file._ctx.enable()
    file.reset_all()
    return file


def process_specific_finish(file: RegisterFile) -> None:
    """Destroy slot contents and disable the file. Idempotent.

    Slots are reset while the context is still enabled: on hardware the
    bounds-make instruction becomes a NOP once MPX is off, and registers
    left un-reset would still be visible to an XSAVE afterwards.  BND0's
    upper half gets the backend-specific post-finalize value described in
    the module docstring.
    """
    ctx = file._ctx
    if not ctx.enabled:
        return
    for slot in (SlotId.BND1, SlotId.BND2, SlotId.BND3):
        ctx.make_bounds(slot, LOW_RESET, HIGH_RESET)
    if file.backend is BackendKind.HARDWARE:
        (noise,) = struct.unpack("<Q", os.urandom(8))
        bnd0_high = noise | (1 << 63)
    else:
        bnd0_high = HIGH_RESET
    ctx.make_bounds(SlotId.BND0, LOW_RESET, bnd0_high)
    ctx.sanitize_scratch()
    ctx.disable()


def is_enabled(file: RegisterFile) -> bool:
    """True while the file accepts accessor and mutator operations."""
    return file._ctx.enabled
