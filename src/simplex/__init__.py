"""Hidden 64-bit storage in the four MPX bounds registers.

The library treats BND0..BND3 as four thread-private 128-bit slots that
survive context switches and stay out of plain memory scans, but not out
of register dumps: any XSAVE of the BNDREGS component copies every payload
out (the hardware backend reads them that way from user mode), and fork
copies them into the child.  A hardware backend drives the real registers
via tiny JIT-assembled stubs; a bit-exact emulated backend provides the
same observable behavior everywhere and serves as the oracle.

Quick start:

    from simplex import process_specific_init, process_specific_finish, SlotId

    file = process_specific_init()
    file.setbnd_low(SlotId.BND0, 0xDEADBEEF)
    assert file.getbnd_low(SlotId.BND0) == 0xDEADBEEF
    process_specific_finish(file)
"""

from .errors import (
    BackendConfigError,
    DisabledError,
    DomainError,
    ForkFailedError,
    HardwareUnavailableError,
    HarnessMismatchError,
    NullSlotAddressError,
    SimplexError,
)
from .probe import ENV_BACKEND, BackendKind, probe, select_backend
from .regfile import (
    HIGH_RESET,
    LOW_RESET,
    MASK64,
    BoundsSlot,
    RegisterFile,
    SlotId,
    is_enabled,
    process_specific_finish,
    process_specific_init,
)
from .context import (
    EXPECTED_FORK_TABLE,
    EXPECTED_REINIT_TABLE,
    EXPECTED_THREAD_TABLE,
    Actor,
    fork_harness,
    reinit_harness,
    snapshot,
    spawn_inheriting,
    thread_harness,
)
from .strops import (
    ByteCounter,
    OpKind,
    byte_address,
    ref_op,
    slot_address,
    slot_op,
    view_at,
)
from .hide import HiddenBuffer, hide_split, unhide_combine
from .bench import (
    CSV_HEADER,
    REFERENCE_SIZES,
    bench_loadstore,
    bench_strops,
    bench_traversal,
    geomean,
    loadstore_ratios,
    render_csv,
    render_json,
    render_markdown,
)

__all__ = [
    # errors
    "SimplexError",
    "DisabledError",
    "HardwareUnavailableError",
    "BackendConfigError",
    "NullSlotAddressError",
    "ForkFailedError",
    "HarnessMismatchError",
    "DomainError",
    # register file
    "MASK64",
    "LOW_RESET",
    "HIGH_RESET",
    "SlotId",
    "BoundsSlot",
    "RegisterFile",
    "process_specific_init",
    "process_specific_finish",
    "is_enabled",
    # probe
    "BackendKind",
    "ENV_BACKEND",
    "probe",
    "select_backend",
    # context inheritance
    "Actor",
    "EXPECTED_FORK_TABLE",
    "EXPECTED_THREAD_TABLE",
    "EXPECTED_REINIT_TABLE",
    "snapshot",
    "spawn_inheriting",
    "fork_harness",
    "thread_harness",
    "reinit_harness",
    # slot-addressed string ops
    "OpKind",
    "ByteCounter",
    "ref_op",
    "slot_op",
    "slot_address",
    "byte_address",
    "view_at",
    # two-share hiding
    "HiddenBuffer",
    "hide_split",
    "unhide_combine",
    # benchmarks
    "REFERENCE_SIZES",
    "CSV_HEADER",
    "geomean",
    "bench_loadstore",
    "loadstore_ratios",
    "bench_traversal",
    "bench_strops",
    "render_csv",
    "render_markdown",
    "render_json",
]
