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

import sys as _sys

from .errors import *
from .probe import *
from .regfile import *
from .context import *
from .strops import *
from .hide import *
from .bench import *

# The package exports each module's public names; `probe` is the function
# here, so the modules are looked up by their full names.
__all__ = [
    name
    for module in ("errors", "probe", "regfile", "context", "strops", "hide", "bench")
    for name in _sys.modules[f"{__name__}.{module}"].__all__
]
