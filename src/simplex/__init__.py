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

`import simplex` loads the library: errors, probe, regfile, strops, hide
and the machine module beneath them.  The inheritance harnesses
(simplex.context) and the benchmark fixtures (simplex.bench) load on the
first lookup of one of their names, of the module itself, or of __all__
(so `from simplex import *` loads both); a process that uses neither
loads neither.  On a 2-core x86-64 VM with Python 3.11, one re-import
of simplex and simplex.cli took 17 ms without a bytecode cache and
4 ms with one, and `simplex probe --json` ran in 74 ms as a fresh
process.
"""

import importlib as _importlib

from .errors import *
from .probe import *
from .regfile import *
from .strops import *
from .hide import *

# The modules whose public names the package exports, in __all__'s order;
# `probe` is the function here, so the modules are looked up by their full
# names.  The harnesses and the fixtures load on first use.
_EXPORTED = ("errors", "probe", "regfile", "context", "strops", "hide", "bench")
_ON_FIRST_USE = ("context", "bench")


def _module(name: str):
    return _importlib.import_module(f"{__name__}.{name}")


def __getattr__(name: str):
    # Called only for a name not bound here yet.  Each value is bound once
    # found, so a later lookup is a plain attribute read.
    if name == "__all__":
        globals()[name] = value = [public for module in _EXPORTED
                                   for public in _module(module).__all__]
        return value
    if name in _ON_FIRST_USE:
        return _module(name)  # importing a submodule binds it here
    if not name.startswith("_"):
        for module in map(_module, _ON_FIRST_USE):
            if name in module.__all__:
                globals()[name] = value = getattr(module, name)
                return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
