import os
import subprocess
import sys
import threading

import pytest

import sdm
import simplex
from simplex import BackendKind, machine, process_specific_finish, process_specific_init, regfile


@pytest.fixture(params=[BackendKind.EMULATED, BackendKind.HARDWARE],
                ids=[pytest.HIDDEN_PARAM, "sdm-hardware"])
def backend(request):
    """Each backend in turn: the emulated one, and the hardware adapter over sdm.SdmMpxStubs.

    The emulated case adds nothing to the test id, so it keeps the id the
    test had before it ran on both backends; the other adds sdm-hardware.

    Every thread, the calling one included, starts the case with a fresh
    registry of contexts (simplex.regfile._tls), so no context built in it
    outlives it.  On sdm-hardware, machine.stubs() is a fresh model.  The
    patches live in their own MonkeyPatch, which a test's monkeypatch.undo()
    cannot reach; a test that patches machine.stubs itself takes
    emulated_file instead.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(regfile, "_tls", threading.local())
        if request.param is BackendKind.HARDWARE:
            model = sdm.SdmMpxStubs()
            patch.setattr(machine, "stubs", lambda: model)
        yield request.param


@pytest.fixture
def file(backend):
    """An enabled register file of each backend, torn down after the test."""
    file = process_specific_init(backend)
    yield file
    process_specific_finish(file)


@pytest.fixture
def emulated_file():
    """An enabled emulated register file, torn down after the test.

    For tests of the emulated backend's internals, and of one stub table.
    """
    file = process_specific_init(BackendKind.EMULATED)
    yield file
    process_specific_finish(file)


@pytest.fixture
def incapable_machine(monkeypatch):
    """Make every probe see a CPU and OS without MPX, whatever the host."""
    monkeypatch.setattr("simplex.machine.mpx_facts", lambda: (False, False, False))


@pytest.fixture
def capable_machine(monkeypatch):
    """Make every probe see a CPU and OS with MPX, whatever the host."""
    monkeypatch.setattr("simplex.machine.mpx_facts", lambda: (True, True, True))


@pytest.fixture(scope="session")
def stubs_without_aes():
    """A stub page built while CPUID.01H:ECX reports AES-NI (bit 25) clear.

    Only the construction sees the cleared bit; the table then runs as built.
    """
    if not isinstance(machine.stubs(), machine.MachineStubs):
        pytest.skip("no native stubs on this host")
    real = machine.MachineStubs.cpuid

    def cpuid(self, leaf, subleaf=0):
        eax, ebx, ecx, edx = real(self, leaf, subleaf)
        return eax, ebx, (ecx & ~(1 << 25) if leaf == 1 else ecx), edx

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(machine.MachineStubs, "cpuid", cpuid)
        return machine.MachineStubs()


@pytest.fixture
def run_python():
    """Run a code string in a fresh interpreter that imports this simplex.

    A crash there (say SIGSEGV) fails the test instead of killing pytest.
    """
    src = os.path.dirname(os.path.dirname(simplex.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

    def run(code: str, *args: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                              text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path))

    return run


@pytest.fixture(params=["live", "no-aes", "portable"])
def table(request, monkeypatch):
    """Each stub table in turn, as machine.stubs() returns it for the case.

    live is this host's page, no-aes a page built as on a CPU without
    AES-NI, and portable the Python table of a host where no page can run;
    live and no-aes skip where no page can run.  Take it with emulated_file:
    on sdm-hardware the table is the model.
    """
    if request.param == "portable":
        chosen = machine._PORTABLE
    elif request.param == "no-aes":
        chosen = request.getfixturevalue("stubs_without_aes")
    else:
        chosen = machine.stubs()
        if chosen is machine._PORTABLE:
            pytest.skip("no native stubs on this host")
    monkeypatch.setattr(machine, "stubs", lambda: chosen)
    return chosen
