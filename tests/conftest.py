import os
import subprocess
import sys

import pytest

import simplex
from simplex import BackendKind, machine, process_specific_finish, process_specific_init


@pytest.fixture
def emulated_file():
    """An enabled emulated register file, torn down after the test."""
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
