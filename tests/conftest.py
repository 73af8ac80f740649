import pytest

from simplex import BackendKind, process_specific_finish, process_specific_init


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
