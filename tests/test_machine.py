"""The live stub page: its decoded bytes, its protection, and MPX-less NOPs.

The hardware-adapter tests swap the stubs for a software model, so these
are the tests that read and run the machine code simplex actually maps.
"""

import ctypes
import re
import shutil
import subprocess

import pytest

from simplex import machine

STUBS = machine.stubs()
pytestmark = pytest.mark.skipif(STUBS is None, reason="no native stubs on this host")

# Each stub's listing up to its ret, as objdump (AT&T syntax) prints it with
# whitespace collapsed; branch targets are relative to the stub's start.
EXPECTED = {
    "cpuid": ["push %rbx", "mov %rdx,%r8", "mov %edi,%eax", "mov %esi,%ecx", "cpuid",
              "mov %eax,(%r8)", "mov %ebx,0x4(%r8)", "mov %ecx,0x8(%r8)",
              "mov %edx,0xc(%r8)", "pop %rbx", "ret"],
    "xgetbv": ["mov %edi,%ecx", "xgetbv", "shl $0x20,%rdx", "or %rdx,%rax", "ret"],
    "xsave": ["mov %rsi,%rdx", "mov %esi,%eax", "shr $0x20,%rdx", "xsave (%rdi)", "ret"],
    "xrstor": ["mov %rsi,%rdx", "mov %esi,%eax", "shr $0x20,%rdx", "xrstor (%rdi)", "ret"],
    "xor": [
        "mov %rcx,%r8", "shr $0x3,%rcx", "je +0x23",
        "mov (%rsi),%rax", "xor (%rdx),%rax", "mov %rax,(%rdi)",
        "add $0x8,%rsi", "add $0x8,%rdx", "add $0x8,%rdi", "dec %rcx", "jne +0x9",
        "and $0x7,%r8", "je +0x3d",
        "mov (%rsi),%al", "xor (%rdx),%al", "mov %al,(%rdi)",
        "inc %rsi", "inc %rdx", "inc %rdi", "dec %r8", "jne +0x29",
        "ret",
    ],
    **{f"bndmk{n}": [f"bndmk (%rdi,%rsi,1),%bnd{n}", "ret"] for n in range(4)},
    **{f"bndspill{n}": [f"bndmov %bnd{n},(%rdi)", "ret"] for n in range(4)},
}

_LINE = re.compile(r"^\s*[0-9a-f]+:\t[0-9a-f ]+\t(\S+)\s*(.*)$")


def _decode(page_file, start: int, stop: int) -> list[str]:
    """objdump's listing of [start, stop) of the page, through the first ret."""
    listing = subprocess.run(
        ["objdump", "-D", "-b", "binary", "-m", "i386:x86-64",
         f"--start-address={start}", f"--stop-address={stop}", str(page_file)],
        capture_output=True, text=True, check=True, timeout=60).stdout
    decoded = []
    for line in listing.splitlines():
        match = _LINE.match(line)
        if not match:
            continue
        mnemonic, operands = match.groups()
        if mnemonic.startswith("j"):
            operands = f"+{int(operands, 16) - start:#x}"
        decoded.append(f"{mnemonic} {operands}".strip())
        if mnemonic == "ret":
            break
    return decoded


@pytest.mark.skipif(shutil.which("objdump") is None, reason="objdump is not installed")
def test_live_stub_page_decodes_as_written(tmp_path):
    page_file = tmp_path / "stubs.bin"
    page_file.write_bytes(STUBS._map[:])  # the mapped page itself, not a copy of the sources
    starts = sorted(STUBS._offsets.items(), key=lambda item: item[1])
    assert {name for name, _ in starts} == set(EXPECTED)
    stops = [offset for _, offset in starts[1:]] + [len(STUBS._map)]
    for (name, start), stop in zip(starts, stops):
        assert _decode(page_file, start, stop) == EXPECTED[name], name


def test_bnd_stubs_are_nops_without_mpx():
    if machine.mpx_facts()[0]:
        pytest.skip("this CPU has MPX; its bnd stubs are not NOPs")
    target = bytearray(b"\xab" * 16)
    addr = ctypes.addressof((ctypes.c_ubyte * 16).from_buffer(target))
    for slot in range(4):
        STUBS.bndmk(slot, 0x1234_5678, 0x100)
        STUBS.bndmov_spill(slot, addr)
        assert target == b"\xab" * 16, f"bnd{slot} wrote its spill target"


def _maps_line(address: int) -> str:
    with open("/proc/self/maps") as maps:
        for line in maps:
            start, end = (int(x, 16) for x in line.split()[0].split("-"))
            if start <= address < end:
                return line
    raise AssertionError(f"{address:#x} is in no mapping")


def test_stub_page_is_read_execute_and_runs():
    try:
        line = _maps_line(STUBS._base)
    except FileNotFoundError:
        pytest.skip("no /proc/self/maps on this host")
    assert line.split()[1] == "r-xp", line
    vendor = STUBS.cpuid(0)  # the stubs still run once the page is sealed
    assert vendor[0] >= 1
    a, b, out = bytearray(b"\x0f" * 11), bytearray(range(11)), bytearray(11)
    pins = [(ctypes.c_ubyte * 11).from_buffer(buf) for buf in (out, a, b)]
    STUBS.xor(*map(ctypes.addressof, pins), 11)
    assert out == bytes(x ^ 0x0F for x in range(11))
