"""The live stub page: its decoded bytes, its protection, and MPX-less NOPs.

The sdm-hardware cases swap the stubs for a software model, so these are
the tests that read and run the machine code simplex actually maps.
"""

import contextlib
import ctypes
import hashlib
import mmap
import random
import re
import shutil
import struct
import subprocess

import pytest

import sdm
from simplex import LOW_RESET, ByteCounter, hide_split, machine, ref_op, unhide_combine

STUBS = machine.stubs()
# Only the tests that run STUBS as the mapped page need one; the portable
# table's cores and the SDM model run everywhere.
live_page = pytest.mark.skipif(STUBS is machine._PORTABLE, reason="no native stubs on this host")
aes_only = pytest.mark.skipif(not STUBS.aes,
                              reason="this CPU lacks AES-NI or SSE4.1")


def _disp(x: int) -> str:
    """objdump's displacement of block x (16 bytes each): none for block 0."""
    return f"{16 * x:#x}" if x else ""


def _advance(step: int) -> list[str]:
    """The three pointer steps both kernels take after each group."""
    return [f"add ${step:#x},%{reg}" for reg in ("rdi", "rsi", "rdx")]


def _xor_listing() -> list[str]:
    """objdump's listing of the xor kernel; the jump targets are gas's."""
    listing = ["mov %rcx,%rax", "shr $0x6,%rax", "je +0xeb",
               # At least 1 MiB with out aligned: the streaming route, else the plain one.
               "cmp $0x100000,%rcx", "jb +0x8d", "mov %edi,%r8d", "test $0xf,%r8b", "jne +0x8d"]
    for store, loop in (("movntdq", "jne +0x27"), ("movdqu", "jne +0x8d")):
        for x in range(4):
            listing += [f"movdqu {_disp(x)}(%rsi),%xmm{x}", f"movdqu {_disp(x)}(%rdx),%xmm{x + 4}",
                        f"pxor %xmm{x + 4},%xmm{x}", f"{store} %xmm{x},{_disp(x)}(%rdi)"]
        listing += [*_advance(0x40), "dec %rax", loop]
        if store == "movntdq":
            listing += ["sfence", "jmp +0xeb"]
    listing += ["mov %rcx,%r8", "shr $0x3,%r8", "and $0x7,%r8d", "je +0x112",
                "mov (%rsi),%rax", "xor (%rdx),%rax", "mov %rax,(%rdi)",
                *_advance(0x8), "dec %r8", "jne +0xf8",
                "and $0x7,%ecx", "je +0x12e",
                "mov (%rsi),%al", "xor (%rdx),%al", "mov %al,(%rdi)",
                *_advance(0x1), "dec %rcx", "jne +0x117",
                "xor %eax,%eax"]
    # Every xmm register the steps used is zeroed before ret.
    return listing + [f"pxor %xmm{x},%xmm{x}" for x in range(8)] + ["ret"]


def _split_listing() -> list[str]:
    """objdump's listing of the split kernel; the jump targets are gas's."""
    def rounds(blocks):
        return [f"{op} %xmm{key},%xmm{block}"
                for key, op in zip(range(5, 16), ["pxor"] + ["aesenc"] * 9 + ["aesenclast"])
                for block in blocks]

    def counter_block(x):
        return [f"movq %r10,%xmm{x}", f"pinsrq $0x1,%r11,%xmm{x}", "inc %r11"]

    listing = ["movdqu (%r8),%xmm5"]
    for rnd, rcon in enumerate([0x1, 0x2, 0x4, 0x8, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36]):
        prev, key = f"%xmm{5 + rnd}", f"%xmm{6 + rnd}"
        listing += [f"aeskeygenassist ${rcon:#x},{prev},%xmm0", "pshufd $0xff,%xmm0,%xmm0",
                    f"movdqa {prev},{key}", f"movdqa {prev},%xmm1",
                    *["pslldq $0x4,%xmm1", f"pxor %xmm1,{key}"] * 3, f"pxor %xmm0,{key}"]
    listing += ["mov (%r9),%r10", "mov 0x8(%r9),%r11", "mov %rcx,%rax", "shr $0x6,%rax",
                "je +0x5ba"]
    # At least 1 MiB with both shares aligned: the streaming route, else the plain one.
    listing += ["cmp $0x100000,%rcx", "jb +0x411", "mov %edi,%r8d", "or %esi,%r8d",
                "test $0xf,%r8b", "jne +0x411"]
    for store, loop in (("movntdq", "jne +0x260"), ("movdqu", "jne +0x411")):
        listing += [line for x in range(4) for line in counter_block(x)] + rounds(range(4))
        # Share A, then share B from each secret block, then plain zeros over the secret.
        listing += [f"{store} %xmm{x},{_disp(x)}(%rdi)" for x in range(4)]
        listing += [line for x in range(4) for line in (f"movdqu {_disp(x)}(%rdx),%xmm4",
                                                        f"pxor %xmm4,%xmm{x}",
                                                        f"{store} %xmm{x},{_disp(x)}(%rsi)")]
        listing += ["pxor %xmm4,%xmm4", *[f"movdqu %xmm4,{_disp(x)}(%rdx)" for x in range(4)]]
        listing += [*_advance(0x40), "dec %rax", loop]
        if store == "movntdq":
            listing += ["sfence", "jmp +0x5ba"]
    listing += ["and $0x3f,%rcx", "je +0x692"]
    listing += counter_block(0) + rounds([0])
    listing += ["cmp $0x10,%rcx", "jb +0x643", "movdqu %xmm0,(%rdi)", "movdqu (%rdx),%xmm4",
                "pxor %xmm4,%xmm0", "movdqu %xmm0,(%rsi)", "pxor %xmm4,%xmm4",
                "movdqu %xmm4,(%rdx)", *_advance(0x10), "sub $0x10,%rcx", "jne +0x5c4",
                "jmp +0x692",
                "movq %xmm0,%rax", "cmp $0x8,%rcx", "jb +0x677", "mov %rax,(%rdi)",
                "xor (%rdx),%rax", "mov %rax,(%rsi)", "movq $0x0,(%rdx)", *_advance(0x8),
                "sub $0x8,%rcx", "je +0x692", "pextrq $0x1,%xmm0,%rax",
                "mov %al,(%rdi)", "xor (%rdx),%al", "mov %al,(%rsi)", "movb $0x0,(%rdx)",
                "shr $0x8,%rax", "inc %rdi", "inc %rsi", "inc %rdx", "dec %rcx", "jne +0x677",
                "mov %r11,0x8(%r9)", "xor %eax,%eax"]
    return listing + [f"pxor %xmm{x},%xmm{x}" for x in range(16)] + ["ret"]


def _cells_listing(checked: list[str], refuse: int) -> list[str]:
    """The head of a cells kernel: load and zero the cells, then refuse unless
    n (in rcx) <= _END and each checked address lies in 1.._END - n."""
    listing = ["mov (%rdi),%rax", "mov 0x8(%rdi),%rsi", "mov 0x10(%rdi),%rdx",
               "mov 0x18(%rdi),%rcx", "xor %r8d,%r8d", "mov %r8,(%rdi)", "mov %r8,0x8(%rdi)",
               "mov %r8,0x10(%rdi)", "mov %r8,0x18(%rdi)", "movabs $0x7fffffffffffffff,%r9",
               "sub %rcx,%r9", f"jb +{refuse:#x}"]
    for reg in checked:
        listing += [f"lea -0x1(%{reg}),%r8", "cmp %r9,%r8", f"jae +{refuse:#x}"]
    return listing


# Each stub's listing up to its ret, as objdump (AT&T syntax) prints it with
# whitespace collapsed; branch targets are relative to the stub's start.
EXPECTED = {
    "cpuid": ["push %rbx", "mov %rdx,%r8", "mov %edi,%eax", "mov %esi,%ecx", "cpuid",
              "mov %eax,(%r8)", "mov %ebx,0x4(%r8)", "mov %ecx,0x8(%r8)",
              "mov %edx,0xc(%r8)", "pop %rbx", "ret"],
    "xgetbv": ["mov %edi,%ecx", "xgetbv", "shl $0x20,%rdx", "or %rdx,%rax", "ret"],
    "xsave": ["mov %rsi,%rdx", "mov %esi,%eax", "shr $0x20,%rdx", "xsave (%rdi)", "ret"],
    "xrstor": ["mov %rsi,%rdx", "mov %esi,%eax", "shr $0x20,%rdx", "xrstor (%rdi)", "ret"],
    "xor": _xor_listing(),
    # Both exits reach the sign step: the equal one with the carry clear.
    "mismatch": [
        "xor %eax,%eax", "mov %rdx,%r8", "and $0xfffffffffffffff0,%r8", "je +0x2e",
        "movdqu (%rdi,%rax,1),%xmm0", "movdqu (%rsi,%rax,1),%xmm1", "pcmpeqb %xmm1,%xmm0",
        "pmovmskb %xmm0,%ecx", "xor $0xffff,%ecx", "jne +0x40",
        "add $0x10,%rax", "cmp %r8,%rax", "jb +0xb",
        "cmp %rdx,%rax", "jae +0x4c",
        "mov (%rdi,%rax,1),%cl", "cmp (%rsi,%rax,1),%cl", "jne +0x4c",
        "inc %rax", "jmp +0x2e",
        "bsf %ecx,%ecx", "add %rcx,%rax",
        "mov (%rdi,%rax,1),%cl", "cmp (%rsi,%rax,1),%cl",
        "setb %cl", "movzbl %cl,%ecx", "lea (%rcx,%rax,2),%rax",
        "ret",
    ],
    # The key schedule stays in xmm5-xmm15 and every xmm register is zeroed
    # before ret.
    "split": _split_listing(),
    # The cells hold (A, out, B, n).  Refused (all-ones) unless n <= _END and
    # A, B and out each lie in 1.._END - n; both share bases are re-loaded
    # from the cells for every byte, and the cells are zeroed on both exits.
    "traverse": [
        "or $0xffffffffffffffff,%rax", "mov %rdi,%rsi", "mov 0x8(%rsi),%rdi",
        "mov 0x18(%rsi),%rdx", "movabs $0x7fffffffffffffff,%r9", "sub %rdx,%r9", "jb +0x61",
        "mov (%rsi),%r8", "dec %r8", "cmp %r9,%r8", "jae +0x61",
        "mov 0x10(%rsi),%r8", "dec %r8", "cmp %r9,%r8", "jae +0x61",
        "lea -0x1(%rdi),%r8", "cmp %r9,%r8", "jae +0x61",
        "xor %ecx,%ecx", "test %rdx,%rdx", "je +0x5f",
        "mov (%rsi),%r8", "mov 0x10(%rsi),%r9",
        "mov (%r8,%rcx,1),%al", "xor (%r9,%rcx,1),%al", "mov %al,(%rdi,%rcx,1)",
        "inc %rcx", "cmp %rdx,%rcx", "jb +0x45",
        "xor %eax,%eax", "xor %r8d,%r8d", "xor %r9d,%r9d",
        "mov %r8,(%rsi)", "mov %r8,0x8(%rsi)", "mov %r8,0x10(%rsi)", "mov %r8,0x18(%rsi)",
        "ret",
    ],
    # The cells are the red zone: BND2 and BND3 are spilled there for every
    # byte, and it is zeroed before ret.
    "traverse_bnd": [
        "mov %rsi,%rdx", "lea -0x20(%rsp),%rsi",
        "xor %ecx,%ecx", "test %rdx,%rdx", "je +0x32",
        "bndmov %bnd2,(%rsi)", "bndmov %bnd3,0x10(%rsi)",
        "mov (%rsi),%r8", "mov 0x10(%rsi),%r9",
        "mov (%r8,%rcx,1),%al", "xor (%r9,%rcx,1),%al", "mov %al,(%rdi,%rcx,1)",
        "inc %rcx", "cmp %rdx,%rcx", "jb +0xf",
        "xor %r8d,%r8d", "xor %r9d,%r9d",
        "mov %r8,(%rsi)", "mov %r8,0x8(%rsi)", "mov %r8,0x10(%rsi)", "mov %r8,0x18(%rsi)",
        "ret",
    ],
    **{f"bndmk{n}": [f"bndmk (%rdi,%rsi,1),%bnd{n}", "ret"] for n in range(4)},
    **{f"bndspill{n}": [f"bndmov %bnd{n},(%rdi)", "ret"] for n in range(4)},
    # The cells kernels reach their targets through the pointer slot after
    # their ret, named here by the address it holds.  slot_op's cells
    # (dst, aux, src, n) load into rax, rsi, rdx and rcx.
    "memmove_cells": _cells_listing(["rax", "rdx"], 0x5d) + [
        "mov %rax,%rdi", "mov %rdx,%rsi", "mov %rcx,%rdx", "sub $0x8,%rsp", "call *memmove",
        "add $0x8,%rsp", "xor %eax,%eax", "jmp +0x61", "or $0xffffffffffffffff,%rax", "ret"],
    "memset_cells": _cells_listing(["rax"], 0x51) + [
        "mov %rax,%rdi", "mov %rcx,%rdx", "sub $0x8,%rsp", "call *memset", "add $0x8,%rsp",
        "xor %eax,%eax", "jmp +0x55", "or $0xffffffffffffffff,%rax", "ret"],
    "memcmp_cells": _cells_listing(["rax", "rdx"], 0x51) + [
        "mov %rax,%rdi", "mov %rdx,%rsi", "mov %rcx,%rdx", "jmp *mismatch",
        "or $0xffffffffffffffff,%rax", "ret"],
    # Index = found - src, or n where memchr found nothing.
    "memchr_cells": _cells_listing(["rdx"], 0x60) + [
        "push %rdx", "push %rcx", "sub $0x8,%rsp", "mov %rdx,%rdi", "mov %rcx,%rdx",
        "call *memchr", "add $0x8,%rsp", "pop %rdx", "pop %rsi",
        "mov %rax,%rcx", "sub %rsi,%rax", "test %rcx,%rcx", "cmove %rdx,%rax",
        "jmp +0x64", "or $0xffffffffffffffff,%rax", "ret"],
    # (A, out, B, n) into (out: rdi, A: rsi, B: rdx, n: rcx), then on to xor.
    "xor_cells": _cells_listing(["rax", "rsi", "rdx"], 0x57) + [
        "mov %rsi,%rdi", "mov %rax,%rsi", "jmp *xor", "or $0xffffffffffffffff,%rax", "ret"],
}

_LINE = re.compile(r"^\s*[0-9a-f]+:\t[0-9a-f ]+\t(\S+)\s*(.*)$")
_POINTER_SLOT = re.compile(r"^\*0x[0-9a-f]+\(%rip\)\s+# (0x[0-9a-f]+)$")


def _decode(page_file, start: int, stop: int, targets: dict[int, str]) -> list[str]:
    """objdump's listing of [start, stop) of the page, through the first ret.

    An indirect call or jump through a pointer slot of the page names the
    targets entry of the address the slot holds (its hex where none matches).
    """
    listing = subprocess.run(
        ["objdump", "-D", "-b", "binary", "-m", "i386:x86-64",
         f"--start-address={start}", f"--stop-address={stop}", str(page_file)],
        capture_output=True, text=True, check=True, timeout=60).stdout
    page = page_file.read_bytes()
    decoded = []
    for line in listing.splitlines():
        match = _LINE.match(line)
        if not match:
            continue
        mnemonic, operands = match.groups()
        slot = _POINTER_SLOT.match(operands)
        if slot:
            at = int(slot.group(1), 16)
            held = int.from_bytes(page[at:at + 8], "little")
            operands = "*" + targets.get(held, hex(held))
        elif mnemonic.startswith("j"):
            operands = f"+{int(operands, 16) - start:#x}"
        decoded.append(f"{mnemonic} {operands}".strip())
        if mnemonic == "ret":
            break
    return decoded


@live_page
@pytest.mark.skipif(shutil.which("objdump") is None, reason="objdump is not installed")
def test_live_stub_page_decodes_as_written(tmp_path):
    page_file = tmp_path / "stubs.bin"
    page_file.write_bytes(STUBS._map[:])  # the mapped page itself, not a copy of the sources
    starts = sorted(STUBS._offsets.items(), key=lambda item: item[1])
    assert {name for name, _ in starts} == set(EXPECTED)
    stops = [offset for _, offset in starts[1:]] + [len(STUBS._map)]
    # What a pointer slot may hold: a libc function, or the page's mismatch or xor.
    targets = {ctypes.cast(getattr(machine.libc, name), ctypes.c_void_p).value: name
               for name in ("memmove", "memset", "memchr")}
    targets.update({STUBS._base + STUBS._offsets[name]: name for name in ("mismatch", "xor")})
    for (name, start), stop in zip(starts, stops):
        assert _decode(page_file, start, stop, targets) == EXPECTED[name], name


# A branch's displacement counts from its own end; a one-byte op but e9 takes
# a rel8, any other a rel32.
@pytest.mark.parametrize("parts, expected", [
    ((("eb", "t"), bytes(127), "t:"), ("eb7f" + "00" * 127, {"t": 129})),
    (("t:", bytes(126), ("eb", "t")), ("00" * 126 + "eb80", {"t": 0})),
    ((("eb", "t"), bytes(128), "t:"), ValueError),
    (("t:", bytes(127), ("eb", "t")), ValueError),
    ((("74", "nowhere"),), ValueError),
    (("t:", "90", "t:"), ValueError),
    # A call through a pointer slot past an alignment pad: rel32 from the
    # call's end (7) to the slot (16).
    (("90", ("ff15", "slot"), "c3", 16, "slot:", bytes(8)),
     ("90ff1509000000c3" + "00" * 16, {"slot": 16})),
], ids=["rel8+127", "rel8-128", "rel8+128", "rel8-129", "undefined", "duplicate",
        "ff15-past-pad"])
def test_asm_resolves_labels_and_refuses_what_it_cannot_encode(parts, expected):
    if expected is ValueError:
        with pytest.raises(ValueError):
            machine._asm(*parts)
    else:
        code, labels = machine._asm(*parts)
        assert (code.hex(), labels) == expected


@live_page
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


@live_page
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
    if STUBS.aes:
        assert _ctr(FIPS_KEY, FIPS_BLOCK, 16)[0] == FIPS_OUT


def test_a_refused_mprotect_gives_no_stubs(monkeypatch):
    monkeypatch.setattr(machine.libc, "mprotect", lambda *args: -1)
    machine.stubs.cache_clear()
    try:
        assert machine.stubs() is machine._PORTABLE
    finally:
        machine.stubs.cache_clear()


# --------------------------------------------------------------------------
# A table binds only the kernels its CPU can run, so no caller tests a CPU fact
# --------------------------------------------------------------------------


def test_a_table_without_aes_ni_splits_with_shake_over_its_own_xor(stubs_without_aes,
                                                                     emulated_file, monkeypatch):
    table = stubs_without_aes
    assert table.aes is False
    assert not isinstance(table.split, ctypes._CFuncPtr), "split is the AES-NI kernel"
    assert table.split.func is machine._split_shake and table.split.args == (table.xor,)
    monkeypatch.setattr(machine, "stubs", lambda: table)
    secret = bytearray(random.Random(6).randbytes(100))
    original = bytes(secret)
    hidden = hide_split(emulated_file, secret, rng=random.Random(5))
    share_a = hashlib.shake_128(random.Random(5).randbytes(32)).digest(100)
    assert bytes(hidden.share_a) == share_a
    assert bytes(hidden.share_b) == bytes(x ^ y for x, y in zip(share_a, original))
    assert secret == bytearray(100)
    assert unhide_combine(emulated_file, hidden) == original


def test_traverse_bnd_is_bound_only_where_mpx_works():
    # Without MPX bndmov is a NOP: the kernel would read stale red-zone
    # bytes as share addresses.
    assert hasattr(STUBS, "traverse_bnd") == all(STUBS.mpx)
    assert not hasattr(machine._PORTABLE, "traverse_bnd")


def test_a_hide_is_one_split_call_on_every_table(emulated_file, monkeypatch, table):
    calls = []
    for name in ("split", "xor"):
        core = getattr(table, name)
        monkeypatch.setattr(table, name, lambda *args, name=name, core=core:
                            calls.append((name, args[3])) or core(*args))
    secret = bytearray(random.Random(2).randbytes(4096 + 17))
    original = bytes(secret)
    hidden = hide_split(emulated_file, secret)
    assert calls == [("split", len(original))]
    assert secret == bytearray(len(original))
    assert unhide_combine(emulated_file, hidden) == original


# --------------------------------------------------------------------------
# The mismatch kernel: the first differing index and its sign, read no
# further than n
# --------------------------------------------------------------------------


@pytest.mark.parametrize("offset", range(16))
def test_mismatch_agrees_with_a_python_reference(offset):
    # Every length to 80 (five 16-byte blocks), every differing position and
    # the equal case, from each source offset (unaligned movdqu), on the
    # kernel and on the portable core.  Past n the buffers agree at n and
    # differ after it, so a read past n would return an index past n.
    rng = random.Random(offset)
    off_b = 15 - offset
    buf_a, buf_b = bytearray(b"\x00" * 128), bytearray(b"\xff" * 128)
    pin_a, pin_b = ((ctypes.c_ubyte * 0).from_buffer(buf) for buf in (buf_a, buf_b))
    addr_a, addr_b = ctypes.addressof(pin_a) + offset, ctypes.addressof(pin_b) + off_b
    for n in range(81):
        a = rng.randbytes(n)
        buf_a[offset:offset + n] = a
        for at in [*range(n), None]:
            b = bytearray(a)
            if at is not None:
                b[at] ^= rng.randrange(1, 256)
            buf_b[off_b:off_b + n + 1] = b + b"\x00"  # buf_a holds 0x00 at n too
            want = n if at is None else at
            # The sign bit compares the deciding bytes as unsigned chars
            # (random, so half of them are 0x80 or more).
            lower = want < n and a[want] < b[want]
            for core in (STUBS.mismatch, machine._mismatch_strided):
                assert core(addr_a, addr_b, n) == want << 1 | lower, (core, n, at)
            sign = 0 if want == n else (-1 if lower else 1)
            assert ref_op("memcmp", dst=memoryview(buf_a)[offset:], src=memoryview(buf_b)[off_b:],
                          length=n) == sign, (n, at)


@live_page
def test_mismatch_never_touches_the_page_after_n():
    # Each operand ends where a PROT_NONE page begins: a read past n faults.
    page = mmap.PAGESIZE
    region = mmap.mmap(-1, 4 * page, flags=mmap.MAP_PRIVATE)
    pin = (ctypes.c_ubyte * 0).from_buffer(region)
    base = ctypes.addressof(pin)
    mprotect = machine.libc.mprotect  # typed once, in simplex.machine
    guards = (base + page, base + 3 * page)
    try:
        for guard in guards:
            assert mprotect(guard, page, 0) == 0  # PROT_NONE
        rng = random.Random(4)
        for n in [*range(81), page - 1, page]:
            data = rng.randbytes(n)
            region[page - n:page] = region[3 * page - n:3 * page] = data
            a, b = base + page - n, base + 3 * page - n
            assert STUBS.mismatch(a, b, n) >> 1 == n
            if n:
                region[3 * page - 1] ^= 0x80
                assert STUBS.mismatch(a, b, n) >> 1 == n - 1
    finally:
        for guard in guards:
            mprotect(guard, page, mmap.PROT_READ | mmap.PROT_WRITE)
        del pin
        region.close()


# --------------------------------------------------------------------------
# The traverse kernel against its portable core (traverse_bnd is checked by
# its decoding only: without MPX its bndmov is a NOP, and it would load stale
# red-zone bytes as share addresses)
# --------------------------------------------------------------------------


@live_page
@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 300, 4096 + 17])
def test_traverse_equals_the_portable_core(n):
    rng = random.Random(n)
    a, b = bytearray(rng.randbytes(n)), bytearray(rng.randbytes(n))
    outs = [bytearray(b"\xee" * (n + 8)) for _ in range(2)]
    pins = [(ctypes.c_ubyte * 0).from_buffer(buf) for buf in (a, b, *outs)]
    addr_a, addr_b, *addr_outs = map(ctypes.addressof, pins)
    cells = machine._Cells()
    for core, out in zip((STUBS.traverse, machine._traverse_cells), addr_outs):
        cells[:] = (addr_a, out, addr_b, n)
        assert core(ctypes.addressof(cells)) == 0
    assert outs[0] == outs[1] == bytes(x ^ y for x, y in zip(a, b)) + b"\xee" * 8


# --------------------------------------------------------------------------
# The cells kernels, one foreign call each: the slot_op kernels, and the
# unhide kernels xor_cells (per pass) and traverse (per byte).  Each loads
# (slot address, plain operand, slot address, n) from the cells, zeroes them,
# and refuses before it touches a byte, on every table and on the SDM model
# --------------------------------------------------------------------------

CELLS_KERNELS = ["memmove_cells", "memset_cells", "memcmp_cells", "memchr_cells"]
UNHIDE_KERNELS = ["xor_cells", "traverse"]
# The cells as simplex packs them, slot_op's (dst, aux, src, n) and an
# unhide's (A, out, B, n), n signed as a caller may pass it.
_CELL_ARGS = struct.Struct("<QQQq")
_Pin = ctypes.c_ubyte * 0
# The role of each address cell a kernel checks; None where it checks none.
_ROLES = {"memmove_cells": ("dst", None, "src"), "memset_cells": ("dst", None, None),
          "memcmp_cells": ("dst", None, "src"), "memchr_cells": (None, None, "src"),
          **dict.fromkeys(UNHIDE_KERNELS, ("A", "out", "B"))}


@pytest.fixture(params=["live", "no-aes", "portable", "sdm"])
def cells_table(request):
    """Each table slot_op and unhide_combine may take their cells kernels
    from: the three `table` cases, and the SDM model of the sdm-hardware cases."""
    if request.param == "live":
        if STUBS is machine._PORTABLE:
            pytest.skip("no native stubs on this host")
        return STUBS
    if request.param == "no-aes":
        return request.getfixturevalue("stubs_without_aes")
    if request.param == "portable":
        return machine._PORTABLE
    return sdm.SdmMpxStubs()


def _call(kernel, *cells: int) -> tuple[int, bytes]:
    """One kernel call through fresh cells packed with cells: its result, and
    the cells after it."""
    packed = machine._Cells()
    _CELL_ARGS.pack_into(packed, 0, *cells)
    return kernel(ctypes.addressof(packed)), bytes(packed)


def _refusals(name: str, *cells: int) -> dict[str, tuple[int, int, int, int]]:
    """The cells (with n) of each call kernel `name` must refuse, given the
    three cells of one it runs: valid but for one part."""
    end = machine._END
    cases = {"negative-n": (*cells, -1), "most-negative-n": (*cells, -2**63)}
    for i, role in enumerate(_ROLES[name]):
        if role is None:
            continue
        for bad, address, n in (("zero", 0, 4), ("reset", LOW_RESET, 4),
                                ("past-the-end", end - 3, 4), ("2**63", 1 << 63, 0),
                                ("last-byte", end, 1)):
            operands = list(cells)
            operands[i] = address
            cases[f"{role}-{bad}"] = (*operands, n)
    return cases


def test_every_table_has_every_cells_kernel(cells_table):
    # A kernel added to the page cannot be missing from the portable table,
    # the model, or the tests below.
    names = [*machine._CELLS_KERNELS, "traverse"]
    assert sorted(names) == sorted(CELLS_KERNELS + UNHIDE_KERNELS)
    for name in names:
        assert callable(getattr(cells_table, name, None)), name


@pytest.mark.parametrize("name", CELLS_KERNELS)
def test_cells_kernels_agree_with_ref_op(cells_table, name):
    # Every length to 257 and 4 KiB, each operand at its own unaligned
    # offset (1-15) in a buffer with 32 bytes past it, on the kernel and on
    # ref_op over twin buffers: the same result, count and bytes.
    kernel = getattr(cells_table, name)
    rng = random.Random(name)
    for n in [*range(258), 4096]:
        at_dst, at_src = 1 + n % 15, 1 + 7 * n % 15
        dst, src = bytearray(rng.randbytes(n + 32)), bytearray(rng.randbytes(n + 32))
        aux = rng.randrange(256)
        if name == "memcmp_cells":
            src[at_src:at_src + n] = dst[at_dst:at_dst + n]
            if n and rng.random() < 0.8:
                src[at_src + rng.randrange(n)] ^= rng.randrange(1, 256)
        elif name == "memchr_cells":
            src = src.replace(bytes([aux]), bytes([aux ^ 1]))
            if n and rng.random() < 0.8:
                src[at_src + rng.randrange(n)] = aux
        twins = bytearray(dst), bytearray(src)
        addr_dst, addr_src = (ctypes.addressof(_Pin.from_buffer(buf)) for buf in (dst, src))
        got, cells = _call(kernel, addr_dst + at_dst, aux, addr_src + at_src, n)
        assert cells == bytes(32), (name, n)
        counter = ByteCounter()
        want = ref_op(name.removesuffix("_cells"), dst=memoryview(twins[0])[at_dst:],
                      src=memoryview(twins[1])[at_src:], length=n, aux=aux, counter=counter)
        if name == "memcmp_cells":
            idx = got >> 1
            assert (0 if idx == n else -1 if got & 1 else 1) == want, n
            assert min(idx + 1, n) == counter.examined, n
        elif name == "memchr_cells":
            assert (None if got == n else got) == want, n
            assert min(got + 1, n) == counter.examined, n
        else:
            assert got == 0, n
        assert (dst, src) == twins, (name, n)


@pytest.mark.parametrize("name", CELLS_KERNELS)
def test_cells_kernels_refuse_before_they_touch_a_byte(cells_table, name):
    kernel = getattr(cells_table, name)
    dst, src = bytearray(b"keep this"), bytearray(b"from here")
    addr_dst, addr_src = (ctypes.addressof(_Pin.from_buffer(buf)) for buf in (dst, src))
    for case, cells in _refusals(name, addr_dst, ord("e"), addr_src).items():
        assert _call(kernel, *cells) == (machine._REFUSED, bytes(32)), case
        assert (dst, src) == (bytearray(b"keep this"), bytearray(b"from here")), case
    # The same call on valid operands runs.
    assert _call(kernel, addr_dst, ord("e"), addr_src, 0) == (0, bytes(32))


@pytest.mark.parametrize("name", CELLS_KERNELS)
def test_cells_kernels_never_touch_the_page_after_n(cells_table, name):
    # dst and src each end where a PROT_NONE page begins: a read or write
    # past n faults.  memchr looks for a byte that is absent, memcmp
    # compares equal ranges, then ranges that differ at their last byte.
    kernel = getattr(cells_table, name)
    page = mmap.PAGESIZE
    region = mmap.mmap(-1, 4 * page, flags=mmap.MAP_PRIVATE)
    pin = _Pin.from_buffer(region)
    base = ctypes.addressof(pin)
    mprotect = machine.libc.mprotect
    guards = (base + page, base + 3 * page)
    try:
        for guard in guards:
            assert mprotect(guard, page, 0) == 0  # PROT_NONE
        rng = random.Random(9)
        for n in [*range(41), page - 1, page]:
            data = rng.randbytes(n).replace(b"\xaa", b"\xab")
            region[3 * page - n:3 * page] = data
            # dst: equal to src for memcmp, zeros for the mutators to overwrite.
            region[page - n:page] = data if name == "memcmp_cells" else bytes(n)
            dst, src = base + page - n, base + 3 * page - n
            got, cells = _call(kernel, dst, 0xAA, src, n)
            assert cells == bytes(32)
            if name == "memcmp_cells":
                assert got == n << 1
                if n:
                    region[3 * page - 1] ^= 0x80
                    assert _call(kernel, dst, 0, src, n)[0] >> 1 == n - 1
            elif name == "memchr_cells":
                assert got == n
            else:
                assert got == 0
                assert region[page - n:page] == (data if name == "memmove_cells" else b"\xaa" * n)
    finally:
        for guard in guards:
            mprotect(guard, page, mmap.PROT_READ | mmap.PROT_WRITE)
        del pin
        region.close()


@pytest.mark.parametrize("name", UNHIDE_KERNELS)
def test_unhide_kernels_xor_like_python(cells_table, name):
    # Every length to 257 and 4 KiB, each operand at its own unaligned
    # offset (1-15) in a buffer with 32 bytes past it: out gets A XOR B over
    # its n bytes and keeps every other byte, and the shares stay as they were.
    kernel = getattr(cells_table, name)
    rng = random.Random(name)
    for n in [*range(258), 4096]:
        at_a, at_out, at_b = 1 + n % 15, 1 + 7 * n % 15, 1 + 11 * n % 15
        a, b, out = (bytearray(rng.randbytes(n + 32)) for _ in range(3))
        shares = bytes(a), bytes(b)
        want = bytearray(out)
        want[at_out:at_out + n] = bytes(x ^ y for x, y in zip(a[at_a:at_a + n], b[at_b:at_b + n]))
        addr_a, addr_out, addr_b = (ctypes.addressof(_Pin.from_buffer(buf)) for buf in (a, out, b))
        got = _call(kernel, addr_a + at_a, addr_out + at_out, addr_b + at_b, n)
        assert got == (0, bytes(32)), (name, n)
        assert out == want, (name, n)
        assert (a, b) == shares, (name, n)


@pytest.mark.parametrize("name", UNHIDE_KERNELS)
def test_unhide_kernels_refuse_before_they_touch_a_byte(cells_table, name):
    kernel = getattr(cells_table, name)
    a, out, b = bytearray(b"share A"), bytearray(b"keep me"), bytearray(b"share B")
    addrs = tuple(ctypes.addressof(_Pin.from_buffer(buf)) for buf in (a, out, b))
    for case, cells in _refusals(name, *addrs).items():
        assert _call(kernel, *cells) == (machine._REFUSED, bytes(32)), case
        assert (a, out, b) == (b"share A", b"keep me", b"share B"), case
    # The same call on valid operands runs.
    assert _call(kernel, *addrs, 0) == (0, bytes(32))


@pytest.mark.parametrize("name", UNHIDE_KERNELS)
def test_unhide_kernels_never_touch_the_page_after_n(cells_table, name):
    # Share A, share B and out each end where a PROT_NONE page begins: a
    # read or write past n faults.
    kernel = getattr(cells_table, name)
    page = mmap.PAGESIZE
    region = mmap.mmap(-1, 6 * page, flags=mmap.MAP_PRIVATE)
    pin = _Pin.from_buffer(region)
    base = ctypes.addressof(pin)
    mprotect = machine.libc.mprotect
    guards = (base + page, base + 3 * page, base + 5 * page)
    try:
        for guard in guards:
            assert mprotect(guard, page, 0) == 0  # PROT_NONE
        rng = random.Random(7)
        for n in [*range(41), page - 1, page]:
            a, b = rng.randbytes(n), rng.randbytes(n)
            region[page - n:page], region[3 * page - n:3 * page] = a, b
            addr_a, addr_b, out = (guard - n for guard in guards)
            assert _call(kernel, addr_a, out, addr_b, n) == (0, bytes(32)), n
            assert region[5 * page - n:5 * page] == bytes(x ^ y for x, y in zip(a, b)), n
    finally:
        for guard in guards:
            mprotect(guard, page, mmap.PROT_READ | mmap.PROT_WRITE)
        del pin
        region.close()


# --------------------------------------------------------------------------
# The split kernel: AES-128-CTR share A, share B, and the secret wiped
# --------------------------------------------------------------------------

# FIPS-197 appendix C.1: AES-128 of this block under this key.
FIPS_KEY = bytes(range(16))
FIPS_BLOCK = bytes.fromhex("00112233445566778899aabbccddeeff")
FIPS_OUT = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
GUARD = b"\xee" * 16


def _ctr(key: bytes, block: bytes, n: int) -> tuple[bytes, bytes]:
    """Split a random n-byte secret once; (share A, counter block as written back).

    Share A is the keystream.  Each buffer has a guard past its n bytes, and
    the kernel must leave every guard and the key as they were, set share B
    to share A XOR the secret, and zero the secret.
    """
    secret = random.Random(n).randbytes(n)
    seed = bytearray(key + block)
    a, b, wiped = bytearray(n) + GUARD, bytearray(n) + GUARD, bytearray(secret) + GUARD
    pins = [(ctypes.c_ubyte * 0).from_buffer(buf) for buf in (a, b, wiped, seed)]
    addr_a, addr_b, addr_secret, addr_seed = map(ctypes.addressof, pins)
    STUBS.split(addr_a, addr_b, addr_secret, n, addr_seed, addr_seed + 16)
    assert (a[n:], b[n:], wiped[n:]) == (GUARD,) * 3, "split wrote past its n bytes"
    assert seed[:16] == key, "split wrote to its key"
    a_xor_secret = int.from_bytes(a[:n], "little") ^ int.from_bytes(secret, "little")
    assert b[:n] == a_xor_secret.to_bytes(n, "little"), "share B is not A XOR secret"
    assert wiped[:n] == bytes(n), "split left secret bytes"
    return bytes(a[:n]), bytes(seed[16:])


def _counter_blocks(block: bytes, n: int) -> tuple[bytes, bytes]:
    """The counter blocks n keystream bytes use, and the block after them."""
    nonce, counter = block[:8], int.from_bytes(block[8:], "little")
    count = -(-n // 16)
    blocks = [nonce + ((counter + i) % 2**64).to_bytes(8, "little") for i in range(count + 1)]
    return b"".join(blocks[:-1]), blocks[-1]


# Past the first block, share A under the FIPS key from the FIPS block is
# pinned by its sha256, so the four-block loop (64), a partial tail after it
# (65) and both loops with an 8-then-1-byte tail (1 MiB + 5) are checked
# without the optional cryptography package.
@aes_only
@pytest.mark.parametrize("n, stream_sha256", [
    (16, hashlib.sha256(FIPS_OUT).hexdigest()),
    (64, "86631d0d8d5822079456469ac167ce15fe2d4de2cded155c9e5f6ef81df4a63f"),
    (65, "66a5811136d69ae8c0dec8255ce885508696cb0575d2b808833c4a6bb40c871c"),
    ((1 << 20) + 5, "3f97463db6181ce26ee79823029eb2d253b23a1587b50cebc420a71b0d994535"),
], ids=["16", "64", "65", "1048581"])
def test_ctr_matches_fips_197(n, stream_sha256):
    stream, written_back = _ctr(FIPS_KEY, FIPS_BLOCK, n)
    assert stream[:16] == FIPS_OUT
    assert hashlib.sha256(stream).hexdigest() == stream_sha256
    assert written_back == _counter_blocks(FIPS_BLOCK, n)[1]


@aes_only
@pytest.mark.parametrize("counter", [0, 2**64 - 1, 2**64 - 3],
                         ids=["counter0", "counter-max", "counter-max-minus-2"])
@pytest.mark.parametrize("n", [0, 1, 15, 16, 17, 63, 64, 65, 4095, (1 << 20) + 5])
def test_ctr_equals_aes_ecb_over_the_counter_blocks(n, counter):
    algorithms = pytest.importorskip("cryptography.hazmat.primitives.ciphers.algorithms")
    ciphers = pytest.importorskip("cryptography.hazmat.primitives.ciphers")
    modes = pytest.importorskip("cryptography.hazmat.primitives.ciphers.modes")
    rng = random.Random(n * 3 + counter % 7)
    key = rng.randbytes(16)
    block = rng.randbytes(8) + counter.to_bytes(8, "little")
    blocks, after = _counter_blocks(block, n)
    encryptor = ciphers.Cipher(algorithms.AES(key), modes.ECB()).encryptor()
    stream, written_back = _ctr(key, block, n)
    assert stream == (encryptor.update(blocks) + encryptor.finalize())[:n]
    assert written_back == after  # nonce kept, counter advanced by the blocks used


@aes_only
def test_ctr_counter_wraps_without_touching_the_nonce():
    nonce = bytes.fromhex("0123456789abcdef")
    last = nonce + (2**64 - 1).to_bytes(8, "little")
    stream, written_back = _ctr(FIPS_KEY, last, 33)  # blocks 2**64-1, 0 and 1
    assert written_back == nonce + (2).to_bytes(8, "little")
    assert stream[16:32] == _ctr(FIPS_KEY, nonce + bytes(8), 16)[0]
    # The written-back block continues the stream where the call stopped.
    assert _ctr(FIPS_KEY, written_back, 16)[0] == _ctr(FIPS_KEY, last, 64)[0][48:]


# --------------------------------------------------------------------------
# The streaming route: from machine._STREAM_MIN bytes on, with every
# destination 16-byte aligned, xor and split store with movntdq.  Each size
# runs on page-aligned buffers and on buffers offset from their page: an
# offset destination must take the plain route (a movntdq there would
# fault), an offset source only makes the loads unaligned.
# --------------------------------------------------------------------------

STREAM_SIZES = [machine._STREAM_MIN + d for d in (-1, 0, 5, 69)]
STREAM_IDS = ["T-1", "T", "T+5", "T+69"]


@contextlib.contextmanager
def _spans(n: int, offsets):
    """One n-byte buffer per offset, each that far past a page boundary of
    one mapping and followed by GUARD; yields the mapping, their starts in
    it and their addresses."""
    span = -(-(n + max(offsets) + len(GUARD)) // mmap.PAGESIZE) * mmap.PAGESIZE
    region = mmap.mmap(-1, span * len(offsets), flags=mmap.MAP_PRIVATE)
    pin = (ctypes.c_ubyte * 0).from_buffer(region)
    starts = [i * span + offset for i, offset in enumerate(offsets)]
    for start in starts:
        region[start + n:start + n + len(GUARD)] = GUARD
    try:
        yield region, starts, [ctypes.addressof(pin) + start for start in starts]
    finally:
        del pin
        region.close()


def _guards_kept(region, starts, n) -> bool:
    return all(region[start + n:start + n + len(GUARD)] == GUARD for start in starts)


@live_page
@pytest.mark.parametrize("offsets", [(0, 0, 0, 0), (1, 1, 1, 1), (0, 1, 1, 0)],
                         ids=["aligned", "offset", "sources-offset"])
@pytest.mark.parametrize("n", STREAM_SIZES, ids=STREAM_IDS)
def test_xor_routes_equal_the_portable_core(n, offsets):
    # Buffers: a, b, the kernel's out and the portable core's out.
    rng = random.Random(n)
    a, b = rng.randbytes(n), rng.randbytes(n)
    with _spans(n, offsets) as (region, starts, (addr_a, addr_b, out, out_ref)):
        region[starts[0]:starts[0] + n], region[starts[1]:starts[1] + n] = a, b
        STUBS.xor(out, addr_a, addr_b, n)
        machine._xor_strided(out_ref, addr_a, addr_b, n)
        got, want = (region[start:start + n] for start in starts[2:])
        assert got == want, "the kernel and the portable core disagree"
        assert _guards_kept(region, starts, n), "xor wrote past its n bytes"


@aes_only
@pytest.mark.parametrize("offsets", [(0, 0, 0), (1, 1, 1), (0, 1, 0), (0, 0, 1)],
                         ids=["aligned", "offset", "b-offset", "secret-offset"])
@pytest.mark.parametrize("n", STREAM_SIZES, ids=STREAM_IDS)
def test_split_routes_equal_aes_ecb_over_the_counter_blocks(n, offsets):
    algorithms = pytest.importorskip("cryptography.hazmat.primitives.ciphers.algorithms")
    ciphers = pytest.importorskip("cryptography.hazmat.primitives.ciphers")
    modes = pytest.importorskip("cryptography.hazmat.primitives.ciphers.modes")
    rng = random.Random(n)
    key, block, secret = rng.randbytes(16), rng.randbytes(16), rng.randbytes(n)
    seed = (ctypes.c_ubyte * 32).from_buffer_copy(key + block)
    # Buffers: share A, share B, the secret.
    with _spans(n, offsets) as (region, (at_a, at_b, at_secret), addrs):
        region[at_secret:at_secret + n] = secret
        STUBS.split(*addrs, n, ctypes.addressof(seed), ctypes.addressof(seed) + 16)
        blocks, after = _counter_blocks(block, n)
        encryptor = ciphers.Cipher(algorithms.AES(key), modes.ECB()).encryptor()
        stream = (encryptor.update(blocks) + encryptor.finalize())[:n]
        assert region[at_a:at_a + n] == stream
        want_b = int.from_bytes(stream, "little") ^ int.from_bytes(secret, "little")
        assert region[at_b:at_b + n] == want_b.to_bytes(n, "little")
        assert region[at_secret:at_secret + n] == bytes(n), "split left secret bytes"
        assert _guards_kept(region, (at_a, at_b, at_secret), n), "split wrote past its n bytes"
    assert bytes(seed) == key + after
