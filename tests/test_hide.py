"""Two-share hiding: where it lives, what HiddenBuffer carries, and its one kernel call."""

import array
import collections
import copy
import ctypes
import dataclasses
import importlib
import json
import mmap
import os
import queue
import random
import resource
import sys
import threading
import weakref

import pytest

import simplex
import simplex.cli
import simplex.hide
import simplex.machine
from simplex import HiddenBuffer, SlotId, byte_address, hide_split, unhide_combine
from test_strops import count_gates, count_reads, refuse_accessors


def test_hiding_lives_in_simplex_hide():
    assert not dataclasses.is_dataclass(HiddenBuffer)
    assert (HiddenBuffer.slot_a, HiddenBuffer.slot_b) == (SlotId.BND2, SlotId.BND3)


def test_a_buffer_cannot_be_built_from_two_shares():
    # Only hide_split makes a HiddenBuffer, over a mapping its file's pool lends.
    with pytest.raises(TypeError):
        HiddenBuffer(bytearray(8), bytearray(8))


EXPORTED = ["errors", "probe", "regfile", "context", "strops", "hide", "bench"]


@pytest.mark.parametrize("name", EXPORTED)
def test_module_surface_is_exported_once(name):
    # A name in two modules' __all__ would be shadowed by the later star import.
    module = importlib.import_module(f"simplex.{name}")
    exported = [public for other in EXPORTED
                for public in importlib.import_module(f"simplex.{other}").__all__]
    assert sorted(simplex.__all__) == sorted(exported)
    for public in module.__all__:
        assert exported.count(public) == 1
        assert getattr(simplex, public) is getattr(module, public)
    assert not set(simplex.__all__) & {*simplex.machine.__all__, *simplex.cli.__all__}


def test_every_exported_error_is_a_simplex_error():
    # One except clause catches the package's errors of state and environment.
    for name in simplex.errors.__all__:
        assert issubclass(getattr(simplex.errors, name), simplex.errors.SimplexError), name


aes_only = pytest.mark.skipif(not simplex.machine.stubs().aes,
                              reason="no AES-NI kernel on this host")


class _CountingStubs:
    """The real stub table, recording the name of every stub called."""

    def __init__(self, real) -> None:
        self.real, self.calls = real, []

    def __getattr__(self, name):
        attr = getattr(self.real, name)
        if not callable(attr):
            return attr

        def call(*args):
            self.calls.append(name)
            return attr(*args)
        return call


@aes_only
@pytest.mark.parametrize("size", [32, 4096 + 17])
def test_hide_is_one_stub_call(emulated_file, monkeypatch, size):
    stubs = _CountingStubs(simplex.machine.stubs())
    monkeypatch.setattr(simplex.machine, "stubs", lambda: stubs)
    secret = bytearray(random.Random(size).randbytes(size))
    original = bytes(secret)
    hidden = hide_split(emulated_file, secret)
    assert stubs.calls == ["split"]
    assert secret == bytearray(size)
    assert unhide_combine(emulated_file, hidden) == original
    assert "ctr" not in stubs.real._offsets and not hasattr(stubs.real, "ctr")


@aes_only
def test_seeded_shares_are_pinned(emulated_file):
    # Made with the AES-NI route before hiding became one kernel call; a
    # change to the keystream, the seed layout or the split shows here.
    hidden = hide_split(emulated_file, bytearray(range(100)), rng=random.Random(5))
    assert bytes(hidden.share_a[:32]) == bytes.fromhex(
        "71fd1f3c050ac7192e14212a54cd1a0b1052c13543bed5a2d9d37a110703a7ae")
    assert bytes(hidden.share_b[:32]) == bytes.fromhex(
        "71fc1d3f010fc11e261d2b2158c014040043d32657abc3b5c1ca600a1b1eb9b1")


# -- the shares' mapping: the file's pool, wipes and release rules ------------


def _share_addresses(hidden) -> set[int]:
    return {byte_address(hidden.share_a), byte_address(hidden.share_b)}


def _vm_flags(addr: int) -> list[str] | None:
    """VmFlags of the /proc/self/smaps mapping holding addr; None if none does."""
    with open("/proc/self/smaps") as smaps:
        inside = False
        for line in smaps:
            head = line.split(maxsplit=1)[0]
            if "-" in head and not head.endswith(":"):
                start, end = (int(x, 16) for x in head.split("-"))
                inside = start <= addr < end
            elif inside and head == "VmFlags:":
                return line.split()[1:]
    return None


needs_smaps = pytest.mark.skipif(not os.path.exists("/proc/self/smaps"),
                                 reason="no /proc/self/smaps on this host")


@pytest.mark.parametrize("release", ["destroy", "drop"])
def test_released_regions_read_zero_and_serve_the_next_hide(file, release):
    n = 4096 + 17
    hidden = hide_split(file, bytearray(random.Random(1).randbytes(n)))
    used = _share_addresses(hidden)
    region = hidden._region
    if release == "destroy":
        hidden.destroy()
        hidden.destroy()  # idempotent
    else:
        del hidden
    assert file._shares[n] is region  # the mapping goes back to the pool
    for addr in used:  # still mapped: the pool holds it
        assert ctypes.string_at(addr, n) == bytes(n)
    again = hide_split(file, bytearray(random.Random(2).randbytes(n)))
    assert _share_addresses(again) == used
    assert n not in file._shares


# In a fresh interpreter, so no other file's mapping can sit next to the
# one under test and merge with it in /proc/self/smaps.
ONE_MAPPING = """
import json, mmap, sys
import simplex

simplex.machine.stubs()  # maps the stub page now, not inside the first hide
calls, real = [], mmap.mmap
mmap.mmap = lambda *args, **kwargs: calls.append(args) or real(*args, **kwargs)

def dd_mappings(*addresses):
    found = []
    with open("/proc/self/smaps") as smaps:
        for line in smaps:
            head = line.split(maxsplit=1)[0]
            if "-" in head and not head.endswith(":"):
                start, end = (int(x, 16) for x in head.split("-"))
            elif head == "VmFlags:" and "dd" in line.split()[1:]:
                if any(start <= addr < end for addr in addresses):
                    found.append([start, end])
    return found

for n in json.loads(sys.argv[1]):
    file = simplex.process_specific_init(simplex.BackendKind.EMULATED)
    for route in ("fresh", "pooled"):
        del calls[:]
        hidden = simplex.hide_split(file, bytearray(b"m" * n))
        a, b = (simplex.byte_address(share) for share in (hidden.share_a, hidden.share_b))
        print(json.dumps({"n": n, "route": route, "mmap_calls": len(calls),
                          "one_obj": hidden.share_a.obj is hidden.share_b.obj,
                          "lengths": [len(hidden.share_a), len(hidden.share_b)],
                          "b_minus_a": b - a,
                          "dd": [[s - a, e - a] for s, e in dd_mappings(a, b)]}))
        hidden.destroy()
    simplex.process_specific_finish(file)
"""


@needs_smaps
def test_both_shares_live_in_one_mapping(run_python):
    # Share B starts `span` bytes past share A, span being n rounded up to a
    # page: one mapping of two spans, so no page holds bytes of both shares.
    sizes = [1, 32, 4096, 4113, 1 << 20]
    done = run_python(ONE_MAPPING, json.dumps(sizes))
    assert done.returncode == 0, done.stderr
    rows = [json.loads(line) for line in done.stdout.splitlines()]
    assert [(row["n"], row["route"]) for row in rows] == [
        (n, route) for n in sizes for route in ("fresh", "pooled")]
    for row in rows:
        n = row["n"]
        span = -(-n // mmap.PAGESIZE) * mmap.PAGESIZE
        assert row["mmap_calls"] == (1 if row["route"] == "fresh" else 0), row
        assert row["one_obj"] and row["lengths"] == [n, n], row
        assert row["b_minus_a"] == span, row
        assert row["dd"] == [[0, 2 * span]], row


UNHIDE_AFTER_DESTROY = """
import sys
from simplex import (BackendKind, NullSlotAddressError, hide_split, process_specific_init,
                     unhide_combine)
file = process_specific_init(BackendKind.EMULATED)
n = 1 << 16
victim = hide_split(file, bytearray(b"v" * n))
hide_split(file, bytearray(b"f" * n)).destroy()  # the pool now holds a mapping of this length
addresses = [file.getbnd_low(slot) for slot in (victim.slot_a, victim.slot_b)]
victim.destroy()  # the pool is full, so the victim's mapping is unmapped
for slot, address in zip((victim.slot_a, victim.slot_b), addresses):
    file.qsetbnd_low(slot, address)
try:
    unhide_combine(file, victim, reload=sys.argv[1])
except NullSlotAddressError as exc:
    print("refused:", exc)
"""


@pytest.mark.parametrize("reload", ["per-pass", "per-byte"])
def test_unhide_after_destroy_is_refused(run_python, reload):
    done = run_python(UNHIDE_AFTER_DESTROY, reload)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("refused:") and "destroyed" in done.stdout


@pytest.mark.parametrize("holder", ["slice", "pin", "mmap"])
def test_a_region_still_in_use_is_wiped_but_not_reused(file, holder):
    n = 300
    hidden = hide_split(file, bytearray(b"s" * n))
    used = _share_addresses(hidden)
    region = weakref.ref(hidden._region[0])
    held = {"slice": lambda share: share[7:],
            "pin": simplex.strops._Pin.from_buffer,
            "mmap": lambda share: share.obj}[holder](hidden.share_a)
    del hidden
    for addr in used:
        assert ctypes.string_at(addr, n) == bytes(n)
    assert n not in file._shares and not region().closed
    for _ in range(3):
        assert not used & _share_addresses(hide_split(file, bytearray(n)))
    del held  # the last use goes, and the mapping with it
    assert region() is None


def test_a_release_after_finish_unmaps(file):
    n = 5000
    live = hide_split(file, bytearray(b"l" * n))
    hide_split(file, bytearray(b"p" * n))  # dropped: its mapping goes to the pool
    pooled = file._shares[n]
    live_region = live._region
    assert not pooled[0].closed and not live_region[0].closed
    simplex.process_specific_finish(file)
    assert file._shares is None
    live.destroy()
    assert live_region[0].closed


@needs_smaps
def test_finish_unmaps_the_pooled_regions(backend):
    file = simplex.process_specific_init(backend)
    hidden = hide_split(file, bytearray(b"q" * 9000))
    used = _share_addresses(hidden)
    del hidden
    assert all(_vm_flags(addr) is not None for addr in used)
    simplex.process_specific_finish(file)
    assert all(_vm_flags(addr) is None for addr in used)


def test_the_pool_keeps_one_released_hide_per_length(file):
    buffers = [hide_split(file, bytearray(b"x" * 64)) for _ in range(3)]
    entries = [hidden._region for hidden in buffers]
    del buffers
    pooled = file._shares[64]
    assert [entry[0].closed for entry in entries] == [entry is not pooled for entry in entries]
    assert not pooled[0].closed


def test_concurrent_drops_pool_exactly_one_mapping(file):
    # Eight drops released at once: one mapping is pooled, the rest unmapped.
    # This pins the rule; it need not reproduce a race.
    n, count = 128, 8
    buffers = [hide_split(file, bytearray(b"b" * n)) for _ in range(count)]
    entries = [hidden._region for hidden in buffers]
    barrier = threading.Barrier(count)

    def drop(hidden):
        barrier.wait(timeout=30)
        hidden.destroy()

    threads = [threading.Thread(target=drop, args=(hidden,)) for hidden in buffers]
    del buffers
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    pooled = file._shares[n]
    assert [entry[0].closed for entry in entries] == [entry is not pooled for entry in entries]
    assert sum(entry is pooled for entry in entries) == 1


@aes_only
def test_a_second_hide_of_a_length_takes_no_page_faults(emulated_file):
    n = 1 << 20
    secret = bytearray(random.Random(3).randbytes(n))
    hide_split(emulated_file, bytearray(secret)).destroy()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    hidden = hide_split(emulated_file, secret)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 64, f"{faults} minor faults; {n // 4096} pages would fault fresh"
    assert hidden.share_a != hidden.share_b


@needs_smaps
def test_share_regions_stay_out_of_core_dumps(file):
    hidden = hide_split(file, bytearray(b"d" * 100))
    for addr in _share_addresses(hidden):
        assert "dd" in _vm_flags(addr)


def test_a_buffer_cannot_be_copied(file):
    hidden = hide_split(file, bytearray(b"c" * 64))
    with pytest.raises(TypeError, match="cannot be copied"):
        copy.copy(hidden)
    region = hidden._region
    hidden.destroy()
    assert file._shares[64] is region and not region[0].closed


@pytest.mark.parametrize("reload", ["per-pass", "per-byte"])
def test_a_destroy_during_unhide_neither_pools_nor_unmaps_the_mapping(
        emulated_file, monkeypatch, reload):
    # As if another thread destroyed the buffer while the GIL-free xor_cells
    # or traverse kernel reads the shares: the mapping is wiped but must stay
    # mapped, and out of the pool, until the call returns.
    n = 4096 + 17
    hidden = hide_split(emulated_file, bytearray(b"u" * n))
    region = weakref.ref(hidden._region[0])  # a strong one would keep it in use itself
    closed_during = []

    def destroying(real):
        def call(*args):
            hidden.destroy()
            closed_during.append(region().closed)
            return real(*args)
        return call

    stubs = simplex.machine.stubs()
    kernel = "xor_cells" if reload == "per-pass" else "traverse"
    monkeypatch.setattr(stubs, kernel, destroying(getattr(stubs, kernel)))
    out = unhide_combine(emulated_file, hidden, reload=reload)
    assert closed_during == [False]
    assert n not in emulated_file._shares
    assert out == bytes(n)  # every byte was read after the wipe


@pytest.mark.parametrize("reload", ["per-pass", "per-byte"])
def test_a_foreign_thread_or_a_bad_out_is_refused_before_a_byte_is_read(file, reload):
    hidden = hide_split(file, bytearray(b"r" * 64))
    out = bytearray(b"\xaa" * 64)
    refusals = []

    def foreign():
        try:
            unhide_combine(file, hidden, out=out, reload=reload)
        except simplex.DisabledError as exc:
            refusals.append(exc)

    worker = threading.Thread(target=foreign)
    worker.start()
    worker.join(timeout=30)
    assert not worker.is_alive() and len(refusals) == 1
    with pytest.raises(ValueError, match="need 64"):
        unhide_combine(file, hidden, out=out[:63], reload=reload)
    assert out == b"\xaa" * 64


@pytest.mark.parametrize("reload", ["per-pass", "per-byte"])
def test_out_is_sized_in_bytes_not_items(file, reload):
    # len() counts items: an out of n items of 4 bytes is 4n bytes long and
    # refused, and an out of n bytes in n/4 items is the right size.
    n = 64
    secret = bytearray(random.Random(9).randbytes(n))
    original = bytes(secret)
    hidden = hide_split(file, secret)
    for wide in (array.array("I", bytes(4 * n)), memoryview(bytearray(4 * n)).cast("I")):
        with pytest.raises(ValueError, match=f"out buffer is {4 * n} bytes, need {n}"):
            unhide_combine(file, hidden, out=wide, reload=reload)
        assert bytes(wide) == bytes(4 * n)
    for exact in (array.array("I", bytes(n)), memoryview(bytearray(n)).cast("I")):
        assert unhide_combine(file, hidden, out=exact, reload=reload) is exact
        assert bytes(exact) == original


@pytest.mark.parametrize("reload", ["per-pass", "per-byte"])
def test_unhide_gates_once_and_reads_through_the_context(file, monkeypatch, reload):
    secret = bytearray(random.Random(8).randbytes(48))
    original = bytes(secret)
    hidden = hide_split(file, secret)
    gates = count_gates(monkeypatch, file)
    reads = count_reads(monkeypatch, file)
    refuse_accessors(monkeypatch)
    assert unhide_combine(file, hidden, reload=reload) == original
    assert len(gates) == 1
    assert reads == [SlotId.BND2, SlotId.BND3]


@pytest.mark.parametrize("reload", ["per-pass", "per-byte"])
def test_an_out_it_cannot_write_in_place_is_refused_before_a_slot_is_read(file, monkeypatch,
                                                                           reload):
    # Each is the right size in bytes: a read-only out, and a strided view.
    hidden = hide_split(file, bytearray(b"w" * 16))
    backing = bytearray(b"\xaa" * 32)
    reads = count_reads(monkeypatch, file)
    for out in (bytes(16), memoryview(backing)[::2]):
        with pytest.raises(TypeError, match="out must be a writable, C-contiguous buffer"):
            unhide_combine(file, hidden, out=out, reload=reload)
    assert reads == []
    assert backing == b"\xaa" * 32


@pytest.mark.parametrize("reload", ["per-pass", "per-byte"])
def test_unhide_on_a_finished_file_is_refused_before_a_slot_is_read(file, monkeypatch, reload):
    # Finish resets BND2/BND3, so a slot read would raise NullSlotAddressError.
    hidden = hide_split(file, bytearray(b"s" * 16))
    simplex.process_specific_finish(file)
    reads = count_reads(monkeypatch, file)
    with pytest.raises(simplex.DisabledError, match="is not enabled"):
        unhide_combine(file, hidden, reload=reload)
    assert reads == []


def test_per_byte_unhide_zeroes_the_cells_it_fills(emulated_file, monkeypatch):
    # The traverse cells hold both share addresses only while the kernel
    # runs, and are zero after it returns or raises.  The raising core is the
    # portable one, stopped part way through its byte loop: it zeroes the
    # cells itself.
    n = 300
    secret = bytearray(random.Random(6).randbytes(n))
    original = bytes(secret)
    hidden = hide_split(emulated_file, secret)
    cells = emulated_file._ctx._cells
    assert unhide_combine(emulated_file, hidden, reload="per-byte") == original
    assert bytes(cells) == bytes(32)
    seen = []
    core = simplex.machine._PORTABLE.traverse

    def stop(frame, event, arg):
        if frame.f_code is core.__code__ and event == "line" and frame.f_locals.get("i") == 100:
            raise RuntimeError("the kernel failed")
        return stop

    def failing(cells_addr):
        seen.append(list(simplex.machine._Cells.from_address(cells_addr)))
        tracer = sys.gettrace()
        sys.settrace(stop)
        try:
            return core(cells_addr)
        finally:
            sys.settrace(tracer)

    monkeypatch.setattr(simplex.machine.stubs(), "traverse", failing)
    with pytest.raises(RuntimeError, match="the kernel failed"):
        unhide_combine(emulated_file, hidden, reload="per-byte")
    assert [seen[0][0], seen[0][2]] == sorted(_share_addresses(hidden))
    assert bytes(cells) == bytes(32)


def test_buffers_dropped_in_other_threads_hand_back_regions_safely(file):
    # The owner hides while four workers verify and drop its buffers, so
    # regions come back to the pool from other threads while it takes from
    # it, and a fifth thread keeps trying to hide on the owner's file.  A
    # region handed to a second hide while a worker still holds the first
    # would fail that worker's check.  Each loop yields the CPU on every
    # pass, so the threads interleave even where the OS would let one run
    # for milliseconds.
    n, rounds = 64, 1500
    rng = random.Random(4)
    errors, inboxes = [], [queue.Queue() for _ in range(4)]
    stop = threading.Event()

    def worker(inbox):
        held = collections.deque()
        while True:
            item = inbox.get(timeout=30)
            if item is not None:
                held.append(item)
            for hidden, original in held:
                a = int.from_bytes(hidden.share_a, "little")
                if (a ^ int.from_bytes(hidden.share_b, "little")).to_bytes(n, "little") != original:
                    errors.append("a share changed under a live buffer")
            while len(held) > (3 if item is not None else 0):
                held.popleft()
            if item is None:
                return
            os.sched_yield()

    def intruder():
        while not stop.is_set():
            try:
                hide_split(file, bytearray(b"i" * n))
                errors.append("a foreign thread hid on the file")
            except simplex.DisabledError:
                pass
            os.sched_yield()

    threads = [threading.Thread(target=worker, args=(box,)) for box in inboxes]
    threads.append(threading.Thread(target=intruder))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for i in range(rounds):
            secret = bytearray(rng.randbytes(n))
            original = bytes(secret)
            inboxes[i % len(inboxes)].put((hide_split(file, secret), original))
            os.sched_yield()
    finally:
        stop.set()
        for box in inboxes:
            box.put(None)
        for thread in threads:
            thread.join(timeout=60)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    # The owner's last hide emptied the pool and a later drop filled it; every
    # other drop put its mapping back or unmapped it in one step, however they met.
    assert list(file._shares) == [n]
    assert not file._shares[n][0].closed
