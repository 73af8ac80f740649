"""Two register files in two threads under real thread switches, and misuse across them.

Each case lowers sys.setswitchinterval while its threads run, and each
thread yields the CPU after every step, so the threads switch every few
steps even where the OS would let one run for milliseconds.  Every thread
checks its own file against its own shadow model of the slots, so a value
one thread wrote that shows up in the other's file fails the case.
Every case runs on both backends; the model under the hardware adapter
keeps its registers per thread.  No case asserts a time.
"""

import os
import queue
import random
import sys
import threading
import weakref

import pytest

from simplex import (
    HIGH_RESET,
    LOW_RESET,
    BoundsSlot,
    DisabledError,
    HiddenBuffer,
    SlotId,
    byte_address,
    hide_split,
    process_specific_finish,
    process_specific_init,
    unhide_combine,
)

_UNKNOWN = object()  # the high half a quick write leaves unspecified
_WAIT = 30  # seconds any thread waits for the other before the case fails


def _run_threads(*bodies) -> None:
    """Run each body in its own thread, switching every 10 us; re-raise the first error."""
    errors = []

    def run(body):
        try:
            body()
        except BaseException as exc:  # handed back to the test below
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(body,)) for body in bodies]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads), "a thread did not finish"
    if errors:
        raise errors[0]


def _fresh_model() -> dict:
    return {slot: [LOW_RESET, HIGH_RESET] for slot in SlotId}


def _check_slot(file, model, slot) -> None:
    low, high = model[slot]
    assert file.getbnd_low(slot) == low, slot
    assert file.qgetbnd_low(slot) == low, slot
    if high is not _UNKNOWN:
        assert file.getbnd_high(slot) == high, slot
        assert file.getbnd128(slot) == BoundsSlot(low, high), slot


def _hide_cycle(file, model, rng) -> None:
    """Hide a seeded secret, unhide it by a random route, and check both."""
    n = rng.choice((1, 31, 64, 4096 + 17))
    secret = bytearray(rng.randbytes(n))
    original = bytes(secret)
    hidden = hide_split(file, secret, rng=rng)
    assert secret == bytearray(n)
    # The model's per-byte unhide on the adapter is Python: keep it short.
    reload = rng.choice(("per-pass", "per-byte")) if n <= 64 else "per-pass"
    assert unhide_combine(file, hidden, reload=reload) == original
    model[HiddenBuffer.slot_a] = [byte_address(hidden.share_a), _UNKNOWN]
    model[HiddenBuffer.slot_b] = [byte_address(hidden.share_b), _UNKNOWN]
    hidden.destroy()


def _churn(file, model, rng, steps: int) -> None:
    """steps seeded writes, reads and hide/unhide cycles on file, each checked against model."""
    for _ in range(steps):
        slot, op = SlotId(rng.randrange(4)), rng.randrange(7)
        value = rng.getrandbits(64)
        if op == 0:
            high = rng.getrandbits(64)
            file.setbnd128(slot, value, high)
            model[slot] = [value, high]
        elif op == 1:
            file.setbnd_low(slot, value)
            model[slot][0] = value
        elif op == 2:
            file.setbnd_high(slot, value)
            model[slot][1] = value
        elif op == 3:
            file.qsetbnd_low(slot, value)
            model[slot] = [value, _UNKNOWN]
        elif op == 4:
            file.reset_slot(slot)
            model[slot] = [LOW_RESET, HIGH_RESET]
        elif op == 5:
            _check_slot(file, model, slot)
        elif rng.randrange(4) == 0:  # a hide in one step of 28
            _hide_cycle(file, model, rng)
        os.sched_yield()  # lets the other thread take the GIL here
    for slot in SlotId:
        _check_slot(file, model, slot)


def test_two_threads_keep_their_own_files(backend):
    started = threading.Barrier(2, timeout=_WAIT)

    def owner(seed):
        def body():
            file = process_specific_init(backend)
            try:
                started.wait()
                _churn(file, _fresh_model(), random.Random(seed), 2000)
            finally:
                process_specific_finish(file)
        return body

    _run_threads(owner(1), owner(2))


def test_a_finish_in_one_thread_leaves_the_other_threads_file_working(backend):
    started, finished = threading.Barrier(2, timeout=_WAIT), threading.Event()

    def survivor():
        file = process_specific_init(backend)
        try:
            model, rng = _fresh_model(), random.Random(3)
            started.wait()
            # Churn until the other file is finished, and then some more.
            for _ in range(1000):
                _churn(file, model, rng, 10)
                if finished.is_set():
                    break
            else:
                raise AssertionError("the other thread never finished its file")
            _churn(file, model, rng, 500)
        finally:
            process_specific_finish(file)

    def quitter():
        file = process_specific_init(backend)
        started.wait()
        _churn(file, _fresh_model(), random.Random(4), 300)
        process_specific_finish(file)
        finished.set()
        with pytest.raises(DisabledError):
            file.getbnd_low(SlotId.BND0)
        with pytest.raises(DisabledError):
            hide_split(file, bytearray(8))

    _run_threads(survivor, quitter)


def test_a_hide_dropped_in_the_other_thread_goes_back_to_its_owner(backend):
    n = 4096 + 17
    handoff, dropped = queue.Queue(), threading.Event()

    def owner():
        file = process_specific_init(backend)
        try:
            model, rng = _fresh_model(), random.Random(5)
            handoff.put(hide_split(file, bytearray(rng.randbytes(n)), rng=rng))
            # Keep working on the file while the other thread drops the hide.
            for _ in range(1000):
                _churn(file, model, rng, 10)
                if dropped.is_set():
                    break
            else:
                raise AssertionError("the other thread never dropped the hide")
            entry = handoff.get(timeout=_WAIT)
            file_entry = file._shares.get(n)
            assert entry[0].closed or file_entry is entry
            for _ in range(3):
                secret = bytearray(rng.randbytes(n))
                original = bytes(secret)
                hidden = hide_split(file, secret, rng=rng)
                if file_entry is entry:
                    assert hidden._region is entry, "the owner's pool did not serve the hide"
                assert unhide_combine(file, hidden) == original
                hidden.destroy()
        finally:
            process_specific_finish(file)

    def dropper():
        file = process_specific_init(backend)
        try:
            hidden = handoff.get(timeout=_WAIT)
            entry = hidden._region
            with pytest.raises(DisabledError):
                unhide_combine(hidden._file, hidden)
            gone = weakref.ref(hidden)
            del hidden  # the last reference: dropping it destroys the hide here
            assert gone() is None, "the hide outlived its drop"
            assert file._shares.get(n) is not entry, "the dropper's pool took the mapping"
            handoff.put(entry)
            dropped.set()
            _churn(file, _fresh_model(), random.Random(6), 1000)
        finally:
            process_specific_finish(file)

    _run_threads(owner, dropper)
