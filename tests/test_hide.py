"""Two-share hiding: where it lives, what HiddenBuffer carries, and its one kernel call."""

import dataclasses
import random

import pytest

import simplex
import simplex.bench
import simplex.hide
import simplex.machine
from simplex import HiddenBuffer, SlotId, byte_address, hide_split, unhide_combine


def test_hiding_lives_in_simplex_hide():
    assert [f.name for f in dataclasses.fields(HiddenBuffer)] == ["share_a", "share_b"]
    assert (HiddenBuffer.slot_a, HiddenBuffer.slot_b) == (SlotId.BND2, SlotId.BND3)
    assert not set(simplex.hide.__all__) & set(simplex.bench.__all__)
    for name in simplex.hide.__all__:
        assert name in simplex.__all__
        assert getattr(simplex, name) is getattr(simplex.hide, name)


@pytest.mark.parametrize("reload", ["per-pass", "per-byte"])
@pytest.mark.parametrize("len_a, len_b", [(16, 4096), (4096, 16)])
def test_unhide_refuses_unequal_shares(emulated_file, monkeypatch, reload, len_a, len_b):
    share_a, share_b = bytearray(len_a), bytearray(len_b)
    emulated_file.qsetbnd_low(SlotId.BND2, byte_address(share_a))
    emulated_file.qsetbnd_low(SlotId.BND3, byte_address(share_b))

    def no_slot_read(*args, **kwargs):
        raise AssertionError("a slot was read before the shares were checked")

    monkeypatch.setattr(simplex.hide, "slot_address", no_slot_read)
    out = bytearray(b"\xaa" * len_a)
    with pytest.raises(ValueError, match=f"shares are {len_a} and {len_b} bytes"):
        unhide_combine(emulated_file, HiddenBuffer(share_a, share_b), out=out, reload=reload)
    assert out == bytearray(b"\xaa" * len_a)


aes_only = pytest.mark.skipif(not getattr(simplex.machine.stubs(), "aes", False),
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
