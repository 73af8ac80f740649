"""Two-share hiding: where it lives, and what HiddenBuffer carries."""

import dataclasses

import pytest

import simplex
import simplex.bench
import simplex.hide
from simplex import HiddenBuffer, SlotId, byte_address, unhide_combine


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
