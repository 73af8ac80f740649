"""Benchmark fixtures: statistics, hiding, correctness folds, emitters."""

import csv
import io
import itertools
import json
import math
import random
import threading
import tracemalloc

import pytest

import simplex.bench
from simplex import (
    CSV_HEADER,
    DisabledError,
    DomainError,
    HiddenBuffer,
    NullSlotAddressError,
    OpKind,
    SlotId,
    bench_loadstore,
    bench_strops,
    bench_traversal,
    byte_address,
    geomean,
    hide_split,
    loadstore_ratios,
    process_specific_finish,
    render_csv,
    render_json,
    render_markdown,
    snapshot,
    unhide_combine,
)
from simplex.bench import BenchRecord, RunStats
from simplex.strops import _BLOCK  # the XOR core's stride; sizes straddle it

# Reference overhead grid measured on MPX hardware (percent), one mean and
# one median cell per op/size; the two missing cells enter the overall
# figure as zero.  The overall geometric mean of this grid is the published
# 0.69; the means-only pooling gives the 0.9 headline figure.
REFERENCE_GRID_MEANS = [
    0.11, 0.08, 0.53, 1.18, 0.00,
    -0.29, 0.12, 0.14, 2.03, -0.24,
    5.58, -0.07, -0.10, 1.41, 0.02,
    5.86, -0.33, 1.46, 0.02,
]
REFERENCE_GRID_MEDIANS = [
    0.00, 0.16, 0.57, 1.20, -0.01,
    -0.02, 0.14, 0.22, 2.88, 0.00,
    -0.08, -0.06, -0.05, 1.44, 0.00,
    2.29, -0.06, 1.46, 0.02,
]
REFERENCE_OVERALL_GEOMEAN = 0.69
REFERENCE_MEANS_ONLY_GEOMEAN = 0.9


# ---------------------------------------------------------------------------
# geomean
# ---------------------------------------------------------------------------


def test_geomean_fixed_points():
    assert geomean([0, 0, 0]) == pytest.approx(0.0, abs=1e-12)
    assert geomean([100]) == pytest.approx(100.0, abs=1e-9)
    # 0.5x and 2x cancel exactly.
    assert geomean([-50, 100]) == pytest.approx(0.0, abs=1e-9)


def test_geomean_domain_errors():
    with pytest.raises(DomainError):
        geomean([])
    with pytest.raises(DomainError):
        geomean([-100])
    with pytest.raises(DomainError):
        geomean([5, -150])


def test_geomean_matches_product_oracle():
    rng = random.Random(31)
    values = [rng.uniform(-40, 250) for _ in range(64)]
    via_logs = geomean(values)
    product = math.prod(1 + v / 100 for v in values) ** (1 / len(values))
    assert via_logs == pytest.approx((product - 1) * 100, rel=1e-9)


def test_geomean_reproduces_reference_grid_figures():
    pooled = REFERENCE_GRID_MEANS + REFERENCE_GRID_MEDIANS + [0.0, 0.0]
    overall = geomean(pooled)
    # Independent product-based route, then the published targets.
    product = math.prod(1 + v / 100 for v in pooled) ** (1 / len(pooled))
    assert overall == pytest.approx((product - 1) * 100, rel=1e-9)
    assert abs(overall - REFERENCE_OVERALL_GEOMEAN) < 0.02
    means_only = geomean(REFERENCE_GRID_MEANS)
    assert abs(means_only - REFERENCE_MEANS_ONLY_GEOMEAN) < 0.02
    assert max(pooled) == 5.86  # the quoted maximum cell


# ---------------------------------------------------------------------------
# RunStats
# ---------------------------------------------------------------------------


def test_runstats_quartiles_inclusive():
    stats = RunStats.from_samples([1, 2, 3, 4])
    assert stats.mean == pytest.approx(2.5)
    assert stats.median == pytest.approx(2.5)
    assert stats.q1 == pytest.approx(1.75)
    assert stats.q3 == pytest.approx(3.25)
    assert stats.minimum == 1 and stats.maximum == 4


def test_runstats_single_sample_and_empty():
    stats = RunStats.from_samples([7])
    assert (stats.mean, stats.median, stats.q1, stats.q3) == (7, 7, 7, 7)
    with pytest.raises(ValueError):
        RunStats.from_samples([])


# ---------------------------------------------------------------------------
# Hiding
# ---------------------------------------------------------------------------


# 1 and 7 are shorter than one stride, the rest sit on or just past a
# stride boundary, where the XOR core's last stride is cut short.
HIDE_SIZES = [1, 7, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5]


@pytest.mark.parametrize("size", HIDE_SIZES)
def test_hide_unhide_roundtrip_and_wipe(emulated_file, size):
    rng = random.Random(2024)
    secret = bytearray(rng.randbytes(size))
    original = bytes(secret)
    hidden = hide_split(emulated_file, secret, rng=rng)
    assert secret == bytearray(size)  # wiped in place
    assert (hidden.slot_a, hidden.slot_b) == (SlotId.BND2, SlotId.BND3)
    assert emulated_file.getbnd_low(SlotId.BND2) == byte_address(hidden.share_a)
    assert emulated_file.getbnd_low(SlotId.BND3) == byte_address(hidden.share_b)
    assert len(hidden.share_a) == len(hidden.share_b) == size
    assert bytes(hidden.share_a) != original
    assert bytes(hidden.share_b) != original
    combined = bytes(a ^ b for a, b in zip(hidden.share_a, hidden.share_b))
    assert combined == original
    # The per-byte walk costs two slot loads per byte; one stride past the
    # boundary is enough to pin it.
    modes = ("per-pass", "per-byte") if size <= _BLOCK + 1 else ("per-pass",)
    for mode in modes:
        assert bytes(unhide_combine(emulated_file, hidden, reload=mode)) == original


def _hide_in_foreign_thread(file, secret):
    refusals = []

    def attempt():
        try:
            hide_split(file, secret, rng=random.Random(3))
        except DisabledError as exc:
            refusals.append(exc)

    worker = threading.Thread(target=attempt)
    worker.start()
    worker.join(timeout=30)
    assert not worker.is_alive()
    if refusals:
        raise refusals[0]


@pytest.mark.parametrize("refused_by", ["disabled-file", "foreign-thread"])
def test_refused_hide_keeps_secret_and_slots(emulated_file, refused_by):
    emulated_file.setbnd128(SlotId.BND2, 0x1122, 0x3344)
    emulated_file.setbnd128(SlotId.BND3, 0x5566, 0x7788)
    if refused_by == "disabled-file":
        process_specific_finish(emulated_file)
        hide = lambda secret: hide_split(emulated_file, secret, rng=random.Random(3))
    else:
        hide = lambda secret: _hide_in_foreign_thread(emulated_file, secret)
    before = emulated_file._peek_raw_slots()
    secret = bytearray(random.Random(6).randbytes(300))
    original = bytes(secret)
    with pytest.raises(DisabledError):
        hide(secret)
    assert secret == original
    assert emulated_file._peek_raw_slots() == before


def test_hide_all_zero_secret_gives_equal_shares(emulated_file):
    secret = bytearray(64)
    hidden = hide_split(emulated_file, secret, rng=random.Random(1))
    assert hidden.share_a == hidden.share_b


def test_hide_rejects_bad_inputs(emulated_file):
    with pytest.raises(ValueError):
        hide_split(emulated_file, bytearray())
    with pytest.raises(TypeError):
        hide_split(emulated_file, b"immutable")


def test_unhide_argument_validation(emulated_file):
    hidden = hide_split(emulated_file, bytearray(b"abcd"), rng=random.Random(2))
    with pytest.raises(ValueError):
        unhide_combine(emulated_file, hidden, out=bytearray(3))
    with pytest.raises(ValueError):
        unhide_combine(emulated_file, hidden, reload="per-word")
    empty = HiddenBuffer(bytearray(), bytearray(), SlotId.BND2, SlotId.BND3, 0)
    with pytest.raises(ValueError):
        unhide_combine(emulated_file, empty, reload="bogus")


def _hide_older_then_newer(file, older_size, newer_size):
    """Hide two secrets on one file; both results stay alive."""
    rng = random.Random(10)
    secrets = [bytearray(rng.randbytes(size)) for size in (older_size, newer_size)]
    originals = [bytes(secret) for secret in secrets]
    older, newer = (hide_split(file, secret, rng=rng) for secret in secrets)
    return older, newer, originals


# same-length: the older buffer would read the newer secret; over-read:
# it would read 4096 bytes from the newer buffer's 16-byte shares.
@pytest.mark.parametrize("reload", ["per-pass", "per-byte"])
@pytest.mark.parametrize("older_size, newer_size", [(16, 16), (4096, 16)],
                         ids=["same-length", "over-read"])
def test_unhide_refuses_a_buffer_a_later_hide_displaced(emulated_file, reload,
                                                       older_size, newer_size):
    older, newer, originals = _hide_older_then_newer(emulated_file, older_size, newer_size)
    out = bytearray(b"\xaa" * older_size)
    with pytest.raises(NullSlotAddressError, match="BND2/BND3"):
        unhide_combine(emulated_file, older, out=out, reload=reload)
    assert out == bytearray(b"\xaa" * older_size)  # not a byte was read into it
    assert bytes(unhide_combine(emulated_file, newer, reload=reload)) == originals[1]


@pytest.mark.parametrize("reload", ["per-pass", "per-byte"])
def test_reparked_older_buffer_unhides_again(emulated_file, reload):
    # What a caller holding several buffers does before each unhide.
    older, _newer, originals = _hide_older_then_newer(emulated_file, 300, 300)
    emulated_file.qsetbnd_low(older.slot_a, byte_address(older.share_a))
    emulated_file.qsetbnd_low(older.slot_b, byte_address(older.share_b))
    assert bytes(unhide_combine(emulated_file, older, reload=reload)) == originals[0]


UNHIDE_AFTER_DROPPED_SHARES = """
import random, sys
from simplex import (BackendKind, NullSlotAddressError, hide_split, process_specific_init,
                     unhide_combine)
file = process_specific_init(BackendKind.EMULATED)
rng = random.Random(12)
older = hide_split(file, bytearray(rng.randbytes(1 << 20)), rng=rng)
for _ in range(4):  # each result is dropped, so BND2/BND3 end up naming freed shares
    hide_split(file, bytearray(rng.randbytes(1 << 20)), rng=rng)
try:
    unhide_combine(file, older, reload=sys.argv[1])
except NullSlotAddressError:
    print("refused")
"""


@pytest.mark.parametrize("reload", ["per-pass", "per-byte"])
def test_unhide_after_newer_shares_were_freed_is_refused(run_python, reload):
    done = run_python(UNHIDE_AFTER_DROPPED_SHARES, reload)
    assert (done.returncode, done.stdout.strip()) == (0, "refused"), done.stderr


def test_unhide_zero_length_is_noop(emulated_file):
    empty = HiddenBuffer(bytearray(), bytearray(), SlotId.BND2, SlotId.BND3, 0)
    assert unhide_combine(emulated_file, empty) == bytearray()


def test_per_pass_unhide_holds_no_full_size_temporary(emulated_file):
    n = 4 << 20
    secret = bytearray(random.Random(8).randbytes(n))
    original = bytes(secret)
    hidden = hide_split(emulated_file, secret, rng=random.Random(9))
    out = bytearray(n)
    tracemalloc.start()
    try:
        unhide_combine(emulated_file, hidden, out=out, reload="per-pass")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out == original
    assert peak < 8 * _BLOCK, f"traced peak {peak} bytes while unhiding {n}"


def test_shares_look_uniform_and_uncorrelated(emulated_file):
    n = 1 << 20
    rng = random.Random(99)
    secret = bytearray(rng.randbytes(n))
    original = bytes(secret)
    hidden = hide_split(emulated_file, secret, rng=rng)
    expected = n / 256
    for share in (hidden.share_a, hidden.share_b):
        chi2 = sum(
            (share.count(v) - expected) ** 2 / expected for v in range(256)
        )
        # df=255: mean 255, sd ~22.6; 400 is far beyond plausible for uniform.
        assert chi2 < 400
        # About half the bits should disagree with the secret.
        disagree = (
            int.from_bytes(share, "little") ^ int.from_bytes(original, "little")
        ).bit_count()
        assert 0.45 < disagree / (n * 8) < 0.55


# ---------------------------------------------------------------------------
# Fixtures at desk scale
# ---------------------------------------------------------------------------


def test_loadstore_records_shape(emulated_file):
    records = bench_loadstore(emulated_file, runs=4, iters=512, seed=5)
    assert [(r.target, r.detail) for r in records] == [
        ("register", "store"), ("slot", "store"),
        ("register", "load"), ("slot", "load"),
    ]
    for r in records:
        assert r.fixture == "loadstore"
        assert r.runs == 4 and r.iters == 512
        assert r.elapsed_ns > 0 and r.rate > 0
        assert r.stats.minimum <= r.stats.median <= r.stats.maximum
        assert r.checksum != 0
    assert records[0].overhead_pct is None
    assert records[1].overhead_pct is not None
    ratios = loadstore_ratios(records)
    assert set(ratios) == {"store", "load"} and all(v > 0 for v in ratios.values())


def test_loadstore_checksums_are_seed_sensitive(emulated_file):
    one = bench_loadstore(emulated_file, runs=2, iters=256, seed=1)
    two = bench_loadstore(emulated_file, runs=2, iters=256, seed=2)
    assert [r.checksum for r in one] != [r.checksum for r in two]
    again = bench_loadstore(emulated_file, runs=2, iters=256, seed=1)
    assert [r.checksum for r in one] == [r.checksum for r in again]


@pytest.mark.parametrize("reload_mode", ["per-pass", "per-byte"])
def test_traversal_verified_and_folded(emulated_file, reload_mode):
    records = bench_traversal(emulated_file, sizes=(2048, 4096), runs=4, iters=2,
                              reload=reload_mode, seed=9)
    assert len(records) == 4
    for base, treat in zip(records[::2], records[1::2]):
        assert base.target == "register" and treat.target == "slot"
        assert treat.failures == 0
        assert treat.overhead_pct is not None
        # No failures means both folds cover identical reconstructions.
        assert base.checksum == treat.checksum != 0
        assert base.detail == treat.detail == f"xor-unhide {reload_mode}"


def test_traversal_checksum_seed_sensitive(emulated_file):
    a = bench_traversal(emulated_file, sizes=(1024,), runs=2, iters=1, seed=1,
                        reload="per-pass")
    b = bench_traversal(emulated_file, sizes=(1024,), runs=2, iters=1, seed=2,
                        reload="per-pass")
    assert a[0].checksum != b[0].checksum


def test_strops_grid_records(emulated_file):
    records, overall = bench_strops(emulated_file, sizes=(1024,), runs=3, seed=3)
    assert len(records) == 10  # five ops x (ref, slot)
    details = {r.detail for r in records}
    assert details == {"memcmp", "memcpy", "memmove", "memset", "memchr"}
    for r in records:
        assert r.failures == 0
        assert r.elapsed_ns > 0
    slot_rows = [r for r in records if r.target == "slot"]
    assert all(r.overhead_pct is not None for r in slot_rows)
    assert overall == pytest.approx(
        geomean([r.overhead_pct for r in slot_rows]), rel=1e-9
    )


def test_traversal_rejects_bad_reload_before_touching_slots(emulated_file):
    emulated_file.setbnd128(SlotId.BND2, 0x1122, 0x3344)
    emulated_file.setbnd128(SlotId.BND3, 0x5566, 0x7788)
    before = [emulated_file.getbnd128(slot) for slot in (SlotId.BND2, SlotId.BND3)]
    with pytest.raises(ValueError):
        bench_traversal(emulated_file, sizes=(64,), runs=1, iters=1, reload="bogus")
    assert [emulated_file.getbnd128(slot) for slot in (SlotId.BND2, SlotId.BND3)] == before


@pytest.mark.parametrize("call", [
    pytest.param(lambda f: bench_traversal(f, sizes=(64,), runs=2, iters=0), id="traversal-iters-0"),
    pytest.param(lambda f: bench_traversal(f, sizes=(64,), runs=0, iters=1), id="traversal-runs-0"),
    pytest.param(lambda f: bench_strops(f, sizes=(64,), runs=0), id="strops-runs-0"),
])
def test_fixtures_reject_bad_counts_before_touching_slots(emulated_file, call):
    for slot in SlotId:
        emulated_file.setbnd128(slot, 0x1100 + slot.value, 0x2200 + slot.value)
    before = snapshot(emulated_file)
    with pytest.raises(ValueError, match="must be at least 1"):
        call(emulated_file)
    assert snapshot(emulated_file) == before


SABOTAGE_RUNS = 4


def _run_fixture(fixture, file, runs=SABOTAGE_RUNS, iters=None):
    if fixture == "loadstore":
        return bench_loadstore(file, runs=runs, iters=64 if iters is None else iters, seed=4)
    if fixture == "traversal":
        return bench_traversal(file, sizes=(256,), runs=runs, iters=1 if iters is None else iters,
                               reload="per-pass", seed=4)
    return bench_strops(file, sizes=(256,), runs=runs, seed=4)[0]


NON_POSITIVE_COUNTS = [
    pytest.param(fixture, "runs", runs, id=f"{fixture}-{runs}")
    for fixture in ("loadstore", "traversal", "strops") for runs in (0, -1)
] + [
    pytest.param(fixture, "iters", 0, id=f"{fixture}-iters-0")
    for fixture in ("loadstore", "traversal")
]


@pytest.mark.parametrize("fixture, count, value", NON_POSITIVE_COUNTS)
def test_fixtures_reject_non_positive_runs(emulated_file, fixture, count, value):
    with pytest.raises(ValueError, match=f"{count} must be at least 1"):
        _run_fixture(fixture, emulated_file, **{count: value})


def _flip_first_byte(out):
    out[0] ^= 1
    return out


def _corrupt_result(change):
    return lambda real, *args, **kwargs: change(real(*args, **kwargs))


def _skip_call(real, *args, **kwargs):
    return None  # what memcpy and memset return, with nothing written


def _any_call(*args):
    return True


def _write_call(kind, *args):
    return kind in (OpKind.MEMCPY, OpKind.MEMSET)


# Each fixture's slot route: which of its calls may be sabotaged, and how.
# Call 0 of those is the warm-up pair's; call 1 belongs to the first timed
# run (for loadstore, the store readback; for strops, memcmp's first run,
# or memcpy's when only the writes are skipped).
SLOT_ROUTES = [
    ("loadstore", "qgetbnd_low", _any_call, _corrupt_result(lambda got: got ^ 1)),
    ("traversal", "unhide_combine", _any_call, _corrupt_result(_flip_first_byte)),
    ("strops", "slot_op", _any_call, _corrupt_result(lambda got: "sabotaged")),
    ("strops", "slot_op", _write_call, _skip_call),
]


@pytest.mark.parametrize("every_call", [True, False], ids=["all-runs", "one-run"])
@pytest.mark.parametrize("fixture, target, applies, corrupt", SLOT_ROUTES,
                         ids=["loadstore", "traversal", "strops", "strops-skipped-write"])
def test_sabotaged_slot_route_is_counted_or_raises(emulated_file, monkeypatch, fixture,
                                                   target, applies, corrupt, every_call):
    owner = emulated_file if target == "qgetbnd_low" else simplex.bench
    real = getattr(owner, target)
    calls = itertools.count()

    def sabotaged(*args, **kwargs):
        if applies(*args) and (every_call or next(calls) == 1):
            return corrupt(real, *args, **kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, target, sabotaged)
    if every_call:
        with pytest.raises(DomainError):
            _run_fixture(fixture, emulated_file)
        return
    slot_rows = [r for r in _run_fixture(fixture, emulated_file) if r.target == "slot"]
    assert sum(r.failures for r in slot_rows) == 1
    assert sum(SABOTAGE_RUNS - r.runs for r in slot_rows) == 1


# ---------------------------------------------------------------------------
# Emitters
# ---------------------------------------------------------------------------


def _sample_records():
    stats = RunStats.from_samples([1.0, 2.0, 3.0])
    return [
        BenchRecord("traversal", "register", "xor-unhide per-pass", 4096, 3, 10,
                    1500, 2.0e9, None, 0xABC, stats),
        BenchRecord("traversal", "slot", "xor-unhide per-pass", 4096, 3, 10,
                    4500, 0.7e9, 200.0, 0xABC, stats, failures=1),
    ]


def test_csv_header_is_pinned_and_parseable():
    text = render_csv(_sample_records())
    lines = text.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert CSV_HEADER == "fixture,target,detail,size_bytes,runs,iters,elapsed_ns,rate,overhead_pct"
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == 2
    assert rows[0]["overhead_pct"] == ""
    assert float(rows[1]["overhead_pct"]) == pytest.approx(200.0)
    assert int(rows[1]["elapsed_ns"]) == 4500


def test_json_emitter_roundtrips():
    doc = json.loads(render_json(_sample_records(), extra={"geomean_overhead_pct": 1.5}))
    assert doc["geomean_overhead_pct"] == 1.5
    assert len(doc["records"]) == 2
    record = doc["records"][1]
    assert record["failures"] == 1
    assert record["stats"]["q1"] == pytest.approx(1.5)
    assert record["overhead_pct"] == pytest.approx(200.0)
    assert doc["records"][0]["overhead_pct"] is None


def test_markdown_emitter_renders_rows_and_notes():
    text = render_markdown(_sample_records(), notes=["geometric mean overhead: 1.5%"])
    lines = text.splitlines()
    assert lines[0].startswith("| fixture")
    assert any("xor-unhide per-pass" in line for line in lines)
    assert text.rstrip().endswith("geometric mean overhead: 1.5%")
