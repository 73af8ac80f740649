"""Command-line front end.

Subcommands: `probe` (readiness report), `selftest` (inheritance harnesses
plus a hide/unhide round trip), `bench` (the three fixtures), and
`demo-hide` (split a file into two in-memory shares and reconstruct it
through the slots).

Exit codes: 0 success, 1 usage error, 2 the environment cannot provide the
requested backend (or a harness could not run at all), 3 a correctness
check failed (inheritance table mismatch or a wrong reconstruction).
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import mmap
import os
import random
import re
import sys
from pathlib import Path

from .errors import (
    BackendConfigError,
    DomainError,
    ForkFailedError,
    HardwareUnavailableError,
    HarnessMismatchError,
    NullSlotAddressError,
)
from .hide import _RELOAD_MODES, hide_split, unhide_combine
from .probe import _VALID_OVERRIDES, ENV_BACKEND, BackendKind, probe
from .regfile import SlotId, process_specific_finish, process_specific_init
from .strops import OpKind, byte_address, ref_op, slot_op

__all__ = ["main", "EXIT_OK", "EXIT_USAGE", "EXIT_ENVIRONMENT", "EXIT_CORRECTNESS"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_ENVIRONMENT = 2
EXIT_CORRECTNESS = 3

_DEMO_LIMIT = 16 << 20

# Each names simplex.bench's bench_<fixture>.  The harnesses (simplex.context)
# and the fixtures load only in the commands that run them.
_FIXTURES = ("loadstore", "traversal", "strops")


class _CorrectnessFailure(Exception):
    """A verification inside a command produced the wrong answer."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad arguments by default; 2 means "environment"
    # here, so usage problems are remapped to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _parse_sizes(text: str) -> tuple[int, ...]:
    sizes = []
    for part in text.split(","):
        match = re.fullmatch(r"(\d+)([KkMmGg]?)", part.strip())
        if not match:
            raise argparse.ArgumentTypeError(
                f"bad size {part.strip()!r}; use bytes or a K/M/G binary suffix"
            )
        value = int(match.group(1)) << {"": 0, "k": 10, "m": 20, "g": 30}[match.group(2).lower()]
        if value <= 0:
            raise argparse.ArgumentTypeError("sizes must be positive")
        sizes.append(value)
    return tuple(sizes)


def _positive_int(text: str) -> int:
    if not re.fullmatch(r"[0-9]+", text.strip()) or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


@functools.cache  # argparse keeps no state between parse_args calls
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="simplex",
        description="Hidden 64-bit storage in the four MPX bounds registers.",
    )
    parser.add_argument(
        "--backend",
        choices=tuple(_VALID_OVERRIDES),
        default=None,
        help="backend override; 'hardware' is strict and fails (exit 2) when the "
             f"machine cannot provide it. Overrides the {ENV_BACKEND} variable.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("probe", help="report CPU/OS readiness and the selected backend")
    p.add_argument("--json", action="store_true", help="machine-readable report")

    s = sub.add_parser("selftest", help="run the inheritance harnesses and a round trip")
    s.add_argument("--fork", action="store_true", help="process-inheritance harness only")
    s.add_argument("--threads", action="store_true", help="thread-inheritance harness only")
    s.add_argument("--reinit", action="store_true", help="re-init/finish harness only")
    s.add_argument("--roundtrip", action="store_true", help="hide/unhide round trip only")
    s.add_argument(
        "--inject-fault",
        action="store_true",
        help="run the fork harness with one expected cell corrupted to demonstrate "
             "mismatch reporting (exits 3)",
    )

    b = sub.add_parser("bench", help="run a benchmark fixture")
    b.add_argument("fixture", choices=_FIXTURES)
    b.add_argument(
        "--runs", type=_positive_int, default=None,
        help="measured runs per configuration (default: 10000 for loadstore, 100 otherwise)",
    )
    b.add_argument(
        "--iters", type=_positive_int, default=None,
        help="inner operations or passes per run (default: 1000000 for loadstore, "
             "1000 for traversal; strops takes none)",
    )
    b.add_argument(
        "--sizes", "--size", dest="sizes", type=_parse_sizes, default=None,
        metavar="LIST",
        help="comma-separated buffer sizes with binary suffixes (default: 4K,8K,1M,16M)",
    )
    b.add_argument(
        "--reload", choices=_RELOAD_MODES, default=None,
        help="traversal address reload policy (default: per-byte, which re-loads both "
             "share addresses for every byte)",
    )
    b.add_argument("--seed", type=int, default=None, help="input generator seed (default: 0)")
    b.add_argument(
        "--format", choices=("markdown", "csv", "json"), default="markdown",
        help="output format (default: markdown)",
    )

    d = sub.add_parser(
        "demo-hide",
        help="split a file into two in-memory shares addressed only via slots, then reconstruct",
    )
    d.add_argument("--secret-file", required=True, metavar="PATH",
                   help=f"file to hide (at most {_DEMO_LIMIT >> 20} MiB); never written back")
    return parser


def _cmd_probe(args) -> int:
    report = probe(flag=args.backend)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
        return EXIT_OK
    facts = report.to_dict()
    for key in ("cpu_has_mpx", "xstate_bndregs", "xstate_bndcsr", "os_context_saves_mpx"):
        print(f"{key}: {'yes' if facts[key] else 'no'}")
    print(f"hardware_capable: {'yes' if report.hardware_capable else 'no'}")
    print(f"selected: {report.selected.value} (override: {report.override_source.value})")
    return EXIT_OK


def _faulted_fork_table():
    """The expected fork table with the child's write cell deliberately wrong."""
    from .context import EXPECTED_FORK_TABLE, Actor

    rows = [(actor, action, dict(cells)) for actor, action, cells in EXPECTED_FORK_TABLE]
    actor, action, cells = rows[2]
    assert actor is Actor.CHILD1 and cells[Actor.CHILD1] == (True, 2)
    cells[Actor.CHILD1] = (True, 3)
    return rows


def _roundtrip_check(kind: BackendKind) -> str:
    file = process_specific_init(kind)
    try:
        rng = random.Random(0xC0FFEE)
        secret = bytearray(rng.randbytes(1024))
        original = bytes(secret)
        hidden = hide_split(file, secret, rng=rng)
        if any(secret):
            raise _CorrectnessFailure("original secret buffer was not wiped")
        for mode in _RELOAD_MODES:
            if bytes(unhide_combine(file, hidden, reload=mode)) != original:
                raise _CorrectnessFailure(f"{mode} reconstruction produced wrong bytes")
        hidden.destroy()
        src = bytearray(rng.randbytes(4096))
        dst = bytearray(4096)
        ref = bytearray(4096)
        file.qsetbnd_low(SlotId.BND0, byte_address(dst))
        file.qsetbnd_low(SlotId.BND1, byte_address(src))
        slot_op(OpKind.MEMCPY, file, dst_slot=SlotId.BND0, src_slot=SlotId.BND1, length=4096)
        ref_op(OpKind.MEMCPY, dst=ref, src=src, length=4096)
        if dst != ref:
            raise _CorrectnessFailure("slot-addressed copy differs from plain copy")
        return "hide/unhide (both reload modes) and slot-addressed copy verified"
    finally:
        process_specific_finish(file)


def _cmd_selftest(args, kind: BackendKind) -> int:
    from . import context

    chosen = {
        "fork": args.fork or args.inject_fault,
        "threads": args.threads,
        "reinit": args.reinit,
        "roundtrip": args.roundtrip,
    }
    if not any(chosen.values()):
        chosen = dict.fromkeys(chosen, True)

    if chosen["fork"]:
        if not hasattr(os, "fork"):
            print("SKIP fork-inheritance: platform has no fork()")
        else:
            log = context.fork_harness(kind)
            if args.inject_fault:
                raise HarnessMismatchError(*log.compare(_faulted_fork_table()))
            print(f"PASS fork-inheritance: {len(log.rows)} rows match")
    if chosen["threads"]:
        log = context.thread_harness(kind)
        print(f"PASS thread-inheritance: {len(log.rows)} rows match")
    if chosen["reinit"]:
        log = context.reinit_harness(kind)
        print(f"PASS reinit-and-finish: {len(log.rows)} rows match")
    if chosen["roundtrip"]:
        print(f"PASS round-trip: {_roundtrip_check(kind)}")
    return EXIT_OK


def _cmd_bench(args, kind: BackendKind) -> int:
    from . import bench

    fixture = getattr(bench, f"bench_{args.fixture}")
    # Only the flags given reach the fixture; its signature holds the
    # defaults and names the flags it takes.
    given = {name: getattr(args, name) for name in ("sizes", "runs", "iters", "reload", "seed")
             if getattr(args, name) is not None}
    params = inspect.signature(fixture).parameters
    for name in given:
        if name not in params:
            print(f"simplex bench: error: --{name} does not apply to {args.fixture}",
                  file=sys.stderr)
            return EXIT_USAGE
    file = process_specific_init(kind)
    try:
        extra: dict = {}
        notes: list[str] = []
        if args.fixture == "loadstore":
            records = fixture(file, **given)
            ratios = bench.loadstore_ratios(records)
            extra["slot_to_register_rate_ratios"] = ratios
            notes = [f"slot/register rate ratio: {op} {ratio:.4f}"
                     for op, ratio in ratios.items()]
        elif args.fixture == "traversal":
            records = fixture(file, **given)
        else:
            records, overall = fixture(file, **given)
            extra["geomean_overhead_pct"] = overall
            notes = [f"geometric mean overhead: {overall:.4f}%"]

        if args.format == "csv":
            sys.stdout.write(bench.render_csv(records))
            for note in notes:
                print(f"# {note}", file=sys.stderr)
        elif args.format == "json":
            sys.stdout.write(bench.render_json(records, extra=extra or None))
        else:
            sys.stdout.write(bench.render_markdown(records, notes=notes or None))
        return EXIT_OK
    finally:
        process_specific_finish(file)


def _cmd_demo_hide(args, kind: BackendKind) -> int:
    import hashlib  # here, not at the top: it loads libcrypto (~4 MiB RSS)

    path = Path(args.secret_file)
    # The file and its reconstruction live only in buffers that are zeroed on
    # every exit: a bytes copy could not be wiped.  The file is read into an
    # anonymous mapping, whose pages fault in only as the file fills them,
    # and the raw read stops one byte past the cap, so /dev/zero ends.
    read = mmap.mmap(-1, _DEMO_LIMIT + 1, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    size, secret, recovered = 0, bytearray(), bytearray()
    try:
        try:
            with path.open("rb", buffering=0) as source, memoryview(read) as view:
                while size < len(read) and (got := source.readinto(view[size:])):
                    size += got
        except OSError as exc:
            print(f"simplex demo-hide: cannot read {path}: {exc}", file=sys.stderr)
            return EXIT_USAGE
        if size > _DEMO_LIMIT:
            print(
                f"simplex demo-hide: {path} is more than {_DEMO_LIMIT} bytes; "
                f"the demo caps secrets at {_DEMO_LIMIT} bytes",
                file=sys.stderr,
            )
            return EXIT_USAGE
        if not size:
            print("secret file is empty; nothing to hide")
            return EXIT_OK
        with memoryview(read) as view:
            secret = bytearray(view[:size])
            view[:size] = bytes(size)  # the secret now lives only in `secret`
        digest = hashlib.sha256(secret).digest()
        file = process_specific_init(kind)
        try:
            hidden = hide_split(file, secret)
            recovered = unhide_combine(file, hidden, reload="per-pass")
            if hashlib.sha256(recovered).digest() != digest:
                raise _CorrectnessFailure("reconstructed bytes differ from the original file")
            print(f"hid {size} bytes as two XOR shares (share A a keystream); "
                  f"share addresses live in {hidden.slot_a.name} and {hidden.slot_b.name}")
            print(f"slot-addressed reconstruction matches the original ({size} bytes)")
            hidden.destroy()
            print("shares were wiped in memory; nothing was written to disk")
            return EXIT_OK
        finally:
            process_specific_finish(file)
    finally:
        read[:size] = bytes(size)
        read.close()
        for buf in (secret, recovered):
            buf[:] = bytes(len(buf))  # equal lengths: written in place


def _print_notes(exc: BaseException) -> None:
    # Python 3.10 keeps __notes__ (see context._close_all) but never prints them.
    for note in getattr(exc, "__notes__", ()):
        print(note, file=sys.stderr)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # -h exits 0, usage errors exit 1
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE

    try:
        if args.command == "probe":
            return _cmd_probe(args)
        kind = probe(flag=args.backend).selected
        if args.command == "selftest":
            return _cmd_selftest(args, kind)
        if args.command == "bench":
            return _cmd_bench(args, kind)
        return _cmd_demo_hide(args, kind)
    except BackendConfigError as exc:
        print(f"simplex: backend configuration error: {exc}", file=sys.stderr)
        return EXIT_ENVIRONMENT
    except HardwareUnavailableError as exc:
        print(f"simplex: {exc}", file=sys.stderr)
        return EXIT_ENVIRONMENT
    except ForkFailedError as exc:
        print(f"simplex: harness could not run: {exc}", file=sys.stderr)
        _print_notes(exc)
        return EXIT_ENVIRONMENT
    except HarnessMismatchError as exc:
        print(f"FAIL inheritance harness: {exc}", file=sys.stderr)
        _print_notes(exc)
        return EXIT_CORRECTNESS
    except (DomainError, NullSlotAddressError, _CorrectnessFailure) as exc:
        print(f"FAIL correctness check: {exc}", file=sys.stderr)
        return EXIT_CORRECTNESS


if __name__ == "__main__":
    sys.exit(main())
