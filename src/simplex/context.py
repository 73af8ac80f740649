"""Context inheritance semantics: fork, threads, and re-initialization.

The MPX state is part of a thread's extended register context, so a child
(process or thread) inherits the parent's slots at creation and the copies
are fully independent afterwards.  The emulated backend reproduces this by
construction for fork (the OS duplicates the process image) and through an
explicit helper for threads, because software per-thread state does not
auto-copy the way hardware context does: a bare thread on the emulated
backend starts with an uninitialized file, spawn_inheriting() transfers a
snapshot.

Three scripted harnesses replay the reference scenarios and compare their
observation logs cell-for-cell against the expected tables below:

* fork_harness     - parent/child process script, 6 rows
* thread_harness   - parent plus two child threads, 9 rows
* reinit_harness   - init / write / re-init / finish / finish, 5 rows

The child process reports its observations over a pipe as fixed-width
records (actor id: 1 byte, enabled flag: 1 byte, BND0 low half: 8 bytes
little-endian) and nothing else.

One quirk of the reference thread table: it prints, at each spawn row, the
value the child will eventually write rather than the value it inherits.
Those cells are marked PRESTATED here - the harness records the observed
(inherited) value but asserts only enablement until the child's own write
row.
"""

from __future__ import annotations

import os
import queue
import struct
import threading
from dataclasses import dataclass, field
from enum import Enum

from .errors import ForkFailedError, HarnessMismatchError
from .probe import BackendKind
from .regfile import (
    HIGH_RESET,
    LOW_RESET,
    BoundsSlot,
    RegisterFile,
    SlotId,
    is_enabled,
    process_specific_finish,
    process_specific_init,
)

__all__ = [
    "Actor",
    "Observation",
    "ContextEvent",
    "ContextEventLog",
    "PRESTATED",
    "EXPECTED_FORK_TABLE",
    "EXPECTED_THREAD_TABLE",
    "EXPECTED_REINIT_TABLE",
    "snapshot",
    "spawn_inheriting",
    "fork_harness",
    "thread_harness",
    "reinit_harness",
]


class Actor(Enum):
    PARENT = 0
    CHILD1 = 1
    CHILD2 = 2

    @property
    def label(self) -> str:
        return {0: "Parent", 1: "Child 1", 2: "Child 2"}[self.value]


@dataclass(frozen=True)
class Observation:
    """One actor's view of its own file: enabled flag and BND0's low half.

    bnd0_low is None exactly when the file is disabled (nothing readable).
    """

    enabled: bool
    bnd0_low: int | None


@dataclass(frozen=True)
class ContextEvent:
    """One log row: who acted, what they did, and what every actor saw."""

    actor: Actor
    action: str
    observed: dict[Actor, Observation]


class _Prestated:
    """Marks an expected cell whose table value pre-states a later write."""

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return "<prestated>"


PRESTATED = _Prestated()

# Expected rows: (acting actor, action, {actor: (enabled, bnd0_low)}).
# A PRESTATED bnd0 cell asserts enablement only.

EXPECTED_FORK_TABLE = [
    (Actor.PARENT, "process_specific_init(); setbnd_low(BND0, 1)",
     {Actor.PARENT: (True, 1)}),
    (Actor.PARENT, "fork()",
     {Actor.PARENT: (True, 1), Actor.CHILD1: (True, 1)}),
    (Actor.CHILD1, "setbnd_low(BND0, 2)",
     {Actor.PARENT: (True, 1), Actor.CHILD1: (True, 2)}),
    (Actor.CHILD1, "process_specific_finish()",
     {Actor.PARENT: (True, 1), Actor.CHILD1: (False, None)}),
    (Actor.CHILD1, "exit()",
     {Actor.PARENT: (True, 1)}),
    (Actor.PARENT, "process_specific_finish()",
     {Actor.PARENT: (False, None)}),
]

EXPECTED_THREAD_TABLE = [
    (Actor.PARENT, "process_specific_init(); setbnd_low(BND0, 0)",
     {Actor.PARENT: (True, 0)}),
    (Actor.PARENT, "spawn_inheriting(child 1)",
     {Actor.PARENT: (True, 0), Actor.CHILD1: (True, PRESTATED)}),
    (Actor.PARENT, "spawn_inheriting(child 2)",
     {Actor.PARENT: (True, 0), Actor.CHILD1: (True, PRESTATED),
      Actor.CHILD2: (True, PRESTATED)}),
    (Actor.CHILD1, "setbnd_low(BND0, 1)",
     {Actor.PARENT: (True, 0), Actor.CHILD1: (True, 1),
      Actor.CHILD2: (True, PRESTATED)}),
    (Actor.CHILD2, "setbnd_low(BND0, 2)",
     {Actor.PARENT: (True, 0), Actor.CHILD1: (True, 1),
      Actor.CHILD2: (True, 2)}),
    (Actor.CHILD2, "process_specific_finish()",
     {Actor.PARENT: (True, 0), Actor.CHILD1: (True, 1),
      Actor.CHILD2: (False, None)}),
    (Actor.CHILD1, "process_specific_finish()",
     {Actor.PARENT: (True, 0), Actor.CHILD1: (False, None),
      Actor.CHILD2: (False, None)}),
    (Actor.PARENT, "join children",
     {Actor.PARENT: (True, 0)}),
    (Actor.PARENT, "process_specific_finish()",
     {Actor.PARENT: (False, None)}),
]

EXPECTED_REINIT_TABLE = [
    (Actor.PARENT, "process_specific_init()", {Actor.PARENT: (True, LOW_RESET)}),
    (Actor.PARENT, "setbnd_low(BND0, 5)", {Actor.PARENT: (True, 5)}),
    (Actor.PARENT, "process_specific_init()", {Actor.PARENT: (True, LOW_RESET)}),
    (Actor.PARENT, "process_specific_finish()", {Actor.PARENT: (False, None)}),
    (Actor.PARENT, "process_specific_finish()", {Actor.PARENT: (False, None)}),
]


def _fmt_value(value: int | None) -> str:
    if value is None:
        return "-"
    return str(value) if value < 0x10000 else f"{value:#x}"


def _fmt_cell(obs: Observation | None) -> str:
    if obs is None:
        return ""
    if not obs.enabled:
        return "off"
    return f"on bnd0={_fmt_value(obs.bnd0_low)}"


@dataclass
class ContextEventLog:
    """Ordered harness observations plus table rendering and comparison."""

    rows: list[ContextEvent] = field(default_factory=list)

    def append(self, actor: Actor, action: str, observed: dict[Actor, Observation]) -> None:
        self.rows.append(ContextEvent(actor, action, observed))

    def to_table(self) -> str:
        actors = [Actor.PARENT, Actor.CHILD1, Actor.CHILD2]
        present = [a for a in actors if any(a in row.observed for row in self.rows)]
        headers = ["Event"] + [a.label for a in present]
        cells = [
            [f"{row.actor.label}: {row.action}"]
            + [_fmt_cell(row.observed.get(a)) for a in present]
            for row in self.rows
        ]
        widths = [
            max(len(headers[i]), *(len(r[i]) for r in cells)) if cells else len(headers[i])
            for i in range(len(headers))
        ]
        def line(parts):
            return "| " + " | ".join(p.ljust(w) for p, w in zip(parts, widths)) + " |"
        out = [line(headers), line(["-" * w for w in widths])]
        out.extend(line(r) for r in cells)
        return "\n".join(out)

    def compare(self, expected) -> tuple[int, object, object] | None:
        """First diverging row against an expected table, or None.

        PRESTATED cells compare enablement only; everything else is exact,
        including actor, action string, and the set of observed columns.
        """
        for idx, (actor, action, cells) in enumerate(expected):
            if idx >= len(self.rows):
                return idx, (actor, action, cells), "<missing row>"
            row = self.rows[idx]
            if row.actor is not actor or row.action != action:
                return idx, (actor, action, cells), (row.actor, row.action, row.observed)
            if set(row.observed) != set(cells):
                return idx, (actor, action, cells), (row.actor, row.action, row.observed)
            for cell_actor, (enabled, bnd0) in cells.items():
                obs = row.observed[cell_actor]
                if obs.enabled != enabled:
                    return idx, (actor, action, cells), (row.actor, row.action, row.observed)
                if bnd0 is not PRESTATED and obs.bnd0_low != bnd0:
                    return idx, (actor, action, cells), (row.actor, row.action, row.observed)
        if len(self.rows) != len(expected):
            return len(expected), "<no further rows>", self.rows[len(expected)]
        return None


def _observe(file: RegisterFile) -> Observation:
    enabled = is_enabled(file)
    return Observation(enabled, file.getbnd_low(SlotId.BND0) if enabled else None)


# --------------------------------------------------------------------------
# Snapshot and thread inheritance
# --------------------------------------------------------------------------


def snapshot(file: RegisterFile) -> tuple[BoundsSlot, BoundsSlot, BoundsSlot, BoundsSlot]:
    """Sanitizing read of all four slots."""
    return tuple(file.getbnd128(slot) for slot in SlotId)


def spawn_inheriting(file: RegisterFile, task, *, name: str | None = None) -> threading.Thread:
    """Start a thread whose file begins as a copy of `file` at call time.

    The snapshot is taken here, in the calling thread; the child gets its
    own enabled RegisterFile with the snapshot written into its slots and
    is fully independent from then on.  `task` is called as task(child_file).
    """
    snap = snapshot(file)
    kind = file.backend

    def _runner() -> None:
        child = process_specific_init(kind)
        for slot, image in zip(SlotId, snap):
            child.setbnd128(slot, image.low, image.high)
        task(child)

    thread = threading.Thread(target=_runner, name=name or "simplex-inherit")
    thread.start()
    return thread


# --------------------------------------------------------------------------
# Fork harness
# --------------------------------------------------------------------------

_RECORD = struct.Struct("<BBQ")  # actor id, enabled flag, BND0 low half


def _write_record(fd: int, actor: Actor, file: RegisterFile) -> None:
    obs = _observe(file)
    payload = obs.bnd0_low if obs.bnd0_low is not None else 0
    os.write(fd, _RECORD.pack(actor.value, int(obs.enabled), payload))


def _read_record(fd: int, expect_actor: Actor) -> Observation:
    chunk = b""
    while len(chunk) < _RECORD.size:
        piece = os.read(fd, _RECORD.size - len(chunk))
        if not piece:
            raise ForkFailedError(
                f"child record channel closed early ({len(chunk)} of {_RECORD.size} bytes)"
            )
        chunk += piece
    actor_id, enabled, bnd0 = _RECORD.unpack(chunk)
    if actor_id != expect_actor.value:
        raise ForkFailedError(f"unexpected actor id {actor_id} in child record")
    return Observation(bool(enabled), bnd0 if enabled else None)


def _fork_child_script(file: RegisterFile, fd: int) -> None:
    _write_record(fd, Actor.CHILD1, file)           # view right after fork
    file.setbnd_low(SlotId.BND0, 2)
    _write_record(fd, Actor.CHILD1, file)
    process_specific_finish(file)
    _write_record(fd, Actor.CHILD1, file)
    os.close(fd)


def fork_harness(backend: BackendKind | None = None, *, expected=None) -> ContextEventLog:
    """Replay the process-inheritance script and verify it row by row.

    Returns the observation log; raises HarnessMismatchError with the first
    diverging row, or ForkFailedError when the child cannot be created or
    is lost.
    """
    log = ContextEventLog()
    file = process_specific_init(backend)
    file.setbnd_low(SlotId.BND0, 1)
    log.append(Actor.PARENT, "process_specific_init(); setbnd_low(BND0, 1)",
               {Actor.PARENT: _observe(file)})

    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError as exc:
        os.close(read_fd)
        os.close(write_fd)
        raise ForkFailedError(f"fork failed: {exc}") from exc

    if pid == 0:
        # Child: scripted actions only, observations over the pipe, no
        # interpreter teardown (inherited buffers must stay untouched).
        status = 1
        try:
            os.close(read_fd)
            _fork_child_script(file, write_fd)
            status = 0
        except BaseException:
            pass
        finally:
            os._exit(status)

    os.close(write_fd)
    try:
        child = _read_record(read_fd, Actor.CHILD1)
        log.append(Actor.PARENT, "fork()",
                   {Actor.PARENT: _observe(file), Actor.CHILD1: child})
        child = _read_record(read_fd, Actor.CHILD1)
        log.append(Actor.CHILD1, "setbnd_low(BND0, 2)",
                   {Actor.PARENT: _observe(file), Actor.CHILD1: child})
        child = _read_record(read_fd, Actor.CHILD1)
        log.append(Actor.CHILD1, "process_specific_finish()",
                   {Actor.PARENT: _observe(file), Actor.CHILD1: child})
    finally:
        os.close(read_fd)
        _, status = os.waitpid(pid, 0)
    if status != 0:
        raise ForkFailedError(f"child exited abnormally (wait status {status:#x})")

    log.append(Actor.CHILD1, "exit()", {Actor.PARENT: _observe(file)})
    process_specific_finish(file)
    log.append(Actor.PARENT, "process_specific_finish()",
               {Actor.PARENT: _observe(file)})

    mismatch = log.compare(EXPECTED_FORK_TABLE if expected is None else expected)
    if mismatch:
        raise HarnessMismatchError(*mismatch)
    return log


# --------------------------------------------------------------------------
# Thread harness
# --------------------------------------------------------------------------


class _ScriptedChild:
    """A child thread driven by (command, argument) messages."""

    def __init__(self, parent_file: RegisterFile, name: str) -> None:
        self._inbox: queue.Queue = queue.Queue()
        self._outbox: queue.Queue = queue.Queue()
        self.thread = spawn_inheriting(parent_file, self._run, name=name)

    def _run(self, file: RegisterFile) -> None:
        while True:
            command, arg = self._inbox.get()
            if command == "observe":
                self._outbox.put(_observe(file))
            elif command == "setbnd":
                file.setbnd_low(SlotId.BND0, arg)
                self._outbox.put(None)
            elif command == "finish":
                process_specific_finish(file)
                self._outbox.put(None)
            else:  # "exit"
                self._outbox.put(None)
                return

    def ask(self, command: str, arg=None, timeout: float = 30.0):
        self._inbox.put((command, arg))
        return self._outbox.get(timeout=timeout)


def thread_harness(backend: BackendKind | None = None, *, expected=None) -> ContextEventLog:
    """Replay the two-child thread-inheritance script and verify it.

    Children are spawned with spawn_inheriting, act strictly in script
    order, and observe their own files on demand so every row captures all
    live actors at that instant.
    """
    log = ContextEventLog()
    file = process_specific_init(backend)
    file.setbnd_low(SlotId.BND0, 0)
    log.append(Actor.PARENT, "process_specific_init(); setbnd_low(BND0, 0)",
               {Actor.PARENT: _observe(file)})

    child1 = _ScriptedChild(file, "simplex-child1")
    log.append(Actor.PARENT, "spawn_inheriting(child 1)",
               {Actor.PARENT: _observe(file), Actor.CHILD1: child1.ask("observe")})

    child2 = _ScriptedChild(file, "simplex-child2")
    log.append(Actor.PARENT, "spawn_inheriting(child 2)",
               {Actor.PARENT: _observe(file), Actor.CHILD1: child1.ask("observe"),
                Actor.CHILD2: child2.ask("observe")})

    child1.ask("setbnd", 1)
    log.append(Actor.CHILD1, "setbnd_low(BND0, 1)",
               {Actor.PARENT: _observe(file), Actor.CHILD1: child1.ask("observe"),
                Actor.CHILD2: child2.ask("observe")})

    child2.ask("setbnd", 2)
    log.append(Actor.CHILD2, "setbnd_low(BND0, 2)",
               {Actor.PARENT: _observe(file), Actor.CHILD1: child1.ask("observe"),
                Actor.CHILD2: child2.ask("observe")})

    child2.ask("finish")
    log.append(Actor.CHILD2, "process_specific_finish()",
               {Actor.PARENT: _observe(file), Actor.CHILD1: child1.ask("observe"),
                Actor.CHILD2: child2.ask("observe")})

    child1.ask("finish")
    log.append(Actor.CHILD1, "process_specific_finish()",
               {Actor.PARENT: _observe(file), Actor.CHILD1: child1.ask("observe"),
                Actor.CHILD2: child2.ask("observe")})

    child1.ask("exit")
    child2.ask("exit")
    child1.thread.join(timeout=30)
    child2.thread.join(timeout=30)
    log.append(Actor.PARENT, "join children", {Actor.PARENT: _observe(file)})

    process_specific_finish(file)
    log.append(Actor.PARENT, "process_specific_finish()",
               {Actor.PARENT: _observe(file)})

    mismatch = log.compare(EXPECTED_THREAD_TABLE if expected is None else expected)
    if mismatch:
        raise HarnessMismatchError(*mismatch)
    return log


# --------------------------------------------------------------------------
# Re-initialization / finalization harness
# --------------------------------------------------------------------------


def _check_slots_reset(file: RegisterFile, row: int) -> None:
    for slot in SlotId:
        image = file.getbnd128(slot)
        if image != BoundsSlot(LOW_RESET, HIGH_RESET):
            raise HarnessMismatchError(
                row, f"{slot.name} at reset state", f"{slot.name}=({image.low:#x}, {image.high:#x})"
            )


def _check_finalized_raw(file: RegisterFile, row: int) -> None:
    raw = file._peek_raw_slots()
    for slot in (SlotId.BND1, SlotId.BND2, SlotId.BND3):
        if raw[slot] != (LOW_RESET, HIGH_RESET):
            raise HarnessMismatchError(
                row, f"{slot.name} reset after finalize", f"{slot.name}={raw[slot]}"
            )
    low0, high0 = raw[SlotId.BND0]
    if low0 != LOW_RESET:
        raise HarnessMismatchError(row, "BND0 low half reset after finalize", f"{low0:#x}")
    if file.backend is BackendKind.HARDWARE:
        # Only the most-significant-bit property is stable on hardware.
        if not (high0 >> 63) & 1:
            raise HarnessMismatchError(row, "BND0 high half MSB set", f"{high0:#x}")
    elif high0 != HIGH_RESET:
        raise HarnessMismatchError(row, "BND0 high half at reset value", f"{high0:#x}")


def reinit_harness(backend: BackendKind | None = None, *, expected=None) -> ContextEventLog:
    """Replay init / write / re-init / finish / finish and verify each state.

    Checks that a second initialization resets the slots (a written value
    never survives re-init), and that both the first and a repeated
    finalization leave the context disabled with BND1..BND3 reset and BND0
    holding its backend-specific post-finalize image.
    """
    log = ContextEventLog()
    file = process_specific_init(backend)
    log.append(Actor.PARENT, "process_specific_init()", {Actor.PARENT: _observe(file)})
    _check_slots_reset(file, 0)

    file.setbnd_low(SlotId.BND0, 5)
    log.append(Actor.PARENT, "setbnd_low(BND0, 5)", {Actor.PARENT: _observe(file)})

    file = process_specific_init(file.backend)
    log.append(Actor.PARENT, "process_specific_init()", {Actor.PARENT: _observe(file)})
    _check_slots_reset(file, 2)

    process_specific_finish(file)
    log.append(Actor.PARENT, "process_specific_finish()", {Actor.PARENT: _observe(file)})
    _check_finalized_raw(file, 3)

    process_specific_finish(file)
    log.append(Actor.PARENT, "process_specific_finish()", {Actor.PARENT: _observe(file)})
    _check_finalized_raw(file, 4)

    mismatch = log.compare(EXPECTED_REINIT_TABLE if expected is None else expected)
    if mismatch:
        raise HarnessMismatchError(*mismatch)
    return log
