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
logs row for row against the expected tables below:

* fork_harness     - parent/child process script, 6 rows
* thread_harness   - parent plus two child threads, 9 rows
* reinit_harness   - init / write / re-init / finish / finish, 5 rows

A logged row and an expected row have one shape, (acting actor, action,
{actor: (enabled, bnd0_low)}), where bnd0_low is None exactly when that
actor's file is disabled; every cell is compared exactly.

Each harness is a script replayed by one runner: a row's acting actor
runs its command first, then every other live actor answers ask("observe")
with a view of its own file, so each row shows the state after its
action.  The parent acts in the calling thread; thread and fork children
run one command loop, over a pair of queues or over a command pipe plus a
record pipe of fixed-width records (actor id: 1 byte, enabled flag: 1
byte, BND0 low half: 8 bytes little-endian).  A failed child ends its
loop, the harness raises ForkFailedError at once, and the runner closes
every child on the way out.
"""

from __future__ import annotations

import os
import queue
import struct
import threading
from dataclasses import dataclass, field
from enum import Enum
from itertools import zip_longest

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
    "ContextEventLog",
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


# Expected rows: (acting actor, action, {actor: (enabled, bnd0_low)}).
EXPECTED_FORK_TABLE = [
    (Actor.PARENT, "process_specific_init(); setbnd_low(BND0, 1)", {Actor.PARENT: (True, 1)}),
    (Actor.PARENT, "fork()", {Actor.PARENT: (True, 1), Actor.CHILD1: (True, 1)}),
    (Actor.CHILD1, "setbnd_low(BND0, 2)", {Actor.PARENT: (True, 1), Actor.CHILD1: (True, 2)}),
    (Actor.CHILD1, "process_specific_finish()",
     {Actor.PARENT: (True, 1), Actor.CHILD1: (False, None)}),
    (Actor.CHILD1, "exit()", {Actor.PARENT: (True, 1)}),
    (Actor.PARENT, "process_specific_finish()", {Actor.PARENT: (False, None)}),
]

EXPECTED_THREAD_TABLE = [
    (Actor.PARENT, "process_specific_init(); setbnd_low(BND0, 0)", {Actor.PARENT: (True, 0)}),
    # The paper prints each child's later write here; a spawned child holds the inherited 0.
    (Actor.PARENT, "spawn_inheriting(child 1)",
     {Actor.PARENT: (True, 0), Actor.CHILD1: (True, 0)}),
    (Actor.PARENT, "spawn_inheriting(child 2)",
     {Actor.PARENT: (True, 0), Actor.CHILD1: (True, 0), Actor.CHILD2: (True, 0)}),
    (Actor.CHILD1, "setbnd_low(BND0, 1)",
     {Actor.PARENT: (True, 0), Actor.CHILD1: (True, 1), Actor.CHILD2: (True, 0)}),
    (Actor.CHILD2, "setbnd_low(BND0, 2)",
     {Actor.PARENT: (True, 0), Actor.CHILD1: (True, 1), Actor.CHILD2: (True, 2)}),
    (Actor.CHILD2, "process_specific_finish()",
     {Actor.PARENT: (True, 0), Actor.CHILD1: (True, 1), Actor.CHILD2: (False, None)}),
    (Actor.CHILD1, "process_specific_finish()",
     {Actor.PARENT: (True, 0), Actor.CHILD1: (False, None), Actor.CHILD2: (False, None)}),
    (Actor.PARENT, "join children", {Actor.PARENT: (True, 0)}),
    (Actor.PARENT, "process_specific_finish()", {Actor.PARENT: (False, None)}),
]

EXPECTED_REINIT_TABLE = [
    (Actor.PARENT, "process_specific_init()", {Actor.PARENT: (True, LOW_RESET)}),
    (Actor.PARENT, "setbnd_low(BND0, 5)", {Actor.PARENT: (True, 5)}),
    (Actor.PARENT, "process_specific_init()", {Actor.PARENT: (True, LOW_RESET)}),
    (Actor.PARENT, "process_specific_finish()", {Actor.PARENT: (False, None)}),
    (Actor.PARENT, "process_specific_finish()", {Actor.PARENT: (False, None)}),
]


@dataclass
class ContextEventLog:
    """A harness's rows in order, in the shape of the expected tables."""

    rows: list = field(default_factory=list)

    def compare(self, expected) -> tuple[int, object, object] | None:
        """The first unequal row as (index, expected, got), or None.

        Actor, action and every cell must be equal; a missing row reads None.
        """
        for index, (want, got) in enumerate(zip_longest(expected, self.rows)):
            if want != got:
                return index, want, got
        return None


def _observe(file: RegisterFile) -> tuple[bool, int | None]:
    """An actor's view of its own file: (enabled, BND0 low half or None)."""
    if is_enabled(file):
        return True, file.getbnd_low(SlotId.BND0)
    return False, None


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
# Actors, the runner and the three scripts
# --------------------------------------------------------------------------

_RECORD = struct.Struct("<BBQ")  # actor id, enabled flag, BND0 low half
_COMMAND = struct.Struct("<BQ")  # index into _COMMANDS, argument
_COMMANDS = ("observe", "setbnd", "finish")
_REPLY_TIMEOUT = 30.0


def _act(file: RegisterFile, command: str, arg) -> None:
    """Run one command on an actor's own file; any other command only observes."""
    if command == "setbnd":
        file.setbnd_low(SlotId.BND0, arg)
    elif command == "finish":
        process_specific_finish(file)


def _serve(file: RegisterFile, recv, reply) -> None:
    """A child's command loop: act on its own file, reply(file), until recv() is None."""
    for command, arg in iter(recv, None):
        _act(file, command, arg)
        reply(file)


def _write_record(fd: int, actor: Actor, file: RegisterFile) -> None:
    enabled, bnd0 = _observe(file)
    os.write(fd, _RECORD.pack(actor.value, enabled, bnd0 or 0))


def _read_record(fd: int, expect_actor: Actor) -> tuple[bool, int | None]:
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
    return (True, bnd0) if enabled else (False, None)


def _read_command(fd: int):
    """The fork child's next (command, arg), or None once the parent closes."""
    chunk = os.read(fd, _COMMAND.size)  # each command is one atomic pipe write
    return (_COMMANDS[chunk[0]], _COMMAND.unpack(chunk)[1]) if chunk else None


class _Parent:
    """The calling thread's actor.  "init" (re)initializes its file, then
    writes `arg` to BND0 unless it is None."""

    def __init__(self, backend: BackendKind | None) -> None:
        self.kind = backend
        self.file: RegisterFile | None = None

    def ask(self, command: str, arg=None):
        if command == "init":
            self.file = process_specific_init(self.kind)
            self.kind = self.file.backend
            command = "observe" if arg is None else "setbnd"
        _act(self.file, command, arg)
        return _observe(self.file)


class _ThreadChild:
    """A child thread started by spawn_inheriting, driven over two queues."""

    def __init__(self, parent_file: RegisterFile, actor: Actor) -> None:
        self.actor = actor
        self._inbox: queue.Queue = queue.Queue()
        self._outbox: queue.Queue = queue.Queue()
        self.thread = spawn_inheriting(parent_file, self._loop,
                                       name=f"simplex-{actor.name.lower()}")

    def _loop(self, file: RegisterFile) -> None:
        try:
            _serve(file, self._inbox.get, lambda f: self._outbox.put(_observe(f)))
        except Exception as exc:  # the failure is this child's last reply
            self._outbox.put(exc)

    def ask(self, command: str, arg=None):
        self._inbox.put((command, arg))
        try:
            reply = self._outbox.get(timeout=_REPLY_TIMEOUT)
        except queue.Empty:
            raise ForkFailedError(f"{self.actor.name} did not reply") from None
        if isinstance(reply, Exception):
            raise ForkFailedError(f"{self.actor.name} failed: {reply!r}") from reply
        return reply

    def close(self) -> bool:
        self._inbox.put(None)
        self.thread.join(timeout=_REPLY_TIMEOUT)
        return not self.thread.is_alive()


class _ForkChild:
    """A forked child process, driven over a command pipe and a record pipe."""

    def __init__(self, parent_file: RegisterFile, actor: Actor) -> None:
        self.actor = actor
        command_read, self._command_write = os.pipe()
        self._record_read, record_write = os.pipe()
        try:
            self.pid = os.fork()
        except OSError as exc:
            for fd in (command_read, self._command_write, self._record_read, record_write):
                os.close(fd)
            raise ForkFailedError(f"fork failed: {exc}") from exc
        if self.pid == 0:
            # Child: no interpreter teardown (inherited buffers must stay
            # untouched).  A failure ends it, closing the record channel.
            status = 1
            try:
                os.close(self._command_write)
                os.close(self._record_read)
                _serve(parent_file, lambda: _read_command(command_read),
                       lambda file: _write_record(record_write, actor, file))
                status = 0
            finally:
                os._exit(status)
        os.close(command_read)
        os.close(record_write)

    def ask(self, command: str, arg=None):
        os.write(self._command_write, _COMMAND.pack(_COMMANDS.index(command), arg or 0))
        return _read_record(self._record_read, self.actor)

    def close(self) -> bool:
        os.close(self._command_write)
        os.close(self._record_read)
        return os.waitpid(self.pid, 0)[1] == 0


_CHILD_KINDS = {"fork": _ForkChild, "spawn": _ThreadChild}


def _run(backend, script, expected, checks=None) -> ContextEventLog:
    """Replay `script` and verify its log against `expected`.

    Script rows are (acting actor, action, command, arg).  "fork" and
    "spawn" start the child named by `arg`, "exit" ends the acting child
    and "join" ends every child; other commands go to the acting actor.
    Once the row's action has run, every other live actor observes its
    own file, and checks[row](parent file, row) runs when given.
    """
    parent = _Parent(backend)
    live = {Actor.PARENT: parent}
    log = ContextEventLog()
    try:
        for index, (actor, action, command, arg) in enumerate(script):
            if command in _CHILD_KINDS:
                live[arg] = _CHILD_KINDS[command](parent.file, arg)
            elif command in ("exit", "join"):
                for child in [actor] if command == "exit" else list(live)[1:]:
                    if not live.pop(child).close():
                        raise ForkFailedError(f"{child.name} did not exit cleanly")
            acted = live[actor].ask(command, arg) if actor in live else None
            log.rows.append((actor, action, {
                who: acted if who is actor else member.ask("observe")
                for who, member in live.items()
            }))
            if checks and index in checks:
                checks[index](parent.file, index)
    finally:
        for child in list(live)[1:]:
            live.pop(child).close()
    mismatch = log.compare(expected)
    if mismatch:
        raise HarnessMismatchError(*mismatch)
    return log


def fork_harness(backend: BackendKind | None = None, *, expected=None) -> ContextEventLog:
    """Replay the process-inheritance script and verify it row by row.

    Returns the log; raises HarnessMismatchError with the first unequal
    row, or ForkFailedError when the child cannot be created or is lost.
    """
    return _run(backend, [
        (Actor.PARENT, "process_specific_init(); setbnd_low(BND0, 1)", "init", 1),
        (Actor.PARENT, "fork()", "fork", Actor.CHILD1),
        (Actor.CHILD1, "setbnd_low(BND0, 2)", "setbnd", 2),
        (Actor.CHILD1, "process_specific_finish()", "finish", None),
        (Actor.CHILD1, "exit()", "exit", None),
        (Actor.PARENT, "process_specific_finish()", "finish", None),
    ], EXPECTED_FORK_TABLE if expected is None else expected)


def thread_harness(backend: BackendKind | None = None, *, expected=None) -> ContextEventLog:
    """Replay the two-child thread-inheritance script and verify it.

    Children are spawned with spawn_inheriting and act strictly in script
    order; every row captures all live actors at that instant.
    """
    return _run(backend, [
        (Actor.PARENT, "process_specific_init(); setbnd_low(BND0, 0)", "init", 0),
        (Actor.PARENT, "spawn_inheriting(child 1)", "spawn", Actor.CHILD1),
        (Actor.PARENT, "spawn_inheriting(child 2)", "spawn", Actor.CHILD2),
        (Actor.CHILD1, "setbnd_low(BND0, 1)", "setbnd", 1),
        (Actor.CHILD2, "setbnd_low(BND0, 2)", "setbnd", 2),
        (Actor.CHILD2, "process_specific_finish()", "finish", None),
        (Actor.CHILD1, "process_specific_finish()", "finish", None),
        (Actor.PARENT, "join children", "join", None),
        (Actor.PARENT, "process_specific_finish()", "finish", None),
    ], EXPECTED_THREAD_TABLE if expected is None else expected)


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

    Both inits must leave every slot reset, and both finishes must leave
    BND1..BND3 reset and BND0 holding its backend-specific post-finish image.
    """
    return _run(backend, [
        (Actor.PARENT, "process_specific_init()", "init", None),
        (Actor.PARENT, "setbnd_low(BND0, 5)", "setbnd", 5),
        (Actor.PARENT, "process_specific_init()", "init", None),
        (Actor.PARENT, "process_specific_finish()", "finish", None),
        (Actor.PARENT, "process_specific_finish()", "finish", None),
    ], EXPECTED_REINIT_TABLE if expected is None else expected,
        checks={0: _check_slots_reset, 2: _check_slots_reset,
                3: _check_finalized_raw, 4: _check_finalized_raw})
