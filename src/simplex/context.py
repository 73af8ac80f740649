"""Context inheritance semantics: fork, threads, and re-initialization.

The MPX state is part of a thread's extended register context, so a child
(process or thread) inherits the parent's slots at creation and the copies
are fully independent afterwards.  The emulated backend reproduces this by
construction for fork (the OS duplicates the process image) and through an
explicit helper for threads, because software per-thread state does not
auto-copy the way hardware context does: a bare thread on the emulated
backend starts with an uninitialized file, spawn_inheriting() transfers a
snapshot.

Three harnesses replay the reference scenarios, each written as one table
whose rows are (acting actor, action, command, arg, {actor: (enabled,
bnd0_low)}):

* fork_harness     - parent/child process table, 6 rows
* thread_harness   - parent plus two child threads, 9 rows
* reinit_harness   - init / write / re-init / finish / finish, 5 rows

Dropping the two command columns gives the public EXPECTED_* tables.  A
logged row has their shape, (acting actor, action, {actor: (enabled,
bnd0_low)}), where bnd0_low is None exactly when that actor's file is
disabled; every cell is compared exactly.

One runner replays every table: a row's acting actor runs its command
first, then every other live actor answers ask("observe") with a view of
its own file, so each row shows the state after its action.  One rule
checks the parent's raw slots in every harness: after a parent "init" that
writes nothing every slot must read reset, and after a parent "finish"
BND1..BND3 must be reset and BND0 must hold the post-finish image.  The
parent acts in the calling thread; a thread or fork child answers
(command, arg) asks over a multiprocessing Pipe until the parent closes its
end.  A child that fails replies with its exception's repr; that, no reply
within _REPLY_TIMEOUT (30 s), or a fork child whose exit status cannot be
collected makes the harness raise ForkFailedError, and the runner closes
every child on the way out.
"""

from __future__ import annotations

import os
import signal
import threading
from contextlib import suppress
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


_P, _C1, _C2 = Actor

# Harness rows: (acting actor, action, command, arg, {actor: (enabled, bnd0_low)}).
_FORK_ROWS = [
    (_P, "process_specific_init(); setbnd_low(BND0, 1)", "init", 1, {_P: (True, 1)}),
    (_P, "fork()", "fork", _C1, {_P: (True, 1), _C1: (True, 1)}),
    (_C1, "setbnd_low(BND0, 2)", "setbnd", 2, {_P: (True, 1), _C1: (True, 2)}),
    (_C1, "process_specific_finish()", "finish", None, {_P: (True, 1), _C1: (False, None)}),
    (_C1, "exit()", "exit", None, {_P: (True, 1)}),
    (_P, "process_specific_finish()", "finish", None, {_P: (False, None)}),
]

_THREAD_ROWS = [
    (_P, "process_specific_init(); setbnd_low(BND0, 0)", "init", 0, {_P: (True, 0)}),
    # The paper prints each child's later write here; a spawned child holds the inherited 0.
    (_P, "spawn_inheriting(child 1)", "spawn", _C1, {_P: (True, 0), _C1: (True, 0)}),
    (_P, "spawn_inheriting(child 2)", "spawn", _C2,
     {_P: (True, 0), _C1: (True, 0), _C2: (True, 0)}),
    (_C1, "setbnd_low(BND0, 1)", "setbnd", 1, {_P: (True, 0), _C1: (True, 1), _C2: (True, 0)}),
    (_C2, "setbnd_low(BND0, 2)", "setbnd", 2, {_P: (True, 0), _C1: (True, 1), _C2: (True, 2)}),
    (_C2, "process_specific_finish()", "finish", None,
     {_P: (True, 0), _C1: (True, 1), _C2: (False, None)}),
    (_C1, "process_specific_finish()", "finish", None,
     {_P: (True, 0), _C1: (False, None), _C2: (False, None)}),
    (_P, "join children", "join", None, {_P: (True, 0)}),
    (_P, "process_specific_finish()", "finish", None, {_P: (False, None)}),
]

_REINIT_ROWS = [
    (_P, "process_specific_init()", "init", None, {_P: (True, LOW_RESET)}),
    (_P, "setbnd_low(BND0, 5)", "setbnd", 5, {_P: (True, 5)}),
    (_P, "process_specific_init()", "init", None, {_P: (True, LOW_RESET)}),
    (_P, "process_specific_finish()", "finish", None, {_P: (False, None)}),
    (_P, "process_specific_finish()", "finish", None, {_P: (False, None)}),
]


def _expected(rows) -> list:
    """A harness table without its command columns: (actor, action, cells) rows."""
    return [(actor, action, cells) for actor, action, _, _, cells in rows]


EXPECTED_FORK_TABLE = _expected(_FORK_ROWS)
EXPECTED_THREAD_TABLE = _expected(_THREAD_ROWS)
EXPECTED_REINIT_TABLE = _expected(_REINIT_ROWS)


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
# Actors, the runner and the three harnesses
# --------------------------------------------------------------------------

_REPLY_TIMEOUT = 30.0


def _act(file: RegisterFile, command: str, arg) -> None:
    """Run one command on an actor's own file; any other command only observes."""
    if command == "setbnd":
        file.setbnd_low(SlotId.BND0, arg)
    elif command == "finish":
        process_specific_finish(file)


def _serve(file: RegisterFile, conn) -> bool:
    """A child's command loop: act on its own file and reply _observe(file)
    until the parent closes its end (True).  A failure replies repr(exc),
    which unpickles where the exception itself may not, and returns False."""
    try:
        while True:
            command, arg = conn.recv()
            _act(file, command, arg)
            conn.send(_observe(file))
    except EOFError:
        return True
    except Exception as exc:
        with suppress(OSError):  # the parent may have closed its end already
            conn.send(repr(exc))
        return False
    finally:
        conn.close()


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


class _Child:
    """A child actor at the far end of one Pipe, started by a subclass's _start."""

    def __init__(self, parent_file: RegisterFile, actor: Actor) -> None:
        # Lazy: importing multiprocessing takes 10-20 ms; only child harnesses pay it.
        from multiprocessing import Pipe
        self.actor = actor
        self.silent = False
        self.conn, child_end = Pipe()
        self._start(parent_file, child_end)

    def ask(self, command: str, arg=None):
        try:
            self.conn.send((command, arg))
            if not self.conn.poll(_REPLY_TIMEOUT):
                self.silent = True
                raise ForkFailedError(f"{self.actor.name} did not reply")
            reply = self.conn.recv()
        except (EOFError, OSError) as exc:
            raise ForkFailedError(f"{self.actor.name} channel lost: {exc!r}") from exc
        if isinstance(reply, str):
            raise ForkFailedError(f"{self.actor.name} failed: {reply}")
        return reply


class _ThreadChild(_Child):
    """A child thread from spawn_inheriting; close() waits for it, hung or not."""

    def _start(self, parent_file: RegisterFile, child_end) -> None:
        self.thread = spawn_inheriting(parent_file, lambda file: _serve(file, child_end),
                                       name=f"simplex-{self.actor.name.lower()}")

    def close(self) -> bool:
        self.conn.close()
        self.thread.join()
        return True  # a thread has no exit status; ask() raised any failure


class _ForkChild(_Child):
    """A forked child process: it exits 0 once the parent closes its end,
    1 after a failure.  close() kills a child that did not reply."""

    def _start(self, parent_file: RegisterFile, child_end) -> None:
        try:
            self.pid = os.fork()
        except OSError as exc:
            for end in (self.conn, child_end):
                end.close()
            raise ForkFailedError(f"fork failed: {exc}") from exc
        if self.pid == 0:  # child: no interpreter teardown, inherited buffers stay untouched
            try:
                self.conn.close()
                os._exit(0 if _serve(parent_file, child_end) else 1)
            finally:  # reached only when something raised
                os._exit(1)
        child_end.close()

    def close(self) -> bool:
        self.conn.close()
        try:
            if self.silent:  # a hung child would block waitpid for good
                os.kill(self.pid, signal.SIGKILL)
            return os.waitpid(self.pid, 0)[1] == 0
        except (ChildProcessError, ProcessLookupError) as exc:  # reaped already: SIGCHLD ignored
            raise ForkFailedError(
                f"{self.actor.name} (pid {self.pid}): its exit status could not be collected: "
                f"{exc!r}"
            ) from exc


_CHILD_KINDS = {"fork": _ForkChild, "spawn": _ThreadChild}


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


# The parent's file is checked after these (command, arg) rows of its own.
_PARENT_CHECKS = {("init", None): _check_slots_reset, ("finish", None): _check_finalized_raw}


def _run(backend, rows, expected) -> ContextEventLog:
    """Replay a harness table and verify its log against `expected`.

    "fork" and "spawn" start the child named by `arg`, "exit" ends the
    acting child and "join" ends every child; other commands go to the
    acting actor.  Once the row's action has run, every other live actor
    observes its own file, then _PARENT_CHECKS runs on the parent's rows.
    """
    parent = _Parent(backend)
    live = {Actor.PARENT: parent}
    log = ContextEventLog()
    try:
        for index, (actor, action, command, arg, _) in enumerate(rows):
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
            check = _PARENT_CHECKS.get((command, arg)) if actor is Actor.PARENT else None
            if check:
                check(parent.file, index)
    finally:
        for child in list(live)[1:]:
            live.pop(child).close()
    mismatch = log.compare(expected)
    if mismatch:
        raise HarnessMismatchError(*mismatch)
    return log


def fork_harness(backend: BackendKind | None = None, *, expected=None) -> ContextEventLog:
    """Replay the process-inheritance table and verify it row by row.

    Returns the log; raises HarnessMismatchError with the first unequal
    row, or ForkFailedError when the child cannot be created or is lost.
    """
    return _run(backend, _FORK_ROWS, EXPECTED_FORK_TABLE if expected is None else expected)


def thread_harness(backend: BackendKind | None = None, *, expected=None) -> ContextEventLog:
    """Replay the two-child thread-inheritance table and verify it.

    Children are spawned with spawn_inheriting and act strictly in table
    order; every row captures all live actors at that instant.
    """
    return _run(backend, _THREAD_ROWS, EXPECTED_THREAD_TABLE if expected is None else expected)


def reinit_harness(backend: BackendKind | None = None) -> ContextEventLog:
    """Replay init / write / re-init / finish / finish and verify each state.

    Both inits must leave every slot reset, and both finishes must leave
    BND1..BND3 reset and BND0 holding its backend-specific post-finish image.
    """
    return _run(backend, _REINIT_ROWS, EXPECTED_REINIT_TABLE)
