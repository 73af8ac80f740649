"""Inheritance semantics: fork, threads, re-init, and the harness plumbing."""

import gc
import json
import os
import sys
import threading
import time

import pytest

import simplex.context as context
from simplex import (
    HIGH_RESET,
    LOW_RESET,
    Actor,
    BackendKind,
    BoundsSlot,
    DisabledError,
    ForkFailedError,
    HarnessMismatchError,
    RegisterFile,
    SlotId,
    fork_harness,
    hide_split,
    process_specific_finish,
    process_specific_init,
    reinit_harness,
    snapshot,
    spawn_inheriting,
    thread_harness,
)
from simplex.context import EXPECTED_FORK_TABLE

P, C1, C2 = Actor.PARENT, Actor.CHILD1, Actor.CHILD2

# Independent copies of the expected observations, written out literally,
# so a wrong package table cannot make a wrong log pass.

FORK_OBSERVED = [
    (P, {P: (True, 1)}),
    (P, {P: (True, 1), C1: (True, 1)}),
    (C1, {P: (True, 1), C1: (True, 2)}),
    (C1, {P: (True, 1), C1: (False, None)}),
    (C1, {P: (True, 1)}),
    (P, {P: (False, None)}),
]

THREAD_OBSERVED = [
    (P, {P: (True, 0)}),
    (P, {P: (True, 0), C1: (True, 0)}),          # child inherits parent's 0
    (P, {P: (True, 0), C1: (True, 0), C2: (True, 0)}),
    (C1, {P: (True, 0), C1: (True, 1), C2: (True, 0)}),
    (C2, {P: (True, 0), C1: (True, 1), C2: (True, 2)}),
    (C2, {P: (True, 0), C1: (True, 1), C2: (False, None)}),
    (C1, {P: (True, 0), C1: (False, None), C2: (False, None)}),
    (P, {P: (True, 0)}),
    (P, {P: (False, None)}),
]

REINIT_OBSERVED = [
    (P, {P: (True, LOW_RESET)}),
    (P, {P: (True, 5)}),
    (P, {P: (True, LOW_RESET)}),
    (P, {P: (False, None)}),
    (P, {P: (False, None)}),
]


def _assert_log_matches(log, observed):
    assert len(log.rows) == len(observed)
    for (actor, action, seen), (want_actor, cells) in zip(log.rows, observed):
        assert actor is want_actor, action
        assert seen == cells, action


@pytest.mark.skipif(not hasattr(os, "fork"), reason="platform has no fork()")
def test_fork_harness_matches_observed_table(backend):
    log = fork_harness(backend)
    _assert_log_matches(log, FORK_OBSERVED)


def test_thread_harness_matches_observed_table(backend):
    log = thread_harness(backend)
    _assert_log_matches(log, THREAD_OBSERVED)


def test_reinit_harness_matches_observed_table(backend):
    log = reinit_harness(backend)
    _assert_log_matches(log, REINIT_OBSERVED)


def test_reinit_harness_hashes_no_enum_in_python():
    # Actor hashes by identity, and the slot check iterates a tuple, not SlotId.
    calls, outer = [], sys.getprofile()
    sys.setprofile(lambda frame, event, arg: event == "call" and calls.append(frame.f_code))
    try:
        reinit_harness(BackendKind.EMULATED)
    finally:
        sys.setprofile(outer)
    assert [code for code in calls if code.co_name == "__hash__"] == []
    assert [code for code in calls if code.co_name == "__iter__"
            and "enum" in code.co_filename] == []


def test_harness_logs_deterministic_across_runs(backend):
    first = thread_harness(backend)
    second = thread_harness(backend)
    assert first.rows == second.rows


def test_snapshot_reads_all_slots(file):
    file.setbnd128(SlotId.BND1, 7, 8)
    shot = snapshot(file)
    assert len(shot) == 4
    assert shot[SlotId.BND1] == BoundsSlot(7, 8)
    assert shot[SlotId.BND0].low == LOW_RESET
    assert snapshot(file) == shot


def test_spawn_inheriting_copies_then_isolates(file):
    file.setbnd_low(SlotId.BND0, 0)
    file.setbnd128(SlotId.BND3, 0xAA, 0xBB)
    seen = {}

    def task(child_file):
        seen["initial"] = snapshot(child_file)
        child_file.setbnd_low(SlotId.BND0, 1)
        seen["after_write"] = child_file.getbnd_low(SlotId.BND0)
        process_specific_finish(child_file)

    thread = spawn_inheriting(file, task)
    thread.join(timeout=30)
    assert not thread.is_alive()
    assert seen["initial"] == snapshot(file)
    assert seen["after_write"] == 1
    # Child wrote 1 and finished; parent still reads its own 0.
    assert file.getbnd_low(SlotId.BND0) == 0


def test_bare_thread_starts_disabled(backend):
    outcome = {}

    def task():
        file = RegisterFile(backend)
        try:
            file.getbnd_low(SlotId.BND0)
            outcome["error"] = None
        except DisabledError as exc:
            outcome["error"] = exc

    thread = threading.Thread(target=task)
    thread.start()
    thread.join(timeout=30)
    assert isinstance(outcome["error"], DisabledError)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="platform has no fork()")
def test_fork_failure_maps_to_forkfailed(monkeypatch):
    def broken_fork():
        raise OSError("out of processes")

    monkeypatch.setattr(os, "fork", broken_fork)
    with pytest.raises(ForkFailedError):
        fork_harness(BackendKind.EMULATED)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="platform has no fork()")
def test_fork_harness_reports_first_mismatched_row(monkeypatch):
    flipped = [(actor, action, dict(cells)) for actor, action, cells in EXPECTED_FORK_TABLE]
    flipped[2][2][Actor.CHILD1] = (True, 3)
    monkeypatch.setattr(context, "EXPECTED_FORK_TABLE", flipped)
    with pytest.raises(HarnessMismatchError) as excinfo:
        fork_harness(BackendKind.EMULATED)
    assert excinfo.value.row_index == 2
    assert "row 2" in str(excinfo.value)


def test_thread_harness_reports_first_mismatched_row(monkeypatch):
    flipped = [(actor, action, dict(cells))
               for actor, action, cells in context.EXPECTED_THREAD_TABLE]
    flipped[4][2][Actor.CHILD2] = (True, 7)
    monkeypatch.setattr(context, "EXPECTED_THREAD_TABLE", flipped)
    with pytest.raises(HarnessMismatchError) as excinfo:
        thread_harness(BackendKind.EMULATED)
    assert excinfo.value.row_index == 4


def test_child_finish_part_of_fork_table_leaves_parent_enabled():
    # Narrow re-check of the load-bearing cells, independent of the tables.
    log = thread_harness(BackendKind.EMULATED)
    _, _, child2_finish = log.rows[5]
    assert child2_finish[C2][0] is False
    assert child2_finish[P][0] is True
    assert child2_finish[C1][0] is True


def test_leak_into_parent_is_reported_at_the_leaking_row(monkeypatch):
    # Child 2's finish also disables the parent's view of its own file.
    # Every row is observed after its action, so the runner must report the
    # leak at child 2's finish (row 5), not at a later row.
    caller = threading.current_thread()
    leaked = threading.Event()
    real_finish, real_is_enabled = context.process_specific_finish, context.is_enabled

    def leaky_finish(file):
        real_finish(file)
        if threading.current_thread().name == "simplex-child2":
            leaked.set()

    def is_enabled(file):
        if leaked.is_set() and threading.current_thread() is caller:
            return False
        return real_is_enabled(file)

    monkeypatch.setattr(context, "process_specific_finish", leaky_finish)
    monkeypatch.setattr(context, "is_enabled", is_enabled)
    with pytest.raises(HarnessMismatchError) as excinfo:
        thread_harness(BackendKind.EMULATED)
    assert excinfo.value.row_index == 5
    assert excinfo.value.actual[:2] == (C2, "process_specific_finish()")
    assert excinfo.value.actual[2][P] == (False, None)


def _fail_child_write(monkeypatch):
    """Make the children's setbnd_low(BND0, 2) raise; the parents never write 2."""
    real = RegisterFile.setbnd_low

    def setbnd_low(self, slot, value):
        if value == 2:
            raise RuntimeError("injected child failure")
        return real(self, slot, value)

    monkeypatch.setattr(RegisterFile, "setbnd_low", setbnd_low)


def test_failed_thread_child_raises_promptly_and_leaves_no_thread(monkeypatch):
    _fail_child_write(monkeypatch)
    before = threading.active_count()
    start = time.monotonic()
    with pytest.raises(ForkFailedError, match="CHILD2 failed"):
        thread_harness(BackendKind.EMULATED)
    assert time.monotonic() - start < 5
    assert threading.active_count() == before


@pytest.mark.skipif(not hasattr(os, "fork"), reason="platform has no fork()")
def test_failed_fork_child_raises_and_is_reaped(monkeypatch):
    _fail_child_write(monkeypatch)
    pids = _record_forks(monkeypatch)
    with pytest.raises(ForkFailedError, match="CHILD1 failed: .*injected child failure"):
        fork_harness(BackendKind.EMULATED)
    _assert_reaped(pids)


def _record_forks(monkeypatch):
    """Record the pid of every child the parent forks from here on."""
    pids = []
    real_fork = os.fork

    def recording_fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def _assert_reaped(pids):
    assert len(pids) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(pids[0], os.WNOHANG)


HARNESSES = [
    pytest.param(fork_harness, id="fork", marks=pytest.mark.skipif(
        not hasattr(os, "fork"), reason="platform has no fork()")),
    pytest.param(thread_harness, id="thread"),
]


@pytest.mark.parametrize("harness", HARNESSES)
def test_hung_child_times_out_and_leaves_nothing_behind(monkeypatch, harness):
    # In each harness one child, and never the parent, writes 2 to BND0;
    # here that child stalls past the reply timeout instead of answering.
    # A stalled thread is released once the harness closes it; a fork
    # child's copy of the event is never set, so it stalls until killed.
    real_act, real_close = context._act, context._ThreadChild.close
    release = threading.Event()

    def stalling_act(file, command, arg):
        if (command, arg) == ("setbnd", 2):
            release.wait(30)
        return real_act(file, command, arg)

    def releasing_close(child):
        release.set()
        return real_close(child)

    monkeypatch.setattr(context, "_REPLY_TIMEOUT", 0.5)
    monkeypatch.setattr(context, "_act", stalling_act)
    monkeypatch.setattr(context._ThreadChild, "close", releasing_close)
    pids = _record_forks(monkeypatch)
    before = threading.active_count()
    start = time.monotonic()
    with pytest.raises(ForkFailedError, match="CHILD[12] did not reply"):
        harness(BackendKind.EMULATED)
    assert threading.active_count() == before
    if harness is fork_harness:
        assert time.monotonic() - start < 1.5  # the silent process was killed, not awaited
        _assert_reaped(pids)
    else:
        assert pids == []


@pytest.mark.skipif(not hasattr(os, "fork"), reason="platform has no fork()")
def test_fork_child_that_dies_without_replying_is_reported_at_once(monkeypatch):
    real_act = context._act

    def dying_act(file, command, arg):
        if (command, arg) == ("setbnd", 2):
            os._exit(3)  # as if killed: the channel closes unanswered
        return real_act(file, command, arg)

    monkeypatch.setattr(context, "_act", dying_act)
    pids = _record_forks(monkeypatch)
    start = time.monotonic()
    with pytest.raises(ForkFailedError, match="CHILD1 channel lost: EOFError"):
        fork_harness(BackendKind.EMULATED)
    assert time.monotonic() - start < 5
    _assert_reaped(pids)


# A finish that leaves (slot, low, high) in the parent's raw image, the value
# the post-finish check must report, and the expectation it must name on
# each backend.  On hardware only BND0's high MSB is pinned, so 0x1234 fails
# there for its clear MSB, and on the emulated backend for not being zero.
_LEFTOVERS = {
    "bnd1": (SlotId.BND1, 0x1234, HIGH_RESET, f"BND1={(0x1234, HIGH_RESET)}",
             {BackendKind.EMULATED: "BND1 reset after finalize",
              BackendKind.HARDWARE: "BND1 reset after finalize"}),
    "bnd0-low": (SlotId.BND0, 0x1234, 1 << 63, "0x1234",
                 {BackendKind.EMULATED: "BND0 low half reset after finalize",
                  BackendKind.HARDWARE: "BND0 low half reset after finalize"}),
    "bnd0-high": (SlotId.BND0, LOW_RESET, 0x1234, "0x1234",
                  {BackendKind.EMULATED: "BND0 high half at reset value",
                   BackendKind.HARDWARE: "BND0 high half MSB set"}),
}


# (harness, row of the parent's first finish, leftover) for every harness and
# leftover.  The id is the harness's name, then the leftover's unless it is BND1's.
_FINISH_CASES = [
    pytest.param(harness, row, leftover, id=name if leftover == "bnd1" else f"{name}-{leftover}",
                 marks=[pytest.mark.skipif(not hasattr(os, "fork"), reason="platform has no fork()")]
                 if name == "fork" else [])
    for leftover in _LEFTOVERS
    for harness, row, name in [(fork_harness, 5, "fork"), (thread_harness, 8, "thread"),
                               (reinit_harness, 3, "reinit")]
]


@pytest.mark.parametrize("harness, row, leftover", _FINISH_CASES)
def test_finish_that_leaves_a_payload_fails_every_harness(backend, monkeypatch, harness, row,
                                                          leftover):
    # The parent's first finish must leave the slots at their final values;
    # this one leaves another value, which no logged cell shows, so only the
    # post-finish check sees it.  On hardware the bounds-make needs MPX on.
    slot, low, high, actual, expected = _LEFTOVERS[leftover]
    real_finish = context.process_specific_finish

    def leaving_finish(file):
        real_finish(file)
        file._ctx.enable()
        file._ctx.make_bounds(slot, low, high)
        file._ctx.disable()

    monkeypatch.setattr(context, "process_specific_finish", leaving_finish)
    with pytest.raises(HarnessMismatchError, match=expected[backend]) as excinfo:
        harness(backend)
    assert excinfo.value.row_index == row
    assert excinfo.value.actual == actual


def test_init_that_leaves_a_payload_fails_the_reinit_harness(monkeypatch):
    real_init = context.process_specific_init

    def leaving_init(kind):
        file = real_init(kind)
        file.setbnd_low(SlotId.BND1, 0x1234)
        return file

    monkeypatch.setattr(context, "process_specific_init", leaving_init)
    with pytest.raises(HarnessMismatchError, match="BND1 at reset state") as excinfo:
        reinit_harness(BackendKind.EMULATED)
    assert excinfo.value.row_index == 0


@pytest.mark.skipif(not hasattr(os, "fork"), reason="platform has no fork()")
def test_fork_harness_with_sigchld_ignored_raises_forkfailed(run_python):
    # With SIGCHLD ignored the kernel reaps each child itself, so waitpid finds
    # none; the harness must say so after a clean exit.  After a kill, the
    # child's silence came first: that is the error raised, in the CLI too,
    # and the failed close is a note on it, which the CLI prints after it.
    done = run_python("""if True:
        import json, signal, sys, time
        import simplex.context as context
        from simplex import BackendKind, ForkFailedError, cli, fork_harness
        signal.signal(signal.SIGCHLD, signal.SIG_IGN)

        def outcome():
            try:
                fork_harness(BackendKind.EMULATED)
            except ForkFailedError as exc:
                return [str(exc), *getattr(exc, "__notes__", ())]
            return "passed"

        def run_cli():
            print("cli", cli.main(["--backend", "emulated", "selftest", "--fork"]))
            print("--", file=sys.stderr, flush=True)

        print(json.dumps(outcome()))
        run_cli()
        real_act = context._act

        def stalling_act(file, command, arg):
            if (command, arg) == ("setbnd", 2):
                time.sleep(30)
            real_act(file, command, arg)

        context._act, context._REPLY_TIMEOUT = stalling_act, 0.5
        print(json.dumps(outcome()))
        run_cli()
    """)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.split("\n")
    assert (lines[1], lines[3]) == ("cli 2", "cli 2")
    (exited,), (killed, note) = json.loads(lines[0]), json.loads(lines[2])
    assert "CHILD1" in exited and "exit status could not be collected" in exited
    assert killed == "CHILD1 did not reply"
    assert note.startswith("closing CHILD1 failed too:") and "could not be collected" in note
    exit_err, kill_err = done.stderr.split("--\n")[:2]
    assert "exit status could not be collected" in exit_err
    assert "harness could not run: CHILD1 did not reply\nclosing CHILD1 failed too:" in kill_err
    assert "could not be collected" in kill_err


class _Closing:
    """A stand-in child that records its close and fails it if told to."""

    def __init__(self, actor, closed, fails) -> None:
        self.actor, self.closed, self.fails = actor, closed, fails

    def close(self) -> bool:
        self.closed.append(self.actor)
        if self.fails:
            raise ForkFailedError(f"{self.actor.name} would not close")
        return True


@pytest.mark.parametrize("in_flight", [False, True])
def test_the_runner_closes_every_child_and_keeps_the_first_error(in_flight):
    closed = []
    children = [_Closing(actor, closed, fails) for actor, fails in ((C1, True), (C2, True))]
    error = ValueError("the row failed") if in_flight else None
    if in_flight:
        context._close_all(children, error)
        first = error
    else:
        with pytest.raises(ForkFailedError, match="CHILD1 would not close") as excinfo:
            context._close_all(children, None)
        first = excinfo.value
    assert closed == [C1, C2]
    assert first.__notes__[-1] == "closing CHILD2 failed too: CHILD2 would not close"
    assert len(first.__notes__) == (2 if in_flight else 1)


def test_importing_the_package_leaves_multiprocessing_unloaded(run_python):
    # Only harnesses that start children should pay its 10-20 ms import, and
    # only hiding's SHAKE-128 fallback should pay for hashlib's libcrypto.
    done = run_python("import sys, simplex, simplex.cli; "
                      "print([m for m in ('multiprocessing', 'hashlib', '_hashlib') "
                      "if m in sys.modules])")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def _dontdump_mappings() -> tuple[int, int]:
    """(count, bytes) of this process's mappings with the dd VmFlag, as every share mapping has."""
    count = size = 0
    with open("/proc/self/smaps") as smaps:
        for line in smaps:
            head = line.split(maxsplit=1)[0]
            if "-" in head and not head.endswith(":"):
                start, end = (int(x, 16) for x in head.split("-"))
            elif head == "VmFlags:" and "dd" in line.split()[1:]:
                count, size = count + 1, size + end - start
    return count, size


@pytest.mark.skipif(not os.path.exists("/proc/self/smaps"), reason="no /proc on this host")
def test_harnesses_and_hides_leave_no_descriptor_or_mapping_behind():
    # A Pipe end or an mmap left open raises no ResourceWarning, so count them.
    def one_round():
        fork_harness(BackendKind.EMULATED)
        thread_harness(BackendKind.EMULATED)
        reinit_harness(BackendKind.EMULATED)
        file = process_specific_init(BackendKind.EMULATED)
        for n in (32, 4096 + 17):
            hide_split(file, bytearray(n)).destroy()
        process_specific_finish(file)

    def held():
        gc.collect()
        return len(os.listdir("/proc/self/fd")), _dontdump_mappings()

    one_round()  # whatever the first round sets up once is not a leak
    before = held()
    for _ in range(5):
        one_round()
    assert held() == before
