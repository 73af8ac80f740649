"""Inheritance semantics: fork, threads, re-init, and the harness plumbing."""

import os
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
def test_fork_harness_matches_observed_table():
    log = fork_harness(BackendKind.EMULATED)
    _assert_log_matches(log, FORK_OBSERVED)


def test_thread_harness_matches_observed_table():
    log = thread_harness(BackendKind.EMULATED)
    _assert_log_matches(log, THREAD_OBSERVED)


def test_reinit_harness_matches_observed_table():
    log = reinit_harness(BackendKind.EMULATED)
    _assert_log_matches(log, REINIT_OBSERVED)


def test_harness_logs_deterministic_across_runs():
    first = thread_harness(BackendKind.EMULATED)
    second = thread_harness(BackendKind.EMULATED)
    assert first.rows == second.rows


def test_snapshot_reads_all_slots(emulated_file):
    emulated_file.setbnd128(SlotId.BND1, 7, 8)
    shot = snapshot(emulated_file)
    assert len(shot) == 4
    assert shot[SlotId.BND1] == BoundsSlot(7, 8)
    assert shot[SlotId.BND0].low == LOW_RESET
    assert snapshot(emulated_file) == shot


def test_spawn_inheriting_copies_then_isolates(emulated_file):
    emulated_file.setbnd_low(SlotId.BND0, 0)
    emulated_file.setbnd128(SlotId.BND3, 0xAA, 0xBB)
    seen = {}

    def task(child_file):
        seen["initial"] = snapshot(child_file)
        child_file.setbnd_low(SlotId.BND0, 1)
        seen["after_write"] = child_file.getbnd_low(SlotId.BND0)
        process_specific_finish(child_file)

    thread = spawn_inheriting(emulated_file, task)
    thread.join(timeout=30)
    assert not thread.is_alive()
    assert seen["initial"] == snapshot(emulated_file)
    assert seen["after_write"] == 1
    # Child wrote 1 and finished; parent still reads its own 0.
    assert emulated_file.getbnd_low(SlotId.BND0) == 0


def test_bare_thread_starts_disabled():
    outcome = {}

    def task():
        file = RegisterFile(BackendKind.EMULATED)
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
def test_fork_harness_reports_first_mismatched_row():
    flipped = [(actor, action, dict(cells)) for actor, action, cells in EXPECTED_FORK_TABLE]
    flipped[2][2][Actor.CHILD1] = (True, 3)
    with pytest.raises(HarnessMismatchError) as excinfo:
        fork_harness(BackendKind.EMULATED, expected=flipped)
    assert excinfo.value.row_index == 2
    assert "row 2" in str(excinfo.value)


def test_thread_harness_reports_first_mismatched_row():
    from simplex.context import EXPECTED_THREAD_TABLE

    flipped = [(actor, action, dict(cells)) for actor, action, cells in EXPECTED_THREAD_TABLE]
    flipped[4][2][Actor.CHILD2] = (True, 7)
    with pytest.raises(HarnessMismatchError) as excinfo:
        thread_harness(BackendKind.EMULATED, expected=flipped)
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


@pytest.mark.parametrize("harness, row", [
    pytest.param(fork_harness, 5, id="fork", marks=pytest.mark.skipif(
        not hasattr(os, "fork"), reason="platform has no fork()")),
    pytest.param(thread_harness, 8, id="thread"),
    pytest.param(reinit_harness, 3, id="reinit"),
])
def test_finish_that_leaves_a_payload_fails_every_harness(monkeypatch, harness, row):
    # The parent's first finish must leave BND1 reset; this one leaves 0x1234
    # there, which no logged cell shows, so only the post-finish check sees it.
    real_finish = context.process_specific_finish

    def leaving_finish(file):
        real_finish(file)
        file._ctx.make_bounds(SlotId.BND1, 0x1234, HIGH_RESET)

    monkeypatch.setattr(context, "process_specific_finish", leaving_finish)
    with pytest.raises(HarnessMismatchError, match="BND1 reset after finalize") as excinfo:
        harness(BackendKind.EMULATED)
    assert excinfo.value.row_index == row
    assert excinfo.value.actual == f"BND1={(0x1234, HIGH_RESET)}"


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
    # none; the harness must say so, after a clean exit and after a kill alike.
    done = run_python("""if True:
        import signal, time
        import simplex.context as context
        from simplex import BackendKind, ForkFailedError, cli, fork_harness
        signal.signal(signal.SIGCHLD, signal.SIG_IGN)

        def outcome():
            try:
                fork_harness(BackendKind.EMULATED)
            except ForkFailedError as exc:
                return "could not be collected" in str(exc) and "CHILD1" in str(exc)
            return "passed"

        print("exit", outcome())
        print("cli", cli.main(["--backend", "emulated", "selftest", "--fork"]))
        real_act = context._act

        def stalling_act(file, command, arg):
            if (command, arg) == ("setbnd", 2):
                time.sleep(30)
            real_act(file, command, arg)

        context._act, context._REPLY_TIMEOUT = stalling_act, 0.5
        print("kill", outcome())
    """)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n")[:3] == ["exit True", "cli 2", "kill True"]
    assert "exit status could not be collected" in done.stderr


def test_importing_the_package_leaves_multiprocessing_unloaded(run_python):
    # Only harnesses that start children should pay its 10-20 ms import, and
    # only hiding's SHAKE-128 fallback should pay for hashlib's libcrypto.
    done = run_python("import sys, simplex, simplex.cli; "
                      "print([m for m in ('multiprocessing', 'hashlib', '_hashlib') "
                      "if m in sys.modules])")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
