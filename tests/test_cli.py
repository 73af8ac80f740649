"""CLI contract: exit codes, output shapes, and argument handling."""

import csv
import io
import json
import os
import re
import zlib

import pytest

import simplex.cli
from simplex import CSV_HEADER, probe, unhide_combine
from simplex.cli import (
    EXIT_CORRECTNESS,
    EXIT_ENVIRONMENT,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from simplex.probe import ENV_BACKEND


@pytest.fixture(autouse=True)
def clean_backend_env(monkeypatch):
    monkeypatch.delenv(ENV_BACKEND, raising=False)


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == EXIT_USAGE
    assert "usage" in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == EXIT_USAGE


def test_probe_reports_selection(capsys):
    assert main(["probe"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "selected:" in out
    assert "hardware_capable:" in out


def test_probe_json_schema(capsys):
    assert main(["probe", "--json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {
        "cpu_has_mpx", "xstate_bndregs", "xstate_bndcsr",
        "os_context_saves_mpx", "selected", "override_source",
    }
    assert doc["selected"] in ("hardware", "emulated")
    assert doc["override_source"] in ("none", "env", "flag")


def test_unknown_backend_flag_lists_the_override_values(capsys):
    assert main(["--backend", "hw", "probe"]) == EXIT_USAGE
    assert re.search(r"choose from '?auto'?, '?hardware'?, '?emulated'?\)",
                     capsys.readouterr().err)


def test_probe_strict_hardware_on_incapable_machine(capsys):
    if probe().hardware_capable:
        pytest.skip("machine provides MPX; strict probe succeeds here")
    assert main(["--backend", "hardware", "probe"]) == EXIT_ENVIRONMENT
    assert capsys.readouterr().err


def test_hardware_flag_on_incapable_machine_exits_environment(incapable_machine, capsys):
    assert main(["--backend", "hardware", "selftest", "--roundtrip"]) == EXIT_ENVIRONMENT
    assert "cpu_has_mpx=False" in capsys.readouterr().err


def test_hardware_env_on_incapable_machine_warns_and_runs_emulated(
        incapable_machine, monkeypatch, capsys):
    monkeypatch.setenv(ENV_BACKEND, "hardware")
    with pytest.warns(RuntimeWarning):
        assert main(["probe"]) == EXIT_OK
    assert "selected: emulated (override: env)" in capsys.readouterr().out
    with pytest.warns(RuntimeWarning):
        assert main(["selftest", "--roundtrip"]) == EXIT_OK


def test_bad_backend_flag_is_usage_error():
    assert main(["--backend", "turbo", "probe"]) == EXIT_USAGE


def test_bad_backend_env_is_environment_error(monkeypatch, capsys):
    monkeypatch.setenv(ENV_BACKEND, "turbo")
    assert main(["probe"]) == EXIT_ENVIRONMENT
    assert "backend configuration" in capsys.readouterr().err


def test_env_override_is_reported(monkeypatch, capsys):
    monkeypatch.setenv(ENV_BACKEND, "emulated")
    assert main(["probe"]) == EXIT_OK
    assert "override: env" in capsys.readouterr().out


def test_selftest_passes_all_stages(capsys):
    assert main(["--backend", "emulated", "selftest"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("PASS") == 4
    for stage in ("fork-inheritance", "thread-inheritance",
                  "reinit-and-finish", "round-trip"):
        assert stage in out


def test_selftest_single_stage(capsys):
    assert main(["--backend", "emulated", "selftest", "--reinit"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("PASS") == 1
    assert "reinit-and-finish" in out


def test_selftest_injected_fault_exits_correctness(capsys):
    assert main(["--backend", "emulated", "selftest", "--fork",
                 "--inject-fault"]) == EXIT_CORRECTNESS
    err = capsys.readouterr().err
    assert "FAIL" in err and "row 2" in err


def test_selftest_wrong_reconstruction_exits_correctness(monkeypatch, capsys):
    def flipping_unhide(*args, **kwargs):
        out = bytearray(unhide_combine(*args, **kwargs))
        out[0] ^= 1
        return out

    monkeypatch.setattr(simplex.cli, "unhide_combine", flipping_unhide)
    assert main(["--backend", "emulated", "selftest", "--roundtrip"]) == EXIT_CORRECTNESS
    assert "FAIL correctness check: per-pass reconstruction produced wrong bytes" in (
        capsys.readouterr().err)


@pytest.mark.parametrize("stage", ["--threads", "--reinit"])
def test_injected_fault_runs_the_fork_harness(stage, capsys):
    assert main(["--backend", "emulated", "selftest", stage,
                 "--inject-fault"]) == EXIT_CORRECTNESS
    assert "row 2" in capsys.readouterr().err


def test_bench_loadstore_markdown(capsys):
    assert main(["--backend", "emulated", "bench", "loadstore",
                 "--runs", "2", "--iters", "64"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "| loadstore" in out
    assert "slot/register rate ratio: store" in out
    assert "slot/register rate ratio: load" in out


def test_bench_traversal_csv_header_and_rows(capsys):
    assert main(["--backend", "emulated", "bench", "traversal",
                 "--sizes", "1K", "--runs", "2", "--iters", "1",
                 "--format", "csv"]) == EXIT_OK
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3  # header + register + slot
    rows = list(csv.DictReader(io.StringIO(out)))
    assert {r["target"] for r in rows} == {"register", "slot"}
    assert all(r["size_bytes"] == "1024" for r in rows)


def test_bench_csv_keeps_notes_on_stderr(capsys):
    assert main(["--backend", "emulated", "bench", "loadstore", "--runs", "1",
                 "--iters", "10", "--format", "csv"]) == EXIT_OK
    captured = capsys.readouterr()
    assert len(list(csv.DictReader(io.StringIO(captured.out)))) == 4
    assert "# slot/register rate ratio: store" in captured.err
    assert "# slot/register rate ratio: load" in captured.err


def test_bench_strops_json_carries_geomean(capsys):
    assert main(["--backend", "emulated", "bench", "strops",
                 "--sizes", "512", "--runs", "2", "--format", "json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert "geomean_overhead_pct" in doc
    assert len(doc["records"]) == 10


def test_bench_size_alias_accepted(capsys):
    assert main(["--backend", "emulated", "bench", "strops",
                 "--size", "512", "--runs", "2", "--format", "json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert {r["size_bytes"] for r in doc["records"]} == {512}


def test_bench_help_documents_published_defaults(capsys):
    assert main(["bench", "--help"]) == EXIT_OK
    out = capsys.readouterr().out
    for token in ("10000", "1000000", "1000", "4K,8K,1M,16M", "per-byte", "100"):
        assert token in out


def test_one_parser_serves_every_call(capsys):
    """The cached parser keeps help, usage errors and commands as they were."""
    assert main(["--help"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("usage: simplex") and "{probe,selftest,bench,demo-hide}" in out
    assert main(["bench", "strops", "--sizes", "512", "--iters", "4"]) == EXIT_USAGE
    assert "--iters does not apply to strops" in capsys.readouterr().err
    assert main(["probe", "--json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["selected"] in ("hardware", "emulated")
    assert main(["bench", "--help"]) == EXIT_OK
    assert "4K,8K,1M,16M" in capsys.readouterr().out
    assert simplex.cli._build_parser() is simplex.cli._build_parser()


def test_bench_rejects_malformed_sizes(capsys):
    for sizes, message in [("4X", "bad size"), ("0", "sizes must be positive"),
                           ("0K", "sizes must be positive")]:
        assert main(["--backend", "emulated", "bench", "strops",
                     "--sizes", sizes]) == EXIT_USAGE
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--runs", "0"), ("--iters", "0"),
                                         ("--runs", "-1"), ("--iters", "1.5")])
def test_bench_rejects_non_positive_counts(flag, value, capsys):
    assert main(["--backend", "emulated", "bench", "loadstore",
                 "--runs", "2", "--iters", "8", flag, value]) == EXIT_USAGE
    assert "expected a positive integer" in capsys.readouterr().err


def test_bench_strops_rejects_iters(capsys):
    assert main(["--backend", "emulated", "bench", "strops",
                 "--sizes", "512", "--runs", "2", "--iters", "4"]) == EXIT_USAGE
    assert "--iters" in capsys.readouterr().err


@pytest.mark.parametrize("fixture, flag, value", [("loadstore", "--sizes", "1K"),
                                                  ("loadstore", "--reload", "per-pass"),
                                                  ("strops", "--reload", "per-pass")])
def test_bench_rejects_flags_the_fixture_does_not_take(fixture, flag, value, capsys):
    assert main(["--backend", "emulated", "bench", fixture,
                 "--runs", "1", flag, value]) == EXIT_USAGE
    assert flag in capsys.readouterr().err


def test_demo_hide_roundtrip(tmp_path, capsys):
    secret = tmp_path / "secret.bin"
    secret.write_bytes(bytes(range(256)) * 16)  # 4 KiB
    assert main(["--backend", "emulated", "demo-hide",
                 "--secret-file", str(secret)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "BND2" in out and "BND3" in out
    assert "nothing was written to disk" in out
    assert list(tmp_path.iterdir()) == [secret]  # no artifacts
    # CRC-32 is one-to-one on inputs of up to 4 bytes: printing it would
    # give a short secret away.
    short = tmp_path / "short.bin"
    short.write_bytes(b"\x5a\xa5")
    assert main(["--backend", "emulated", "demo-hide",
                 "--secret-file", str(short)]) == EXIT_OK
    out += capsys.readouterr().out
    assert "2 bytes" in out
    assert "crc32" not in out
    assert f"{zlib.crc32(short.read_bytes()):08x}" not in out


def test_demo_hide_zeroes_the_reconstruction(tmp_path, monkeypatch, capsys):
    secret = tmp_path / "secret.bin"
    secret.write_bytes(b"plaintext " * 500)
    returned = []

    def recording_unhide(*args, **kwargs):
        returned.append(unhide_combine(*args, **kwargs))
        return returned[-1]

    monkeypatch.setattr(simplex.cli, "unhide_combine", recording_unhide)
    assert main(["--backend", "emulated", "demo-hide",
                 "--secret-file", str(secret)]) == EXIT_OK
    assert "reconstruction matches the original" in capsys.readouterr().out
    assert returned == [bytearray(5000)]


def test_demo_hide_empty_file(tmp_path, capsys):
    secret = tmp_path / "empty.bin"
    secret.write_bytes(b"")
    assert main(["--backend", "emulated", "demo-hide",
                 "--secret-file", str(secret)]) == EXIT_OK
    assert "nothing to hide" in capsys.readouterr().out


def test_demo_hide_missing_file(tmp_path, capsys):
    assert main(["--backend", "emulated", "demo-hide",
                 "--secret-file", str(tmp_path / "absent")]) == EXIT_USAGE
    assert "cannot read" in capsys.readouterr().err


def test_demo_hide_rejects_oversized_file(tmp_path, capsys):
    big = tmp_path / "big.bin"
    big.write_bytes(b"\0" * ((16 << 20) + 1))
    assert main(["--backend", "emulated", "demo-hide",
                 "--secret-file", str(big)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "caps secrets" in err and f"more than {16 << 20} bytes" in err


# The address-space cap leaves 256 MiB above what the interpreter has mapped:
# room for the demo's 16 MiB read, none for all of an endless file.
DEMO_HIDE_ENDLESS = """
import resource, sys
from simplex.cli import main
with open("/proc/self/status") as status:
    mapped = next(int(line.split()[1]) for line in status if line.startswith("VmSize:"))
cap = (mapped << 10) + (256 << 20)
_, hard = resource.getrlimit(resource.RLIMIT_AS)
if hard != resource.RLIM_INFINITY:
    cap = min(cap, hard)
resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
sys.exit(main(["--backend", "emulated", "demo-hide", "--secret-file", "/dev/zero"]))
"""


@pytest.mark.skipif(not (os.path.exists("/dev/zero") and os.path.exists("/proc/self/status")),
                    reason="needs /dev/zero and /proc/self/status")
def test_demo_hide_stops_reading_an_endless_file_at_the_cap(run_python):
    done = run_python(DEMO_HIDE_ENDLESS)
    assert done.returncode == EXIT_USAGE, done.stderr
    assert "caps secrets" in done.stderr and "Traceback" not in done.stderr


STDLIB_ONLY = """
import sys
before = set(sys.modules)
import simplex, simplex.cli
file = simplex.process_specific_init(simplex.BackendKind.EMULATED)
secret = b"stdlib only" * 100
assert simplex.unhide_combine(file, simplex.hide_split(file, bytearray(secret))) == secret
simplex.process_specific_finish(file)
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(" ".join(sorted(loaded - set(sys.stdlib_module_names) - {"simplex"})))
"""


def test_simplex_loads_only_the_standard_library(run_python):
    done = run_python(STDLIB_ONLY)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "", f"third-party modules loaded: {done.stdout}"
