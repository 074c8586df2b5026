import json
import subprocess
import sys

import pytest

from wordram.cli import main
from wordram.perfecthash import PerfectHash

RUN = [sys.executable, "-m", "wordram.cli"]


def capture(args, python_flags=()):
    run = [sys.executable, *python_flags, *RUN[1:]]
    proc = subprocess.run(run + args, capture_output=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("python_flags", [(), ("-O",)], ids=["plain", "O"])
def test_oracle_fuzz_clean_exit(python_flags):
    args = ["oracle-fuzz", "--w", "8", "--ops", "120", "--audit", "--seed", "3"]
    code, out, _ = capture(args, python_flags)
    assert code == 0
    report = json.loads(out)
    assert report["mismatches"] == 0
    assert report["pred_queries_during_query"] == 0
    if python_flags:
        # the checks raise without assert: -O changes no byte of stdout
        assert out == capture(args)[1]


@pytest.mark.parametrize("args,message", [
    (["oracle-fuzz", "--w", "8", "--B", "3", "--variant", "5a"], b"power of two"),
    (["fp-rate", "--n", "64", "--trials", "0"], b"--trials must be at least 1"),
    (["probe-bench", "--n", "64", "--B", "2", "--trials", "0"], b"--trials must be at least 1"),
    (["oracle-fuzz", "--ops", "-3"], b"--ops must be at least 1"),
    (["oracle-fuzz", "--ops", "0"], b"--ops must be at least 1"),
    (["oracle-fuzz", "--queries-per-op", "-1"], b"--queries-per-op at least 0"),
    (["perfect-hash-demo", "--n", "64", "--ops", "-1"], b"--ops must be at least 0"),
], ids=["branch", "fp-trials", "probe-trials", "fuzz-ops", "fuzz-ops-zero", "fuzz-queries",
        "demo-ops"])
def test_invalid_branch_usage_error(args, message):
    code, _, err = capture(args)
    assert code == 2  # parameter validation failures are usage errors
    assert message in err


def test_unknown_flag_exits_2():
    code, _, _ = capture(["oracle-fuzz", "--bogus"])
    assert code == 2


def test_byte_identical_reruns():
    args = ["probe-bench", "--n", "4096", "--B", "2,16", "--trials", "400",
            "--seed", "9", "--format", "csv"]
    _, out1, _ = capture(args)
    _, out2, _ = capture(args)
    assert out1 == out2
    assert out1.startswith(b"B,strategy,")


def test_fp_rate_schema():
    code, out, _ = capture(
        ["fp-rate", "--n", "256", "--u-bits", "24", "--trials", "20000", "--seed", "1"]
    )
    assert code == 0
    report = json.loads(out)
    assert set(report) == {"n", "fp_rate", "epsilon", "stored_errors",
                           "space_bits", "C_measured"}
    assert report["stored_errors"] == 0


def test_perfect_hash_demo():
    code, out, _ = capture(
        ["perfect-hash-demo", "--n", "512", "--u-bits", "32", "--seed", "2"]
    )
    assert code == 0
    report = json.loads(out)
    assert report["injective"] is True
    assert report["spill_peak"] <= 4 * (512 // 32)


def test_perfect_hash_demo_flags_a_taken_value(monkeypatch, capsys):
    # every insert hands out value 0, which a live key already holds once
    # two keys are live; evaluate agrees, so only the per-value holder
    # count can see it
    real_insert = PerfectHash.insert
    monkeypatch.setattr(PerfectHash, "insert",
                        lambda self, key: (0, real_insert(self, key)[1]))
    monkeypatch.setattr(PerfectHash, "evaluate", lambda self, key: 0)
    code = main(["perfect-hash-demo", "--n", "64", "--u-bits", "32", "--seed", "2"])
    assert code == 1
    assert json.loads(capsys.readouterr().out)["injective"] is False


def test_space_report_components():
    code, out, _ = capture(
        ["space-report", "--component", "both", "--n", "512", "--u-bits", "32",
         "--seed", "4"]
    )
    assert code == 0
    report = json.loads(out)
    assert {"bloomier_space_bits", "bloomier_C", "perfecthash_space_bits",
            "perfecthash_C"} <= set(report)


def test_main_entry_callable_in_process(capsys):
    code = main(["probe-bench", "--n", "256", "--B", "2", "--trials", "50",
                 "--seed", "0", "--format", "csv"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 3  # header + one row per strategy


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_formats(fmt):
    code, out, _ = capture(
        ["oracle-fuzz", "--w", "8", "--ops", "40", "--seed", "5", "--format", fmt]
    )
    assert code == 0
    if fmt == "json":
        json.loads(out)
    else:
        assert out.count(b"\n") == 2
