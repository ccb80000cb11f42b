import json
import select
import subprocess
import sys

import pytest

CMD = [sys.executable, "-m", "cesaro_copson.cli"]


def run(*args):
    return subprocess.run(CMD + list(args), capture_output=True, text=True)


def test_norm_power_pair_closed_form():
    r = run("norm", "--op", "cesaro", "--cone", "all",
            "--u", "power:0.5", "--v", "power:0.5")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["value"] == pytest.approx(2.0)
    assert doc["status"] == "ClosedForm"
    assert set(doc) == {"op", "cone", "value", "status", "n_used", "residual"}


def test_norm_n_max_option():
    # matched C - S* on the nonnegative cone has no closed form and no
    # certificate to stop at: the scan reads the whole horizon that --n-max sets
    r = run("norm", "--op", "cesaro-minus-shift", "--cone", "nonneg", "--u", "power:0.5",
            "--v", "power:0.5", "--n-max", "3000")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["n_used"] == 3000 and doc["status"] == "TruncatedLowerBound"


def test_norm_open_problem_exits_2():
    r = run("norm", "--op", "copson-minus-identity", "--cone", "nonincr",
            "--u", "power:1", "--v", "power:1")
    assert r.returncode == 2
    assert "open problem" in r.stderr
    assert json.loads(r.stdout)["value"] is None


def test_unsupported_cone_prints_its_own_reason(tmp_path):
    # the rows of (C*-S)D on three columns fail the nondecreasing-cone
    # hypotheses: the refusal names that reason, not the open problem, and
    # the JSON keys and the exit code are those of every unsupported case
    path = tmp_path / "w.csv"
    path.write_text("1\n2\n3\n")
    r = run("norm", "--op", "copson-minus-shift-diag", "--cone", "nondecr",
            "--u", f"list:{path}", "--v", f"list:{path}")
    assert r.returncode == 2
    assert r.stderr.strip() == ("unsupported: truncated rows of (C*-S)D have sum "
                                "-1/(L+1)")
    doc = json.loads(r.stdout)
    assert set(doc) == {"op", "cone", "value", "status", "n_used", "residual"}
    assert doc["status"] == "Unsupported" and doc["value"] is None


def test_norm_list_weights(tmp_path):
    path = tmp_path / "w.csv"
    path.write_text("1\n1\n1\n1\n")
    r = run("norm", "--op", "cesaro", "--cone", "all",
            "--u", f"list:{path}", "--v", f"list:{path}")
    assert r.returncode == 0
    assert json.loads(r.stdout)["value"] == pytest.approx(1.0)


def test_two_op_examples():
    r = run("two-op", "--dir", "c-le-cstar", "--cone", "all",
            "--u", "power:-1", "--v", "power:-1")
    assert r.returncode == 0
    assert json.loads(r.stdout)["value"] == pytest.approx(3.0)
    r = run("two-op", "--dir", "cstar-le-c", "--cone", "nonneg",
            "--u", "power:2", "--v", "power:2")
    assert r.returncode == 0
    assert json.loads(r.stdout)["value"] == 0.0
    r = run("two-op", "--dir", "cstar-le-c", "--cone", "all",
            "--u", "power:2", "--v", "power:2")
    assert r.returncode == 0
    assert json.loads(r.stdout)["value"] == pytest.approx(2.5797362, abs=1e-6)


def test_divergent_reported_as_inf_string_with_exit_0():
    r = run("norm", "--op", "copson", "--cone", "all",
            "--u", "power:-1", "--v", "power:-1")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["value"] == "inf" and doc["status"] == "Divergent"
    assert '"inf"' in r.stdout  # never a bare JSON number


def test_powerpair_spec():
    r = run("norm", "--op", "cesaro", "--cone", "all", "--u", "powerpair:0.5")
    assert r.returncode == 0
    assert json.loads(r.stdout)["value"] == pytest.approx(2.0)
    r = run("norm", "--op", "cesaro", "--cone", "all",
            "--u", "powerpair:0.5", "--v", "power:1")
    assert r.returncode == 1


def test_byte_identical_reruns():
    args = ("norm", "--op", "copson", "--cone", "nonneg",
            "--u", "power:1", "--v", "power:1")
    a = run(*args)
    b = run(*args)
    assert a.stdout == b.stdout and a.returncode == b.returncode == 0


def test_parse_errors_exit_1():
    assert run("norm", "--op", "cesaro", "--cone", "all",
               "--u", "bogus:1", "--v", "power:1").returncode == 1
    assert run("norm", "--op", "nope", "--cone", "all",
               "--u", "power:1", "--v", "power:1").returncode == 1
    assert run("norm", "--op", "cesaro", "--cone", "all",
               "--u", "power:1").returncode == 1
    assert run("power-table", "--theorem", "cesaro", "--from", "0",
               "--to", "1", "--step", "-0.1").returncode == 1
    assert run("norm", "--op", "cesaro", "--cone", "all",
               "--u", "list:/nonexistent.csv", "--v", "power:1").returncode == 1


def test_power_table_shape_and_tokens():
    r = run("power-table", "--theorem", "cesaro",
            "--from", "-1", "--to", "0.9", "--step", "0.1")
    assert r.returncode == 0
    lines = r.stdout.strip().splitlines()
    assert lines[0] == "alpha,cone,value,case_label"
    assert len(lines) == 1 + 20 * 4  # 20 alphas x 4 cones
    r = run("power-table", "--theorem", "copson",
            "--from", "-0.5", "--to", "-0.5", "--step", "1")
    rows = r.stdout.strip().splitlines()
    assert len(rows) == 1 + 4  # degenerate range: single alpha
    assert any(",inf," in row for row in rows[1:])


def test_power_table_streams_rows_to_a_reader_that_stops():
    # 4e9 rows: the sweep ends only because the reader closes the pipe.  It
    # used to build the whole CSV first, so no row arrived and memory grew
    p = subprocess.Popen(CMD + ["power-table", "--theorem", "cesaro", "--from", "0",
                                "--to", "1e9", "--step", "1"],
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        ready, _, _ = select.select([p.stdout], [], [], 60)
        assert ready, "no row arrived within 60 s"
        head = [p.stdout.readline() for _ in range(5)]
        p.stdout.close()
        assert p.wait(timeout=60) == 0
        assert p.stderr.read() == ""
    finally:
        if p.poll() is None:
            p.kill()
            p.wait()
        p.stderr.close()
    assert head == ["alpha,cone,value,case_label\n",
                    "0,all,1.0,0 <= alpha < 1\n", "0,nonneg,1.0,0 <= alpha < 1\n",
                    "0,nonincr,1.0,0 <= alpha < 1\n", "0,nondecr,1.0,alpha <= 0\n"]


def test_power_table_open_problem_note():
    r = run("power-table", "--theorem", "copson-minus-identity",
            "--from", "0.5", "--to", "0.5", "--step", "0.1")
    assert r.returncode == 0
    lines = r.stdout.strip().splitlines()
    assert lines[0].startswith("#") and "open problem" in lines[0]
    assert all("nonincr" not in line for line in lines[1:])


def test_verify_identities_suite():
    r = run("verify", "--suite", "identities", "--seed", "42")
    assert r.returncode == 0
    reports = json.loads(r.stdout)
    assert len(reports) == 1 and reports[0]["pass"]


def test_verify_oracle_deterministic():
    args = ("verify", "--suite", "oracle", "--seed", "42", "--trials", "100",
            "--pairs", "4")
    a = run(*args)
    b = run(*args)
    assert a.returncode == 0
    assert a.stdout == b.stdout


@pytest.mark.parametrize("bounds", [
    ("--from", "0", "--to", "inf", "--step", "0.1"),      # used to raise OverflowError
    ("--from", "0", "--to", "1", "--step", "inf"),        # used to print alpha = nan
    ("--from", "nan", "--to", "1", "--step", "0.1"),
    ("--from=-inf", "--to", "1", "--step", "0.1"),
    ("--from", "0", "--to", "1", "--step", "nan"),
], ids=["to-inf", "step-inf", "from-nan", "from-minus-inf", "step-nan"])
def test_power_table_rejects_non_finite_bounds(bounds):
    r = run("power-table", "--theorem", "cesaro", *bounds)
    assert r.returncode == 1 and not r.stdout
    assert r.stderr == "cesaro-copson: error: --from, --to and --step must be finite\n"


@pytest.mark.parametrize("bounds", [
    ("--from=-1e308", "--to", "1e308", "--step", "1"),
    ("--from", "0", "--to", "1", "--step", "1e-320"),
], ids=["span", "step"])
def test_power_table_rejects_an_overflowing_row_count(bounds):
    r = run("power-table", "--theorem", "cesaro", *bounds)
    assert r.returncode == 1 and not r.stdout
    assert "overflows float64" in r.stderr and "Traceback" not in r.stderr


@pytest.mark.parametrize("args, message", [
    (("--suite", "oracle", "--pairs", "0"), "pairs must be >= 1"),   # used to print []
    (("--suite", "oracle", "--pairs", "-3"), "pairs must be >= 1"),
    (("--suite", "oracle", "--trials", "0"), "trials must be >= 1"),
    (("--suite", "identities", "--N", "0"), "N must be >= 1"),       # used to pass
    (("--suite", "all", "--pairs", "0"), "pairs must be >= 1"),
], ids=["pairs-0", "pairs-negative", "trials-0", "identities-N-0", "all-pairs-0"])
def test_verify_rejects_a_run_that_checks_nothing(args, message):
    r = run("verify", *args)
    assert r.returncode == 1 and not r.stdout
    assert r.stderr == f"cesaro-copson: error: {message}\n"


@pytest.mark.parametrize("args", [
    ("norm", "--op", "cesaro", "--cone", "all", "--u", "power:-150", "--v", "power:-150.1"),
    ("two-op", "--dir", "cstar-le-c", "--cone", "all", "--u", "power:1100",
     "--v", "power:1100"),
    ("power-table", "--theorem", "two-op-cstar-c", "--from", "1100", "--to", "1100",
     "--step", "1"),
], ids=["norm-overflowing-rows", "two-op-closed-form", "power-table-closed-form"])
def test_float_overflow_is_one_error_line(args):
    # the rows of C on k**150 against n**-150.1 overflow from row 114 (the
    # norm is 1.0), and 2**1100 M_1100 is past float64: neither is
    # divergence, and neither ends in a traceback
    r = run(*args)
    assert r.returncode == 1
    assert "Divergent" not in r.stdout
    lines = r.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("cesaro-copson: error: ")
    assert "overflows float64" in lines[0]


def test_div_threshold_is_accepted_and_ignored():
    # older command lines still run; the flag changes no answer
    args = ("norm", "--op", "copson", "--cone", "all", "--u", "power:0.3",
            "--v", "power:0.301", "--n-max", "1000")
    plain, flagged = run(*args), run(*args, "--div-threshold", "10")
    assert plain.returncode == flagged.returncode == 0
    assert plain.stdout == flagged.stdout
    assert json.loads(plain.stdout)["status"] == "Divergent"
