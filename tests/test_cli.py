"""Command line contract: exit codes, env precedence, atomic output."""

import hashlib
import json
import os
import stat
import threading

import pytest

import gometrics.cli as cli
from child import run_python


def run_cli(*args, env_extra=None):
    return run_python("-m", "gometrics", *args, env_extra=env_extra)


# ------------------------------------------------------------- exit codes


def test_roots_known_systems_exit_zero():
    for system in ("a2", "g2"):
        proc = run_cli("roots", system)
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["schema"] == "1"
        assert "closed_symmetric_subsystem_classes" in doc


def test_roots_unknown_system_exits_2():
    proc = run_cli("roots", "e8")
    assert proc.returncode == 2
    assert proc.stderr == b"error: unknown root system 'e8'; choose a2 or g2\n"


def test_go_check_go_metric_exits_0():
    proc = run_cli("go-check", "--space", "aw:2,1", "--metric", "1,1,1,1")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["verdict"] == "go-consistent"


def test_go_check_non_go_metric_exits_3():
    proc = run_cli(
        "go-check", "--space", "aw:2,1", "--metric", "1,2,3,1", "--mode", "exact"
    )
    assert proc.returncode == 3
    doc = json.loads(proc.stdout)
    assert doc["verdict"] == "non-go-certified"
    checks = doc["checks"]
    assert any(c["status"] == "infeasible" for c in checks)


def test_go_check_su2_cases():
    assert run_cli("go-check", "--space", "lie:su2", "--metric", "2,1,1").returncode == 0
    assert run_cli("go-check", "--space", "lie:su2", "--metric", "1,2,3").returncode == 3


def test_go_check_g2_naturally_reductive_set_exits_0():
    proc = run_cli(
        "go-check", "--space", "lie:g2", "--metric", "1,1,11/9,11/9,1",
        "--samples", "8",
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "args",
    [
        ("go-check", "--space", "aw:2,1", "--metric", "1,2,3"),  # wrong count
        ("go-check", "--space", "aw:0,0", "--metric", "1,1,1,1"),
        ("go-check", "--space", "lie:e8", "--metric", "1,1"),
        ("go-check", "--space", "lie:su2", "--metric", "1,-2,3"),
        ("go-check", "--space", "lie:su2", "--metric", "1,0.5,1", "--mode", "exact"),
        ("go-check", "--space", "lie:su2", "--metric", "1,2,"),
        (
            "go-check", "--space", "lie:su2", "--metric", "1,1,1",
            "--tol-feas", "1e-2", "--tol-infeas", "1e-3",
        ),
        # a sweep over no directions would certify nothing
        ("go-check", "--space", "aw:2,1", "--metric", "1,2,3,1", "--samples", "0"),
        ("go-check", "--space", "aw:2,1", "--metric", "1,2,3,1", "--samples", "-5"),
        # non-finite entries and tolerances would make a certificate vacuous
        ("go-check", "--space", "aw:2,1", "--metric", "inf,1,1,1"),
        ("go-check", "--space", "lie:g2", "--metric", "1,1,1,1,inf"),
        ("reproduce", "g2-einstein", "--tol-einstein", "inf"),
        # entries whose products overflow or underflow a float
        ("go-check", "--space", "lie:su2", "--metric", "1e200,1e-200,1"),
        ("go-check", "--space", "lie:su2", "--metric", f"{10 ** 400},1,2"),
        ("go-check", "--space", "lie:g2", "--metric", "1e300,1,1,1,1"),
    ],
)
def test_malformed_requests_exit_2(args):
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert proc.stderr.startswith(b"error:") or b"error" in proc.stderr


def test_coefficients_at_the_range_bounds_are_accepted_without_warning():
    proc = run_cli(
        "go-check", "--space", "lie:su2", "--metric", "1e100,1e-100,1",
        env_extra={"PYTHONWARNINGS": "error"},
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr == b""


# sha256 of reports that hold no least-squares or SVD floats, so their
# bytes do not depend on the BLAS build
@pytest.mark.parametrize(
    "args,digest",
    [
        (("roots", "a2"), "fef75ea0908f3e229a5adef0a375079995ab155fc4db57e85c062a31fa82463e"),
        (("roots", "g2"), "2204de8d3f5e057c60975107e8919d501d0f3c7f33560f8b477a896fe6e50cd9"),
        (
            ("go-check", "--space", "aw:2,1", "--metric", "1,1,1,2"),
            "87938062ab7831264436afd8b0e926c807cc955d1dfdd65f9559988bfda6868a",
        ),
        (
            ("go-check", "--space", "lie:su3", "--metric", "1,1,1,2,2"),
            "c0b5145d9aa84f8574c298c5f5d0c7813368f0f65e9a48c5e402be691f7bf9f0",
        ),
        (
            ("go-check", "--space", "lie:g2", "--metric", "1,1,11/9,11/9,1", "--samples", "8"),
            "636e2f9ab0d269e89a5fd9c89e3e7f9f4121e33d8fba2e105bda0f3cdc7b7327",
        ),
        (
            ("roots", "g2", "--format", "csv"),
            "8a66eb6cc57399279a185e209fecf23cca7fe30b593aff9b5e66ec7c9863d5ea",
        ),
        (
            ("roots", "g2", "--format", "text"),
            "28849a5ef9094e75882e5af45d707583e446d27dddbf61dd40b3f31c7c061ba1",
        ),
        # every residual of this sweep is an exact 0.0
        (
            ("go-check", "--space", "aw:2,1", "--metric", "1,1,1,2", "--samples", "4",
             "--format", "csv"),
            "e70c74ee64f9122bcfe4368cb50f97470efcc4e7e60d75e46e78305d733c036c",
        ),
        (
            ("go-check", "--space", "aw:2,1", "--metric", "1,1,1,2", "--samples", "4",
             "--format", "text"),
            "e3b010a3cfe8f3f78a3c465ecbc3e778cf16667023fa20fec10a03b835abcfd8",
        ),
        (
            ("reproduce", "aw-classification", "--format", "csv"),
            "bd29f5351258badec0c72f486459a6915490faa4951688cf33b6bd98589fdbaf",
        ),
        (
            ("reproduce", "aw-classification", "--format", "text"),
            "7553ad0646a61695116a31c92b4e179cb88d25b423ac531ea900c03f94e98f0c",
        ),
    ],
)
def test_exact_reports_keep_their_bytes(args, digest):
    proc = run_cli(*args)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == digest


def test_decimal_metric_forces_float_mode():
    proc = run_cli("go-check", "--space", "lie:su2", "--metric", "1.0,2.0,3.0")
    assert proc.returncode == 3
    doc = json.loads(proc.stdout)
    methods = {c["method"] for c in doc["checks"]}
    assert "exact" not in methods


def test_reproduce_unknown_target_exits_2():
    proc = run_cli("reproduce", "something-else")
    assert proc.returncode == 2
    assert proc.stderr.startswith(b"error: unknown reproduction target 'something-else'")


def test_reproduce_aw_classification_exits_0():
    proc = run_cli("reproduce", "aw-classification")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["kind"] == "aw-go-classification"


def test_reproduce_g2_einstein_byte_identical_runs():
    a = run_cli("reproduce", "g2-einstein")
    b = run_cli("reproduce", "g2-einstein")
    assert a.returncode == 0, a.stderr
    assert b.returncode == 0
    assert a.stdout == b.stdout
    assert a.stdout.endswith(b"\n")


def test_reproduce_g2_einstein_warm_caches_keep_bytes(monkeypatch, capsys):
    # kernels and block sums cached by a first call must not change the
    # report of a second call, nor make it differ from a cold process
    for name in [k for k in os.environ if k.startswith("GOMETRICS_")]:
        monkeypatch.delenv(name)
    warm = []
    for _ in range(2):
        assert cli.main(["reproduce", "g2-einstein", "--seed", "0"]) == 0
        warm.append(capsys.readouterr().out)
    cold = run_cli("reproduce", "g2-einstein", "--seed", "0")
    assert cold.returncode == 0, cold.stderr
    assert warm[0] == warm[1] == cold.stdout.decode()


def test_reproduce_mismatch_exits_5(monkeypatch, capsys):
    def broken(seed=0, einstein_tolerance=1e-5, tolerances=None):
        return {
            "kind": "g2-einstein-reproduction",
            "checks": [
                {"name": "set1-einstein-exact", "passed": True},
                {"name": "set3-non-go-certified", "passed": False},
            ],
        }

    monkeypatch.setattr(cli, "reproduce_main_theorem", broken)
    code = cli.main(["reproduce", "g2-einstein"])
    captured = capsys.readouterr()
    assert code == 5
    assert "mismatch: set3-non-go-certified" in captured.err


# ------------------------------------------------------- env and formats


def test_env_seed_changes_report_and_flag_wins():
    base = run_cli("go-check", "--space", "lie:su2", "--metric", "1.0,1.0,1.0")
    seeded = run_cli(
        "go-check", "--space", "lie:su2", "--metric", "1.0,1.0,1.0",
        env_extra={"GOMETRICS_SEED": "7"},
    )
    flagged = run_cli(
        "go-check", "--space", "lie:su2", "--metric", "1.0,1.0,1.0",
        "--seed", "0",
        env_extra={"GOMETRICS_SEED": "7"},
    )
    assert base.stdout != seeded.stdout
    assert flagged.stdout == base.stdout
    assert json.loads(seeded.stdout)["seed"] == 7


def test_env_invalid_value_exits_2():
    proc = run_cli(
        "go-check", "--space", "lie:su2", "--metric", "1,1,1",
        env_extra={"GOMETRICS_SEED": "many"},
    )
    assert proc.returncode == 2


def test_env_format_selects_csv():
    proc = run_cli(
        "roots", "a2", env_extra={"GOMETRICS_FORMAT": "csv"}
    )
    assert proc.returncode == 0
    first = proc.stdout.split(b"\n", 1)[0]
    assert first == b"class,size,roots"


def test_text_format_renders_summary():
    proc = run_cli(
        "go-check", "--space", "lie:su2", "--metric", "2,1,1", "--format", "text"
    )
    assert proc.returncode == 0
    assert b"go-consistent" in proc.stdout


def test_out_file_matches_stdout_bytes(tmp_path):
    path = tmp_path / "report.json"
    direct = run_cli("go-check", "--space", "lie:su2", "--metric", "2,1,1")
    towards = run_cli(
        "go-check", "--space", "lie:su2", "--metric", "2,1,1",
        "--out", str(path),
    )
    assert towards.returncode == 0
    assert path.read_bytes() == direct.stdout
    leftovers = [p for p in tmp_path.iterdir() if p.name != "report.json"]
    assert leftovers == []


def test_out_write_is_atomic_on_bad_directory(tmp_path):
    missing = tmp_path / "no-such-dir" / "report.json"
    proc = run_cli(
        "go-check", "--space", "lie:su2", "--metric", "2,1,1",
        "--out", str(missing),
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith(b"error:")
    assert not missing.exists()


def test_out_onto_a_directory_exits_2_and_leaves_no_temp_file(tmp_path):
    target = tmp_path / "reports"
    target.mkdir()
    proc = run_cli("roots", "g2", "--out", str(target))
    assert proc.returncode == 2
    assert proc.stderr.startswith(b"error: cannot write to")
    assert [p.name for p in tmp_path.iterdir()] == ["reports"]
    assert list(target.iterdir()) == []


def test_out_report_gets_the_mode_a_plain_write_gives(tmp_path, capsys):
    path = tmp_path / "roots.json"
    old = os.umask(0o022)
    try:
        assert cli.main(["roots", "a2", "--out", str(path)]) == 0
    finally:
        os.umask(old)
    assert path.stat().st_mode & 0o777 == 0o644


def test_out_through_a_symlink_writes_its_target(tmp_path, capsys):
    target = tmp_path / "roots.json"
    target.write_text("old report\n")
    link = tmp_path / "latest.json"
    link.symlink_to(target.name)
    assert cli.main(["roots", "a2"]) == 0
    expected = capsys.readouterr().out
    assert cli.main(["roots", "a2", "--out", str(link)]) == 0
    assert link.is_symlink() and os.readlink(link) == target.name
    assert target.read_text() == expected
    assert sorted(p.name for p in tmp_path.iterdir()) == ["latest.json", "roots.json"]


def test_out_into_a_fifo_writes_through_it(tmp_path, capsys):
    fifo = tmp_path / "report.pipe"
    os.mkfifo(fifo)
    received = []

    def read():
        with open(fifo) as fh:  # blocks until the report is opened for writing
            received.append(fh.read())

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    assert cli.main(["roots", "a2", "--out", str(fifo)]) == 0
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert cli.main(["roots", "a2"]) == 0
    assert received == [capsys.readouterr().out]


@pytest.mark.parametrize("flag, env", [(["--seed", "-1"], {}), ([], {"GOMETRICS_SEED": "-1"})])
def test_negative_seed_exits_2(flag, env, monkeypatch, capsys):
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    assert cli.main(["go-check", "--space", "aw:2,1", "--metric", "1,2,3,1", *flag]) == 2
    assert cli.main(["reproduce", "aw-classification", *flag]) == 2
    assert "the seed must be non-negative, got -1" in capsys.readouterr().err


def test_su3_target_needs_five_coefficients():
    bad = run_cli("go-check", "--space", "lie:su3", "--metric", "1,1,1,1")
    assert bad.returncode == 2
    ok = run_cli("go-check", "--space", "lie:su3", "--metric", "12,12,12,12,12")
    assert ok.returncode == 0, ok.stderr


# ------------------------------------------------------- process lifetime


def test_cached_parser_carries_no_option_between_calls(monkeypatch, capsys):
    for name in [k for k in os.environ if k.startswith("GOMETRICS_")]:
        monkeypatch.delenv(name)
    base = ["go-check", "--space", "lie:su2", "--metric", "1,1,2"]
    runs = [["--mode", "float"], ["--format", "csv"], ["--samples", "3"], []]
    assert cli.build_parser() is cli.build_parser()
    warm = []
    for flags in runs:
        rc = cli.main(base + flags)
        warm.append((rc, capsys.readouterr().out))
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    for flags, got in zip(runs, warm):
        rc = cli.main(base + flags)
        assert got == (rc, capsys.readouterr().out), flags


def test_env_overrides_are_read_on_every_call(monkeypatch, capsys):
    for name in [k for k in os.environ if k.startswith("GOMETRICS_")]:
        monkeypatch.delenv(name)
    args = ["go-check", "--space", "lie:su2", "--metric", "1,1,2", "--samples", "2"]

    def methods():
        assert cli.main(args) == 0
        return {c["method"] for c in json.loads(capsys.readouterr().out)["checks"]}

    assert methods() == {"exact"}
    monkeypatch.setenv("GOMETRICS_MODE", "float")
    assert methods() == {"float"}
    monkeypatch.setenv("GOMETRICS_FORMAT", "csv")
    assert cli.main(args) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header == "sample,status,residual_rel,method"
    assert [row.split(",")[3] for row in rows] == ["float", "float"]


def test_mode_flag_auto_overrides_env_mode():
    proc = run_cli(
        "go-check", "--space", "lie:su2", "--metric", "1,1,2", "--samples", "2",
        "--mode", "auto", env_extra={"GOMETRICS_MODE": "float"},
    )
    assert proc.returncode == 0, proc.stderr
    assert {c["method"] for c in json.loads(proc.stdout)["checks"]} == {"exact"}


def test_mpmath_is_not_imported_by_a_well_conditioned_decimal_go_check():
    code = (
        "import sys, gometrics.cli as cli\n"
        "assert 'mpmath' not in sys.modules, 'import'\n"
        "rc = cli.main(['go-check', '--space', 'lie:g2', '--metric', '1,1,1,1,1.0000001'])\n"
        "assert rc == 4, rc\n"
        "assert 'mpmath' not in sys.modules, 'go-check'\n"
    )
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
