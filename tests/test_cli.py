import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from qhist import cli
from qhist.scenario import BUILTIN_SOURCES

GOLDEN = Path(__file__).parent / "golden"
ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def qhist(capsys):
    """Run ``qhist *args`` in this process: cli.main under capsys, with
    argparse's SystemExit read as the exit code."""
    def run(*args: str) -> subprocess.CompletedProcess:
        capsys.readouterr()
        try:
            code = cli.main(list(args))
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        return subprocess.CompletedProcess(["qhist", *args], code, out, err)
    return run


def qhist_process(*args: str) -> subprocess.CompletedProcess:
    """Run ``python -m qhist *args`` as a cold process, in which a
    RuntimeWarning is an error, as it is in this one."""
    return subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "qhist", *args],
                          capture_output=True, text=True)


def write_scenario(tmp_path: Path, name: str) -> Path:
    path = tmp_path / f"{name}.scenario"
    path.write_text(BUILTIN_SOURCES[name], encoding="utf-8")
    return path


def test_check_inconsistent_scenario_exits_3(tmp_path, qhist):
    path = write_scenario(tmp_path, "eq23")
    result = qhist("check", str(path))
    assert result.returncode == 3
    assert "inconsistent" in result.stdout
    assert "(1, 3)" in result.stdout and "(2, 4)" in result.stdout


def test_check_consistent_scenario_exits_0(tmp_path, qhist):
    path = write_scenario(tmp_path, "eq27-split")
    result = qhist("check", str(path))
    assert result.returncode == 0
    assert "consistent" in result.stdout
    assert "0.5, 0.5" in result.stdout


def test_check_parse_error_exits_2(tmp_path, qhist):
    path = tmp_path / "broken.scenario"
    path.write_text(
        "[scenario]\nname = broken\n[system]\nspins = 7\n[state]\nnamed = z+\n"
        "[grid]\ntimes = 0.0 1.0\n[family f]\nhistory = z1+\n"
    )
    result = qhist("check", str(path))
    assert result.returncode == 2
    assert "line 4" in result.stderr


def test_check_missing_file_exits_2(qhist):
    result = qhist("check", "/no/such/file.scenario")
    assert result.returncode == 2
    assert "cannot read" in result.stderr


def test_check_file_that_is_not_utf8_exits_2(tmp_path, qhist):
    path = tmp_path / "utf16.scenario"
    path.write_bytes("[scenario]\n".encode("utf-16"))  # starts with b"\xff\xfe"
    result = qhist("check", str(path))
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith(f"error: cannot read {path}: ")
    assert "Traceback" not in result.stderr


def test_tol_flag_overrides_consistency_threshold(tmp_path, qhist):
    path = write_scenario(tmp_path, "eq23")
    result = qhist("check", str(path), "--tol", "0.5")
    assert result.returncode == 0


@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
def test_tol_must_be_finite_and_positive(tol, qhist):
    result = qhist("run-builtin", "eq23", "--tol", tol, "--format", "machine")
    assert result.returncode == 2
    assert result.stdout == ""
    assert "finite and positive" in result.stderr


@pytest.mark.parametrize("args", [("check", "f", "--tol", "abc"), ("chsh", "a", "b", "c", "d")])
def test_non_numbers_exit_2(args, qhist):
    result = qhist(*args)
    assert result.returncode == 2
    assert result.stdout == ""
    assert "not a number: " in result.stderr


def test_non_finite_amplitude_exits_2(tmp_path, qhist):
    path = tmp_path / "nan.scenario"
    path.write_text(
        "[scenario]\nname = nan\n[system]\nspins = 1\n[state]\n"
        "amplitudes = nan+0j 0+0j\n[grid]\ntimes = 0.0 1.0\n"
        "[family f]\nhistory = z1+\nhistory = z1-\n"
    )
    result = qhist("check", str(path))
    assert result.returncode == 2
    assert result.stdout == ""
    assert "line 6, column 14" in result.stderr and "not finite" in result.stderr
    assert "Traceback" not in result.stderr


STRONG_FIELD = (
    "[scenario]\nname = strong\n[system]\nspins = 1\n[state]\nnamed = z+\n"
    "[grid]\ntimes = 0.0 1.0 {t2}\n[schedule]\nsegment = 0.0 {t2} w(1.1,0.3) {omega}\n"
    "[family f]\nhistory = x1+ z2+\nhistory = x1+ z2-\nhistory = x1- z2+\n"
    "history = x1- z2-\n"
)


@pytest.mark.parametrize("omega", ["1e8", "1e300", "-1e300"])
def test_strong_field_gives_a_report(tmp_path, omega, qhist):
    path = tmp_path / "strong.scenario"
    path.write_text(STRONG_FIELD.format(t2="2.0", omega=omega))
    result = qhist("check", str(path))
    assert result.returncode in (0, 3), result.stderr
    assert result.stdout.startswith("scenario: strong\nfamily f: ")
    assert result.stderr == ""


def test_field_turning_too_far_exits_2(tmp_path, qhist):
    # omega * duration overflows, so the propagator would be NaN
    path = tmp_path / "overflow.scenario"
    path.write_text(STRONG_FIELD.format(t2="2e10", omega="1e300"))
    result = qhist("check", str(path))
    assert result.returncode == 2
    assert result.stdout == ""
    assert "line 10, column 31" in result.stderr and "too large" in result.stderr
    assert "Traceback" not in result.stderr


def test_golden_machine_reports(qhist):
    for name in BUILTIN_SOURCES:
        path = GOLDEN / f"{name}.machine.json"
        assert path.is_file(), f"built-in {name!r} has no machine golden"
        result = qhist("run-builtin", name, "--format", "machine")
        assert result.stdout == path.read_text(encoding="utf-8"), name


def test_golden_text_reports(qhist):
    for name in BUILTIN_SOURCES:
        path = GOLDEN / f"{name}.text.txt"
        assert path.is_file(), f"built-in {name!r} has no text golden"
        result = qhist("run-builtin", name)
        assert result.stdout == path.read_text(encoding="utf-8"), name


def test_golden_chsh_machine(qhist):
    result = qhist("chsh", "--format", "machine")
    golden = (GOLDEN / "chsh-default.machine.json").read_text(encoding="utf-8")
    assert result.returncode == 0
    assert result.stdout == golden


def test_machine_reports_byte_identical_across_runs():
    outputs = {
        qhist_process("run-builtin", "eq28-sixteen", "--format", "machine").stdout
        for _ in range(3)
    }
    assert outputs == {(GOLDEN / "eq28-sixteen.machine.json").read_text(encoding="utf-8")}


def test_list_builtin_names(qhist):
    result = qhist("list-builtin")
    names = result.stdout.split()
    assert result.returncode == 0
    assert len(names) >= 12
    assert "eq23" in names and "chsh-demo" in names
    machine = qhist("list-builtin", "--format", "machine")
    assert json.loads(machine.stdout)["builtin_scenarios"] == names


def test_run_builtin_unknown_name_exits_2(qhist):
    result = qhist("run-builtin", "does-not-exist")
    assert result.returncode == 2
    assert "no built-in" in result.stderr


def test_prob_verb(tmp_path, qhist):
    path = write_scenario(tmp_path, "eq27-split")
    result = qhist("prob", str(path), "eq27", "1")
    assert result.returncode == 0
    assert "probability 0.5" in result.stdout
    machine = qhist("prob", str(path), "eq27", "2", "--format", "machine")
    payload = json.loads(machine.stdout)
    assert payload["probability"] == 0.5
    assert payload["history"] == 2


def test_prob_on_inconsistent_family_exits_3(tmp_path, qhist):
    path = write_scenario(tmp_path, "eq23")
    result = qhist("prob", str(path), "eq23", "1")
    assert result.returncode == 3
    assert "meaningless" in result.stderr


def test_query_on_inconsistent_family_exits_3(tmp_path, qhist):
    path = write_scenario(tmp_path, "eq23")
    result = qhist("query", str(path), "eq23", "x1+")
    assert result.returncode == 3
    assert "meaningless" in result.stderr


def test_prob_bad_index_exits_2(tmp_path, qhist):
    path = write_scenario(tmp_path, "eq27-split")
    result = qhist("prob", str(path), "eq27", "9")
    assert result.returncode == 2


def test_prob_unknown_family_exits_2(tmp_path, qhist):
    path = write_scenario(tmp_path, "eq27-split")
    result = qhist("prob", str(path), "nope", "1")
    assert result.returncode == 2
    assert "no family" in result.stderr


def test_query_meaningless_in_z_framework(tmp_path, qhist):
    path = write_scenario(tmp_path, "cat-analogue")
    result = qhist("query", str(path), "z-frame", "x1+")
    assert result.returncode == 0
    assert result.stdout.startswith("meaningless:")
    assert "commute" in result.stdout


def test_query_meaningful_in_x_framework(tmp_path, qhist):
    path = write_scenario(tmp_path, "cat-analogue")
    result = qhist("query", str(path), "x-frame", "x1+")
    assert result.returncode == 0
    assert "Prob(x1+) = 0.5" in result.stdout
    machine = qhist("query", str(path), "x-frame", "x1-", "--format", "machine")
    payload = json.loads(machine.stdout)
    assert payload["meaningful"] is True
    assert payload["probability"] == 0.5


@pytest.mark.parametrize("token, message", [
    ("z1+*z1+", "token 'z1+*z1+' uses one subsystem twice"),
    ("w(1,2,3)1+", "direction needs 'w(theta,phi)' with two angles"),
    # str.isdigit accepts a superscript digit, which int rejects
    ("x\u00b2+", "token 'x\u00b2+' needs a time index and a sign"
                 " (expected one of: <dir><k><sign>)"),
])
def test_query_token_error_names_no_line(tmp_path, token, message, qhist):
    # the token comes from the command line, which has no line to point at
    path = write_scenario(tmp_path, "cat-analogue")
    result = qhist("query", str(path), "x-frame", token)
    assert result.returncode == 2
    assert result.stderr == f"error: {message}\n"


def test_query_machine_meaningless_payload(tmp_path, qhist):
    path = write_scenario(tmp_path, "cat-analogue")
    machine = qhist("query", str(path), "z-frame", "x1+", "--format", "machine")
    payload = json.loads(machine.stdout)
    assert payload["meaningful"] is False
    assert "commute" in payload["reason"]


def test_query_splitting_event_is_meaningless(tmp_path, qhist):
    path = write_scenario(tmp_path, "eq23-identity-fix")
    reason = "projector 'z2+' splits event '1' at time 2"
    result = qhist("query", str(path), "eq23-identity-fix", "z2+")
    assert result.returncode == 0
    assert result.stdout.startswith(f"meaningless: {reason};")
    machine = qhist("query", str(path), "eq23-identity-fix", "z2+", "--format", "machine")
    payload = json.loads(machine.stdout)
    assert machine.returncode == 0
    assert payload["meaningful"] is False and payload["event"] == "z2+"
    assert payload["reason"].startswith(reason)
    assert "probability" not in payload


def test_cli_looks_up_the_traced_report_functions_when_called(monkeypatch, qhist):
    # perfbench/tracing.py wraps these module attributes after import
    called = []
    for name in ("run_scenario", "render_report_machine"):
        original = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *a, _f=original, _n=name, **k:
                            called.append(_n) or _f(*a, **k))
    result = qhist("run-builtin", "eq23", "--format", "machine")
    assert result.returncode == 3
    assert result.stdout == (GOLDEN / "eq23.machine.json").read_text(encoding="utf-8")
    assert called == ["run_scenario", "render_report_machine"]


def test_chsh_text_output(qhist):
    result = qhist("chsh")
    assert result.returncode == 0
    assert "|S| = 2.82842712475" in result.stdout
    assert "deterministic local bound = 2" in result.stdout


def test_chsh_custom_angles(qhist):
    result = qhist("chsh", "0", "0", "0", "0", "--format", "machine")
    payload = json.loads(result.stdout)
    assert payload["abs_chsh"] == pytest.approx(2.0)


def test_chsh_angle_past_180_degrees_keeps_its_output(qhist):
    # a' = 270 degrees is canonicalized to theta = 90, phi = 180 degrees; the
    # report is the one printed from the raw angle
    result = qhist("chsh", "0", "270", "45", "315")
    assert result.returncode == 0
    assert result.stdout == (
        "settings (degrees): a=0 a'=270 b=45 b'=315\n"
        "  E(a,b) = -0.707106781187\n"
        "  E(a,b') = -0.707106781187\n"
        "  E(a',b) = 0.707106781187\n"
        "  E(a',b') = -0.707106781187\n"
        "CHSH S = 0  |S| = 0\n"
        "deterministic local bound = 2, quantum maximum = 2.82842712475\n"
    )


@pytest.mark.parametrize("angles", [("nan", "0", "0", "0"), ("--", "0", "0", "0", "-inf"),
                                    ("0", "0", "0", "-inf"), ("-nan", "0", "0", "0")])
def test_chsh_non_finite_angle_exits_2(angles, qhist):
    result = qhist("chsh", *angles)
    assert result.returncode == 2
    assert result.stdout == ""
    assert "error: argument DEG: must be finite" in result.stderr
    assert "Traceback" not in result.stderr


def test_chsh_negative_angles_are_values(qhist):
    result = qhist("chsh", "-5", "0", "45", "-1e1", "--format", "machine")
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["angles_deg"] == [-5.0, 0.0, 45.0, -10.0]


def test_chsh_options_may_sit_between_angles(qhist):
    interleaved = qhist("chsh", "0", "90", "--format", "machine", "45", "135")
    assert interleaved.returncode == 0, interleaved.stderr
    assert interleaved.stdout == qhist("chsh", "--format", "machine", "0", "90", "45", "135").stdout
    negative = qhist("chsh", "-5", "--format", "machine", "0", "45", "-1e1")
    assert json.loads(negative.stdout)["angles_deg"] == [-5.0, 0.0, 45.0, -10.0]


def test_chsh_wrong_angle_count_exits_2(qhist):
    result = qhist("chsh", "10", "20")
    assert result.returncode == 2


def test_console_entry_point_matches_module():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).parent.parent / "pyproject.toml"
    with pyproject.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["qhist"]
    module, attr = target.split(":")
    expected = qhist_process("list-builtin")
    # call the entry point the way the installed console shim does
    shim = subprocess.run(
        [
            sys.executable,
            "-c",
            f"import sys; from {module} import {attr}; sys.exit({attr}())",
            "list-builtin",
        ],
        capture_output=True,
        text=True,
    )
    assert (shim.stdout, shim.returncode) == (expected.stdout, expected.returncode)
    script = shutil.which("qhist")
    if script is not None:
        installed = subprocess.run([script, "list-builtin"], capture_output=True, text=True)
        assert (installed.stdout, installed.returncode) == (expected.stdout, expected.returncode)


@pytest.mark.parametrize(
    "script, args, line",
    [
        ("framework_demo.py", (), "in the x-framework: Prob(x+) = 0.5\n"),
    ],
)
def test_scripts_run(script, args, line):
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert result.returncode == 0, result.stderr
    assert line in result.stdout
