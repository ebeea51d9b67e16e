"""Exit codes and output of every subcommand."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from importlib import resources
from pathlib import Path

import pytest

import ellspec
from ellspec import cli
from ellspec.assembly import evaluate_constraints, polarization_class
from ellspec.certificates import bundle_params_to_json, dumps_certificates, loads_certificates
from ellspec.cli import run
from ellspec.lattice import is_ample_fxi
from ellspec.solver import SearchBounds, solve

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10
    tomllib = None

TINY = [
    "--u-abs", "3", "--x-abs", "5", "--z-min", "1", "--z-max", "1",
    "--d-abs", "2", "--a-max", "0",
]


def golden_certificate():
    text = resources.files("ellspec.data").joinpath("golden_certificate.json").read_text()
    return loads_certificates(text)[0]


def test_table1(capsys):
    assert run(["table1"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[1].split() == ["2", "4", "9", "-6", "2"]
    assert len(out.splitlines()) == 6


def test_ample_pass(capsys):
    assert run(["ample", "--a", "25", "--b", "144", "--c", "168"]) == 0
    assert "is ample" in capsys.readouterr().out


def test_ample_fail(capsys):
    assert run(["ample", "--a", "1", "--b", "3", "--c", "1"]) == 1
    assert "NOT ample" in capsys.readouterr().out


def test_solve_writes_verifiable_file(tmp_path, capsys):
    out_file = tmp_path / "found.json"
    assert run(["solve", "--k2", "3", "--k3", "6", *TINY, "--out", str(out_file)]) == 0
    stdout = capsys.readouterr().out
    assert "certificate(s) within bounds" in stdout
    assert out_file.exists()
    assert run(["verify", str(out_file)]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_solve_empty_row_writes_nothing(tmp_path, capsys):
    out_file = tmp_path / "none.json"
    assert run(["solve", "--k2", "2", "--k3", "4", *TINY, "--out", str(out_file)]) == 0
    assert "0 certificate(s)" in capsys.readouterr().out
    assert not out_file.exists()


def test_solve_off_table_row_is_input_error(capsys):
    assert run(["solve", "--k2", "2", "--k3", "3", *TINY]) == 2
    assert "error" in capsys.readouterr().err


def test_solve_non_ample_polarization_fails(capsys):
    args = ["solve", "--k2", "3", "--k3", "6", *TINY, "--hprime", "1", "3", "1"]
    assert run(args) == 1
    assert capsys.readouterr().err == (
        "error: polarization is not certified ample in the (f', e1', xi') frame\n"
    )


def test_solve_checks_the_out_directory_before_work(tmp_path, monkeypatch, capsys):
    def no_solve(*args, **kwargs):
        raise AssertionError("solve ran before the --out check")

    monkeypatch.setattr(cli, "solve", no_solve)
    (tmp_path / "file").write_text("")
    for out in (tmp_path / "missing" / "x.json", tmp_path / "file" / "x.json", tmp_path):
        assert run(["solve", "--k2", "3", "--k3", "6", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1
        assert out == tmp_path or not out.exists()


def test_default_bounds_solve_stdout_is_pinned(capsys):
    """All 39,852 default-bounds certificate lines, in order."""
    assert run(["solve", "--k2", "3", "--k3", "6"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
        "08ce26046d358618f01a9626356dcdc364c3209413d86730b713939074532570"
    )


def test_verify_tampered_file(tmp_path, capsys):
    obj = json.loads(
        resources.files("ellspec.data").joinpath("golden_certificate.json").read_text()
    )
    for entry in obj["report"]["entries"]:
        if entry["name"] == "S_e":
            entry["value"] = "11"
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(obj))
    assert run(["verify", str(path)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_malformed_file(tmp_path, capsys):
    path = tmp_path / "malformed.json"
    path.write_text('{"version": "3"}')
    assert run(["verify", str(path)]) == 2
    assert run(["verify", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()


def test_chern_golden_params(tmp_path, capsys):
    params = bundle_params_to_json(golden_certificate().params)
    path = tmp_path / "params.json"
    path.write_text(json.dumps(params))
    assert run(["chern", "--params", str(path)]) == 0
    out = capsys.readouterr().out
    assert "ch(V2):" in out and "ch(V3):" in out and "ch(V):" in out
    assert "ch0 = 5" in out
    assert "-10 (f x pt) - 9 (pt x f')" in out
    assert "ch3 = 6 pt" in out


def test_chern_malformed_params(tmp_path, capsys):
    """Each file ends in exit 2 with one error line: a missing field, nesting
    past the stack and a repeated key."""
    params = json.dumps(bundle_params_to_json(golden_certificate().params))
    path = tmp_path / "params.json"
    for text in ('{"k2": 3}', "[" * 100_000, '{"k2": 3, ' + params[1:]):
        path.write_text(text)
        assert run(["chern", "--params", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1


def test_chern_missing_params_file(tmp_path, capsys):
    assert run(["chern", "--params", str(tmp_path / "missing.json")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: cannot read parameter file: ")
    assert "missing.json" in line


def test_verify_fails_a_genuine_certificate_whose_report_fails(tmp_path, capsys):
    """A quick-box certificate re-stamped with another certified-ample
    polarization and the report it gives there is no tamper: verify
    recomputes the same report and names the constraint that fails."""
    cert = solve(3, 6, SearchBounds(u_abs=4, x_abs=8, z_min=0, z_max=2, d_abs=12, a_max=1))[0]
    hprime = (3, 1, 1)
    assert is_ample_fxi(*hprime).ample
    report = evaluate_constraints(cert.params, polarization_class(hprime))
    path = tmp_path / "restamped.json"
    path.write_text(dumps_certificates([replace(cert, hprime=hprime, report=report)]))
    assert run(["verify", str(path)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"FAIL certificate 0 (k2=3, k3=6, u={cert.u}, x={cert.x}): constraints failed: S_s",
        "0/1 certificate(s) verified",
    ]


def test_chars(capsys):
    assert run(["chars"]) == 0
    out = capsys.readouterr().out
    assert out.count("ok  ") == 7
    assert "span rank: 7" in out


def test_report_all_green(capsys):
    assert run(["report"]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "f60a639d84ff61c7f0f9a855f5945dec79b96ce4ede4c5ca500699969fe9b17d"
    )
    assert "FAIL" not in out


def test_report_with_a_failing_check_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(cli, "_golden_checks", lambda: [("a", True, "x"), ("b", False, "y")])
    assert run(["report"]) == 1
    assert capsys.readouterr().out == "ok   a: x\nFAIL b: y\n1 check(s) FAILED\n"


def test_unknown_subcommand_is_input_error(capsys):
    assert run(["frobnicate"]) == 2
    capsys.readouterr()


def _run_script(exe, *args, **kwargs):
    return subprocess.run(
        [exe, *args], capture_output=True, text=True, timeout=60, **kwargs
    )


def _write_declared_launcher(bin_dir: Path) -> None:
    """Write the launcher an installer makes for the declared `ellspec` script."""
    toml = tomllib or pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = toml.loads(pyproject.read_text())["project"]["scripts"]["ellspec"]
    module, _, func = (part.strip() for part in target.partition(":"))
    assert module and func, target
    launcher = bin_dir / "ellspec"
    launcher.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {func}\n"
        "if __name__ == '__main__':\n"
        f"    sys.exit({func}())\n"
    )
    launcher.chmod(0o755)


def test_console_script_installed(tmp_path):
    """The declared console script runs as its own process with the CLI's exit codes."""
    _write_declared_launcher(tmp_path)
    search_path = os.pathsep.join([str(tmp_path), os.environ.get("PATH", "")])
    exe = shutil.which("ellspec", path=search_path)
    assert exe is not None
    # An absolute import root: a relative PYTHONPATH breaks once cwd moves.
    env = dict(os.environ, PATH=search_path,
               PYTHONPATH=str(Path(ellspec.__file__).resolve().parents[1]))

    proc = _run_script(exe, "table1", cwd=tmp_path, env=env)
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == 6

    proc = _run_script(exe, "ample", "--a", "1", "--b", "3", "--c", "1",
                       cwd=tmp_path, env=env)
    assert proc.returncode == 1, proc.stderr
    proc = _run_script(exe, "frobnicate", cwd=tmp_path, env=env)
    assert proc.returncode == 2, proc.stderr


@pytest.mark.skipif(shutil.which("ellspec") is None,
                    reason="no installed `ellspec` executable on PATH")
def test_installed_console_script_on_path(tmp_path):
    """An installed `ellspec` runs; `report` reads the packaged `data/*.json`."""
    exe = shutil.which("ellspec")
    proc = _run_script(exe, "table1", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == 6
    proc = _run_script(exe, "report", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr


def _golden_json():
    return json.loads(
        resources.files("ellspec.data").joinpath("golden_certificate.json").read_text()
    )


def test_verify_names_a_doctored_report_field(tmp_path, capsys):
    obj = _golden_json()
    assert obj["report"]["c3"] == "12"
    obj["report"]["c3"] = "25/2"
    path = tmp_path / "c3.json"
    path.write_text(json.dumps(obj))
    assert run(["verify", str(path)]) == 1
    fails = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert fails == [
        "FAIL certificate 0 (k2=3, k3=6, u=-3, x=5): stored constraint report"
        " disagrees with recomputation at c3: stored 25/2, recomputed 12"
    ]


def test_verify_names_a_doctored_report_entry(tmp_path, capsys):
    obj = _golden_json()
    (entry,) = [e for e in obj["report"]["entries"] if e["name"] == "S_s"]
    assert entry["value"] == "-12"
    entry["value"] = "-11"
    path = tmp_path / "s_s.json"
    path.write_text(json.dumps(obj))
    assert run(["verify", str(path)]) == 1
    fails = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert fails == [
        "FAIL certificate 0 (k2=3, k3=6, u=-3, x=5): stored constraint report"
        " disagrees with recomputation at S_s.value: stored -11, recomputed -12"
    ]


def test_verify_bounds_the_fail_line_of_a_long_stored_note(tmp_path, capsys):
    """A stored note of a million characters is shown by its first 40
    characters and its length: the FAIL line stays short."""
    obj = _golden_json()
    obj["notes"] = ["x" * 1_000_000]
    path = tmp_path / "noted.json"
    path.write_text(json.dumps(obj))
    assert run(["verify", str(path)]) == 1
    fails = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert len(fails) == 1 and len(fails[0]) < 300
    assert fails[0].startswith(
        "FAIL certificate 0 (k2=3, k3=6, u=-3, x=5): stored notes disagree with recomputation:"
        ' stored ("' + "x" * 38 + "... (1000004 characters), recomputed ")


def test_verify_reports_a_non_ample_polarization_and_goes_on(tmp_path, capsys):
    bad, good = _golden_json(), _golden_json()
    bad["hprime"] = {"f": 1, "e1": 1, "xi": 5}
    path = tmp_path / "two.json"
    path.write_text(json.dumps({"version": "1", "certificates": [bad, good]}))
    assert run(["verify", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        "FAIL certificate 0 (k2=3, k3=6, u=-3, x=5): polarization is not certified"
        " ample in the (f', e1', xi') frame",
        "ok   certificate 1 (k2=3, k3=6, u=-3, x=5)",
        "1/2 certificate(s) verified",
    ]
    assert captured.err == ""


def test_verify_fails_every_certificate_with_a_shared_non_ample_polarization(tmp_path, capsys):
    first, second = _golden_json(), _golden_json()
    first["hprime"] = second["hprime"] = {"f": 1, "e1": 1, "xi": 5}
    path = tmp_path / "shared.json"
    path.write_text(json.dumps({"version": "1", "certificates": [first, second]}))
    assert run(["verify", str(path)]) == 1
    reason = "polarization is not certified ample in the (f', e1', xi') frame"
    assert capsys.readouterr().out.splitlines() == [
        f"FAIL certificate 0 (k2=3, k3=6, u=-3, x=5): {reason}",
        f"FAIL certificate 1 (k2=3, k3=6, u=-3, x=5): {reason}",
        "0/2 certificate(s) verified",
    ]


def test_verify_reads_utf8_whatever_the_locale(tmp_path):
    """A certificate file is read as UTF-8 under any locale: a note spelled
    with a raw "é" and a file that starts with a BOM each give the same
    output and exit code under the C locale as in UTF-8 mode."""
    first, second = _golden_json(), _golden_json()
    second["notes"] = ["café"]
    text = json.dumps({"version": "1", "certificates": [first, second]}, ensure_ascii=False)
    noted, bom = tmp_path / "noted.json", tmp_path / "bom.json"
    noted.write_bytes(text.encode("utf-8"))
    bom.write_bytes(text.encode("utf-8-sig"))
    root = str(Path(ellspec.__file__).resolve().parents[1])
    c_locale = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
    for path, code, last in ((noted, 1, "1/2 certificate(s) verified"),
                             (bom, 2, "error: not valid JSON: Unexpected UTF-8 BOM")):
        runs = [_run_script(sys.executable, "-m", "ellspec", "verify", str(path), cwd=tmp_path,
                            env=dict(os.environ, PYTHONPATH=root, **mode))
                for mode in (c_locale, {"PYTHONUTF8": "1"})]
        assert [(p.returncode, p.stdout, p.stderr) for p in runs[1:]] == [
            (runs[0].returncode, runs[0].stdout, runs[0].stderr)]
        assert runs[0].returncode == code
        assert (runs[0].stdout + runs[0].stderr).splitlines()[-1].startswith(last)


def test_python_dash_m_runs_the_cli(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(ellspec.__file__).resolve().parents[1]))
    proc = _run_script(sys.executable, "-m", "ellspec", "table1", cwd=tmp_path, env=env)
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == 6
    proc = _run_script(sys.executable, "-m", "ellspec", "frobnicate", cwd=tmp_path, env=env)
    assert proc.returncode == 2, proc.stderr
    assert "invalid choice" in proc.stderr
