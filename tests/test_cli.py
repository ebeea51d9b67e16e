"""Exit codes and output of every subcommand."""

import json
import os
import shutil
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import ellspec
from ellspec.certificates import bundle_params_to_json, loads_certificates
from ellspec.cli import run

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
    assert "error" in capsys.readouterr().err


def test_solve_respects_workers_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("ELLSPEC_WORKERS", "2")
    assert run(["solve", "--k2", "3", "--k3", "6", *TINY]) == 0
    monkeypatch.setenv("ELLSPEC_WORKERS", "zero")
    assert run(["solve", "--k2", "3", "--k3", "6", *TINY]) == 2
    assert "ELLSPEC_WORKERS" in capsys.readouterr().err


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
    path = tmp_path / "params.json"
    path.write_text('{"k2": 3}')
    assert run(["chern", "--params", str(path)]) == 2
    capsys.readouterr()


def test_chars(capsys):
    assert run(["chars"]) == 0
    out = capsys.readouterr().out
    assert out.count("ok  ") == 7
    assert "span rank: 7" in out


def test_report_all_green(capsys):
    assert run(["report"]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out
    assert "FAIL" not in out


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


def test_python_dash_m_runs_the_cli(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(ellspec.__file__).resolve().parents[1]))
    proc = _run_script(sys.executable, "-m", "ellspec", "table1", cwd=tmp_path, env=env)
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == 6
    proc = _run_script(sys.executable, "-m", "ellspec", "frobnicate", cwd=tmp_path, env=env)
    assert proc.returncode == 2, proc.stderr
    assert "invalid choice" in proc.stderr
