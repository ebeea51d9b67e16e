"""Input boundary and invariants: malformed files exit 2, the rank the CLI
reports is the span rank of the characters, and no check relies on assert."""

import ast
import json
from importlib import resources
from pathlib import Path

import pytest

import ellspec
from ellspec import characters, cli
from ellspec.cli import run


def _golden_dict() -> dict:
    text = resources.files("ellspec.data").joinpath("golden_certificate.json").read_text()
    return json.loads(text)


@pytest.mark.parametrize("field", ["row", "hprime"])
@pytest.mark.parametrize("value", [[], [3, 6], 3, "row", None])
def test_verify_non_object_field_is_input_error(tmp_path, capsys, field, value):
    obj = _golden_dict()
    obj[field] = value
    path = tmp_path / "doctored.json"
    path.write_text(json.dumps(obj))
    assert run(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_solve_rejects_bad_search_inputs_before_work(capsys):
    tiny = ["solve", "--k2", "3", "--k3", "6", "--u-abs", "1", "--x-abs", "1", "--d-abs", "0"]
    assert run(tiny + ["--workers", "1"]) == 2
    assert "unrecognized arguments: --workers" in capsys.readouterr().err
    assert run(tiny + ["--u-abs", "-1"]) == 2
    assert "u_abs" in capsys.readouterr().err
    assert run(tiny + ["--z-min", "2", "--z-max", "1"]) == 2
    assert "z_min" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["chars", "report"])
def test_rank_check_uses_the_characters_not_the_whole_lattice(monkeypatch, capsys, command):
    assert run([command]) == 0
    before = capsys.readouterr().out
    monkeypatch.setattr(characters, "full_lattice_rank", lambda: 6)
    monkeypatch.setattr(cli, "full_lattice_rank", lambda: 6, raising=False)
    assert run([command]) == 0
    assert capsys.readouterr().out == before


def test_source_has_no_assert_statements():
    """Invariants are explicit raises: `python -O` strips assert statements."""
    package = Path(ellspec.__file__).resolve().parent
    found = []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
