import importlib
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import rdfsupd
from conftest import CHAIN_TEXT, DIAMOND_TEXT, FAMILY_TEXT
from rdfsupd.cli import main
from rdfsupd.turtle import parse_turtle

EX1_QUERY = "SELECT ?Y WHERE { :joe :hasParent ?Y. }"
EX4_UPDATE = (
    "DELETE { ?X a :Child. } INSERT { ?Y a :Mother. } WHERE { ?X :hasMother ?Y. }"
)


@pytest.fixture
def family_file(tmp_path):
    path = tmp_path / "family.ttl"
    path.write_text(FAMILY_TEXT)
    return str(path)


@pytest.fixture
def family_mat_file(tmp_path, family_file, capsys):
    out = str(tmp_path / "family-mat.ttl")
    assert main(["mat", family_file, "--out", out]) == 0
    capsys.readouterr()
    return out


class TestQuery:
    def test_rdfs_regime(self, family_file, capsys):
        assert main(["query", EX1_QUERY, family_file, "--regime", "rdfs"]) == 0
        assert capsys.readouterr().out == "?Y\n:jack\n:jane\n"

    def test_simple_regime(self, family_file, capsys):
        assert main(["query", EX1_QUERY, family_file, "--regime", "simple"]) == 0
        assert capsys.readouterr().out == "?Y\n:jack\n"

    def test_via_mat_agrees(self, family_file, capsys):
        main(["query", EX1_QUERY, family_file, "--via", "rewrite"])
        rewrite_out = capsys.readouterr().out
        main(["query", EX1_QUERY, family_file, "--via", "mat"])
        assert capsys.readouterr().out == rewrite_out

    def test_unsupported_feature_exit_3(self, family_file, capsys):
        code = main(
            ["query", "SELECT ?x WHERE { ?x a :C OPTIONAL { ?x :p ?y } }",
             family_file]
        )
        assert code == 3

    def test_parse_error_exit_2(self, family_file):
        assert main(["query", "SELECT ?x WHERE { ?x :p }", family_file]) == 2

    def test_general_query(self, family_file, capsys):
        assert main(
            ["query", "SELECT ?c WHERE { ?c rdfs:subClassOf :Parent }",
             family_file, "--general"]
        ) == 0
        assert capsys.readouterr().out == "?c\n:Father\n:Mother\n"


class TestUpdate:
    def test_mat2_diff(self, family_mat_file, capsys):
        code = main(
            ["update", EX4_UPDATE, family_mat_file, "--semantics", "mat2",
             "--diff"]
        )
        assert code == 0
        assert capsys.readouterr().out.splitlines() == [
            "- :joe :hasMother :jane .",
            "- :joe :hasParent :jack .",
            "- :joe :hasParent :jane .",
            "- :joe a :Child .",
        ]

    def test_mat0_empty_diff(self, family_mat_file, capsys):
        code = main(
            ["update", EX4_UPDATE, family_mat_file, "--semantics", "mat0",
             "--diff"]
        )
        assert code == 0
        assert capsys.readouterr().out == ""

    def test_writes_store(self, family_file, tmp_path, capsys):
        out = str(tmp_path / "result.ttl")
        code = main(
            ["update", "INSERT DATA { :zoe a :Mother }", family_file,
             "--semantics", "naive", "--out", out]
        )
        assert code == 0
        store = parse_turtle(open(out).read())
        assert any(getattr(a, "inst", None) and a.inst.value.endswith("zoe")
                   for a in store.abox)

    def test_mode_conflict_exit_4(self, family_file):
        code = main(
            ["update", "INSERT DATA { :a a :B }", family_file,
             "--semantics", "mat2", "--mode", "reduced"]
        )
        assert code == 4

    def test_mat3_exit_3(self, family_file):
        code = main(
            ["update", "INSERT DATA { :a a :B }", family_file,
             "--semantics", "mat3"]
        )
        assert code == 3

    def test_unknown_semantics_exit_2(self, family_file):
        code = main(
            ["update", "INSERT DATA { :a a :B }", family_file,
             "--semantics", "bogus"]
        )
        assert code == 2

    def test_red0_where_regime_flag(self, tmp_path, capsys):
        data = tmp_path / "chain.ttl"
        data.write_text(CHAIN_TEXT + "\n:x a :C .")
        op = "DELETE { ?y a :C } WHERE { ?y a :D }"
        assert main(["update", op, str(data), "--semantics", "red0",
                     "--where-regime", "simple", "--diff"]) == 0
        assert capsys.readouterr().out == ""
        assert main(["update", op, str(data), "--semantics", "red0",
                     "--diff"]) == 0
        assert capsys.readouterr().out == "- :x a :C .\n"

    def test_general_cut_update(self, tmp_path, capsys):
        data = tmp_path / "diamond.ttl"
        data.write_text(DIAMOND_TEXT)
        code = main(
            ["update", "DELETE { :A rdfs:subClassOf :F }", str(data),
             "--semantics", "outcut", "--general", "--diff"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "- :A rdfs:subClassOf :F ." in out
        assert "- :A rdfs:subClassOf :B ." in out


class TestModeCommands:
    def test_check_reduced(self, family_file, capsys):
        assert main(["check", family_file]) == 0
        assert capsys.readouterr().out == "materialised: no, reduced: yes\n"

    def test_check_materialised(self, family_mat_file, capsys):
        assert main(["check", family_mat_file]) == 0
        assert capsys.readouterr().out == "materialised: yes, reduced: no\n"

    def test_red_recovers_core(self, family_file, family_mat_file, capsys):
        assert main(["red", family_mat_file]) == 0
        red_text = capsys.readouterr().out
        assert parse_turtle(red_text) == parse_turtle(FAMILY_TEXT)

    def test_mat_empty(self, tmp_path, capsys):
        path = tmp_path / "empty.ttl"
        path.write_text("")
        assert main(["mat", str(path)]) == 0
        body = [l for l in capsys.readouterr().out.splitlines()
                if l and not l.startswith("@prefix")]
        assert body == []

    def test_deterministic_output(self, family_file, capsys):
        main(["mat", family_file])
        first = capsys.readouterr().out
        main(["mat", family_file])
        assert capsys.readouterr().out == first

    def test_merges_inputs_in_order(self, tmp_path, capsys):
        one = tmp_path / "one.ttl"
        two = tmp_path / "two.ttl"
        one.write_text(":a a :C .")
        two.write_text(":b a :C .")
        assert main(["check", str(one), str(two)]) == 0

    def test_parse_error_exit_2(self, tmp_path):
        bad = tmp_path / "bad.ttl"
        bad.write_text(':x :age "41" .')
        assert main(["mat", str(bad)]) == 3
        bad.write_text(":x :p .")
        assert main(["mat", str(bad)]) == 2
        bad.write_bytes(b":x a :\xff .")
        assert main(["mat", str(bad)]) == 2

    def test_internal_error_exit_70(self, family_file, monkeypatch, capsys):
        # A bug inside the engine is not the input's fault, even when it
        # surfaces as a ValueError.
        def broken(*args):
            raise ValueError("injected")

        monkeypatch.setattr("rdfsupd.cli.answers_rdfs_rewriting", broken)
        assert main(["query", EX1_QUERY, family_file]) == 70
        err = capsys.readouterr().err
        assert err.startswith("Traceback")
        assert err.endswith("rdfsupd: internal error: ValueError: injected\n")


class TestDiff:
    def test_two_files(self, family_file, family_mat_file, capsys):
        assert main(["diff", family_file, family_mat_file]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == [
            "+ :jack a :Parent .",
            "+ :jane a :Mother .",
            "+ :jane a :Parent .",
            "+ :joe :hasParent :jane .",
            "+ :joe a :Child .",
        ]

    def test_identical(self, family_file, capsys):
        assert main(["diff", family_file, family_file]) == 0
        assert capsys.readouterr().out == ""


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
VERBS = ("query", "update", "mat", "red", "check", "diff")


def test_console_script_installed():
    """The declared `rdfsupd` script resolves to `cli.main` and runs.

    Checked without an install: the target is read from `pyproject.toml`,
    and the command is run as `python -m rdfsupd`, which is what the
    installed script does.
    """
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["rdfsupd"]
    assert target == "rdfsupd.cli:main"
    module_name, _, attr = target.partition(":")
    assert getattr(importlib.import_module(module_name), attr) is main

    src_dir = str(Path(rdfsupd.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-m", "rdfsupd", "--help"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src_dir},
    )
    assert out.returncode == 0, out.stderr
    assert set(VERBS) <= set(re.findall(r"\w+", out.stdout))


@pytest.mark.skipif(shutil.which("rdfsupd") is None,
                    reason="no `rdfsupd` script on PATH; needs `pip install -e .`")
def test_console_script_on_path():
    out = subprocess.run(
        ["rdfsupd", "--help"], capture_output=True, text=True
    )
    assert out.returncode == 0
    assert "query" in out.stdout
