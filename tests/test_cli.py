from __future__ import annotations

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

import ttw
from ttw import gallery
from ttw.cli import main, make_parser
from ttw.dot import render_dot
from ttw.orderkit import FinPoset
from ttw.schema import (build_category, category_to_document,
                        parse_category_document)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _src_env(**extra) -> dict:
    """The environment of a child process that imports this checkout's ttw."""
    src = str(pathlib.Path(ttw.__file__).resolve().parent.parent)
    return dict(os.environ, **extra, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


@pytest.fixture
def emitted(tmp_path, capsys):
    def emit(name):
        code = main(["examples", "emit", name])
        out = capsys.readouterr().out
        assert code == 0
        path = tmp_path / f"{name}.json"
        path.write_text(out)
        return str(path)
    return emit


def test_examples_list(capsys):
    code, out, _ = run_cli(capsys, "examples", "list")
    assert code == 0
    for name in gallery.names():
        assert name in out


def test_emit_roundtrip_structural_equality(emitted):
    for name in gallery.names():
        path = emitted(name)
        with open(path) as handle:
            data = json.load(handle)
        # the emitted text is the gallery document itself
        assert data == gallery.GALLERY[name].document
        doc = parse_category_document(data)
        rebuilt = build_category(doc)
        reference = gallery.build(name)
        assert category_to_document(rebuilt, name) == \
            category_to_document(reference, name)


def test_subunits_command_json(capsys, emitted):
    path = emitted("q3")
    code, out, _ = run_cli(capsys, "--format", "json", "subunits", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    assert payload["results"]["subunits"] == ["0", "1"]
    assert payload["results"]["top"] == "1"


def test_check_locale_based(capsys, emitted):
    path = emitted("q3")
    code, out, _ = run_cli(capsys, "--format", "json", "check",
                           "locale-based", path)
    assert code == 0
    assert json.loads(out)["results"]["holds"] is True


def test_check_univ_finite_m3_fails_with_witness(capsys, emitted):
    path = emitted("m3")
    code, out, _ = run_cli(capsys, "--format", "json", "check",
                           "univ-finite", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["holds"] is False
    assert payload["results"]["witness"]


def test_support_command(capsys, emitted):
    path = emitted("q3")
    code, out, _ = run_cli(capsys, "--format", "json", "support",
                           "--morphism", "eps", path)
    assert code == 0
    assert json.loads(out)["results"]["supp"] == "1"
    code, out, _ = run_cli(capsys, "--format", "json", "support",
                           "--morphism", "0", path)
    assert code == 0
    assert json.loads(out)["results"]["supp"] == "0"


def test_restrict_command(capsys, emitted):
    path = emitted("boolean2x2")
    code, out, _ = run_cli(capsys, "--format", "json", "restrict",
                           "--subunit", "a", path)
    assert code == 0
    assert json.loads(out)["results"]["objects"] == ["0", "a"]


def test_localise_command(capsys, emitted):
    path = emitted("b2")
    code, out, _ = run_cli(capsys, "--format", "json", "localise",
                           "--simple", path)
    assert code == 0
    payload = json.loads(out)
    assert all(v == 1 for v in payload["results"]["hom_sizes"].values())


def test_localise_takes_simple_or_subunit_not_both(capsys, emitted):
    path = emitted("c3")
    with pytest.raises(SystemExit) as exc:
        main(["--format", "json", "localise", "--simple", "--subunit", "0", path])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ttw localise")
    assert "argument --subunit: not allowed with argument --simple" in err
    for flags, mode in ((["--simple"], "simple"), (["--subunit", "0"], "subunit 0")):
        code, out, _ = run_cli(capsys, "--format", "json", "localise", *flags, path)
        assert code == 0
        assert json.loads(out)["results"]["mode"] == mode


def test_complete_command(capsys, emitted):
    path = emitted("b2")
    code, out, _ = run_cli(capsys, "--format", "json", "complete",
                           "--flavour", "all", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["objects"] == 6
    assert len(payload["results"]["subunits"]) == 3


def test_day_command(capsys, emitted, tmp_path):
    path = emitted("b2")
    presheaf = {
        "name": "two_points",
        "values": {"0": ["p0", "p1"], "1": ["q"]},
        "action": {"0->1": {"q": "p0"}},
    }
    left = tmp_path / "left.json"
    left.write_text(json.dumps(presheaf))
    code, out, _ = run_cli(capsys, "--format", "json", "day",
                           "--left", str(left), "--right", str(left), path)
    assert code == 0
    counts = json.loads(out)["results"]["class_counts"]
    assert counts == {"0": 4, "1": 1}


def test_dot_output(capsys, emitted, tmp_path):
    path = emitted("c3")
    dot_path = tmp_path / "c3.dot"
    code, out, _ = run_cli(capsys, "subunits", "--dot", str(dot_path), path)
    assert code == 0
    text = dot_path.read_text()
    assert text.count("->") == 2  # covers of a three-chain
    assert "rankdir=BT" in text


@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_dot_file_gets_the_mode_of_a_plain_write(capsys, emitted, tmp_path, umask):
    # a new file: 0o666 less the umask, as open(path, "w") leaves it
    path = emitted("c3")
    dot_path = tmp_path / "c3.dot"
    old = os.umask(umask)
    try:
        code, _, _ = run_cli(capsys, "subunits", "--dot", str(dot_path), path)
    finally:
        os.umask(old)
    assert code == 0
    assert dot_path.stat().st_mode & 0o777 == 0o666 & ~umask


def test_dot_file_keeps_the_mode_of_the_file_it_replaces(capsys, emitted, tmp_path):
    path = emitted("c3")
    dot_path = tmp_path / "c3.dot"
    dot_path.write_text("old\n")
    dot_path.chmod(0o640)
    code, _, _ = run_cli(capsys, "subunits", "--dot", str(dot_path), path)
    assert code == 0
    assert "rankdir=BT" in dot_path.read_text()
    assert dot_path.stat().st_mode & 0o777 == 0o640


def test_dot_file_writes_through_a_symlink(capsys, emitted, tmp_path):
    # as open(path, "w") would: the link stays a link, and its target gets
    # the new text with its mode kept
    path = emitted("c3")
    target = tmp_path / "real.dot"
    target.write_text("old\n")
    target.chmod(0o640)
    link = tmp_path / "link.dot"
    link.symlink_to(target)
    code, _, _ = run_cli(capsys, "subunits", "--dot", str(link), path)
    assert code == 0
    assert link.is_symlink() and link.resolve() == target
    assert "rankdir=BT" in target.read_text()
    assert target.stat().st_mode & 0o777 == 0o640


def test_render_dot_five_downsets():
    from ttw.orderkit import downsets
    poset = FinPoset.from_pairs(["a", "b", "1"], [("a", "1"), ("b", "1")])
    dl = downsets(poset)
    text = render_dot(dl.poset, "antichain")
    assert text.count("[label=") == 5


def test_render_dot_escapes_quotes_and_backslashes():
    poset = FinPoset.from_pairs(['a"b', "c\\d"], [('a"b', "c\\d")])
    text = render_dot(poset, 'my "cat"')
    assert text.splitlines()[0] == 'digraph "my \\"cat\\"" {'
    assert '  n0 [label="a\\"b"];' in text
    assert '  n1 [label="c\\\\d"];' in text


def test_exit_code_schema_error(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"kind": "semilattice", "name": "bad",
                                "elements": ["0", "1"],
                                "leq": [["0", "2"]], "top": "1"}))
    code, _, err = run_cli(capsys, "subunits", str(path))
    assert code == 2
    assert "schema error" in err


def test_exit_code_axiom_violation(capsys, tmp_path):
    doc = {"kind": "quantale", "name": "bad", "elements": ["0", "eps", "1"],
           "leq": [["0", "eps"], ["eps", "1"]],
           "mult": [["0", "0", "0"], ["0", "1", "eps"], ["0", "eps", "1"]],
           "unit": "1"}
    path = tmp_path / "badq.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "subunits", str(path))
    assert code == 3
    assert "law violation" in err


def test_exit_code_unknown_name(capsys, emitted):
    path = emitted("q3")
    code, _, err = run_cli(capsys, "restrict", "--subunit", "nope", path)
    assert code == 4
    code, _, err = run_cli(capsys, "support", "--morphism", "nope", path)
    assert code == 4


def test_exit_code_cap_exceeded(capsys, emitted):
    path = emitted("q3")
    code, _, err = run_cli(capsys, "--cap", "max_objects=2", "subunits", path)
    assert code == 5
    assert "max_objects" in err


def test_univ_directed_needs_no_family_cap(capsys, tmp_path):
    # a 14-element chain has 14 subunits, over the default
    # max_subunit_family_base of 12, which bounds only the swept
    # meet-closed families of the characterisation
    labels = [f"c{i}" for i in range(14)]
    path = tmp_path / "chain14.json"
    path.write_text(json.dumps({
        "kind": "semilattice", "name": "chain14", "elements": labels,
        "leq": [[a, b] for a, b in zip(labels, labels[1:])], "top": labels[-1]}))
    code, out, _ = run_cli(capsys, "--format", "json", "check",
                           "univ-directed", str(path))
    assert code == 0
    assert json.loads(out)["results"]["holds"] is True
    code, _, err = run_cli(capsys, "check", "characterisation", str(path))
    assert code == 5
    assert "max_subunit_family_base" in err


def test_exit_code_unknown_cap_is_usage_error(capsys, emitted):
    path = emitted("b2")
    code, _, err = run_cli(capsys, "--cap", "max_objcts=3", "subunits", path)
    assert code == 2
    assert "unknown cap 'max_objcts'" in err
    # a method of Caps is no cap either
    code, _, err = run_cli(capsys, "--cap", "check=3", "subunits", path)
    assert code == 2
    assert "unknown cap 'check'" in err


def test_env_caps(capsys, emitted, monkeypatch):
    path = emitted("q3")
    monkeypatch.setenv("TTW_MAX_OBJECTS", "2")
    code, _, err = run_cli(capsys, "subunits", str(path))
    assert code == 5
    code, _, err = run_cli(capsys, "--cap", "max_objects=64", "subunits", str(path))
    assert code == 0


@pytest.mark.parametrize("variable", ["TTW_MAX_OBJECTS", "TTW_MAX_MORPHISMS"])
def test_env_cap_that_is_no_integer_is_usage_error(capsys, emitted, monkeypatch,
                                                   variable):
    path = emitted("b2")
    monkeypatch.setenv(variable, "abc")
    code, _, err = run_cli(capsys, "subunits", path)
    assert code == 2
    assert variable in err


def test_shipped_schema_file_matches_embedded():
    import pathlib
    from ttw.schema import CATEGORY_SCHEMA, PRESHEAF_SCHEMA, SCHEMA_VERSION
    path = pathlib.Path(__file__).resolve().parent.parent / "docs" / "schema.json"
    shipped = json.loads(path.read_text())
    assert shipped == {"schema_version": SCHEMA_VERSION,
                       "category": CATEGORY_SCHEMA,
                       "presheaf": PRESHEAF_SCHEMA}


def test_semilattice_shorthand_matches_explicit(capsys, emitted, tmp_path):
    # expanding the b2 shorthand and re-parsing its explicit tables give
    # structurally equal categories
    b2 = gallery.build("b2")
    explicit = category_to_document(b2, "b2_explicit")
    path = tmp_path / "b2_explicit.json"
    path.write_text(json.dumps(explicit))
    code, out, err = run_cli(capsys, "--format", "json", "subunits", str(path))
    assert code == 0, err
    assert json.loads(out)["results"]["subunits"] == ["0", "1"]


def test_json_reports_do_not_depend_on_the_hash_seed(emitted):
    commands = [
        ["--format", "json", "check", "characterisation", emitted("q3")],
        ["--format", "json", "check", "univ-finite", emitted("m3")],
        ["--format", "json", "complete", "--flavour", "all",
         emitted("boolean2x2")],
        ["--format", "json", "localise", "--simple", emitted("q3")],
    ]
    # one process per seed, each running every command in-process
    script = ("import json, sys\n"
              "from ttw.cli import main\n"
              "for argv in json.loads(sys.argv[1]):\n"
              "    assert main(argv) == 0, argv\n")
    outputs = []
    for seed in ("0", "1"):
        done = subprocess.run([sys.executable, "-c", script,
                               json.dumps(commands)],
                              env=_src_env(PYTHONHASHSEED=seed),
                              capture_output=True, check=True)
        outputs.append(done.stdout)
    assert outputs[0].count(b'"schema_version"') == len(commands)
    assert outputs[0] == outputs[1]


def test_syntax_errors_name_line_and_column(capsys, emitted, tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text('{"kind": ')
    code, _, err = run_cli(capsys, "subunits", str(broken))
    assert code == 2
    assert err == f"ttw: schema error: {broken}:1:10: Expecting value\n"
    presheaf = tmp_path / "presheaf.json"
    presheaf.write_text('{"name": "p",\n "values": }')
    code, _, err = run_cli(capsys, "day", "--left", str(presheaf),
                           "--right", str(presheaf), emitted("b2"))
    assert code == 2
    assert err == f"ttw: schema error: {presheaf}:2:12: Expecting value\n"


def test_memoised_parser_keeps_main_reentrant(capsys, emitted, monkeypatch):
    assert make_parser() is make_parser()
    path = emitted("c3")
    code, _, err = run_cli(capsys, "--cap", "max_objects=1", "subunits", path)
    assert code == 5
    assert "max_objects" in err
    code, _, err = run_cli(capsys, "subunits", path)
    assert code == 0, err
    assert make_parser().parse_args(["subunits", path]).cap is None
    assert make_parser().parse_args(
        ["--cap", "max_objects=1", "subunits", path]).cap == ["max_objects=1"]
    code, out, _ = run_cli(capsys, "--format", "json", "subunits", path)
    assert code == 0
    assert json.loads(out)["command"] == "subunits"
    code, out, _ = run_cli(capsys, "subunits", path)
    assert code == 0
    assert out.startswith("# subunits c3\n")
    with pytest.raises(SystemExit) as exc:
        main(["examples", "emit"])
    assert exc.value.code == 2
    assert "examples emit needs a name" in capsys.readouterr().err
    assert run_cli(capsys, "subunits", path)[0] == 0
    monkeypatch.setenv("TTW_MAX_OBJECTS", "1")
    assert run_cli(capsys, "subunits", path)[0] == 5
    monkeypatch.delenv("TTW_MAX_OBJECTS")
    assert run_cli(capsys, "subunits", path)[0] == 0


def _parser_output(parse, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
    return exc.value.code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", [
    ["--help"], ["check", "--help"], ["complete", "--help"],
    ["check", "nosuch", "doc.json"], ["restrict", "doc.json"]])
def test_memoised_parser_prints_the_help_and_usage_of_a_fresh_one(argv):
    make_parser().parse_args(["examples", "list"])
    cached = _parser_output(main, argv)
    assert cached == _parser_output(make_parser.__wrapped__().parse_args, argv)
    assert cached[0] == (0 if "--help" in argv else 2)
    assert cached[1] if "--help" in argv else cached[2]


def test_importing_the_cli_builds_no_parser_and_loads_no_jsonschema():
    script = ("import sys, ttw.cli\n"
              "assert 'jsonschema' not in sys.modules\n"
              "assert 'argparse' in sys.modules\n"
              "assert ttw.cli.make_parser.cache_info().currsize == 0\n")
    subprocess.run([sys.executable, "-c", script], env=_src_env(), check=True)
