"""scripts/timings.py, row by row against the library."""

from __future__ import annotations

import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

import ttw
from conftest import build_cached, completion_cached
from ttw import gallery
from ttw.daycat import broad_category, coproduct_of_representables, day_tensor
from ttw.errors import BuildError, CapExceededError
from ttw.fractions import localise, sigma, simple_quotient
from ttw.restriction import restriction_category
from ttw.subunits import (check_characterisation, enumerate_subunits,
                          is_locale_based)

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "timings.py"


@pytest.fixture(scope="module")
def timings():
    spec = importlib.util.spec_from_file_location("timings", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def table_rows(timings, monkeypatch, capsys, name, rows, sources="sources"):
    """The printed cells of table ``name`` over the given (label,
    flavour) rows of b2, z2 and B3, keyed by label, with the header; the
    rows stand in for what the script's function ``sources`` lists."""
    builders = {"b2": lambda: gallery.build("b2"), "z2": lambda: gallery.build("z2"),
                "b3": timings.b3}
    monkeypatch.setattr(timings, sources, lambda *_: [
        (label, builders[label.split("/")[0]], flavour) for label, flavour in rows])
    timings.main([name])
    header, *lines = capsys.readouterr().out.splitlines()
    assert header.split() == list(timings.TABLES[name][0])
    return {line.split()[0]: line.split()[1:] for line in lines}


def seconds(cell: str) -> bool:
    return float(cell) >= 0


ROWS = [("b2", None), ("b2/all", "all"), ("b3/directed", "directed")]


def category(label):
    if label == "b2/all":
        return completion_cached("b2", "all").category
    return build_cached("b2")


def test_b3_directed_is_refused_by_max_objects(timings):
    with pytest.raises(CapExceededError) as err:
        broad_category(timings.b3(), "directed")
    assert err.value.cap_name == "max_objects"


def test_hierarchy_rows(timings, monkeypatch, capsys):
    printed = table_rows(timings, monkeypatch, capsys, "hierarchy", ROWS)
    assert timings.TABLES["hierarchy"][0] == (
        "category", "objects", "morphisms", "subunits", "char_s", "all",
        "finite", "directed", "locale_s", "locale", "stiff_s", "finite_s")
    assert printed["b3/directed"] == ["max_objects"]
    for label in ("b2", "b2/all"):
        mc = category(label)
        verdicts = check_characterisation(mc).details["verdicts"]
        cells = printed[label]
        assert len(cells) == 11
        assert cells[:3] == [str(len(mc.objects)), str(len(mc.morphisms)),
                             str(len(enumerate_subunits(mc)))]
        assert cells[4:7] == [str(verdicts[k]) for k in ("all", "finite", "directed")]
        assert cells[8] == str(is_locale_based(mc).holds)
        assert all(seconds(cells[k]) for k in (3, 7, 9, 10))


def test_completion_rows(timings, monkeypatch, capsys):
    printed = table_rows(timings, monkeypatch, capsys, "completion", ROWS[1:])
    assert timings.TABLES["completion"][0] == (
        "completion", "objects", "morphisms", "pairs", "build_s", "validate_s")
    cap, build_s = printed["b3/directed"]
    assert cap == "max_objects" and seconds(build_s)
    cat = category("b2/all")
    pairs = sum(cat.cod(f) == cat.dom(g) for f in range(len(cat.morphisms))
                for g in range(len(cat.morphisms)))
    *counts, build_s, validate_s = printed["b2/all"]
    assert counts == [str(len(cat.objects)), str(len(cat.morphisms)), str(pairs)]
    assert seconds(build_s) and seconds(validate_s)


def test_restriction_rows(timings, monkeypatch, capsys):
    printed = table_rows(timings, monkeypatch, capsys, "restriction", ROWS)
    assert printed["b3/directed"] == ["max_objects"]
    for label in ("b2", "b2/all"):
        mc = category(label)
        built = 0
        for s in enumerate_subunits(mc):
            try:
                restriction_category(mc, s)
                built += 1
            except BuildError:
                pass
        objects, morphisms, graded, comonads, restrict, restricted, ideals, \
            composition = printed[label]
        assert [objects, morphisms, restricted] == [
            str(len(mc.objects)), str(len(mc.morphisms)),
            f"{built}/{len(enumerate_subunits(mc))}"]
        assert all(map(seconds, (graded, comonads, restrict, ideals, composition)))
        assert len(restrict.partition(".")[2]) == 4


def test_day_rows(timings, monkeypatch, capsys):
    printed = table_rows(timings, monkeypatch, capsys, "day",
                         [("b2", None), ("b2/all", "all"), ("z2", None)],
                         sources="day_sources")
    for label in ("b2", "b2/all", "z2"):
        mc = build_cached("z2") if label == "z2" else category(label)
        reps = [coproduct_of_representables(mc, [a])
                for a in (0, len(mc.objects) - 1, mc.unit)]
        classes = sum(len(day_tensor(mc, reps[left], reps[right]).classes[a])
                      for left, right in ((0, 1), (1, 2), (2, 0))
                      for a in range(len(mc.objects)))
        objects, morphisms, slid, class_count, *day_s = printed[label]
        assert [objects, morphisms, slid, class_count] == [
            str(len(mc.objects)), str(len(mc.morphisms)),
            str(len(mc.cat.generators)), str(classes)]
        assert len(day_s) == 4 and all(map(seconds, day_s))


def test_localise_rows(timings, monkeypatch, capsys):
    printed = table_rows(timings, monkeypatch, capsys, "localise",
                         [("b2", None), ("b2/all", "all"), ("z2", None),
                          ("b3/directed", "directed")], sources="localise_sources")
    assert printed["b3/directed"] == ["max_objects"]
    for label in ("b2", "b2/all", "z2"):
        mc = build_cached("z2") if label == "z2" else category(label)
        subs = enumerate_subunits(mc)
        localised = sum(len(localise(mc, sigma(mc, [s])).category.morphisms)
                        for s in subs)
        objects, morphisms, subunits, inverted, quotient_s, quotient, \
            localise_s, localised_cell = printed[label]
        assert [objects, morphisms, subunits, inverted, quotient, localised_cell] == [
            str(len(mc.objects)), str(len(mc.morphisms)), str(len(subs)),
            str(len(sigma(mc).members)),
            str(len(simple_quotient(mc).category.morphisms)), str(localised)]
        assert seconds(quotient_s) and seconds(localise_s)


def test_unknown_table_is_a_usage_error():
    src = str(pathlib.Path(ttw.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, str(SCRIPT), "nosuch"],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True)
    assert done.returncode == 2
    assert "invalid choice: 'nosuch'" in done.stderr
