"""scripts/timings.py, row by row against the library, and the pinned
output of scripts/gallery_report.py and scripts/completion_demo.py."""

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
from ttw.orderkit import FinPoset, downsets
from ttw.restriction import restriction_category
from ttw.subunits import (check_characterisation, enumerate_subunits,
                          is_locale_based)

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"
SCRIPT = SCRIPTS / "timings.py"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def timings():
    return load_script("timings")


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
            composition, support = printed[label]
        assert [objects, morphisms, restricted] == [
            str(len(mc.objects)), str(len(mc.morphisms)),
            f"{built}/{len(enumerate_subunits(mc))}"]
        assert all(map(seconds, (graded, comonads, restrict, ideals, composition,
                                 support)))
        assert len(restrict.partition(".")[2]) == 4
        assert len(composition.partition(".")[2]) == 3
        assert len(support.partition(".")[2]) == 3


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


def test_order_rows(timings, monkeypatch, capsys):
    every = list(timings.order_sources())
    assert [label for label, _, _ in every] == [
        "antichain6", "antichain8", "antichain9", "chain16", "chain64", "b3", "b4"]
    chosen = ("antichain6", "chain16", "chain64", "b3")
    monkeypatch.setattr(timings, "order_sources",
                        lambda: [row for row in every if row[0] in chosen])
    timings.main(["order"])
    header, *lines = capsys.readouterr().out.splitlines()
    assert header.split() == list(timings.TABLES["order"][0])
    printed = {line.split()[0]: line.split()[1:] for line in lines}
    assert list(printed) == list(chosen)
    for label, source, _ in every:
        if label in ("antichain6", "chain16", "b3"):
            poset = FinPoset.from_pairs(*source())
            elements, count, *seconds_cells = printed[label]
            assert [elements, count] == [str(len(poset)), str(len(downsets(poset).sets))]
            assert len(seconds_cells) == 3 and all(map(seconds, seconds_cells))
    elements, refused, *seconds_cells = printed["chain64"]
    assert [elements, refused] == ["64", "max_downset_base"]
    assert len(seconds_cells) == 2 and all(map(seconds, seconds_cells))


ONESHOT_B2 = """\
run                                 exit      wall_s peak_rss_mb
characterisation/b2                    0           *           *
complete/b2                            0           *           *
localise/b2                            0           *           *
day/b2                                 0           *           *
"""


def test_oneshot_rows_run_each_command_in_a_fresh_process(timings, monkeypatch, capsys):
    every = list(timings.oneshot_sources())
    assert len(every) == 3 * len(gallery.names()) + 1
    monkeypatch.setattr(timings, "oneshot_sources",
                        lambda: [row for row in every if row[2] == "b2"])
    timings.main(["oneshot"])
    # the wall_s and peak_rss_mb columns, right-aligned in 12 characters, are masked
    lines = capsys.readouterr().out.splitlines()
    assert all(float(cell) > 0 for line in lines[1:] for cell in line.split()[2:])
    masked = [lines[0]] + [f"{line[:-24]}{'*':>12}{'*':>12}" for line in lines[1:]]
    assert "\n".join(masked) + "\n" == ONESHOT_B2


def test_unknown_table_is_a_usage_error():
    src = str(pathlib.Path(ttw.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, str(SCRIPT), "nosuch"],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True)
    assert done.returncode == 2
    assert "invalid choice: 'nosuch'" in done.stderr


GALLERY_REPORT = """\
category       |ISub|     firm    stiff      fin      dir   locale   graded comonads   ideals     secs
b2                  2     True     True     True     True     True     True     True     True        *
boolean2x2          4     True     True     True     True     True     True     True     True        *
c3                  3     True     True     True     True     True     True     True     True        *
ideal2              3     True     True     True     True     True     True     True     True        *
m3                  5     True     True    False     True    False     True     True     True        *
monoid_idem         1     True     True    False    False    False     True     True     True        *
q3                  2     True     True     True     True     True     True     True     True        *
z2                  1     True     True    False    False    False     True     True     True        *
"""


def test_gallery_report_prints_the_pinned_verdicts(capsys):
    load_script("gallery_report").main()
    out = capsys.readouterr().out
    # the secs column, right-aligned in 9 characters, is masked
    masked = [line if k == 0 else f"{line[:-9]}{'*':>9}"
              for k, line in enumerate(out.splitlines())]
    assert all(seconds(line[-9:]) for line in out.splitlines()[1:])
    assert "\n".join(masked) + "\n" == GALLERY_REPORT


COMPLETION_DEMO_Q3 = """\
q3: 3 objects, subunits ['0', '1']
  finite  :   9 objects,   54 morphisms,  3 subunits, free completion match: True
  directed:   9 objects,   54 morphisms,  3 subunits, free completion match: True
  all     :   9 objects,   54 morphisms,  3 subunits, free completion match: True
            locale based: True
digraph "q3-subunits" {
  rankdir=BT;
  n0 [label="{}[0]"];
  n1 [label="{0}[0]"];
  n2 [label="{0,1}[1]"];
  n0 -> n1;
  n1 -> n2;
}

"""


def test_completion_demo_prints_the_pinned_output(capsys):
    load_script("completion_demo").main("q3")
    assert capsys.readouterr().out == COMPLETION_DEMO_Q3
