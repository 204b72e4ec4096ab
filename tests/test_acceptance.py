"""Acceptance criteria, one test per criterion.

Each test prints one line `criterion NN PASS/FAIL (t s)` and enforces
the stated time budget.  Run with `pytest -s tests/test_acceptance.py`
to see every line.
"""

from __future__ import annotations

import random
import time

import pytest

from conftest import build_cached, completion_cached, explicit_compose, mor_by_label
from ttw import gallery
from ttw.daycat import (broad_category, completion_has_no_terminal,
                        coproduct_of_representables, day_tensor, day_unitors,
                        presheaves_isomorphic, yoneda)
from ttw.errors import BuildError
from ttw.fincat import (FinCategory, from_quantale, is_pushout, validate)
from ttw.fractions import (SigmaClass, restriction_localisation_equivalence,
                           sigma, simple_quotient, verify_right_fractions)
from ttw.orderkit import (Quantale, directed_downsets, downsets,
                          finitely_bounded_downsets, poset_isomorphism,
                          quantale_subunits)
from ttw.restriction import (frobenius_law_holds, restriction_comonad,
                             verify_comonad_bijection, verify_graded_monad,
                             verify_ideal_bijection)
from ttw.subunits import (check_characterisation, enumerate_subunits,
                          has_universal_finite_joins, is_locale_based,
                          subunit_leq_factoring, subunit_leq_invertibility,
                          subunit_semilattice)
from ttw.support import canonical_support


class Budget:
    def __init__(self, number: int, title: str, seconds: float):
        self.number = number
        self.title = title
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.number:02d} {verdict} ({elapsed:.2f}s) "
              f"{self.title}")
        if exc_type is None:
            assert elapsed < self.seconds, \
                f"criterion {self.number} exceeded {self.seconds}s budget"


GALLERY_QUANTALES = [name for name in gallery.names()
                     if gallery.GALLERY[name].quantale is not None]


def test_criterion_01_quantale_subunit_formula():
    with Budget(1, "quantale subunit formula", 1.0):
        for name in GALLERY_QUANTALES:
            q = gallery.GALLERY[name].quantale()
            mc = from_quantale(q)
            categorical = [mc.obj_label(s.domain)
                           for s in enumerate_subunits(mc)]
            order_theoretic = list(quantale_subunits(q).elements)
            assert categorical == order_theoretic, name


def test_criterion_02_support_counterexample():
    with Budget(2, "support counterexample on q3", 1.0):
        q3 = build_cached("q3")
        lat = subunit_semilattice(q3)
        eps = mor_by_label(q3, "eps->1")
        supp_eps = canonical_support(q3, eps, lat=lat).supp
        square = q3.tensor_mor(eps, eps)
        supp_square = canonical_support(q3, square, lat=lat).supp
        assert q3.obj_label(lat.subunits[supp_eps].domain) == "1"
        assert q3.obj_label(lat.subunits[supp_square].domain) == "0"
        assert lat.meet(supp_eps, supp_eps) != supp_square


def test_criterion_03_order_lemma_equivalence():
    with Budget(3, "subunit order routes agree", 5.0):
        for name in gallery.names():
            mc = build_cached(name)
            subs = enumerate_subunits(mc)
            for s in subs:
                for t in subs:
                    assert subunit_leq_factoring(mc, s, t) == \
                        subunit_leq_invertibility(mc, s, t), (name, s.rep, t.rep)


def test_criterion_04_semilattice_laws():
    with Budget(4, "subunit semilattice laws", 5.0):
        for name in gallery.names():
            mc = build_cached(name)
            lat = subunit_semilattice(mc)  # constructor enforces the laws
            n = len(lat)
            for i in range(n):
                assert lat.meet(i, lat.top) == i
                assert lat.meet(i, i) == i
                for j in range(n):
                    assert lat.meet(i, j) == lat.meet(j, i)
                    for k in range(n):
                        assert lat.meet(lat.meet(i, j), k) == \
                            lat.meet(i, lat.meet(j, k))
        # semilattice inputs come back unchanged
        for name in ("b2", "c3", "boolean2x2", "m3"):
            mc = build_cached(name)
            lat = subunit_semilattice(mc)
            assert lat.lattice.elements == mc.objects
            for i in range(len(lat)):
                for j in range(len(lat)):
                    assert lat.subunits[lat.meet(i, j)].domain == \
                        mc.tensor_obj(lat.subunits[i].domain,
                                      lat.subunits[j].domain)


def test_criterion_05_graded_monad_and_comonads():
    with Budget(5, "graded monad and comonad laws", 10.0):
        for name in gallery.names():
            mc = build_cached(name)
            assert verify_graded_monad(mc).holds, name
            assert verify_comonad_bijection(mc).holds, name
            for s in enumerate_subunits(mc):
                assert frobenius_law_holds(restriction_comonad(mc, s))


def test_criterion_06_tensor_ideal_bijection():
    with Budget(6, "tensor ideal bijection", 30.0):
        for name in gallery.names():
            mc = build_cached(name)
            report = verify_ideal_bijection(mc)
            assert report.holds, name
            assert report.details["count"] == len(enumerate_subunits(mc))


def test_criterion_07_localisation():
    with Budget(7, "simple quotients and restriction as localisation", 30.0):
        for name in gallery.names():
            simple_quotient(build_cached(name))  # verified simple inside
        for name in ("q3", "boolean2x2"):
            mc = build_cached(name)
            for s in enumerate_subunits(mc):
                assert restriction_localisation_equivalence(mc, s).holds


def test_criterion_08_universal_join_hierarchy():
    with Budget(8, "universal join hierarchy", 60.0):
        for name in ("boolean2x2", "b2", "c3", "q3"):
            assert is_locale_based(build_cached(name)).holds, name
        m3 = build_cached("m3")
        report = has_universal_finite_joins(m3)
        assert not report.holds
        s_rep, t_rep, x, left, top, bottom_leg, right_leg = report.witness
        assert not is_pushout(m3, left, top, bottom_leg, right_leg)
        for name in gallery.names():
            mc = build_cached(name)
            chi = check_characterisation(mc)  # raises on route disagreement
            assert chi.details["verdicts"]["all"] == is_locale_based(mc).holds


def test_criterion_09_day_convolution():
    with Budget(9, "Day unit laws and Yoneda monoidality", 60.0):
        rng = random.Random(2026)
        checked = 0
        for name in ("b2", "c3"):
            mc = build_cached(name)
            for _ in range(12):
                tags = [rng.randrange(len(mc.objects))
                        for _ in range(rng.randrange(4))]
                presheaf = coproduct_of_representables(mc, tags)
                assert all(presheaf.size(a) <= 3
                           for a in range(len(mc.objects)))
                day_unitors(mc, presheaf)  # natural isos, verified inside
                checked += 1
        assert checked >= 20
        for name in ("b2", "c3", "q3"):
            mc = build_cached(name)
            for a in range(len(mc.objects)):
                for b in range(len(mc.objects)):
                    lhs = day_tensor(mc, yoneda(mc, a),
                                     yoneda(mc, b)).presheaf
                    rhs = yoneda(mc, mc.tensor_obj(a, b))
                    assert presheaves_isomorphic(lhs, rhs) is not None


def test_criterion_10_completions():
    with Budget(10, "broad completions", 120.0):
        for name in ("b2", "c3", "q3", "boolean2x2", "m3"):
            mc = build_cached(name)
            lat = subunit_semilattice(mc)
            for flavour, free_completion in (
                    ("all", downsets),
                    ("finite", finitely_bounded_downsets),
                    ("directed", directed_downsets)):
                completion = completion_cached(name, flavour)
                lat2 = subunit_semilattice(completion.category)
                expected = free_completion(lat.lattice)
                assert poset_isomorphism(lat2.lattice.poset,
                                         expected.poset) is not None, \
                    (name, flavour)
            full = completion_cached(name, "all")
            assert is_locale_based(full.category).holds, name


def test_criterion_11_no_topos_witness():
    with Budget(11, "group completion has no terminal object", 5.0):
        completion = broad_category(build_cached("z2"), "all")
        assert completion_has_no_terminal(completion)


def test_criterion_12_fault_sensitivity():
    with Budget(12, "validators reject single-entry corruption", 10.0):
        for name in gallery.names():
            mc = build_cached(name)
            # category axioms: redirect one composition entry
            table = explicit_compose(mc)
            key = sorted(table)[0]
            old = table[key]
            new = next(m.mid for m in mc.morphisms if m.mid != old)
            bad = dict(table)
            bad[key] = new
            cat = FinCategory(mc.cat.objects, mc.cat.morphisms,
                              mc.cat.identity, bad)
            report = validate(cat, mc.mon)
            assert not report.ok(), name
            assert report.violations[0].witness, name
            # right fractions: drop an identity from the inverted class
            sig = sigma(mc)
            dropped = SigmaClass(mc, sig.members - {mc.identity(mc.unit)})
            fraction_report = verify_right_fractions(mc, dropped)
            assert not fraction_report.holds, name
            assert fraction_report.witness, name
        # quantale laws: corrupt one multiplication entry per quantale
        for name in GALLERY_QUANTALES:
            q = gallery.GALLERY[name].quantale()
            rows = [list(r) for r in q.mult]
            rows[0][0] = (rows[0][0] + 1) % len(q.elements)
            with pytest.raises(BuildError):
                Quantale(q.poset, tuple(tuple(r) for r in rows), q.unit)
