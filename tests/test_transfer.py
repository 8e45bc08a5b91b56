import random
from fractions import Fraction

import pytest

from hochtrace.bimod import left_module_from_algebra
from hochtrace.cdga import BaseCDGA, FreeKModule
from hochtrace.fixtures import dual_numbers, fixture_algebra, mu3_algebra, sphere_cohomology
from hochtrace.grdlin import GradedSpace, ONE, homology_window
from hochtrace.hoch import hh_of_algebra
from hochtrace.transfer import (
    DualityData,
    assembly_projection_report,
    becker_gottlieb,
    becker_gottlieb_report,
    closed_form_transfer,
    corollary_tr,
    cyclic_factorization_report,
    find_derived_coev,
    generalized_trace,
    graded_trace_cyclicity_report,
    module_trace,
    simp_model,
    tr0_tr1_evaluate,
    tr_degree0,
    trace_chain_report,
    transfer_explicit,
    vanishing_check,
)

EULER = {"s2": 2, "s3": 0, "s4": 2, "cp2": 3}


def test_module_trace_identity():
    # identity on a rank-2 module with even generators -> 2
    q = BaseCDGA.rationals()
    m = FreeKModule(q, GradedSpace([("a", 0), ("b", 2)]))
    ident = {v: {("1", v): ONE} for v in ("a", "b")}
    assert module_trace(m, ident) == {"1": Fraction(2)}


def test_module_trace_shifted_sphere():
    # identity on sS for S = H*(S^2): degrees -1 and 1 -> -2
    alg = fixture_algebra("s2")
    ident = {v: {("1", v): ONE} for v in alg.gens.labels()}
    assert module_trace(alg.module, ident) == {"1": Fraction(-2)}


def test_trace_cyclicity():
    rng = random.Random(3)
    for name in ("s2", "dual"):
        alg = fixture_algebra(name)
        assert graded_trace_cyclicity_report(alg.module, rng, samples=30).ok


def test_duality_triangles():
    for name in ("s2", "cp2"):
        alg = fixture_algebra(name)
        duality = DualityData(alg.module)
        assert duality.report.ok
        assert sum(duality.trace_of_identity().values()) == -EULER[name]


def test_euler_traces():
    for name, chi in EULER.items():
        alg = fixture_algebra(name)
        hh = hh_of_algebra(alg, 3)
        tr = corollary_tr(hh, alg)
        assert tr.column(("1", "1", ())).get("1", 0) == chi
        assert trace_chain_report("tr", tr, hh, alg.base).ok
        assert cyclic_factorization_report("tr", tr, hh).ok


def test_corollary_equals_negative_tr_degree0():
    for name in ("s2", "cp2"):
        alg = fixture_algebra(name)
        hh = hh_of_algebra(alg, 3)
        m = left_module_from_algebra(alg)
        assert corollary_tr(hh, alg) == tr_degree0(hh, m, alg.module).scale(-ONE)


def test_tr_degree0_chain_certificate_mu3():
    alg = mu3_algebra()
    hh = hh_of_algebra(alg, 3)
    m = left_module_from_algebra(alg)
    tr = tr_degree0(hh, m, alg.module)
    assert trace_chain_report("tr0", tr, hh, alg.base).ok
    assert cyclic_factorization_report("tr0", tr, hh).ok


def test_becker_gottlieb_values():
    for name, chi in EULER.items():
        alg = fixture_algebra(name)
        bg = becker_gottlieb(alg)
        assert bg.column(("1", "1")).get("1", 0) == chi
        assert becker_gottlieb_report(alg).ok
    # degree-2 generator maps to zero over Q
    alg = fixture_algebra("s2")
    assert not becker_gottlieb(alg).column(("1", "x"))


def test_assembly_projection():
    alg = fixture_algebra("s2")
    hh = hh_of_algebra(alg, 3)
    assert assembly_projection_report(hh).ok


def test_assembly_projection_fails_noncommutative():
    from hochtrace.ainf import from_dga
    from hochtrace.fixtures import noncommutative_dga
    alg = from_dga(noncommutative_dga())
    hh = hh_of_algebra(alg, 2)
    assert not assembly_projection_report(hh).ok


def test_derived_coev_trivial_differentials():
    alg = fixture_algebra("s2")
    coev = find_derived_coev(BaseCDGA.rationals(), alg.module, b_max=2)
    terms = list(coev.terms())
    assert all(not ys for (_m, ys, _p, _c) in terms)
    assert len(terms) == 2


def test_derived_coev_twisted():
    # over the dual numbers with d(u) = x w the coevaluation needs bar terms
    R = dual_numbers()
    M = FreeKModule(R, GradedSpace([("u", 0), ("w", 1)]),
                    {"u": {("x", "w"): ONE}})
    coev = find_derived_coev(R, M, b_max=2)
    assert any(ys for (_m, ys, _p, _c) in coev.terms())


def test_generalized_trace_s2():
    alg = fixture_algebra("s2")
    coev = find_derived_coev(BaseCDGA.rationals(), alg.module, b_max=2)
    gt = generalized_trace(coev, 2)
    assert gt.chain_report().ok
    # degree-0 values are the graded traces of the matrix units
    for v in alg.module.gens.labels():
        want = -ONE if alg.module.gens.degree[v] % 2 else ONE
        got = gt.map.column(("1", ("hom", v, v), ())).get(("1", "1", ()), 0)
        assert got == want


def test_generalized_trace_twisted_module():
    q = BaseCDGA.rationals()
    m = FreeKModule(q, GradedSpace([("u", 0), ("w", 1)]),
                    {"u": {("1", "w"): ONE}})
    coev = find_derived_coev(q, m, b_max=3)
    gt = generalized_trace(coev, 2)
    assert gt.chain_report().ok


def test_explicit_transfer_consistency():
    for maker in (lambda: fixture_algebra("s2"), mu3_algebra):
        alg = maker()
        m = left_module_from_algebra(alg)
        coev = find_derived_coev(BaseCDGA.rationals(), alg.module, b_max=2)
        rep = transfer_explicit(alg, m, alg.module, coev, 2)
        assert rep.chain_report().ok
        assert rep.degree_zero_report(m).ok
        assert closed_form_transfer(rep, m) == rep.composite


def test_simp_model_s3():
    alg = fixture_algebra("s3")
    model = simp_model(alg, 3, word_cap=2)
    assert homology_window(model.complex, 0, 0) == {0: 1}
    assert all(model.gen_space.degree[g] >= 1 for g in model.gen_space.labels())


def test_simp_model_zero_transfer_is_free():
    # for S^3 the transfer vanishes on reduced HH in the truncation, so the
    # model's d is purely d_1 wherever d_2 would act; d^2 = 0 asserted anyway
    alg = fixture_algebra("s3")
    model = simp_model(alg, 2, word_cap=2)
    assert model.complex is not None


def test_simp_model_degree_guard():
    with pytest.raises(ValueError):
        simp_model(fixture_algebra("dual"), 2)


def test_vanishing_check_s2():
    report = vanishing_check(fixture_algebra("s2"), 6, -2, 4)
    assert report.ok, report.summary()
    # the window sees actual homology classes, not just empty groups
    assert any("1 classes" in name or "2 classes" in name
               for name, _ok, _w in report.checks)


def test_tr0_tr1():
    s2 = fixture_algebra("s2")
    hh = hh_of_algebra(s2, 3)
    tr0, tr1 = tr0_tr1_evaluate(
        hh, s2, {"theta_degrees": {"t": 0}, "phi": {"t": {}}, "xi": {}})
    assert not tr1
    assert tr0.column(("1", "1", ())).get("1") == 2
    # a nontrivial phi pairing needs distinct letters so the rotations do
    # not cancel: use CP^2 and pair (x, x2, x) against phi(t)(e_x^dual)
    cp2 = fixture_algebra("cp2")
    hh2 = hh_of_algebra(cp2, 3)
    action = {"theta_degrees": {"t": 1},
              "phi": {"t": {"x": [(("x", "x2", "x"), Fraction(1))]}},
              "xi": {}}
    _tr0b, tr1b = tr0_tr1_evaluate(hh2, cp2, action)
    v1 = tr1b.get((("1", "x", ("x2",)), "t"))
    v2 = tr1b.get((("1", "x2", ("x",)), "t"))
    assert v1 and v2
    # cyclic invariance: both rotations of the same cyclic word carry the
    # same pairing value up to the Koszul rotation sign (odd here: degrees
    # 1 and 3 -> sign -1... both shifted degrees odd: (-1)^{1*3} = -1)
    assert v1 == -v2
