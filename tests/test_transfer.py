import hashlib
import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from hochtrace import transfer
from hochtrace.ainf import from_dga, letter_to_pair, unit_algebra
from hochtrace.bimod import check_bimodule, hom_label, left_module_from_algebra
from hochtrace.cdga import BaseCDGA, FreeKModule, KAlgebra, cdga_as_kalgebra
from hochtrace.fixtures import (
    dual_numbers,
    exterior_odd,
    fixture_algebra,
    mu3_algebra,
    sphere3_with_differential,
    sphere_cohomology,
)
from hochtrace.grdlin import GradedMap, GradedSpace, ONE, cyclic_rotations, homology_window, vec_add
from hochtrace.hoch import hh_of_algebra
from hochtrace.report import Report
from hochtrace.transfer import (
    GeneralizedTrace,
    SimpModel,
    assembly_projection_report,
    becker_gottlieb,
    becker_gottlieb_report,
    chain_report,
    closed_form_transfer,
    corollary_tr,
    cyclic_factorization_report,
    find_derived_coev,
    graded_trace_cyclicity_report,
    module_trace,
    tr_degree0,
    transfer_explicit,
    vanishing_check,
)

EULER = {"s2": 2, "s3": 0, "s4": 2, "cp2": 3}


def test_module_trace_identity():
    # identity on a rank-2 module with even generators -> 2
    q = BaseCDGA.rationals()
    m = FreeKModule(q, GradedSpace([("a", 0), ("b", 2)]))
    ident = {("1", hom_label(v, v)): ONE for v in ("a", "b")}
    assert module_trace(m, ident) == {"1": Fraction(2)}


@pytest.mark.parametrize("name, trace", [("s2", -2), ("cp2", -3)], ids=["s2", "cp2"])
def test_module_trace_shifted_sphere(name, trace):
    # identity on sS: minus the Euler characteristic, e.g. for S = H*(S^2)
    # the degrees -1 and 1 give -2
    alg = fixture_algebra(name)
    ident = {("1", hom_label(v, v)): ONE for v in alg.gens.labels()}
    assert module_trace(alg.module, ident) == {"1": Fraction(trace)}


def test_module_as_right_moves_r2_past_an_odd_generator():
    # an odd base element y meets the odd generator w: the flat generator
    # (r, v) is r v, so (r v) r2 = (-1)^{|v||r2|} (r r2) v.  Without that
    # sign the right module fails at (l, r) = (0, 1) on ((1, u), y) and
    # M (x)~ M^dual fails d*d = 0
    base = sphere3_with_differential()
    module = FreeKModule(base, GradedSpace([("u", 0), ("w", -1)]),
                         {"u": {("x", "w"): ONE}})
    right = transfer.module_as_right(module, from_dga(cdga_as_kalgebra(base), n_max=4))
    assert check_bimodule(right, 3).ok
    coev = find_derived_coev(base, module, b_max=2)
    assert coev.vector and not coev.tensor.kmodule.d(coev.vector)


def plain_trace(_module, operator):
    """module_trace without the supertrace sign (-1)^{|v|}."""
    out = Counter()
    for (r, (_hom, v, w)), c in operator.items():
        if v == w:
            out[r] += c
    return {r: c for r, c in out.items() if c}


def test_trace_cyclicity():
    rng = random.Random(3)
    for name in ("s2", "s3", "dual"):
        alg = fixture_algebra(name)
        assert graded_trace_cyclicity_report(alg.module, rng, samples=30).ok


def test_trace_cyclicity_needs_the_supertrace_sign(monkeypatch):
    # over Lambda(x), |x| = 1, odd operators swap 1 and x; the plain trace
    # (no (-1)^{|v|}) fails at the first odd pair drawn
    module = from_dga(cdga_as_kalgebra(exterior_odd(1))).module
    assert graded_trace_cyclicity_report(module, random.Random(3), samples=30).ok
    monkeypatch.setattr(transfer, "module_trace", plain_trace)
    report = graded_trace_cyclicity_report(module, random.Random(3), samples=30)
    _name, ((fdeg, gdeg, _f, _g), defect) = report.first_failure
    assert fdeg % 2 and gdeg % 2 and defect


def test_trace_cyclicity_draws_odd_operators_across_a_degree_gap(monkeypatch):
    # sS for S = H*(S^3) has generators in degrees -1 and 2: the odd
    # operators between them have degree +-3, outside [-2, 2], and the
    # plain trace fails only on them
    module = fixture_algebra("s3").module
    monkeypatch.setattr(transfer, "module_trace", plain_trace)
    report = graded_trace_cyclicity_report(module, random.Random(3), samples=30)
    _name, ((fdeg, gdeg, _f, _g), defect) = report.first_failure
    assert {fdeg, gdeg} == {-3, 3} and defect


def test_euler_traces():
    for name, chi in EULER.items():
        alg = fixture_algebra(name)
        hh = hh_of_algebra(alg, 3)
        tr = corollary_tr(hh, alg)
        assert tr.column(("1", "1", ())).get("1", 0) == chi
        assert chain_report("tr chain certificate", tr, hh.d, alg.base.d).ok
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
    assert chain_report("tr0 chain certificate", tr, hh.d, alg.base.d).ok
    assert cyclic_factorization_report("tr0", tr, hh).ok


def test_cyclic_factorization_needs_the_koszul_sign():
    # t(1 | x | x) = (1 | x | x) with the odd letter x passing the odd x:
    # the map is t-invariant only without the Koszul sign, so it must fail
    alg = fixture_algebra("s2")
    hh = hh_of_algebra(alg, 2)
    label = ("1", "x", ("x",))
    target = GradedSpace([("1", hh.space.degree[label])])
    tr = GradedMap(hh.space, target, 0, {label: {"1": 1}})
    report = cyclic_factorization_report("unsigned", tr, hh)
    assert not report.ok
    assert report.first_failure[1][0] == label


def test_becker_gottlieb_values():
    for name, chi in EULER.items():
        alg = fixture_algebra(name)
        bg = becker_gottlieb(alg)
        assert bg.column(("1", "1")).get("1", 0) == chi
        assert becker_gottlieb_report(alg).ok
    # degree-2 generator maps to zero over Q
    alg = fixture_algebra("s2")
    assert not becker_gottlieb(alg).column(("1", "x"))


def test_becker_gottlieb_sign_on_a_base_with_differential(monkeypatch):
    # dy = x makes both sides nonzero: d_R o bg = -(bg o d_sS), not +
    alg = unit_algebra(sphere3_with_differential())
    assert becker_gottlieb_report(alg).ok
    bg = becker_gottlieb(alg)
    assert alg.base.d.compose(bg).entries == {("y", "1"): {"x": -1}}
    assert bg.compose(alg.module.d).entries == {("y", "1"): {"x": 1}}
    # the same algebra presented with the opposite sign of d_sS must fail
    monkeypatch.setattr(alg.module, "d", alg.module.d.scale(-ONE))
    assert not becker_gottlieb_report(alg).ok


def test_base_with_differential_has_the_hh_of_s3():
    hh = hh_of_algebra(from_dga(cdga_as_kalgebra(sphere3_with_differential())), 4)
    hs3 = hh_of_algebra(fixture_algebra("s3"), 4)
    degrees = hh.space.degrees() + hs3.space.degrees()
    lo, hi = min(degrees), max(degrees)
    assert homology_window(hh.complex, lo, hi) == homology_window(hs3.complex, lo, hi)


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


def _twisted_dual_numbers_module():
    # over the dual numbers with d(u) = x w: the c-terms carry the bar
    # letter ("x",) and a -1 coefficient
    R = dual_numbers()
    return R, FreeKModule(R, GradedSpace([("u", 0), ("w", 1)]),
                          {"u": {("x", "w"): ONE}})


def test_derived_coev_twisted():
    # the coevaluation over the dual numbers needs bar terms
    R, M = _twisted_dual_numbers_module()
    coev = find_derived_coev(R, M, b_max=2)
    assert any(ys for (_m, ys, _p, _c) in coev.terms())


def test_generalized_trace_s2():
    alg = fixture_algebra("s2")
    coev = find_derived_coev(BaseCDGA.rationals(), alg.module, b_max=2)
    gt = GeneralizedTrace(coev, 2)
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
    gt = GeneralizedTrace(coev, 2)
    assert gt.chain_report().ok


def entries_digest(entries):
    """Hash of a map's columns: labels sorted by repr, coefficients written
    as numerator/denominator, so 1 and Fraction(1) hash the same."""
    h = hashlib.sha256()
    for src in sorted(entries, key=repr):
        h.update(repr(src).encode() + b":")
        col = entries[src]
        for tgt in sorted(col, key=repr):
            c = col[tgt]
            h.update(f"{tgt!r}={c.numerator}/{c.denominator};".encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def ordered_digest(gmap):
    """Hash of a GradedMap's columns as stored: source labels and each
    column's keys in insertion order, coefficients by repr (so an int and
    an equal Fraction differ)."""
    entries = [(src, list(col.items())) for src, col in gmap.entries.items()]
    return hashlib.sha256(repr(entries).encode()).hexdigest()[:16]


def _trace_s2():
    alg = fixture_algebra("s2")
    coev = find_derived_coev(BaseCDGA.rationals(), alg.module, b_max=2)
    return GeneralizedTrace(coev, 2).map


def _trace_twisted_over_q():
    q = BaseCDGA.rationals()
    m = FreeKModule(q, GradedSpace([("u", 0), ("w", 1)]), {"u": {("1", "w"): ONE}})
    return GeneralizedTrace(find_derived_coev(q, m, b_max=3), 2).map


def _trace_mu3_transfer():
    alg = mu3_algebra()
    m = left_module_from_algebra(alg)
    coev = find_derived_coev(BaseCDGA.rationals(), alg.module, b_max=2)
    return transfer_explicit(alg, m, alg.module, coev, 2).trace.map


def _trace_dual_numbers():
    R, M = _twisted_dual_numbers_module()
    gt = GeneralizedTrace(find_derived_coev(R, M, b_max=2), 2, target_h=5)
    assert gt.chain_report().ok
    return gt.map


def _trace_over_odd_base(gens, d_gen, h):
    """Over Lambda(x), |x| = 1, the End letters carry the odd coefficient x:
    a fold sign that also counts the End letter's coefficient breaks the
    chain certificate.  With the module generator "1", a dual letter
    hom(u, "1") has the target label of a module generator but degree -|u|."""
    R = exterior_odd(1)
    M = FreeKModule(R, GradedSpace(gens), d_gen)
    gt = GeneralizedTrace(find_derived_coev(R, M, b_max=2), h)
    assert gt.chain_report().ok
    return gt.map


def _trace_odd_base_even_module(h):
    return lambda: _trace_over_odd_base([("u", 0), ("w", 0)], {"u": {("x", "w"): ONE}}, h)


def _trace_odd_base_one_module(h):
    return lambda: _trace_over_odd_base([("1", -1), ("u", -1)], {"u": {("x", "1"): ONE}}, h)


# (number of nonzero columns, entries_digest, ordered_digest) of
# GeneralizedTrace.map; the ordered digests, which also see each column's
# key order, were taken while the trace was evaluated label by label
@pytest.mark.parametrize("build, columns, pinned, ordered", [
    (_trace_s2, 14, "40e0cdd79bff142f", "a1f6a5c118004da9"),
    (_trace_twisted_over_q, 14, "1e81febaa861036c", "e3877dcd92572532"),
    (_trace_mu3_transfer, 39, "0aaca200a7d8662f", "e3f4c157544fb702"),
    (_trace_dual_numbers, 258, "4f15fec0b8eef014", "4b99af6581f27576"),
    (_trace_odd_base_even_module(1), 42, "5e3d092d751a578d", "cc6c003c9b6edc17"),
    (_trace_odd_base_even_module(2), 258, "f014db48f7e3858b", "0d490a56f20f5b29"),
    (_trace_odd_base_one_module(1), 42, "cb47a09795faa3c1", "a9357a65ef613e47"),
    (_trace_odd_base_one_module(2), 258, "7fb629daa6847216", "f3f716a619dc3a78"),
], ids=["s2", "twisted_over_q", "mu3_transfer", "dual_numbers", "odd_base_uw_h1",
        "odd_base_uw_h2", "odd_base_1u_h1", "odd_base_1u_h2"])
def test_generalized_trace_pinned(build, columns, pinned, ordered):
    gmap = build()
    assert (len(gmap.entries), entries_digest(gmap.entries)) == (columns, pinned)
    assert ordered_digest(gmap) == ordered


def test_generalized_trace_walks_only_the_composable_words(monkeypatch):
    # label by label, mu3 at h = 2 read the letters of all 819 HH(End)
    # labels for 39 nonzero columns, one closed walk of nonzero folds each
    calls = Counter()
    letters_and_degrees = transfer._letters_and_degrees
    assemble = GeneralizedTrace._assemble

    def counted_letters(*args):
        calls["letters"] += 1
        return letters_and_degrees(*args)

    def counted_assemble(self, *args):
        calls["assemble"] += 1
        return assemble(self, *args)

    monkeypatch.setattr(transfer, "_letters_and_degrees", counted_letters)
    monkeypatch.setattr(GeneralizedTrace, "_assemble", counted_assemble)
    alg = mu3_algebra()
    gt = GeneralizedTrace(find_derived_coev(BaseCDGA.rationals(), alg.module, b_max=2), 2)
    assert (gt.hh_end.space.dim, len(gt.map.entries)) == (819, 39)
    assert calls == {"assemble": 39}


def test_generalized_trace_window_holds_bar_letters():
    # tails reach h + (h + 1) * max|ys| = 3 letters at h = 1
    R, M = _twisted_dual_numbers_module()
    coev = find_derived_coev(R, M, b_max=2)
    assert GeneralizedTrace(coev, 1).chain_report().ok
    with pytest.raises(ValueError, match=r"\('1', '1', \('x', '1', 'x'\)\).*target_h >= 3"):
        GeneralizedTrace(coev, 1, target_h=2)


def test_explicit_transfer_consistency():
    for maker in (lambda: fixture_algebra("s2"), mu3_algebra):
        alg = maker()
        m = left_module_from_algebra(alg)
        coev = find_derived_coev(BaseCDGA.rationals(), alg.module, b_max=2)
        rep = transfer_explicit(alg, m, alg.module, coev, 2)
        assert rep.chain_report().ok
        assert rep.degree_zero_report(m).ok
        assert closed_form_transfer(rep, m) == rep.composite


def s4_bundle(e_squared, base=None):
    """S = R[e]/(e^2 - e_squared) with |e| = 2, free over R on 1 and e,
    fibre CP^1 with chi = 2; R = H*(S^4) unless ``base`` is given.  Over
    H*(S^4): the twistor bundle CP^3 -> S^4 for e^2 = z, the product bundle
    for e^2 = 0."""
    gens = GradedSpace([("1", 0), ("e", 2)])
    mult = {(a, b): {("1", b if a == "1" else a): ONE}
            for a in ("1", "e") for b in ("1", "e") if "1" in (a, b)}
    mult[("e", "e")] = e_squared
    return from_dga(KAlgebra(base or sphere_cohomology(4), gens, mult, "1"))


@pytest.mark.parametrize("e_squared", [{("x", "1"): ONE}, {}], ids=["twistor", "product"])
def test_explicit_transfer_over_s4_bundles(e_squared):
    # over a base R other than Q, the degree-0 output of the composite is
    # labelled by the pairs (1, r) over Q; each must collapse to r, not
    # stay (1, r): witness (('1', ('x','1'), ()), {('1','x'): -2, 'x': 2})
    alg = s4_bundle(e_squared)
    assert becker_gottlieb(alg).entries == {("1", "1"): {"1": 2}, ("x", "1"): {"x": 2}}
    m = left_module_from_algebra(alg)
    coev = find_derived_coev(alg.base, alg.module, b_max=2)
    for h in (1, 2):
        rep = transfer_explicit(alg, m, alg.module, coev, h)
        assert rep.chain_report().ok
        assert rep.degree_zero_report(m).ok
        assert closed_form_transfer(rep, m) == rep.composite


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="flat letters (b, sv) are read without the sign "
                   "(-1)^{|b|} that matches them with s(bv) in HH(R) (ROADMAP item 14)")
@pytest.mark.parametrize("base", [sphere3_with_differential, lambda: exterior_odd(1)],
                         ids=["d_nonzero", "exterior"])
def test_explicit_transfer_over_a_product_bundle_on_an_odd_base(base):
    # the product bundle S = R[e]/(e^2) at h = 1 over an odd base R.  Over
    # sphere3_with_differential() (odd y, dy = x) the chain certificate
    # fails with witness (('1', ('y', '1'), ()), {('1', 'x', ()): -4}).
    # Over Lambda(x), d = 0, it passes, but the degree-0 report fails with
    # witness (('1', ('x', '1'), ()), {'x': -4}) and the closed form sends
    # ('1', ('x', '1'), ()) to +2 ('1', 'x', ()), the composite to -2
    alg = s4_bundle({}, base())
    m = left_module_from_algebra(alg)
    coev = find_derived_coev(alg.base, alg.module, b_max=2)
    rep = transfer_explicit(alg, m, alg.module, coev, 1)
    assert rep.chain_report().ok
    assert rep.degree_zero_report(m).ok
    assert closed_form_transfer(rep, m) == rep.composite


def test_closed_form_acts_once_per_block(monkeypatch):
    # one action per distinct block in one call; recomputing every rotation
    # and composition's blocks made 288 calls on 39 words on mu3 at h = 2
    alg = mu3_algebra()
    m = left_module_from_algebra(alg)
    coev = find_derived_coev(BaseCDGA.rationals(), alg.module, b_max=2)
    rep = transfer_explicit(alg, m, alg.module, coev, 2)
    blocks = []
    real = transfer.action

    def counted(module, pairs):
        blocks.append(pairs)
        return real(module, pairs)

    monkeypatch.setattr(transfer, "action", counted)
    assert closed_form_transfer(rep, m) == rep.composite
    assert len(blocks) == len(set(blocks)) == 39


def test_tr_degree0_traces_each_rotated_word_once(monkeypatch):
    # one action per distinct rotated word; evaluating the rotation sum at
    # every label made 68 calls on 14 words on the twistor bundle at h = 2
    alg = s4_bundle({("x", "1"): ONE})
    hh = hh_of_algebra(alg, 2)
    m = left_module_from_algebra(alg)
    base = alg.module.base
    # the rotation sum of every label, evaluated label by label
    want = {}
    for b, vm, xs in hh.space.labels():
        letters, degs = transfer._letters_and_degrees(hh, (b, vm, xs))
        pairs = tuple(letter_to_pair(hh.algebra, m.base, x) for x in letters)
        value = {}
        for _l, rotated, parity in cyclic_rotations(pairs, degs):
            vec_add(value, module_trace(alg.module, transfer.action(m, rotated)),
                    -1 if parity else 1)
        if value := base.mul({b: 1}, value):
            want[(b, vm, xs)] = value
    words = []
    real = transfer.action

    def counted(module, pairs):
        words.append(pairs)
        return real(module, pairs)

    monkeypatch.setattr(transfer, "action", counted)
    assert tr_degree0(hh, m, alg.module).entries == want
    assert len(words) == len(set(words)) == 14


def test_simp_model_s3():
    alg = fixture_algebra("s3")
    model = SimpModel(alg, 3, word_cap=2)
    assert homology_window(model.complex, 0, 0) == {0: 1}
    assert all(model.gen_space.degree[g] >= 1 for g in model.gen_space.labels())


def test_simp_model_cp2_words_of_three():
    # three-letter words need more than one transposition to sort
    model = SimpModel(fixture_algebra("cp2"), 3, word_cap=3)
    assert model.space.dim == 13674
    assert entries_digest(model.d.entries) == "fb1c2a784f2e4690"
    assert homology_window(model.complex, 0, 3) == {0: 1, 1: 0, 2: 1, 3: 0}


def test_simp_model_zero_transfer_is_free():
    # for S^3 the transfer vanishes on reduced HH in the truncation, so the
    # model's d is purely d_1 wherever d_2 would act; d^2 = 0 asserted anyway
    alg = fixture_algebra("s3")
    model = SimpModel(alg, 2, word_cap=2)
    assert model.complex is not None


def test_simp_model_degree_guard():
    with pytest.raises(ValueError):
        SimpModel(fixture_algebra("dual"), 2)


def test_simp_model_rejects_a_low_model_generator():
    # R/1 passes its degree guard (a has shifted degree 2), but the base
    # coefficient x of degree -3 puts the model generator ("x", "1", ("a",))
    # in degree 0
    gens = GradedSpace([("1", 0), ("a", 3)])
    mult = {}
    for v in gens.labels():
        mult[("1", v)] = mult[(v, "1")] = {("1", v): ONE}
    alg = from_dga(KAlgebra(exterior_odd(-3), gens, mult, "1"), n_max=3)
    with pytest.raises(ValueError, match="model generators"):
        SimpModel(alg, 1, word_cap=1)


def test_vanishing_check_s2():
    report = vanishing_check(fixture_algebra("s2"), 6, -2, 4)
    assert report.ok, report.summary()
    # the window sees actual homology classes, not just empty groups
    assert any("1 classes" in name or "2 classes" in name
               for name, _ok, _w in report.checks)


def test_vanishing_check_names_a_class_with_a_nonzero_value(monkeypatch):
    # over Lambda(x), |x| = 1, the class of 1 (x) x lies in degree 0, where
    # the base Q lives; a transfer that is nonzero on it fails t = 0 with
    # the representative and its value as the witness
    alg = from_dga(cdga_as_kalgebra(exterior_odd(1)))
    assert vanishing_check(alg, 3, -1, 1).ok
    label = ("1", "1", ("x",))

    def nonzero_on_the_class(hh, s_alg):
        return GradedMap(hh.space, s_alg.base.space, 0, {label: {"1": 1}})

    monkeypatch.setattr(transfer, "corollary_tr", nonzero_on_the_class)
    report = vanishing_check(alg, 3, -1, 1)
    assert [ok for _name, ok, _w in report.checks] == [True, False, True]
    assert report.first_failure == ("t=0 (3 classes)", ({label: 1}, {"1": 1}))


def test_a_report_as_json():
    # Report.to_dict, the JSON route of a report: a witness only on a
    # failed check, written as its repr
    report = Report("checks")
    report.record("passes", True, "not shown")
    report.record_first_defect("fails", [1, 2], lambda x: {x: 1} if x == 2 else {})
    assert json.loads(json.dumps(report.to_dict())) == {
        "title": "checks", "ok": False,
        "checks": [{"name": "passes", "ok": True},
                   {"name": "fails", "ok": False, "witness": "(2, {2: 1})"}]}



@pytest.mark.parametrize("base", [dual_numbers, sphere3_with_differential],
                         ids=["dual_numbers", "sphere3_with_d"])
def test_corollary_tr_is_linear_over_the_base(base):
    # S = R[e]/(e^2): the value at (b, vm, xs) is b times the value at
    # (unit, vm, xs); reading the letters alone sent ('x', '1', ()) over the
    # dual numbers to {'1': 2}, and raised a degree error over H*(S^4)
    alg = s4_bundle({}, base())
    r = alg.base
    hh = hh_of_algebra(alg, 2)
    tr = corollary_tr(hh, alg)
    assert chain_report("tr chain certificate", tr, hh.d, r.d).ok
    for b, vm, xs in hh.space.labels():
        assert tr.column((b, vm, xs)) == r.mul({b: 1}, tr.column((r.unit, vm, xs)))
    if base is dual_numbers:
        assert tr.column(("1", "1", ())) == {"1": 2}
        assert tr.column(("x", "1", ())) == {"x": 2}


def test_vanishing_check_on_the_twistor_bundle():
    # CP^3 -> S^4 is a smooth bundle of closed manifolds, so the check
    # must pass; its window holds classes in degrees 1 and 8
    report = vanishing_check(s4_bundle({("x", "1"): ONE}), 2, -2, 8)
    assert report.ok, report.summary()
    assert [name for name, _ok, _w in report.checks if "0 classes" not in name] == [
        "t=1 (1 classes)", "t=8 (1 classes)"]
