import hashlib
import random
from itertools import product
from types import SimpleNamespace

import pytest

from hochtrace import bimod
from hochtrace.ainf import AInfMorphism, check_morphism, eta_morphism, from_dga, unit_algebra
from hochtrace.bimod import (
    AInfBimodule,
    BimoduleMap,
    algebra_map_bimodule_map,
    bimodule_inputs,
    bar_resolution_module,
    check_bimodule,
    check_bimodule_map,
    check_symmetric,
    check_symmetric_map,
    compose_bimodule_maps,
    cyclic_in_shuffle_span,
    diagonal_bimodule,
    dual_module,
    hom_k,
    homotopy_identity_report,
    iota_map,
    left_module_from_algebra,
    nu_map,
    obs_359_map,
    pi_map,
    restrict_scalars,
    tensor_inf,
    trivial_module,
    v_map,
)
from hochtrace.cdga import BaseCDGA, FreeKModule, base_as_algebra, cdga_as_kalgebra
from hochtrace.fixtures import (
    dual_numbers,
    fixture_algebra,
    mu3_algebra,
    odd_coefficient_dga,
    sphere3_with_differential,
    twisted_odd_coefficient_dga,
)
from hochtrace.grdlin import ONE, GradedSpace, is_quasi_iso_window


def test_diagonal_bimodule_validates():
    for name in ("s2", "s3", "cp2", "dual"):
        alg = fixture_algebra(name)
        diag = diagonal_bimodule(alg)
        assert check_bimodule(diag, 3).ok


def test_diagonal_bimodule_mu3_fixture():
    alg = mu3_algebra()
    diag = diagonal_bimodule(alg)
    assert check_bimodule(diag, 4).ok
    # mu_{1,0}^{sR} = mu_2
    got = diag.eval(1, 0, (("1", "a"), ("1", "a")))
    assert got == alg.eval_mu((("1", "a"), ("1", "a")))


def test_sign_flipped_action_fails():
    alg = fixture_algebra("s2")
    diag = diagonal_bimodule(alg)
    bad_tables = {k: dict(t) for k, t in diag.tables.items()}
    bad_tables[(0, 1)] = {
        k: {p: -c for p, c in col.items()}
        for k, col in bad_tables[(0, 1)].items()
    }
    bad = AInfBimodule(alg, alg, diag.kmodule, bad_tables, diag.n_max)
    report = check_bimodule(bad, 2)
    assert not report.ok
    failing = report.first_failure[0]
    assert failing in ("(l,r)=(0,1)", "(l,r)=(1,1)", "(l,r)=(0,2)")


def test_identity_bimodule_map():
    alg = fixture_algebra("s2")
    diag = diagonal_bimodule(alg)
    ident = BimoduleMap.identity(diag)
    assert check_bimodule_map(ident, 3).ok


def test_algebra_map_induces_bimodule_map():
    # f': sR -> (f,f)^* sS for the identity morphism (Lemma 3.3.10 shape)
    alg = fixture_algebra("cp2")
    f = AInfMorphism.identity(alg)
    fprime = algebra_map_bimodule_map(f)
    assert check_bimodule_map(fprime, 3).ok


def test_restriction_along_identity_is_same():
    alg = fixture_algebra("s2")
    diag = diagonal_bimodule(alg)
    ident = AInfMorphism.identity(alg)
    res = restrict_scalars(ident, ident, diag)
    assert check_bimodule(res, 3).ok
    for (l, r), table in diag.tables.items():
        if l + r <= res.n_max:
            assert res.tables.get((l, r)) == table


def test_restriction_along_eta_and_symmetry():
    # restrict the diagonal S^2 bimodule along eta: Q -> H*(S^2)
    alg = fixture_algebra("s2")
    eta = eta_morphism(alg)
    diag = diagonal_bimodule(alg)
    res = restrict_scalars(eta, eta, diag)
    assert check_bimodule(res, 3).ok
    # symmetric bimodule restricted along (f, f) stays symmetric
    assert check_symmetric(res, 3).ok


def test_tensor_inf_trivial_middle():
    # S = 0: underlying module is M (x)_k N with the product differential
    alg = fixture_algebra("s2")
    m = left_module_from_algebra(alg)
    k = trivial_module(alg.base)
    # view m as a 0-0 module for the k-tensor: take M (x)_k k
    prod = tensor_inf(m, k, 0)
    assert prod.kmodule.rank == m.kmodule.rank
    assert check_bimodule(prod, 2).ok


def test_tensor_inf_bar_shape_d_squared():
    # sR (x)~_R sR: d^2 = 0 is asserted inside the construction
    for name in ("s2", "dual", "cp2"):
        alg = fixture_algebra(name)
        diag = diagonal_bimodule(alg)
        bar = tensor_inf(diag, diag, 3)
        assert check_bimodule(bar, 2).ok


def test_tensor_inf_mu3():
    alg = mu3_algebra()
    diag = diagonal_bimodule(alg)
    bar = tensor_inf(diag, left_module_from_algebra(alg), 3)
    assert check_bimodule(bar, 3).ok


def _tables_digest(value):
    """Hash of nested dicts of rationals, keys sorted by repr, coefficients
    written as numerator/denominator."""
    h = hashlib.sha256()

    def walk(v):
        if isinstance(v, dict):
            h.update(b"{")
            for k in sorted(v, key=repr):
                h.update(repr(k).encode() + b":")
                walk(v[k])
            h.update(b"}")
        else:
            h.update(f"{v.numerator}/{v.denominator};".encode())

    walk(value)
    return h.hexdigest()[:16]


# (algebra, right factor, table arities, digest of the tables and d_gen of
# tensor_inf(diagonal, factor, 2)), hashed before tables that cannot be
# nonzero were skipped
PINNED_TENSORS = [
    ("cp2", "diagonal", [(0, 1), (1, 0)], "ab86f9ceb9c4ca7c"),
    ("cp2", "left", [(1, 0)], "9914c3830679bd97"),
    ("mu3", "diagonal", [(0, 1), (0, 2), (1, 0), (2, 0)], "fd62c981566adf99"),
    ("mu3", "left", [(1, 0), (2, 0)], "9c794f19c04a34cc"),
    ("odd", "diagonal", [(0, 1), (1, 0)], "bbbe6a5c6867c882"),
    ("odd", "left", [(1, 0)], "b5a2c5b0d49bc4ae"),
]
TENSOR_ALGEBRAS = {"cp2": lambda: fixture_algebra("cp2"), "mu3": mu3_algebra,
                   "odd": lambda: from_dga(odd_coefficient_dga())}
TENSOR_FACTORS = {"diagonal": diagonal_bimodule, "left": left_module_from_algebra}


@pytest.mark.parametrize("alg_name, factor, arities, pinned", PINNED_TENSORS)
def test_tensor_inf_tables_pinned(alg_name, factor, arities, pinned):
    alg = TENSOR_ALGEBRAS[alg_name]()
    t = tensor_inf(diagonal_bimodule(alg), TENSOR_FACTORS[factor](alg), 2)
    assert sorted(t.tables) == arities
    assert _tables_digest({"tables": t.tables, "d_gen": t.kmodule.d_gen}) == pinned


def _bimodule_tables(bim):
    return {"tables": bim.tables, "d_gen": bim.kmodule.d_gen}


def _mu3_inputs():
    alg = mu3_algebra()
    return alg, left_module_from_algebra(alg)


def _twisted_inputs():
    alg = from_dga(twisted_odd_coefficient_dga())
    return alg, left_module_from_algebra(alg)


# (inputs, construction, digest of its tables), hashed before the
# constructions read AInfBimodule.arities; on the twisted dga the module
# differential is nonzero, so (0, 0) is a live arity there
PINNED_CONSTRUCTIONS = {
    "mu3_v_map": (_mu3_inputs, lambda alg, m: v_map(alg, m).components,
                  "ed0fc9a2db6678c0"),
    "mu3_hom_k": (_mu3_inputs, lambda alg, m: _bimodule_tables(hom_k(m, m)),
                  "2f125a1700e20f10"),
    "mu3_pi_map": (_mu3_inputs, lambda alg, m: pi_map(alg, m, 2).components,
                   "3e9e06a80e566fc0"),
    "mu3_nu_map": (_mu3_inputs, lambda alg, m: nu_map(alg, m).components,
                   "283516e71cfde30d"),
    "mu3_restrict_scalars": (
        _mu3_inputs,
        lambda alg, m: _bimodule_tables(restrict_scalars(
            eta_morphism(alg), eta_morphism(alg), diagonal_bimodule(alg))),
        "5c21c227450ce552"),
    "twisted_tensor_inf": (
        _twisted_inputs,
        lambda alg, m: _bimodule_tables(tensor_inf(diagonal_bimodule(alg),
                                                   diagonal_bimodule(alg), 2)),
        "d8c108e0f0bdc799"),
    "twisted_pi_map": (_twisted_inputs, lambda alg, m: pi_map(alg, m, 2).components,
                       "3851b87afd86d10c"),
}


@pytest.mark.parametrize("name", PINNED_CONSTRUCTIONS)
def test_constructions_pinned(name):
    inputs, build, pinned = PINNED_CONSTRUCTIONS[name]
    assert _tables_digest(build(*inputs())) == pinned


def test_bimodule_arities():
    mu3, twisted = mu3_algebra(), from_dga(twisted_odd_coefficient_dga())
    diag = diagonal_bimodule(mu3)
    assert diag.arities == ((0, 1), (0, 2), (1, 0), (1, 1), (2, 0))
    assert left_module_from_algebra(mu3).arities == ((1, 0), (2, 0))
    assert tensor_inf(diag, diag, 2).arities == ((0, 0), (0, 1), (0, 2), (1, 0), (2, 0))
    # the module differential of sR is nonzero here: (0, 0) is live
    assert diagonal_bimodule(twisted).arities == ((0, 0), (0, 1), (1, 0))
    assert left_module_from_algebra(twisted).arities == ((0, 0), (1, 0))
    assert trivial_module(twisted.base).arities == ()


def test_structure_maps_are_evaluated_only_where_they_exist(monkeypatch):
    missing = []
    real = AInfBimodule.eval

    def counted(self, l, r, pairs):
        if (l, r) not in self.arities:
            missing.append((l, r))
        return real(self, l, r, pairs)

    monkeypatch.setattr(AInfBimodule, "eval", counted)
    alg, m = _mu3_inputs()
    diag = diagonal_bimodule(alg)
    tensor_inf(diag, diag, 2)
    v_map(alg, m)
    assert missing == []


@pytest.mark.parametrize("make, most", [(mu3_algebra, 72), (lambda: fixture_algebra("cp2"), 18)],
                         ids=["mu3", "cp2"])
def test_hom_k_evaluates_one_action_per_word(monkeypatch, make, most):
    # one eval per (word, module generator) for each of the two table
    # families; evaluating once per hom generator made 432 (mu3) and 108 (cp2)
    calls = []
    real = AInfBimodule.eval

    def counted(self, l, r, pairs):
        calls.append((l, r))
        return real(self, l, r, pairs)

    m = left_module_from_algebra(make())
    monkeypatch.setattr(AInfBimodule, "eval", counted)
    hom_k(m, m)
    assert 0 < len(calls) <= most


def test_bimodule_inputs_in_product_order():
    alg = mu3_algebra()
    diag = diagonal_bimodule(alg)
    letters = alg.gens.labels()
    for l, r in [(0, 0), (0, 1), (1, 0), (1, 1), (0, 2)]:
        want = [xs + (v,) + ys for xs in product(letters, repeat=l) for v in letters
                for ys in product(letters, repeat=r)]
        assert list(bimodule_inputs(alg, diag.kmodule, alg, l, r)) == want
    # a zero algebra has only the empty word
    assert list(bimodule_inputs(None, diag.kmodule, None, 0, 0)) == [(v,) for v in letters]


def test_hom_bimodule_validates():
    alg = fixture_algebra("s2")
    m = left_module_from_algebra(alg)
    hom = hom_k(m, m)
    assert check_bimodule(hom, 3).ok
    # mu_{0,0} is the usual hom-complex differential: zero here (d = 0)
    assert all(not hom.kmodule.d_gen.get(g) for g in hom.kmodule.gens.labels())


def test_hom_bimodule_with_differential():
    # a module with a nonzero differential: sR for the mu3 fixture has mu_1 = 0,
    # so build a two-generator module with d(u) = w over Q instead.
    alg = unit_algebra(fixture_algebra("s2").base)
    gens = GradedSpace([("u", 0), ("w", 1)])
    kmod = FreeKModule(alg.base, gens, {"u": {("1", "w"): ONE}})
    m = AInfBimodule(alg, None, kmod,
                     {(1, 0): {("1", "u"): {("1", "u"): ONE},
                               ("1", "w"): {("1", "w"): ONE}}},
                     2)
    assert check_bimodule(m, 2).ok
    hom = hom_k(m, m)
    assert check_bimodule(hom, 2).ok


def test_dual_and_obs_359():
    alg = fixture_algebra("s2")
    m = left_module_from_algebra(alg)
    dual = dual_module(m)
    assert check_bimodule(dual, 3).ok
    theta = obs_359_map(m, m)
    assert check_bimodule_map(theta, 2).ok
    # quasi-isomorphism in a window: both sides have zero differential here;
    # the map is a bijection on generators, hence iso of complexes
    src = theta.source.kmodule.complex
    tgt = theta.target.kmodule.complex
    f = {}
    for gen in theta.source.kmodule.gens.labels():
        col = theta.eval(0, 0, ((theta.source.base.unit, gen),))
        f[(theta.source.base.unit, gen)] = col
    from hochtrace.grdlin import GradedMap
    fmap = GradedMap(src.space, tgt.space, 0, f)
    assert is_quasi_iso_window(fmap, src, tgt, -2, 2)


def test_obs_359_map_rejects_a_bar_tail(monkeypatch):
    m = left_module_from_algebra(fixture_algebra("s2"))

    def with_tail(n, mdual, h_max):
        # the generators of a bar length-1 tensor, which obs_359_map must refuse
        vn, ys, phi = tensor_inf(n, mdual, h_max).kmodule.gens.labels()[0]
        gens = GradedSpace([((vn, ys + ("y",), phi), 0)])
        return SimpleNamespace(kmodule=SimpleNamespace(gens=gens))

    monkeypatch.setattr("hochtrace.bimod.tensor_inf", with_tail)
    with pytest.raises(ValueError, match="'y'"):
        obs_359_map(m, m)


def test_end_algebra_and_v_map():
    # dga acting on itself: v_1 is left multiplication
    alg = fixture_algebra("s2")
    m = left_module_from_algebra(alg)
    v = v_map(alg, m)
    assert check_morphism(v, 3).ok
    # v_1(s1) should be the identity-ish operator: mu_2(s1 (x) -) = id
    val = v.eval_f(((alg.base.unit, "1"),))
    labels = dict(val)
    assert labels == {("1", ("hom", "1", "1")): ONE, ("1", ("hom", "x", "x")): ONE}


def test_v_map_mu3():
    alg = mu3_algebra()
    m = left_module_from_algebra(alg)
    v = v_map(alg, m)
    assert check_morphism(v, 4).ok
    # mu_3 of the algebra appears as the arity-2 component v_2 = mu_{2,0} = mu_3
    assert v.components.get(2)


def test_pi_iota_and_contraction():
    alg = fixture_algebra("s2")
    m = left_module_from_algebra(alg)
    h_max = 3
    tensor = bar_resolution_module(alg, m, h_max)
    pi = pi_map(alg, m, h_max, source=tensor)
    iota = iota_map(alg, m, h_max, target=tensor)
    assert check_bimodule_map(pi, 2).ok
    assert check_bimodule_map(iota, 2).ok
    composite = compose_bimodule_maps(pi, iota)
    ident = BimoduleMap.identity(m)
    assert composite.degree == 0
    assert composite.components == ident.components
    report = homotopy_identity_report(alg, m, h_max)
    assert report.ok, report.summary()


# the bar resolution sR (x)~_R R over Q, the dual numbers, an odd
# coefficient (plain and twisted), Q with mu_1 != 0, and a base with d != 0
RESOLVED = {
    "rationals": lambda: from_dga(base_as_algebra(BaseCDGA.rationals())),
    "dual_numbers": lambda: from_dga(cdga_as_kalgebra(dual_numbers())),
    "odd_coefficient": lambda: from_dga(odd_coefficient_dga()),
    "twisted_odd_coefficient": lambda: from_dga(twisted_odd_coefficient_dga()),
    "sphere3_dga": lambda: from_dga(cdga_as_kalgebra(sphere3_with_differential())),
    "over_sphere3": lambda: unit_algebra(sphere3_with_differential()),
}


@pytest.mark.parametrize("name", RESOLVED)
def test_the_bar_resolution_contracts(name):
    # iota_0 pi_0 moves the output coefficient c of pi past s1: without
    # (-1)^{|c|} the odd coefficients fail at ('1', ('e', (), 'f')), and the
    # base with d != 0 at ('y', ('1', (), '1'))
    alg = RESOLVED[name]()
    report = homotopy_identity_report(alg, left_module_from_algebra(alg), 3)
    assert report.ok, report.summary()


def test_homotopy_identity_report_names_a_witness(monkeypatch):
    # with 2h in place of h, d h + h d - (id - iota_0 pi_0) is id - iota_0 pi_0,
    # which keeps each label outside s1 (x) M with coefficient 1
    real = bimod.contraction_h
    monkeypatch.setattr(bimod, "contraction_h", lambda alg, tm: real(alg, tm) + real(alg, tm))
    alg = fixture_algebra("s2")
    report = homotopy_identity_report(alg, left_module_from_algebra(alg), 3)
    assert not report.ok
    _name, (label, defect) = report.first_failure
    _b, (vr, ys, _vm) = label
    assert len(ys) <= 2 and vr != alg.unit
    assert defect[label] == 1


def test_pi_iota_mu3():
    alg = mu3_algebra()
    m = left_module_from_algebra(alg)
    tensor = bar_resolution_module(alg, m, 3)
    pi = pi_map(alg, m, 3, source=tensor)
    assert check_bimodule_map(pi, 2).ok
    composite = compose_bimodule_maps(pi, iota_map(alg, m, 3, target=tensor))
    assert composite.components == BimoduleMap.identity(m).components
    assert homotopy_identity_report(alg, m, 3).ok


def test_composing_with_identity_keeps_an_odd_map():
    # pi has degree 1 and a nonzero pi_{1,0} on the odd letter a; moving the
    # inner identity (degree 0) past a carries no sign
    alg = mu3_algebra()
    m = left_module_from_algebra(alg)
    tensor = bar_resolution_module(alg, m, 3)
    pi = pi_map(alg, m, 3, source=tensor)
    assert pi.components[(1, 0)]
    for composite in (compose_bimodule_maps(pi, BimoduleMap.identity(tensor)),
                      compose_bimodule_maps(BimoduleMap.identity(m), pi)):
        assert composite.degree == 1
        assert composite.components == pi.components
        assert check_bimodule_map(composite, 2).ok


def test_nu_map():
    alg = fixture_algebra("s2")
    m = left_module_from_algebra(alg)
    nu = nu_map(alg, m)
    assert check_bimodule_map(nu, 3).ok
    # nu_{0,0} for a dga module is (up to the shift) the action operator
    val = nu.eval(0, 0, ((alg.base.unit, "1"),))
    assert val == {("1", ("hom", "1", "1")): ONE, ("1", ("hom", "x", "x")): ONE}


def test_symmetric_diagonal_costs():
    for name in ("s2", "s3", "cp2"):
        alg = fixture_algebra(name)
        diag = diagonal_bimodule(alg)
        assert check_symmetric(diag, 3).ok


def test_one_sided_module_fails_symmetry():
    # make the right action trivial but keep the left: breaks n = 1
    alg = fixture_algebra("s2")
    diag = diagonal_bimodule(alg)
    tables = {k: t for k, t in diag.tables.items() if k[1] == 0}
    lopsided = AInfBimodule(alg, alg, diag.kmodule, tables, diag.n_max)
    report = check_symmetric(lopsided, 2)
    assert not report.ok
    assert report.first_failure[0] == "n=1"


def test_symmetric_map_for_identity():
    alg = fixture_algebra("s2")
    diag = diagonal_bimodule(alg)
    ident = BimoduleMap.identity(diag)
    assert check_symmetric_map(ident, 3).ok


def test_cyclic_in_shuffle_span_small():
    cert2 = cyclic_in_shuffle_span(2)
    assert cert2 is not None
    for n in (3, 4, 5):
        assert cyclic_in_shuffle_span(n) is not None


def test_restriction_functoriality():
    # restricting along composites equals composing restrictions
    rng = random.Random(5)
    alg = fixture_algebra("s2")
    ident = AInfMorphism.identity(alg)
    diag = diagonal_bimodule(alg)
    once = restrict_scalars(ident, ident, diag)
    twice = restrict_scalars(ident, ident, once)
    for key in set(once.tables) | set(twice.tables):
        assert once.tables.get(key) == twice.tables.get(key)
