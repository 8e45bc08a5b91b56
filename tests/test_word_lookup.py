"""Complex assembly reads structure tables by generator word.

Every word that assembly feeds to a structure map carries the unit
coefficient, so ``AInfAlgebra.mu_word`` and ``AInfBimodule.mu_word``
return the stored column instead of evaluating (unit, v) pairs.  These
tests check that each lookup equals the pair evaluator on every word up
to arity 4, that no construction mutates the tables the lookups hand
out, that assembly makes no pair-evaluator call at all, and that the
classical oracle reads each structure map once per generator pair.
"""
import copy
from collections import Counter
from itertools import product

import pytest

from hochtrace import ainf, bimod, cdga, grdlin, hoch
from hochtrace.ainf import AInfAlgebra, check_stasheff, from_dga, unit_algebra
from hochtrace.bimod import (
    AInfBimodule,
    bimodule_inputs,
    diagonal_bimodule,
    left_module_from_algebra,
    shapes,
    tensor_inf,
)
from hochtrace.cdga import cdga_as_kalgebra
from hochtrace.fixtures import (
    fixture_algebra,
    fixture_cdga,
    mu3_algebra,
    odd_coefficient_dga,
    sphere3_with_differential,
    twisted_odd_coefficient_dga,
)
from hochtrace.hoch import (
    BarConnesComplex,
    classical_hh,
    hh_complex,
    hh_of_algebra,
)

ARITY_CAP = 4

ALGEBRAS = {
    "cp2": lambda: fixture_algebra("cp2"),
    "mu3": mu3_algebra,
    "odd": lambda: from_dga(odd_coefficient_dga()),
    # over Q with mu_1 != 0, and over the base with d != 0
    "sphere3_dga": lambda: from_dga(cdga_as_kalgebra(sphere3_with_differential())),
    "over_sphere3": lambda: unit_algebra(sphere3_with_differential()),
}


def _unit_pairs(base, word):
    return tuple((base.unit, v) for v in word)


def _bimodules(alg):
    diag = diagonal_bimodule(alg)
    return [diag, left_module_from_algebra(alg), tensor_inf(diag, diag, 2)]


@pytest.mark.parametrize("name", ALGEBRAS)
def test_algebra_word_lookup_equals_eval_mu(name):
    alg = ALGEBRAS[name]()
    seen = 0
    for n in range(1, min(alg.n_max, ARITY_CAP) + 1):
        for word in alg.gen_tuples(n):
            value = alg.mu_word(word)
            assert value == alg.eval_mu(_unit_pairs(alg.base, word)), word
            seen += bool(value)
    assert seen


@pytest.mark.parametrize("name", ALGEBRAS)
def test_bimodule_word_lookup_equals_eval(name):
    for bim in _bimodules(ALGEBRAS[name]()):
        seen = 0
        for l, r in shapes(bim.left, bim.right, 0, min(bim.n_max, ARITY_CAP)):
            for word in bimodule_inputs(bim.left, bim.kmodule, bim.right, l, r):
                value = bim.mu_word(l, r, word)
                assert value == bim.eval(l, r, _unit_pairs(bim.base, word)), (l, r, word)
                seen += bool(value)
        assert seen, bim


def _tables(*objects):
    """A deep copy of every structure table and module differential of
    the algebras, bimodules and dgas given."""
    out = []
    for obj in objects:
        if isinstance(obj, AInfAlgebra):
            out.append((obj.mu, obj.module.d.entries))
        elif isinstance(obj, AInfBimodule):
            out.append((obj.tables, obj.kmodule.d.entries))
        else:
            out.append((obj.mult, obj.module.d_gen, obj.module.d.entries))
    return copy.deepcopy(out)


@pytest.mark.parametrize("name", ALGEBRAS)
def test_hh_and_tensor_leave_the_tables_unchanged(name):
    alg = ALGEBRAS[name]()
    diag = diagonal_bimodule(alg)
    before = _tables(alg, diag)
    hh_of_algebra(alg, 3)
    tensor_inf(diag, diag, 2)
    BarConnesComplex(alg, 3)
    assert _tables(alg, diag) == before


def test_classical_hochschild_leaves_the_tables_unchanged():
    dga = cdga_as_kalgebra(fixture_cdga("cp2"))
    alg = from_dga(dga)
    diag = diagonal_bimodule(alg)
    before = _tables(dga, alg, diag)
    classical_hh(dga, diag, 3)
    hh_complex(alg, diag, 3)
    assert _tables(dga, alg, diag) == before


@pytest.fixture
def pair_calls(monkeypatch):
    """Counts of the pair evaluators' calls, by name."""
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(AInfAlgebra, "eval_mu", counted("eval_mu", AInfAlgebra.eval_mu))
    monkeypatch.setattr(AInfBimodule, "eval", counted("eval", AInfBimodule.eval))
    evaluator = counted("eval_k_multilinear", cdga.eval_k_multilinear)
    for module in (cdga, ainf, bimod):
        monkeypatch.setattr(module, "eval_k_multilinear", evaluator)
    return calls


def _cp2_classical():
    dga = cdga_as_kalgebra(fixture_cdga("cp2"))
    alg = from_dga(dga)
    return dga, alg, diagonal_bimodule(alg)


def _classical_and_ainf(dga, alg, diag):
    classical_hh(dga, diag, 3)
    hh_complex(alg, diag, 3)


# (inputs, construction): the inputs are built before counting starts
ASSEMBLY = {
    "hh_cp2": (lambda: (fixture_algebra("cp2"),), lambda alg: hh_of_algebra(alg, 5)),
    "hh_mu3": (lambda: (mu3_algebra(),), lambda alg: hh_of_algebra(alg, 5)),
    "classical_cp2": (_cp2_classical, _classical_and_ainf),
    "tensor_inf": (lambda: (_cp2_classical()[2],), lambda diag: tensor_inf(diag, diag, 3)),
    "bar_connes": (lambda: (from_dga(twisted_odd_coefficient_dga()),),
                   lambda alg: BarConnesComplex(alg, 3)),
}


@pytest.mark.parametrize("name", ASSEMBLY)
def test_assembly_makes_no_pair_evaluator_call(name, pair_calls):
    make_inputs, build = ASSEMBLY[name]
    inputs = make_inputs()
    pair_calls.clear()
    build(*inputs)
    assert pair_calls == {}


def test_the_counters_see_pair_evaluator_calls(pair_calls):
    check_stasheff(fixture_algebra("cp2"), 3)
    bim = diagonal_bimodule(fixture_algebra("cp2"))
    bim.eval(1, 0, (("1", "x"), ("1", "x")))
    assert set(pair_calls) == {"eval_mu", "eval", "eval_k_multilinear"}


def test_classical_hochschild_reads_each_structure_map_once_per_pair(monkeypatch):
    # per (beta, vm, x) relation pass the oracle read mu^B and mu^M again
    # (11,742 mu_word calls, 2,862 in tensor_inf), and it keyed its 3,120
    # relation rows by the repr of each tagged label, looked up per entry
    calls = Counter()
    mu_word = AInfBimodule.mu_word

    def counted_mu_word(self, l, r, word):
        calls["mu_word"] += 1
        return mu_word(self, l, r, word)

    def counted_repr(obj):
        calls["repr"] += 1
        return repr(obj)

    dga, _alg, diag = _cp2_classical()
    monkeypatch.setattr(AInfBimodule, "mu_word", counted_mu_word)
    for module in (grdlin, hoch):
        monkeypatch.setattr(module, "repr", counted_repr, raising=False)
    cl = classical_hh(dga, diag, 3)
    assert cl._relation_count == 3120
    # 2,862 in tensor_inf, 1,440 + 12 relation reads, 240 quotient reads
    assert calls["mu_word"] <= 4554
    # one repr per bar generator and per module generator, composed into
    # the key of each tagged label (tag, (beta, vm)), none per relation
    # row; ranking the 360 * 3 tagged labels by their own reprs took 1,080
    assert calls["repr"] == 360 + 3 == 363


def test_the_composed_repr_keys_are_the_reprs_of_the_tagged_labels(monkeypatch):
    # the classical oracle composes f"({tag!r}, ({rb}, {rm}))" from the
    # reprs of its parts: each key must be repr(label) for the ranks to be
    # the least-repr order
    ranked = []
    real = hoch.repr_ranks

    def recorded(labels, keys):
        ranked.append((labels, keys))
        return real(labels, keys)

    dga, _alg, diag = _cp2_classical()
    monkeypatch.setattr(hoch, "repr_ranks", recorded)
    classical_hh(dga, diag, 3)
    [(labels, keys)] = ranked
    assert len(keys) == len(labels) == 1080
    assert keys == [repr(label) for label in labels]
