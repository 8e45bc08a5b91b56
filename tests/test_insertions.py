"""The insertion enumerator ``cdga.insertions``.

One enumerator serves a whole construction and builds each word's terms
from its suffix: the windows at r = 0 are one structure-map lookup per
arity, and the rest are the terms of word[1:] with word[0] prepended.
These tests compare it with a direct scan of every window, count the
lookups it makes while a Hochschild complex is built, check that it
refuses arities it would count twice, and that its memo goes with it.
"""
import gc
import inspect
import re
import weakref
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hochtrace.ainf import AInfAlgebra, from_dga, unit_algebra
from hochtrace.cdga import cdga_as_kalgebra, insertions
from hochtrace.fixtures import (
    cp2_cohomology,
    mu3_algebra,
    odd_coefficient_dga,
    sphere3_with_differential,
)
from hochtrace.hoch import hh_of_algebra


def direct_scan(base, f, arities, word, prefix_degree, degree):
    """Every window word[r:r+s], s in arities ascending, then r ascending,
    each looked up on its own; the parity is M (1 + |c|) with M the degree
    before the window, for a map f of degree 1."""
    for s in arities:
        for r in range(len(word) - s + 1):
            value = f(word[r:r + s])
            if not value:
                continue
            before = prefix_degree + sum(degree[x] for x in word[:r])
            for (c, y), coeff in value.items():
                parity = before * (1 + base.degree(c)) % 2
                yield r, word[:r] + (y,) + word[r + s:], c, coeff, parity


def _algebra_case(alg):
    return alg.base, alg.mu_word, alg.arities, alg.gens


CASES = {
    "cp2": lambda: _algebra_case(from_dga(cdga_as_kalgebra(cp2_cohomology()))),
    "mu3": lambda: _algebra_case(mu3_algebra()),
    "s3_with_d": lambda: _algebra_case(from_dga(cdga_as_kalgebra(sphere3_with_differential()))),
    "unit_over_s3_with_d": lambda: _algebra_case(unit_algebra(sphere3_with_differential())),
    "odd_coefficient": lambda: _algebra_case(from_dga(odd_coefficient_dga())),
}
BUILT = {name: make() for name, make in CASES.items()}


def test_the_cases_cover_mu1_mu3_and_other_bases():
    assert BUILT["mu3"][2] == (2, 3)
    assert BUILT["s3_with_d"][2] == (1, 2)
    assert not BUILT["unit_over_s3_with_d"][0].is_rational


@st.composite
def draws(draw):
    name = draw(st.sampled_from(sorted(BUILT)))
    labels = BUILT[name][3].labels()
    words = st.lists(st.sampled_from(labels), max_size=6).map(tuple)
    calls = draw(st.lists(st.tuples(words, st.integers(min_value=-3, max_value=3)),
                          min_size=1, max_size=6))
    return name, calls


@settings(max_examples=300, deadline=None)
@given(draws())
def test_enumerator_equals_the_direct_scan(drawn):
    # one enumerator over several words, so later words reuse the memo
    name, calls = drawn
    base, f, arities, gens = BUILT[name]
    terms = insertions(base, f, arities, gens.degree)
    for word, prefix_degree in calls:
        expect = list(direct_scan(base, f, arities, word, prefix_degree, gens.degree))
        assert list(terms(word, prefix_degree)) == expect


@pytest.mark.parametrize("name, prefix_degree", [("odd_coefficient", 1)])
def test_the_direct_scan_is_not_vacuous(name, prefix_degree):
    # odd letters and the odd coefficient x of e f = x g give terms at
    # r > 0 with both parities, so a dropped degree shift shows
    base, f, arities, gens = BUILT[name]
    found = list(direct_scan(base, f, arities, ("1", "g", "e", "f", "1"),
                             prefix_degree, gens.degree))
    assert {r for r, *_ in found} == {0, 2, 3}
    assert {parity for *_, parity in found} == {0, 1}
    assert "x" in {c for _r, _w, c, *_ in found}


def test_repeated_or_descending_arities_raise():
    base, f, _, gens = BUILT["mu3"]
    for arities in ((2, 2), (3, 2), (1, 2, 2)):
        with pytest.raises(ValueError, match=re.escape(repr(arities))):
            insertions(base, f, arities, gens.degree)


def test_the_memo_goes_with_the_enumerator():
    # with the cyclic collector off, dropping the enumerator frees the
    # function that holds the memo: no closure refers to itself
    base, f, arities, gens = BUILT["mu3"]
    terms = insertions(base, f, arities, gens.degree)
    assert list(terms(tuple(gens.labels()) * 2))
    held = [weakref.ref(cell.cell_contents) for cell in terms.__closure__
            if inspect.isfunction(cell.cell_contents)]
    gc.disable()
    try:
        del terms
        assert held and all(ref() is None for ref in held)
    finally:
        gc.enable()


@pytest.fixture
def mu_word_calls(monkeypatch):
    calls = Counter()
    lookup = AInfAlgebra.mu_word

    def counted(self, word):
        calls["mu_word"] += 1
        return lookup(self, word)

    monkeypatch.setattr(AInfAlgebra, "mu_word", counted)
    return calls


@pytest.mark.parametrize("make, h, normalized, lookups", [
    (lambda: from_dga(cdga_as_kalgebra(cp2_cohomology())), 9, True, 1020),
    (mu3_algebra, 5, False, 711),
], ids=["cp2_h9_normalized", "mu3_h5"])
def test_one_lookup_per_word_and_arity(make, h, normalized, lookups, mu_word_calls):
    # a direct scan of every window of every label looks up 21,516 and
    # 6,588 windows here
    alg = make()
    mu_word_calls.clear()
    hh_of_algebra(alg, h, normalized=normalized)
    assert mu_word_calls["mu_word"] == lookups
