"""The one-loop wheeled graph complex and the free multilinear algebra.
The n <= 3 values and the free algebra's table hash were measured before
the bases were generated by letter support; the n = 4 values are checked
against the character theory of Sigma_4.  The n = 5 table hash and
homology dimensions were measured with the recursive shuffle rewrite that
the closed-form normal form replaced."""
import hashlib
from collections import Counter
from fractions import Fraction
from itertools import permutations, product
from math import factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hochtrace import wheeled
from hochtrace.ainf import check_stasheff, compositions, unit_algebra
from hochtrace.fixtures import sphere3_with_differential
from hochtrace.grdlin import enumerate_shuffles, koszul_sign, permute, vec_add_term
from hochtrace.hoch import BarConnesComplex
from hochtrace.wheeled import (
    _normalize_children,
    free_multilinear_algebra,
    gc1_complex,
    gc1_homology,
    leaf,
    multilinear_word_tuples,
    trees_by_support,
)


@pytest.mark.parametrize("n, dims", [
    (1, {0: 1}),
    (2, {0: 1, 1: 1}),
    (3, {0: 1, 1: 2, 2: 1}),
    (4, {0: 1, 1: 3, 2: 3, 3: 1}),
    (5, {0: 1, 1: 4, 2: 6, 3: 4, 4: 1}),
])
def test_gc1_homology_dims(n, dims):
    assert gc1_homology(n) == dims


def _cycle_type(perm):
    seen, lengths = set(), []
    for start in range(1, len(perm) + 1):
        length, x = 0, start
        while x not in seen:
            seen.add(x)
            x = perm[x - 1]
            length += 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths))


def test_gc1_characters():
    # traces on the permutations in sorted one-line order: for Sigma_2
    # (1,2), (2,1); for Sigma_3 (1,2,3), (1,3,2), (2,3,1); for Sigma_4
    # (1,2,3,4), (1,2,4,3), (1,3,4,2), (2,1,4,3), (2,3,4,1)
    expected = {
        2: {0: (1, 1), 1: (1, -1)},
        3: {0: (1, 1, 1), 1: (2, 0, -1), 2: (1, -1, 1)},
        # trivial, standard, standard (x) sign, sign
        4: {0: (1, 1, 1, 1, 1), 1: (3, 1, 0, -1, -1), 2: (3, -1, 0, -1, 1),
            3: (1, -1, 1, 1, -1)},
    }
    for n, chars in expected.items():
        _dims, got = gc1_homology(n, characters=True)
        assert {k: tuple(v[p] for p in sorted(v)) for k, v in got.items()} == chars
        # every homology group is irreducible: <chi, chi> = 1 under the
        # class sizes counted here from all of Sigma_n
        sizes = Counter(_cycle_type(p) for p in permutations(range(1, n + 1)))
        for by_perm in got.values():
            norm = sum(sizes[_cycle_type(p)] * chi * chi for p, chi in by_perm.items())
            assert Fraction(norm, factorial(n)) == 1


def test_gc1_complex_sizes_and_euler_characteristic():
    for n, sizes in {3: (41, 28), 4: (469, 284)}.items():
        cx = gc1_complex(n)
        assert (cx.full_space.dim, cx.space.dim) == sizes
        chain_euler = sum((-1) ** t * cx.space.dim_in_degree(t) for t in cx.space.degrees())
        # H^k sits in total degree t = -k
        homology_euler = sum((-1) ** k * dim for k, dim in gc1_homology(n).items())
        assert chain_euler == homology_euler == 0


def test_word_tuple_count_from_tree_counts():
    trees = trees_by_support(5)
    # the tree count depends only on the support size
    counts = {}
    for s, group in trees.items():
        assert counts.setdefault(bin(s).count("1"), len(group)) == len(group)
    assert [counts[size] for size in range(1, 6)] == [1, 1, 5, 41, 469]
    # sum over ordered set partitions of prod t(|B|), times 2^(k-1) cuts
    expected = {}
    for n in range(1, 6):
        expected[n] = sum(
            factorial(n) // prod(factorial(b) for b in sizes)
            * prod(counts[b] for b in sizes) * 2 ** (len(sizes) - 1)
            for sizes in compositions(n))
    assert [expected[n] for n in (3, 4, 5)] == [41, 469, 6889]
    for n in range(1, 6):
        assert sum(1 for _ in multilinear_word_tuples(n)) == expected[n]


def _letters(tree):
    kind, payload = tree
    if kind == "leaf":
        return {payload}
    return set().union(*(_letters(child) for child in payload))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_word_tuples_are_the_multilinear_part_of_all_tuples(n):
    gens = free_multilinear_algebra(n).gens.labels()
    everything = set(range(1, n + 1))
    multilinear = set()
    for total in range(1, n + 1):
        for flat in product(gens, repeat=total):
            seen = [letter for t in flat for letter in _letters(t)]
            if sorted(seen) != sorted(everything):
                continue
            for lengths in compositions(total):
                words, start = [], 0
                for length in lengths:
                    words.append(flat[start:start + length])
                    start += length
                multilinear.add(tuple(words))
    generated = list(multilinear_word_tuples(n))
    assert len(generated) == len(set(generated))
    assert set(generated) == multilinear
    labels = set(gc1_complex(n).full_space.labels())
    assert labels == {("1", words) for words in multilinear}


def test_bar_connes_differential_runs_once_per_word_tuple(monkeypatch):
    # the quotient differential is projected from the full one, and the
    # full one extends each word tuple's unit column over b, so each word
    # tuple's differential is built once, representatives included
    tuples = []
    differential = BarConnesComplex._differential

    def counted(self, words):
        tuples.append(words)
        return differential(self, words)

    monkeypatch.setattr(BarConnesComplex, "_differential", counted)
    cx = gc1_complex(3)
    assert sorted(tuples, key=repr) == sorted((w for _b, w in cx.full_space.labels()), key=repr)
    assert len(tuples) == 41
    # over a four-dimensional base: once per word tuple, not per (b, words)
    tuples.clear()
    cx = BarConnesComplex(unit_algebra(sphere3_with_differential()), 3)
    assert (len(tuples), len(set(tuples)), cx.full_space.dim) == (7, 7, 28)


def test_word_tuples_must_be_closed_under_the_differential():
    # deconcatenation splits a one-word tuple into two words
    one_word = [words for words in multilinear_word_tuples(3) if len(words) == 1]
    with pytest.raises(ValueError, match="not closed under d"):
        BarConnesComplex(free_multilinear_algebra(3), 3, word_tuples=one_word)


def _table_hash(tables):
    h = hashlib.sha256()
    for arity in sorted(tables):
        table = tables[arity]
        for key in sorted(table, key=repr):
            terms = ";".join(f"{t!r}={c.numerator}/{c.denominator}"
                             for t, c in sorted(table[key].items(), key=lambda tc: repr(tc[0])))
            h.update(f"{arity}:{key!r}->{terms}\n".encode())
    return h.hexdigest()[:16]


def test_free_multilinear_algebra_tables_are_unchanged():
    assert _table_hash(free_multilinear_algebra(4).mu) == "5469b686558d5808"
    assert _table_hash(free_multilinear_algebra(5).mu) == "8bc4b5fdbb7d0f07"


def _recursive_normal_form(children, supports, degrees):
    """The shuffle-relation rewrite the closed form replaced: move the child
    holding the smallest letter right by every non-identity (j+1, k-j-1)
    shuffle, negated, and recurse until it is last."""
    k = len(children)
    j = min(range(k), key=lambda i: supports[i] & -supports[i])
    if j == k - 1:
        return {children: 1}
    out = {}
    for sigma in enumerate_shuffles(j + 1, k - j - 1):
        if sigma == tuple(range(k)):
            continue
        sign = koszul_sign(sigma, degrees)
        permuted = _recursive_normal_form(permute(sigma, children), permute(sigma, supports),
                                          permute(sigma, degrees))
        for child_tuple, c in permuted.items():
            vec_add_term(out, child_tuple, -sign * c)
    return out


@st.composite
def _leaf_children(draw):
    """Up to six leaf children with the smallest letter anywhere and
    degrees of either parity."""
    k = draw(st.integers(min_value=2, max_value=6))
    smallest = draw(st.integers(min_value=0, max_value=k - 1))
    others = draw(st.permutations(range(2, k + 1)))
    letters = others[:smallest] + [1] + others[smallest:]
    degrees = draw(st.lists(st.integers(min_value=-2, max_value=3), min_size=k, max_size=k))
    return tuple(leaf(x) for x in letters), tuple(1 << x for x in letters), tuple(degrees)


@settings(max_examples=300, deadline=None)
@given(_leaf_children())
def test_closed_form_normal_form_matches_the_shuffle_recursion(case):
    assert _normalize_children(*case) == _recursive_normal_form(*case)


def test_normalizing_runs_once_per_grafted_vertex(monkeypatch):
    # each graft (a mu_k table entry or an inner vertex of the differential)
    # normalizes one vertex once; re-normalizing every rebuilt tree by
    # recursion made 759 calls at n = 4
    grafts, normalized = [], []
    real_graft, real_normalize = wheeled.graft, wheeled._normalize_children

    def counted_graft(subtrees, supports, degrees):
        grafts.append(subtrees)
        return real_graft(subtrees, supports, degrees)

    def counted_normalize(children, supports, degrees):
        normalized.append(children)
        return real_normalize(children, supports, degrees)

    monkeypatch.setattr(wheeled, "graft", counted_graft)
    monkeypatch.setattr(wheeled, "_normalize_children", counted_normalize)
    free_multilinear_algebra(4)
    assert 0 < len(normalized) <= len(grafts)


@pytest.mark.parametrize("n, count", [(1, 1), (2, 3), (3, 11), (4, 71), (5, 739)])
def test_free_multilinear_algebra_generators(n, count):
    alg = free_multilinear_algebra(n)
    assert alg.gens.dim == count
    if n <= 3:
        assert check_stasheff(alg, n).ok
