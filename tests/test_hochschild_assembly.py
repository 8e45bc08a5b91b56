"""Per-word assembly of the Hochschild differential, and the one Leibniz
rule over the base.

``HochschildComplex`` builds the unit-coefficient columns of a word's
labels (unit, vm, xs) together: the algebra insertions and the rotated
bimodule folds, read from one ``hoch.fold_table`` per construction; and
``cdga.leibniz_column`` extends each over b, adding (d_R b, vm, xs).
These tests pin d bit for bit (entries, coefficient types and each
column's key order) on fixtures that cover every fold shape and over a
base with d != 0, count the structure-map and fold-table lookups, check
that the Hochschild and bar Connes complexes of R over a base R with
d != 0 read H(R), and check the normalized complex of Q[C2], whose
product outputs the unit from reduced letters.
"""
from collections import Counter

import pytest
from test_transfer import ordered_digest, s4_bundle

from hochtrace import hoch
from hochtrace.ainf import from_dga, unit_algebra
from hochtrace.bimod import AInfBimodule, diagonal_bimodule, left_module_from_algebra, tensor_inf
from hochtrace.fixtures import (
    _kalg,
    exterior_odd,
    fixture_algebra,
    mu3_algebra,
    sphere3_with_differential,
    twisted_odd_coefficient_dga,
)
from hochtrace.grdlin import ONE, homology_window
from hochtrace.hoch import BarConnesComplex, hh_complex, hh_of_algebra, normalized_hh
from hochtrace.transfer import assembly_projection_report


def group_algebra_c2():
    # Q[C2]: g g = 1, so mu_2 outputs the unit from two reduced letters
    return from_dga(_kalg([("1", 0), ("g", 0)], {("g", "g"): {"1": 1}}))


def _tensor_complex():
    alg = mu3_algebra()
    diag = diagonal_bimodule(alg)
    return hh_complex(alg, tensor_inf(diag, diag, 2), 2)


# (construction, its bimodule's fold shapes, dim, nnz, ordered digest of d),
# taken from the per-label assembly before per-word assembly replaced it;
# all over bases with d = 0, where the base-differential term adds nothing
PINNED = {
    "cp2_h6_normalized": (lambda: hh_of_algebra(fixture_algebra("cp2"), 6, normalized=True),
                          [(0, 1), (1, 0)], 381, 738, "99ee7cd71b5c2832"),
    "mu3_h4": (lambda: hh_of_algebra(mu3_algebra(), 4),
               [(0, 1), (0, 2), (1, 0), (1, 1), (2, 0)], 363, 266, "1db19eebf430f0ee"),
    "twisted_odd_h3": (lambda: hh_of_algebra(from_dga(twisted_odd_coefficient_dga()), 3),
                       [(0, 0), (0, 1), (1, 0)], 680, 574, "acc7bba57b758f01"),
    "tensor_inf_mu3_h2": (_tensor_complex,
                          [(0, 0), (0, 1), (0, 2), (1, 0), (2, 0)], 1521, 1734,
                          "0653b6b93eb34968"),
    "left_module_mu3_h3": (lambda: hh_complex(mu3_algebra(),
                                              left_module_from_algebra(mu3_algebra()), 3),
                           [(1, 0), (2, 0)], 120, 69, "15b46c0c915d4a83"),
    "s4_twistor_h3": (lambda: hh_of_algebra(s4_bundle({("x", "1"): ONE}), 3),
                      [(0, 1), (1, 0)], 60, 49, "6c9c61edab383a81"),
    "q_c2_h4_normalized": (lambda: hh_of_algebra(group_algebra_c2(), 4, normalized=True),
                           [(0, 1), (1, 0)], 10, 4, "858412cfe48a42fc"),
}


@pytest.mark.parametrize("name", PINNED)
def test_differential_is_bit_identical(name):
    build, shapes, dim, nnz, digest = PINNED[name]
    hh = build()
    assert list(hh.bimodule.arities) == shapes
    assert not hh.base.d.entries
    assert hh.space.dim == dim
    assert sum(len(col) for col in hh.d.entries.values()) == nnz
    assert ordered_digest(hh.d) == digest


# ordered digests of d over sphere3_with_differential(), taken while each
# label's (d_R b, vm, xs) term was written apart from cdga's Leibniz rule
OVER_S3_WITH_D = {1: "f2668e95cabad949", 2: "4c8f4dfa7448c4a8", 3: "6b2464d393b472b0"}


@pytest.mark.parametrize("h", sorted(OVER_S3_WITH_D))
def test_differential_over_a_base_with_d_is_bit_identical(h):
    hh = hh_of_algebra(unit_algebra(sphere3_with_differential()), h)
    assert hh.base.d.entries
    assert ordered_digest(hh.d) == OVER_S3_WITH_D[h]


def test_bar_connes_differential_is_bit_identical():
    # over Lambda(x), d = 0: taken before the bar Connes complex went
    # through cdga's Leibniz rule
    cx = BarConnesComplex(from_dga(twisted_odd_coefficient_dga()), 3)
    assert not cx.base.d.entries
    assert ordered_digest(cx.d) == "6046d6a6ac2fc347"


# ordered digests of (d, projection) over sphere3_with_differential(), taken
# while d(unit, words) was built once per label (b, words)
BAR_CONNES_OVER_S3_WITH_D = {2: ("b7fe563f1ef869e3", "fc7785fbce90b2c4"),
                             3: ("ad8edd8e6763085d", "d0a148f54dd3f1c4")}


@pytest.mark.parametrize("letters", sorted(BAR_CONNES_OVER_S3_WITH_D))
def test_bar_connes_differential_over_a_base_with_d_is_bit_identical(letters):
    cx = BarConnesComplex(unit_algebra(sphere3_with_differential()), letters)
    assert (ordered_digest(cx.d), ordered_digest(cx.projection)) == \
        BAR_CONNES_OVER_S3_WITH_D[letters]


def test_bar_connes_over_a_base_with_d_is_its_cohomology():
    # H(R) for sphere3_with_differential(): 1 and xy.  Without the term
    # (d_R b, words) degrees 0 to 3 read 1 each
    cx = BarConnesComplex(unit_algebra(sphere3_with_differential()), 2)
    assert homology_window(cx.complex, -1, 3) == {-1: 0, 0: 1, 1: 0, 2: 0, 3: 1}


def test_the_pins_cover_every_fold_shape():
    shapes = {shape for _build, pinned, *_ in PINNED.values() for shape in pinned}
    assert shapes == {(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)}


@pytest.fixture
def lookups(monkeypatch):
    """Counts of AInfBimodule.mu_word calls and of fold-table lookups."""
    calls = Counter()
    mu_word = AInfBimodule.mu_word

    def counted(self, l, r, word):
        calls["mu_word"] += 1
        return mu_word(self, l, r, word)

    class CountedWindows(dict):
        def get(self, key, default=None):
            calls["fold"] += 1
            return super().get(key, default)

    table = hoch.fold_table
    monkeypatch.setattr(AInfBimodule, "mu_word", counted)
    monkeypatch.setattr(hoch, "fold_table", lambda bim: {
        shape: CountedWindows(windows) for shape, windows in table(bim).items()})
    return calls


@pytest.mark.parametrize("make, h, normalized, words, shapes, rank", [
    (lambda: fixture_algebra("cp2"), 9, True, 1023, 2, 3),
    (lambda: from_dga(twisted_odd_coefficient_dga()), 3, False, 85, 3, 4),
], ids=["cp2_h9_normalized", "twisted_odd_h3"])
def test_one_fold_lookup_per_word_and_shape(make, h, normalized, words, shapes, rank, lookups):
    # per label and rotation, the cp2 build made 6,132 mu_word calls
    alg = make()
    bim = diagonal_bimodule(alg)
    assert (len(bim.arities), bim.kmodule.gens.dim) == (shapes, rank)
    lookups.clear()
    hh = hoch.HochschildComplex(alg, bim, h, normalized=normalized)
    assert len({label[2] for label in hh.space.labels()}) == words
    assert lookups["mu_word"] == (rank if (0, 0) in bim.arities else 0)
    assert 0 < lookups["fold"] <= words * shapes


@pytest.mark.parametrize("h", [1, 2, 3])
def test_hh_over_a_base_with_d_is_its_cohomology(h):
    # HH over R of R is H(R); for sphere3_with_differential() that is 1 and
    # xy, in degrees 0 and 3.  Without the term (d_R b, vm, xs) the
    # differential is zero and degrees 1 and 2 read 1 as well
    hh = hh_of_algebra(unit_algebra(sphere3_with_differential()), h, normalized=True)
    assert homology_window(hh.complex, -1, 5) == {-1: 0, 0: 1, 1: 0, 2: 0, 3: 1, 4: 0, 5: 0}
    hh = hh_of_algebra(unit_algebra(exterior_odd()), h, normalized=True)
    assert homology_window(hh.complex, -1, 3) == {-1: 0, 0: 1, 1: 1, 2: 0, 3: 0}


def test_assembly_projection_over_a_base_with_d():
    # failed with witness (('y', '1', ()), {('x', '1'): -1}) while the
    # base differential was dropped
    report = assembly_projection_report(hh_of_algebra(unit_algebra(sphere3_with_differential()), 1))
    assert report.ok, report.summary()


def test_normalized_q_c2_skips_the_unit_outputs():
    alg = group_algebra_c2()
    full, reduced, _quotient = normalized_hh(alg, diagonal_bimodule(alg), 4)
    # the full d sends 12 entries of unit-free labels to labels holding the
    # unit; the normalized complex must skip exactly those
    to_unit = [(src, tgt) for src, col in full.d.entries.items() if "1" not in src[2]
               for tgt in col if "1" in tgt[2]]
    assert len(to_unit) == 12
    window = {-4: 0, -3: 0, -2: 0, -1: 2}
    assert homology_window(reduced.complex, -4, -1) == homology_window(full.complex, -4, -1) == window
