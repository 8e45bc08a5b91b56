"""Structure maps are evaluated only at the arities where they exist.

``AInfAlgebra.arities`` lists the mu_n that can be nonzero on words of
unit-coefficient generators, and the ``cdga.insertions`` enumerator looks
a word up at those widths only, once per word and width.  The
differentials below have mu_1 != 0 and were hashed before any width was
skipped, so skipping a live arity, or counting mu_1 twice, changes them.
(The odd-coefficient algebra itself, with mu_1 = 0, is pinned in
test_coefficient_migration.py.)
"""
import hashlib
import random

import pytest

from hochtrace.ainf import from_dga
from hochtrace.bimod import bar_resolution_module, left_module_from_algebra
from hochtrace.fixtures import (
    _rand_dual_with_d,
    fixture_algebra,
    mu3_algebra,
    odd_coefficient_dga,
    twisted_odd_coefficient_dga,
)
from hochtrace.hoch import BarConnesComplex, hh_of_algebra


def _digest(gmap):
    """Hash of a GradedMap's entries, labels sorted by repr, coefficients
    written as numerator/denominator."""
    h = hashlib.sha256()
    for src in sorted(gmap.entries, key=repr):
        h.update(repr(src).encode())
        col = gmap.entries[src]
        for tgt in sorted(col, key=repr):
            c = col[tgt]
            h.update(f"{tgt!r}={c.numerator}/{c.denominator};".encode())
    return h.hexdigest()[:16]


def dual_with_d(seed):
    """Q<x, y>/(x, y)^2 with d(x) = c y: seed 0 gives |x| = 1, c = -1, and
    seed 4 gives |x| = 0, c = 2."""
    return _rand_dual_with_d(random.Random(seed))


def _hh(alg):
    return hh_of_algebra(alg, 3).complex


def _bar_resolution(alg):
    return bar_resolution_module(alg, left_module_from_algebra(alg), 3).kmodule.complex


def _bar_connes(alg):
    return BarConnesComplex(alg, 3).complex


# (dga, complex, dimension, digest of d), measured before the arity skip
PINNED = [
    (twisted_odd_coefficient_dga, _hh, 680, "cd261f3780404f93"),
    (twisted_odd_coefficient_dga, _bar_resolution, 2720, "18afb1f0bf9c3c2e"),
    (twisted_odd_coefficient_dga, _bar_connes, 362, "7dc58471ca7aceab"),
    (lambda: dual_with_d(0), _hh, 120, "c1c687f2cd62401d"),
    (lambda: dual_with_d(4), _hh, 120, "a920c702d1dece28"),
]
IDS = ["twisted_hh", "twisted_bar_resolution", "twisted_bar_connes", "dual0_hh", "dual4_hh"]


def test_arities():
    assert fixture_algebra("cp2").arities == (2,)
    assert mu3_algebra().arities == (2, 3)
    assert from_dga(odd_coefficient_dga()).arities == (2,)
    for dga in (twisted_odd_coefficient_dga(), dual_with_d(0), dual_with_d(4)):
        assert from_dga(dga).arities == (1, 2)


@pytest.mark.parametrize("dga, build, dim, digest", PINNED, ids=IDS)
def test_differentials_where_mu1_is_nonzero(dga, build, dim, digest):
    cx = build(from_dga(dga()))    # d*d = 0 is certified on construction
    assert cx.space.dim == dim
    assert _digest(cx.d) == digest


def test_skipping_mu1_is_caught():
    alg = from_dga(twisted_odd_coefficient_dga())
    alg.arities = (2,)
    with pytest.raises(ValueError, match=r"d\*d != 0"):
        _hh(alg)
    assert _digest(_bar_connes(alg).d) != "7dc58471ca7aceab"
