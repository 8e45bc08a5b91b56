"""The one-loop wheeled graph complex and the free multilinear algebra,
pinned at values measured before the bar Connes complex was rebuilt on
the shared insertion kernel."""
import pytest

from hochtrace.ainf import check_stasheff
from hochtrace.wheeled import free_multilinear_algebra, gc1_complex, gc1_homology


@pytest.mark.parametrize("n, dims", [
    (1, {0: 1}),
    (2, {0: 1, 1: 1}),
    (3, {0: 1, 1: 2, 2: 1}),
])
def test_gc1_homology_dims(n, dims):
    assert gc1_homology(n) == dims


def test_gc1_characters():
    # traces on the permutations in sorted one-line order: for Sigma_2
    # (1,2), (2,1); for Sigma_3 (1,2,3), (1,3,2), (2,3,1)
    expected = {
        2: {0: (1, 1), 1: (1, -1)},
        3: {0: (1, 1, 1), 1: (2, 0, -1), 2: (1, -1, 1)},
    }
    for n, chars in expected.items():
        _dims, got = gc1_homology(n, characters=True)
        assert {k: tuple(v[p] for p in sorted(v)) for k, v in got.items()} == chars


def test_gc1_complex_sizes_and_euler_characteristic():
    cx = gc1_complex(3)
    assert (cx.full_space.dim, cx.space.dim) == (41, 28)
    chain_euler = sum((-1) ** t * cx.space.dim_in_degree(t) for t in cx.space.degrees())
    # H^k sits in total degree t = -k
    homology_euler = sum((-1) ** k * dim for k, dim in gc1_homology(3).items())
    assert chain_euler == homology_euler == 0


@pytest.mark.parametrize("n, count", [(1, 1), (2, 3), (3, 11), (4, 71)])
def test_free_multilinear_algebra_generators(n, count):
    alg = free_multilinear_algebra(n)
    assert alg.gens.dim == count
    if n <= 3:
        assert check_stasheff(alg, n).ok
