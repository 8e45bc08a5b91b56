from hochtrace.ainf import unit_algebra
from hochtrace.bimod import (
    diagonal_bimodule,
    left_module_from_algebra,
    tensor_inf,
)
from hochtrace.cdga import BaseCDGA
from hochtrace.fixtures import fixture_algebra, mu3_algebra
from hochtrace.grdlin import (
    GradedMap,
    ONE,
    chain_map_witness,
    homology_window,
    is_quasi_iso_window,
)
from hochtrace.hoch import (
    ConnesComplex,
    DegeneratePiece,
    filtration_report,
    hh_complex,
    hh_of_algebra,
    normalized_hh,
)


def test_hh_d_squared_fixtures():
    # d^2 = 0 is asserted inside the Complex constructor
    for name in ("s2", "s3", "cp2", "dual"):
        alg = fixture_algebra(name)
        hh = hh_of_algebra(alg, 4)
        assert filtration_report(hh).ok


def test_hh_d_squared_mu3():
    alg = mu3_algebra()
    hh = hh_of_algebra(alg, 4)
    assert filtration_report(hh).ok


def test_filtration_report_names_an_entry_that_raises_the_degree():
    hh = hh_of_algebra(fixture_algebra("s2"), 2)
    src = next(label for label in hh.space.labels() if not label[2])
    tgt = next(label for label in hh.space.labels() if len(label[2]) == 2)
    hh.d.entries[src] = {tgt: ONE}
    report = filtration_report(hh)
    assert not report.ok
    assert report.first_failure == ("d does not raise the Hochschild degree", ((src, tgt), 2))


def test_hh_of_rationals_normalized():
    # R = Q: normalized HH = Q in degree 0
    alg = unit_algebra(BaseCDGA.rationals())
    hh = hh_of_algebra(alg, 4, normalized=True)
    dims = homology_window(hh.complex, -2, 3)
    assert dims == {-2: 0, -1: 0, 0: 1, 1: 0, 2: 0, 3: 0}


def test_normalized_quotient_is_quasi_iso_dual_numbers():
    # Q[x]/(x^2), x even: HH_n(R) has total dims 2,1,1,1 across Hochschild
    # degrees 0,1,2,3; with sR coefficients HH_n sits in total degree -1-n
    alg = fixture_algebra("dual")
    full, reduced, quotient = normalized_hh(alg, diagonal_bimodule(alg), 6)
    dims = homology_window(reduced.complex, -4, 0)
    assert dims == {-4: 1, -3: 1, -2: 1, -1: 2, 0: 0}
    # the dual numbers are degreewise finite, so the direct comparison is exact
    # in degrees safely inside the truncation
    assert is_quasi_iso_window(quotient, full.complex, reduced.complex, -3, -1)


def test_normalized_quotient_is_quasi_iso_s2():
    # truncation-stable form: the quotient identifies the stabilized
    # unnormalized homology with the (stable) normalized homology
    from hochtrace.hoch import stabilized_normalization_report
    alg = fixture_algebra("s2")
    report = stabilized_normalization_report(alg, 6, -2, 3)
    assert report.ok, report.summary()


def test_contraction_identity_on_graded_pieces():
    for name in ("s2", "dual"):
        alg = fixture_algebra(name)
        hh = hh_of_algebra(alg, 5)
        for p in (1, 2, 3):
            piece = DegeneratePiece(hh, p)
            report = piece.contraction_identity_report()
            assert report.ok, report.summary()


def test_hc_degree_zero_part():
    # commutative R: the Hochschild-degree-0 part of HC is all of sR
    alg = fixture_algebra("s2")
    hc = ConnesComplex(hh_of_algebra(alg, 3))
    level0 = [lbl for lbl in hc.space.labels() if not lbl[2]]
    assert len(level0) == 2


def test_hc_c2_coinvariants():
    # n=1 summand: (sR (x) sR)_{C_2} with Koszul signs
    alg = fixture_algebra("s2")
    hc = ConnesComplex(hh_of_algebra(alg, 3))
    level1 = [lbl for lbl in hc.space.labels() if len(lbl[2]) == 1]
    # basis of sR (x) sR: 11, 1x, x1, xx; C_2 swaps with Koszul sign
    # (s1 s1): swap sign (-1)^{1*1} = -1 -> dies; (sx sx): (-1)^{1*1} = -1 dies;
    # (s1 sx) ~ (sx s1): one class survives
    assert len(level1) == 1


def test_hc_mu3_d_squared():
    alg = mu3_algebra()
    hc = ConnesComplex(hh_of_algebra(alg, 4))
    assert hc.space.dim > 0


def test_hochschild_degree_zero_projection_symmetric():
    # Lemma 3.7.11: for symmetric coefficients the projection is a chain map
    alg = fixture_algebra("s2")
    hh = hh_of_algebra(alg, 4)
    proj = hh.project_to_coefficients()
    assert chain_map_witness(proj, hh.d, hh.coefficient_complex().d) is None


def test_obs_373_cyclic_iso():
    # HH_k(R, M (x)_k N) ~= N (x)~_R M via a cyclic permutation
    alg = fixture_algebra("s2")
    m = left_module_from_algebra(alg)          # left R-module
    diag = diagonal_bimodule(alg)
    n = _right_module_from_algebra(alg)        # right R-module
    mn = tensor_inf(m, n, 0)                   # R-R-bimodule M (x)_k N
    h_max = 3
    hh = hh_complex(alg, mn, h_max)
    nm = tensor_inf(n, m, h_max)               # N (x)~_R M (a complex)
    iso_entries = {}
    for (b, gen, xs) in hh.space.labels():
        vm, _empty, vn = gen
        dm = m.kmodule.gens.degree[vm]
        rest = (n.kmodule.gens.degree[vn]
                + sum(alg.gens.degree[x] for x in xs))
        sign = -ONE if (dm * rest) % 2 else ONE
        iso_entries[(b, gen, xs)] = {(b, (vn, xs, vm)): sign}
    iso = GradedMap(hh.space, nm.kmodule.total, 0, iso_entries)
    assert chain_map_witness(iso, hh.d, nm.kmodule.d) is None
    assert len(iso.entries) == hh.space.dim


def _right_module_from_algebra(alg):
    from hochtrace.bimod import AInfBimodule
    diag = diagonal_bimodule(alg)
    tables = {k: t for k, t in diag.tables.items() if k[0] == 0}
    return AInfBimodule(None, alg, diag.kmodule, tables, diag.n_max)


def test_window_stability_certificate():
    # normalized homology in a window is stable under raising the truncation
    alg = fixture_algebra("s2")
    dims1 = homology_window(
        hh_of_algebra(alg, 6, normalized=True).complex, -2, 4)
    dims2 = homology_window(
        hh_of_algebra(alg, 8, normalized=True).complex, -2, 4)
    assert dims1 == dims2
