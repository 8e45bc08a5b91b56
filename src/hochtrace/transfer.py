"""Dualizability, module traces, derived coevaluations, the generalized
trace, and the Hochschild-homology transfer formulas.

The base tower is k = Q for the Hochschild side and R = the algebra's
base cdga for the module/trace side: an algebra S over the finite cdga R
is flattened to an algebra over Q for HH, while its modules stay free
finite over R and traces land in R.  ``TransferReport`` and
``GeneralizedTrace`` work on HH of ``ainf.flatten(S)``, whose letters
over R != Q are the pairs (b, v); ``SimpModel``, ``vanishing_check`` and
``corollary_tr`` work on the relative HH of S itself over R, whose
letters are bare generators.  ``ainf.letter_to_pair`` and
``ainf.pair_to_letter`` are the one rule between the two; the Koszul
sign (b, sv) = (-1)^{|b|} s(bv) is not applied yet.

Operators on a module are End_k(M) kvecs {(r, hom(v, w)): coeff}, the
one format: ``bimod.action`` builds them from the module structure maps
(the one End-valued action, behind tr_degree0, corollary_tr,
becker_gottlieb and the closed-form transfer blocks), ``end_algebra``
composes them and ``module_trace`` takes their graded trace.

The flat modules over Q reuse the base-layer rules: ``module_flat``
builds its differential with ``cdga.total_differential``, the dual
module twists by ``bimod.hom_twist``, both one-sided actions go through
``bimod.dga_module_bimodule``, and ``SimpModel`` signs its sorted words
with ``grdlin.koszul_sign``.

``GeneralizedTrace`` reaches only the composable words of HH(End), as
Loday's matrix trace does: the closed walks of nonzero folds between
c-terms, enumerated so that each label meets its walks in
``itertools.product`` order (its docstring gives the argument).

Every trace-type map ships with an exact chain-map certificate: one
``chain_report`` on ``grdlin.chain_map_witness`` behind the generalized
trace, the explicit transfer, the Becker-Gottlieb model and the assembly
projection, each with its first failing label as witness.
"""
from __future__ import annotations

from itertools import chain, product

from .ainf import (
    AInfAlgebra,
    compositions,
    flatten,
    flatten_morphism,
    from_dga,
    letter_to_pair,
    pair_to_letter,
)
from .bimod import (
    AInfBimodule,
    action,
    dga_module_bimodule,
    end_algebra,
    hom_generators,
    hom_label,
    hom_twist,
    left_module_from_algebra,
    tensor_inf,
    v_map,
)
from .cdga import BaseCDGA, FreeKModule, cdga_as_kalgebra, migration_parity, total_differential
from .grdlin import (
    Complex,
    GradedMap,
    GradedSpace,
    HomologyBasis,
    ONE,
    chain_map_witness,
    cyclic_rotations,
    koszul_sign,
    solve,
    vec_add,
    vec_add_term,
)
from .hoch import HochschildComplex, hh_algebra_induced_map, hh_of_algebra
from .report import Report

ZERO = 0


# --- graded traces over the base cdga -----------------------------------------


def module_trace(module: FreeKModule, operator) -> dict:
    """tr_R(f) for an R-linear operator f given as an End_k(M) kvec
    {(r, hom(v, w)): coeff}, the format of ``bimod.action`` and
    ``end_algebra``: the graded trace sum_v (-1)^{|v|} f_vv, an element
    of R (a sparse dict)."""
    out = {}
    for (r, (_hom, v, w)), c in operator.items():
        if v == w:
            vec_add(out, {r: c}, -1 if module.gens.degree[v] % 2 else 1)
    return out


def graded_trace_cyclicity_report(module: FreeKModule, rng, samples=20) -> Report:
    """tr(f g) = (-1)^{|f||g|} tr(g f) on random homogeneous operators;
    the witness is the first draw (|f|, |g|, f, g) with its defect.  The
    degrees are those of the module's elementary operators r hom(v, w),
    |r| + |w| - |v|, so an odd operator between generators far apart in
    degree is drawn too: |f| from all of them, |g| from those that put
    |f| + |g|, the degree of tr(fg), on a degree of the base."""
    report = Report("trace cyclic invariance")
    degree = module.gens.degree
    base = module.base
    end = end_algebra(module)
    elementary = [((r, hom_label(v, w)), base.degree(r) + degree[w] - degree[v])
                  for v in module.gens.labels() for w in module.gens.labels()
                  for r in base.space.labels()]
    degrees = sorted({deg for _op, deg in elementary})
    base_degrees = {base.degree(r) for r in base.space.labels()}

    def draw():
        fdeg = rng.choice(degrees)
        gdeg = rng.choice([deg for deg in degrees if fdeg + deg in base_degrees])
        f, g = {}, {}
        for op, deg in elementary:
            if deg == fdeg and rng.random() < 0.5:
                f[op] = rng.randint(-3, 3)
            if deg == gdeg and rng.random() < 0.5:
                g[op] = rng.randint(-3, 3)
        return fdeg, gdeg, f, g

    def defect(drawn):
        fdeg, gdeg, f, g = drawn
        return vec_add(module_trace(module, end.mul(f, g)), module_trace(module, end.mul(g, f)),
                       1 if fdeg * gdeg % 2 else -1)

    report.record_first_defect("tr(fg) = (-1)^{|f||g|} tr(gf)",
                               (draw() for _ in range(samples)), defect)
    return report


# --- modules over R as one-sided A-infinity modules over R-as-Q-algebra --------


def module_flat(base: BaseCDGA, gens: GradedSpace, d_gen) -> FreeKModule:
    """The underlying Q-module of the free R-module R (x) V with generator
    differential ``d_gen``: generators (r, v), differential the total
    differential of ``cdga.total_differential``."""
    flat_gens = GradedSpace(
        (((r, v), base.degree(r) + gens.degree[v])
         for r in base.space.labels() for v in gens.labels()))
    d_flat = {pair: {("1", target): c for target, c in col.items()}
              for pair, col in total_differential(base, gens, d_gen).items()}
    return FreeKModule(BaseCDGA.rationals(), flat_gens, d_flat)


def module_as_right(module: FreeKModule, r_alg: AInfAlgebra) -> AInfBimodule:
    """A free R-module as a right dg-module over R-as-Q-algebra, through
    ``dga_module_bimodule`` (diagonal unitality flavor).  The flat
    generator (r, v) is r v, so (r v) r2 = (-1)^{|v||r2|} (r r2) v."""
    base = module.base
    flat = module_flat(base, module.gens, module.d_gen)
    table = {}
    for (r, v) in flat.gens.labels():
        for r2 in r_alg.gens.labels():
            sign = -ONE if migration_parity(module.gens.degree[v], 0, base.degree(r2)) else ONE
            col = {("1", (r3, v)): sign * q for r3, q in base.mul_basis(r, r2).items()}
            if col:
                table[((r, v), r2)] = col
    return dga_module_bimodule(None, r_alg, flat, right_action=table)


# --- derived coevaluation -------------------------------------------------------


class DerivedCoevaluation:
    """A degree-0 cocycle of M (x)~_R M^dual whose level-0 part maps to
    coev(1) in M (x)_R M^dual."""

    def __init__(self, base: BaseCDGA, module: FreeKModule, r_alg, tensor,
                 vector: dict, b_max):
        self.base = base
        self.module = module
        self.r_alg = r_alg
        self.tensor = tensor      # the AInfBimodule M (x)~_R M^dual
        self.vector = vector      # dict over tensor kmodule total labels
        self.b_max = b_max

    def terms(self):
        """Iterate (m_flat_pair, bar_letters, phi_flat_pair, coefficient)."""
        for (one, (vm, ys, vphi)), c in self.vector.items():
            yield vm, ys, vphi, c


def find_derived_coev(base: BaseCDGA, module: FreeKModule, b_max=3) -> DerivedCoevaluation:
    """Solve d(c) = 0 with eps(c) = coev(1), exactly.

    When the differentials of R and M both vanish, c = coev(1) placed in
    bar level 0; otherwise the cocycle-lift system is solved by exact
    elimination (an obstruction raises ValueError: the truncation b_max
    was too small)."""
    r_alg = from_dga(cdga_as_kalgebra(base), n_max=4)
    right = module_as_right(module, r_alg)
    left_dual = _dual_as_left(module, r_alg)
    tensor = tensor_inf(right, left_dual, b_max)
    kspace = tensor.kmodule.total
    # target: coev(1) = sum_v (unit, v) (x) (unit, hom(v, "1")):
    unknowns = [lbl for lbl in kspace.labels() if kspace.degree[lbl] == 0]
    d = tensor.kmodule.d
    # rows: for each unknown u: [d(u) ; eps(u)] stacked over disjoint labels
    rows = []
    for u in unknowns:
        row = {}
        for t2, c in d.column(u).items():
            row[("d", t2)] = c
        for key, c in _eps_level0(base, module, u).items():
            row[("e", key)] = c
        rows.append(row)
    rhs = {}
    for v in module.gens.labels():
        rhs[("e", (base.unit, v, hom_label(v, "1")))] = ONE
    sol = solve(rows, rhs)
    if sol is None:
        raise ValueError(f"no derived coevaluation at bar truncation {b_max}")
    vector = {}
    for i, c in sol.items():
        vec_add(vector, {unknowns[i]: c})
    return DerivedCoevaluation(base, module, r_alg, tensor, vector, b_max)


def _dual_as_left(module: FreeKModule, r_alg) -> AInfBimodule:
    """M^dual = Hom_R(M, R) as a left dg-module over R-as-Q-algebra.

    Flat generators (r, hom(v, "1")) of degree |r| - |v|, with the Hom
    differential ``bimod.hom_twist`` (target R, no twist of its own)
    flattened by ``module_flat``; the left action is multiplication into
    the coefficient: (r2 . phi)(m) = r2 phi(m)."""
    base = module.base
    one = GradedSpace([("1", 0)])
    flat = module_flat(base, hom_generators(module.gens, one),
                       hom_twist(base, module.gens, module.d_gen, one, {}))
    table = {}
    for r2 in r_alg.gens.labels():
        for (r, lbl) in flat.gens.labels():
            col = {("1", (r3, lbl)): q for r3, q in base.mul_basis(r2, r).items()}
            if col:
                table[(r2, (r, lbl))] = col
    return dga_module_bimodule(r_alg, None, flat, left_action=table)


def _eps_level0(base: BaseCDGA, module: FreeKModule, label) -> dict:
    """Push a level-0 basis element of M (x)~ M^dual to the canonical basis
    (r, v, hom) of M (x)_R M^dual."""
    one, ((r, v), ys, (r2, lbl)) = label
    if ys:
        return {}
    sign = -ONE if migration_parity(module.gens.degree[v], 0, base.degree(r2)) else ONE
    return {(r3, v, lbl): sign * q for r3, q in base.mul_basis(r, r2).items()}


# --- the degree-zero transfer formulas ------------------------------------------


def _letters_and_degrees(hh: HochschildComplex, label):
    b, vm, xs = label
    letters = (vm,) + xs
    degs = [hh.bimodule.kmodule.gens.degree[vm]] + \
        [hh.algebra.gens.degree[x] for x in xs]
    return letters, degs


def tr_degree0(hh: HochschildComplex, m: AInfBimodule,
               module: FreeKModule) -> GradedMap:
    """The Hochschild-degree-0 transfer HH_Q(S) -> R (Thm-4.2.7 shape):

      s^{-1}(x_0 (x) .. (x) x_n) ->
        sum_i (-1)^{eps} tr_R(mu_{n+1}^M(x_i, .., x_{i-1}, -))

    with eps = (|x_0|+..+|x_{i-1}|)(|x_i|+..+|x_n|), the rotation sign.
    ``hh`` is the (flattened) Hochschild complex of S; ``m`` the left
    S-module over the base R; ``module`` its underlying free R-module.
    Certified as a chain map by the caller via ``chain_report``.

    The map is R-linear: a label's coefficient b, a basis label of the
    base of ``hh.algebra``, multiplies its value (degree 0, so no sign).
    That base is R for the relative HH of S; for HH of the flattened S it
    is Q, whose only label is its unit, the case ``letter_to_pair`` reads
    as (b, v) letters.  The rotation sum is evaluated once per (vm, xs)
    and multiplied by each b other than the unit, and the trace of each
    rotated word is taken once: the rotations of one word are the words
    of other labels."""
    base, unit = module.base, hh.algebra.base.unit
    sums = {}  # (vm, xs) -> the rotation sum at (unit, vm, xs)
    traces = {}  # rotated pairs -> tr_R of their action
    entries = {}
    for label in hh.space.labels():
        word = label[1:]
        out = sums.get(word)
        if out is None:
            letters, degs = _letters_and_degrees(hh, label)
            pairs = tuple(letter_to_pair(hh.algebra, m.base, x) for x in letters)
            out = sums[word] = {}
            for _l, rotated, parity in cyclic_rotations(pairs, degs):
                trace = traces.get(rotated)
                if trace is None:
                    trace = traces[rotated] = module_trace(module, action(m, rotated))
                vec_add(out, trace, -1 if parity else 1)
        if label[0] != unit:
            out = base.mul({label[0]: 1}, out)
        if out:
            entries[label] = out
    return GradedMap(hh.space, base.space, 0, entries)


def corollary_tr(hh: HochschildComplex, s_alg: AInfAlgebra) -> GradedMap:
    """The fiberwise-Euler-characteristic map HH_Q(S) -> R (Cor-5.2.2
    shape): -tr_degree0 of sS as a left module over itself,

      s^{-1}(x_0 (x) .. (x) x_n) ->
        sum_i (-1)^{eps+1} tr_R(mu_{n+2}^S(x_i, .., x_{i-1}, -))."""
    return tr_degree0(hh, left_module_from_algebra(s_alg), s_alg.module).scale(-ONE)


def chain_report(title, f: GradedMap, d_source: GradedMap, d_target: GradedMap) -> Report:
    """The chain certificate f d = (-1)^{|f|} d f as a report, with the
    witness of ``grdlin.chain_map_witness``."""
    report = Report(title)
    witness = chain_map_witness(f, d_source, d_target)
    report.record("commutes with differentials", witness is None, witness)
    return report


def cyclic_factorization_report(name, tr_map: GradedMap,
                                hh: HochschildComplex) -> Report:
    """tr vanishes on (1 - cyclic rotation) of every basis tensor."""
    report = Report(f"{name} cyclic factorization")

    def defect(label):
        """tr(x) - (-1)^{|x_n|(|x_0|+..+|x_{n-1}|)} tr(t x)."""
        letters, degs = _letters_and_degrees(hh, label)
        _l, rotated, parity = list(cyclic_rotations(letters, degs))[1]
        return vec_add(tr_map.column(label),
                       tr_map.column((label[0], rotated[0], rotated[1:])),
                       1 if parity else -1)

    report.record_first_defect("tr(x) = +- tr(t x)",
                               (label for label in hh.space.labels() if label[2]),
                               defect)
    return report


def becker_gottlieb(s_alg: AInfAlgebra) -> GradedMap:
    """S -> R, s -> -tr_R(mu_2(s, -)) on the shifted module (Cor-6.1.2
    shape, sign per the Euler-characteristic normalization)."""
    ss = left_module_from_algebra(s_alg)
    source = s_alg.module.total
    entries = {pair: module_trace(s_alg.module, action(ss, (pair,)))
               for pair in source.labels()}
    return GradedMap(source, s_alg.base.space, 1, entries).scale(-ONE)


def becker_gottlieb_report(s_alg: AInfAlgebra) -> Report:
    """The Becker-Gottlieb model is a map of cochain complexes from the
    unshifted S to R; on the shifted presentation sS it has degree 1, so
    its certificate is bg o d_{sS} = -d_R o bg."""
    return chain_report("becker-gottlieb chain certificate", becker_gottlieb(s_alg),
                        s_alg.module.d, s_alg.base.d)


def assembly_projection_report(hh: HochschildComplex) -> Report:
    """HH_Q(R) -> R, the projection to Hochschild degree 0 (unshifted), is
    a chain map exactly when the coefficients are symmetric (C-infinity R)."""
    return chain_report("assembly projection", hh.project_to_coefficients(),
                        hh.d, hh.coefficient_complex().d)


# --- the generalized trace (Def-4.2.4 shape) -------------------------------------


def _apply_hom(base: BaseCDGA, hom_degree, hom_pair, m_pair) -> dict:
    """A pair (r, E), E = hom(v, w) of degree ``hom_degree``, on a module
    pair (r2, v2): (r E)(r2 v2) = (-1)^{|E||r2|} (r r2) E(v2), as
    {(r3, w): coeff}.  End letters and dual letters (w = "1") alike; the
    caller knows |E|, since a dual's "1" is no generator of the module."""
    r, (_tag, v, w) = hom_pair
    r2, v2 = m_pair
    if v != v2:
        return {}
    sign = -ONE if migration_parity(base.degree(r2), hom_degree, 0) else ONE
    return {(r3, w): sign * q for r3, q in base.mul_basis(r, r2).items()}


class GeneralizedTrace:
    """tr_R^c: HH_Q(End_R(M)) -> HH_Q(R) assembled from a derived
    coevaluation (Def-4.2.4 shape).

    Builds End_R(M) (``end``), the source HH_Q(flatten(End_R(M)))
    (``hh_end``) in Hochschild degrees <= h_max and the target HH_Q(R)
    (``hh_target``) in degrees <= target_h.  The default target window
    holds every output tail; an explicit ``target_h`` that is too small
    raises ValueError naming an output label outside it.

    For each assignment of a c-term (m_i, y_i, phi_i) to the slot after
    each alpha_i: the leading block (alpha_0, m_0) moves to the back (one
    Koszul sign); each group (phi_i, alpha_{i+1}, m_{i+1}) folds through
    evaluation to a homogeneous R-scalar rho_i (folds are degree +1 maps
    applied left to right with prefix Koszul signs); scalars merge with
    adjacent scalars and multiply into the head letter of the word on
    their right, the last one wrapping to the front word with a Koszul
    transport.  An all-empty configuration lands in Hochschild degree 0
    as the ordered product of the scalars.

    A fold depends only on the c-term before it, the End letter and the
    c-term after it, so every fold is computed once, into a table
    ``letter -> [c-term j][c-term k] -> rho`` over the End generators.
    A live assignment of (unit, x_0, (x_1, .., x_n)) is a closed walk k_0
    -> k_1 -> .. -> k_n -> k_0 of c-terms in the fold graph, whose edges
    j -> k carry the letters x with folds[x][j][k] != 0, through x_1, ..,
    x_n and back through x_0 (Loday's matrix trace, to which this reduces
    for a strict coevaluation, likewise lives on composable words).
    ``_closed_walks`` enumerates these walks alone, from each k_0 in
    ascending order and through each letter's targets in ascending order:
    a label's walks then arrive in ``itertools.product`` order, so each
    column keeps the key order of a label-by-label evaluation.
    """

    def __init__(self, coev: DerivedCoevaluation, h_max, target_h=None):
        self.coev = coev
        self.base = coev.base
        self.module = coev.module
        self.r_alg = coev.r_alg
        self.end = from_dga(end_algebra(coev.module), n_max=4)
        self.hh_end = hh_end = hh_of_algebra(flatten(self.end), h_max)
        if target_h is None:
            target_h = max(h_max * max(coev.b_max, 1), _output_tail_bound(coev, h_max))
        self.hh_target = hh_target = hh_of_algebra(coev.r_alg, target_h)
        self._cterms = cterms = list(coev.terms())
        m_degree, x_degree = hh_end.bimodule.kmodule.gens.degree, hh_end.algebra.gens.degree
        columns = {}
        for label, path, rhos, coeff in self._closed_walks():
            _unit, x0, xs = label
            # (alpha_0, m_0) moves to the back (c-terms are degree 0)
            r0, v0 = cterms[path[0]][0]
            block = m_degree[x0] + self.base.degree(r0) + self.module.gens.degree[v0]
            if block % 2 and (m_degree[x0] + sum(x_degree[x] for x in xs) - block) % 2:
                coeff = -coeff
            vec_add(columns.setdefault(label, {}),
                    self._assemble([cterms[k][1] for k in path], rhos), coeff)
        entries = {label: col for label in hh_end.space.labels() if (col := columns.get(label))}
        for col in entries.values():
            for out_label in col:
                if out_label not in hh_target.space:
                    raise ValueError(
                        f"output label {out_label!r} lies outside the target window "
                        f"h={hh_target.h_max}; it needs target_h >= {len(out_label[2])}")
        self.map = GradedMap(hh_end.space, hh_target.space, 0, entries)

    def chain_report(self) -> Report:
        return chain_report("generalized trace chain certificate", self.map,
                            self.hh_end.d, self.hh_target.d)

    # -- internals ---------------------------------------------------------

    def _fold(self, phi, letter, m) -> dict:
        """The group (phi, letter, m) folded to the R-scalar
        (-1)^{|phi|} phi(letter(m)); {} when it vanishes.  The fold sign is
        calibrated by the chain certificate and the degree-0 anchors, and
        discriminated on a twisted-differential module."""
        base, degree = self.base, self.module.gens.degree
        end_pair = letter_to_pair(self.hh_end.algebra, base, letter)
        _tag, v, w = end_pair[1]
        dual_degree = -degree[phi[1][1]]
        fsign = -ONE if (base.degree(phi[0]) + dual_degree) % 2 else ONE
        rho = {}
        for m2, c2 in _apply_hom(base, degree[w] - degree[v], end_pair, m).items():
            for (r4, _one), c4 in _apply_hom(base, dual_degree, phi, m2).items():
                vec_add(rho, {r4: fsign * c2 * c4})
        return rho

    def _closed_walks(self):
        """Yield, for each closed walk of nonzero folds of at most h_max + 1
        steps, the label (unit, x_0, xs) it spells, its c-terms k_0, .., k_n,
        its folds rho_0, .., rho_n (rho_n closing through x_0) and the
        product of its c-term coefficients."""
        cterms, unit, h_max = self._cterms, self.hh_end.base.unit, self.hh_end.h_max
        letters = self.hh_end.algebra.gens.labels()
        folds = {x: [[self._fold(phi, x, m) for m, _ys, _phi, _c in cterms]
                     for _m, _ys, phi, _c in cterms] for x in letters}
        edges = [[(x, k, rho) for x in letters for k, rho in enumerate(folds[x][j]) if rho]
                 for j in range(len(cterms))]

        def walk(path, xs, rhos, coeff):
            last, k0 = path[-1], path[0]
            for x0 in letters:
                if rho := folds[x0][last][k0]:
                    yield (unit, x0, xs), path, rhos + [rho], coeff
            if len(xs) < h_max:
                for x, k, rho in edges[last]:
                    yield from walk(path + (k,), xs + (x,), rhos + [rho], coeff * cterms[k][3])

        for k0, term in enumerate(cterms):
            yield from walk((k0,), (), [], term[3])

    def _assemble(self, words, rhos) -> dict:
        """Output groups (s(rho_{i-1}), ys_i) for i = 0..n, one term per
        choice of an entry of every scalar: the last scalar letter wraps to
        the front with a Koszul transport; the output label is (coefficient
        letter, remaining letters)."""
        gd = self.r_alg.gens.degree
        # the scalars are homogeneous; s(rho_n) wraps past the rest of the output
        rest = sum(gd[y] for y in chain(*words, (next(iter(rho)) for rho in rhos[:-1])))
        wrap = -ONE if gd[next(iter(rhos[-1]))] * rest % 2 else ONE
        out = {}
        for choice in product(*(rho.items() for rho in rhos)):
            tail, c = words[0], wrap
            for (r, q), ys in zip(choice, words[1:]):
                tail += (r,) + ys
                c *= q
            r0, q0 = choice[-1]
            vec_add_term(out, ("1", r0, tail), c * q0)
        return out

    def __repr__(self):
        return f"GeneralizedTrace(dim_source={self.hh_end.space.dim})"


def _output_tail_bound(coev: DerivedCoevaluation, h_max) -> int:
    """The longest output tail of tr_R^c on Hochschild degrees <= h_max:
    h_max interior scalar letters between h_max + 1 c-term bar words."""
    longest = max((len(ys) for _m, ys, _phi, _c in coev.terms()), default=0)
    return h_max + (h_max + 1) * longest


# --- the explicit transfer (Thm-4.2.5 / Obs-4.2.6 shape) --------------------------


class TransferReport:
    """The explicit transfer HH_Q(S) -> HH_Q(R): the composite
    tr_R^c o v_* and the closed-form expansion, compared term by term."""

    def __init__(self, s_alg: AInfAlgebra, m: AInfBimodule,
                 module: FreeKModule, coev: DerivedCoevaluation, h_max):
        self.s_alg = s_alg
        self.module = module
        self.coev = coev
        self.hh_s = hh_of_algebra(flatten(s_alg), h_max)
        self.trace = trace = GeneralizedTrace(coev, h_max, max(
            h_max * max(coev.b_max, 1) + 2, _output_tail_bound(coev, h_max)))
        # v_*: HH(S) -> HH(End), v re-expressed on the flattened generators
        v = flatten_morphism(v_map(s_alg, m, end_ainf=trace.end),
                             self.hh_s.algebra, trace.hh_end.algebra)
        self.v_star = hh_algebra_induced_map(v, self.hh_s, trace.hh_end)
        self.composite = self.trace.map.compose(self.v_star)

    def chain_report(self) -> Report:
        return chain_report("explicit transfer chain certificate", self.composite,
                            self.hh_s.d, self.trace.hh_target.d)

    def degree_zero_report(self, m: AInfBimodule) -> Report:
        """Thm-4.2.5 vs Thm-4.2.7 coherence: the Hochschild-degree-0 output
        of the composite equals the direct tr_degree0 formula."""
        report = Report("degree-0 consistency")
        hh_target = self.trace.hh_target
        lhs = hh_target.project_to_coefficients().compose(self.composite)
        rhs = tr_degree0(self.hh_s, m, self.module)
        # the projection lands on the pairs (unit, r) of HH_Q(R)'s coefficients
        r_q = hh_target.algebra
        labels = self.hh_s.space.label_at
        report.record_first_defect(
            "pr_0 o tr^c o v_* = tr_degree0",
            sorted({labels[i] for f in (lhs, rhs) for i in f.columns}, key=repr),
            lambda src: vec_add({pair_to_letter(r_q, r_q.base, pair): c
                                 for pair, c in lhs.column(src).items()}, rhs.column(src), -1))
        return report


def transfer_explicit(s_alg: AInfAlgebra, m: AInfBimodule,
                      module: FreeKModule, coev: DerivedCoevaluation,
                      h_max) -> TransferReport:
    return TransferReport(s_alg, m, module, coev, h_max)


def closed_form_transfer(report: TransferReport, m: AInfBimodule) -> GradedMap:
    """The Obs-4.2.6 closed form, computed independently of the composite:
    sum over cyclic block decompositions of the input, each block acting
    through the module structure maps and fed to tr_R^c as an
    endomorphism-valued tensor.

    Each distinct block acts once per call: ``ops`` holds its action
    until the call returns."""
    hh_s = report.hh_s
    ops = {}

    def op(block):
        if block not in ops:
            ops[block] = action(m, block)
        return ops[block]

    entries = {}
    for label in hh_s.space.labels():
        letters, degs = _letters_and_degrees(hh_s, label)
        pairs = tuple(letter_to_pair(hh_s.algebra, m.base, x) for x in letters)
        out = {}
        # rotated = (x_{n-np_+1}, .., x_n, x_0, x_1, .., x_{n-np_}): the
        # wrapping operator eats the tail block, x_0 and n0 head letters;
        # the interior letters split into blocks for the other operators
        for np_, rotated, parity in cyclic_rotations(pairs, degs):
            for n0 in range(0, len(pairs) - np_):
                wrap = op(rotated[:np_ + 1 + n0])
                if not wrap:
                    continue
                interior = rotated[np_ + 1 + n0:]
                for comp in compositions(len(interior)):
                    tensor = [wrap]
                    offset = 0
                    for size in comp:
                        block = op(interior[offset:offset + size])
                        if not block:
                            break
                        tensor.append(block)
                        offset += size
                    else:
                        _accumulate_closed(report, out, tensor, -1 if parity else 1)
        if out:
            entries[label] = out
    return GradedMap(hh_s.space, report.trace.hh_target.space, 0, entries)


def _accumulate_closed(report, out, ops, eps_sign):
    """Feed the End-valued tensor (op_0, .., op_{p-1}) to tr^c."""
    end, base = report.trace.hh_end.algebra, report.module.base
    choices = [[(pair_to_letter(end, base, pair), c) for pair, c in op.items()] for op in ops]
    for combo in product(*choices):
        coeff = eps_sign
        for _letter, c in combo:
            coeff *= c
        label = ("1", combo[0][0], tuple(letter for letter, _c in combo[1:]))
        col = report.trace.map.column(label)
        for lbl2, c2 in col.items():
            vec_add(out, {lbl2: coeff * c2})


# --- the free-cdga model of THH-simple structures (Thm-6.2.3 shape) --------------


class SimpModel:
    """The free graded-commutative algebra on the degree-shifted reduced
    normalized Hochschild complex, with d = d_1 + d_2 (d_2 the derivation
    extending the transfer on generators); truncated at a monomial-length
    cap for windowed computations.  d^2 = 0 is asserted on construction."""

    def __init__(self, s_alg: AInfAlgebra, h_max, word_cap=2):
        if s_alg.unit is None:
            raise ValueError("the model needs a unital algebra")
        reduced = [x for x in s_alg.gens.labels() if x != s_alg.unit]
        bad = [x for x in reduced if s_alg.gens.degree[x] < 1]
        if bad:
            raise ValueError(f"R/1 must live in degrees > 1; offending {bad}")
        hhn = hh_of_algebra(s_alg, h_max, normalized=True)
        self.hh = hhn
        tr = corollary_tr(hhn, s_alg)
        gens = []
        for label in hhn.space.labels():
            if len(label[2]) >= 1:       # Hochschild degree >= 1
                gens.append((label, hhn.space.degree[label] + 1))  # [-1]
        self.gen_space = GradedSpace(gens)
        low = [(g, d) for g, d in gens if d < 1]
        if low:
            raise ValueError(f"model generators must be in degrees >= 1; offending {low[:3]}")
        self.word_cap = word_cap
        monomials = [((), 0)]
        frontier = [((), 0)]
        order = sorted(self.gen_space.labels(), key=repr)
        for _ in range(word_cap):
            new = []
            for word, deg in frontier:
                start = order.index(word[-1]) if word else 0
                for g in order[start:]:
                    gd = self.gen_space.degree[g]
                    if gd % 2 and word and word[-1] == g:
                        continue   # odd generators square to zero
                    new.append((word + (g,), deg + gd))
            monomials.extend(new)
            frontier = new
        self.space = GradedSpace(((("simp", w), d) for w, d in monomials))
        entries = {}
        for (tag, word) in self.space.labels():
            col = self._d_word(word, hhn, tr)
            if col:
                entries[(tag, word)] = col
        self.d = GradedMap(self.space, self.space, 1, entries)
        self.complex = Complex(self.space, self.d)

    def _sort_word(self, word):
        """Sort a generator word stably by repr, with the Koszul sign of the
        sorting permutation; (None, 0) if it dies on a repeated odd
        generator."""
        degree = self.gen_space.degree
        order = sorted(range(len(word)), key=lambda i: repr(word[i]))
        word = tuple(word[i] for i in order)
        # ``order`` sends the sorted word back; a permutation and its
        # inverse invert the same pairs of factors, so they share the sign
        sign = koszul_sign(order, [degree[x] for x in word])
        for a, b in zip(word, word[1:]):
            if a == b and degree[a] % 2:
                return None, ZERO
        return word, sign

    def _d_word(self, word, hhn, tr) -> dict:
        out = {}
        for i, g in enumerate(word):
            prefix = sum(self.gen_space.degree[x] for x in word[:i])
            sign = -ONE if prefix % 2 else ONE
            # d_1: the Hochschild differential on the generator
            for lbl2, c in hhn.d.column(g).items():
                if len(lbl2[2]) >= 1:
                    new = word[:i] + (lbl2,) + word[i + 1:]
                    sorted_word, s2 = self._sort_word(new)
                    if sorted_word is not None and len(sorted_word) <= self.word_cap:
                        vec_add(out, {("simp", sorted_word): sign * s2 * c})
            # d_2: the transfer value lands in wedge degree 0
            for r, c in tr.column(g).items():
                new = word[:i] + word[i + 1:]
                sorted_word, s2 = self._sort_word(new)
                if sorted_word is not None:
                    vec_add(out, {("simp", sorted_word): sign * s2 * c})
        return out


# --- the manifold-bundle vanishing check (Thm-6.3.2 shape) -----------------------


def reduced_hh_subcomplex(hh: HochschildComplex) -> Complex:
    """The subcomplex of Hochschild degrees >= 1 (closed under d exactly
    when the coefficients are symmetric, i.e. for C-infinity algebras)."""
    labels = [lbl for lbl in hh.space.labels() if len(lbl[2]) >= 1]
    space = GradedSpace((lbl, hh.space.degree[lbl]) for lbl in labels)
    entries = {}
    for lbl in labels:
        col = hh.d.column(lbl)
        for t2 in col:
            if len(t2[2]) < 1:
                raise ValueError("degree >= 1 part is not a subcomplex "
                                 "(coefficients are not symmetric)")
        if col:
            entries[lbl] = col
    return Complex(space, GradedMap(space, space, 1, entries))


def vanishing_check(s_alg: AInfAlgebra, h_max, t_min, t_max) -> Report:
    """Whether the composite reduced-HH -> k induces zero on homology in
    the window; a nonzero value is a certified witness against the
    asserted manifold-bundle origin of the model."""
    report = Report(f"vanishing (window [{t_min},{t_max}])")
    hh = hh_of_algebra(s_alg, h_max, normalized=True)
    tr = corollary_tr(hh, s_alg)
    sub = reduced_hh_subcomplex(hh)
    base = s_alg.base
    for t in range(t_min, t_max + 1):
        basis = HomologyBasis(sub, t)
        # over the base, a homology-level value must be a boundary
        boundaries = [base.d.column(v) for v in base.space.by_degree.get(t - 1, ())]

        def defect(rep):
            value = tr(rep)
            return value if solve(boundaries, value) is None else {}

        report.record_first_defect(f"t={t} ({basis.dim} classes)", basis.representatives,
                                   defect)
    return report
