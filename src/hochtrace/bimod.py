"""Bimodules over A-infinity algebras: the section-3 toolkit.

Covers the bimodule and bimodule-map equations, diagonal bimodules,
restriction of scalars, the two-sided infinity tensor product, hom
bimodules, duals, the action map into endomorphisms, the projection /
inclusion / contraction triple for sR (x)~_R M, symmetry validators, and
the cyclic-permutations-in-shuffle-span certificates.

``action(m, pairs)`` is the one End-valued action: the operator
s mu^M_{l,0}(x_1 .. x_l, -) of a word on a module, as an End_k(M) kvec
{(c, hom(v, w)): coeff}.  That kvec is the one operator format: v_map,
nu_map, hom_k and the transfer traces all read it, ``end_algebra``
composes it and ``transfer.module_trace`` traces it.

``hom_twist`` is the one Hom differential d_N o E - (-1)^{|E|} E o d_M,
read from generator data: ``hom_k``, ``end_algebra`` and the dual module
of the derived coevaluation twist by it.  ``dga_module_bimodule`` is the
one place the right-action sign (-1)^{|m|+1} is applied.

A left module is a bimodule whose right algebra is None (the zero
algebra); mu_{l,r} with r > 0 then vanish identically.  mu_{0,0} is
always the full differential of the underlying free module (Leibniz over
the base differential); all other structure maps are strictly
k-multilinear tables on generators.
"""
from __future__ import annotations

from functools import partial
from itertools import accumulate, permutations, product

from .ainf import AInfAlgebra, AInfMorphism, compositions, from_dga, insert_at
from .cdga import (
    BaseCDGA,
    FreeKModule,
    KAlgebra,
    eval_k_multilinear,
    insertions,
    kvec_scale,
    migration_parity,
    store_tables,
)
from .grdlin import (
    ONE,
    GradedMap,
    GradedSpace,
    compose_perms,
    cyclic_rotations,
    enumerate_shuffles,
    solve,
    vec_add,
    vec_add_term,
)
from .report import CertificateError, Report


class AInfBimodule:
    """An R-S-bimodule with structure-map tables on generators.

    ``tables``: {(l, r): {input generator tuple: kvec of degree +1}} for
    (l, r) != (0, 0), stored and checked by ``cdga.store_tables``.  The
    (0, 0) map is the differential of ``kmodule``.  Either algebra may be
    None, meaning the zero algebra (one-sided modules).

    ``arities``: the sorted (l, r) at which mu_{l,r} can be nonzero on
    unit-coefficient generators, the keys of ``tables`` plus (0, 0)
    whenever the module differential has entries.
    """

    def __init__(self, left, right, kmodule: FreeKModule, tables, n_max):
        self.left = left
        self.right = right
        self.kmodule = kmodule
        self.base = kmodule.base
        self.n_max = int(n_max)
        if (0, 0) in tables:
            raise ValueError("the (0, 0) map is owned by the free module")
        self.tables = store_tables(tables, self.slot_degrees, 1, self.base,
                                   kmodule.gens.degree)
        arities = set(self.tables)
        if kmodule.d.entries:
            arities.add((0, 0))
        self.arities = tuple(sorted(arities))

    def slot_degrees(self, shape):
        """The generator-degree dicts of the l + 1 + r input slots of
        mu_{l,r}: l left letters, the module generator, r right letters;
        ValueError for a side whose algebra is None."""
        l, r = shape
        if (l and self.left is None) or (r and self.right is None):
            raise ValueError(f"structure map {shape!r} over the zero algebra")
        left = (self.left.gens.degree,) * l if l else ()
        right = (self.right.gens.degree,) * r if r else ()
        return left + (self.kmodule.gens.degree,) + right

    def input_degree_list(self, l, r, key):
        degs = []
        for i in range(l):
            degs.append(self.left.gens.degree[key[i]])
        degs.append(self.kmodule.gens.degree[key[l]])
        for i in range(r):
            degs.append(self.right.gens.degree[key[l + 1 + i]])
        return degs

    def mu_word(self, l, r, word) -> dict:
        """mu_{l,r} on a word of l + 1 + r unit-coefficient generators: the
        stored column itself, {} where mu_{l,r} has none.

        At (0, 0) this is the module differential at (unit, m).  It equals
        ``eval`` of the (unit, v) pairs without building them; the caller
        must not mutate the result.
        """
        if (l, r) == (0, 0):
            return self.kmodule.d.entries.get((self.base.unit, word[0]), {})
        table = self.tables.get((l, r))
        return table.get(word, {}) if table else {}

    def eval(self, l, r, pairs) -> dict:
        """mu_{l,r} on a tuple of l + 1 + r total-space labels."""
        if (l, r) == (0, 0):
            return self.kmodule.d.column(pairs[0])
        table = self.tables.get((l, r))
        if not table:
            return {}
        key = tuple([v for _, v in pairs])
        degs = self.input_degree_list(l, r, key)
        return eval_k_multilinear(self.base, table, 1, pairs, degs)

    def __repr__(self):
        sides = (
            "0" if self.left is None else "R",
            "0" if self.right is None else "S",
        )
        return (f"AInfBimodule({sides[0]}-{sides[1]}, rank={self.kmodule.rank}, "
                f"N_max={self.n_max})")


def bimodule_inputs(left, kmodule: FreeKModule, right, l, r):
    """The generator tuples x_1..x_l, m, y_1..y_r of mu_{l,r} in product
    order, for a bimodule over ``left`` and ``right`` on ``kmodule``; a zero
    algebra (None) contributes only the empty word."""
    xss = product(left.gens.labels(), repeat=l) if l else [()]
    ms = kmodule.gens.labels()
    yss = list(product(right.gens.labels(), repeat=r)) if r else [()]
    for xs in xss:
        for m in ms:
            for ys in yss:
                yield xs + (m,) + ys


def shapes(left, right, lo, hi):
    """The (l, r) with lo <= l + r <= hi, by total arity and then l,
    leaving out the sides whose algebra is None."""
    for total_arity in range(lo, hi + 1):
        for l in range(0, total_arity + 1):
            r = total_arity - l
            if (l and left is None) or (r and right is None):
                continue
            yield l, r


def _equation_sums(total, outer, middle, middle_degree, pairs, degs, l, r,
                   coeff=1, left=None, right=None):
    """total += coeff times the sums of the (l, r) bimodule equations on
    pairs: outer o (id (x) middle_{l2,r1} (x) id) around the module slot,
    and, when the algebras ``left``/``right`` are given, outer o (id (x)
    mu (x) id) over the left and the right algebra slots; each term is one
    ``ainf.insert_at``."""
    if left is not None:
        for l2 in range(1, l + 1):
            for l1 in range(0, l - l2 + 1):
                insert_at(total, partial(outer, l - l2 + 1, r), left.eval_mu, 1, pairs,
                          degs, l1, l1 + l2, coeff)
    for l2 in range(0, l + 1):
        for r1 in range(0, r + 1):
            insert_at(total, partial(outer, l - l2, r - r1), partial(middle, l2, r1),
                      middle_degree, pairs, degs, l - l2, l + 1 + r1, coeff)
    if right is not None:
        for r2 in range(1, r + 1):
            for r1 in range(0, r - r2 + 1):
                offset = l + 1 + r1
                insert_at(total, partial(outer, l, r - r2 + 1), right.eval_mu, 1, pairs,
                          degs, offset, offset + r2, coeff)


def bimodule_defect(bim: AInfBimodule, l, r, key) -> dict:
    """The (l, r) bimodule equation (three sums) on a generator tuple."""
    pairs = tuple((bim.base.unit, v) for v in key)
    degs = bim.input_degree_list(l, r, key)
    total = {}
    _equation_sums(total, bim.eval, bim.eval, 1, pairs, degs, l, r,
                   left=bim.left, right=bim.right)
    return total


def check_bimodule(bim: AInfBimodule, up_to) -> Report:
    report = Report(f"bimodule(up_to={up_to})")
    if up_to > bim.n_max:
        raise ValueError("validator range exceeds N_max")
    for l, r in shapes(bim.left, bim.right, 0, up_to):
        report.record_first_defect(
            f"(l,r)=({l},{r})", bimodule_inputs(bim.left, bim.kmodule, bim.right, l, r),
            lambda key: bimodule_defect(bim, l, r, key))
    return report


class BimoduleMap:
    """A degree-d map of R-S-bimodules, component tables {(l, r): {input
    generator tuple of the source: kvec of the target}} stored and checked
    by ``cdga.store_tables``."""

    def __init__(self, source: AInfBimodule, target: AInfBimodule, degree, components):
        self.source = source
        self.target = target
        self.degree = int(degree)
        self.components = store_tables(components, source.slot_degrees, self.degree,
                                       target.base, target.kmodule.gens.degree)

    @classmethod
    def strict(cls, source, target, table):
        return cls(source, target, 0, {(0, 0): table})

    @classmethod
    def identity(cls, bim: AInfBimodule):
        table = {(v,): {(bim.base.unit, v): ONE} for v in bim.kmodule.gens.labels()}
        return cls(bim, bim, 0, {(0, 0): table})

    def eval(self, l, r, pairs) -> dict:
        table = self.components.get((l, r))
        if not table:
            return {}
        degs = self.source.input_degree_list(l, r, tuple(v for _, v in pairs))
        return eval_k_multilinear(self.source.base, table, self.degree, pairs, degs)


def bimodule_map_defect(f: BimoduleMap, l, r, key) -> dict:
    """(-1)^d (mu' after f) - (f after mu) on a generator tuple."""
    src, tgt = f.source, f.target
    pairs = tuple((src.base.unit, v) for v in key)
    degs = src.input_degree_list(l, r, key)
    total = {}
    _equation_sums(total, tgt.eval, f.eval, f.degree, pairs, degs, l, r,
                   coeff=-1 if f.degree % 2 else 1)
    _equation_sums(total, f.eval, src.eval, 1, pairs, degs, l, r, coeff=-1,
                   left=src.left, right=src.right)
    return total


def check_bimodule_map(f: BimoduleMap, up_to) -> Report:
    report = Report(f"bimodule map(up_to={up_to}, degree={f.degree})")
    src = f.source
    for l, r in shapes(src.left, src.right, 0, up_to):
        report.record_first_defect(
            f"(l,r)=({l},{r})", bimodule_inputs(src.left, src.kmodule, src.right, l, r),
            lambda key: bimodule_map_defect(f, l, r, key))
    return report


def compose_bimodule_maps(f2: BimoduleMap, f1: BimoduleMap) -> BimoduleMap:
    """(f2 o f1)_{l,r} = sum f2_{l1,r2} o (id (x) f1_{l2,r1} (x) id)."""
    src = f1.source
    components = {}
    for l, r in shapes(src.left, src.right, 0, src.n_max):
        table = {}
        for key in bimodule_inputs(src.left, src.kmodule, src.right, l, r):
            pairs = tuple((src.base.unit, v) for v in key)
            degs = src.input_degree_list(l, r, key)
            total = {}
            _equation_sums(total, f2.eval, f1.eval, f1.degree, pairs, degs, l, r)
            if total:
                table[key] = total
        if table:
            components[(l, r)] = table
    return BimoduleMap(f1.source, f2.target, f1.degree + f2.degree, components)


# ---------------------------------------------------------------------------
# constructions


def split_arities(tables) -> dict:
    """{(l, r): table} from arity-n tables {n: table}, each copied to every
    split l + 1 + r = n: the one rule behind mu_{l,r} = mu_{l+1+r} of the
    diagonal bimodule and f'_{l,r} = f_{l+1+r} of an algebra map."""
    components = {}
    for n, table in tables.items():
        for l in range(0, n):
            components.setdefault((l, n - 1 - l), {}).update(table)
    return components


def diagonal_bimodule(alg: AInfAlgebra) -> AInfBimodule:
    """sR as an R-R-bimodule: mu_{l,r} = mu_{l+1+r}; symmetric when C-infinity
    (``check_symmetric``)."""
    tables = split_arities({n: table for n, table in alg.mu.items() if n >= 2})
    return AInfBimodule(alg, alg, alg.module, tables, max(alg.n_max - 1, 0))


def dga_module_bimodule(left: AInfAlgebra, right, kmodule: FreeKModule,
                        left_action=None, right_action=None) -> AInfBimodule:
    """A classical dg-(bi)module: mu_{1,0}(sx (x) m) = x m and
    mu_{0,1}(m (x) sy) = (-1)^{|m| + 1} m y, higher maps zero.

    The right-action twist matches the diagonal bimodule's convention
    (mu_2(sa (x) s1) = (-1)^{|a|} sa with |a| unshifted), so every
    bimodule in the ecosystem shares one unitality flavor; the two
    flavors differ by the automorphism mu_{0,1} -> -mu_{0,1}, which
    preserves the bimodule equations.

    Actions are tables on generator pairs with kvec values; the input
    algebras are expected to be shifted dgas (from_dga outputs).
    """
    tables = {}
    if left_action:
        tables[(1, 0)] = dict(left_action)
    if right_action:
        table = {}
        for (m, y), col in right_action.items():
            sign = -ONE if (kmodule.gens.degree[m] + 1) % 2 else ONE
            table[(m, y)] = kvec_scale(col, sign)
        tables[(0, 1)] = table
    return AInfBimodule(left, right, kmodule, tables,
                        n_max=max(x.n_max for x in (left, right) if x is not None))


def restrict_scalars(f: AInfMorphism, g: AInfMorphism,
                     bim: AInfBimodule) -> AInfBimodule:
    """(f, g)^* M': structure maps through compositions of f- and g-blocks."""
    if bim.left is not None and f.target.gens != bim.left.gens:
        raise ValueError("f must land in the left algebra of the bimodule")
    if bim.right is not None and g.target.gens != bim.right.gens:
        raise ValueError("g must land in the right algebra of the bimodule")
    left, right = f.source, g.source
    unit = bim.base.unit
    tables = {}
    for l, r in shapes(left, right, 1, bim.n_max):
        table = {}
        for key in bimodule_inputs(left, bim.kmodule, right, l, r):
            x_pairs = tuple((unit, v) for v in key[:l])
            y_pairs = tuple((unit, v) for v in key[l + 1:])
            total = {}
            for cl in compositions(l):
                for blocks_l, c1 in f.blocks_apply(x_pairs, cl):
                    for cr in compositions(r):
                        if (len(cl), len(cr)) not in bim.arities:
                            continue
                        for blocks_r, c2 in g.blocks_apply(y_pairs, cr):
                            value = bim.eval(len(cl), len(cr),
                                             blocks_l + ((unit, key[l]),) + blocks_r)
                            vec_add(total, value, c1 * c2)
            if total:
                table[key] = total
        if table:
            tables[(l, r)] = table
    return AInfBimodule(left, right, bim.kmodule, tables, bim.n_max)


def algebra_map_bimodule_map(f: AInfMorphism) -> BimoduleMap:
    """f': sR -> (f,f)^*(sS) with f'_{l,r} = f_{l+1+r} (Lemma 3.3.10)."""
    source = diagonal_bimodule(f.source)
    target = restrict_scalars(f, f, diagonal_bimodule(f.target))
    return BimoduleMap(source, target, 0, split_arities(f.components))


# --- infinity tensor product ------------------------------------------------


def tensor_inf(m: AInfBimodule, n: AInfBimodule, h_max) -> AInfBimodule:
    """M (x)~_S N truncated at internal tensor length h_max.

    The middle algebra S = m.right = n.left (None for (x)_k).  Generators
    are triples (vm, (y_1..y_k), vn).  The differential never raises the
    internal length, so the truncation is an honest subcomplex and d^2 = 0
    exactly (asserted via the underlying free module).
    """
    middle = m.right
    if (middle is None) != (n.left is None):
        raise ValueError("middle algebra mismatch")
    if middle is not None and n.left.gens != middle.gens:
        raise ValueError("middle algebra mismatch")
    base = m.base
    coeff_degree = base.space.degree
    # over k there are no middle letters: only the words of length 0
    letters = middle.gens.labels() if middle is not None else ()
    m_deg, n_deg = m.kmodule.gens.degree, n.kmodule.gens.degree
    # the prefix degrees |vm| + |y_1..y_i|, i = 0..k, once per (vm, ys)
    gen_list, prefixes = [], {}
    for k in range(0, h_max + 1):
        for ys in product(letters, repeat=k):
            y_sums = list(accumulate((middle.gens.degree[y] for y in ys), initial=0))
            for vm in m.kmodule.gens.labels():
                prefix = prefixes[vm, ys] = [m_deg[vm] + p for p in y_sums]
                for vn in n.kmodule.gens.labels():
                    gen_list.append(((vm, ys, vn), prefix[-1] + n_deg[vn]))
    gens = GradedSpace(gen_list)
    if middle is not None:
        middle_terms = insertions(base, middle.mu_word, middle.arities, middle.gens.degree)
    # the factors' arities by side, once: ascending n1 of mu^M_{l,n1} per l,
    # descending n2 of mu^N_{n2,r} (ascending n1 = k - n2) per r
    m_arities, n_arities = {}, {}
    for l1, n1 in m.arities:
        m_arities.setdefault(l1, []).append(n1)
    for n2, r2 in reversed(n.arities):
        n_arities.setdefault(r2, []).append(n2)

    def expand(l, r, key):
        """mu_{l,r} of the tensor bimodule on a generator tuple
        x_1..x_l, (vm, ys, vn), y_1..y_r.

        All inputs carry unit coefficients, so the factors' structure maps
        are read by generator word; k-linearity is restored later by the
        generic table evaluation.  Signs are parity bits applied by
        negation.
        """
        vm, ys, vn = key[l]
        k = len(ys)
        out = {}
        if r == 0 and l in m_arities:
            # mu^M_{l,n1} (x) id^{(k-n1)+1}: the window x_1..x_l, vm, y_1..y_n1
            head = key[:l] + (vm,) + ys
            for n1 in m_arities[l]:
                if n1 > k:
                    break
                new_ys = ys[n1:]
                for (b2, vm2), c in m.mu_word(l, n1, head[:l + 1 + n1]).items():
                    vec_add_term(out, (b2, (vm2, new_ys, vn)), c)
        if l:
            return out
        prefix = prefixes[vm, ys]
        if r == 0 and middle is not None:
            # id^{1+n1} (x) mu^S_{n2} (x) id, moving past vm, y_1..y_n1
            for _n1, new_ys, b2, c, parity in middle_terms(ys, prefix[0]):
                vec_add_term(out, (b2, (vm, new_ys, vn)), -c if parity else c)
        if r in n_arities:
            # id^{1+n1} (x) mu^N_{n2,r} on the window y_{n1+1}..y_k, vn, y_1..y_r,
            # moving past vm, y_1..y_n1
            tail = (vn,) + key[1:]
            for n2 in n_arities[r]:
                if n2 > k:
                    continue
                n1 = k - n2
                for (b2, vn2), c in n.mu_word(n2, r, ys[n1:] + tail).items():
                    negate = migration_parity(prefix[n1], 1, coeff_degree[b2])
                    vec_add_term(out, (b2, (vm, ys[:n1], vn2)), -c if negate else c)
        return out

    d_gen = {}
    for (gen, _deg) in gen_list:
        col = expand(0, 0, (gen,))
        if col:
            d_gen[gen] = col
    kmodule = FreeKModule(base, gens, d_gen)

    out_nmax = max(m.n_max, n.n_max)
    # tensor structure maps vanish unless one side is 0; table (l, 0) only
    # applies mu^M_{l, .} and table (0, r) only mu^N_{., r}
    live = {(l, 0) for l in m_arities} | {(0, r) for r in n_arities}
    tables = {}
    for l, r in shapes(m.left, n.right, 1, out_nmax):
        if (l, r) not in live:
            continue
        table = {}
        for key in bimodule_inputs(m.left, kmodule, n.right, l, r):
            value = expand(l, r, key)
            if value:
                table[key] = value
        if table:
            tables[(l, r)] = table
    return AInfBimodule(m.left, n.right, kmodule, tables, out_nmax)


# --- hom bimodules, duals, endomorphism algebras ------------------------------


def hom_label(v, w):
    return ("hom", v, w)


def hom_generators(m_gens: GradedSpace, n_gens: GradedSpace) -> GradedSpace:
    return GradedSpace(
        ((hom_label(v, w), n_gens.degree[w] - m_gens.degree[v])
         for v in m_gens.labels() for w in n_gens.labels())
    )


def _unit_pairs(base: BaseCDGA, labels):
    return tuple((base.unit, x) for x in labels)


def action(m: AInfBimodule, pairs) -> dict:
    """s mu^M_{l,0}(pairs, -), l = len(pairs), as the End_k(M) kvec
    {(c, hom(v, w)): coeff}: the one End-valued action of a word on a
    module, one ``eval`` per generator v; {} when mu_{l,0} does not exist.

    The End kvec is the one operator format: ``end_algebra(m.kmodule).mul``
    composes these operators and ``transfer.module_trace`` traces them."""
    if (len(pairs), 0) not in m.arities:
        return {}
    unit = m.base.unit
    out = {}
    for v in m.kmodule.gens.labels():
        for (c, w), coeff in m.eval(len(pairs), 0, pairs + ((unit, v),)).items():
            out[(c, hom_label(v, w))] = coeff
    return out


def hom_twist(base: BaseCDGA, m_gens: GradedSpace, m_d_gen, n_gens: GradedSpace,
              n_d_gen) -> dict:
    """d_gen of Hom_k(M, N), d_N o E - (-1)^{|E|} E o d_M on the generators
    E = hom(v, w), read from the generator data of M and N alone.

    The one Hom differential: ``hom_k``, ``end_algebra`` and the dual
    module of ``transfer.find_derived_coev`` (N the base, n_d_gen = {})
    all twist by it."""
    d_gen = {}
    for v in m_gens.labels():
        for w in n_gens.labels():
            e_deg = n_gens.degree[w] - m_gens.degree[v]
            col = {}
            for (c, w2), x in n_d_gen.get(w, {}).items():
                vec_add(col, {(c, hom_label(v, w2)): x})
            sign = -ONE if e_deg % 2 else ONE
            for v2 in m_gens.labels():
                for (c, u), x in m_d_gen.get(v2, {}).items():
                    if u != v:
                        continue
                    esign = -ONE if (e_deg * base.degree(c)) % 2 else ONE
                    vec_add(col, {(c, hom_label(v2, w)): -sign * esign * x})
            if col:
                d_gen[hom_label(v, w)] = col
    return d_gen


def hom_k(m: AInfBimodule, n: AInfBimodule) -> AInfBimodule:
    """Hom_k(M, N) as an R-S-bimodule, for M a left S-module and N a left
    R-module; structure maps adjoint to mu^N o (id (x) ev) minus
    ev o (id (x) mu^M), each read off one ``action`` per word."""
    if m.right is not None or n.right is not None:
        raise ValueError("hom_k expects left modules")
    s_alg, r_alg = m.left, n.left
    base = m.base
    mg, ng = m.kmodule.gens, n.kmodule.gens
    kmodule = FreeKModule(base, hom_generators(mg, ng),
                          hom_twist(base, mg, m.kmodule.d_gen, ng, n.kmodule.d_gen))
    n_max = max((x.n_max for x in (s_alg, r_alg) if x is not None), default=1)
    tables = {}

    def add(shape, key, term, coeff):
        vec_add_term(tables.setdefault(shape, {}).setdefault(key, {}), term, coeff)

    # mu_{l,0}(x .. x, E) = v_l(x .. x) o E
    for l, _zero in n.arities:
        if 0 < l <= n_max:
            for xs in r_alg.gen_tuples(l):
                for (c, (_hom, w, w2)), coeff in action(n, _unit_pairs(base, xs)).items():
                    for v in mg.labels():
                        add((l, 0), xs + (hom_label(v, w),), (c, hom_label(v, w2)), coeff)
    # mu_{0,r}(E, y .. y) = -(-1)^{|E|} E o v_r(y .. y), E moving past c
    for r, _zero in m.arities:
        if 0 < r <= n_max:
            for ys in s_alg.gen_tuples(r):
                for (c, (_hom, v2, v)), coeff in action(m, _unit_pairs(base, ys)).items():
                    for w in ng.labels():
                        e_deg = ng.degree[w] - mg.degree[v]
                        add((0, r), (hom_label(v, w),) + ys, (c, hom_label(v2, w)),
                            coeff if (e_deg * (1 + base.degree(c))) % 2 else -coeff)
    return AInfBimodule(r_alg, s_alg, kmodule, tables, n_max)


def trivial_module(base: BaseCDGA) -> AInfBimodule:
    """k as a 0-0-bimodule (a bare k-module of rank one)."""
    gens = GradedSpace([("1", 0)])
    return AInfBimodule(None, None, FreeKModule(base, gens), {}, 0)


def left_module_from_algebra(alg: AInfAlgebra) -> AInfBimodule:
    """sR as a left R-module (forget the right actions of the diagonal)."""
    diag = diagonal_bimodule(alg)
    tables = {k: t for k, t in diag.tables.items() if k[1] == 0}
    return AInfBimodule(alg, None, diag.kmodule, tables, diag.n_max)


def dual_module(m: AInfBimodule) -> AInfBimodule:
    """M^v = Hom_k(M, k) as a right S-module for M a left S-module."""
    return hom_k(m, trivial_module(m.base))


def obs_359_map(n: AInfBimodule, m: AInfBimodule) -> BimoduleMap:
    """N (x)_k M^v -> Hom_k(M, N), n (x) phi -> n phi(-): a strict map of
    R-S-bimodules (Obs 3.5.9 shape)."""
    mdual = dual_module(m)
    source = tensor_inf(n, mdual, 0)
    target = hom_k(m, n)
    table = {}
    for (vn, ys, phi) in source.kmodule.gens.labels():
        if ys != ():
            raise ValueError(f"obs_359_map expects N (x)_k M^v generators, got {(vn, ys, phi)!r}")
        _, v, _one = phi
        table[((vn, ys, phi),)] = {(source.base.unit, hom_label(v, vn)): ONE}
    return BimoduleMap(source, target, 0, {(0, 0): table})


def end_algebra(module: FreeKModule) -> KAlgebra:
    """End_k(M) as a dga over the base: matrix units with composition."""
    base = module.base
    gens = hom_generators(module.gens, module.gens)
    mult = {}
    for v in module.gens.labels():
        for w in module.gens.labels():
            for v2 in module.gens.labels():
                for w2 in module.gens.labels():
                    prod = {}
                    if v == w2:  # E_{v,w} o E_{v2,w2} = delta_{v,w2} E_{v2,w}
                        prod = {(base.unit, hom_label(v2, w)): ONE}
                    mult[(hom_label(v, w), hom_label(v2, w2))] = prod
    d_gen = hom_twist(base, module.gens, module.d_gen, module.gens, module.d_gen)
    unit = {(base.unit, hom_label(v, v)): ONE for v in module.gens.labels()}
    return KAlgebra(base, gens, mult, unit, d_gen)


def v_map(alg: AInfAlgebra, m: AInfBimodule, end_ainf=None) -> AInfMorphism:
    """v: R -> End_k(M), v_n(x_1 .. x_n) = s mu_n^M(x_1, .., x_n, -)."""
    if m.right is not None:
        raise ValueError("v_map expects a left module")
    if end_ainf is None:
        end_ainf = from_dga(end_algebra(m.kmodule), n_max=alg.n_max)
    components = {l: {xs: action(m, _unit_pairs(alg.base, xs)) for xs in alg.gen_tuples(l)}
                  for l, _zero in m.arities if 0 < l <= alg.n_max}
    return AInfMorphism(alg, end_ainf, components, n_max=alg.n_max)


# --- the pi / iota / contraction / nu quartet --------------------------------


def bar_resolution_module(alg: AInfAlgebra, m: AInfBimodule, h_max) -> AInfBimodule:
    """sR (x)~_R M for a left R-module M."""
    return tensor_inf(diagonal_bimodule(alg), m, h_max)


def pi_map(alg: AInfAlgebra, m: AInfBimodule, h_max,
           source=None) -> BimoduleMap:
    """pi: sR (x)~_R M -> M of degree 1; pi_l = mu_{l+1+n}^M on the n-th
    summand."""
    source = source or bar_resolution_module(alg, m, h_max)
    components = {}
    for l in range(0, m.n_max):
        table = {}
        for key in bimodule_inputs(alg, source.kmodule, None, l, 0):
            vr, ys, vm = key[l]
            if (l + 1 + len(ys), 0) not in m.arities:
                continue
            value = m.mu_word(l + 1 + len(ys), 0, key[:l] + (vr,) + ys + (vm,))
            if value:
                table[key] = value
        if table:
            components[(l, 0)] = table
    return BimoduleMap(source, m, 1, components)


def iota_map(alg: AInfAlgebra, m: AInfBimodule, h_max,
             target=None) -> BimoduleMap:
    """iota: M -> sR (x)~_R M of degree -1; iota_l(x .. x, m) = s1 (x) x .. x (x) m."""
    if alg.unit is None:
        raise ValueError("iota requires a unital algebra")
    target = target or bar_resolution_module(alg, m, h_max)
    base = alg.base
    components = {}
    for l in range(0, h_max + 1):
        components[(l, 0)] = {
            key: {(base.unit, (alg.unit, key[:l], key[l])): ONE}
            for key in bimodule_inputs(alg, m.kmodule, None, l, 0)}
    return BimoduleMap(m, target, -1, components)


def contraction_h(alg: AInfAlgebra, tensor_module: AInfBimodule):
    """h(x (x) y .. y (x) m) = s1 (x) x (x) y .. y (x) m as a degree -1
    graded map of the underlying complex of sR (x)~_R M."""
    if alg.unit is None:
        raise ValueError("contraction requires a unital algebra")
    kmod = tensor_module.kmodule
    total = kmod.total
    entries = {}
    max_len = max(len(ys) for (_, ys, _) in kmod.gens.labels())
    for (b, gen) in total.labels():
        vr, ys, vm = gen
        if 1 + len(ys) > max_len:
            continue  # image would leave the truncation
        new_gen = (alg.unit, (vr,) + ys, vm)
        sign = -ONE if kmod.base.degree(b) % 2 else ONE
        entries[(b, gen)] = {(b, new_gen): sign}
    return GradedMap(total, total, -1, entries)


def homotopy_identity_report(alg: AInfAlgebra, m: AInfBimodule, h_max) -> Report:
    """d h + h d = id - iota_0 pi_0 on tensor lengths <= h_max - 1, exactly."""
    report = Report("contraction identity")
    tensor_module = bar_resolution_module(alg, m, h_max)
    h = contraction_h(alg, tensor_module)
    d = tensor_module.kmodule.d
    pi = pi_map(alg, m, h_max, source=tensor_module)
    iota = iota_map(alg, m, h_max, target=tensor_module)
    lhs = d.compose(h) + h.compose(d)

    def defect(label):
        """(d h + h d - id + iota_0 pi_0)(label)."""
        total = vec_add(lhs.column(label), {label: ONE}, -1)
        for pair, coeff in pi.eval(0, 0, (label,)).items():
            vec_add(total, iota.eval(0, 0, (pair,)), coeff)
        return total

    labels = (label for label in tensor_module.kmodule.total.labels()
              if len(label[1][1]) <= h_max - 1)
    report.record_first_defect(f"d h + h d = id - iota_0 pi_0 (lengths <= {h_max - 1})",
                               labels, defect)
    return report


def nu_map(alg: AInfAlgebra, m: AInfBimodule) -> BimoduleMap:
    """nu: sR -> Hom_k(M, M) of degree 1, adjoint to mu_{l+1+r}^M."""
    source = diagonal_bimodule(alg)
    components = {(l, r): {key: action(m, _unit_pairs(alg.base, key))
                           for key in bimodule_inputs(alg, source.kmodule, alg, l, r)}
                  for l, r in shapes(alg, alg, 0, alg.n_max - 1)}
    return BimoduleMap(source, hom_k(m, m), 1, components)


# --- symmetry ----------------------------------------------------------------


def _symmetry_defect(bim: AInfBimodule, structure_map, key) -> dict:
    """sum_{i=0..n} structure_map_{i,n-i} o t_{n+1}^i on the generator
    tuple key = (m, x_1, .., x_n), for structure maps on the R-R-bimodule
    ``bim``."""
    n = len(key) - 1
    pairs = tuple((bim.base.unit, v) for v in key)
    degs = [bim.kmodule.gens.degree[key[0]]] + [bim.left.gens.degree[x] for x in key[1:]]
    total = {}
    for i, rotated, parity in cyclic_rotations(pairs, degs):
        vec_add(total, structure_map(i, n - i, rotated), -1 if parity else 1)
    return total


def _symmetry_report(title, bim: AInfBimodule, structure_map, up_to) -> Report:
    """First witness (m, x_1, .., x_n), per arity n, of a nonzero rotation
    sum."""
    report = Report(title)
    for n in range(1, up_to + 1):
        report.record_first_defect(
            f"n={n}", bimodule_inputs(None, bim.kmodule, bim.left, 0, n),
            lambda key: _symmetry_defect(bim, structure_map, key))
    return report


def check_symmetric(bim: AInfBimodule, up_to) -> Report:
    """Def 3.4.5: structure maps vanish on sums of cyclic permutations."""
    if bim.left is None or bim.right is None or bim.left.gens != bim.right.gens:
        raise ValueError("symmetry requires an R-R-bimodule")
    return _symmetry_report(f"symmetric bimodule(up_to={up_to})", bim, bim.eval,
                            up_to)


def check_symmetric_map(f: BimoduleMap, up_to) -> Report:
    return _symmetry_report(f"symmetric map(up_to={up_to})", f.source, f.eval,
                            up_to)


# --- cyclic permutations inside the shuffle span (Lemma 3.4.9) ---------------


def cyclic_in_shuffle_span(n) -> dict:
    """Exact coefficients expressing the sum of the n cyclic rotations in
    the left Sigma_n-span of the shuffle sums; None if no certificate
    exists (which would falsify the lemma)."""
    if n < 2:
        raise ValueError("need n >= 2")
    rot = tuple((i + 1) % n for i in range(n))
    c_n = {}
    current = tuple(range(n))
    for _ in range(n):
        c_n[current] = c_n.get(current, 0) + ONE
        current = compose_perms(rot, current)
    shuffles = {p: enumerate_shuffles(p, n - p) for p in range(1, n)}
    rows = []
    index = []
    for p in range(1, n):
        q = n - p
        for tau in permutations(range(n)):
            row = {}
            for sigma in shuffles[p]:
                key = compose_perms(tau, sigma)
                row[key] = row.get(key, 0) + ONE
            rows.append(row)
            index.append((p, q, tau))
    solution = solve(rows, c_n)
    if solution is None:
        return None
    certificate = {index[i]: c for i, c in solution.items()}
    # verify by substitution
    acc = {}
    for (p, q, tau), coeff in certificate.items():
        for sigma in shuffles[p]:
            key = compose_perms(tau, sigma)
            acc[key] = acc.get(key, 0) + coeff
    defect = vec_add({k: v for k, v in acc.items() if v}, c_n, -1)
    if defect:
        raise CertificateError("certificate failed substitution check", (n, defect))
    return certificate
