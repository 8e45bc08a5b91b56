"""Bimodules over A-infinity algebras: the section-3 toolkit.

Covers the bimodule and bimodule-map equations, diagonal bimodules,
restriction of scalars, the two-sided infinity tensor product, hom
bimodules, duals, the action map into endomorphisms, the projection /
inclusion / contraction triple for sR (x)~_R M, symmetry validators, and
the cyclic-permutations-in-shuffle-span certificates.

A left module is a bimodule whose right algebra is None (the zero
algebra); mu_{l,r} with r > 0 then vanish identically.  mu_{0,0} is
always the full differential of the underlying free module (Leibniz over
the base differential); all other structure maps are strictly
k-multilinear tables on generators.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import product

from .ainf import AInfAlgebra, AInfMorphism, compositions, from_dga
from .cdga import BaseCDGA, FreeKModule, KAlgebra, eval_k_multilinear, kvec_scale
from .grdlin import (
    ONE,
    GradedMap,
    GradedSpace,
    enumerate_shuffles,
    solve,
    vec_add,
    vec_add_term,
)
from .report import Report

ZERO_F = Fraction(0)


class AInfBimodule:
    """An R-S-bimodule with structure-map tables on generators.

    ``tables``: {(l, r): {input generator tuple: kvec}} for (l, r) != (0, 0);
    the (0, 0) map is the differential of ``kmodule``.  Either algebra may
    be None, meaning the zero algebra (one-sided modules).
    """

    def __init__(self, left, right, kmodule: FreeKModule, tables, n_max,
                 unital=False, symmetric=False, check=True):
        self.left = left
        self.right = right
        self.kmodule = kmodule
        self.base = kmodule.base
        self.n_max = int(n_max)
        self.unital = unital
        self.symmetric = symmetric
        self.tables = {}
        for (l, r), table in tables.items():
            if (l, r) == (0, 0):
                raise ValueError("the (0,0) map is owned by the free module")
            if (l and left is None) or (r and right is None):
                raise ValueError("structure map over the zero algebra")
            cleaned = {k: dict(col) for k, col in table.items() if col}
            if cleaned:
                self.tables[(l, r)] = cleaned
        if check:
            for (l, r), table in self.tables.items():
                for key, col in table.items():
                    if len(key) != l + 1 + r:
                        raise ValueError(f"mu_({l},{r}) keyed by {key!r}")

    def input_degree_list(self, l, r, key):
        degs = []
        for i in range(l):
            degs.append(self.left.gens.degree[key[i]])
        degs.append(self.kmodule.gens.degree[key[l]])
        for i in range(r):
            degs.append(self.right.gens.degree[key[l + 1 + i]])
        return degs

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

    def pair_degree(self, pair, slot_space: GradedSpace):
        b, v = pair
        return self.base.degree(b) + slot_space.degree[v]

    def input_tuples(self, l, r):
        left_part = product(self.left.gens.labels(), repeat=l) if l else [()]
        right_part = product(self.right.gens.labels(), repeat=r) if r else [()]
        for xs in left_part:
            for m in self.kmodule.gens.labels():
                for ys in right_part:
                    yield xs + (m,) + ys

    def slot_degree(self, l, r, index, label):
        if index < l:
            return self.left.gens.degree[label]
        if index == l:
            return self.kmodule.gens.degree[label]
        return self.right.gens.degree[label]

    def __repr__(self):
        sides = (
            "0" if self.left is None else "R",
            "0" if self.right is None else "S",
        )
        return (f"AInfBimodule({sides[0]}-{sides[1]}, rank={self.kmodule.rank}, "
                f"N_max={self.n_max})")


def _pair_deg(base, space, pair):
    b, v = pair
    return base.degree(b) + space.degree[v]


def _tuple_degrees(bim: AInfBimodule, l, r, pairs):
    degs = []
    for i, pair in enumerate(pairs):
        if i < l:
            degs.append(_pair_deg(bim.base, bim.left.gens, pair))
        elif i == l:
            degs.append(_pair_deg(bim.base, bim.kmodule.gens, pair))
        else:
            degs.append(_pair_deg(bim.base, bim.right.gens, pair))
    return degs


def bimodule_defect(bim: AInfBimodule, l, r, key) -> dict:
    """The (l, r) bimodule equation (three sums) on a generator tuple."""
    base_unit = bim.base.unit
    pairs = tuple((base_unit, v) for v in key)
    degs = _tuple_degrees(bim, l, r, pairs)
    total = {}
    # algebra insertions on the left
    for l2 in range(1, l + 1):
        for l1 in range(0, l - l2 + 1):
            l3 = l - l1 - l2
            sign = -ONE if sum(degs[:l1]) % 2 else ONE
            inner = bim.left.eval_mu(pairs[l1:l1 + l2])
            for pair, c in inner.items():
                new_pairs = pairs[:l1] + (pair,) + pairs[l1 + l2:]
                vec_add(total, bim.eval(l1 + 1 + l3, r, new_pairs), sign * c)
    # inner bimodule map
    for l2 in range(0, l + 1):
        for r1 in range(0, r + 1):
            l1 = l - l2
            r2 = r - r1
            window = pairs[l1:l + 1 + r1]
            sign = -ONE if sum(degs[:l1]) % 2 else ONE
            inner = bim.eval(l2, r1, window)
            for pair, c in inner.items():
                new_pairs = pairs[:l1] + (pair,) + pairs[l + 1 + r1:]
                vec_add(total, bim.eval(l1, r2, new_pairs), sign * c)
    # algebra insertions on the right
    for r2 in range(1, r + 1):
        for r1 in range(0, r - r2 + 1):
            r3 = r - r1 - r2
            offset = l + 1 + r1
            sign = -ONE if sum(degs[:offset]) % 2 else ONE
            inner = bim.right.eval_mu(pairs[offset:offset + r2])
            for pair, c in inner.items():
                new_pairs = pairs[:offset] + (pair,) + pairs[offset + r2:]
                vec_add(total, bim.eval(l, r1 + 1 + r3, new_pairs), sign * c)
    return total


def check_bimodule(bim: AInfBimodule, up_to) -> Report:
    report = Report(f"bimodule(up_to={up_to})")
    if up_to > bim.n_max:
        raise ValueError("validator range exceeds N_max")
    for total_arity in range(0, up_to + 1):
        for l in range(0, total_arity + 1):
            r = total_arity - l
            if (l and bim.left is None) or (r and bim.right is None):
                continue
            witness = None
            for key in bim.input_tuples(l, r):
                defect = bimodule_defect(bim, l, r, key)
                if defect:
                    witness = (key, defect)
                    break
            report.record(f"(l,r)=({l},{r})", witness is None, witness)
    return report


class BimoduleMap:
    """A degree-d map of R-S-bimodules, component tables on generators."""

    def __init__(self, source: AInfBimodule, target: AInfBimodule, degree,
                 components, check=True):
        self.source = source
        self.target = target
        self.degree = int(degree)
        self.components = {}
        for (l, r), table in components.items():
            cleaned = {k: dict(col) for k, col in table.items() if col}
            if cleaned:
                self.components[(l, r)] = cleaned
        if check:
            for (l, r), table in self.components.items():
                for key, col in table.items():
                    want = self.degree + sum(
                        source.slot_degree(l, r, i, v) for i, v in enumerate(key))
                    for (b, w) in col:
                        got = target.base.degree(b) + target.kmodule.gens.degree[w]
                        if got != want:
                            raise ValueError(
                                f"f_({l},{r}){key!r} has wrong degree")

    @classmethod
    def strict(cls, source, target, table, degree=0, check=True):
        return cls(source, target, degree, {(0, 0): table}, check=check)

    @classmethod
    def identity(cls, bim: AInfBimodule):
        table = {(v,): {(bim.base.unit, v): ONE} for v in bim.kmodule.gens.labels()}
        return cls(bim, bim, 0, {(0, 0): table}, check=False)

    def eval(self, l, r, pairs) -> dict:
        table = self.components.get((l, r))
        if not table:
            return {}
        degs = self.source.input_degree_list(l, r, tuple(v for _, v in pairs))
        return eval_k_multilinear(self.source.base, table, self.degree, pairs, degs)


def bimodule_map_defect(f: BimoduleMap, l, r, key) -> dict:
    """(-1)^d (mu' after f) - (f after mu) on a generator tuple."""
    src, tgt = f.source, f.target
    base_unit = src.base.unit
    pairs = tuple((base_unit, v) for v in key)
    degs = _tuple_degrees(src, l, r, pairs)
    d = f.degree
    total = {}
    # LHS: (-1)^d sum mu^{M'} o (id (x) f (x) id)
    lhs_sign = -ONE if d % 2 else ONE
    for l2 in range(0, l + 1):
        for r1 in range(0, r + 1):
            l1 = l - l2
            r2 = r - r1
            window = pairs[l1:l + 1 + r1]
            sign = lhs_sign * (-ONE if (d * sum(degs[:l1])) % 2 else ONE)
            inner = f.eval(l2, r1, window)
            for pair, c in inner.items():
                new_pairs = pairs[:l1] + (pair,) + pairs[l + 1 + r1:]
                vec_add(total, tgt.eval(l1, r2, new_pairs), sign * c)
    # RHS terms, subtracted
    for l2 in range(1, l + 1):
        for l1 in range(0, l - l2 + 1):
            l3 = l - l1 - l2
            sign = -ONE if sum(degs[:l1]) % 2 else ONE
            inner = src.left.eval_mu(pairs[l1:l1 + l2])
            for pair, c in inner.items():
                new_pairs = pairs[:l1] + (pair,) + pairs[l1 + l2:]
                vec_add(total, f.eval(l1 + 1 + l3, r, new_pairs), -sign * c)
    for l2 in range(0, l + 1):
        for r1 in range(0, r + 1):
            l1 = l - l2
            r2 = r - r1
            window = pairs[l1:l + 1 + r1]
            sign = -ONE if sum(degs[:l1]) % 2 else ONE
            inner = src.eval(l2, r1, window)
            for pair, c in inner.items():
                new_pairs = pairs[:l1] + (pair,) + pairs[l + 1 + r1:]
                vec_add(total, f.eval(l1, r2, new_pairs), -sign * c)
    for r2 in range(1, r + 1):
        for r1 in range(0, r - r2 + 1):
            r3 = r - r1 - r2
            offset = l + 1 + r1
            sign = -ONE if sum(degs[:offset]) % 2 else ONE
            inner = src.right.eval_mu(pairs[offset:offset + r2])
            for pair, c in inner.items():
                new_pairs = pairs[:offset] + (pair,) + pairs[offset + r2:]
                vec_add(total, f.eval(l, r1 + 1 + r3, new_pairs), -sign * c)
    return total


def check_bimodule_map(f: BimoduleMap, up_to) -> Report:
    report = Report(f"bimodule map(up_to={up_to}, degree={f.degree})")
    src = f.source
    for total_arity in range(0, up_to + 1):
        for l in range(0, total_arity + 1):
            r = total_arity - l
            if (l and src.left is None) or (r and src.right is None):
                continue
            witness = None
            for key in src.input_tuples(l, r):
                defect = bimodule_map_defect(f, l, r, key)
                if defect:
                    witness = (key, defect)
                    break
            report.record(f"(l,r)=({l},{r})", witness is None, witness)
    return report


def compose_bimodule_maps(f2: BimoduleMap, f1: BimoduleMap) -> BimoduleMap:
    """(f2 o f1)_{l,r} = sum f2_{l1,r2} o (id (x) f1_{l2,r1} (x) id)."""
    src = f1.source
    components = {}
    for total_arity in range(0, src.n_max + 1):
        for l in range(0, total_arity + 1):
            r = total_arity - l
            if (l and src.left is None) or (r and src.right is None):
                continue
            table = {}
            for key in src.input_tuples(l, r):
                pairs = tuple((src.base.unit, v) for v in key)
                degs = _tuple_degrees(src, l, r, pairs)
                total = {}
                for l2 in range(0, l + 1):
                    for r1 in range(0, r + 1):
                        l1 = l - l2
                        r2 = r - r1
                        window = pairs[l1:l + 1 + r1]
                        sign = (-ONE if (f2.degree * sum(degs[:l1])) % 2 else ONE)
                        inner = f1.eval(l2, r1, window)
                        for pair, c in inner.items():
                            new_pairs = pairs[:l1] + (pair,) + pairs[l + 1 + r1:]
                            vec_add(total, f2.eval(l1, r2, new_pairs), sign * c)
                if total:
                    table[key] = total
            if table:
                components[(l, r)] = table
    return BimoduleMap(f1.source, f2.target, f1.degree + f2.degree, components,
                       check=False)


# ---------------------------------------------------------------------------
# constructions


def diagonal_bimodule(alg: AInfAlgebra) -> AInfBimodule:
    """sR as an R-R-bimodule: mu_{l,r} = mu_{l+1+r}; symmetric when C-infinity."""
    tables = {}
    for n, table in alg.mu.items():
        if n < 2:
            continue
        for l in range(0, n):
            r = n - 1 - l
            tables.setdefault((l, r), {}).update(table)
    return AInfBimodule(alg, alg, alg.module, tables, max(alg.n_max - 1, 0),
                        unital=alg.unit is not None, symmetric=alg.cinfty)


def dga_module_bimodule(left: AInfAlgebra, right, kmodule: FreeKModule,
                        left_action=None, right_action=None,
                        unital=True) -> AInfBimodule:
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
                        n_max=max(x.n_max for x in (left, right) if x is not None),
                        unital=unital)


def restrict_scalars(f: AInfMorphism, g: AInfMorphism,
                     bim: AInfBimodule) -> AInfBimodule:
    """(f, g)^* M': structure maps через compositions of f- and g-blocks."""
    if bim.left is not None and f.target.gens != bim.left.gens:
        raise ValueError("f must land in the left algebra of the bimodule")
    if bim.right is not None and g.target.gens != bim.right.gens:
        raise ValueError("g must land in the right algebra of the bimodule")
    left, right = f.source, g.source
    tables = {}
    n_max = bim.n_max
    for total_arity in range(1, n_max + 1):
        for l in range(0, total_arity + 1):
            r = total_arity - l
            if (l, r) == (0, 0):
                continue
            if (l and left is None) or (r and right is None):
                continue
            table = {}
            for xs in (product(left.gens.labels(), repeat=l) if l else [()]):
                for m in bim.kmodule.gens.labels():
                    for ys in (product(right.gens.labels(), repeat=r) if r else [()]):
                        total = {}
                        x_pairs = tuple((left.base.unit, v) for v in xs)
                        y_pairs = tuple((right.base.unit, v) for v in ys)
                        m_pair = (bim.base.unit, m)
                        comps_l = compositions(l) if l else [()]
                        comps_r = compositions(r) if r else [()]
                        for cl in comps_l:
                            for blocks_l, c1 in f.blocks_apply(x_pairs, cl):
                                for cr in comps_r:
                                    for blocks_r, c2 in g.blocks_apply(y_pairs, cr):
                                        value = bim.eval(
                                            len(cl), len(cr),
                                            blocks_l + (m_pair,) + blocks_r)
                                        vec_add(total, value, c1 * c2)
                        if total:
                            table[xs + (m,) + ys] = total
            if table:
                tables[(l, r)] = table
    return AInfBimodule(left, right, bim.kmodule, tables, n_max,
                        unital=bim.unital, symmetric=bim.symmetric)


def restrict_scalars_map(f: AInfMorphism, g: AInfMorphism, h: BimoduleMap,
                         new_source: AInfBimodule,
                         new_target: AInfBimodule) -> BimoduleMap:
    """(f, g)^* of a bimodule map, same block formula with h in place of mu."""
    left, right = f.source, g.source
    components = {}
    for total_arity in range(0, h.source.n_max + 1):
        for l in range(0, total_arity + 1):
            r = total_arity - l
            if (l and left is None) or (r and right is None):
                continue
            table = {}
            for xs in (product(left.gens.labels(), repeat=l) if l else [()]):
                for m in h.source.kmodule.gens.labels():
                    for ys in (product(right.gens.labels(), repeat=r) if r else [()]):
                        total = {}
                        x_pairs = tuple((left.base.unit, v) for v in xs)
                        y_pairs = tuple((right.base.unit, v) for v in ys)
                        m_pair = (h.source.base.unit, m)
                        comps_l = compositions(l) if l else [()]
                        comps_r = compositions(r) if r else [()]
                        for cl in comps_l:
                            for blocks_l, c1 in f.blocks_apply(x_pairs, cl):
                                for cr in comps_r:
                                    for blocks_r, c2 in g.blocks_apply(y_pairs, cr):
                                        value = h.eval(
                                            len(cl), len(cr),
                                            blocks_l + (m_pair,) + blocks_r)
                                        vec_add(total, value, c1 * c2)
                        if total:
                            table[xs + (m,) + ys] = total
            if table:
                components[(l, r)] = table
    return BimoduleMap(new_source, new_target, h.degree, components, check=False)


def algebra_map_bimodule_map(f: AInfMorphism) -> BimoduleMap:
    """f': sR -> (f,f)^*(sS) with f'_{l,r} = f_{l+1+r} (Lemma 3.3.10)."""
    source = diagonal_bimodule(f.source)
    target = restrict_scalars(f, f, diagonal_bimodule(f.target))
    components = {}
    for n, table in f.components.items():
        for l in range(0, n):
            r = n - 1 - l
            components.setdefault((l, r), {}).update(table)
    return BimoduleMap(source, target, 0, components, check=False)


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
    lengths = range(0, (h_max if middle is not None else 0) + 1)
    gen_list = []
    for k in lengths:
        ys_iter = product(middle.gens.labels(), repeat=k) if k else [()]
        for ys in ys_iter:
            for vm in m.kmodule.gens.labels():
                for vn in n.kmodule.gens.labels():
                    deg = (m.kmodule.gens.degree[vm] + n.kmodule.gens.degree[vn]
                           + sum(middle.gens.degree[y] for y in ys))
                    gen_list.append(((vm, ys, vn), deg))
    gens = GradedSpace(gen_list)

    def expand(l, r, x_pairs, gen, y_pairs_r):
        """mu_{l,r} of the tensor bimodule on generator inputs.

        All inputs carry unit coefficients; k-linearity is restored later
        by the generic table evaluation.  Signs are parity bits applied by
        negation.
        """
        vm, ys, vn = gen
        k = len(ys)
        mid_pairs = (((base.unit, vm),)
                     + tuple((base.unit, y) for y in ys)
                     + ((base.unit, vn),))
        degs = ([m.kmodule.gens.degree[vm]]
                + [middle.gens.degree[y] for y in ys]
                + [n.kmodule.gens.degree[vn]])
        out = {}
        if r == 0:
            # mu^M_{l,n1} (x) id^{(k-n1)+1}: window starts at the far left
            for n1 in range(0, k + 1):
                value = m.eval(l, n1, x_pairs + mid_pairs[:1 + n1])
                new_ys = ys[n1:]
                for (b2, vm2), c in value.items():
                    vec_add_term(out, (b2, (vm2, new_ys, vn)), c)
        if l == 0 and r == 0 and middle is not None:
            # id^{1+n1} (x) mu^S_{n2} (x) id; moving mu past vm, y_1..y_n1
            # and the coefficient b2 back past them
            for n2 in range(1, k + 1):
                for n1 in range(0, k - n2 + 1):
                    left_deg = degs[0] + sum(degs[1:1 + n1])
                    inner = middle.eval_mu(mid_pairs[1 + n1:1 + n1 + n2])
                    for (b2, y2), c in inner.items():
                        negate = (left_deg + base.degree(b2) * left_deg) % 2
                        new_ys = ys[:n1] + (y2,) + ys[n1 + n2:]
                        vec_add_term(out, (b2, (vm, new_ys, vn)), -c if negate else c)
        if l == 0:
            # id^{1+n1} (x) mu^N_{n2,r}
            for n1 in range(0, k + 1):
                n2 = k - n1
                left_deg = degs[0] + sum(degs[1:1 + n1])
                value = n.eval(n2, r, mid_pairs[1 + n1:] + y_pairs_r)
                for (b2, vn2), c in value.items():
                    negate = (left_deg + base.degree(b2) * left_deg) % 2
                    vec_add_term(out, (b2, (vm, ys[:n1], vn2)), -c if negate else c)
        return out

    d_gen = {}
    for (gen, _deg) in gen_list:
        col = expand(0, 0, (), gen, ())
        if col:
            d_gen[gen] = col
    kmodule = FreeKModule(base, gens, d_gen)

    out_nmax = max(m.n_max, n.n_max)
    tables = {}
    for total_arity in range(1, out_nmax + 1):
        for l in range(0, total_arity + 1):
            r = total_arity - l
            if (l and m.left is None) or (r and n.right is None):
                continue
            if l > 0 and r > 0:
                continue  # tensor structure maps vanish unless one side is 0
            table = {}
            x_iter = product(m.left.gens.labels(), repeat=l) if l else [()]
            for xs in x_iter:
                x_pairs = tuple((base.unit, v) for v in xs)
                y_iter = product(n.right.gens.labels(), repeat=r) if r else [()]
                for ys_r in y_iter:
                    y_pairs = tuple((base.unit, v) for v in ys_r)
                    for (gen, _d) in gen_list:
                        value = expand(l, r, x_pairs, gen, y_pairs)
                        if value:
                            table[xs + (gen,) + ys_r] = value
            if table:
                tables[(l, r)] = table
    return AInfBimodule(m.left, n.right, kmodule, tables, out_nmax,
                        unital=m.unital and n.unital)


# --- hom bimodules, duals, endomorphism algebras ------------------------------


def hom_label(v, w):
    return ("hom", v, w)


def hom_generators(m_gens: GradedSpace, n_gens: GradedSpace) -> GradedSpace:
    return GradedSpace(
        ((hom_label(v, w), n_gens.degree[w] - m_gens.degree[v])
         for v in m_gens.labels() for w in n_gens.labels())
    )


def _hom_twist(m: AInfBimodule, n: AInfBimodule):
    """d_gen of Hom_k(M, N): d_N o E - (-1)^{|E|} E o d_M on generators."""
    base = m.base
    mg, ng = m.kmodule.gens, n.kmodule.gens
    d_gen = {}
    for v in mg.labels():
        for w in ng.labels():
            e_deg = ng.degree[w] - mg.degree[v]
            col = {}
            for (c, w2), x in n.kmodule.d_gen.get(w, {}).items():
                vec_add(col, {(c, hom_label(v, w2)): x})
            sign = -ONE if e_deg % 2 else ONE
            for v2 in mg.labels():
                for (c, u), x in m.kmodule.d_gen.get(v2, {}).items():
                    if u != v:
                        continue
                    esign = -ONE if (e_deg * base.degree(c)) % 2 else ONE
                    vec_add(col, {(c, hom_label(v2, w)): -sign * esign * x})
            if col:
                d_gen[hom_label(v, w)] = col
    return d_gen


def hom_k(m: AInfBimodule, n: AInfBimodule, n_max=None) -> AInfBimodule:
    """Hom_k(M, N) as an R-S-bimodule, for M a left S-module and N a left
    R-module; structure maps adjoint to mu^N o (id (x) ev) minus
    ev o (id (x) mu^M)."""
    if m.right is not None or n.right is not None:
        raise ValueError("hom_k expects left modules")
    s_alg, r_alg = m.left, n.left
    base = m.base
    gens = hom_generators(m.kmodule.gens, n.kmodule.gens)
    kmodule = FreeKModule(base, gens, _hom_twist(m, n))
    n_max = n_max if n_max is not None else max(
        x.n_max for x in (s_alg, r_alg) if x is not None) if (s_alg or r_alg) else 1
    tables = {}
    mg, ng = m.kmodule.gens, n.kmodule.gens
    # mu_{l,0}(x .. x, E): psi(v) = mu_l^N(x .. x, E(v))
    if r_alg is not None:
        for l in range(1, n_max + 1):
            table = {}
            for xs in product(r_alg.gens.labels(), repeat=l):
                x_pairs = tuple((base.unit, x) for x in xs)
                for v in mg.labels():
                    for w in ng.labels():
                        total = {}
                        value = n.eval(l, 0, x_pairs + ((base.unit, w),))
                        for (c, w2), coeff in value.items():
                            vec_add(total, {(c, hom_label(v, w2)): coeff})
                        if total:
                            table[xs + (hom_label(v, w),)] = total
            if table:
                tables[(l, 0)] = table
    # mu_{0,r}(E, y .. y): psi(v') = -(-1)^{|E|} E(mu_r^M(y .. y, v'))
    if s_alg is not None:
        for r in range(1, n_max + 1):
            table = {}
            for ys in product(s_alg.gens.labels(), repeat=r):
                y_pairs = tuple((base.unit, y) for y in ys)
                for v in mg.labels():
                    for w in ng.labels():
                        e_deg = ng.degree[w] - mg.degree[v]
                        sign = -ONE if e_deg % 2 else ONE
                        total = {}
                        for v2 in mg.labels():
                            value = m.eval(r, 0, y_pairs + ((base.unit, v2),))
                            for (c, u), coeff in value.items():
                                if u != v:
                                    continue
                                esign = (-ONE if (e_deg * base.degree(c)) % 2
                                         else ONE)
                                vec_add(total,
                                        {(c, hom_label(v2, w)):
                                         -sign * esign * coeff})
                        if total:
                            table[(hom_label(v, w),) + ys] = total
            if table:
                tables[(0, r)] = table
    return AInfBimodule(r_alg, s_alg, kmodule, tables, n_max,
                        unital=(m.unital if s_alg else True)
                        and (n.unital if r_alg else True))


def trivial_module(base: BaseCDGA) -> AInfBimodule:
    """k as a 0-0-bimodule (a bare k-module of rank one)."""
    gens = GradedSpace([("1", 0)])
    return AInfBimodule(None, None, FreeKModule(base, gens), {}, 0)


def left_module_from_algebra(alg: AInfAlgebra) -> AInfBimodule:
    """sR as a left R-module (forget the right actions of the diagonal)."""
    diag = diagonal_bimodule(alg)
    tables = {k: t for k, t in diag.tables.items() if k[1] == 0}
    return AInfBimodule(alg, None, diag.kmodule, tables, diag.n_max,
                        unital=diag.unital)


def dual_module(m: AInfBimodule) -> AInfBimodule:
    """M^v = Hom_k(M, k) as a right S-module for M a left S-module."""
    return hom_k(m, trivial_module(m.base))


def obs_359_map(n: AInfBimodule, m: AInfBimodule, h_max=0) -> BimoduleMap:
    """N (x)_k M^v -> Hom_k(M, N), n (x) phi -> n phi(-): a strict map of
    R-S-bimodules (Obs 3.5.9 shape)."""
    mdual = dual_module(m)
    source = tensor_inf(n, mdual, 0)
    target = hom_k(m, n)
    table = {}
    for (vn, ys, phi) in source.kmodule.gens.labels():
        assert ys == ()
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
    trivial = AInfBimodule(None, None, module, {}, 0)
    d_gen = _hom_twist(trivial, trivial)
    unit = {(base.unit, hom_label(v, v)): ONE for v in module.gens.labels()}
    return KAlgebra(base, gens, mult, unit, d_gen)


def v_map(alg: AInfAlgebra, m: AInfBimodule, end_ainf=None) -> AInfMorphism:
    """v: R -> End_k(M), v_n(x_1 .. x_n) = s mu_n^M(x_1, .., x_n, -)."""
    if m.right is not None:
        raise ValueError("v_map expects a left module")
    base = alg.base
    if end_ainf is None:
        end_ainf = from_dga(end_algebra(m.kmodule), n_max=alg.n_max)
    components = {}
    for l in range(1, alg.n_max + 1):
        table = {}
        for xs in product(alg.gens.labels(), repeat=l):
            x_pairs = tuple((base.unit, x) for x in xs)
            total = {}
            for v in m.kmodule.gens.labels():
                value = m.eval(l, 0, x_pairs + ((base.unit, v),))
                for (c, w), coeff in value.items():
                    vec_add(total, {(c, hom_label(v, w)): coeff})
            if total:
                table[xs] = total
        if table:
            components[l] = table
    return AInfMorphism(alg, end_ainf, components, n_max=alg.n_max, check=False)


# --- the pi / iota / contraction / nu quartet --------------------------------


def bar_resolution_module(alg: AInfAlgebra, m: AInfBimodule, h_max) -> AInfBimodule:
    """sR (x)~_R M for a left R-module M."""
    return tensor_inf(diagonal_bimodule(alg), m, h_max)


def pi_map(alg: AInfAlgebra, m: AInfBimodule, h_max,
           source=None) -> BimoduleMap:
    """pi: sR (x)~_R M -> M of degree 1; pi_l = mu_{l+1+n}^M on the n-th
    summand."""
    source = source or bar_resolution_module(alg, m, h_max)
    base = alg.base
    components = {}
    for l in range(0, m.n_max):
        table = {}
        x_iter = product(alg.gens.labels(), repeat=l) if l else [()]
        for xs in x_iter:
            x_pairs = tuple((base.unit, x) for x in xs)
            for gen in source.kmodule.gens.labels():
                vr, ys, vm = gen
                inner = (x_pairs + ((base.unit, vr),)
                         + tuple((base.unit, y) for y in ys)
                         + ((base.unit, vm),))
                value = m.eval(l + 1 + len(ys), 0, inner)
                if value:
                    table[xs + (gen,)] = value
        if table:
            components[(l, 0)] = table
    return BimoduleMap(source, m, 1, components, check=False)


def iota_map(alg: AInfAlgebra, m: AInfBimodule, h_max,
             target=None) -> BimoduleMap:
    """iota: M -> sR (x)~_R M of degree -1; iota_l(x .. x, m) = s1 (x) x .. x (x) m."""
    if alg.unit is None:
        raise ValueError("iota requires a unital algebra")
    target = target or bar_resolution_module(alg, m, h_max)
    base = alg.base
    components = {}
    for l in range(0, h_max + 1):
        table = {}
        x_iter = product(alg.gens.labels(), repeat=l) if l else [()]
        for xs in x_iter:
            for vm in m.kmodule.gens.labels():
                gen = (alg.unit, tuple(xs), vm)
                table[tuple(xs) + (vm,)] = {(base.unit, gen): ONE}
        components[(l, 0)] = table
    return BimoduleMap(m, target, -1, components, check=False)


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
    base = alg.base
    lhs = d.compose(h) + h.compose(d)
    for (b, gen) in tensor_module.kmodule.total.labels():
        vr, ys, vm = gen
        if len(ys) > h_max - 1:
            continue
        got = lhs.column((b, gen))
        want = {(b, gen): ONE}
        # iota_0 pi_0: mu_{1+n}(x, y .. y, m) then s1 (x) (-)
        value = pi.eval(0, 0, ((b, gen),))
        for (c, w), coeff in value.items():
            vec_add(want, {(c, (alg.unit, (), w)): -coeff})
        ok = got == want
        report.record(f"level {len(ys)} at {(b, gen)!r}", ok,
                      None if ok else (got, want))
        if not ok:
            break
    # collapse per-level detail: keep only failures and one summary line
    failures = [c for c in report.checks if not c[1]]
    summary = Report("contraction identity")
    summary.record(f"d h + h d = id - iota_0 pi_0 (lengths <= {h_max - 1})",
                   not failures, failures[0][2] if failures else None)
    return summary


def nu_map(alg: AInfAlgebra, m: AInfBimodule, target=None) -> BimoduleMap:
    """nu: sR -> Hom_k(M, M) of degree 1, adjoint to mu_{l+1+r}^M."""
    source = diagonal_bimodule(alg)
    if target is None:
        target = hom_k(m, m)
    base = alg.base
    components = {}
    for total_arity in range(0, alg.n_max):
        for l in range(0, total_arity + 1):
            r = total_arity - l
            table = {}
            x_iter = product(alg.gens.labels(), repeat=l) if l else [()]
            y_iter = list(product(alg.gens.labels(), repeat=r)) if r else [()]
            for xs in x_iter:
                x_pairs = tuple((base.unit, x) for x in xs)
                for vr in alg.gens.labels():
                    for ys in y_iter:
                        y_pairs = tuple((base.unit, y) for y in ys)
                        total = {}
                        for v in m.kmodule.gens.labels():
                            value = m.eval(
                                l + 1 + r, 0,
                                x_pairs + ((base.unit, vr),) + y_pairs
                                + ((base.unit, v),))
                            for (c, w), coeff in value.items():
                                vec_add(total, {(c, hom_label(v, w)): coeff})
                        if total:
                            table[xs + (vr,) + ys] = total
            if table:
                components[(l, r)] = table
    return BimoduleMap(source, target, 1, components, check=False)


# --- symmetry ----------------------------------------------------------------


def _cyclic_rotations(pairs, degs):
    """All i-fold rotations of (m, x_1..x_n) with accumulated Koszul signs."""
    out = [(tuple(pairs), ONE)]
    current = list(pairs)
    current_degs = list(degs)
    sign = ONE
    for _ in range(len(pairs) - 1):
        moved = current_degs[-1]
        rest = sum(current_degs[:-1])
        sign = sign * (-ONE if (moved * rest) % 2 else ONE)
        current = [current[-1]] + current[:-1]
        current_degs = [current_degs[-1]] + current_degs[:-1]
        out.append((tuple(current), sign))
    return out


def symmetry_defect(bim: AInfBimodule, vm, xs) -> dict:
    """sum_{i=0..n} mu_{i,n-i} o t_{n+1}^i on m (x) x_1 .. x_n."""
    base = bim.base
    n = len(xs)
    pairs = ((base.unit, vm),) + tuple((base.unit, x) for x in xs)
    degs = [bim.kmodule.gens.degree[vm]] + [bim.left.gens.degree[x] for x in xs]
    total = {}
    for i, (rotated, sign) in enumerate(_cyclic_rotations(pairs, degs)):
        vec_add(total, bim.eval(i, n - i, rotated), sign)
    return total


def check_symmetric(bim: AInfBimodule, up_to) -> Report:
    """Def 3.4.5: structure maps vanish on sums of cyclic permutations."""
    if bim.left is None or bim.right is None or bim.left.gens != bim.right.gens:
        raise ValueError("symmetry requires an R-R-bimodule")
    report = Report(f"symmetric bimodule(up_to={up_to})")
    for n in range(1, up_to + 1):
        witness = None
        for vm in bim.kmodule.gens.labels():
            for xs in product(bim.left.gens.labels(), repeat=n):
                defect = symmetry_defect(bim, vm, xs)
                if defect:
                    witness = ((vm, xs), defect)
                    break
            if witness:
                break
        report.record(f"n={n}", witness is None, witness)
    return report


def check_symmetric_map(f: BimoduleMap, up_to) -> Report:
    report = Report(f"symmetric map(up_to={up_to})")
    bim = f.source
    base = bim.base
    for n in range(1, up_to + 1):
        witness = None
        for vm in bim.kmodule.gens.labels():
            for xs in product(bim.left.gens.labels(), repeat=n):
                pairs = ((base.unit, vm),) + tuple((base.unit, x) for x in xs)
                degs = ([bim.kmodule.gens.degree[vm]]
                        + [bim.left.gens.degree[x] for x in xs])
                total = {}
                for i, (rotated, sign) in enumerate(_cyclic_rotations(pairs, degs)):
                    vec_add(total, f.eval(i, n - i, rotated), sign)
                if total:
                    witness = ((vm, xs), total)
                    break
            if witness:
                break
        report.record(f"n={n}", witness is None, witness)
    return report


# --- cyclic permutations inside the shuffle span (Lemma 3.4.9) ---------------


def _perm_compose(sigma, tau):
    """Destination-convention composition: apply tau first."""
    return tuple(sigma[tau[i]] for i in range(len(sigma)))


def cyclic_in_shuffle_span(n) -> dict:
    """Exact coefficients expressing the sum of the n cyclic rotations in
    the left Sigma_n-span of the shuffle sums; None if no certificate
    exists (which would falsify the lemma)."""
    if n < 2:
        raise ValueError("need n >= 2")
    from itertools import permutations as all_perms
    rot = tuple((i + 1) % n for i in range(n))
    c_n = {}
    current = tuple(range(n))
    for _ in range(n):
        c_n[current] = c_n.get(current, ZERO_F) + ONE
        current = _perm_compose(rot, current)
    rows = []
    index = []
    for p in range(1, n):
        q = n - p
        sh_sum = [s.perm for s in enumerate_shuffles(p, q)]
        for tau in all_perms(range(n)):
            row = {}
            for sigma in sh_sum:
                key = _perm_compose(tau, sigma)
                row[key] = row.get(key, ZERO_F) + ONE
            rows.append(row)
            index.append((p, q, tau))
    solution = solve(rows, c_n)
    if solution is None:
        return None
    certificate = {index[i]: c for i, c in solution.items()}
    # verify by substitution
    acc = {}
    for (p, q, tau), coeff in certificate.items():
        for s in enumerate_shuffles(p, q):
            key = _perm_compose(tau, s.perm)
            acc[key] = acc.get(key, ZERO_F) + coeff
    acc = {k: v for k, v in acc.items() if v}
    if acc != c_n:
        raise AssertionError("certificate failed substitution check")
    return certificate
