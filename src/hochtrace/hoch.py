"""Hochschild, Connes, and normalized complexes of A-infinity algebras,
the classical-dga comparison oracle, and the Connes complex of the bar
coalgebra.

Labels: a Hochschild basis element is (b, vm, xs) with b a base-cdga
basis label, vm a coefficient-module generator, xs a tuple of shifted
algebra generators; its Hochschild degree is len(xs).  HH_k(R) uses the
diagonal bimodule sR and an overall shift by s^{-1} (degrees +1, labels
unchanged, no signs).

The differential never raises the Hochschild degree, so truncation at
H_max is an honest subcomplex and d^2 = 0 holds exactly there.

Each construction builds one ``cdga.insertions`` enumerator per inserted
map, which looks each word up once per arity, and drops it once built.
The complexes over the base R build their unit-coefficient columns alone
and extend them over b by ``cdga.leibniz_column`` (``hh_algebra_induced_map``
by ``cdga.times_base``).  ``HochschildComplex`` builds a word's unit columns
together: the insertions, less those that output the unit when
normalized, and the rotated bimodule folds, read from one ``fold_table``
per construction with one lookup per word and (l, r).

``ClassicalHochschild`` reads mu^M once per (vm, x), mu^B once per (beta,
x) and each bar generator's tag once, and keeps its relation rows keyed
by repr.

``cyclic_quotient`` is the one quotient by signed cyclic rotation
(representatives from ``cyclic_representative``, the projection p, the
differential p o d and the chain-map certificate), behind
``ConnesComplex`` and ``BarConnesComplex``.
"""
from __future__ import annotations

from itertools import islice, product

from .ainf import AInfAlgebra, compositions, from_dga
from .bimod import (
    AInfBimodule,
    diagonal_bimodule,
    tensor_inf,
)
from .cdga import KAlgebra, collect_coefficients, insertions, leibniz_column, times_base
from .grdlin import (
    ONE,
    Complex,
    GradedMap,
    GradedSpace,
    HomologyBasis,
    _Eliminator,
    chain_map_witness,
    cyclic_rotations,
    int_first,
    sparse_rank,
    vec_add,
    vec_add_term,
)
from .report import CertificateError, Report


def fold_table(bimodule: AInfBimodule) -> dict:
    """The bimodule folds by window: {(l, r): {(tail, head): [(vm, column)]}}
    in ``bimodule.arities`` order, for each stored input tail + (vm,) + head
    of mu_{l,r}; the (0, 0) entries, at ((), ()), are the module
    differential.  The columns are the stored ones: read, never mutate."""
    table = {}
    for l, r in bimodule.arities:
        inputs = ([((vm,), bimodule.mu_word(0, 0, (vm,))) for vm in bimodule.kmodule.gens.labels()]
                  if (l, r) == (0, 0) else bimodule.tables[(l, r)].items())
        windows = table[(l, r)] = {}
        for key, column in inputs:
            if column:
                windows.setdefault((key[:l], key[l + 1:]), []).append((key[l], column))
    return table


class HochschildComplex:
    """HH_k(R, M) truncated at Hochschild degree h_max.

    ``shift``: added to every total degree (s^{-1} for HH_k(R) means
    shift=+1); labels are unchanged and no signs are introduced.
    ``normalized``: drop basis elements whose x-part contains s1.
    Columns are built per word, one per (unit, vm, xs), and extended over
    b by ``cdga.leibniz_column``; the enumerator and fold table then go.
    """

    def __init__(self, algebra: AInfAlgebra, bimodule: AInfBimodule, h_max,
                 shift=0, normalized=False):
        if bimodule.left is not None and bimodule.left.gens != algebra.gens:
            raise ValueError("coefficients must be a bimodule over the algebra")
        self.algebra = algebra
        self.bimodule = bimodule
        self.h_max = int(h_max)
        self.shift = int(shift)
        self.normalized = normalized
        self.base = base = algebra.base
        unit = algebra.unit
        gen_labels = [x for x in algebra.gens.labels()
                      if not (normalized and x == unit)]
        if normalized and unit is None:
            raise ValueError("normalization needs a unital algebra")
        terms = insertions(base, algebra.mu_word, algebra.arities, algebra.gens.degree)
        folds = fold_table(bimodule)
        basis, entries = [], {}
        for n in range(0, self.h_max + 1):
            for xs in product(gen_labels, repeat=n):
                for label, deg, col in self._word_columns(xs, terms, folds):
                    basis.append((label, deg))
                    if col:
                        entries[label] = col
        del terms, folds
        self.space = GradedSpace(basis)
        self.d = GradedMap(self.space, self.space, 1, entries)
        self.complex = Complex(self.space, self.d)

    def hochschild_degree(self, label):
        return len(label[2])

    def _word_columns(self, xs, terms, folds):
        """Yield (label, degree, d label) for the labels (b, vm, xs) in basis
        order, b outer and vm inner.  One unit column per vm holds mu's
        insertions ``terms`` and the rotated ``folds``; ``cdga.leibniz_column``
        extends it over b.  A normalized complex skips each insertion that
        outputs the unit, the only way in for it: a fold outputs a sub-word
        of xs."""
        alg, base, m_degree = self.algebra, self.base, self.bimodule.kmodule.gens.degree
        n = len(xs)
        # (b) (mu_{l,r}^M (x) id^s) o t_{1+n}^l reads the window (xs[n-l:], vm,
        # xs[:r]) and leaves xs[r:n-l]: one lookup per (l, r) for every vm
        hits, top = {}, -1
        for (l, r), windows in folds.items():
            if l + r <= n and (found := windows.get((xs[n - l:], xs[:r]))):
                top = l
                for vm, column in found:
                    hits.setdefault(vm, []).append((l, xs[r:n - l], column))
        x_degrees = [alg.gens.degree[x] for x in xs]
        deg_xs = sum(x_degrees) + self.shift
        unit = alg.unit if self.normalized else None
        inserted, rotation = {}, {}
        for p in {deg % 2 for deg in m_degree.values()}:
            # (a) id^{1+r} (x) mu_s (x) id^t on the x-string; mu moves past m,
            # x_1..x_r together with its coefficient c
            inserted[p] = [(w, c, coeff, parity) for r, w, c, coeff, parity in terms(xs, p)
                           if w[r] != unit]
            # the parities of the rotations l = 0..top, the largest fold l found
            rotation[p] = [parity for _l, _rotated, parity in
                           islice(cyclic_rotations((None,) + xs, [p] + x_degrees), top + 1)]
        unit_columns = {}
        for vm in self.bimodule.kmodule.gens.labels():
            p = m_degree[vm] % 2
            out = unit_columns[vm] = {}
            for new_xs, c, coeff, parity in inserted[p]:
                vec_add_term(out, (c, vm, new_xs), -coeff if parity else coeff)
            for l, new_xs, column in hits.get(vm, ()):
                negate = rotation[p][l]
                for (c, vm2), coeff in column.items():
                    vec_add_term(out, (c, vm2, new_xs), -coeff if negate else coeff)
        for b in base.space.labels():
            deg_b = base.degree(b)
            for vm, unit_column in unit_columns.items():
                yield ((b, vm, xs), deg_b + m_degree[vm] + deg_xs,
                       leibniz_column(base, b, (vm, xs), unit_column))

    def project_to_coefficients(self) -> GradedMap:
        """The Hochschild-degree-0 projection onto M (a chain map when the
        coefficients are symmetric, Lemma 3.7.11 shape)."""
        entries = {(b, vm, xs): {(b, vm): ONE} for (b, vm, xs) in self.space.labels()
                   if not xs}
        return GradedMap(self.space, self._coefficient_space(), 0, entries)

    def _coefficient_space(self) -> GradedSpace:
        return GradedSpace((label, deg + self.shift)
                           for label, deg in self.bimodule.kmodule.total.basis)

    def coefficient_complex(self) -> Complex:
        shifted_target = self._coefficient_space()
        d = GradedMap(shifted_target, shifted_target, 1,
                      self.bimodule.kmodule.d.entries, check=False)
        return Complex(shifted_target, d, check=False)

    def include_coefficients(self) -> GradedMap:
        """M -> HH as the Hochschild-degree-0 part."""
        source = self._coefficient_space()
        entries = {(b, vm): {(b, vm, ()): ONE} for (b, vm) in source.labels()}
        return GradedMap(source, self.space, 0, entries)

    def __repr__(self):
        kind = "HH^n" if self.normalized else "HH"
        return (f"{kind}(rank={self.space.dim}, h_max={self.h_max}, "
                f"shift={self.shift})")


def hh_complex(algebra: AInfAlgebra, bimodule: AInfBimodule, h_max) -> HochschildComplex:
    return HochschildComplex(algebra, bimodule, h_max)


def hh_of_algebra(algebra: AInfAlgebra, h_max, normalized=False) -> HochschildComplex:
    """HH_k(R) = s^{-1} HH_k(R, sR)."""
    return HochschildComplex(algebra, diagonal_bimodule(algebra), h_max,
                             shift=1, normalized=normalized)


def normalized_hh(algebra: AInfAlgebra, bimodule: AInfBimodule, h_max):
    """The normalized complex together with the quotient chain map."""
    full = HochschildComplex(algebra, bimodule, h_max)
    reduced = HochschildComplex(algebra, bimodule, h_max, normalized=True)
    entries = {label: {label: ONE} for label in full.space.labels()
               if algebra.unit not in label[2]}
    quotient = GradedMap(full.space, reduced.space, 0, entries)
    if witness := chain_map_witness(quotient, full.d, reduced.d):
        raise CertificateError("normalized quotient failed to be a chain map", witness)
    return full, reduced, quotient


def stabilized_normalization_report(algebra: AInfAlgebra, h_max, t_min, t_max) -> Report:
    """Lemma-3.7.13-style certificate at finite truncation.

    The unnormalized truncation never stabilizes pointwise (its top
    Hochschild level contributes unkilled cycles in every total degree),
    so the faithful finite statement is: the quotient map induces an
    isomorphism from the stabilized unnormalized homology (the image of
    H^t at truncation h_max inside truncation h_max + 2) onto the
    normalized homology, which is itself stable in the window.  All three
    ranks are computed exactly.
    """
    report = Report(f"normalization quasi-iso (h={h_max}, window=[{t_min},{t_max}])")
    small = hh_of_algebra(algebra, h_max)
    big = hh_of_algebra(algebra, h_max + 2)
    norm_small = hh_of_algebra(algebra, h_max, normalized=True)
    norm = hh_of_algebra(algebra, h_max + 2, normalized=True)
    unit = algebra.unit
    for t in range(t_min, t_max + 1):
        hs = HomologyBasis(small.complex, t)
        hb = HomologyBasis(big.complex, t)
        hn = HomologyBasis(norm.complex, t)
        hn_small = HomologyBasis(norm_small.complex, t)
        r_inc = sparse_rank([hb.coords(rep) for rep in hs.representatives])
        r_comp = sparse_rank([hn.coords({lbl: c for lbl, c in rep.items() if unit not in lbl[2]})
                              for rep in hs.representatives])
        report.record(f"t={t} normalized stability", hn_small.dim == hn.dim,
                      (hn_small.dim, hn.dim))
        report.record(f"t={t} stabilized iso", r_inc == r_comp == hn.dim,
                      (r_inc, r_comp, hn.dim))
    return report


def filtration_report(hh: HochschildComplex) -> Report:
    """The differential never raises the Hochschild degree."""
    report = Report("hochschild filtration")
    # the defect of an entry src -> tgt is the rise in Hochschild degree
    report.record_first_defect(
        "d does not raise the Hochschild degree",
        ((src, tgt) for src, col in hh.d.entries.items() for tgt in col),
        lambda edge: max(0, hh.hochschild_degree(edge[1]) - hh.hochschild_degree(edge[0])))
    return report


# --- cyclic quotients ---------------------------------------------------------


def cyclic_representative(items, degrees):
    """The canonical representative of a tuple of graded factors under
    signed cyclic rotation: (the rotation with the least repr, its Koszul
    sign), or (None, 0) when the orbit dies (a rotation fixes the tuple
    with an odd sign)."""
    items = tuple(items)
    best = None
    seen_parities = {}
    for _l, rotated, parity in cyclic_rotations(items, degrees):
        if seen_parities.setdefault(rotated, parity) != parity:
            return None, 0
        key = repr(rotated)
        if best is None or key < best[0]:
            best = (key, rotated, parity)
    return best[1], -ONE if best[2] else ONE


def cyclic_quotient(space: GradedSpace, d: GradedMap, reduce, check):
    """The quotient of the complex (space, d) by signed cyclic rotation.

    ``reduce(label)`` gives (representative label, sign), the label None
    for a dead orbit.  Returns (projection p, quotient Complex) with the
    quotient differential p o d on the representatives.  The one
    certificate: p must be a chain map, p d = d p, else CertificateError
    with ``check`` and the witness of ``grdlin.chain_map_witness``.  Behind
    ``ConnesComplex`` and ``BarConnesComplex``.
    """
    reps = {}
    proj_entries = {}
    for label, deg in space.basis:
        rep, sign = reduce(label)
        if rep is None:
            continue
        reps[rep] = deg
        proj_entries[label] = {rep: sign}
    quotient = GradedSpace(reps.items())
    projection = GradedMap(space, quotient, 0, proj_entries)
    entries = {}
    for rep in quotient.labels():
        col = projection(d.entries.get(rep, {}))
        if col:
            entries[rep] = col
    quotient_d = GradedMap(quotient, quotient, 1, entries)
    complex_ = Complex(quotient, quotient_d)
    if witness := chain_map_witness(projection, d, quotient_d):
        raise CertificateError(check, witness)
    return projection, complex_


class ConnesComplex:
    """HC_k(R): the quotient of HH_k(R) by signed cyclic permutations."""

    def __init__(self, hh: HochschildComplex):
        if hh.bimodule.kmodule.gens != hh.algebra.gens:
            raise ValueError("Connes quotient needs the diagonal bimodule")
        self.hh = hh
        degree = hh.algebra.gens.degree

        def reduce(label):
            b, vm, xs = label
            factors = (vm,) + xs
            rep, sign = cyclic_representative(factors, [degree[x] for x in factors])
            if rep is None:
                return None, 0
            return (b, rep[0], rep[1:]), sign

        self.projection, self.complex = cyclic_quotient(
            hh.space, hh.d, reduce, "HC projection failed to be a chain map")
        self.space, self.d = self.complex.space, self.complex.d

    def __repr__(self):
        return f"HC(rank={self.space.dim}, h_max={self.hh.h_max})"


# --- the normalized contraction (Lemma 3.7.13 shape) --------------------------


class DegeneratePiece:
    """G_p = F_p / F_{p-1} of the s1-filtration of the degenerate part."""

    def __init__(self, hh: HochschildComplex, p):
        if hh.normalized:
            raise ValueError("G_p lives inside the unnormalized complex")
        unit = hh.algebra.unit
        self.hh = hh
        self.p = p
        self.unit = unit
        basis = []
        for (label, deg) in hh.space.basis:
            if self._in_gp(label):
                basis.append((label, deg))
        self.space = GradedSpace(basis)
        entries = {}
        for label, _ in basis:
            col = {t: c for t, c in hh.d.column(label).items()
                   if self._in_gp(t)}
            if col:
                entries[label] = col
        self.d = GradedMap(self.space, self.space, 1, entries)
        self.complex = Complex(self.space, self.d)

    def _in_gp(self, label):
        _b, _vm, xs = label
        p = self.p
        if len(xs) < p or xs[p - 1] != self.unit:
            return False
        return all(x != self.unit for x in xs[:p - 1])

    def contraction(self) -> GradedMap:
        """s_p: insert s1 at position p with the sign (-1)^{|m| + sum_{i<p} |x_i|}."""
        entries = {}
        alg = self.hh.algebra
        base = self.hh.base
        for (b, vm, xs) in self.space.labels():
            if len(xs) + 1 > self.hh.h_max:
                continue
            exponent = (base.degree(b)
                        + self.hh.bimodule.kmodule.gens.degree[vm]
                        + sum(alg.gens.degree[x] for x in xs[:self.p - 1]))
            sign = -ONE if exponent % 2 else ONE
            new_xs = xs[:self.p - 1] + (self.unit,) + xs[self.p - 1:]
            entries[(b, vm, xs)] = {(b, vm, new_xs): sign}
        return GradedMap(self.space, self.space, -1, entries)

    def contraction_identity_report(self) -> Report:
        """d s_p + s_p d = -id on G_p, on Hochschild degrees < h_max."""
        report = Report(f"contraction on G_{self.p}")
        s = self.contraction()
        lhs = self.d.compose(s) + s.compose(self.d)
        labels = (label for label in self.space.labels()
                  if len(label[2]) < self.hh.h_max)
        # the defect (d s_p + s_p d + id)(label) is nonempty exactly on failure
        report.record_first_defect(f"d s_{self.p} + s_{self.p} d = -id", labels,
                                   lambda label: vec_add(lhs.column(label), {label: ONE}))
        return report


# --- the classical Hochschild complex via B (x)_{R^e} M -----------------------


class ClassicalHochschild:
    """Def-2.2.11-style complex: B_k(R,R,R) (x)_{R^e} M by exact elimination.

    The two-sided bar construction is taken in its shifted presentation
    R (x)~_R R (the canonical identification of Obs-3.5.3 shape), where
    both R^e-module structures are plain structure maps.  The balanced
    tensor product is computed as the quotient of B (x) M by the span of

      u1(x) = mu_{1,0}^B(sx (x) b) (x) m
              - (-1)^{(|sx|+1)(|b|+|m|) + |m| + 1} b (x) mu_{0,1}^M(m (x) sx)
      u2(x) = mu_{0,1}^B(b (x) sx) (x) m
              - (-1)^{|b| + 1} b (x) mu_{1,0}^M(sx (x) m)

    whose signs are forced by requiring u(s1) = 0 (the unit degenerates)
    and certified by D-stability of the span; the quotient retracts onto
    the canonical basis (s1 (x) xs (x) s1) (x) m = m (x) xs.  Restricted
    to the rational base (the comparison oracle's habitat).

    Each generator is read once: a bar generator's tag ("z" on the
    canonical basis, "a" off it), mu^M_{0,1}(m, sx) and mu^M_{1,0}(sx, m)
    per (m, x), mu^B_{1,0}(sx, b) and mu^B_{0,1}(b, sx) per (b, x).  The
    relations go in in (b, m, x, u1/u2) order, each written straight
    under the eliminator's repr keys (``_Eliminator._key``) and inserted
    as it is; only a row that hits the basis is keyed by label again, for
    its witness.
    """

    def __init__(self, dga: KAlgebra, bimodule: AInfBimodule, h_max):
        if not dga.base.is_rational:
            raise ValueError("classical comparison is implemented over Q")
        self.dga = dga
        self.bimodule = bimodule
        self.h_max = int(h_max)
        alg = from_dga(dga)
        self.algebra = alg
        diag = diagonal_bimodule(alg)
        bar = tensor_inf(diag, diag, h_max)
        base = alg.base
        u = base.unit
        bg = bar.kmodule.gens
        mg = bimodule.kmodule.gens
        sdeg = alg.gens.degree
        unit = alg.unit
        # each bar generator's tag, once: "z" on the canonical basis, "a" off it
        tag = {beta: "z" if beta[0] == unit and beta[2] == unit else "a" for beta in bg.labels()}
        xs = [x for x in alg.gens.labels() if x != unit]  # the unit relations vanish identically

        elim = _Eliminator()
        keys, key_of = elim._keys, elim._key
        self._relation_count = 0

        def row(beta, vm, bar_col, m_col, negate):
            """bar_col (x) vm + (-1)^negate beta (x) m_col, keyed by the
            eliminator's repr key of each tagged label, as ``_keyed`` would
            key it.  The columns hold no zero and no integral Fraction, and
            over Q the labels of each part are distinct, so only a sum at a
            label of both parts is dropped or turned into int."""
            out = {}
            for (_1, b2), c in bar_col.items():
                label = (tag[b2], (b2, vm))
                out[keys.get(label) or key_of(label)] = c
            for (_1, vm2), c in m_col.items():
                label = (tag[beta], (beta, vm2))
                key = keys.get(label) or key_of(label)
                c = out.get(key, 0) + (-c if negate else c)
                if c:
                    out[key] = c.numerator if c.denominator == 1 else c
                else:
                    del out[key]
            return out

        def relate(witness, bar_col, m_col, negate):
            """Insert one relation row; it must not reduce onto the basis."""
            if relation := row(*witness[2:], bar_col, m_col, negate):
                self._relation_count += 1
                rrow, _ = elim._insert(relation, None)
                if rrow and elim._labels[min(rrow)][0] == "z":
                    raise CertificateError("relation span hit the basis", (witness, {
                        k: c for (_, k), c in elim._labelled(rrow).items()}))

        m_cols = {vm: [(x, bimodule.mu_word(0, 1, (vm, x)), bimodule.mu_word(1, 0, (x, vm)))
                       for x in xs] for vm in mg.labels()}
        for beta in bg.labels():
            beta_deg = bg.degree[beta]
            b_cols = [(bar.mu_word(1, 0, (x, beta)), bar.mu_word(0, 1, (beta, x))) for x in xs]
            for vm, cols in m_cols.items():
                m_deg = mg.degree[vm]
                for (x, right_m, left_m), (left_b, right_b) in zip(cols, b_cols):
                    # u1 subtracts with the sign (-1)^exp, u2 with (-1)^{|beta| + 1}
                    exp = (sdeg[x] + 1) * (beta_deg + m_deg) + m_deg + 1
                    relate(("u1", x, beta, vm), left_b, right_m, not exp % 2)
                    relate(("u2", x, beta, vm), right_b, left_m, beta_deg % 2)

        def quotient_d(beta, vm):
            """D(beta (x) vm) in the quotient, on the canonical basis."""
            rem, _ = elim._reduce(row(beta, vm, int_first(bar.mu_word(0, 0, (beta,))),
                                      int_first(bimodule.mu_word(0, 0, (vm,))),
                                      bg.degree[beta] % 2), None)
            rem = elim._labelled(rem)
            residue = {k: c for (kind, k), c in rem.items() if kind != "z"}
            if residue:
                raise CertificateError("balanced reduction left a residue", ((beta, vm), residue))
            return {(u, vm2, ys): c for (_tag, ((_vb, ys, _vb2), vm2)), c in rem.items()}

        # the shifted presentation sR (x)~_R sR is s^2 times the classical
        # two-sided bar; the +2 undoes that relabeling so the quotient lands
        # on M (x) (sR)^{(x)n} with its natural degrees
        basis, entries = [], {}
        for beta in bg.labels():
            if tag[beta] == "z":
                for vm in mg.labels():
                    basis.append(((u, vm, beta[1]), bg.degree[beta] + 2 + mg.degree[vm]))
                    if col := quotient_d(beta, vm):
                        entries[(u, vm, beta[1])] = col
        del bar, elim, m_cols
        self.space = GradedSpace(basis)
        self.d = GradedMap(self.space, self.space, 1, entries)
        self.complex = Complex(self.space, self.d)

    def __repr__(self):
        return f"ClassicalHochschild(dim={self.space.dim}, h_max={self.h_max})"


def classical_hh(dga: KAlgebra, bimodule: AInfBimodule, h_max) -> ClassicalHochschild:
    return ClassicalHochschild(dga, bimodule, h_max)


def compare_classical(classical: ClassicalHochschild,
                      ainf_hh: HochschildComplex):
    """An explicit degree-0 chain isomorphism classical -> A-infinity,
    found as a diagonal sign change of basis and verified exactly.

    Returns the GradedMap, or raises if no diagonal iso exists.
    """
    if set(classical.space.basis) != set(ainf_hh.space.basis):
        raise ValueError("the two complexes do not share a labeled basis")
    labels = classical.space.labels()
    classical_d, ainf_d = classical.d.entries, ainf_hh.d.entries
    # each label's incoming edges (w2, c), w2 in the order of classical_d
    incoming = {}
    for w2, col in classical_d.items():
        for v, c in col.items():
            incoming.setdefault(v, []).append((w2, c))
    sign = {}
    # propagate signs along the differential graph; an edge (w, x, y) asks
    # sign[w] = sign[v] * x / y, compared exactly without dividing
    order = sorted(labels, key=repr)
    for seed in order:
        if seed in sign:
            continue
        sign[seed] = 1
        stack = [seed]
        while stack:
            v = stack.pop()
            neighbours = []
            ainf_col = ainf_d.get(v, {})
            for w, c in classical_d.get(v, {}).items():
                a = ainf_col.get(w)
                if a is None:
                    raise ValueError(f"sparsity mismatch at {v!r} -> {w!r}")
                neighbours.append((w, a, c))
            for w2, c in incoming.get(v, ()):
                a = ainf_d.get(w2, {}).get(v)
                if a is None:
                    raise ValueError(f"sparsity mismatch at {w2!r} -> {v!r}")
                neighbours.append((w2, c, a))
            for w, x, y in neighbours:
                if x == y:
                    value = sign[v]
                elif x == -y:
                    value = -sign[v]
                else:
                    raise ValueError(f"non-sign ratio {x}/{y} at {v!r}")
                if w in sign:
                    if sign[w] != value:
                        raise ValueError("no diagonal isomorphism exists")
                else:
                    sign[w] = value
                    stack.append(w)
    iso = GradedMap(classical.space, ainf_hh.space, 0,
                    {v: {v: sign[v]} for v in labels})
    if witness := chain_map_witness(iso, classical.d, ainf_hh.d):
        raise CertificateError("diagonal sign map failed the chain-map check", witness)
    return iso


# --- functoriality (Obs 3.7.6) -------------------------------------------------


def hh_algebra_induced_map(f, source_hh: HochschildComplex,
                           target_hh: HochschildComplex) -> GradedMap:
    """HH_k(R) -> HH_k(S) induced by an algebra morphism f: R -> S, through
    the pair (f, f') with f'_{l,r} = f_{l+1+r} on the diagonal bimodules.

    On Hochschild degree n, for each split n_i + n_1 + (middle) = n the
    last n_i letters are rotated to the front (Koszul signs), f eats
    (front block, m, first block), and the middle letters are distributed
    over f-blocks; the summand lands in Hochschild degree (#f-blocks).
    """
    alg = source_hh.algebra
    base = alg.base
    unit = base.unit
    tgt_mgens = target_hh.bimodule.kmodule.gens
    tgt_agens = target_hh.algebra.gens

    def unit_column(vm, xs):
        pairs = ((unit, vm),) + tuple((unit, x) for x in xs)
        degs = [source_hh.bimodule.kmodule.gens.degree[vm]] + \
            [alg.gens.degree[x] for x in xs]
        out = {}
        for ni, rotated, parity in cyclic_rotations(pairs, degs):
            # rotated = (x_{n-ni+1}, .., x_n, m, x_1, .., x_{n-ni})
            for n1 in range(0, len(rotated) - ni):
                f_val = f.eval_f(rotated[:ni + 1 + n1])
                if not f_val:
                    continue
                rest = rotated[ni + 1 + n1:]
                for comp in compositions(len(rest)):
                    partials = f.blocks_apply(rest, comp)
                    for pair, gc in f_val.items():
                        for blocks, fc in partials:
                            word_degs = [tgt_mgens.degree[pair[1]]] + \
                                [tgt_agens.degree[y] for _, y in blocks]
                            sign, bvec, vs = collect_coefficients(base, word_degs,
                                                                  (pair,) + blocks)
                            for bb, cc in (bvec or {}).items():
                                term = gc * fc * cc
                                vec_add_term(out, (bb, vs[0], vs[1:]),
                                             -term if parity ^ (sign < 0) else term)
        return out

    # one column per (vm, xs), extended over b: the map has degree 0, so b
    # passes it without a sign
    labels = source_hh.space.labels()
    columns = {(vm, xs): unit_column(vm, xs) for b, vm, xs in labels if b == unit}
    entries = {label: col for label in labels
               if (col := times_base(base, label[0], columns[label[1:]], 0))}
    return GradedMap(source_hh.space, target_hh.space, 0, entries)


# --- the Connes complex of the bar coalgebra (Lemma 3.7.9 shape) ---------------


class BarConnesComplex:
    """HC of the non-counital bar coalgebra of an A-infinity algebra.

    Basis: (b, (w_0, .., w_m)) with w_i nonempty words of shifted algebra
    generators, up to signed cyclic rotation of the factors; the factor
    carrying w has degree deg(w) + 1 (an s^{-1}-letter), and there is no
    further overall shift -- this makes the Lemma-3.7.9 rotation map
    degree 0.  The differential d(b, words) = (d_R b, words) + (-1)^{|b|}
    b * d(unit, words) comes from ``cdga.leibniz_column``; d(unit, words) is
    the wordwise bar differential plus deconcatenation of one factor into
    two adjacent factors.  The deconcatenation sign is (-1)^{deg s^{-1}w'}
    on the split w -> (w', w''), the unique choice (together with ambient
    Koszul signs on shifted factor degrees) that squares to zero and makes
    the rotation map a chain map.  Letters are truncated at ``letter_max``
    in total (a subcomplex: the differential never raises the letter count).
    """

    def __init__(self, algebra: AInfAlgebra, letter_max, word_tuples=None):
        """``word_tuples``: the word tuples of the basis, spanning a
        differential-stable summand (e.g. the multilinear part over
        distinct hair letters); by default every tuple of at most
        ``letter_max`` letters."""
        self.algebra = algebra
        self.letter_max = int(letter_max)
        base = algebra.base
        self.base = base
        if word_tuples is None:
            word_tuples = self._word_tuples()
        self._terms = insertions(base, algebra.mu_word, algebra.arities, algebra.gens.degree)
        full, full_d_entries = {}, {}
        for words in word_tuples:
            unit_column = self._differential(words)
            for b in base.space.labels():
                full[(b, words)] = base.degree(b) + sum(self._factor_degree(w) for w in words)
                if col := leibniz_column(base, b, (words,), unit_column):
                    full_d_entries[(b, words)] = col
        del self._terms
        self.full_space = GradedSpace(full.items())
        for label, col in full_d_entries.items():
            outside = [w for w in col if w not in full]
            if outside:
                raise ValueError(f"word tuples not closed under d: {label!r} -> {outside[0]!r}")
        full_d = GradedMap(self.full_space, self.full_space, 1, full_d_entries)
        self.projection, self.complex = cyclic_quotient(
            self.full_space, full_d, lambda label: self.reduce_label(*label),
            "cyclic projection is not a chain map")
        self.space, self.d = self.complex.space, self.complex.d

    def _factor_degree(self, word):
        return sum(self.algebra.gens.degree[x] for x in word) + 1

    def _word_tuples(self):
        """Every tuple of nonempty words of 1..letter_max letters in all."""
        gens = self.algebra.gens.labels()
        def words_of(k):
            return list(product(gens, repeat=k))
        def rec(remaining, parts):
            if remaining == 0:
                if parts:
                    yield tuple(parts)
                return
            for k in range(1, remaining + 1):
                for w in words_of(k):
                    parts.append(w)
                    yield from rec(remaining - k, parts)
                    parts.pop()
        for total in range(1, self.letter_max + 1):
            yield from rec(total, [])

    def _differential(self, words) -> dict:
        """The column of (unit, words), once per word tuple; the constructor
        extends it over b by ``cdga.leibniz_column``."""
        unit = self.base.unit
        out = {}
        before = 0  # the degree of the factors before w
        for i, w in enumerate(words):
            head, tail = words[:i], words[i + 1:]
            # wordwise bar differential: mu moves past the factors before w
            # and w's own prefix together with its coefficient c
            for _r, new_word, c, coeff, parity in self._terms(w, before):
                vec_add_term(out, (c, head + (new_word,) + tail), -coeff if parity else coeff)
            # deconcatenations, sign (-1)^{deg s^{-1} w_1}
            for cut in range(1, len(w)):
                w1, w2 = w[:cut], w[cut:]
                negate = (before + self._factor_degree(w1)) % 2
                vec_add_term(out, (unit, head + (w1, w2) + tail), -1 if negate else 1)
            before += self._factor_degree(w)
        return out

    def reduce_label(self, b, words):
        """(b, representative of words) with its sign; (None, 1) for a
        dead orbit."""
        rep, sign = cyclic_representative(words, [self._factor_degree(w) for w in words])
        if rep is None:
            return None, ONE
        return (b, rep), sign

    def __repr__(self):
        return f"BarConnesComplex(rank={self.space.dim}, letters<={self.letter_max})"


def rotation_to_bar_hc(hc: ConnesComplex, target: BarConnesComplex) -> GradedMap:
    """HC_k(R) -> HC_k(bar R): x_0 (x) .. (x) x_n -> sum of rotations as
    single bar words, with the Koszul rotation signs (Lemma 3.7.9 shape)."""
    alg = hc.hh.algebra
    entries = {}
    for label in hc.space.labels():
        b, x0, xs = label
        letters = (x0,) + xs
        n1 = len(letters)
        if n1 > target.letter_max:
            continue
        degs = [alg.gens.degree[x] for x in letters]
        out = {}
        for _l, word, parity in cyclic_rotations(letters, degs):
            tlabel, tsign = target.reduce_label(b, (word,))
            if tlabel is not None:
                vec_add(out, {tlabel: -tsign if parity else tsign})
        if out:
            entries[label] = out
    return GradedMap(hc.space, target.space, 0, entries)
