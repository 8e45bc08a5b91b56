"""Hochschild, Connes, and normalized complexes of A-infinity algebras,
bar constructions, the classical-dga comparison oracle, and the Connes
complex of the bar coalgebra.

Labels: a Hochschild basis element is (b, vm, xs) with b a base-cdga
basis label, vm a coefficient-module generator, xs a tuple of shifted
algebra generators; its Hochschild degree is len(xs).  HH_k(R) uses the
diagonal bimodule sR and an overall shift by s^{-1} (degrees +1, labels
unchanged, no signs).

The differential never raises the Hochschild degree, so truncation at
H_max is an honest subcomplex and d^2 = 0 holds exactly there.
"""
from __future__ import annotations

from itertools import product

from .ainf import AInfAlgebra, compositions
from .bimod import AInfBimodule, BimoduleMap, diagonal_bimodule
from .cdga import BaseCDGA, KAlgebra
from .grdlin import (
    ONE,
    Complex,
    GradedMap,
    GradedSpace,
    HomologyBasis,
    is_chain_map,
    vec_add,
    vec_add_term,
)
from .report import Report


def _rotations_with_parities(items, degrees, count):
    """Iterate (rotated items, sign parity) for 0..count rotations (last
    to front); the Koszul sign of a rotation is (-1)^parity."""
    current = list(items)
    degs = list(degrees)
    parity = 0
    yield tuple(current), parity
    for _ in range(count):
        moved = degs[-1]
        rest = sum(degs[:-1])
        parity ^= (moved * rest) % 2
        current = [current[-1]] + current[:-1]
        degs = [degs[-1]] + degs[:-1]
        yield tuple(current), parity


def _add_times_base(out, base, b, c, tail, coeff, negate):
    """out[(b*c,) + tail] += (-1)^negate coeff, with the product b*c of
    base basis labels expanded in the base's basis.

    b = unit skips the product (the validated unit axiom).
    """
    if b == base.unit:
        vec_add_term(out, (c,) + tail, -coeff if negate else coeff)
        return
    for b2, q in base.mul_basis(b, c).items():
        term = coeff * q
        vec_add_term(out, (b2,) + tail, -term if negate else term)


class HochschildComplex:
    """HH_k(R, M) truncated at Hochschild degree h_max.

    ``shift``: added to every total degree (s^{-1} for HH_k(R) means
    shift=+1); labels are unchanged and no signs are introduced.
    ``normalized``: drop basis elements whose x-part contains s1.
    """

    def __init__(self, algebra: AInfAlgebra, bimodule: AInfBimodule, h_max,
                 shift=0, normalized=False, check=True):
        if bimodule.left is not None and bimodule.left.gens != algebra.gens:
            raise ValueError("coefficients must be a bimodule over the algebra")
        self.algebra = algebra
        self.bimodule = bimodule
        self.h_max = int(h_max)
        self.shift = int(shift)
        self.normalized = normalized
        base = algebra.base
        self.base = base
        unit = algebra.unit
        gen_labels = [x for x in algebra.gens.labels()
                      if not (normalized and x == unit)]
        if normalized and unit is None:
            raise ValueError("normalization needs a unital algebra")
        basis = []
        for n in range(0, self.h_max + 1):
            for xs in product(gen_labels, repeat=n):
                for b in base.space.labels():
                    for vm in bimodule.kmodule.gens.labels():
                        deg = (base.degree(b)
                               + bimodule.kmodule.gens.degree[vm]
                               + sum(algebra.gens.degree[x] for x in xs)
                               + self.shift)
                        basis.append(((b, vm, xs), deg))
        self.space = GradedSpace(basis)
        entries = {}
        for (label, _deg) in basis:
            col = self.differential_column(label)
            if col:
                entries[label] = col
        self.d = GradedMap(self.space, self.space, 1, entries)
        self.complex = Complex(self.space, self.d, check=check)

    def hochschild_degree(self, label):
        return len(label[2])

    def _project(self, col):
        if not self.normalized:
            return col
        unit = self.algebra.unit
        return {label: c for label, c in col.items()
                if unit not in label[2]}

    def differential_column(self, label) -> dict:
        """d_HH per Obs-3.7.2 shape: algebra insertions plus rotated
        bimodule folds; the k-coefficient is handled by migration.

        Signs are kept as parity bits and applied by negation."""
        b, vm, xs = label
        alg, bim, base = self.algebra, self.bimodule, self.base
        unit = base.unit
        n = len(xs)
        deg_b = base.degree(b)
        deg_m = bim.kmodule.gens.degree[vm]
        x_degs = [alg.gens.degree[x] for x in xs]
        x_pairs = tuple((unit, x) for x in xs)
        out = {}
        # (a) id^{1+r} (x) mu_s (x) id^t on the x-string (s >= 1); moving
        # mu past b, m, x_1..x_r, then the coefficient c back past m, x_1..x_r
        for s in range(1, n + 1):
            for r in range(0, n - s + 1):
                mig = deg_m + sum(x_degs[:r])
                inner = alg.eval_mu(x_pairs[r:r + s])
                for (c, y), coeff in inner.items():
                    negate = (deg_b + mig + base.degree(c) * mig) % 2
                    new_xs = xs[:r] + (y,) + xs[r + s:]
                    _add_times_base(out, base, b, c, (vm, new_xs), coeff, negate)
        # (b) (mu_{l,r}^M (x) id^s) o t_{1+n}^l
        factors = (vm,) + xs
        degrees = [deg_m] + x_degs
        for l, (rotated, rot_parity) in enumerate(
                _rotations_with_parities(factors, degrees, n)):
            # rotated = (x_{n-l+1}, .., x_n, vm, x_1, .., x_{n-l})
            rotated_pairs = tuple((unit, x) for x in rotated)
            negate = rot_parity ^ (deg_b % 2)
            for r in range(0, n - l + 1):
                value = bim.eval(l, r, rotated_pairs[:l + 1 + r])
                new_xs = rotated[l + 1 + r:]
                for (c, vm2), coeff in value.items():
                    _add_times_base(out, base, b, c, (vm2, new_xs), coeff, negate)
        return self._project(out)

    def project_to_coefficients(self) -> GradedMap:
        """The Hochschild-degree-0 projection onto M (a chain map when the
        coefficients are symmetric, Lemma 3.7.11 shape)."""
        target = self.bimodule.kmodule.total
        shifted_target = GradedSpace(
            (label, deg + self.shift) for label, deg in target.basis)
        entries = {}
        for (b, vm, xs) in self.space.labels():
            if not xs:
                entries[(b, vm, xs)] = {(b, vm): ONE}
        return GradedMap(self.space, shifted_target, 0, entries)

    def coefficient_complex(self) -> Complex:
        target = self.bimodule.kmodule.total
        shifted_target = GradedSpace(
            (label, deg + self.shift) for label, deg in target.basis)
        d = GradedMap(shifted_target, shifted_target, 1,
                      self.bimodule.kmodule.d.entries, check=False)
        return Complex(shifted_target, d, check=False)

    def include_coefficients(self) -> GradedMap:
        """M -> HH as the Hochschild-degree-0 part."""
        source = self.coefficient_complex().space
        entries = {(b, vm): {(b, vm, ()): ONE} for (b, vm) in source.labels()}
        return GradedMap(source, self.space, 0, entries)

    def __repr__(self):
        kind = "HH^n" if self.normalized else "HH"
        return (f"{kind}(rank={self.space.dim}, h_max={self.h_max}, "
                f"shift={self.shift})")


def hh_complex(algebra: AInfAlgebra, bimodule: AInfBimodule, h_max,
               normalized=False) -> HochschildComplex:
    return HochschildComplex(algebra, bimodule, h_max, shift=0,
                             normalized=normalized)


def hh_of_algebra(algebra: AInfAlgebra, h_max, normalized=False) -> HochschildComplex:
    """HH_k(R) = s^{-1} HH_k(R, sR)."""
    return HochschildComplex(algebra, diagonal_bimodule(algebra), h_max,
                             shift=1, normalized=normalized)


def normalized_hh(algebra: AInfAlgebra, bimodule: AInfBimodule, h_max):
    """The normalized complex together with the quotient chain map."""
    full = HochschildComplex(algebra, bimodule, h_max)
    reduced = HochschildComplex(algebra, bimodule, h_max, normalized=True)
    entries = {}
    unit = algebra.unit
    for label in full.space.labels():
        if unit not in label[2]:
            entries[label] = {label: ONE}
    quotient = GradedMap(full.space, reduced.space, 0, entries)
    if not is_chain_map(quotient, full.complex, reduced.complex):
        raise AssertionError("normalized quotient failed to be a chain map")
    return full, reduced, quotient


def stabilized_normalization_report(algebra: AInfAlgebra, h_max, t_min, t_max,
                                    step=2) -> Report:
    """Lemma-3.7.13-style certificate at finite truncation.

    The unnormalized truncation never stabilizes pointwise (its top
    Hochschild level contributes unkilled cycles in every total degree),
    so the faithful finite statement is: the quotient map induces an
    isomorphism from the stabilized unnormalized homology (the image of
    H^t at truncation h_max inside truncation h_max + step) onto the
    normalized homology, which is itself stable in the window.  All three
    ranks are computed exactly.
    """
    report = Report(f"normalization quasi-iso (h={h_max}, window=[{t_min},{t_max}])")
    small = hh_of_algebra(algebra, h_max)
    big = hh_of_algebra(algebra, h_max + step)
    norm_small = hh_of_algebra(algebra, h_max, normalized=True)
    norm = hh_of_algebra(algebra, h_max + step, normalized=True)
    unit = algebra.unit
    for t in range(t_min, t_max + 1):
        hs = HomologyBasis(small.complex, t)
        hb = HomologyBasis(big.complex, t)
        hn = HomologyBasis(norm.complex, t)
        hn_small = HomologyBasis(norm_small.complex, t)
        rows_big, rows_comp = [], []
        for rep in hs.representatives:
            rows_big.append(hb.coords(rep))
            projected = {lbl: c for lbl, c in rep.items() if unit not in lbl[2]}
            rows_comp.append(hn.coords(projected))
        from .grdlin import sparse_rank
        r_inc = sparse_rank(rows_big)
        r_comp = sparse_rank(rows_comp)
        report.record(f"t={t} normalized stability", hn_small.dim == hn.dim,
                      (hn_small.dim, hn.dim))
        report.record(f"t={t} stabilized iso", r_inc == r_comp == hn.dim,
                      (r_inc, r_comp, hn.dim))
    return report


def filtration_report(hh: HochschildComplex) -> Report:
    """The differential never raises the Hochschild degree."""
    report = Report("hochschild filtration")
    bad = None
    for src, col in hh.d.entries.items():
        for tgt in col:
            if hh.hochschild_degree(tgt) > hh.hochschild_degree(src):
                bad = (src, tgt)
                break
        if bad:
            break
    report.record("d does not raise the Hochschild degree", bad is None, bad)
    return report


# --- cyclic quotients ---------------------------------------------------------


class CyclicWords:
    """The quotient of tuples-of-factors by signed cyclic rotation.

    ``degree_of``: factor label -> degree.  Each basis tuple is sent to a
    canonical rotation representative with a Koszul sign; orbits with a
    sign-reversing stabilizer die.
    """

    def __init__(self, degree_of):
        self.degree_of = degree_of

    def reduce(self, items):
        """Return (canonical tuple, sign) or (None, 0) for a dead orbit."""
        items = tuple(items)
        degs = [self.degree_of(x) for x in items]
        best = None
        best_parity = None
        seen_parities = {}
        for rotated, parity in _rotations_with_parities(items, degs, len(items) - 1):
            if seen_parities.get(rotated, parity) != parity:
                return None, ONE * 0
            seen_parities[rotated] = parity
            key = repr(rotated)
            if best is None or key < best[0]:
                best = (key, rotated)
                best_parity = parity
        return best[1], -ONE if best_parity else ONE


class ConnesComplex:
    """HC_k(R): the quotient of HH_k(R) by signed cyclic permutations."""

    def __init__(self, hh: HochschildComplex, check=True):
        if hh.bimodule.kmodule.gens != hh.algebra.gens:
            raise ValueError("Connes quotient needs the diagonal bimodule")
        self.hh = hh
        alg = hh.algebra
        self.cyclic = CyclicWords(lambda x: alg.gens.degree[x])
        basis = {}
        proj_entries = {}
        for (label, deg) in hh.space.basis:
            b, vm, xs = label
            rep, sign = self.cyclic.reduce((vm,) + xs)
            if rep is None:
                continue
            rep_label = (b, rep[0], rep[1:])
            basis[rep_label] = deg
            proj_entries[label] = {rep_label: sign}
        self.space = GradedSpace(basis.items())
        self.projection = GradedMap(hh.space, self.space, 0, proj_entries)
        entries = {}
        for rep_label in self.space.labels():
            col = self.projection(hh.d.column(rep_label))
            if col:
                entries[rep_label] = col
        self.d = GradedMap(self.space, self.space, 1, entries)
        self.complex = Complex(self.space, self.d, check=check)
        if check and not is_chain_map(self.projection, hh.complex, self.complex):
            raise AssertionError("HC projection failed to be a chain map")

    def __repr__(self):
        return f"HC(rank={self.space.dim}, h_max={self.hh.h_max})"


def hc_complex(algebra: AInfAlgebra, h_max) -> ConnesComplex:
    return ConnesComplex(hh_of_algebra(algebra, h_max))


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
        witness = None
        for label in self.space.labels():
            if len(label[2]) >= self.hh.h_max:
                continue
            got = lhs.column(label)
            want = {label: -ONE}
            if got != want:
                witness = (label, got)
                break
        report.record(f"d s_{self.p} + s_{self.p} d = -id", witness is None,
                      witness)
        return report


# --- the classical two-sided bar construction (unshifted levels) --------------


class BarConstruction:
    """B_k(R, R, R) for a dga R: levels R^{(x)(n+2)} with the alternating
    face differential, totalized with the sign (-1)^n on the internal
    differential; d^2 = 0 is asserted.

    Labels: ("bar", n, b, (v_0, .., v_{n+1})) with unshifted generator
    labels; total degree |b| + sum |v_i| - n.
    """

    def __init__(self, dga: KAlgebra, b_max, check=True):
        self.dga = dga
        self.b_max = int(b_max)
        base = dga.base
        self.base = base
        gens = dga.gens
        basis = []
        for n in range(0, self.b_max + 1):
            for vs in product(gens.labels(), repeat=n + 2):
                for b in base.space.labels():
                    deg = base.degree(b) + sum(gens.degree[v] for v in vs) - n
                    basis.append((("bar", n, b, vs), deg))
        self.space = GradedSpace(basis)
        entries = {}
        for (label, _deg) in basis:
            col = self._differential(label)
            if col:
                entries[label] = col
        self.d = GradedMap(self.space, self.space, 1, entries)
        self.complex = Complex(self.space, self.d, check=check)

    def _differential(self, label) -> dict:
        _tag, n, b, vs = label
        dga, base = self.dga, self.base
        gens = dga.gens
        degs = [gens.degree[v] for v in vs]
        out = {}
        # horizontal faces: sum (-1)^i id^i (x) mu (x) id^{n-i}; level 0 has
        # none (its face is the augmentation, not part of the differential)
        for i in range(0, n + 1) if n >= 1 else ():
            face_sign = -ONE if i % 2 else ONE
            prod = dga.mult.get((vs[i], vs[i + 1]), {})
            for (c, w), coeff in prod.items():
                mig = sum(degs[:i])
                msign = -ONE if (base.degree(c) * mig) % 2 else ONE
                new_vs = vs[:i] + (w,) + vs[i + 2:]
                for b2, q in base.mul_basis(b, c).items():
                    vec_add(out, {("bar", n - 1, b2, new_vs):
                                  face_sign * msign * coeff * q})
        # internal differential with the totalization sign (-1)^n
        tot_sign = -ONE if n % 2 else ONE
        for b2, q in base.d.column(b).items():
            vec_add(out, {("bar", n, b2, vs): tot_sign * q})
        b_sign = -ONE if base.degree(b) % 2 else ONE
        for i in range(0, n + 2):
            twist = dga.module.d_gen.get(vs[i], {})
            prefix = sum(degs[:i])
            sign = tot_sign * b_sign * (-ONE if prefix % 2 else ONE)
            for (c, w), coeff in twist.items():
                msign = -ONE if (base.degree(c) * prefix) % 2 else ONE
                new_vs = vs[:i] + (w,) + vs[i + 1:]
                for b2, q in base.mul_basis(b, c).items():
                    vec_add(out, {("bar", n, b2, new_vs):
                                  sign * msign * coeff * q})
        return out

    def augmentation(self) -> GradedMap:
        """eps: level 0 -> R, a_0 (x) a_1 -> a_0 a_1 (a chain map)."""
        target = self.dga.module.total
        entries = {}
        for label in self.space.labels():
            _tag, n, b, vs = label
            if n != 0:
                continue
            prod = self.dga.mult.get((vs[0], vs[1]), {})
            col = {}
            for (c, w), coeff in prod.items():
                for b2, q in self.base.mul_basis(b, c).items():
                    vec_add(col, {(b2, w): coeff * q})
            if col:
                entries[label] = col
        return GradedMap(self.space, target, 0, entries)

    def augmentation_is_chain_map(self) -> bool:
        eps = self.augmentation()
        return is_chain_map(eps, self.complex, self.dga.module.complex)

    def __repr__(self):
        return f"BarConstruction(levels<={self.b_max}, dim={self.space.dim})"


def bar_construction(dga: KAlgebra, b_max) -> BarConstruction:
    return BarConstruction(dga, b_max)


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
    """

    def __init__(self, dga: KAlgebra, bimodule: AInfBimodule, h_max, check=True):
        if not dga.base.is_rational:
            raise ValueError("classical comparison is implemented over Q")
        from .ainf import from_dga
        from .bimod import diagonal_bimodule, tensor_inf
        from .grdlin import _Eliminator
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

        def tensor_d(lab):
            beta, vm = lab
            out = {}
            for (_1, b2), c in bar.eval(0, 0, ((u, beta),)).items():
                vec_add_term(out, (b2, vm), c)
            negate = bg.degree[beta] % 2
            for (_1, vm2), c in bimodule.eval(0, 0, ((u, vm),)).items():
                vec_add_term(out, (beta, vm2), -c if negate else c)
            return out

        labels = [(beta, vm) for beta in bg.labels() for vm in mg.labels()]

        def canonical(lab):
            (vb, _ys, vb2), _vm = lab
            return vb == unit and vb2 == unit

        def wrap(lab):
            return ("z" if canonical(lab) else "a"), lab

        elim = _Eliminator()
        self._relation_count = 0
        for beta in bg.labels():
            beta_deg = bg.degree[beta]
            for vm in mg.labels():
                m_deg = mg.degree[vm]
                for x in alg.gens.labels():
                    if x == unit:
                        continue  # the unit relations vanish identically
                    row = {}
                    for (_1, b2), c in bar.eval(1, 0, ((u, x), (u, beta))).items():
                        vec_add_term(row, (b2, vm), c)
                    # subtracted with the sign (-1)^exp
                    exp = (sdeg[x] + 1) * (beta_deg + m_deg) + m_deg + 1
                    for (_1, vm2), c in bimodule.eval(
                            0, 1, ((u, vm), (u, x))).items():
                        vec_add_term(row, (beta, vm2), c if exp % 2 else -c)
                    if row:
                        self._relation_count += 1
                        rrow, _ = elim.insert({wrap(k): c for k, c in row.items()})
                        if check and rrow and min(rrow, key=repr)[0] == "z":
                            raise AssertionError("relation span hit the basis")
                    row = {}
                    for (_1, b2), c in bar.eval(0, 1, ((u, beta), (u, x))).items():
                        vec_add_term(row, (b2, vm), c)
                    # subtracted with the sign (-1)^{|beta| + 1}
                    for (_1, vm2), c in bimodule.eval(
                            1, 0, ((u, x), (u, vm))).items():
                        vec_add_term(row, (beta, vm2), -c if beta_deg % 2 else c)
                    if row:
                        self._relation_count += 1
                        rrow, _ = elim.insert({wrap(k): c for k, c in row.items()})
                        if check and rrow and min(rrow, key=repr)[0] == "z":
                            raise AssertionError("relation span hit the basis")

        def reduce_vec(vec):
            rem, _ = elim.reduce({wrap(k): c for k, c in vec.items()})
            out = {}
            for (tag, lab), c in rem.items():
                if tag != "z":
                    raise AssertionError("balanced reduction left a residue")
                (vb, ys, vb2), vm = lab
                out[(u, vm, ys)] = c
            return out

        # the shifted presentation sR (x)~_R sR is s^2 times the classical
        # two-sided bar; the +2 undoes that relabeling so the quotient lands
        # on M (x) (sR)^{(x)n} with its natural degrees
        basis = []
        for beta in bg.labels():
            vb, ys, vb2 = beta
            if vb != unit or vb2 != unit:
                continue
            for vm in mg.labels():
                deg = bg.degree[beta] + 2 + mg.degree[vm]
                basis.append(((u, vm, ys), deg))
        self.space = GradedSpace(basis)
        entries = {}
        for beta in bg.labels():
            vb, ys, vb2 = beta
            if vb != unit or vb2 != unit:
                continue
            for vm in mg.labels():
                col = reduce_vec(tensor_d((beta, vm)))
                if col:
                    entries[(u, vm, ys)] = col
        self.d = GradedMap(self.space, self.space, 1, entries)
        self.complex = Complex(self.space, self.d, check=check)

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
    sign = {}
    # propagate signs along the differential graph
    order = sorted(labels, key=repr)
    for seed in order:
        if seed in sign:
            continue
        sign[seed] = ONE
        stack = [seed]
        while stack:
            v = stack.pop()
            neighbours = []
            for w, c in classical.d.column(v).items():
                a = ainf_hh.d.column(v).get(w)
                if a is None:
                    raise ValueError(f"sparsity mismatch at {v!r} -> {w!r}")
                neighbours.append((w, a / c))
            for w2, col in classical.d.entries.items():
                c = col.get(v)
                if c is not None:
                    a = ainf_hh.d.column(w2).get(v)
                    if a is None:
                        raise ValueError(f"sparsity mismatch at {w2!r} -> {v!r}")
                    neighbours.append((w2, c / a))
            for w, ratio in neighbours:
                if ratio not in (ONE, -ONE):
                    raise ValueError(f"non-sign ratio {ratio} at {v!r}")
                value = sign[v] * ratio
                if w in sign:
                    if sign[w] != value:
                        raise ValueError("no diagonal isomorphism exists")
                else:
                    sign[w] = value
                    stack.append(w)
    iso = GradedMap(classical.space, ainf_hh.space, 0,
                    {v: {v: sign[v]} for v in labels})
    if not is_chain_map(iso, classical.complex, ainf_hh.complex):
        raise AssertionError("diagonal sign map failed the chain-map check")
    return iso


# --- functoriality (Obs 3.7.6) -------------------------------------------------


def hh_induced_map(f, g, source_hh: HochschildComplex,
                   target_hh: HochschildComplex) -> GradedMap:
    """The map HH(R, M) -> HH(S, N) induced by a pair (f, g) with
    f: R -> S an algebra morphism and g: M -> (f,f)^* N of degree 0.

    On Hochschild degree n, for each split n_i + n_1 + (middle) = n the
    last n_i letters are rotated to the front (Koszul signs), g eats
    (front block, m, first block), and the middle letters are distributed
    over f-blocks; the summand lands in Hochschild degree (#f-blocks).
    """
    alg = source_hh.algebra
    base = alg.base
    unit = base.unit
    tgt_mgens = target_hh.bimodule.kmodule.gens
    tgt_agens = target_hh.algebra.gens
    entries = {}
    for label in source_hh.space.labels():
        b, vm, xs = label
        n = len(xs)
        degs = [source_hh.bimodule.kmodule.gens.degree[vm]] + \
            [alg.gens.degree[x] for x in xs]
        out = {}
        for ni in range(0, n + 1):
            rot_sign = _cyclic_sign(degs, ni)
            head = xs[n - ni:]
            body = xs[:n - ni]
            for n1 in range(0, len(body) + 1):
                block1 = body[:n1]
                rest = body[n1:]
                g_pairs = (tuple((unit, x) for x in head) + ((unit, vm),)
                           + tuple((unit, x) for x in block1))
                g_val = g.eval(ni, n1, g_pairs)
                if not g_val:
                    continue
                comps = [()] if not rest else compositions(len(rest))
                for comp in comps:
                    partials = [((), ONE)]
                    offset = 0
                    for size in comp:
                        block = tuple((unit, x)
                                      for x in rest[offset:offset + size])
                        offset += size
                        image = f.eval_f(block)
                        partials = [(acc + (p,), c * q)
                                    for acc, c in partials
                                    for p, q in image.items()]
                        if not partials:
                            break
                    for (bm, vm2), gc in g_val.items():
                        for blocks, fc in partials:
                            coeff = rot_sign * gc * fc
                            b_acc = {bm: ONE}
                            ys = []
                            prefix_deg = tgt_mgens.degree[vm2]
                            for (cb, y) in blocks:
                                if base.degree(cb) % 2 and prefix_deg % 2:
                                    coeff = -coeff
                                new_acc = {}
                                for bb, cc in b_acc.items():
                                    for b3, q3 in base.mul_basis(bb, cb).items():
                                        vec_add(new_acc, {b3: cc * q3})
                                b_acc = new_acc
                                ys.append(y)
                                prefix_deg += tgt_agens.degree[y]
                            for bb, cc in b_acc.items():
                                for b3, q3 in base.mul_basis(b, bb).items():
                                    vec_add(out, {(b3, vm2, tuple(ys)):
                                                  coeff * cc * q3})
        if out:
            entries[label] = out
    return GradedMap(source_hh.space, target_hh.space, 0, entries)


def _cyclic_sign(degs, times):
    sign = ONE
    current = list(degs)
    for _ in range(times):
        moved = current[-1]
        rest = sum(current[:-1])
        if (moved * rest) % 2:
            sign = -sign
        current = [current[-1]] + current[:-1]
    return sign


def hh_algebra_induced_map(f, source_hh: HochschildComplex,
                           target_hh: HochschildComplex) -> GradedMap:
    """HH_k(R) -> HH_k(S) induced by an algebra morphism (pair (f, f'))."""
    from .bimod import BimoduleMap, diagonal_bimodule
    components = {}
    for n, table in f.components.items():
        for l in range(0, n):
            r = n - 1 - l
            components.setdefault((l, r), {}).update(table)
    fprime = BimoduleMap(source_hh.bimodule, target_hh.bimodule, 0, components,
                         check=False)
    return hh_induced_map(f, fprime, source_hh, target_hh)


# --- the Connes complex of the bar coalgebra (Lemma 3.7.9 shape) ---------------


class BarConnesComplex:
    """HC of the non-counital bar coalgebra of an A-infinity algebra.

    Basis: (b, (w_0, .., w_m)) with w_i nonempty words of shifted algebra
    generators, up to signed cyclic rotation of the factors; the factor
    carrying w has degree deg(w) + 1 (an s^{-1}-letter), and there is no
    further overall shift -- this makes the Lemma-3.7.9 rotation map
    degree 0.  The differential is wordwise bar differential plus
    deconcatenation of one factor into two adjacent factors; the
    deconcatenation sign is (-1)^{deg s^{-1}w'} on the split w -> (w', w''),
    the unique choice (together with ambient Koszul signs on shifted
    factor degrees) that squares to zero and makes the rotation map a
    chain map.  Letters are truncated at ``letter_max`` in total (a
    subcomplex: the differential never raises the letter count).
    """

    def __init__(self, algebra: AInfAlgebra, letter_max, check=True,
                 tuple_filter=None):
        """``tuple_filter``: optional predicate on word tuples restricting
        the basis to a differential-stable summand (e.g. the multilinear
        part over distinct hair letters)."""
        self.algebra = algebra
        self.letter_max = int(letter_max)
        base = algebra.base
        self.base = base
        gens = algebra.gens
        self.cyclic = CyclicWords(self._factor_degree)
        full = {}
        for total in range(1, self.letter_max + 1):
            for words in self._word_tuples(total):
                if tuple_filter is not None and not tuple_filter(words):
                    continue
                for b in base.space.labels():
                    deg = base.degree(b) + sum(self._factor_degree(w)
                                               for w in words)
                    full[(b, words)] = deg
        reps = {}
        proj_entries = {}
        for (b, words), deg in full.items():
            rep, sign = self.cyclic.reduce(words)
            if rep is None:
                continue
            reps[(b, rep)] = deg
            proj_entries[(b, words)] = {(b, rep): sign}
        self.full_space = GradedSpace(full.items())
        self.space = GradedSpace(reps.items())
        self.projection = GradedMap(self.full_space, self.space, 0, proj_entries)
        entries = {}
        for label in self.space.labels():
            col = self.projection(self._differential(label))
            if col:
                entries[label] = col
        self.d = GradedMap(self.space, self.space, 1, entries)
        self.complex = Complex(self.space, self.d, check=check)
        if check:
            full_d_entries = {}
            for label in self.full_space.labels():
                col = self._differential(label)
                if col:
                    full_d_entries[label] = col
            full_d = GradedMap(self.full_space, self.full_space, 1, full_d_entries)
            if not (self.projection.compose(full_d)
                    == self.d.compose(self.projection)):
                raise AssertionError("cyclic projection is not a chain map")

    def _factor_degree(self, word):
        return sum(self.algebra.gens.degree[x] for x in word) + 1

    def _word_tuples(self, total):
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
        yield from rec(total, [])

    def _differential(self, label) -> dict:
        b, words = label
        base = self.base
        alg = self.algebra
        out = {}
        deg_b = base.degree(b)
        fdegs = [self._factor_degree(w) for w in words]
        for i, w in enumerate(words):
            ambient = deg_b + sum(fdegs[:i])
            amb_sign = -ONE if ambient % 2 else ONE
            # wordwise bar differential
            letters = [alg.gens.degree[x] for x in w]
            for s in range(1, len(w) + 1):
                for r in range(0, len(w) - s + 1):
                    inner_sign = -ONE if sum(letters[:r]) % 2 else ONE
                    pairs = tuple((base.unit, x) for x in w[r:r + s])
                    value = alg.eval_mu(pairs)
                    for (c, y), coeff in value.items():
                        new_word = w[:r] + (y,) + w[r + s:]
                        mig = ambient + sum(letters[:r]) - deg_b
                        msign = (-ONE if (base.degree(c) * mig) % 2 else ONE)
                        new_words = words[:i] + (new_word,) + words[i + 1:]
                        for b2, q in base.mul_basis(b, c).items():
                            vec_add(out, {(b2, new_words):
                                          amb_sign * inner_sign * msign
                                          * coeff * q})
            # deconcatenations, sign (-1)^{deg s^{-1} w_1}
            for cut in range(1, len(w)):
                w1, w2 = w[:cut], w[cut:]
                sign = amb_sign * (-ONE if self._factor_degree(w1) % 2 else ONE)
                new_words = words[:i] + (w1, w2) + words[i + 1:]
                vec_add(out, {(b, new_words): sign})
        return out

    def reduce_label(self, b, words):
        rep, sign = self.cyclic.reduce(words)
        if rep is None:
            return None, ONE
        return (b, rep), sign

    def __repr__(self):
        return f"BarConnesComplex(rank={self.space.dim}, letters<={self.letter_max})"


def hc_of_bar(algebra: AInfAlgebra, letter_max) -> BarConnesComplex:
    return BarConnesComplex(algebra, letter_max)


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
        for i in range(n1):
            tail = sum(degs[:i])
            headd = sum(degs[i:])
            sign = -ONE if (tail * headd) % 2 else ONE
            word = letters[i:] + letters[:i]
            tlabel, tsign = target.reduce_label(b, (word,))
            if tlabel is not None:
                vec_add(out, {tlabel: sign * tsign})
        if out:
            entries[label] = out
    return GradedMap(hc.space, target.space, 0, entries)


# --- Hochschild homology of the bar monoid (Def 2.2.13 shape) -------------------


class BimonoidHochschild:
    """HH_R(A) of Def-2.2.13 shape for a monoid A in k-modules (R = k).

    Def 2.2.13 recovers the Hochschild complex of the non-unital k-algebra
    A when R = k; that case is realized here through the certified
    A-infinity machinery (A's multiplication as a shifted mu_2, the cyclic
    tensor powers as the Hochschild complex of the diagonal bimodule).
    For Lemma 2.2.14, A is the two-sided bar construction of a dga with
    the augmentation multiplication b . b' = b eps(b').

    The R != k case of Def 2.2.13 needs the genuinely bimodule-theoretic
    cyclic tensor (the two R-actions of B differ, so R is not central) and
    is out of reach of the k-central evaluation machinery here; see the
    decisions ledger for the blocking analysis.  B^{(*)_R 1}, the source
    of Lemma 2.2.14's inclusion, equals the classical Hochschild complex
    HH_k(R, R) and is available for every dga via ClassicalHochschild.
    """

    def __init__(self, dga: KAlgebra, b_max, n_limit, check=True):
        if not dga.base.is_rational:
            raise ValueError("implemented over Q")
        if dga.gens.dim != 1:
            raise NotImplementedError(
                "Def 2.2.13 over a noncentral base dga is not mechanized; "
                "see the decisions ledger")
        from .bimod import diagonal_bimodule
        self.dga = dga
        self.b_max = int(b_max)
        self.n_limit = int(n_limit)
        self.algebra = bar_epsilon_algebra_rational(dga, b_max)
        self.hh = HochschildComplex(self.algebra,
                                    diagonal_bimodule(self.algebra),
                                    max(n_limit - 1, 0), shift=1, check=check)
        self.space = self.hh.space
        self.d = self.hh.d
        self.complex = self.hh.complex

    def inclusion_of_level_one(self):
        """inc: A = B^{(*) 1} -> HH(A), the Hochschild-degree-0 subcomplex."""
        sub = self.hh.coefficient_complex()
        inc = self.hh.include_coefficients()
        return sub, inc

    def __repr__(self):
        return (f"BimonoidHochschild(rank={self.space.dim}, "
                f"b_max={self.b_max}, n<={self.n_limit})")


def bar_epsilon_algebra_rational(dga: KAlgebra, b_max) -> AInfAlgebra:
    """The bar construction of a rank-one dga (i.e. of k itself) with the
    multiplication b . b' = b eps(b'), as a non-unital A-infinity algebra
    over Q.  Generators are the bar basis elements, shifted by one."""
    bar = BarConstruction(dga, b_max)
    base = BaseCDGA.rationals()
    gen_list = [(label, deg - 1) for label, deg in bar.space.basis]
    gens = GradedSpace(gen_list)
    eps = bar.augmentation()
    mu1 = {}
    for label, _deg in gen_list:
        col = bar.d.column(label)
        if col:
            mu1[(label,)] = {("1", l2): -c for l2, c in col.items()}
    mu2 = {}
    for label, dega in gen_list:
        a_classical = dega + 1
        sign = -ONE if a_classical % 2 else ONE
        for label2, _d2 in gen_list:
            eps_val = eps.column(label2)
            if not eps_val:
                continue
            scalar = sum(eps_val.values())  # rank-one dga: eps lands on 1
            if not scalar:
                continue
            mu2[(label, label2)] = {("1", label): sign * scalar}
    return AInfAlgebra(base, gens, {1: mu1, 2: mu2}, 3)


def bimonoid_level_one(dga: KAlgebra, h_max) -> ClassicalHochschild:
    """B^{(*)_R 1} = B (x)_{R^e} R = the classical Hochschild complex
    HH_k(R, R) (Lemma 2.2.14's source), for any dga over Q."""
    from .ainf import from_dga
    from .bimod import AInfBimodule, dga_module_bimodule
    from .cdga import FreeKModule
    alg = from_dga(dga)
    # R itself as a classical R-R-bimodule (Obs 3.3.6 with M = R)
    kmod = FreeKModule(dga.base, dga.gens,
                       {v: col for v, col in dga.module.d_gen.items()})
    left = {}
    right = {}
    for (a, b2), col in dga.mult.items():
        left[(a, b2)] = dict(col)
        right[(a, b2)] = dict(col)
    bim = dga_module_bimodule(alg, alg, kmod, left_action=left,
                              right_action=right)
    return ClassicalHochschild(dga, bim, h_max)


def hh_bimonoid(dga: KAlgebra, b_max, n_limit) -> BimonoidHochschild:
    return BimonoidHochschild(dga, b_max, n_limit)
