"""The four benchmark workloads.

Each workload has a ``setup`` that builds and validates its fixture
inputs, a list of parts that call hochtrace's public API (the timed
work, ending with every library certificate), and for each part a
``verify`` that checks the outputs against pinned values outside the
timed region. See README.md in this directory for why each workload
exists and which layer it stresses.

Library access always goes through the ``lib`` namespace (module
objects), so the traced run's wrappers on module and class attributes
are the functions the workloads call.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from certify import map_digest, table_digest


@dataclass
class Part:
    name: str
    run: Callable          # (lib, inputs) -> result
    verify: Callable       # (result, checks) -> None
    pinned: bool = True    # sizes of the complexes it builds are pinned


@dataclass
class Workload:
    name: str
    setup: Callable        # (lib, seed, checks) -> inputs
    parts: list
    dominant: str          # the layer (see tracer.LAYERS) stated to dominate
    timeout_s: float       # one iteration longer than this is a failed operation


def _full_window(lib, cx):
    degs = cx.space.degrees()
    return lib.grdlin.homology_window(cx, degs[0], degs[-1])


# --- hh-build ----------------------------------------------------------------

HH_BUILD_H = 5
CLASSICAL_H = 3
SEEDED_H = 2
# the seed picks which random dgas are compared, not how many generators
# they have: a 4-generator draw costs ~1 s at h=2 against ~0.03 s for a
# 2-generator one, and 3-generator draws range from 0.17 to 0.31 s, which
# would make wall_s depend on the seed by up to 6%
SEEDED_GENERATORS = 2
SEEDED_DRAWS = 3


def _seeded_dgas(lib, seed):
    rng = random.Random(seed)
    found = []
    for _ in range(1000):
        dga = lib.fixtures.random_dga(rng)
        alg = lib.ainf.from_dga(dga)
        if alg.gens.dim == SEEDED_GENERATORS:
            found.append((dga, alg))
            if len(found) == SEEDED_DRAWS:
                return found
    raise RuntimeError(f"seed {seed}: fewer than {SEEDED_DRAWS} random dgas "
                       f"with {SEEDED_GENERATORS} generators")


def _hh_build_setup(lib, seed, checks):
    fx, ainf = lib.fixtures, lib.ainf
    cp2 = fx.fixture_algebra("cp2")
    mu3 = fx.mu3_algebra(n_max=7)
    cp2_dga = lib.cdga.cdga_as_kalgebra(fx.fixture_cdga("cp2"))
    cp2_from_dga = ainf.from_dga(cp2_dga)
    classical = [("cp2", cp2_dga, cp2_from_dga, CLASSICAL_H)]
    for i, (dga, alg) in enumerate(_seeded_dgas(lib, seed)):
        classical.append((f"random{i}", dga, alg, SEEDED_H))
    for name, alg in [("cp2", cp2), ("mu3", mu3)] + [(c[0] + ".dga", c[2]) for c in classical]:
        report = ainf.check_stasheff(alg, 4)
        checks.check(f"setup {name} stasheff", report.ok, report.first_failure)
    return {"cp2": cp2, "mu3": mu3,
            "classical": [(n, dga, alg, lib.bimod.diagonal_bimodule(alg), h)
                          for n, dga, alg, h in classical]}


def _hh_part(key):
    def run(lib, inputs):
        hh = lib.hoch.hh_of_algebra(inputs[key], HH_BUILD_H)   # d*d = 0 checked here
        return {"hh": hh, "window": _full_window(lib, hh.complex)}

    def verify(result, checks):
        # the part returned, so the constructor's d*d = 0 certificate passed
        checks.check(f"{key} d^2=0 certified", result["hh"].complex is not None)
        checks.pin(f"{key}.hh.d", map_digest(result["hh"].d))
        checks.pin(f"{key}.homology", result["window"])
    return Part(f"{key}_h{HH_BUILD_H}", run, verify)


def _classical_part(index, pinned):
    def run(lib, inputs):
        name, dga, alg, diag, h = inputs["classical"][index]
        cl = lib.hoch.classical_hh(dga, diag, h)
        ai = lib.hoch.hh_complex(alg, diag, h)
        iso = lib.hoch.compare_classical(cl, ai)     # raises unless a chain iso
        return {"name": name, "cl": cl, "ai": ai, "iso": iso,
                "windows": (_full_window(lib, cl.complex), _full_window(lib, ai.complex))}

    def verify(result, checks):
        name = result["name"]
        w_cl, w_ai = result["windows"]
        checks.check(f"{name} classical iso certified", result["iso"] is not None)
        checks.check(f"{name} classical homology = A-inf homology", w_cl == w_ai,
                     {"classical": w_cl, "ainf": w_ai})
        if pinned:
            checks.pin(f"classical_{name}.classical.d", map_digest(result["cl"].d))
            checks.pin(f"classical_{name}.ainf.d", map_digest(result["ai"].d))
            checks.pin(f"classical_{name}.iso", map_digest(result["iso"]))
            checks.pin(f"classical_{name}.homology", w_ai)
    label = "classical_cp2" if pinned else f"classical_random{index - 1}"
    return Part(label, run, verify, pinned=pinned)


# --- hh-homology --------------------------------------------------------------

HOMOLOGY_H = 9


def _homology_setup(lib, seed, checks):
    cp2 = lib.fixtures.fixture_algebra("cp2")
    report = lib.ainf.check_stasheff(cp2, 4)
    checks.check("setup cp2 stasheff", report.ok, report.first_failure)
    return {"cp2": cp2}


def _homology_run(lib, inputs):
    hh = lib.hoch.hh_of_algebra(inputs["cp2"], HOMOLOGY_H, normalized=True)
    window = _full_window(lib, hh.complex)
    bases = {}
    for t in hh.space.degrees():
        hb = lib.grdlin.HomologyBasis(hh.complex, t)
        bases[t] = (hb.dim, [hb.coords(rep) for rep in hb.representatives])
    return {"hh": hh, "window": window, "bases": bases}


def _homology_verify(result, checks):
    window = result["window"]
    for t, (dim, coords) in result["bases"].items():
        checks.check(f"H^{t} basis dim = window", dim == window.get(t), (dim, window.get(t)))
        units = all(c == {i: 1} for i, c in enumerate(coords))
        checks.check(f"H^{t} representatives have unit coords", units)
    checks.pin("hh.d", map_digest(result["hh"].d))
    checks.pin("homology", window)


# --- transfer -------------------------------------------------------------------

TRANSFER_H = 2
TRANSFER_B_MAX = 2


def _transfer_setup(lib, seed, checks):
    alg = lib.fixtures.mu3_algebra()
    m = lib.bimod.left_module_from_algebra(alg)
    report = lib.ainf.check_stasheff(alg, 4)
    checks.check("setup mu3 stasheff", report.ok, report.first_failure)
    report = lib.bimod.check_bimodule(m, 3)
    checks.check("setup mu3 left module", report.ok, report.first_failure)
    return {"alg": alg, "m": m, "rationals": lib.cdga.BaseCDGA.rationals()}


def _transfer_run(lib, inputs):
    alg, m = inputs["alg"], inputs["m"]
    tr = lib.transfer
    coev = tr.find_derived_coev(inputs["rationals"], alg.module, b_max=TRANSFER_B_MAX)
    rep = tr.transfer_explicit(alg, m, alg.module, coev, TRANSFER_H)
    return {"rep": rep,
            "chain": rep.chain_report(),
            "degree_zero": rep.degree_zero_report(m),
            "closed_form": tr.closed_form_transfer(rep, m)}


def _transfer_verify(result, checks):
    rep = result["rep"]
    for key in ("chain", "degree_zero"):
        report = result[key]
        checks.check(f"transfer {key} report", report.ok, report.first_failure)
    checks.check("closed form = composite", result["closed_form"] == rep.composite)
    checks.pin("transfer.composite", map_digest(rep.composite))
    checks.pin("transfer.trace", map_digest(rep.trace.map))
    checks.pin("transfer.v_star", map_digest(rep.v_star))


# --- wheel ----------------------------------------------------------------------

WHEEL_ALGEBRA_N = 4
WHEEL_GC_N = 3
# H of the one-loop complex at n=3 and its Sigma_3 characters on the
# permutations (1,2,3), (1,3,2), (2,3,1): trivial, standard and sign
WHEEL_DIMS = {0: 1, 1: 2, 2: 1}
WHEEL_CHARACTERS = {0: (1, 1, 1), 1: (2, 0, -1), 2: (1, -1, 1)}


def _wheel_setup(lib, seed, checks):
    return {}


def _wheel_algebra_run(lib, inputs):
    return {"alg": lib.wheeled.free_multilinear_algebra(WHEEL_ALGEBRA_N)}


def _wheel_algebra_verify(result, checks):
    alg = result["alg"]
    checks.check("free multilinear algebra has 71 generators", alg.gens.dim == 71, alg.gens.dim)
    checks.pin("wheel.algebra.mu", table_digest(alg.mu))


def _wheel_gc_run(lib, inputs):
    dims, chars = lib.wheeled.gc1_homology(WHEEL_GC_N, characters=True)
    return {"dims": dims, "chars": chars}


def _wheel_gc_verify(result, checks):
    dims, chars = result["dims"], result["chars"]
    checks.check("gc1(3) homology dims", dims == WHEEL_DIMS, dims)
    got = {k: tuple(v[p] for p in sorted(v)) for k, v in chars.items()}
    checks.check("gc1(3) characters trivial, standard, sign", got == WHEEL_CHARACTERS, got)


WORKLOADS = {
    w.name: w for w in [
        Workload(
            "hh-build", _hh_build_setup,
            [_hh_part("cp2"), _hh_part("mu3"), _classical_part(0, pinned=True)]
            + [_classical_part(i + 1, pinned=False) for i in range(SEEDED_DRAWS)],
            dominant="assembly", timeout_s=60),
        Workload(
            "hh-homology", _homology_setup,
            [Part(f"cp2_h{HOMOLOGY_H}n", _homology_run, _homology_verify)],
            dominant="elimination", timeout_s=60),
        Workload(
            "transfer", _transfer_setup,
            [Part("mu3_transfer", _transfer_run, _transfer_verify)],
            dominant="transfer", timeout_s=30),
        Workload(
            "wheel", _wheel_setup,
            [Part("free_multilinear_4", _wheel_algebra_run, _wheel_algebra_verify),
             Part("gc1_3", _wheel_gc_run, _wheel_gc_verify)],
            dominant="wheel", timeout_s=30),
    ]
}
