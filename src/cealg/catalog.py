"""Named algebra constructions and the verifications tied to them.

Super-Minkowski translation algebras for d=3 and d=11, the brane cocycles
mu_{p+2}, the membrane extension (h3 with d h3 = -mu4), the five-brane
relation d mu7 = c mu4^2 with its exactly measured constant, the resolved
algebra with its homotopy equivalence data, the equivariant lift to the
4-sphere model, the super-Poincare algebra with its trace cocycles, and the
two-parameter seven-cocycle family on the resolved Poincare algebra.

Everything is cached per process: the expensive elements (mu7, its
differential, the iso-algebra variants) are computed once and shared by
tests, tasks and the CLI.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .clifford import (
    CliffordRep,
    Unsupported,
    build_clifford,
    quartic_fierz_check,
)
from .dgca import (
    ChainHomotopy,
    DGCAMorphism,
    Report,
    SemifreeDGCA,
    adjoin_generator,
    apply_d,
    check_homotopy,
    compose,
    identity_morphism,
    make_dgca,
    make_morphism,
)
from .graded import (
    EVEN,
    ODD,
    AlgebraSignature,
    Element,
    GeneratorDecl,
    GradedError,
    _accumulate,
    make_signature,
    transport,
)
from .linalg import CoboundaryDecision, is_coboundary
from .rational_homotopy import sphere_model


class CatalogError(GradedError):
    pass


class RepMismatch(CatalogError):
    pass


class ZeroCocycle(CatalogError):
    pass


class NotProportional(CatalogError):
    def __init__(self, msg, residual: Element | None = None):
        super().__init__(msg)
        self.residual = residual


@dataclass
class CatalogAlgebra:
    tag: str
    algebra: SemifreeDGCA
    rep: CliffordRep | None = None
    provenance: dict = field(default_factory=dict)


@dataclass
class BraneScanEntry:
    d: int
    n_label: int
    p: int
    closed: bool
    nontrivial: str | None  # "yes" | "no" | "capped"; None when not closed

    def __post_init__(self):
        if not self.closed:
            assert self.nontrivial is None


# -- super-Minkowski ---------------------------------------------------------


def _pairing_element(sig: AlgebraSignature, psi_ids, matrix, scale,
                     e_prefix=()) -> Element:
    """sum_{alpha,beta} M[alpha,beta] psi^alpha psi^beta (times a fixed sorted
    e-monomial prefix and an overall scale).  Only the symmetric part of M
    survives the commuting odd generators."""
    n = matrix.shape[0]
    assert all(x[0] < y[0] for x, y in zip(e_prefix, e_prefix[1:]))
    assert not e_prefix or e_prefix[-1][0] < min(psi_ids)
    terms = {}
    scale = Fraction(scale)
    for a in range(n):
        for b in range(a, n):
            if a == b:
                c = scale * int(matrix[a, a])
                if c:
                    terms[e_prefix + ((psi_ids[a], 2),)] = c
            else:
                c = scale * int(matrix[a, b] + matrix[b, a])
                if c:
                    terms[e_prefix + ((psi_ids[a], 1), (psi_ids[b], 1))] = c
    return Element(sig, terms)


def _frame(sig: AlgebraSignature, d: int, n_spin: int):
    e_ids = [sig.gen_id(f"e^{a}") for a in range(d)]
    psi_ids = [sig.gen_id(f"psi^{i}") for i in range(1, n_spin + 1)]
    return e_ids, psi_ids


@lru_cache(maxsize=None)
def _mink(d: int) -> CatalogAlgebra:
    rep = build_clifford(d)
    decls = [GeneratorDecl("e", (a,), 1, EVEN) for a in range(d)]
    decls += [GeneratorDecl("psi", (i,), 1, ODD) for i in range(1, rep.n_spin + 1)]
    sig = make_signature(decls)
    e_ids, psi_ids = _frame(sig, d, rep.n_spin)
    images = {}
    for a in range(d):
        images[f"e^{a}"] = _pairing_element(sig, psi_ids, rep.pairing((a,)), 1)
    alg = make_dgca(sig, images)
    return CatalogAlgebra(f"superMink({d},{rep.n_spin})", alg, rep,
                          {"d": d, "n_spin": rep.n_spin})


def super_minkowski(d: int, rep: CliffordRep) -> CatalogAlgebra:
    """CE algebra of the supertranslation algebra: d psi = 0,
    d e^a = psibar Gamma^a psi."""
    if rep.d != d:
        raise RepMismatch(f"representation is for d={rep.d}, not d={d}")
    cat = _mink(d)
    assert cat.rep is not None and cat.rep.d == rep.d
    return cat


def brane_cocycle(cat: CatalogAlgebra, p: int) -> Element:
    """mu_{p+2} = sum over ordered p-tuples of
    (C Gamma^{a1..ap}) psi psi e_{a1}...e_{ap}, e-indices lowered with eta.

    Implemented as p! times the sum over strictly increasing tuples.  Raises
    ZeroCocycle when the symmetric part of the pairing vanishes.
    """
    if cat.rep is None:
        raise CatalogError("catalog algebra carries no spinor representation")
    if p < 0:
        raise CatalogError("p must be nonnegative")
    rep = cat.rep
    sig = cat.algebra.sig
    e_ids, psi_ids = _frame(sig, rep.d, rep.n_spin)
    acc = {}
    weight = 1
    for k in range(2, p + 1):
        weight *= k
    for tup in itertools.combinations(range(rep.d), p):
        eta = 1
        for a in tup:
            eta *= rep.eta[a]
        prefix = tuple((e_ids[a], 1) for a in tup)
        _accumulate(acc, _pairing_element(sig, psi_ids, rep.pairing(tup),
                                          weight * eta, prefix).terms.items())
    out = Element(sig, acc)
    if not out:
        raise ZeroCocycle(
            f"pairing C Gamma^({p}) in d={rep.d} is fully antisymmetric")
    return out


@lru_cache(maxsize=None)
def _mu(d: int, p: int) -> Element:
    return brane_cocycle(_mink(d), p)


# -- the five-brane relation -------------------------------------------------


def proportionality_constant(lhs: Element, rhs: Element) -> Fraction:
    """The unique c with lhs = c * rhs, or NotProportional."""
    if lhs.is_zero():
        return Fraction(0)
    if rhs.is_zero():
        raise NotProportional("rhs is zero but lhs is not", residual=lhs)
    m0 = min(rhs.terms)
    c = lhs.coefficient(m0) / rhs.terms[m0]
    # compared in place: no stored coefficient is zero, so c = 0 fails on the
    # keys; the residual is built only to report a mismatch
    if (lhs.sig != rhs.sig or lhs.terms.keys() != rhs.terms.keys()
            or any(lhs.terms[m] != c * v for m, v in rhs.terms.items())):
        raise NotProportional(f"not proportional (tried c = {c})",
                              residual=lhs - c * rhs)
    return c


@lru_cache(maxsize=None)
def verify_m5_relation() -> Report:
    """Fully symbolic check that d mu7 is a single rational multiple of
    mu4 wedge mu4 in d=11, cross-checked against the sparse tensor path."""
    cat = _mink(11)
    alg = cat.algebra
    mu4 = _mu(11, 2)
    mu7 = _mu(11, 5)
    d_mu7 = apply_d(alg, mu7)
    mu4_sq = mu4 * mu4
    c = proportionality_constant(d_mu7, mu4_sq)
    fast = quartic_fierz_check(cat.rep, "mu7-relation")
    c_fast = Fraction(fast.pinned["c"]) if fast.pinned.get("c") else None
    agree = fast.ok and c_fast == c
    return Report(
        "m5.relation",
        "pass" if agree else "fail",
        details=(f"d mu7 = c mu4^2 with c = {c}; tensor path "
                 f"{'agrees' if agree else f'disagrees (got {c_fast})'}"),
        stats={
            "mu4_terms": len(mu4),
            "mu7_terms": len(mu7),
            "d_mu7_terms": len(d_mu7),
            "mu4_sq_terms": len(mu4_sq),
        },
        pinned={"c": f"{c.numerator}/{c.denominator}"},
    )


def measured_c() -> Fraction:
    rep = verify_m5_relation()
    if not rep.ok:
        raise NotProportional("five-brane relation did not verify")
    return Fraction(rep.pinned["c"])


# -- membrane extension and the five-brane cocycle ---------------------------


@lru_cache(maxsize=None)
def m2brane() -> CatalogAlgebra:
    """Adjoin h3 with d h3 = -mu4: the homotopy fiber of the membrane cocycle."""
    cat = _mink(11)
    alg = adjoin_generator(cat.algebra, GeneratorDecl("h3", (), 3, EVEN),
                           _mu(11, 2), lam=-1)
    return CatalogAlgebra("m2brane", alg, cat.rep)


@lru_cache(maxsize=None)
def m5_cocycle() -> tuple[Element, Report]:
    """The closed degree-7 element h3 mu4 + (1/c) mu7 of the membrane algebra."""
    c = measured_c()
    m2 = m2brane()
    sig = m2.algebra.sig
    h3 = Element.generator(sig, "h3")
    mu4 = transport(_mu(11, 2), sig)
    mu7 = transport(_mu(11, 5), sig)
    chi = h3 * mu4 + (1 / c) * mu7
    res = apply_d(m2.algebra, chi)
    rep = Report(
        "m5.cocycle",
        "pass" if not res else "fail",
        details=f"d(h3 mu4 + (1/c) mu7) with c = {c}",
        residual=res if res else None,
        stats={"cocycle_terms": len(chi)},
        pinned={"c": f"{c.numerator}/{c.denominator}",
                "cocycle_terms": len(chi)},
    )
    return chi, rep


# -- the resolved algebra and its homotopy equivalence -----------------------


@lru_cache(maxsize=None)
def resolved_minkowski() -> tuple[CatalogAlgebra, DGCAMorphism, DGCAMorphism,
                                  ChainHomotopy]:
    """Adjoin g4 (closed) and h3 with d h3 = g4 - mu4.

    Returns (algebra, p, iota, s) where p (h3 -> 0, g4 -> mu4) and the
    inclusion iota satisfy p after iota = id, and s (g4 -> h3) is the chain
    homotopy witnessing iota after p ~ id.
    """
    mink = _mink(11)
    with_g4 = adjoin_generator(mink.algebra, GeneratorDecl("g4", (), 4, EVEN),
                               Element.zero(mink.algebra.sig))
    res_alg = adjoin_generator(
        with_g4, GeneratorDecl("h3", (), 3, EVEN),
        Element.generator(with_g4.sig, "g4") - transport(_mu(11, 2), with_g4.sig),
    )
    cat = CatalogAlgebra("resolvedMink", res_alg, mink.rep)
    sig = res_alg.sig
    mink_alg = mink.algebra
    mu4 = _mu(11, 2)
    proj_images = {n: Element.generator(mink_alg.sig, n)
                   for n in mink_alg.sig.names}
    proj_images["h3"] = Element.zero(mink_alg.sig)
    proj_images["g4"] = mu4
    p = make_morphism(res_alg, mink_alg, proj_images)
    iota = make_morphism(mink_alg, res_alg,
                         {n: Element.generator(sig, n)
                          for n in mink_alg.sig.names})
    if compose(iota, p) != identity_morphism(mink_alg):
        raise CatalogError("p after iota is not the identity")
    s = ChainHomotopy(identity_morphism(res_alg), compose(p, iota),
                      {"g4": Element.generator(sig, "h3")})
    return cat, p, iota, s


def resolution_homotopy_report() -> Report:
    cat, p, iota, s = resolved_minkowski()
    rep = check_homotopy(identity_morphism(cat.algebra), compose(p, iota), s,
                         task_id="resolution.homotopy")
    rep.details = ("p after iota = id and id - iota p = d s + s d on all "
                   "generators" if rep.ok else rep.details)
    return rep


# -- the equivariant lift ----------------------------------------------------


@lru_cache(maxsize=None)
def equivariant_lift() -> tuple[DGCAMorphism, Report]:
    """The morphism from the 4-sphere model into the resolved algebra:
    g4 -> g4, g7 -> h3 (g4 + mu4) + (1/c) mu7, verified as a chain map,
    as a lift over the degree-4 coefficient line, and against the membrane
    restriction."""
    c = measured_c()
    cat, p, iota, s = resolved_minkowski()
    res_alg = cat.algebra
    sig = res_alg.sig
    s4 = sphere_model(4).algebra
    g4 = Element.generator(sig, "g4")
    h3 = Element.generator(sig, "h3")
    mu4 = transport(_mu(11, 2), sig)
    mu7 = transport(_mu(11, 5), sig)
    phi = make_morphism(s4, res_alg,
                        {"g4": g4, "g7": h3 * (g4 + mu4) + (1 / c) * mu7})

    line = coefficient_line(2).algebra  # R[g4], zero differential
    base_to_s4 = make_morphism(line, s4,
                               {"g4": Element.generator(s4.sig, "g4")})
    base_to_res = make_morphism(line, res_alg, {"g4": g4})
    over_base = compose(base_to_s4, phi) == base_to_res

    mink_alg = _mink(11).algebra
    cocycle_morphism = make_morphism(line, mink_alg, {"g4": _mu(11, 2)})
    projected = compose(base_to_s4, compose(phi, p))
    reproduces_mu4 = projected == cocycle_morphism

    m2 = m2brane()
    q_images = {n: Element.generator(m2.algebra.sig, n)
                for n in mink_alg.sig.names}
    q_images["h3"] = Element.generator(m2.algebra.sig, "h3")
    q_images["g4"] = Element.zero(m2.algebra.sig)
    q = make_morphism(res_alg, m2.algebra, q_images)
    chi, _ = m5_cocycle()
    restricts_to_m5 = compose(phi, q).image_of("g7") == chi

    ok = over_base and reproduces_mu4 and restricts_to_m5
    return phi, Report(
        "lift.equivariant",
        "pass" if ok else "fail",
        details=("chain map verified; lift over the degree-4 line, the mu4 "
                 "projection and the membrane restriction all agree"
                 if ok else
                 f"over_base={over_base} mu4_projection={reproduces_mu4} "
                 f"m5_restriction={restricts_to_m5}"),
        stats={"g7_image_terms": len(phi.image_of("g7"))},
        pinned={"c": f"{c.numerator}/{c.denominator}"},
    )


@lru_cache(maxsize=None)
def coefficient_line(p: int) -> CatalogAlgebra:
    """R[g_{p+2}] with zero differential: the coefficient object of a
    degree-(p+2) cocycle."""
    deg = p + 2
    sig = make_signature([GeneratorDecl(f"g{deg}", (), deg, EVEN)])
    return CatalogAlgebra(f"coefficientLine({p})", make_dgca(sig, {}))


# -- super-Poincare ----------------------------------------------------------


def _omega_pairs(d: int):
    return [(a, b) for a in range(d) for b in range(a + 1, d)]


@lru_cache(maxsize=None)
def super_poincare() -> CatalogAlgebra:
    """The d=11 super-Poincare CE algebra: rotational generators omega_{ab}
    on top of the supertranslations, with
    d omega^a_b = omega^a_c omega^c_b,
    d psi = (1/4) omega_{ab} Gamma^{ab} psi,
    d e^a = omega^a_b e^b + psibar Gamma^a psi.
    """
    mink = _mink(11)
    rep = mink.rep
    d = rep.d
    decls = list(mink.algebra.sig.decls)
    decls += [GeneratorDecl("omega", (a, b), 1, EVEN) for a, b in _omega_pairs(d)]
    sig = make_signature(decls)
    e_ids, psi_ids = _frame(sig, d, rep.n_spin)
    om_id = {(a, b): sig.gen_id(f"omega^{a},{b}") for a, b in _omega_pairs(d)}

    def w(a, b):  # omega_{ab} resolved to the stored a<b generator
        if a == b:
            return None, 0
        if a < b:
            return om_id[(a, b)], 1
        return om_id[(b, a)], -1

    images: dict[str, Element] = {}
    eta = rep.eta

    for a in range(d):
        terms = []
        for b in range(d):
            gid, sgn = w(a, b)
            if gid is None:
                continue
            # omega^a_b e^b = eta^aa omega_{ab} e^b
            terms.append((Fraction(eta[a] * sgn),
                          [(sig.names[gid], 1), (f"e^{b}", 1)]))
        el = Element.from_terms(sig, terms)
        el = el + _pairing_element(sig, psi_ids, rep.pairing((a,)), 1)
        images[f"e^{a}"] = el

    half = Fraction(1, 2)
    gamma2 = {(a, b): rep.gammas[a] @ rep.gammas[b] for a, b in _omega_pairs(d)}
    for i, alpha in enumerate(range(1, rep.n_spin + 1)):
        terms = []
        for a, b in _omega_pairs(d):
            row = gamma2[(a, b)][i]
            for j in range(rep.n_spin):
                if row[j]:
                    terms.append((half * int(row[j]),
                                  [(f"omega^{a},{b}", 1), (f"psi^{j + 1}", 1)]))
        images[f"psi^{alpha}"] = Element.from_terms(sig, terms)

    for a, b in _omega_pairs(d):
        terms = []
        for cc in range(d):
            g1, s1 = w(a, cc)
            g2, s2 = w(cc, b)
            if g1 is None or g2 is None:
                continue
            terms.append((Fraction(eta[cc] * s1 * s2),
                          [(sig.names[g1], 1), (sig.names[g2], 1)]))
        images[f"omega^{a},{b}"] = Element.from_terms(sig, terms)

    alg = make_dgca(sig, images)
    return CatalogAlgebra("superPoincare", alg, rep)


@lru_cache(maxsize=None)
def _omega_matrix(cat_tag: str) -> list[list[Element]]:
    """The matrix-valued one-form omega^a_b over the tagged algebra."""
    cat = {"superPoincare": super_poincare,
           "resolvedPoincare": resolved_poincare}[cat_tag]()
    sig = cat.algebra.sig
    rep = cat.rep
    d = rep.d
    mat: list[list[Element]] = []
    for a in range(d):
        row = []
        for b in range(d):
            if a == b:
                row.append(Element.zero(sig))
            elif a < b:
                row.append(Fraction(rep.eta[a])
                           * Element.generator(sig, f"omega^{a},{b}"))
            else:
                row.append(Fraction(-rep.eta[a])
                           * Element.generator(sig, f"omega^{b},{a}"))
        mat.append(row)
    return mat


def _matmul(p, q):
    d = len(p)
    sig = p[0][0].sig
    out = []
    for a in range(d):
        row = []
        for b in range(d):
            acc = {}
            for cc in range(d):
                if p[a][cc] and q[cc][b]:
                    _accumulate(acc, (p[a][cc] * q[cc][b]).terms.items())
            row.append(Element(sig, acc))
        out.append(row)
    return out


@lru_cache(maxsize=None)
def _omega_power(cat_tag: str, n: int) -> list[list[Element]]:
    if n == 1:
        return _omega_matrix(cat_tag)
    half = n // 2
    return _matmul(_omega_power(cat_tag, half), _omega_power(cat_tag, n - half))


@lru_cache(maxsize=None)
def trace_power(cat_tag: str, k: int) -> Element:
    """trace(omega^k), computed as sum_{a,c} (M^j)[a][c] (M^{k-j})[c][a]
    so only half-size matrix powers are ever materialized."""
    mat = _omega_matrix(cat_tag)
    sig = mat[0][0].sig
    d = len(mat)
    acc = {}
    if k == 1:
        for a in range(d):
            _accumulate(acc, mat[a][a].terms.items())
        return Element(sig, acc)
    pj = _omega_power(cat_tag, k // 2)
    pk = _omega_power(cat_tag, k - k // 2)
    for a in range(d):
        for cc in range(d):
            if pj[a][cc] and pk[cc][a]:
                _accumulate(acc, (pj[a][cc] * pk[cc][a]).terms.items())
    return Element(sig, acc)


@lru_cache(maxsize=None)
def lorentz_trace(k: int) -> tuple[Element, Report]:
    """tr(omega^k) for odd k in {3, 7}: closure verified symbolically, and
    the even traces tr(omega^{2m}) for 2m <= k+1 verified to vanish."""
    if k not in (3, 7):
        raise Unsupported("trace cocycles are k = 3 and k = 7")
    iso = super_poincare()
    tr = trace_power("superPoincare", k)
    d_tr = apply_d(iso.algebra, tr)
    even_ok = True
    even_terms = {}
    for m2 in range(2, k + 2, 2):
        ev = trace_power("superPoincare", m2)
        even_terms[str(m2)] = len(ev)
        if ev:
            even_ok = False
    ok = not d_tr and even_ok and bool(tr)
    rep = Report(
        f"iso.trace{k}",
        "pass" if ok else "fail",
        details=(f"tr(omega^{k}) closed; even traces up to {k + 1} vanish"
                 if ok else
                 f"closure residual {len(d_tr)} terms; even traces {even_terms}"),
        residual=d_tr if d_tr else None,
        stats={"trace_terms": len(tr), "even_trace_terms": even_terms},
        pinned={"trace_terms": len(tr)},
    )
    return tr, rep


@lru_cache(maxsize=None)
def resolved_poincare() -> CatalogAlgebra:
    """super-Poincare extended by g4 and h3 with d h3 = g4 - mu4; requires
    (and checks) that mu4 stays closed in the presence of the rotational
    generators."""
    iso = super_poincare()
    with_g4 = adjoin_generator(iso.algebra, GeneratorDecl("g4", (), 4, EVEN),
                               Element.zero(iso.algebra.sig))
    mu4 = transport(_mu(11, 2), with_g4.sig)
    alg = adjoin_generator(with_g4, GeneratorDecl("h3", (), 3, EVEN),
                           Element.generator(with_g4.sig, "g4") - mu4)
    return CatalogAlgebra("resolvedPoincare", alg, iso.rep)


def family_seven_cocycle(alpha, beta) -> tuple[DGCAMorphism, Report]:
    """The lift g7 -> (h3 + alpha tr omega^3)(g4 + mu4) + (1/c) mu7 +
    beta tr omega^7 on the resolved Poincare algebra, validated as a chain
    map; its omega -> 0 restriction must reproduce the equivariant lift."""
    return _family(Fraction(alpha), Fraction(beta))


@lru_cache(maxsize=None)
def _family(alpha: Fraction, beta: Fraction) -> tuple[DGCAMorphism, Report]:
    c = measured_c()
    rp = resolved_poincare()
    sig = rp.algebra.sig
    s4 = sphere_model(4).algebra
    g4 = Element.generator(sig, "g4")
    h3 = Element.generator(sig, "h3")
    mu4 = transport(_mu(11, 2), sig)
    mu7 = transport(_mu(11, 5), sig)
    image = (h3 + alpha * trace_power("resolvedPoincare", 3)) * (g4 + mu4) \
        + (1 / c) * mu7
    if beta:
        image = image + beta * trace_power("resolvedPoincare", 7)
    phi = make_morphism(s4, rp.algebra, {"g4": g4, "g7": image})

    # restriction omega -> 0 onto the resolved Minkowski algebra
    res_cat, _, _, _ = resolved_minkowski()
    res_alg = res_cat.algebra
    omega_names = [d.name for d in sig.decls if d.family == "omega"]
    kappa_images = {
        n: (Element.zero(res_alg.sig) if n in set(omega_names)
            else Element.generator(res_alg.sig, n))
        for n in sig.names
    }
    kappa = make_morphism(rp.algebra, res_alg, kappa_images)
    lift, _ = equivariant_lift()
    restricts = compose(phi, kappa) == lift

    rep = Report(
        "family",
        "pass" if restricts else "fail",
        details=(f"seven-cocycle family member (alpha={alpha}, beta={beta}) "
                 "is a chain map; omega->0 restriction matches the "
                 "equivariant lift" if restricts else
                 "omega->0 restriction does not match the equivariant lift"),
        stats={"alpha": str(alpha), "beta": str(beta),
               "g7_image_terms": len(image)},
        pinned={"alpha": str(alpha), "beta": str(beta),
                "c": f"{c.numerator}/{c.denominator}"},
    )
    return phi, rep


# -- brane scan --------------------------------------------------------------


def verify_brane_scan_entry(d: int, n_label: int, p: int,
                            cap: int | None = None) -> BraneScanEntry:
    """Closure decided symbolically; nontriviality by exact coboundary solve."""
    cat = _mink(d)
    if cat.rep.n_spin != n_label:
        raise Unsupported(
            f"(d={d}, N={n_label}) not supported; built-in rep has "
            f"N={cat.rep.n_spin}")
    mu = brane_cocycle(cat, p)
    res = apply_d(cat.algebra, mu)
    if res:
        return BraneScanEntry(d, n_label, p, False, None)
    kwargs = {} if cap is None else {"cap": cap}
    decision: CoboundaryDecision = is_coboundary(cat.algebra, mu, **kwargs)
    nontrivial = {"yes": "no", "no": "yes", "capped": "capped"}[decision.status]
    return BraneScanEntry(d, n_label, p, True, nontrivial)
