"""Sphere models, the Hopf-fibration pushout, and flat-valued polynomial forms.

Sphere models are the minimal semifree algebras with the rational cohomology
of S^n; the n=4 model R[g4, g7], d g7 = g4^2 is the coefficient object for
the twisted seven-cocycles of the catalog.  Manifolds appear only through
polynomial de Rham complexes on R^n, where flatness checks and the radial
contraction homotopy are exact.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .dgca import (
    ChainMapViolation,
    DGCAMorphism,
    NotClosed,
    Report,
    SemifreeDGCA,
    apply_d,
    check_d_squared,
    make_dgca,
    make_morphism,
    set_generators_to_zero,
)
from .graded import (
    EVEN,
    Element,
    GeneratorDecl,
    GradedError,
    _accumulate,
    make_signature,
)
from .linalg import cohomology_dims


@dataclass
class SphereModel:
    n: int
    algebra: SemifreeDGCA
    cohomology: list[int]


@lru_cache(maxsize=None)
def sphere_model(n: int) -> SphereModel:
    """Minimal model of the n-sphere: one closed generator for odd n, the
    pair (g_n, g_{2n-1}) with d g_{2n-1} = g_n^2 for even n.  Cohomology is
    validated up to degree 3n at construction."""
    if n < 1:
        raise GradedError("sphere dimension must be >= 1")
    if n % 2 == 1:
        sig = make_signature([GeneratorDecl(f"g{n}", (), n, EVEN)])
        alg = make_dgca(sig, {})
    else:
        sig = make_signature([
            GeneratorDecl(f"g{n}", (), n, EVEN),
            GeneratorDecl(f"g{2 * n - 1}", (), 2 * n - 1, EVEN),
        ])
        gn = Element.generator(sig, f"g{n}")
        alg = make_dgca(sig, {f"g{2 * n - 1}": gn * gn})
    dims = cohomology_dims(alg, 3 * n)
    expected = [1 if k in (0, n) else 0 for k in range(3 * n + 1)]
    if dims != expected:
        raise GradedError(f"sphere model cohomology check failed: {dims}")
    return SphereModel(n, alg, dims)


def hopf_sequence_check() -> Report:
    """Killing g4 in the 4-sphere model must give the free line on g7 with
    zero differential, and the degree-4 projection must be a chain map whose
    composite through the quotient kills g4."""
    s4 = sphere_model(4).algebra
    fiber = set_generators_to_zero(s4, ["g4"])
    expected = sphere_model(7).algebra
    pushout_ok = fiber == expected

    line_sig = make_signature([GeneratorDecl("g4", (), 4, EVEN)])
    line = make_dgca(line_sig, {})
    base_map = make_morphism(line, s4, {"g4": Element.generator(s4.sig, "g4")})
    to_fiber = make_morphism(
        s4, fiber,
        {"g4": Element.zero(fiber.sig),
         "g7": Element.generator(fiber.sig, "g7")})
    from .dgca import compose

    composite = compose(base_map, to_fiber)
    kills_base = composite.image_of("g4").is_zero()

    ok = pushout_ok and kills_base
    return Report(
        "hopf.pushout",
        "pass" if ok else "fail",
        details=("g4 -> 0 quotient is R[g7] with zero differential; the "
                 "base class dies in the fiber" if ok else
                 f"pushout_ok={pushout_ok} kills_base={kills_base}"),
        pinned={"fiber_generators": len(fiber.sig)},
    )


@dataclass
class PolyDeRham:
    n: int
    algebra: SemifreeDGCA

    def x(self, i: int) -> Element:
        return Element.generator(self.algebra.sig, f"x^{i}")

    def dx(self, i: int) -> Element:
        return Element.generator(self.algebra.sig, f"dx^{i}")


@lru_cache(maxsize=None)
def poly_de_rham(n: int) -> PolyDeRham:
    """Polynomial differential forms on R^n: x_i in bidegree (0, even),
    dx_i in (1, even), d x_i = dx_i."""
    if n < 1:
        raise GradedError("dimension must be >= 1")
    decls = [GeneratorDecl("x", (i,), 0, EVEN) for i in range(1, n + 1)]
    decls += [GeneratorDecl("dx", (i,), 1, EVEN) for i in range(1, n + 1)]
    sig = make_signature(decls)
    images = {f"x^{i}": Element.generator(sig, f"dx^{i}")
              for i in range(1, n + 1)}
    pdr = PolyDeRham(n, make_dgca(sig, images))
    rep = check_d_squared(pdr.algebra)
    if not rep.ok:
        raise NotClosed(rep.details, residual=rep.residual)
    return pdr


def radial_contraction(pdr: PolyDeRham, el: Element) -> Element:
    """The homotopy operator of the Poincare lemma.

    On a monomial of polynomial degree m and form degree k it contracts with
    the Euler vector field and divides by the weight m + k; then
    d H + H d = id on every monomial of positive weight.
    """
    sig = pdr.algebra.sig
    terms = []
    for mono, coeff in el.terms.items():
        xs = [(g, e) for g, e in mono if sig.degrees[g] == 0]
        dxs = [(g, e) for g, e in mono if sig.degrees[g] == 1]
        weight = sum(e for _, e in xs) + len(dxs)
        if weight == 0:
            continue
        for j, (g, _) in enumerate(dxs):
            # dx^i -> x^i, crossing the j preceding dx factors
            i = sig.decls[g].indices[0]
            sign = -1 if j & 1 else 1
            pairs = [(sig.names[gg], ee) for gg, ee in mono if gg != g]
            pairs.append((f"x^{i}", 1))
            terms.append((coeff * Fraction(sign, weight), pairs))
    return Element.from_terms(sig, terms)


def poincare_lemma_check(pdr: PolyDeRham, forms: list[Element],
                         task_id: str = "derham.poincare") -> Report:
    """Each sampled form must satisfy dH + Hd = id under the radial homotopy.

    This also exhibits every closed positive-degree form w as exact: with
    dw = 0 the identity reads d(Hw) = w, so no separate check is made."""
    alg = pdr.algebra
    for idx, w in enumerate(forms):
        if not w:
            continue
        h = radial_contraction(pdr, w)
        recomposed = apply_d(alg, h) + radial_contraction(pdr, apply_d(alg, w))
        if recomposed != w:
            return Report(task_id, "fail",
                          details=f"dH + Hd != id on sample {idx}",
                          residual=recomposed - w)
    return Report(task_id, "pass",
                  details=f"radial homotopy verified on {len(forms)} samples",
                  stats={"samples": len(forms)})


@dataclass
class FlatGForm:
    model: SemifreeDGCA
    target: PolyDeRham
    assignment: DGCAMorphism


def flat_form_check(model: SemifreeDGCA, target: PolyDeRham,
                    images: dict[str, Element]) -> FlatGForm:
    """A flat model-valued form is exactly a DGCA morphism into the de Rham
    algebra; for the 4-sphere model this enforces d(omega7) = omega4^2."""
    assignment = make_morphism(model, target.algebra, images)
    return FlatGForm(model, target, assignment)


def _random_form(rng: random.Random, pdr: PolyDeRham, form_degree: int,
                 n_terms: int = 3, max_poly_degree: int = 2) -> Element:
    sig = pdr.algebra.sig
    n = pdr.n
    terms = []
    for _ in range(n_terms):
        coeff = Fraction(rng.randint(-4, 4))
        if not coeff:
            continue
        dxs = rng.sample(range(1, n + 1), form_degree)
        pairs = [(f"dx^{i}", 1) for i in dxs]
        for _ in range(rng.randint(0, max_poly_degree)):
            pairs.append((f"x^{rng.randint(1, n)}", 1))
        terms.append((coeff, pairs))
    return Element.from_terms(sig, terms)


def forms_fiber_check(target: PolyDeRham, n_samples: int = 50,
                      seed: int = 2024) -> Report:
    """Samples the fiber sequence (closed 7-forms) -> (flat pairs) ->
    (closed 4-forms) on a deterministic pseudorandom family.

    Flat pairs are generated as (d eta, eta d eta + closed), which satisfies
    d omega7 = omega4^2 identically; fiber membership over omega4 = 0 is
    checked in both directions.
    """
    if target.n < 8:
        raise GradedError("fiber check needs at least 8 coordinates")
    rng = random.Random(seed)
    alg = target.algebra
    s4 = sphere_model(4).algebra
    checked = 0
    for idx in range(n_samples):
        eta = _random_form(rng, target, 3)
        omega4 = apply_d(alg, eta)
        closed7 = apply_d(alg, _random_form(rng, target, 6))
        omega7 = eta * omega4 + closed7
        try:
            flat = flat_form_check(s4, target, {"g4": omega4, "g7": omega7})
        except ChainMapViolation as exc:
            return Report("flatforms.fiber", "fail",
                          details=f"sample {idx} unexpectedly not flat",
                          residual=exc.residual)
        # projection lands in closed 4-forms
        if apply_d(alg, flat.assignment.image_of("g4")):
            return Report("flatforms.fiber", "fail",
                          details=f"projection of sample {idx} not closed")
        # fiber over zero, forward direction: every closed 7-form is flat
        try:
            flat_form_check(s4, target,
                            {"g4": Element.zero(alg.sig), "g7": closed7})
        except ChainMapViolation as exc:
            return Report("flatforms.fiber", "fail",
                          details=f"closed 7-form sample {idx} rejected",
                          residual=exc.residual)
        # fiber over zero, reverse direction: flat with omega4 = 0 is closed
        if apply_d(alg, closed7):
            return Report("flatforms.fiber", "fail",
                          details=f"sample {idx} fiber element not closed")
        # non-closed 7-forms must be rejected over omega4 = 0
        bad7 = _random_form(rng, target, 7)
        if apply_d(alg, bad7):
            rejected = False
            try:
                flat_form_check(s4, target,
                                {"g4": Element.zero(alg.sig), "g7": bad7})
            except ChainMapViolation:
                rejected = True
            if not rejected:
                return Report("flatforms.fiber", "fail",
                              details=f"non-closed 7-form accepted at {idx}")
        checked += 1
    return Report("flatforms.fiber", "pass",
                  details=f"fiber sequence verified on {checked} samples",
                  stats={"samples": checked},
                  pinned={"samples": checked})


# -- JSON expression grammar for flat-form assignments ------------------------


def parse_form_expr(target: PolyDeRham, expr) -> Element:
    """Small expression grammar: integers or "p/q" strings are constants,
    {"x": i} and {"dx": i} are coordinate generators, {"sum": [...]} and
    {"prod": [...]} combine subexpressions."""
    sig = target.algebra.sig
    if isinstance(expr, int):
        return Element.scalar(sig, expr)
    if isinstance(expr, str):
        return Element.scalar(sig, Fraction(expr))
    if not isinstance(expr, dict) or len(expr) != 1:
        raise GradedError(f"bad form expression {expr!r}")
    (kind, val), = expr.items()
    if kind == "x":
        return Element.generator(sig, f"x^{val}")
    if kind == "dx":
        return Element.generator(sig, f"dx^{val}")
    if kind == "sum":
        acc = {}
        for sub in val:
            _accumulate(acc, parse_form_expr(target, sub).terms.items())
        return Element(sig, acc)
    if kind == "prod":
        out = Element.one(sig)
        for sub in val:
            out = out * parse_form_expr(target, sub)
        return out
    if kind == "const":
        return Element.scalar(sig, Fraction(val))
    raise GradedError(f"bad form expression key {kind!r}")


def flat_form_check_json(model: SemifreeDGCA, target: PolyDeRham,
                         assignment: dict) -> FlatGForm:
    images = {name: parse_form_expr(target, expr)
              for name, expr in assignment.items()}
    return flat_form_check(model, target, images)
