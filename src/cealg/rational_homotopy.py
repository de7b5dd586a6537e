"""Sphere models, the Hopf-fibration pushout, and flat-valued polynomial forms.

Sphere models are the minimal semifree algebras with the rational cohomology
of S^n; the n=4 model R[g4, g7], d g7 = g4^2 is the coefficient object for
the twisted seven-cocycles of the catalog.  Manifolds appear only through
polynomial de Rham complexes on R^n, where flatness checks and the radial
contraction homotopy are exact.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import lru_cache

from .dgca import (
    DGCAMorphism,
    NotClosed,
    Report,
    SemifreeDGCA,
    _generator_images,
    apply_d,
    apply_d_all,
    check_d_squared,
    make_dgca,
    make_morphism,
    set_generators_to_zero,
)
from .graded import (
    EVEN,
    Element,
    FACTORS,
    GeneratorDecl,
    GradedError,
    OutOfRange,
    _accumulate,
    make_signature,
)
from .linalg import cohomology_dims


@lru_cache(maxsize=None)
def sphere_model(n: int) -> SemifreeDGCA:
    """Minimal model of the n-sphere: one closed generator for odd n, the
    pair (g_n, g_{2n-1}) with d g_{2n-1} = g_n^2 for even n.  Cohomology is
    validated up to degree 3n at construction."""
    if n < 1:
        raise OutOfRange("sphere dimension must be >= 1")
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
    return alg


def hopf_sequence_check() -> Report:
    """Killing g4 in the 4-sphere model must give the free line on g7 with
    zero differential, the 7-sphere model."""
    fiber = set_generators_to_zero(sphere_model(4), ["g4"])
    ok = fiber == sphere_model(7)
    return Report(
        "hopf.pushout",
        "pass" if ok else "fail",
        details=("g4 -> 0 quotient is R[g7] with zero differential"
                 if ok else "g4 -> 0 quotient is not R[g7] with zero "
                 "differential"),
        pinned={"fiber_generators": len(fiber.sig)},
    )


@lru_cache(maxsize=None)
def poly_de_rham(n: int) -> SemifreeDGCA:
    """Polynomial differential forms on R^n: x_i in bidegree (0, even),
    dx_i in (1, even), d x_i = dx_i."""
    if n < 1:
        raise OutOfRange("dimension must be >= 1")
    decls = [GeneratorDecl("x", (i,), 0, EVEN) for i in range(1, n + 1)]
    decls += [GeneratorDecl("dx", (i,), 1, EVEN) for i in range(1, n + 1)]
    sig = make_signature(decls)
    images = {f"x^{i}": Element.generator(sig, f"dx^{i}")
              for i in range(1, n + 1)}
    alg = make_dgca(sig, images)
    rep = check_d_squared(alg)
    if not rep.ok:
        raise NotClosed(rep.details, residual=rep.residual)
    return alg


@lru_cache(maxsize=None)
def _euler_contraction(n: int) -> SemifreeDGCA:
    """poly_de_rham(n) with the Euler contraction dx^i -> x^i, of bidegree
    (-1, even), in place of d."""
    sig = poly_de_rham(n).sig
    return SemifreeDGCA(sig, _generator_images(sig, sig, {
        f"dx^{i}": Element.generator(sig, f"x^{i}") for i in range(1, n + 1)
    }, -1, "H"))


def radial_contraction(el: Element) -> Element:
    """The homotopy operator of the Poincare lemma.

    On a monomial of polynomial degree m and form degree k it contracts with
    the Euler vector field (`apply_d` of `_euler_contraction`) and divides
    by the weight m + k, the sum of its exponents; then d H + H d = id on
    every monomial of positive weight.  An element of no de Rham algebra
    raises a GradedError.
    """
    weighted = {m: c / w for m, c in el.terms.items()
                if (w := sum(e for _, e in m))}
    return apply_d(_euler_contraction(len(el.sig) // 2),
                   Element(el.sig, weighted))


def poincare_lemma_check(alg: SemifreeDGCA, forms: list[Element],
                         task_id: str = "derham.poincare") -> Report:
    """Each sampled form of the de Rham algebra `alg` must satisfy
    dH + Hd = id under the radial homotopy.

    This also exhibits every closed positive-degree form w as exact: with
    dw = 0 the identity reads d(Hw) = w, so no separate check is made."""
    for idx, w in enumerate(forms):
        if not w:
            continue
        h = radial_contraction(w)
        recomposed = apply_d(alg, h) + radial_contraction(apply_d(alg, w))
        if recomposed != w:
            return Report(task_id, "fail",
                          details=f"dH + Hd != id on sample {idx}",
                          residual=recomposed - w)
    return Report(task_id, "pass",
                  details=f"radial homotopy verified on {len(forms)} samples",
                  stats={"samples": len(forms)})


def flat_form_check(model: SemifreeDGCA, target: SemifreeDGCA,
                    images: dict[str, Element]) -> DGCAMorphism:
    """A flat model-valued form is exactly a DGCA morphism into the de Rham
    algebra `target`; for the 4-sphere model this enforces
    d(omega7) = omega4^2."""
    return make_morphism(model, target, images)


#: The coefficients -4..4 of `_random_form`, shared.
_COEFFS = tuple(Fraction(c) for c in range(-4, 5))


@lru_cache(maxsize=None)
def _dx_prefixes(dx0: int, n: int, k: int) -> tuple:
    """The canonical dx-prefix of every k-subset of 1..n, in
    `itertools.combinations` order, as a tuple of shared factors: dx^i has
    id dx0 + i."""
    return tuple(tuple(FACTORS[dx0 + i, 1] for i in subset)
                 for subset in itertools.combinations(range(1, n + 1), k))


def _random_form(rng: random.Random, alg: SemifreeDGCA, form_degree: int,
                 n_terms: int = 3, max_poly_degree: int = 2) -> Element:
    """Up to n_terms terms c dx^(i_1) ... dx^(i_k) x^(j_1) ... x^(j_m), with
    c in -4..4 (a zero term is skipped), i_1 < ... < i_k with k =
    form_degree, and m <= max_poly_degree; a form of bidegree
    (form_degree, 0) in the de Rham algebra `alg` on R^n, n half its
    generators.

    Each term takes one `rng.randrange` for the pair (c, k-subset), uniform
    over the 9 coefficients times the subsets in `itertools.combinations`
    order, then one for m and one per x index.  So each term's
    (coefficient, monomial) has the law of drawing the dx in random order
    and signing by that order's parity, since c's law is symmetric under
    sign.

    Monomials are built canonical: the subset's dx-prefix comes from
    `_dx_prefixes`, x^j has id x^1 + j - 1, and equal x factors merge into
    one power.  They hold shared factors (`graded.FACTORS`): built afresh,
    the factors were half of the flat-forms sampler's traced memory."""
    sig = alg.sig
    n = len(sig) // 2
    prefixes = _dx_prefixes(sig.gen_id("dx^1") - 1, n, form_degree)
    subsets = len(prefixes)
    x1 = sig.gen_id("x^1")
    terms = []
    for _ in range(n_terms):
        c, s = divmod(rng.randrange(9 * subsets), subsets)
        if c == 4:
            continue
        mono = list(prefixes[s])
        xs = sorted(rng.randrange(n)
                    for _ in range(rng.randrange(max_poly_degree + 1)))
        for g in (x1 + j for j in xs):
            if mono and mono[-1][0] == g:
                mono[-1] = FACTORS[g, mono[-1][1] + 1]
            else:
                mono.append(FACTORS[g, 1])
        terms.append((tuple(mono), _COEFFS[c]))
    return Element(sig, _accumulate({}, terms))


#: Samples per block of `forms_fiber_check`.  A full block's first shared
#: Leibniz call has 1,421-1,509 pairs (2,000 samples, seed 1), past the
#: kernel's gate (`batched.BATCH_PAIRS`); at 128 samples 14 of 16 blocks
#: miss it.  The sampler's tracemalloc peak is 0.56 MiB at 128 samples,
#: 1.13 MiB at 192, 1.34 MiB at 256 and 7.76 MiB with all 2,000 in one
#: block.
FIBER_BLOCK = 192


def forms_fiber_check(target: SemifreeDGCA, n_samples: int = 50,
                      seed: int = 2024) -> Report:
    """Samples the fiber sequence (closed 7-forms) -> (flat pairs) ->
    (closed 4-forms) on a deterministic pseudorandom family of forms in
    the de Rham algebra `target`, on at least one sample.

    Flat pairs are generated as (d eta, eta d eta + closed), which satisfies
    d omega7 = omega4^2 identically; fiber membership over omega4 = 0 is
    checked in both directions.

    Samples are drawn in blocks of FIBER_BLOCK, in the `rng` order of one
    sample at a time: per sample eta (a 3-form), a 6-form whose d is
    closed7, and bad7 (a 7-form), each by `_random_form`.  Each block makes
    two `apply_d_all` calls: d of every drawn form, then d omega4, d omega7
    and d closed7.  Per sample, in sample order, it then decides what
    `flat_form_check` decides as a chain map on g4, then g7: d omega4 = 0
    and d omega7 - omega4^2 = 0 for the flat pair (omega4, omega7), then
    d closed7 = 0 for (0, closed7) (a closed 7-form is flat over zero,
    forward).  The first failing sample is reported with that residual.
    The reverse direction is decided on d bad7, with no morphism built: the
    chain-map residual of {"g4": 0, "g7": bad7} on g7 is d bad7 - 0^2 =
    d bad7, so every bad7 with d bad7 != 0 is rejected (a non-closed
    7-form is not flat over zero); the pass report counts them in
    `stats["rejected_7forms"]`.
    """
    if len(target.sig) // 2 < 8:
        raise GradedError("fiber check needs at least 8 coordinates")
    if n_samples < 1:
        raise OutOfRange("the fiber check needs at least one sample")
    rng = random.Random(seed)
    rejected = 0
    for b0 in range(0, n_samples, FIBER_BLOCK):
        rep = _fiber_block(rng, target, b0, min(FIBER_BLOCK, n_samples - b0))
        if isinstance(rep, Report):
            return rep
        rejected += rep
    return Report("flatforms.fiber", "pass",
                  details=f"fiber sequence verified on {n_samples} samples",
                  stats={"samples": n_samples, "rejected_7forms": rejected},
                  pinned={"samples": n_samples})


def _fiber_block(rng: random.Random, target: SemifreeDGCA, b0: int,
                 size: int) -> Report | int:
    """Samples b0 .. b0 + size - 1 of `forms_fiber_check`: the fail report
    of the first failing one, or else the number of non-closed bad7 (each
    rejected by its own d bad7).  Its forms die when it returns, so that
    one block is alive at a time."""
    drawn = [_random_form(rng, target, k) for _ in range(size)
             for k in (3, 6, 7)]
    d_drawn = apply_d_all(target, drawn)
    omega4s, closed7s, d_bad7s = d_drawn[0::3], d_drawn[1::3], d_drawn[2::3]
    omega7s = [eta * w4 + c7
               for eta, w4, c7 in zip(drawn[0::3], omega4s, closed7s)]
    d_checked = apply_d_all(target, [x for trio in zip(omega4s, omega7s,
                                                         closed7s)
                                     for x in trio])
    for i, w4 in enumerate(omega4s):
        idx = b0 + i
        dw4, dw7, dc7 = d_checked[3 * i:3 * i + 3]
        if dw4:
            return _fiber_fail(f"sample {idx} unexpectedly not flat", dw4)
        sq = w4 * w4
        if dw7 != sq:
            return _fiber_fail(f"sample {idx} unexpectedly not flat",
                               dw7 - sq)
        if dc7:
            return _fiber_fail(f"closed 7-form sample {idx} rejected", dc7)
    return sum(1 for d_bad7 in d_bad7s if d_bad7)


def _fiber_fail(details: str, residual: Element) -> Report:
    return Report("flatforms.fiber", "fail", details=details,
                  residual=residual)

