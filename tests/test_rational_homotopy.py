"""Sphere models, polynomial de Rham complexes, flat forms."""

import itertools
import random
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cealg import (
    ChainMapViolation,
    Element,
    apply_d,
    check_d_squared,
    cohomology_dims,
    flat_form_check,
    forms_fiber_check,
    hopf_sequence_check,
    poincare_lemma_check,
    poly_de_rham,
    radial_contraction,
    sphere_model,
)
from cealg import batched, dgca
from cealg import rational_homotopy as rh
from cealg.dgca import Report, make_dgca
from cealg.catalog import _mink
from cealg.graded import (EVEN, GeneratorDecl, GradedError, SignatureMismatch,
                          UnknownGenerator, make_signature)
from cealg.rational_homotopy import FIBER_BLOCK, _random_form
from fresh import kernel_memory
from test_graded import kernel_gate_at_zero, random_terms


def test_sphere_models():
    for n in (2, 3, 4, 7):
        want = [1 if k in (0, n) else 0 for k in range(3 * n + 1)]
        assert cohomology_dims(sphere_model(n), 3 * n) == want
    assert list(sphere_model(7).sig.names) == ["g7"]
    assert list(sphere_model(4).sig.names) == ["g4", "g7"]
    with pytest.raises(GradedError):
        sphere_model(0)


def test_s4_differential():
    alg = sphere_model(4)
    g4 = Element.generator(alg.sig, "g4")
    assert apply_d(alg, Element.generator(alg.sig, "g7")) == g4 * g4


def test_hopf_pushout():
    rep = hopf_sequence_check()
    assert rep.ok


def test_hopf_pushout_fails_on_a_wrong_fiber(monkeypatch):
    """A quotient other than R[g7] with zero differential fails the
    report: here killing g4 is made to keep the 4-sphere model whole."""
    monkeypatch.setattr(rh, "set_generators_to_zero", lambda alg, names: alg)
    rep = hopf_sequence_check()
    assert not rep.ok
    assert rep.pinned == {"fiber_generators": 2}


def test_poly_de_rham_basics():
    p1 = poly_de_rham(1)
    x = Element.generator(p1.sig, "x^1")
    dx = Element.generator(p1.sig, "dx^1")
    assert apply_d(p1, x) == dx
    assert apply_d(p1, dx).is_zero()
    assert (dx * dx).is_zero()
    p2 = poly_de_rham(2)
    x1, dx1, dx2 = (Element.generator(p2.sig, n)
                    for n in ("x^1", "dx^1", "dx^2"))
    # x1 dx2 is not closed; d = dx1 dx2
    form = x1 * dx2
    assert apply_d(p2, form) == dx1 * dx2
    for n in range(1, 9):
        assert check_d_squared(poly_de_rham(n)).ok


def test_radial_contraction_homotopy_identity():
    alg = poly_de_rham(4)
    rng = random.Random(11)
    forms = [_random_form(rng, alg, k, n_terms=4, max_poly_degree=3)
             for k in (1, 2, 3) for _ in range(10)]
    for w in forms:
        if not w:
            continue
        lhs = apply_d(alg, radial_contraction(w)) \
            + radial_contraction(apply_d(alg, w))
        assert lhs == w


def name_based_radial_contraction(el):
    """A reference radial homotopy: per dx factor, the word with dx^i
    replaced by x^i at its end, signed by the dx factors before it, divided
    by the weight and sorted by `Element.from_terms`."""
    sig = el.sig
    terms = []
    for mono, coeff in el.terms.items():
        xs = [(g, e) for g, e in mono if sig.degrees[g] == 0]
        dxs = [(g, e) for g, e in mono if sig.degrees[g] == 1]
        weight = sum(e for _, e in xs) + len(dxs)
        if weight == 0:
            continue
        for j, (g, _) in enumerate(dxs):
            i = sig.decls[g].indices[0]
            sign = -1 if j & 1 else 1
            pairs = [(sig.names[gg], ee) for gg, ee in mono if gg != g]
            pairs.append((f"x^{i}", 1))
            terms.append((coeff * Fraction(sign, weight), pairs))
    return Element.from_terms(sig, terms)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_radial_contraction_matches_the_name_based_rule(data):
    """On random forms of any degree, with x exponents up to 3 and mixed
    denominators, the contraction through `apply_d` equals the reference
    on the dict path and on the kernel (its pair gate at 0), and
    dH + Hd = id off the constant term."""
    alg = poly_de_rham(data.draw(st.integers(min_value=1, max_value=5)))
    w = Element(alg.sig, data.draw(random_terms(alg.sig)))
    want = name_based_radial_contraction(w)
    assert radial_contraction(w) == want
    with kernel_gate_at_zero():
        assert radial_contraction(w) == want
    lhs = (apply_d(alg, radial_contraction(w))
           + radial_contraction(apply_d(alg, w)))
    assert lhs == w - Element.scalar(alg.sig, w.coefficient(()))


def test_radial_contraction_needs_a_de_rham_algebra():
    """An element of no de Rham algebra raises, whether its generators
    have the degrees of coordinates and their differentials or not."""
    renamed = make_signature([GeneratorDecl("y", (1,), 0, EVEN),
                              GeneratorDecl("dy", (1,), 1, EVEN)])
    for sig in (sphere_model(4).sig, _mink(3).sig, renamed):
        with pytest.raises(SignatureMismatch):
            radial_contraction(Element.generator(sig, sig.names[0]))
    with pytest.raises(GradedError):
        radial_contraction(Element.generator(sphere_model(7).sig, "g7"))


def test_closed_forms_made_exact():
    pdr = poly_de_rham(8)
    sig = pdr.sig
    # the standard example: omega = dx1 dx2 dx3 dx4 with witness x1 dx2 dx3 dx4
    w = Element.from_terms(
        sig, [(1, [("dx^1", 1), ("dx^2", 1), ("dx^3", 1), ("dx^4", 1)])])
    h = radial_contraction(w)
    want = Fraction(1, 4) * (
        Element.from_terms(sig, [(1, [("x^1", 1), ("dx^2", 1), ("dx^3", 1), ("dx^4", 1)])])
        - Element.from_terms(sig, [(1, [("x^2", 1), ("dx^1", 1), ("dx^3", 1), ("dx^4", 1)])])
        + Element.from_terms(sig, [(1, [("x^3", 1), ("dx^1", 1), ("dx^2", 1), ("dx^4", 1)])])
        - Element.from_terms(sig, [(1, [("x^4", 1), ("dx^1", 1), ("dx^2", 1), ("dx^3", 1)])]))
    assert h == want
    assert apply_d(pdr, h) == w
    # explicit exactness witness of the stated shape also works
    witness = Element.from_terms(
        sig, [(1, [("x^1", 1), ("dx^2", 1), ("dx^3", 1), ("dx^4", 1)])])
    assert apply_d(pdr, witness) == w
    assert poincare_lemma_check(pdr, [w]).ok


def test_flat_form_examples():
    pdr = poly_de_rham(8)
    sig = pdr.sig
    s4 = sphere_model(4)
    w4 = Element.from_terms(
        sig, [(1, [("dx^1", 1), ("dx^2", 1), ("dx^3", 1), ("dx^4", 1)])])
    flat = flat_form_check(s4, pdr, {"g4": w4, "g7": Element.zero(sig)})
    assert flat.image_of("g4") == w4

    w4b = w4 + Element.from_terms(
        sig, [(1, [("dx^5", 1), ("dx^6", 1), ("dx^7", 1), ("dx^8", 1)])])
    w7 = Element.from_terms(
        sig, [(2, [("x^1", 1)] + [(f"dx^{i}", 1) for i in range(2, 9)])])
    flat_form_check(s4, pdr, {"g4": w4b, "g7": w7})

    with pytest.raises(ChainMapViolation) as exc:
        flat_form_check(s4, pdr, {"g4": w4b, "g7": Element.zero(sig)})
    assert exc.value.residual is not None
    assert not exc.value.residual.is_zero()


def test_flat_form_check_rejects_non_closed_omega4():
    """The chain-map check on g4 is d omega4 = 0: it rejects a non-closed
    omega4, with d omega4 as the residual, so `forms_fiber_check` need not
    check a flat pair's projection again."""
    pdr = poly_de_rham(8)
    sig = pdr.sig
    s4 = sphere_model(4)
    w4 = Element.from_terms(
        sig, [(1, [("x^1", 1)] + [(f"dx^{i}", 1) for i in range(2, 6)])])
    assert (w4 * w4).is_zero()
    with pytest.raises(ChainMapViolation) as exc:
        flat_form_check(s4, pdr, {"g4": w4, "g7": Element.zero(sig)})
    assert exc.value.residual == apply_d(pdr, w4)
    assert exc.value.residual


def test_flat_forms_agree_with_raw_morphism_validation():
    from cealg import make_morphism

    pdr = poly_de_rham(8)
    s4 = sphere_model(4)
    rng = random.Random(77)
    agree = 0
    for _ in range(100):
        w4 = _random_form(rng, pdr, 4)
        w7 = _random_form(rng, pdr, 7)
        try:
            flat_form_check(s4, pdr, {"g4": w4, "g7": w7})
            verdict_flat = True
        except ChainMapViolation:
            verdict_flat = False
        try:
            make_morphism(s4, pdr, {"g4": w4, "g7": w7})
            verdict_raw = True
        except ChainMapViolation:
            verdict_raw = False
        assert verdict_flat == verdict_raw
        agree += 1
    assert agree == 100


def test_forms_fiber_sequence():
    rep = forms_fiber_check(poly_de_rham(8), n_samples=50)
    assert rep.ok
    assert rep.pinned["samples"] == 50


def name_based_random_form(rng, pdr, form_degree, n_terms=3,
                           max_poly_degree=2):
    """The reference builder of `_random_form`: the same draws, as named
    factors in drawn order, canonicalised by `Element.from_terms`.  One
    `randrange` per term picks the coefficient and the dx-subset, by its
    index in `itertools.combinations` order."""
    sig = pdr.sig
    n = len(sig) // 2
    subsets = list(itertools.combinations(range(1, n + 1), form_degree))
    terms = []
    for _ in range(n_terms):
        coeff, subset = divmod(rng.randrange(9 * len(subsets)), len(subsets))
        coeff = Fraction(coeff - 4)
        if not coeff:
            continue
        pairs = [(f"dx^{i}", 1) for i in subsets[subset]]
        for _ in range(rng.randint(0, max_poly_degree)):
            pairs.append((f"x^{rng.randint(1, n)}", 1))
        terms.append((coeff, pairs))
    return Element.from_terms(sig, terms)


@pytest.mark.parametrize("shape", [(3, 2), (4, 3)])
@pytest.mark.parametrize("k", [3, 4, 5, 6, 7])
def test_random_form_matches_the_name_based_builder(k, shape):
    """`_random_form` builds canonical monomials directly: the same Element
    as the name-based builder, the same draws (so the same rng state
    afterwards), and a form homogeneous of bidegree (k, 0)."""
    n_terms, max_poly_degree = shape
    pdr = poly_de_rham(8)
    rng, ref = random.Random(k), random.Random(k)
    for _ in range(200):
        got = _random_form(rng, pdr, k, n_terms, max_poly_degree)
        want = name_based_random_form(ref, pdr, k, n_terms, max_poly_degree)
        assert got == want
        assert rng.getstate() == ref.getstate()
        assert got.is_homogeneous((k, 0))


@pytest.mark.parametrize("k", [3, 4, 5, 6, 7])
def test_random_form_draws_every_subset_and_coefficient(k):
    """One-term forms of degree k, at a fixed seed, show every k-subset of
    1..8 as their dx-prefix and every nonzero coefficient in -4..4."""
    pdr = poly_de_rham(8)
    dx1 = pdr.sig.gen_id("dx^1")
    rng = random.Random(5)
    subsets, coeffs = set(), set()
    for _ in range(2000):
        form = _random_form(rng, pdr, k, n_terms=1)
        for mono, coeff in form.terms.items():
            subsets.add(tuple(g - dx1 + 1 for g, _ in mono[:k]))
            coeffs.add(coeff)
    assert subsets == set(itertools.combinations(range(1, 9), k))
    assert coeffs == {Fraction(c) for c in range(-4, 5) if c}


def per_sample_fiber_check(alg, n_samples, seed):
    """The reference loop of `forms_fiber_check`: one sample at a time, each
    identity decided by `flat_form_check`, on `name_based_random_form`;
    the rejected non-closed 7-forms are counted as `flat_form_check`
    rejects them."""
    rng = random.Random(seed)
    s4 = sphere_model(4)
    zero = Element.zero(alg.sig)
    rejected = 0
    for idx in range(n_samples):
        eta = name_based_random_form(rng, alg, 3)
        omega4 = apply_d(alg, eta)
        closed7 = apply_d(alg, name_based_random_form(rng, alg, 6))
        omega7 = eta * omega4 + closed7
        try:
            rh.flat_form_check(s4, alg, {"g4": omega4, "g7": omega7})
        except ChainMapViolation as exc:
            return Report("flatforms.fiber", "fail",
                          details=f"sample {idx} unexpectedly not flat",
                          residual=exc.residual)
        try:
            rh.flat_form_check(s4, alg, {"g4": zero, "g7": closed7})
        except ChainMapViolation as exc:
            return Report("flatforms.fiber", "fail",
                          details=f"closed 7-form sample {idx} rejected",
                          residual=exc.residual)
        bad7 = name_based_random_form(rng, alg, 7)
        if apply_d(alg, bad7):
            try:
                rh.flat_form_check(s4, alg, {"g4": zero, "g7": bad7})
            except ChainMapViolation:
                rejected += 1
                continue
            return Report("flatforms.fiber", "fail",
                          details=f"non-closed 7-form accepted at {idx}")
    return Report("flatforms.fiber", "pass",
                  details=f"fiber sequence verified on {n_samples} samples",
                  stats={"samples": n_samples, "rejected_7forms": rejected},
                  pinned={"samples": n_samples})


def broken_de_rham():
    """poly_de_rham(8)'s signature with d dx^1 = dx^2 dx^3, so
    d**2 x^1 != 0; built without `poly_de_rham`'s d**2 check."""
    sig = poly_de_rham(8).sig
    images = {f"x^{i}": Element.generator(sig, f"dx^{i}")
              for i in range(1, 9)}
    images["dx^1"] = (Element.generator(sig, "dx^2")
                      * Element.generator(sig, "dx^3"))
    return make_dgca(sig, images)


#: (seed, block size): the broken algebra fails at sample 0 on both
#: d omega4 = 0 and d omega7 = omega4^2, so only the first is reported
#: (seed 58), and at sample 4 on d omega7 = omega4^2 alone (seed 4).  It
#: fails within the first 40 samples at every seed in 0..299, so the case
#: whose first failure lies past the first block (sample 35, seed 92)
#: takes blocks of 16.
FAIL_CASES = [(58, FIBER_BLOCK), (4, FIBER_BLOCK), (92, 16)]


@pytest.mark.parametrize("case", FAIL_CASES)
@pytest.mark.parametrize("n_samples", [0, 50, 300])
def test_fiber_check_fail_path_matches_the_per_sample_loop(monkeypatch,
                                                           case, n_samples):
    """The block sampler reports the verdict, details and residual of the
    per-sample loop, which builds a morphism for every check.  At 300
    samples the first block of FIBER_BLOCK is on the kernel."""
    seed, block = case
    target = broken_de_rham()
    if not n_samples:
        # no sample is no evidence, so the check refuses it
        with pytest.raises(GradedError, match="at least one sample"):
            forms_fiber_check(target, n_samples, seed)
        return
    monkeypatch.setattr(rh, "FIBER_BLOCK", block)
    want = per_sample_fiber_check(target, n_samples, seed)
    calls = []
    real = batched._sum_of_products
    monkeypatch.setattr(batched, "_sum_of_products",
                        lambda *a: calls.append(1) or real(*a))
    got = forms_fiber_check(target, n_samples, seed)
    assert (got.verdict, got.details, got.residual, got.pinned) == (
        want.verdict, want.details, want.residual, want.pinned)
    assert calls == ([1] if n_samples == 300 and block == FIBER_BLOCK
                     else [])
    first = {58: 0, 4: 4, 92: 35}[seed]
    assert got.details == f"sample {first} unexpectedly not flat"
    assert (first >= block) == (seed == 92)


@pytest.mark.parametrize("n_samples", [0, -5])
def test_fiber_check_needs_a_sample(n_samples):
    """With no sample the fiber sequence is not checked at all, so the
    check raises rather than pass with `samples` pinned at 0 or below."""
    with pytest.raises(GradedError, match="at least one sample"):
        forms_fiber_check(poly_de_rham(8), n_samples=n_samples)


def test_fiber_check_builds_no_morphism(monkeypatch):
    """Every identity of the sampler is decided on its own d's: 2,000
    samples call `make_morphism` not once, and the non-closed 7-forms it
    counts as rejected are those `flat_form_check` rejects."""
    calls = []
    for module in (rh, dgca):
        real = module.make_morphism
        monkeypatch.setattr(module, "make_morphism",
                            lambda *a, real=real, **k:
                            calls.append(1) or real(*a, **k))
    rep = forms_fiber_check(poly_de_rham(8), 2000, seed=1)
    assert rep.ok
    assert calls == []
    assert rep.stats["rejected_7forms"] == 590
    monkeypatch.undo()
    pdr = poly_de_rham(8)
    want = per_sample_fiber_check(pdr, 300, seed=1)
    assert want.stats["rejected_7forms"] > 0
    assert forms_fiber_check(pdr, 300, seed=1).stats == want.stats


FIBER_MEMORY_SETUP = """
from cealg.rational_homotopy import forms_fiber_check, poly_de_rham

pdr = poly_de_rham(8)
"""


def test_fiber_check_memory_and_kernel_calls():
    """2,000 samples in blocks of FIBER_BLOCK: a tracemalloc peak of at
    most 1.23 MiB (1.13 MiB measured, with the factors shared through
    `graded.FACTORS`; 1.52 MiB when `_random_form` built its (g, 1)
    factors afresh, 7.76 MiB with all samples in one block) and
    exactly 10 kernel core calls, one per full block's first shared call."""
    samples, calls, peak = kernel_memory(
        FIBER_MEMORY_SETUP, "forms_fiber_check(pdr, 2000, seed=1)",
        'out.pinned["samples"]')
    assert (samples, calls) == (2000, 10)
    assert peak <= 1.23 * 2 ** 20, f"peak {peak / 2 ** 20:.2f} MiB"


def test_flat_form_check_rejects_an_unknown_generator():
    """A name the model does not have is an error, not a dropped image:
    with "g8" on the 4-sphere model, g7 would silently map to 0."""
    pdr = poly_de_rham(8)
    gen = partial(Element.generator, pdr.sig)
    with pytest.raises(UnknownGenerator, match="g8"):
        flat_form_check(sphere_model(4), pdr, {
            "g4": gen("dx^1") * gen("dx^2") * gen("dx^3") * gen("dx^4"),
            "g8": gen("x^1"),
        })
