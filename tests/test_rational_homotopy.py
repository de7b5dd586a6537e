"""Sphere models, polynomial de Rham complexes, flat forms."""

import random
from fractions import Fraction

import pytest

from cealg import (
    ChainMapViolation,
    Element,
    apply_d,
    check_d_squared,
    flat_form_check,
    flat_form_check_json,
    forms_fiber_check,
    hopf_sequence_check,
    parse_form_expr,
    poincare_lemma_check,
    poly_de_rham,
    radial_contraction,
    sphere_model,
)
from cealg.graded import GradedError, UnknownGenerator
from cealg.rational_homotopy import _random_form


def test_sphere_models():
    for n in (2, 3, 4, 7):
        m = sphere_model(n)
        want = [1 if k in (0, n) else 0 for k in range(3 * n + 1)]
        assert m.cohomology == want
    assert list(sphere_model(7).algebra.sig.names) == ["g7"]
    assert list(sphere_model(4).algebra.sig.names) == ["g4", "g7"]
    with pytest.raises(GradedError):
        sphere_model(0)


def test_s4_differential():
    alg = sphere_model(4).algebra
    g4 = Element.generator(alg.sig, "g4")
    assert apply_d(alg, Element.generator(alg.sig, "g7")) == g4 * g4


def test_hopf_pushout():
    rep = hopf_sequence_check()
    assert rep.ok


def test_poly_de_rham_basics():
    p1 = poly_de_rham(1)
    x = p1.x(1)
    dx = p1.dx(1)
    assert apply_d(p1.algebra, x) == dx
    assert apply_d(p1.algebra, dx).is_zero()
    assert (dx * dx).is_zero()
    p2 = poly_de_rham(2)
    # x1 dx2 is not closed; d = dx1 dx2
    form = p2.x(1) * p2.dx(2)
    assert apply_d(p2.algebra, form) == p2.dx(1) * p2.dx(2)
    for n in range(1, 9):
        assert check_d_squared(poly_de_rham(n).algebra).ok


def test_radial_contraction_homotopy_identity():
    pdr = poly_de_rham(4)
    alg = pdr.algebra
    rng = random.Random(11)
    forms = [_random_form(rng, pdr, k, n_terms=4, max_poly_degree=3)
             for k in (1, 2, 3) for _ in range(10)]
    for w in forms:
        if not w:
            continue
        lhs = apply_d(alg, radial_contraction(pdr, w)) \
            + radial_contraction(pdr, apply_d(alg, w))
        assert lhs == w


def test_closed_forms_made_exact():
    pdr = poly_de_rham(8)
    sig = pdr.algebra.sig
    # the standard example: omega = dx1 dx2 dx3 dx4 with witness x1 dx2 dx3 dx4
    w = Element.from_terms(
        sig, [(1, [("dx^1", 1), ("dx^2", 1), ("dx^3", 1), ("dx^4", 1)])])
    h = radial_contraction(pdr, w)
    want = Fraction(1, 4) * (
        Element.from_terms(sig, [(1, [("x^1", 1), ("dx^2", 1), ("dx^3", 1), ("dx^4", 1)])])
        - Element.from_terms(sig, [(1, [("x^2", 1), ("dx^1", 1), ("dx^3", 1), ("dx^4", 1)])])
        + Element.from_terms(sig, [(1, [("x^3", 1), ("dx^1", 1), ("dx^2", 1), ("dx^4", 1)])])
        - Element.from_terms(sig, [(1, [("x^4", 1), ("dx^1", 1), ("dx^2", 1), ("dx^3", 1)])]))
    assert h == want
    assert apply_d(pdr.algebra, h) == w
    # explicit exactness witness of the stated shape also works
    witness = Element.from_terms(
        sig, [(1, [("x^1", 1), ("dx^2", 1), ("dx^3", 1), ("dx^4", 1)])])
    assert apply_d(pdr.algebra, witness) == w
    assert poincare_lemma_check(pdr, [w]).ok


def test_flat_form_examples():
    pdr = poly_de_rham(8)
    sig = pdr.algebra.sig
    s4 = sphere_model(4).algebra
    w4 = Element.from_terms(
        sig, [(1, [("dx^1", 1), ("dx^2", 1), ("dx^3", 1), ("dx^4", 1)])])
    flat = flat_form_check(s4, pdr, {"g4": w4, "g7": Element.zero(sig)})
    assert flat.assignment.image_of("g4") == w4

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
    sig = pdr.algebra.sig
    s4 = sphere_model(4).algebra
    w4 = Element.from_terms(
        sig, [(1, [("x^1", 1)] + [(f"dx^{i}", 1) for i in range(2, 6)])])
    assert (w4 * w4).is_zero()
    with pytest.raises(ChainMapViolation) as exc:
        flat_form_check(s4, pdr, {"g4": w4, "g7": Element.zero(sig)})
    assert exc.value.residual == apply_d(pdr.algebra, w4)
    assert exc.value.residual


def test_flat_forms_agree_with_raw_morphism_validation():
    from cealg import make_morphism

    pdr = poly_de_rham(8)
    s4 = sphere_model(4).algebra
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
            make_morphism(s4, pdr.algebra, {"g4": w4, "g7": w7})
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


def test_form_expression_grammar():
    pdr = poly_de_rham(3)
    el = parse_form_expr(pdr, {"sum": [
        {"prod": [{"x": 1}, {"dx": 2}]},
        {"prod": ["-1/2", {"dx": 1}, {"dx": 3}]},
    ]})
    want = pdr.x(1) * pdr.dx(2) - Fraction(1, 2) * pdr.dx(1) * pdr.dx(3)
    assert el == want
    s4 = sphere_model(4).algebra
    pdr8 = poly_de_rham(8)
    flat = flat_form_check_json(s4, pdr8, {
        "g4": {"prod": [{"dx": 1}, {"dx": 2}, {"dx": 3}, {"dx": 4}]},
        "g7": 0,
    })
    assert flat.assignment.image_of("g7").is_zero()
    with pytest.raises(GradedError):
        parse_form_expr(pdr, {"nope": 1})


def test_flat_form_check_json_rejects_an_unknown_generator():
    """A name the model does not have is an error, not a dropped image:
    with "g8" on the 4-sphere model, g7 would silently map to 0."""
    with pytest.raises(UnknownGenerator, match="g8"):
        flat_form_check_json(sphere_model(4).algebra, poly_de_rham(8), {
            "g4": {"prod": [{"dx": 1}, {"dx": 2}, {"dx": 3}, {"dx": 4}]},
            "g8": {"x": 1},
        })
