"""Differentials, morphisms, homotopies, extensions and pushouts."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cealg import (
    BidegreeMismatch,
    ChainHomotopy,
    ChainMapViolation,
    Element,
    GeneratorDecl,
    NotClosed,
    adjoin_generator,
    apply_d,
    check_chain_map,
    check_d_squared,
    check_homotopy,
    compose,
    identity_morphism,
    make_dgca,
    make_morphism,
    make_signature,
    set_generators_to_zero,
)
from cealg import batched
from cealg.catalog import _mink
from cealg.dgca import BATCH_TERMS, _leibniz_terms
from cealg.graded import EVEN, _accumulate
from test_graded import random_signature, random_terms


def s4_algebra():
    sig = make_signature([GeneratorDecl("g4", (), 4, EVEN),
                          GeneratorDecl("g7", (), 7, EVEN)])
    g4 = Element.generator(sig, "g4")
    return make_dgca(sig, {"g7": g4 * g4})


def line(deg):
    sig = make_signature([GeneratorDecl(f"g{deg}", (), deg, EVEN)])
    return make_dgca(sig, {})


def test_s4_model_d_squared():
    alg = s4_algebra()
    assert check_d_squared(alg).ok
    g7 = Element.generator(alg.sig, "g7")
    g4 = Element.generator(alg.sig, "g4")
    assert apply_d(alg, g7) == g4 * g4
    assert apply_d(alg, g4).is_zero()


def test_wrong_bidegree_image_rejected():
    sig = make_signature([GeneratorDecl("g4", (), 4, EVEN),
                          GeneratorDecl("g7", (), 7, EVEN)])
    with pytest.raises(BidegreeMismatch):
        make_dgca(sig, {"g7": Element.generator(sig, "g4")})


def test_inhomogeneous_image_rejected():
    sig = make_signature([GeneratorDecl("a", (), 1, EVEN),
                          GeneratorDecl("b", (), 2, EVEN),
                          GeneratorDecl("c", (), 4, EVEN)])
    from cealg import InhomogeneousImage

    bad = Element.generator(sig, "b") + Element.generator(sig, "c")
    with pytest.raises(InhomogeneousImage):
        make_dgca(sig, {"a": bad})


def test_apply_d_leibniz_sign():
    # d(a*b) = da*b - a*db for degree-1 a
    sig = make_signature([GeneratorDecl("a", (), 1, EVEN),
                          GeneratorDecl("b", (), 1, EVEN),
                          GeneratorDecl("t", (), 2, EVEN)])
    t = Element.generator(sig, "t")
    alg = make_dgca(sig, {"a": t, "b": t})
    a = Element.generator(sig, "a")
    b = Element.generator(sig, "b")
    got = apply_d(alg, a * b)
    want = t * b - a * t
    assert got == want


def test_apply_d_on_powers():
    # d(x^3) = 3 x^2 dx for a degree-0 coordinate
    sig = make_signature([GeneratorDecl("dx", (1,), 1, EVEN),
                          GeneratorDecl("x", (1,), 0, EVEN)])
    alg = make_dgca(sig, {"x^1": Element.generator(sig, "dx^1")})
    x = Element.generator(sig, "x^1")
    dx = Element.generator(sig, "dx^1")
    assert apply_d(alg, x * x * x) == 3 * (x * x) * dx


MINK3 = _mink(3).algebra


@st.composite
def mink3_element(draw, degree=None):
    """Up to four terms over superMink(3), whose generators all have degree
    1; with `degree` fixed every word has that length, so the element is
    homogeneous."""
    n = len(MINK3.sig)
    length = (st.integers(min_value=0, max_value=4) if degree is None
              else st.just(degree))
    word = length.flatmap(lambda k: st.lists(
        st.integers(min_value=0, max_value=n - 1), min_size=k, max_size=k))
    coeff = st.fractions(min_value=-4, max_value=4, max_denominator=5)
    terms = draw(st.lists(st.tuples(coeff, word), max_size=4))
    return Element.from_terms(
        MINK3.sig, [(c, [(MINK3.sig.names[g], 1) for g in w])
                    for c, w in terms])


@given(st.integers(min_value=0, max_value=3).flatmap(
    lambda k: st.tuples(st.just(k), mink3_element(k), mink3_element())))
@settings(max_examples=150, deadline=None)
def test_graded_leibniz_rule_on_random_elements(case):
    deg_a, a, b = case
    lhs = apply_d(MINK3, a * b)
    rhs = apply_d(MINK3, a) * b + (-1) ** deg_a * (a * apply_d(MINK3, b))
    assert lhs == rhs


@given(mink3_element())
@settings(max_examples=150, deadline=None)
def test_d_squared_zero_on_random_elements(a):
    da = apply_d(MINK3, a)
    assert apply_d(MINK3, da).is_zero()
    assert batched.leibniz(MINK3.sig, MINK3.d_images, da.terms) == {}


def dict_leibniz(d_images, x):
    return _accumulate({}, _leibniz_terms(d_images, x))


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_batched_leibniz_matches_dict_path(data):
    # random d-images of any bidegree: the Leibniz extension does not need
    # d**2 = 0 or homogeneity
    sig = data.draw(random_signature(max_gens=12))
    images = tuple(Element(sig, data.draw(random_terms(sig, max_terms=4)))
                   for _ in range(len(sig)))
    x = Element(sig, data.draw(random_terms(sig)))
    assert (batched.leibniz(sig, images, x.terms)
            == dict_leibniz(images, x))


def test_batched_leibniz_guards_fall_back_to_dict_path():
    # d x = c z^30 y with z of degree 0; inputs above the term threshold, so
    # apply_d asks the batched kernel
    sig = make_signature([GeneratorDecl("x", (), 2, EVEN),
                          GeneratorDecl("y", (), 3, EVEN),
                          GeneratorDecl("z", (), 0, EVEN)])
    rows = BATCH_TERMS // 40 + 1

    def case(img_coeff, x_coeff, zbase):
        alg = make_dgca(sig, {"x": Element(sig, {((1, 1), (2, 30)):
                                                 Fraction(img_coeff)})})
        x = Element(sig, {((0, 1 + i % 40), (2, zbase + i // 40)):
                          Fraction(x_coeff) for i in range(40 * rows)})
        return alg, x

    for alg, x in [case(2 ** 30, 2 ** 40, 0),   # products reach 2**70
                   case(1, 1, 60)]:            # z exponents past 127
        assert apply_d(alg, x).terms == dict_leibniz(alg.d_images, x)
        assert batched.leibniz(sig, alg.d_images, x.terms) is None


def test_check_d_squared_negative_control():
    sig = make_signature([GeneratorDecl("a", (), 1, EVEN),
                          GeneratorDecl("b", (), 2, EVEN),
                          GeneratorDecl("c", (), 5, EVEN)])
    b = Element.generator(sig, "b")
    assert check_d_squared(make_dgca(sig, {"a": b, "c": b * b * b})).ok
    # corrupt one image: d b = t makes d^2 a = t != 0
    sig2 = make_signature([GeneratorDecl("a", (), 1, EVEN),
                           GeneratorDecl("b", (), 2, EVEN),
                           GeneratorDecl("t", (), 3, EVEN)])
    broken = make_dgca(sig2, {"a": Element.generator(sig2, "b"),
                              "b": Element.generator(sig2, "t")})
    rep = check_d_squared(broken)
    assert not rep.ok
    assert rep.residual is not None and not rep.residual.is_zero()
    assert rep.witness == "a"


def test_morphism_validation_and_violation():
    s4 = s4_algebra()
    r4 = line(4)
    # valid: g4 -> g4 lands on a closed generator
    f = make_morphism(r4, s4, {"g4": Element.generator(s4.sig, "g4")})
    assert check_chain_map(f).ok
    # invalid: g4 -> g7 has wrong bidegree
    with pytest.raises(BidegreeMismatch):
        make_morphism(r4, s4, {"g4": Element.generator(s4.sig, "g7")})
    # invalid chain map: degree-7 line into s4 via g7 (d g7 = g4^2 != 0)
    r7 = line(7)
    with pytest.raises(ChainMapViolation):
        make_morphism(r7, s4, {"g7": Element.generator(s4.sig, "g7")})
    lazy = make_morphism(r7, s4, {"g7": Element.generator(s4.sig, "g7")},
                         validate=False)
    rep = check_chain_map(lazy)
    assert not rep.ok and rep.residual is not None


def test_compose_identity_and_associativity():
    s4 = s4_algebra()
    r4 = line(4)
    f = make_morphism(r4, s4, {"g4": Element.generator(s4.sig, "g4")})
    assert compose(identity_morphism(r4), f) == f
    assert compose(f, identity_morphism(s4)) == f

    rng = random.Random(7)
    # associativity on random generator images between zero-differential algebras
    for _ in range(20):
        sig_a = make_signature([GeneratorDecl("u", (), 2, EVEN)])
        sig_b = make_signature([GeneratorDecl("v", (), 2, EVEN)])
        sig_c = make_signature([GeneratorDecl("w", (), 2, EVEN)])
        sig_d = make_signature([GeneratorDecl("z", (), 2, EVEN)])
        A, B, C, D = (make_dgca(s, {}) for s in (sig_a, sig_b, sig_c, sig_d))
        f1 = make_morphism(A, B, {"u": rng.randint(-3, 3) * Element.generator(sig_b, "v")})
        f2 = make_morphism(B, C, {"v": rng.randint(-3, 3) * Element.generator(sig_c, "w")})
        f3 = make_morphism(C, D, {"w": rng.randint(-3, 3) * Element.generator(sig_d, "z")})
        assert compose(compose(f1, f2), f3) == compose(f1, compose(f2, f3))


def test_chain_map_property_extends_to_monomials():
    s4 = s4_algebra()
    f = identity_morphism(s4)
    rng = random.Random(3)
    names = list(s4.sig.names)
    for _ in range(50):
        word = [(rng.choice(names), 1) for _ in range(rng.randint(0, 4))]
        m = Element.from_terms(s4.sig, [(1, word)])
        assert apply_d(s4, f(m)) == f(apply_d(s4, m))


def test_homotopy_f_f_zero_passes():
    s4 = s4_algebra()
    ident = identity_morphism(s4)
    s = ChainHomotopy(ident, ident, {})
    assert check_homotopy(ident, ident, s).ok


def test_homotopy_small_resolution_example():
    # A = R[g4]_res: generators g4 (closed) and h3 with d h3 = g4
    sig = make_signature([GeneratorDecl("g4", (), 4, EVEN),
                          GeneratorDecl("h3", (), 3, EVEN)])
    g4 = Element.generator(sig, "g4")
    alg = make_dgca(sig, {"h3": g4})
    ground = make_dgca(make_signature([]), {})
    to_ground = make_morphism(alg, ground, {"g4": Element.zero(ground.sig),
                                            "h3": Element.zero(ground.sig)})
    back = make_morphism(ground, alg, {})
    ident = identity_morphism(alg)
    s = ChainHomotopy(ident, compose(to_ground, back), {"g4": Element.generator(sig, "h3")})
    assert check_homotopy(ident, compose(to_ground, back), s).ok
    # wrong scale fails with residual
    s_bad = ChainHomotopy(ident, compose(to_ground, back),
                          {"g4": 2 * Element.generator(sig, "h3")})
    rep = check_homotopy(ident, compose(to_ground, back), s_bad)
    assert not rep.ok and rep.residual is not None


def test_adjoin_generator_and_not_closed():
    s4 = s4_algebra()
    g4 = Element.generator(s4.sig, "g4")
    # trivial extension with closed image
    ext = adjoin_generator(s4, GeneratorDecl("b6", (), 6, EVEN),
                           Element.zero(s4.sig))
    assert check_d_squared(ext).ok
    assert "b6" in ext.sig.names
    # g7 is not closed, so adjoining against d g7' = g7 must fail:
    with pytest.raises(NotClosed):
        adjoin_generator(s4, GeneratorDecl("b6", (), 6, EVEN),
                         Element.generator(s4.sig, "g7"))


def test_adjoin_with_scale():
    s4 = s4_algebra()
    g4 = Element.generator(s4.sig, "g4")
    ext = adjoin_generator(s4, GeneratorDecl("h3", (), 3, EVEN), g4, lam=-15)
    h3_img = ext.d_of("h3")
    assert h3_img == -15 * Element.generator(ext.sig, "g4")


def test_adjoin_then_kill_is_identity():
    s4 = s4_algebra()
    ext = adjoin_generator(s4, GeneratorDecl("b6", (), 6, EVEN),
                           Element.zero(s4.sig))
    back = set_generators_to_zero(ext, ["b6"])
    assert back == s4


def test_set_generators_to_zero_hopf():
    s4 = s4_algebra()
    fiber = set_generators_to_zero(s4, ["g4"])
    assert list(fiber.sig.names) == ["g7"]
    assert fiber.d_of("g7").is_zero()
    assert set_generators_to_zero(s4, []) == s4


def test_json_round_trip_algebra():
    s4 = s4_algebra()
    from cealg.dgca import SemifreeDGCA

    back = SemifreeDGCA.from_json(s4.to_json())
    assert back == s4


def test_json_round_trip_morphism():
    from cealg.dgca import DGCAMorphism

    s4 = s4_algebra()
    f = make_morphism(line(4), s4, {"g4": Element.generator(s4.sig, "g4")})
    back = DGCAMorphism.from_json(f.to_json())
    assert back == f
