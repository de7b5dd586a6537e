"""Differentials, morphisms, homotopies, extensions and pushouts."""

import random
from fractions import Fraction
from functools import partial
from itertools import combinations

import numpy as np
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
    by_name,
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
from cealg.catalog import (_mink, _mu, resolved_minkowski, resolved_poincare,
                           super_poincare)
from cealg.dgca import DGCAMorphism, SemifreeDGCA, _leibniz_terms
from cealg.graded import (EVEN, UnknownGenerator, _accumulate, _products,
                          monomial_mul)
from cealg.linalg import is_coboundary
from cealg.reporting import run_task
from fresh import kernel_memory
from test_graded import (dict_product, distinct_terms, kernel_gate_at_zero,
                         kernel_leibniz, kernel_product, random_signature,
                         random_terms)


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


MINK3 = _mink(3)


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
    with kernel_gate_at_zero():
        assert kernel_leibniz(MINK3.sig, MINK3.d_images, [da.terms]) == [{}]


def dict_leibniz(d_images, x):
    return _accumulate({}, _products(_leibniz_terms(d_images, x), x.sig))


def suffix_leibniz_terms(d_images, x):
    """A reference hole rule: the signed (monomial, coefficient) pairs of
    d(x), with the rest's parities read from per-monomial suffix arrays
    and each hole multiplied by each d-image monomial here."""
    sig = x.sig
    degs = sig.degrees
    pars = sig.parities
    for mono, coeff in x.terms.items():
        n = len(mono)
        deg_suf = [0] * (n + 1)
        par_suf = [0] * (n + 1)
        for i in range(n - 1, -1, -1):
            g, e = mono[i]
            deg_suf[i] = (deg_suf[i + 1] + degs[g] * e) & 1
            par_suf[i] = (par_suf[i + 1] + pars[g] * e) & 1
        deg_prefix = 0
        for idx, (g, e) in enumerate(mono):
            dg = d_images[g]
            if dg:
                if e > 1:
                    hole = mono[:idx] + ((g, e - 1),) + mono[idx + 1:]
                    rest_deg = (deg_suf[idx + 1] + degs[g] * (e - 1)) & 1
                    rest_par = (par_suf[idx + 1] + pars[g] * (e - 1)) & 1
                else:
                    hole = mono[:idx] + mono[idx + 1:]
                    rest_deg = deg_suf[idx + 1]
                    rest_par = par_suf[idx + 1]
                dm_deg = (degs[g] + 1) & 1
                dm_par = pars[g]
                cross = (dm_deg & rest_deg) ^ (dm_par & rest_par)
                sign = -1 if (deg_prefix ^ cross) & 1 else 1
                ecoeff = (sign * e) * coeff
                for dm, dc in dg.terms.items():
                    r = monomial_mul(hole, dm, sig)
                    if r is not None:
                        s, m2 = r
                        yield m2, (ecoeff * dc if s > 0 else -(ecoeff * dc))
            deg_prefix = (deg_prefix + degs[g] * e) & 1


@pytest.mark.parametrize("alg", [MINK3, super_poincare()],
                         ids=["superMink3", "superPoincare"])
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_hole_rule_matches_the_suffix_array_rule(alg, data):
    """The holes of `_leibniz_terms`, multiplied out by `_products`, give
    the reference rule's (monomial, coefficient) pairs in its order, on
    random elements whose odd-parity generators (psi) may carry exponents
    above 1."""
    sig = alg.sig
    odd = [g for g in range(len(sig)) if sig.parities[g]]
    among = data.draw(st.sampled_from([None, odd]))
    x = Element(sig, data.draw(random_terms(sig, among=among)))
    assert (list(_products(_leibniz_terms(alg.d_images, x), sig))
            == list(suffix_leibniz_terms(alg.d_images, x)))


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_batched_leibniz_matches_dict_path(data):
    # random d-images of any bidegree: the Leibniz extension does not need
    # d**2 = 0 or homogeneity
    sig = data.draw(random_signature(max_gens=12))
    images = tuple(Element(sig, data.draw(random_terms(sig, max_terms=4)))
                   for _ in range(len(sig)))
    x = Element(sig, data.draw(random_terms(sig)))
    with kernel_gate_at_zero():
        assert (kernel_leibniz(sig, images, [x.terms])
                == [dict_leibniz(images, x)])


#: A scaled step rule, breakpoints at 6 and 24 pairs (STEPS * STEP_MIN and
#: STEPS * STEP_MAX), that random inputs land on both sides of.
SCALED_STEPS = {"STEPS": 2, "STEP_MIN": 3, "STEP_MAX": 12}


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_batched_leibniz_many_inputs_match_dict_path(data):
    """Many inputs in one `leibniz` call, each against the dict path: x
    next to -x and next to x again (without the tag field their keys would
    merge), empty inputs and mixed denominators, under the two gates drawn
    so that some inputs reach ALONE_PAIRS and run alone, and the rest share
    a call if together they reach BATCH_PAIRS, or not.  Steps of a few
    pairs make the accumulator merge many times in one call."""
    sig = data.draw(random_signature(max_gens=12))
    images = tuple(Element(sig, data.draw(random_terms(sig, max_terms=4)))
                   for _ in range(len(sig)))
    xs = data.draw(st.lists(random_terms(sig), min_size=1, max_size=5))
    inputs = data.draw(st.permutations(
        xs + [{m: -c for m, c in xs[0].items()}, xs[0], {}]))
    pairs = [batched._leibniz_pairs(images, terms) for terms in inputs]
    gate = data.draw(st.integers(min_value=0, max_value=max(pairs) + 1))
    alone = data.draw(st.integers(min_value=0, max_value=max(pairs) + 1))
    with kernel_gate_at_zero() as mp:
        mp.setattr(batched, "BATCH_PAIRS", gate)
        mp.setattr(batched, "ALONE_PAIRS", alone)
        for name, value in SCALED_STEPS.items():
            mp.setattr(batched, name, value)
        got = kernel_leibniz(sig, images, inputs)
    shared = sum(p for p in pairs if p < alone)
    for terms, p, out in zip(inputs, pairs, got):
        if p < alone and shared < gate:
            assert out is None
        else:
            assert out == dict_leibniz(images, Element(sig, terms))


@given(st.lists(mink3_element(), min_size=2, max_size=6))
@settings(max_examples=100, deadline=None)
def test_batched_leibniz_shared_call_on_mink3(xs):
    """d(d a) = 0 on superMink(3) for several a, next to the d a
    themselves, in one shared call of few-pair steps: each input's
    cancellation is complete, and no input's terms leak into another's."""
    das = [apply_d(MINK3, a) for a in xs]
    inputs = [t for a, da in zip(xs, das) for t in (da.terms, a.terms)]
    pairs = [batched._leibniz_pairs(MINK3.d_images, t) for t in inputs]
    with kernel_gate_at_zero() as mp:
        mp.setattr(batched, "BATCH_PAIRS", max(pairs) + 1)
        for name, value in SCALED_STEPS.items():
            mp.setattr(batched, name, value)
        got = kernel_leibniz(MINK3.sig, MINK3.d_images, inputs)
    if sum(pairs) <= max(pairs):
        assert got == [None] * len(inputs)
    else:
        assert got == [t for da in das for t in ({}, da.terms)]


def spy_core(monkeypatch) -> list:
    """Record the number of inputs of each call of the kernel core."""
    calls = []
    real = batched._sum_of_products

    def spy(sig, x, blocks, left_rows):
        calls.append(x.inputs)
        return real(sig, x, blocks, left_rows)

    monkeypatch.setattr(batched, "_sum_of_products", spy)
    return calls


def test_check_d_squared_routes_d_images(monkeypatch):
    """super-Poincare's 98 d-images (about 145k Leibniz pairs, none near
    the gate alone) share one tagged core call; resolved Poincare's d h3 =
    g4 - mu4 reaches the gate by itself and runs alone next to it; the
    small algebras stay on the dict path."""
    iso = super_poincare()
    resolved = resolved_poincare()
    calls = spy_core(monkeypatch)
    assert check_d_squared(iso).ok
    assert calls == [98]
    calls.clear()
    assert check_d_squared(resolved).ok
    assert sorted(calls) == [1, 98]
    calls.clear()
    for task in ("derham.d2", "mink3.d2"):
        assert run_task(task).ok
    assert calls == []


def test_leibniz_split_gives_empty_inputs_two_dimensional_keys():
    """One `leibniz` call on super-Poincare.  A generator with d g != 0
    and the 98 d-images, whose d is 0, share a call, decoded as it returns:
    each comes back as a dict, `{}` for the d-images.  The sum of the
    d-images (about 145k pairs) runs alone and comes back as a `Packed`
    whose d is 0: (0, words) uint64 keys and no numerators."""
    iso = super_poincare()
    g = next(i for i, img in enumerate(iso.d_images) if img)
    total = sum(iso.d_images, Element.zero(iso.sig))
    inputs = ([{((g, 1),): Fraction(1)}]
              + [img.terms for img in iso.d_images] + [total.terms])
    assert batched._leibniz_pairs(iso.d_images, total.terms) >= (
        batched.ALONE_PAIRS)
    got = batched.leibniz(iso.sig, iso.d_images, inputs)
    assert got[:-1] == [iso.d_images[g].terms] + [{}] * len(iso.d_images)
    assert all(type(d) is dict for d in got[:-1])
    alone = got[-1]
    assert isinstance(alone, batched.Packed)
    assert (alone.keys.dtype, alone.keys.shape, alone.nums.shape) == (
        np.uint64, (0, alone.ctx.words), (0,))
    assert alone.decode() == {}


def test_check_d_squared_failure_report_above_the_gate(monkeypatch):
    """Two corrupted d e^a on super-Poincare, checked in one tagged call:
    the report names the first failing generator in generator order (one
    whose d-image meets a corrupted one), with the residual of the
    generator-by-generator loop."""
    iso = super_poincare()
    images = {decl.name: img for decl, img in zip(iso.sig.decls,
                                                  iso.d_images)}
    for name in ("e^7", "e^3"):
        mono, coeff = next(iter(images[name].terms.items()))
        images[name] = images[name] + Element(iso.sig, {mono: coeff})
    broken = make_dgca(iso.sig, images)
    want = None
    for decl, img in zip(broken.sig.decls, broken.d_images):
        res = Element(broken.sig, dict_leibniz(broken.d_images, img))
        if res:
            want = decl.name, res
            break
    calls = spy_core(monkeypatch)
    rep = check_d_squared(broken)
    assert calls == [98]
    assert not rep.ok
    assert (rep.witness, rep.residual) == want
    assert rep.stats == {"residual_terms": len(want[1])}


def spy_leibniz(monkeypatch) -> list:
    """Record the number of inputs of each `batched.leibniz` call."""
    calls = []
    real = batched.leibniz

    def spy(sig, d_images, inputs):
        calls.append(len(inputs))
        return real(sig, d_images, inputs)

    monkeypatch.setattr(batched, "leibniz", spy)
    return calls


def test_each_generator_check_takes_one_leibniz_call(monkeypatch):
    """check_d_squared, check_chain_map and check_homotopy each pass all
    their d's to one `apply_d_all` call: one `batched.leibniz` call, with
    one input per generator (per nonzero d-image for d**2)."""
    alg, p, iota, s = resolved_minkowski()
    calls = spy_leibniz(monkeypatch)
    assert check_d_squared(alg).ok
    assert check_chain_map(p).ok
    assert check_chain_map(iota).ok
    assert check_homotopy(s).ok
    assert calls == [sum(map(bool, alg.d_images)), len(alg.sig),
                     len(iota.source.sig), len(alg.sig)]


def dict_d(A, x):
    """d x on the dict path, as an Element."""
    return Element(A.sig, dict_leibniz(A.d_images, x))


def spy_calls(monkeypatch, cls) -> list:
    """Record the argument of each call of a morphism or homotopy."""
    seen = []
    real = cls.__call__

    def spy(self, x):
        seen.append(x)
        return real(self, x)

    monkeypatch.setattr(cls, "__call__", spy)
    return seen


def test_chain_map_failure_report_matches_the_per_generator_loop(
        monkeypatch):
    """Resolved Minkowski's projection with one extra term in the g4 image
    (one of mu4's terms, doubled).  The one-call check names the generator,
    and gives the residual, of the per-generator loop with d on the dict
    path, and it takes f(d g) only up to that generator."""
    alg, p, _, _ = resolved_minkowski()
    images = {n: p.image_of(n) for n in alg.sig.names}
    mono, coeff = next(iter(images["g4"].terms.items()))
    images["g4"] = images["g4"] + Element(p.target.sig, {mono: coeff})
    broken = DGCAMorphism(alg, p.target,
                          tuple(images[n] for n in alg.sig.names))
    want = None
    for gid, decl in enumerate(broken.source.sig.decls):
        res = (dict_d(broken.target, broken.images[gid])
               - broken(broken.source.d_images[gid]))
        if res:
            want = decl.name, res
            break
    assert want[0] == "g4"
    applied = spy_calls(monkeypatch, DGCAMorphism)
    calls = spy_leibniz(monkeypatch)
    rep = check_chain_map(broken)
    assert calls == [len(alg.sig)]
    assert not rep.ok
    assert (rep.witness, rep.residual) == want
    assert rep.stats == {"residual_terms": len(want[1])}
    assert len(applied) == alg.sig.gen_id("g4") + 1


def test_homotopy_failure_report_matches_the_per_generator_loop(
        monkeypatch):
    """Resolved Minkowski's homotopy with s(g4) = h3 + e^0 e^1 e^2 instead
    of h3: the one-call check names the generator, and gives the residual,
    of the per-generator loop with d on the dict path, and it takes s(d g)
    only up to that generator."""
    alg, p, iota, _ = resolved_minkowski()
    ident = identity_morphism(alg)
    around = compose(p, iota)
    gen = partial(Element.generator, alg.sig)
    bad = ChainHomotopy(ident, around,
                        {"g4": gen("h3") + gen("e^0") * gen("e^1")
                         * gen("e^2")})
    want = None
    for gid, decl in enumerate(alg.sig.decls):
        x = gen(decl.name)
        res = ((ident.images[gid] - around.images[gid])
               - (dict_d(alg, bad(x)) + bad(alg.d_images[gid])))
        if res:
            want = decl.name, res
            break
    assert want[0] == "g4" and len(want[1]) > 1
    applied = spy_calls(monkeypatch, ChainHomotopy)
    calls = spy_leibniz(monkeypatch)
    rep = check_homotopy(bad)
    assert calls == [len(alg.sig)]
    assert not rep.ok
    assert (rep.witness, rep.residual) == want
    assert rep.stats == {"residual_terms": len(want[1])}
    assert len(applied) == alg.sig.gen_id("g4") + 1


@pytest.mark.parametrize("width", [1, 63, 64, 65, 130])
def test_suffix_parity_on_words_matches_int8_reference(width):
    """The strict-suffix parities taken on packed words, across word
    boundaries, against row-wise sums over the columns strictly to the
    right, taken in int8 (only their parities are compared)."""
    rng = np.random.default_rng(width)
    bits = rng.integers(0, 2, size=(40, width), dtype=np.int8)
    bits[0] = 0
    bits[1] = 1
    strict = np.cumsum(bits[:, ::-1], axis=1, dtype=np.int8)[:, ::-1] - bits
    assert np.array_equal(batched._suffix_parity(batched._bitmask(bits)),
                          batched._bitmask(strict & 1))


#: (degree, parity) of the four kinds of generator: odd degree and odd
#: parity (a polynomial generator with both sign bits), odd degree only and
#: odd parity only (both square to zero), and neither.
KINDS = [(1, 1), (1, 0), (2, 1), (2, 0)]


def boundary_case(width: int, turn: int):
    """A signature of `width` generators, generator i of kind
    KINDS[(i + turn) % 4], so that over the four turns the last column of
    a 64-bit word and the first of the next take every kind; d-images on
    the generators around each word boundary, and two inputs whose terms
    meet them with exponents up to 3 (1 where they square to zero), next
    to one term on every generator, which puts all `width` columns in use.
    """
    sig = make_signature(GeneratorDecl("x", (i,), *KINDS[(i + turn) % 4])
                         for i in range(width))
    rng = random.Random(width * 4 + turn)
    edge = sorted({g for b in (64, 128) for g in range(b - 2, b + 2)
                   if g < width} | {width - 1})

    def power(g):
        return g, rng.randint(1, 1 if sig.sqz[g] else 3)

    def terms(count, size):
        out = {}
        for _ in range(count):
            gens = {rng.choice(edge)} | set(rng.sample(range(width), size))
            mono = tuple(sorted(power(g) for g in gens))
            out[mono] = Fraction(rng.randint(-4, 4) or 1, rng.randint(1, 3))
        return out

    images = tuple(Element(sig, terms(3, 2) if g in edge else {})
                   for g in range(width))
    every = {tuple(power(g) for g in range(width)): Fraction(1)}
    return sig, images, [terms(40, 4) | every, terms(40, 6)]


@pytest.mark.parametrize("width", [63, 64, 65, 130])
def test_batched_leibniz_across_word_boundaries(monkeypatch, width):
    """Kernel Leibniz against `_leibniz_terms` with 63, 64, 65 and 130
    columns in use, each kind of generator at the last column of a word
    and at the first of the next.  The hole operand `_hole_rows` derives
    from its term's packed words is also compared, field by field, with
    `_Context.operand` applied to the hole rows materialised from the dict
    path: per term, `_leibniz_terms` with d g = 1 on the slots yields each
    hole with its signed multiplicity, in slot order."""
    seen = []
    real = batched._hole_rows

    def spy(slots, ctx, e, x, sizes):
        out = real(slots, ctx, e, x, sizes)
        seen.append((slots, ctx, x, sizes, out))
        return out

    monkeypatch.setattr(batched, "_hole_rows", spy)
    for turn in range(4):
        sig, images, inputs = boundary_case(width, turn)
        seen.clear()
        with kernel_gate_at_zero():
            got = kernel_leibniz(sig, images, inputs)
        assert got == [dict_leibniz(images, Element(sig, t)) for t in inputs]
        [(slots, ctx, x, sizes, (hole, bound, ends, shift, counted))] = seen
        # each hole meets all of its slot's block, right rows lo .. hi - 1,
        # and the partition counts the pairs formed
        hi = ends + shift
        lo = hi - np.diff(ends, prepend=0)
        block = np.searchsorted(np.cumsum(sizes), lo, side="right")
        assert np.array_equal(hi - lo, sizes[block]) and counted is None
        assert len(ctx.cols) == width
        one = Element(sig, {(): Fraction(1)})
        unit = tuple(one if g in slots else Element.zero(sig)
                     for g in range(width))
        monos, nums, tags, gens = [], [], [], []
        for tag, terms in enumerate(inputs):
            for mono, coeff in terms.items():
                for one_hole, _ in _leibniz_terms(
                        unit, Element(sig, {mono: coeff})):
                    ((hole_mono, c),) = one_hole.items()
                    monos.append(hole_mono)
                    nums.append(int(c * x.den))
                    tags.append(tag)
                    gens.append(next(g for g, k in mono
                                     if dict(hole_mono).get(g) != k))
        rows = np.zeros((len(monos), width), dtype=np.int8)
        for r, mono in enumerate(monos):
            for g, k in mono:
                rows[r, np.searchsorted(ctx.cols, g)] = k
        want = ctx.operand(rows, np.array(nums, dtype=np.int64), left=True,
                           tag=np.array(tags))
        for field in ("keys", "sign", "occ", "nums"):
            assert np.array_equal(getattr(hole, field),
                                  getattr(want, field)), field
        assert np.array_equal(np.array(slots)[block], gens)
        assert bound >= np.abs(hole.nums).max()


def test_batched_leibniz_guards_fall_back_to_dict_path():
    # d x = c z^30 y (1 + w + ... + w^49) with z, w of degree 0; inputs
    # above the pair gate, so apply_d asks the batched kernel
    sig = make_signature([GeneratorDecl("x", (), 2, EVEN),
                          GeneratorDecl("y", (), 3, EVEN),
                          GeneratorDecl("z", (), 0, EVEN),
                          GeneratorDecl("w", (), 0, EVEN)])
    w, x, y, z = (sig.gen_id(n) for n in "wxyz")
    width = 50
    rows = batched.BATCH_PAIRS // width + 1

    def case(img_coeff, x_coeff, zbase):
        image = {(((w, k),) if k else ()) + ((y, 1), (z, 30)):
                 Fraction(img_coeff) for k in range(width)}
        alg = make_dgca(sig, {"x": Element(sig, image)})
        el = Element(sig, {((x, 1 + i % 40), (z, zbase + i // 40)):
                           Fraction(x_coeff) for i in range(rows)})
        return alg, el

    for alg, el in [case(2 ** 30, 2 ** 40, 0),   # products reach 2**70
                    case(1, 1, 100)]:           # z exponents past 127
        assert apply_d(alg, el).terms == dict_leibniz(alg.d_images, el)
        assert kernel_leibniz(sig, alg.d_images, [el.terms]) == [None]
    # the bound counts the multiplicity e: 100 * 2**30 * 2**31 wraps int64,
    # 2**30 * 2**31 does not (one term, so the gate is lowered)
    alg = make_dgca(sig, {"x": Element(sig, {((y, 1),): Fraction(2 ** 31)})})
    el = Element(sig, {((x, 100),): Fraction(2 ** 30)})
    with kernel_gate_at_zero():
        assert apply_d(alg, el).terms == dict_leibniz(alg.d_images, el)
        assert kernel_leibniz(sig, alg.d_images, [el.terms]) == [None]


def test_check_d_squared_asks_the_kernel_once_when_a_guard_trips(monkeypatch):
    """d u = sum_i x z^(100+i) has past ALONE_PAIRS Leibniz pairs, so it
    runs alone, and its z exponents pass 127, so that one kernel call
    refuses it; check_d_squared
    then takes the dict path for d(d u) without a second kernel call, and
    reports the dict path's residual."""
    sig = make_signature([GeneratorDecl("x", (), 2, EVEN),
                          GeneratorDecl("y", (), 3, EVEN),
                          GeneratorDecl("z", (), 0, EVEN),
                          GeneratorDecl("w", (), 0, EVEN),
                          GeneratorDecl("u", (), 1, EVEN)])
    w, x, y, z = (sig.gen_id(n) for n in "wxyz")
    width = 50
    d_x = Element(sig, {(((w, k),) if k else ()) + ((y, 1), (z, 30)):
                        Fraction(1) for k in range(width)})
    d_u = Element(sig, {((x, 1), (z, 100 + i)): Fraction(1)
                        for i in range(batched.ALONE_PAIRS // width + 1)})
    alg = make_dgca(sig, {"x": d_x, "u": d_u})
    want = Element(sig, dict_leibniz(alg.d_images, d_u))
    assert want
    assert kernel_leibniz(sig, alg.d_images, [d_u.terms]) == [None]
    calls = spy_core(monkeypatch)
    rep = check_d_squared(alg)
    assert calls == [1]
    assert not rep.ok
    assert (rep.witness, rep.residual) == ("u", want)
    assert rep.stats == {"residual_terms": len(want)}


def test_apply_d_routes_by_leibniz_pairs(monkeypatch):
    """apply_d reaches the kernel core when d(x) has BATCH_PAIRS Leibniz
    pairs and not one pair below, whatever the number of input terms."""
    calls = []
    real = batched._sum_of_products

    def spy(sig, x, blocks, left_rows):
        calls.append(len(x.nums))
        return real(sig, x, blocks, left_rows)

    monkeypatch.setattr(batched, "_sum_of_products", spy)
    sig = make_signature([GeneratorDecl(n, (), 1 if n == "y" else 0, EVEN)
                          for n in "auwyz"])
    a, y, z = (sig.gen_id(n) for n in "ayz")
    gen_a = Element.generator(sig, "a")
    # one input term whose d-image has BATCH_PAIRS - 1, then BATCH_PAIRS terms
    for pairs, want in ((batched.BATCH_PAIRS - 1, []),
                        (batched.BATCH_PAIRS, [1])):
        image = Element(sig, {tuple(sorted(mono + ((y, 1),))): c for mono, c
                              in distinct_terms(sig, pairs).items()})
        assert apply_d(make_dgca(sig, {"a": image}), gen_a) == image
        assert calls == want
    # BATCH_PAIRS - 1 input terms with one pair each: one below the gate
    small = make_dgca(sig, {"a": Element.generator(sig, "y")})
    el = Element(sig, {((a, 1), (z, i)) if i else ((a, 1),): Fraction(1)
                       for i in range(batched.BATCH_PAIRS - 1)})
    assert apply_d(small, el).terms == dict_leibniz(small.d_images, el)
    assert calls == [1]
    # d mu4 on superMink(11), the membrane's closure check, has 34,816
    # pairs: past ALONE_PAIRS, so it runs alone; the gate is the measured
    # crossover of 1,000 pairs
    mink = _mink(11)
    mu4 = _mu(11, 2)
    with monkeypatch.context() as mp:
        mp.setattr(batched, "ALONE_PAIRS", 10 ** 6)
        assert batched._leibniz_pairs(mink.d_images, mu4.terms) == 34_816
    assert (batched.BATCH_PAIRS, batched.ALONE_PAIRS) == (1_000, 20_000)
    assert apply_d(mink, mu4).is_zero()
    assert calls == [1, len(mu4)]


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_batched_kernels_match_dict_path_across_step_rule(data):
    sig = data.draw(random_signature(max_gens=12))
    t1 = data.draw(random_terms(sig))
    t2 = data.draw(random_terms(sig))
    images = tuple(Element(sig, data.draw(random_terms(sig, max_terms=4)))
                   for _ in range(len(sig)))
    x = Element(sig, data.draw(random_terms(sig)))
    with kernel_gate_at_zero() as mp:
        for name, value in SCALED_STEPS.items():
            mp.setattr(batched, name, value)
        # at a partition gate of 0 every call accumulates in 32 buckets
        mp.setattr(batched, "PARTITION_PAIRS",
                   data.draw(st.sampled_from([0, batched.PARTITION_PAIRS])))
        assert kernel_product(sig, t1, t2) == dict_product(sig, t1, t2)
        assert (kernel_leibniz(sig, images, [x.terms])
                == [dict_leibniz(images, x)])


@pytest.mark.parametrize("pairs", [5, 6, 7, 23, 24, 25])
def test_batched_kernels_at_step_rule_breakpoints(monkeypatch, pairs):
    """Pair counts one below, at and one above each breakpoint of the
    scaled rule, for both kernels."""
    monkeypatch.setattr(batched, "BATCH_PAIRS", 0)
    for name, value in SCALED_STEPS.items():
        monkeypatch.setattr(batched, name, value)
    sig = make_signature(GeneratorDecl("x", (i,), i % 3, i % 2)
                         for i in range(10))
    rng = random.Random(pairs)
    rest = rng.sample(list(combinations(range(1, 10), 2)), pairs)
    t1 = {((0, 1), (g, 1), (h, 1)): Fraction(rng.randint(-5, 5) or 1,
                                             rng.randint(1, 3))
          for g, h in rest}
    t2 = {((9, 1),): Fraction(-2, 3)}
    assert kernel_product(sig, t1, t2) == dict_product(sig, t1, t2)
    # only x^0 has a d-image, of one term: one pair per input term
    images = tuple(Element(sig, {((1, 1), (2, 1)): Fraction(5)} if i == 0
                           else {}) for i in range(10))
    x = Element(sig, t1)
    assert (kernel_leibniz(sig, images, [x.terms])
            == [dict_leibniz(images, x)])


def test_step_rule_extremes():
    lo = batched.STEPS * batched.STEP_MIN
    hi = batched.STEPS * batched.STEP_MAX
    assert batched._step(1) == batched._step(lo) == batched.STEP_MIN
    assert batched._step(lo + batched.STEPS) == batched.STEP_MIN + 1
    assert batched._step(hi - batched.STEPS) == batched.STEP_MAX - 1
    assert batched._step(hi) == batched._step(10 * hi) == batched.STEP_MAX
    # the d(g4 - mu4) on super-Poincare and fivebrane's d mu7
    assert batched._step(149_856) == 4_683
    assert batched._step(741_888) == 23_184
    # one bucket below the partition gate; d mu7 and mu4**2 (912**2 pairs)
    # above it
    gate = batched.PARTITION_PAIRS
    assert batched._buckets(149_856) == batched._buckets(gate - 1) == 1
    assert (batched._buckets(gate) == batched._buckets(741_888)
            == batched._buckets(912 ** 2) == batched.BUCKETS == 32)


def test_apply_d_drops_zero_coefficients():
    """A zero coefficient in a raw Element must not leak into d of it: on
    superMink(3), d(0 e^0 e^1) once kept four explicit zero terms, which
    made is_coboundary reject its own witness."""
    alg = MINK3
    sig = alg.sig
    m = ((sig.gen_id("e^0"), 1), (sig.gen_id("e^1"), 1))
    dx = apply_d(alg, Element(sig, {m: Fraction(0)}))
    assert dx.terms == {}
    assert dx == Element.zero(sig)
    assert is_coboundary(alg, dx).status == "yes"
    # a zero next to a nonzero term: only the nonzero term's d is kept
    e2 = Element.generator(sig, "e^2")
    mixed = Element(sig, {m: Fraction(0), **e2.terms})
    assert apply_d(alg, mixed) == apply_d(alg, e2)


D_MU4_SETUP = """
from cealg import catalog
from cealg.dgca import adjoin_generator, apply_d
from cealg.graded import EVEN, Element, GeneratorDecl, transport

iso = catalog.super_poincare()
alg = adjoin_generator(iso, GeneratorDecl("g4", (), 4, EVEN),
                       Element.zero(iso.sig))
x = Element.generator(alg.sig, "g4") - transport(catalog._mu(11, 2), alg.sig)
"""


def test_resolved_poincare_d_mu4_memory_on_the_kernel():
    """The closure check d(g4 - mu4) of the resolved Poincare algebra
    (913 terms, 149,856 Leibniz pairs) runs on the batched kernel, gives 0
    and keeps its tracemalloc peak at most 2.94 MiB: 2.67 MiB measured
    (numpy 2.4.6), plus 10 %, where a fixed 2**17-pair step costs
    14.2 MiB."""
    terms, result, calls, peak = kernel_memory(
        D_MU4_SETUP, "apply_d(alg, x)", "len(x), len(out)")
    assert (terms, result, calls) == (913, 0, 1)
    assert peak <= 2.94 * 2 ** 20, f"peak {peak / 2 ** 20:.2f} MiB"


D_MU7_SETUP = """
from cealg import catalog
from cealg.dgca import apply_d

mink = catalog._mink(11)
mu7 = catalog._mu(11, 5)
"""


def test_d_mu7_memory_on_the_kernel():
    """d mu7 on superMink(11) (7,840 terms, 741,888 Leibniz pairs, a
    194,992-term result) runs on the kernel core and keeps its tracemalloc
    peak, result included, at most 16.33 MiB: 14.84 MiB measured (numpy
    2.4.6), plus 10 %.  One accumulator whose merges sorted all merged and
    waiting rows at once peaked at 24.05 MiB, where 32 buckets that merge
    alone hold one bucket's sort at a time."""
    terms, result, calls, peak = kernel_memory(
        D_MU7_SETUP, "apply_d(mink, mu7)", "len(mu7), len(out)")
    assert (terms, result, calls) == (7840, 194_992, 1)
    assert peak <= 16.33 * 2 ** 20, f"peak {peak / 2 ** 20:.2f} MiB"


CHECK_D_SQUARED_SETUP = """
from cealg import catalog
from cealg.dgca import check_d_squared

alg = catalog.resolved_poincare()
"""


def test_check_d_squared_memory_on_the_kernel():
    """d**2 = 0 on resolved Poincare: 98 d-images in one tagged core call,
    and d(g4 - mu4) alone, with a tracemalloc peak of at most 2.94 MiB:
    2.67 MiB measured (numpy 2.4.6), plus 10 %.  One core call over all 99
    d-images, where every row is as wide as d(g4 - mu4)'s, peaks at
    6.17 MiB."""
    generators, calls, peak = kernel_memory(
        CHECK_D_SQUARED_SETUP, "check_d_squared(alg)",
        'out.pinned["generators"]')
    assert (generators, calls) == (100, 2)
    assert peak <= 2.94 * 2 ** 20, f"peak {peak / 2 ** 20:.2f} MiB"


TRACE7_SETUP = """
from cealg import catalog
from cealg.dgca import apply_d

iso = catalog.super_poincare()
tr = catalog.trace_power(iso.sig, 7)
"""


def test_d_trace7_memory_on_the_kernel():
    """d tr(omega^7) on super-Poincare (206,580 terms in, 1,446,060 holes,
    d = 0), a Leibniz call whose peak is set by its hole rows, keeps its
    tracemalloc peak at most 177 MiB: 161.00 MiB measured (numpy 2.4.6),
    plus 10 %.  Gathering g's words by strided `np.nonzero` indices and
    with full-size temporaries peaked at 181.67 MiB, scanning the holes'
    sign words into a second copy at 192.70 MiB, and int8 hole exponent
    rows, before holes were derived from their terms' packed words, at
    390.7 MiB."""
    terms, result, calls, peak = kernel_memory(
        TRACE7_SETUP, "apply_d(iso, tr)", "len(tr), len(out)")
    assert (terms, result, calls) == (206_580, 0, 1)
    assert peak <= 177 * 2 ** 20, f"peak {peak / 2 ** 20:.2f} MiB"


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
    lazy = DGCAMorphism(r7, s4, (Element.generator(s4.sig, "g7"),))
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


def test_make_dgca_rejects_an_unknown_generator():
    sig = s4_algebra().sig
    g4 = Element.generator(sig, "g4")
    with pytest.raises(UnknownGenerator, match="gX"):
        make_dgca(sig, {"g7": g4 * g4, "gX": Element.zero(sig)})


def test_make_morphism_rejects_an_unknown_generator():
    s4 = s4_algebra()
    g4, g7 = (Element.generator(s4.sig, n) for n in ("g4", "g7"))
    with pytest.raises(UnknownGenerator, match="h9"):
        make_morphism(s4, s4, {"g4": g4, "g7": g7, "h9": g4})


def test_by_name_matches_names_and_takes_overrides():
    """`by_name` sends each generator to its namesake, and one the target
    lacks to 0; an override wins over the name; an override naming no
    source generator, or breaking the chain-map property, raises."""
    s4 = s4_algebra()
    fiber = set_generators_to_zero(s4, ["g4"])  # R[g7], no g4
    g4, g7 = (Element.generator(s4.sig, n) for n in ("g4", "g7"))
    kill = by_name(s4, fiber)
    assert kill.image_of("g4").is_zero()
    assert kill.image_of("g7") == Element.generator(fiber.sig, "g7")
    assert by_name(s4, s4) == identity_morphism(s4)
    # g4 -> 2 g4 forces g7 -> 4 g7, since d g7 = g4^2
    scaled = by_name(s4, s4, {"g4": 2 * g4, "g7": 4 * g7})
    assert (scaled.image_of("g4"), scaled.image_of("g7")) == (2 * g4, 4 * g7)
    with pytest.raises(UnknownGenerator, match="h9"):
        by_name(s4, s4, {"h9": g4})
    with pytest.raises(ChainMapViolation):
        by_name(s4, s4, {"g4": 2 * g4})


def test_chain_homotopy_rejects_an_unknown_generator():
    s4 = s4_algebra()
    ident = identity_morphism(s4)
    with pytest.raises(UnknownGenerator, match="h3"):
        ChainHomotopy(ident, ident, {"h3": Element.zero(s4.sig)})


def reference_morphism(f, x):
    """f(x) as `DGCAMorphism.__call__` computed it before the
    first-generator recursion: per monomial, its coefficient times the
    images of its factors, one product at a time, with each power of an
    image built once per call."""
    tsig = f.target.sig
    out = {}
    pow_cache = {}
    for mono, coeff in x.terms.items():
        acc = Element.scalar(tsig, coeff)
        for g, e in mono:
            p = pow_cache.get((g, e))
            if p is None:
                p = f.images[g]
                for _ in range(e - 1):
                    p = p * f.images[g]
                pow_cache[(g, e)] = p
            acc = acc * p
            if not acc:
                break
        _accumulate(out, acc.terms.items())
    return Element(tsig, out)


def reference_homotopy(s, x):
    """s(x) as `ChainHomotopy.__call__` computed it before the
    first-generator recursion: per monomial, flattened to its factors, the
    sum over slots i of (-1)^(deg of the factors before i)
    f(left) s(factor i) g(right), with f and g applied by
    `reference_morphism` to one-monomial elements."""
    src = s.f.source.sig

    def monomial(flat):
        out = []
        for g in flat:
            if out and out[-1][0] == g:
                out[-1] = (g, out[-1][1] + 1)
            else:
                out.append((g, 1))
        return Element(src, {tuple(out): Fraction(1)})

    out = {}
    for mono, coeff in x.terms.items():
        flat = [g for g, e in mono for _ in range(e)]
        deg_prefix = 0
        for i, gid in enumerate(flat):
            if s.images[gid]:
                term = (reference_morphism(s.f, monomial(flat[:i]))
                        * s.images[gid]
                        * reference_morphism(s.g, monomial(flat[i + 1:])))
                sign = -1 if deg_prefix & 1 else 1
                _accumulate(out, ((coeff * sign) * term).terms.items())
            deg_prefix += src.degrees[gid]
    return Element(s.f.target.sig, out)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_morphism_and_homotopy_match_the_per_monomial_loops(data):
    """f(x) and s(x) by the first-generator recursion against the loops it
    replaced (`reference_morphism`, `reference_homotopy`), with the kernel
    gate at 0 and at its default.  Generators of degree 0-4 and either
    parity; images of up to three terms, zero ones included, drawn apart
    for f, g and s (so f != g), of any bidegree, since both sides form the
    same ordered products; x on up to three generators with exponents up
    to 3, so constants, powers and the zero element occur."""
    src = data.draw(random_signature(max_gens=6))
    tsig = data.draw(random_signature(max_gens=8))
    A, B = SemifreeDGCA(src, ()), SemifreeDGCA(tsig, ())

    def images():
        return tuple(Element(tsig, data.draw(random_terms(tsig, max_terms=3)))
                     for _ in range(len(src)))

    f, g = DGCAMorphism(A, B, images()), DGCAMorphism(A, B, images())
    s = ChainHomotopy(f, g, {})
    s.images = images()
    among = data.draw(st.lists(st.sampled_from(range(len(src))), max_size=3,
                               unique=True))
    x = Element(src, data.draw(random_terms(src, max_terms=6, among=among)))
    want_f, want_s = reference_morphism(f, x), reference_homotopy(s, x)
    for gate in (0, batched.BATCH_PAIRS):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(batched, "BATCH_PAIRS", gate)
            assert f(x) == want_f
            assert s(x) == want_s


def test_homotopy_applies_no_morphism_through_its_public_call(monkeypatch):
    """s(x) reaches f and g only through their private recursion, not by
    calling the morphisms on one-monomial elements."""
    calls = []
    real = DGCAMorphism.__call__

    def spy(self, x):
        calls.append(x)
        return real(self, x)

    monkeypatch.setattr(DGCAMorphism, "__call__", spy)
    sig = make_signature([GeneratorDecl("g4", (), 4, EVEN),
                          GeneratorDecl("h3", (), 3, EVEN)])
    g4, h3 = Element.generator(sig, "g4"), Element.generator(sig, "h3")
    alg = make_dgca(sig, {"h3": g4})
    ident = identity_morphism(alg)
    zero = DGCAMorphism(alg, alg, (Element.zero(sig),) * 2)
    s = ChainHomotopy(ident, zero, {"g4": h3})
    assert s(g4 * g4 + 3 * g4) == g4 * h3 + 3 * h3
    assert calls == []


def test_high_powers_recurse_once_per_distinct_generator():
    """A monomial's whole first power is split off at once, so a power far
    past the interpreter's recursion limit goes through f and s: z^2000 by
    the identity, and s(y^1500) = 1500 y^1499 w for f = g = id, s(y) = w."""
    zsig = make_signature([GeneratorDecl("z", (), 0, EVEN)])
    z2000 = Element.from_terms(zsig, [(1, [("z", 2000)])])
    assert identity_morphism(make_dgca(zsig, {}))(z2000) == z2000

    sig = make_signature([GeneratorDecl("y", (), 2, EVEN),
                          GeneratorDecl("w", (), 1, EVEN)])
    ident = identity_morphism(make_dgca(sig, {}))
    s = ChainHomotopy(ident, ident, {"y": Element.generator(sig, "w")})
    y1500 = Element.from_terms(sig, [(1, [("y", 1500)])])
    assert s(y1500) == Element.from_terms(sig, [(1500, [("y", 1499),
                                                        ("w", 1)])])


def test_homotopy_f_f_zero_passes():
    s4 = s4_algebra()
    ident = identity_morphism(s4)
    s = ChainHomotopy(ident, ident, {})
    assert check_homotopy(s).ok


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
    assert check_homotopy(s).ok
    # wrong scale fails with residual
    s_bad = ChainHomotopy(ident, compose(to_ground, back),
                          {"g4": 2 * Element.generator(sig, "h3")})
    rep = check_homotopy(s_bad)
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
