"""Catalog constructions: named algebras, cocycles, extensions, lifts."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cealg import batched, catalog
from cealg import (
    ChainHomotopy,
    Element,
    GeneratorDecl,
    NotClosed,
    NotProportional,
    SemifreeDGCA,
    ZeroCocycle,
    adjoin_generator,
    apply_d,
    brane_cocycle,
    by_name,
    build_clifford,
    check_d_squared,
    check_homotopy,
    compose,
    identity_morphism,
    m2brane,
    m5_cocycle,
    make_dgca,
    make_morphism,
    make_signature,
    measured_c,
    poly_de_rham,
    resolved_minkowski,
    resolved_poincare,
    set_generators_to_zero,
    sphere_model,
    super_minkowski,
    super_poincare,
    trace_power,
    transport,
    verify_brane_scan_entry,
    verify_m5_relation,
)
from cealg.catalog import (
    CatalogError,
    _mink,
    _mu,
    coefficient_line,
    equivariant_lift,
    proportionality_constant,
    resolution_homotopy_report,
)
from cealg.graded import EVEN, GradedError, SignatureMismatch
from fresh import fresh_run
from test_graded import kernel_gate_at_zero, random_signature, random_terms


def test_super_minkowski_shapes():
    """superMink(d) has d e-generators and one psi per spinor component of
    the built-in representation, which is read from the cached `_rep`."""
    mink11 = super_minkowski(11)
    assert len(mink11.sig) == 43
    assert len(super_minkowski(3).sig) == 5
    assert mink11 is _mink(11)
    assert catalog._rep(11) is catalog._rep(11)
    assert catalog._rep(11).n_spin == build_clifford(11).n_spin == 32


@pytest.mark.parametrize("build", [
    lambda: super_minkowski(3),
    lambda: super_minkowski(11),
    m2brane,
    lambda: resolved_minkowski()[0],
    super_poincare,
    resolved_poincare,
    lambda: coefficient_line(2),
    lambda: sphere_model(4),
    lambda: sphere_model(7),
    lambda: poly_de_rham(3),
], ids=["mink3", "mink11", "m2brane", "resolved", "iso", "resolvedpoincare",
        "line", "s4", "s7", "derham3"])
def test_constructors_return_the_algebra(build):
    assert type(build()) is SemifreeDGCA


def test_psi_closed_and_e_differential_quadratic():
    alg = _mink(11)
    assert alg.d_of("psi^7").is_zero()
    de0 = alg.d_of("e^0")
    assert de0.is_homogeneous((2, 0))
    # C Gamma^0 = -Id: d e^0 = -sum_alpha (psi^alpha)^2
    assert len(de0) == 32
    assert set(de0.terms.values()) == {Fraction(-1)}


def test_zero_cocycles():
    with pytest.raises(ZeroCocycle):
        brane_cocycle(11, 0)
    with pytest.raises(ZeroCocycle):
        brane_cocycle(11, 3)
    with pytest.raises(ZeroCocycle):
        brane_cocycle(11, 4)


@pytest.mark.parametrize("d", [3, 11])
def test_brane_cocycle_rank_outside_the_dimension(d):
    """No rank-p pairing exists for p > d: that is a bad argument, as
    p < 0 is, not a cocycle found to vanish."""
    for p in (d + 1, -1):
        with pytest.raises(CatalogError, match="p must lie in") as exc:
            brane_cocycle(d, p)
        assert not isinstance(exc.value, ZeroCocycle)


@pytest.mark.parametrize("d, p", [(3, 1), (3, 2), (11, 2)])
def test_brane_cocycle_equals_the_cached_mu(d, p):
    assert brane_cocycle(d, p) == _mu(d, p)
    assert brane_cocycle(d, p).sig == _mink(d).sig


def test_mu_closures():
    assert apply_d(_mink(3), _mu(3, 1)).is_zero()
    assert apply_d(_mink(11), _mu(11, 2)).is_zero()
    # p = 1 in d = 11 is not closed (no superstring in d = 11)
    mu3_11 = _mu(11, 1)
    assert not apply_d(_mink(11), mu3_11).is_zero()


def test_m5_relation_pins_c_15():
    rep = verify_m5_relation()
    assert rep.ok
    assert rep.pinned["c"] == "15/1"
    assert measured_c() == 15


def test_m5_relation_computed_once_per_process():
    # measured_c() must reuse the verify_m5_relation() cache entry
    verify_m5_relation()
    measured_c()
    assert verify_m5_relation.cache_info().currsize == 1


def test_run_task_times_a_copy_of_the_cached_report():
    from cealg.reporting import run_task

    rep = run_task("m5.relation")
    assert rep.ok and rep is not verify_m5_relation()
    assert verify_m5_relation().duration_s == 0.0


def test_proportionality_negative_control():
    alg = _mink(11)
    mu4 = _mu(11, 2)
    mu7 = _mu(11, 5)
    m0 = min(mu7.terms)
    perturbed = mu7 + Element(mu7.sig, {m0: Fraction(1)})
    with pytest.raises(NotProportional) as exc:
        proportionality_constant(apply_d(alg, perturbed), mu4 * mu4)
    assert exc.value.residual is not None and not exc.value.residual.is_zero()



def test_proportionality_zero_sides():
    mu3 = _mu(3, 1)
    zero = Element.zero(mu3.sig)
    assert proportionality_constant(zero, mu3) == 0
    assert proportionality_constant(zero, zero) == 0
    assert proportionality_constant(-3 * mu3, mu3) == -3
    with pytest.raises(NotProportional) as exc:
        proportionality_constant(mu3, zero)
    assert exc.value.residual == mu3
    # lhs misses rhs's first monomial, so the tried c is 0
    m0 = min(mu3.terms)
    shifted = mu3 - Element(mu3.sig, {m0: mu3.terms[m0]})
    assert shifted
    with pytest.raises(NotProportional) as exc:
        proportionality_constant(shifted, mu3)
    assert exc.value.residual == shifted


def test_proportionality_zero_lhs_in_another_signature():
    """Sides from two signatures raise SignatureMismatch, a zero lhs too."""
    sig_a, sig_b = (make_signature([GeneratorDecl(n, (), 0, EVEN)])
                    for n in "ab")
    b = Element.generator(sig_b, "b")
    for lhs in (Element.zero(sig_a), Element.generator(sig_a, "a")):
        with pytest.raises(SignatureMismatch):
            proportionality_constant(lhs, b)


def outcome(lhs, rhs):
    """proportionality_constant(lhs, rhs): c, or the error's type, message
    and residual."""
    try:
        return proportionality_constant(lhs, rhs)
    except GradedError as exc:
        return type(exc), str(exc), getattr(exc, "residual", None)


def packed_against_dict_path(sig_l, lhs, sig_r, rhs):
    """The outcome on packed sides (`batched.Packed`), which must equal the
    outcome on the same terms held in dicts; returns it."""
    got = outcome(Element.from_packed(sig_l, lhs),
                  Element.from_packed(sig_r, rhs))
    want = outcome(Element(sig_l, lhs.decode()), Element(sig_r, rhs.decode()))
    assert got == want
    return got


def rows(p, keep):
    """The packed rows `keep` of p (a slice or index array)."""
    return batched.Packed(p.keys[keep], p.nums[keep], p.den, p.ctx)


def perturbed(p, i):
    nums = p.nums.copy()
    nums[i] += 1 if nums[i] != -1 else 2
    return batched.Packed(p.keys, nums, p.den, p.ctx)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_packed_proportionality_matches_dict_path(data):
    """The decision on the arrays against the dict path: x (y z) against
    ((c x) y) z, kernel products whose layouts (columns in use and their
    maxima) may differ, swapped, with one coefficient perturbed, a key
    missing on either side or on both, zero sides and a second signature.
    A pass on two nonzero packed sides decodes neither exactly when they
    share one layout and equal key arrays and the int64 guard does not
    trip.  The same keys in another row order (rows shuffled, or rhs
    computed again with `_HASH_MUL` = 0, under which every key hashes to 0
    and merges take the collision fallback, by key) are not decided on the
    arrays; the terms still give c."""
    sig = data.draw(random_signature(max_gens=12))
    x, y, z = (data.draw(random_terms(sig, max_terms=6)) for _ in range(3))
    c = data.draw(st.fractions(min_value=-5, max_value=5,
                               max_denominator=7).filter(bool))
    with kernel_gate_at_zero() as mp:
        yz = batched.sum_of_products(sig, [(y, z)])
        lhs = batched.sum_of_products(sig, [(x, yz.decode())])
        cx = {m: c * v for m, v in x.items()}
        cxy = batched.sum_of_products(sig, [(cx, y)]).decode()
        rhs = batched.sum_of_products(sig, [(cxy, z)])
        mp.setattr(batched, "_HASH_MUL", np.uint64(0))
        collided = batched.sum_of_products(sig, [(cxy, z)])
    n = len(lhs)
    assert len(rhs) == len(collided) == n
    if n:
        left = Element.from_packed(sig, lhs)
        right = Element.from_packed(sig, rhs)
        assert proportionality_constant(left, right) == 1 / c
        # a proportional pair goes to the dict path when the sides differ
        # in layout or key arrays, or the int64 guard trips
        guarded = (int(np.abs(lhs.nums).max())
                   * int(np.abs(rhs.nums).max()) >= 2 ** 63)

        def arrays_decide(other):
            return (not guarded and lhs.ctx.same_layout(other.ctx)
                    and np.array_equal(lhs.keys, other.keys))

        assert (left.packed is lhs and right.packed is rhs) == (
            arrays_decide(rhs))
        assert packed_against_dict_path(sig, rhs, sig, lhs) == c
        shuffled = rows(rhs, np.array(data.draw(st.permutations(range(n)))))
        for other in (collided, shuffled):
            assert batched.proportional(lhs, other) == (
                1 / c if arrays_decide(other) else None)
            assert packed_against_dict_path(sig, lhs, sig, other) == 1 / c
        half = batched.Packed(rhs.keys, rhs.nums, 2 * rhs.den, rhs.ctx)
        assert batched.proportional(rhs, half) == (
            None if int(np.abs(rhs.nums).max()) ** 2 >= 2 ** 63 else 2)
        i, j = (data.draw(st.integers(min_value=0, max_value=n - 1))
                for _ in range(2))
        others = np.arange(n) != i
        cases = [(lhs, perturbed(rhs, i)), (rows(lhs, others), rhs),
                 (lhs, rows(rhs, others))]
        if i != j:
            # rows of one monomial share an index only in one layout, so
            # rhs drops the row of lhs's row j
            monos = [next(iter(rows(rhs, [k]).decode())) for k in range(n)]
            k = monos.index(next(iter(rows(lhs, [j]).decode())))
            cases.append((rows(lhs, others), rows(rhs, np.arange(n) != k)))
        for a, b in cases:
            got = packed_against_dict_path(sig, a, sig, b)
            # with one term, a perturbed side is still proportional and a
            # dropped key leaves a zero side
            assert n == 1 or got[0] is NotProportional
        wider = make_signature(list(sig.decls)
                               + [GeneratorDecl("y", (), 0, EVEN)])
        got = packed_against_dict_path(sig, lhs, wider, rhs)
        assert got[0] is SignatureMismatch
    zero = rows(rhs, slice(0, 0))
    for a, b in [(zero, rhs), (lhs, zero), (zero, zero)]:
        packed_against_dict_path(sig, a, sig, b)


def test_packed_proportionality_int64_guard():
    """When max|nums_l| * max|nums_r| could reach 2**63 the arrays decide
    nothing and the dict path answers.  Without the guard, (2**32 z +
    z**2) y against (2**32 z + (1 + 2**32) z**2) y would pass with c = 1:
    1 * 2**32 and (1 + 2**32) * 2**32 agree modulo 2**64."""
    sig = make_signature([GeneratorDecl(n, (), 0, EVEN) for n in "yz"])
    y, z = sig.gen_id("y"), sig.gen_id("z")

    def packed(c1, c2):
        with kernel_gate_at_zero():
            return batched.sum_of_products(sig, [({((z, 1),): Fraction(c1),
                                                   ((z, 2),): Fraction(c2)},
                                                  {((y, 1),): Fraction(1)})])

    for lhs, rhs, want in [
            (packed(2 ** 32, 1), packed(2 ** 32, 1 + 2 ** 32), None),
            (packed(2 ** 40, 2 ** 41), packed(2 ** 30, 2 ** 31), 2 ** 10)]:
        assert batched.proportional(lhs, rhs) is None
        got = packed_against_dict_path(sig, lhs, sig, rhs)
        if want is None:
            assert got[0] is NotProportional
        else:
            assert got == want
    # below the guard, the arrays decide
    assert batched.proportional(packed(2 ** 20, 2 ** 21),
                                packed(2 ** 10, 2 ** 11)) == 2 ** 10


def test_packed_proportionality_same_keys_in_another_order(monkeypatch):
    """Keys of two words: t1 t2 in the merges' hash order against
    (2 t1) t2 computed with `_HASH_MUL` = 0, under which every key hashes
    to 0, so that merges sort the full keys instead.  The sides share a
    layout and a key set in different row orders, so the arrays decide
    nothing, and the terms give c = 1/2."""
    sig = make_signature(GeneratorDecl("x", (i,), i % 5, i % 2)
                         for i in range(80))
    rng = random.Random(7)
    pool = [0, 1, 2, 3, 76, 77, 78, 79]
    t1, t2 = ({tuple((g, rng.randint(1, 1 if sig.sqz[g] else 3))
                     for g in sorted(rng.sample(pool, 3))):
               Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 5))
               for _ in range(60)} for _ in range(2))
    t1[tuple((g, 1) for g in range(80))] = Fraction(1)
    with kernel_gate_at_zero() as mp:
        lhs = batched.sum_of_products(sig, [(t1, t2)])
        mp.setattr(batched, "_HASH_MUL", np.uint64(0))
        sorts = []
        lexsort = np.lexsort
        mp.setattr(np, "lexsort", lambda k: sorts.append(1) or lexsort(k))
        rhs = batched.sum_of_products(sig, [({m: 2 * v for m, v in t1.items()},
                                             t2)])
    assert sorts and lhs.ctx.words == 2 and lhs.ctx.same_layout(rhs.ctx)
    assert not np.array_equal(lhs.keys, rhs.keys)
    assert batched.proportional(lhs, rhs) is None
    assert packed_against_dict_path(sig, lhs, sig, rhs) == Fraction(1, 2)


M5_DECODE_SCRIPT = """
import numpy as np

from cealg import batched, catalog

calls = {"decode": 0, "lexsort": 0}


def counted(name, real):
    def call(*args, **kwargs):
        calls[name] += 1
        return real(*args, **kwargs)
    return call


batched._Context.decode = counted("decode", batched._Context.decode)
np.lexsort = counted("lexsort", np.lexsort)
rep = catalog.verify_m5_relation()
chi, cocycle = catalog.m5_cocycle()
print(rep.verdict, rep.pinned["c"], cocycle.verdict, *calls.values())
"""


def test_passing_m5_run_decodes_no_kernel_result():
    """verify_m5_relation() and m5_cocycle() pass without decoding a kernel
    result and without sorting one by key (no `np.lexsort` call anywhere):
    d mu7 = 15 mu4**2 is decided on the arrays as the kernel left them,
    since both sides share one layout and one row order, and every other
    kernel result is only tested for zero.  Run
    in a fresh interpreter, so that no cached construction hides a call."""
    assert fresh_run(M5_DECODE_SCRIPT).split() == [
        "pass", "15/1", "pass", "0", "0"]


M5_MEMORY_SCRIPT = """
import tracemalloc

from cealg import catalog
from cealg.dgca import apply_d

mink = catalog._mink(11)
mu4 = catalog._mu(11, 2)
mu7 = catalog._mu(11, 5)
tracemalloc.start()
d_mu7 = apply_d(mink, mu7)
mu4_sq = mu4 * mu4
c = catalog.proportionality_constant(d_mu7, mu4_sq)
peak = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
lhs, rhs = d_mu7.packed.ctx, mu4_sq.packed.ctx
layout = (lhs.word, lhs.shift) == (rhs.word, rhs.shift)
print(c, len(d_mu7), len(mu4_sq), layout, peak)
"""


def test_m5_relation_memory_on_the_arrays():
    """d mu7, mu4**2 and their comparison, as verify_m5_relation() runs
    them, keep a tracemalloc peak of at most 16.32 MiB: 14.83 MiB measured
    (numpy 2.4.6), plus 10 %.  Forming mu4**2 from all 912**2 ordered
    pairs of terms peaked at 14.99 MiB, and one accumulator per call, not
    32 buckets, at 24.05 MiB; re-sorting both sides into a union layout for the
    comparison had peaked at 25.50 MiB, and decoding both 194,992-term
    results into dicts at 68.4 MiB.  Both sides share one layout.  Run in
    a fresh interpreter, so that the figure repeats exactly."""
    c, d_mu7, mu4_sq, layout, peak = fresh_run(M5_MEMORY_SCRIPT).split()
    assert (c, d_mu7, mu4_sq, layout) == ("15", "194992", "194992", "True")
    assert int(peak) <= 16.32 * 2 ** 20, f"peak {int(peak) / 2 ** 20:.2f} MiB"


M5_CORE_CALLS_SCRIPT = """
from cealg import batched, catalog

calls = []
phase = ["relation"]
core, pairs = batched._sum_of_products, batched._pairs


def counted_core(*args):
    calls.append([phase[0], 0])
    return core(*args)


def counted_pairs(a, b, ends, *rest):
    calls[-1][1] = int(ends.max(initial=0))
    return pairs(a, b, ends, *rest)


batched._sum_of_products = counted_core
batched._pairs = counted_pairs
catalog.verify_m5_relation()
phase[0] = "cocycle"
chi, rep = catalog.m5_cocycle()
print(rep.verdict)
for name, n in calls:
    print(name, n)
"""


def test_m5_run_computes_each_large_product_once():
    """verify_m5_relation() then m5_cocycle() make exactly two kernel core
    calls of at least 100,000 term pairs, both in the relation: d mu7
    (741,888 Leibniz pairs) and mu4**2, which forms each unordered pair of
    mu4's 912 terms once (912 * 913 / 2 = 416,328 pairs; the filter was
    500,000 while it formed all 912**2).  The next largest call, d mu4 in
    the cocycle's m2brane, has 34,816.  m5_cocycle makes no large call: it
    closes h3 mu4 + mu7/15 from the relation's constant by the Leibniz
    rule over h3, where d of the cocycle took 1.6 M pairs of its own.  Run
    in a fresh interpreter, so that no cached construction hides a call."""
    lines = fresh_run(M5_CORE_CALLS_SCRIPT).splitlines()
    assert lines[0] == "pass"
    calls = [(name, int(n)) for name, n in map(str.split, lines[1:])]
    assert [c for c in calls if c[1] >= 100_000] == [
        ("relation", 741_888), ("relation", 912 * 913 // 2)]


M5_COCYCLE_MEMORY_SCRIPT = """
import tracemalloc

from cealg import catalog

tracemalloc.start()
catalog.verify_m5_relation()
tracemalloc.reset_peak()
chi, rep = catalog.m5_cocycle()
peak = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
print(rep.verdict, len(chi), peak)
"""


def test_m5_cocycle_memory_after_the_relation():
    """m5_cocycle() after verify_m5_relation() keeps the tracemalloc peak,
    traced from the interpreter's start (so whatever the relation leaves
    cached counts), at most 3.42 MiB: 3.11 MiB measured (numpy 2.4.6),
    plus 10 %.  Before mu4, mu7 and their transports shared their
    (generator, exponent) tuples (`graded.FACTORS`) and coefficients, it
    peaked at 8.36 MiB; keeping d mu7, mu4**2 and d mu4 cached for the cocycle at 20.01 MiB,
    and the direct d of the 8,752-term cocycle, a 1.6 M-pair Leibniz call,
    at 36.30 MiB.  Run in a fresh interpreter, so that the figure repeats
    exactly."""
    verdict, terms, peak = fresh_run(M5_COCYCLE_MEMORY_SCRIPT).split()
    assert (verdict, terms) == ("pass", "8752")
    assert int(peak) <= 3.42 * 2 ** 20, f"peak {int(peak) / 2 ** 20:.2f} MiB"


def test_m2brane_extension():
    m2 = m2brane()
    assert "h3" in m2.sig.names
    assert m2.d_of("h3") == -transport(_mu(11, 2), m2.sig)
    assert check_d_squared(m2).ok


def test_adjoin_non_closed_mu7_rejected():
    mink = _mink(11)
    with pytest.raises(NotClosed):
        adjoin_generator(mink, GeneratorDecl("b6", (), 6, EVEN),
                         _mu(11, 5))


def test_adjoin_with_alternative_normalization():
    # the scale parameter reproduces the d h3 = -15 mu4 convention
    mink = _mink(11)
    ext = adjoin_generator(mink, GeneratorDecl("h3", (), 3, EVEN),
                           _mu(11, 2), lam=-15)
    assert ext.d_of("h3") == -15 * transport(_mu(11, 2), ext.sig)


def test_m5_cocycle_closed_and_wrong_normalization_fails():
    """chi is closed by the Leibniz rule over h3 and by the direct d; for
    h3 mu4 + (2/c) mu7 both give the same residual, term for term."""
    chi, rep = m5_cocycle()
    assert rep.ok
    m2 = m2brane()
    assert apply_d(m2, chi).is_zero()
    sig = m2.sig
    h3 = Element.generator(sig, "h3")
    mu4 = transport(_mu(11, 2), sig)
    mu7 = transport(_mu(11, 5), sig)
    c = measured_c()
    bad = h3 * mu4 + (2 / c) * mu7
    res = apply_d(m2, bad)
    assert not res.is_zero()
    # the leftover is exactly mu4^2
    assert res == mu4 * mu4
    # the product rule gives it from the relation's constant
    same, leibniz = catalog._close_m5(2 / c)
    assert same == bad and leibniz == res
    # and d(h3 mu4) alone is -mu4^2
    assert apply_d(m2, h3 * mu4) == -(mu4 * mu4)


M5_TERMS_SCRIPT = """
from cealg import batched, catalog

batched.proportional = lambda lhs, rhs: None
rep = catalog.verify_m5_relation()
chi, cocycle = catalog.m5_cocycle()
print(rep.verdict, rep.pinned["c"], cocycle.verdict, len(chi))
"""


def test_m5_cocycle_product_rule_falls_back_to_the_terms():
    """When the arrays do not show d mu7 = 15 mu4**2 (as when
    `batched.proportional` meets its int64 guard), the relation compares
    the terms, and the relation and the cocycle pass all the same.  Run in
    a fresh interpreter, so that no cached verdict hides the comparison."""
    assert fresh_run(M5_TERMS_SCRIPT).split() == [
        "pass", "15/1", "pass", "8752"]


M5_LEIBNIZ_INPUTS_SCRIPT = """
from cealg import batched, catalog

inputs = []
leibniz = batched.leibniz


def spy(sig, d_images, terms):
    inputs.extend(len(t) for t in terms)
    return leibniz(sig, d_images, terms)


batched.leibniz = spy
rep = catalog.verify_m5_relation()
chi, cocycle = catalog.m5_cocycle()
print(rep.verdict, cocycle.verdict, *inputs)
"""


def test_m5_run_takes_d_mu4_once():
    """A passing verify_m5_relation() then m5_cocycle() takes exactly two
    d's: d mu7 (7,840 terms in) for the relation, and d mu4 (912 terms in)
    for `m2brane`'s closure check.  The cocycle's d is read from the
    relation's constant, and d mu4 is not taken a second time.  Run in a
    fresh interpreter, so that no cached construction hides a call."""
    assert fresh_run(M5_LEIBNIZ_INPUTS_SCRIPT).split() == [
        "pass", "pass", "7840", "912"]


def test_resolution_round_trip_and_homotopy():
    res, p, iota, s = resolved_minkowski()
    mink_alg = _mink(11)
    assert compose(iota, p) == identity_morphism(mink_alg)
    rep = resolution_homotopy_report()
    assert rep.ok
    # d h3 = g4 - mu4 realizes the homotopy identity on g4
    sig = res.sig
    g4 = Element.generator(sig, "g4")
    mu4 = transport(_mu(11, 2), sig)
    assert apply_d(res, Element.generator(sig, "h3")) == g4 - mu4


def test_wrong_homotopy_scale_fails():
    res, p, iota, s = resolved_minkowski()
    sig = res.sig
    ident = identity_morphism(res)
    around = compose(p, iota)
    bad = ChainHomotopy(ident, around,
                        {"g4": 2 * Element.generator(sig, "h3")})
    rep = check_homotopy(bad)
    assert not rep.ok and rep.witness == "g4"


def test_homotopy_f_f_zero_on_projection():
    _, p, _, _ = resolved_minkowski()
    zero = ChainHomotopy(p, p, {})
    assert check_homotopy(zero).ok


def test_equivariant_lift_identity():
    phi, rep = equivariant_lift()
    assert rep.ok  # includes the residual-zero chain check on g7
    # the displayed identity: (g4 - mu4)(g4 + mu4) + mu4^2 = g4^2
    res = resolved_minkowski()[0]
    sig = res.sig
    g4 = Element.generator(sig, "g4")
    mu4 = transport(_mu(11, 2), sig)
    assert (g4 - mu4) * (g4 + mu4) + mu4 * mu4 == g4 * g4
    # chain check on g4: 0 = 0
    assert apply_d(res, phi.image_of("g4")).is_zero()


def test_name_matching_maps_equal_their_hand_written_images():
    """The projection p, the inclusion iota, the membrane restriction q
    (g4 -> 0) and the omega -> 0 restriction kappa, as `by_name` builds
    them, against their images written out name by name."""
    res, p, iota, _ = resolved_minkowski()
    mink = _mink(11)
    m2 = m2brane()
    rp = resolved_poincare()

    proj = {n: Element.generator(mink.sig, n) for n in mink.sig.names}
    proj["h3"] = Element.zero(mink.sig)
    proj["g4"] = _mu(11, 2)
    incl = {n: Element.generator(res.sig, n) for n in mink.sig.names}
    q_images = {n: Element.generator(m2.sig, n) for n in mink.sig.names}
    q_images["h3"] = Element.generator(m2.sig, "h3")
    q_images["g4"] = Element.zero(m2.sig)
    omega = {d.name for d in rp.sig.decls if d.family == "omega"}
    kappa_images = {n: (Element.zero(res.sig) if n in omega
                        else Element.generator(res.sig, n))
                    for n in rp.sig.names}
    for f, want in [(p, proj), (iota, incl), (by_name(res, m2), q_images),
                    (by_name(rp, res), kappa_images)]:
        assert sorted(want) == sorted(f.source.sig.names)
        for name, image in want.items():
            assert f.image_of(name) == image, name


def test_sphere_map_g7_image_written_out():
    """g7 -> h3 (g4 + mu4) + mu7 / 15 on resolved Minkowski, and g4 -> g4;
    the equivariant lift is this map."""
    res = resolved_minkowski()[0]
    sig = res.sig
    g4, h3 = (Element.generator(sig, n) for n in ("g4", "h3"))
    mu4, mu7 = (transport(_mu(11, p), sig) for p in (2, 5))
    phi = catalog._sphere_map(res)
    assert phi.image_of("g4") == g4
    assert phi.image_of("g7") == (h3 * g4 + h3 * mu4
                                  + Fraction(1, 15) * mu7)
    assert phi == equivariant_lift()[0]


def test_kill_translations_in_m2brane_leaves_free_h3():
    m2 = m2brane()
    names = [d.name for d in m2.sig.decls if d.family in ("e", "psi")]
    quotient = set_generators_to_zero(m2, names)
    assert list(quotient.sig.names) == ["h3"]
    assert quotient.d_of("h3").is_zero()


def test_coefficient_line():
    line = coefficient_line(2)
    assert list(line.sig.names) == ["g4"]
    assert line.d_of("g4").is_zero()
    # mu4 as a validated morphism from the line
    f = make_morphism(line, _mink(11), {"g4": _mu(11, 2)})
    assert f.image_of("g4") == _mu(11, 2)


def test_super_poincare_d_squared():
    iso = super_poincare()
    assert len(iso.sig) == 43 + 55
    assert check_d_squared(iso).ok


def reference_super_poincare():
    """super-Poincare's d-images by explicit index loops, each omega_{ab}
    resolved to the stored a < b generator by its own rule, with the
    psibar Gamma^a psi of d e^a taken from superMink(11): the
    construction that `_omega_matrix` replaced, kept as a reference."""
    mink = _mink(11)
    rep = catalog._rep(11)
    d, eta = rep.d, rep.eta
    pairs = [(a, b) for a in range(d) for b in range(a + 1, d)]
    sig = make_signature(list(mink.sig.decls)
                         + [GeneratorDecl("omega", ab, 1, EVEN)
                            for ab in pairs])

    def w(a, b):  # omega_{ab} as (stored generator, sign)
        return (f"omega^{a},{b}", 1) if a < b else (f"omega^{b},{a}", -1)

    images = {}
    for a in range(d):
        # omega^a_b e^b = eta^aa omega_{ab} e^b
        terms = [(eta[a] * w(a, b)[1], [(w(a, b)[0], 1), (f"e^{b}", 1)])
                 for b in range(d) if b != a]
        images[f"e^{a}"] = (Element.from_terms(sig, terms)
                            + transport(mink.d_of(f"e^{a}"), sig))
    for i in range(rep.n_spin):
        terms = []
        for a, b in pairs:
            row = (rep.gammas[a] @ rep.gammas[b])[i]
            terms += [(Fraction(int(row[j]), 2),
                       [(f"omega^{a},{b}", 1), (f"psi^{j + 1}", 1)])
                      for j in range(rep.n_spin) if row[j]]
        images[f"psi^{i + 1}"] = Element.from_terms(sig, terms)
    for a, b in pairs:
        terms = [(eta[c] * w(a, c)[1] * w(c, b)[1],
                  [(w(a, c)[0], 1), (w(c, b)[0], 1)])
                 for c in range(d) if c not in (a, b)]
        images[f"omega^{a},{b}"] = Element.from_terms(sig, terms)
    return make_dgca(sig, images)


def test_super_poincare_matches_the_index_loop_reference():
    assert super_poincare() == reference_super_poincare()


def test_mu4_still_closed_on_iso():
    iso = super_poincare()
    mu4 = transport(_mu(11, 2), iso.sig)
    assert apply_d(iso, mu4).is_zero()


def test_traces_small():
    iso = super_poincare()
    assert trace_power(iso.sig, 2).is_zero()
    assert trace_power(iso.sig, 4).is_zero()
    tr3 = trace_power(iso.sig, 3)
    assert len(tr3) == 165
    assert apply_d(iso, tr3).is_zero()


def test_trace_sums_route_by_summed_pairs(monkeypatch):
    """A trace is one sum of products, gated on its summed pairs:
    tr(omega^4) sums 8,910 pairs, past the gate of 1,000, and makes exactly
    one kernel call, as does tr(omega^6); each returns no rows."""
    sig = super_poincare().sig
    calls = []
    real = batched._sum_of_products

    def spy(*args):
        res = real(*args)
        calls.append(len(res))
        return res

    monkeypatch.setattr(batched, "_sum_of_products", spy)
    sq = catalog._omega_power(sig, 2)
    assert sum(len(sq[a][c]) * len(sq[c][a]) for a in range(len(sq))
               for c in range(len(sq))) == 8_910
    assert trace_power.__wrapped__(sig, 4).is_zero()
    assert calls == [0]
    assert trace_power.__wrapped__(sig, 6).is_zero()
    assert calls == [0, 0]


def test_lorentz_trace_validation():
    from cealg import Unsupported, lorentz_trace

    with pytest.raises(Unsupported):
        lorentz_trace(5)
    tr3, rep = lorentz_trace(3)
    assert rep.ok and len(tr3) == 165


def test_brane_scan_entries():
    assert verify_brane_scan_entry(3, 2, 1) == "yes"
    # closed by the d=3 duality Gamma^{ab} ~ eps^{abc} Gamma_c, but exact:
    # not a brane-scan entry
    assert verify_brane_scan_entry(3, 2, 2) == "no"
    assert verify_brane_scan_entry(11, 32, 2) == "yes"
    # mu3 in d=11 is not closed: no nontriviality verdict
    assert verify_brane_scan_entry(11, 32, 1) is None
    from cealg import Unsupported

    with pytest.raises(Unsupported):
        verify_brane_scan_entry(3, 4, 1)


def test_chain_map_extends_on_catalog_morphism():
    # validated on generators implies it on monomials; at most one g4 per
    # word keeps p(m) away from mu4^2-sized elements
    import random

    res, p, _, _ = resolved_minkowski()
    rng = random.Random(5)
    sig = res.sig
    names = ["e^0", "e^5", "psi^1", "psi^31", "h3"]
    for _ in range(25):
        word = [(rng.choice(names), 1) for _ in range(rng.randint(0, 3))]
        if rng.random() < 0.5:
            word.append(("g4", 1))
        m = Element.from_terms(sig, [(1, word)])
        assert apply_d(_mink(11), p(m)) == p(apply_d(res, m))


CATALOG_PRECONDITIONS_SCRIPT = """
import numpy as np
from cealg.catalog import CatalogError, _frame, _mink, _pairing_element

if __debug__:
    raise SystemExit("asserts are on: run this under python -O")
sig = _mink(3).sig
e_ids, psi_ids = _frame(sig, 3, 2)
bad = [
    lambda: _pairing_element(sig, psi_ids, np.eye(2, dtype=int), 1,
                             ((e_ids[1], 1), (e_ids[0], 1))),
    lambda: _pairing_element(sig, psi_ids, np.eye(2, dtype=int), 1,
                             ((psi_ids[1], 1),)),
]
for i, call in enumerate(bad):
    try:
        call()
    except CatalogError:
        continue
    raise SystemExit(f"case {i} was accepted")
"""


def test_catalog_preconditions_raise_under_python_O():
    """A non-canonical e-prefix would build non-canonical monomials; the
    check must survive `python -O`."""
    fresh_run(CATALOG_PRECONDITIONS_SCRIPT, "-O")


def _pairing_element_by_double_loop(sig, psi_ids, matrix, scale, e_prefix):
    """Reference: walk all of the upper triangle of the n x n matrix."""
    n = matrix.shape[0]
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


def test_pairing_element_matches_double_loop():
    import random

    import numpy as np
    from cealg.catalog import _frame, _pairing_element

    rng = random.Random(17)
    sig = _mink(11).sig
    e_ids, psi_ids = _frame(sig, 11, 32)
    for trial in range(12):
        m = np.array([[rng.choice([0, 0, 0, rng.randint(-5, 5)])
                       for _ in range(32)] for _ in range(32)], dtype=np.int64)
        for a in range(32):
            m[a, a] = rng.choice([-3, -1, 1, 2])
        # some off-diagonal pairs cancel in M + M^T
        for _ in range(20):
            a, b = rng.sample(range(32), 2)
            m[b, a] = -m[a, b]
        prefix = tuple((e, 1) for e in sorted(rng.sample(e_ids, trial % 4)))
        scale = Fraction(-rng.randint(1, 6), rng.randint(1, 4))
        got = _pairing_element(sig, psi_ids, m, scale, prefix)
        want = _pairing_element_by_double_loop(sig, psi_ids, m, scale, prefix)
        assert list(got.terms.items()) == list(want.terms.items())
        assert np.any(m != m.T)
