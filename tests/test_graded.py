"""Canonical-form arithmetic for the bigraded commutative core."""

import ast
import random
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cealg import (
    DuplicateName,
    Element,
    GeneratorDecl,
    SignatureMismatch,
    UnknownGenerator,
    linear_combine,
    make_signature,
)
import cealg
from cealg import batched
from cealg.graded import (
    EVEN,
    ODD,
    _accumulate,
    _products,
    sum_of_products,
)


def mink_like_signature():
    decls = [GeneratorDecl("e", (a,), 1, EVEN) for a in range(3)]
    decls += [GeneratorDecl("psi", (i,), 1, ODD) for i in range(1, 3)]
    decls += [GeneratorDecl("h3", (), 3, EVEN), GeneratorDecl("g4", (), 4, EVEN)]
    return make_signature(decls)


SIG = mink_like_signature()


def test_signature_order_is_family_then_indices():
    names = list(SIG.names)
    assert names == ["e^0", "e^1", "e^2", "g4", "h3", "psi^1", "psi^2"]


def test_signature_43_generators_for_d11_shape():
    decls = [GeneratorDecl("e", (a,), 1, EVEN) for a in range(11)]
    decls += [GeneratorDecl("psi", (i,), 1, ODD) for i in range(1, 33)]
    sig = make_signature(decls)
    assert len(sig) == 43
    # numeric index order, not string order
    assert sig.names.index("e^2") < sig.names.index("e^10") < sig.names.index("psi^1")


def test_empty_signature():
    sig = make_signature([])
    assert len(sig) == 0
    assert Element.one(sig) * Element.one(sig) == Element.one(sig)


def test_duplicate_name_rejected():
    with pytest.raises(DuplicateName):
        make_signature([GeneratorDecl("x", (), 1, EVEN),
                        GeneratorDecl("x", (), 2, EVEN)])


def test_unknown_generator_rejected():
    with pytest.raises(UnknownGenerator):
        Element.from_terms(SIG, [(1, [("nope", 1)])])


def test_two_even_degree_one_generators_anticommute():
    # (e^2)(e^1) -> -(e^1 e^2)
    el = Element.from_terms(SIG, [(1, [("e^2", 1), ("e^1", 1)])])
    expected = Element.from_terms(SIG, [(-1, [("e^1", 1), ("e^2", 1)])])
    assert el == expected


def test_odd_parity_degree_one_generator_squares():
    el = Element.from_terms(SIG, [(1, [("psi^1", 1), ("psi^1", 1)])])
    assert el == Element.from_terms(SIG, [(1, [("psi^1", 2)])])


def test_square_zero_generator_collapses():
    assert Element.from_terms(SIG, [(1, [("h3", 1), ("h3", 1)])]).is_zero()


def test_normalize_skips_zero_and_rejects_negative_exponents():
    # a zero exponent is no factor, even of a square-zero generator, and
    # a negative one raises wherever it stands in the word
    word = [("h3", 0), ("e^1", 1), ("h3", 1), ("e^0", 0)]
    assert Element.from_terms(SIG, [(1, word)]) \
        == Element.generator(SIG, "e^1") * Element.generator(SIG, "h3")
    for word in ([("e^1", -1)], [("h3", 1), ("h3", 1), ("g4", -2)]):
        with pytest.raises(cealg.GradedError, match="negative exponent"):
            Element.from_terms(SIG, [(1, word)])


def test_g4_squares_nonzero():
    g4 = Element.generator(SIG, "g4")
    assert not (g4 * g4).is_zero()


def test_linear_combine_cancellation_and_scaling():
    x = Element.generator(SIG, "g4")
    assert linear_combine([(1, x), (-1, x)]).is_zero()
    assert linear_combine([(2, x), (3, x)]) == 5 * x
    scaled = linear_combine([(Fraction(1, 15), x)])
    assert scaled.coefficient(((SIG.gen_id("g4"), 1),)) == Fraction(1, 15)


def test_mul_zero_annihilates():
    zero = Element.zero(SIG)
    el = Element.from_terms(SIG, [(1, [("e^0", 1), ("psi^1", 1)])])
    assert (el * zero).is_zero()


def test_signature_mismatch_raises():
    other = make_signature([GeneratorDecl("g4", (), 4, EVEN)])
    with pytest.raises(SignatureMismatch):
        Element.generator(SIG, "g4") + Element.generator(other, "g4")


def parse_to_json(data) -> dict:
    """The terms that an `Element.to_json` list spells, read back."""
    return {tuple((SIG.gen_id(n), e) for n, e in t["monomial"]):
            Fraction(t["coeff"]) for t in data}


def test_json_round_trip_is_bit_exact():
    el = Element.from_terms(
        SIG,
        [(Fraction(-7, 3), [("e^0", 1), ("psi^2", 2)]),
         (Fraction(1, 15), [("g4", 1), ("h3", 1)])],
    )
    data = el.to_json()
    assert data == [
        {"monomial": [["e^0", 1], ["psi^2", 2]], "coeff": "-7/3"},
        {"monomial": [["g4", 1], ["h3", 1]], "coeff": "1/15"},
    ]
    assert parse_to_json(data) == el.terms


@given(st.lists(
    st.tuples(st.fractions(max_denominator=40),
              st.lists(st.integers(min_value=0, max_value=6), max_size=4)),
    max_size=5))
@settings(max_examples=150, deadline=None)
def test_json_round_trip_random_elements(raw):
    """`to_json` lists monomials in sorted order, each with a reduced "p/q"
    coefficient that parses back to its own."""
    el = linear_combine([(1, Element.from_terms(
        SIG, [(c, [(SIG.names[g], 1) for g in w])])) for c, w in raw]
        or [(0, Element.zero(SIG))])
    data = el.to_json()
    terms = parse_to_json(data)
    assert list(terms) == sorted(el.terms)
    assert terms == el.terms
    for t in data:
        c = Fraction(t["coeff"])
        assert t["coeff"] == f"{c.numerator}/{c.denominator}"


# -- the transposition-count sign oracle -------------------------------------


def bubble_sort_sign(flat, sig):
    """Independent Koszul sign: bubble sort single-generator letters,
    flipping by the pairwise commutation character at each adjacent swap."""
    seq = list(flat)
    sign = 1
    changed = True
    while changed:
        changed = False
        for i in range(len(seq) - 1):
            if seq[i] > seq[i + 1]:
                a, b = seq[i], seq[i + 1]
                chi = (sig.degrees[a] * sig.degrees[b]
                       + sig.parities[a] * sig.parities[b]) % 2
                if chi:
                    sign = -sign
                seq[i], seq[i + 1] = b, a
                changed = True
    return sign, seq


@st.composite
def random_word(draw):
    n = draw(st.integers(min_value=0, max_value=6))
    gids = st.integers(min_value=0, max_value=len(SIG) - 1)
    return [draw(gids) for _ in range(n)]


@given(random_word())
@settings(max_examples=300, deadline=None)
def test_normalize_matches_bubble_oracle(word):
    el = Element.from_terms(SIG, [(1, [(SIG.names[g], 1) for g in word])])
    sign, seq = bubble_sort_sign(word, SIG)
    # squares of square-zero generators must collapse to zero
    has_sq = any(
        SIG.sqz[g] and seq.count(g) >= 2 for g in set(seq)
    )
    if has_sq:
        assert el.is_zero()
    else:
        ((mono, coeff),) = el.terms.items()
        assert coeff == sign
        flat = [g for g, e in mono for _ in range(e)]
        assert flat == seq


@given(random_word(), random_word())
@settings(max_examples=200, deadline=None)
def test_graded_commutativity_sign(w1, w2):
    a = Element.from_terms(SIG, [(1, [(SIG.names[g], 1) for g in w1])])
    b = Element.from_terms(SIG, [(1, [(SIG.names[g], 1) for g in w2])])
    deg_a = sum(SIG.degrees[g] for g in w1)
    par_a = sum(SIG.parities[g] for g in w1) % 2
    deg_b = sum(SIG.degrees[g] for g in w2)
    par_b = sum(SIG.parities[g] for g in w2) % 2
    sign = -1 if (deg_a * deg_b + par_a * par_b) % 2 else 1
    assert a * b == sign * (b * a)


@given(random_word(), random_word(), random_word())
@settings(max_examples=150, deadline=None)
def test_mul_associative_and_unital(w1, w2, w3):
    mk = lambda w: Element.from_terms(SIG, [(1, [(SIG.names[g], 1) for g in w])])
    a, b, c = mk(w1), mk(w2), mk(w3)
    assert (a * b) * c == a * (b * c)
    one = Element.one(SIG)
    assert a * one == a
    assert one * a == a


@given(random_word())
@settings(max_examples=200, deadline=None)
def test_normalize_sign_canonical_under_shuffle(word):
    # every reordering of a word normalizes to the same canonical monomial,
    # with the sign of the reordering absorbed into the coefficient exactly
    # as the independent transposition count predicts
    import random as _random

    rng = _random.Random(12345)
    for _ in range(4):
        shuffled = word[:]
        rng.shuffle(shuffled)
        got = Element.from_terms(
            SIG, [(1, [(SIG.names[g], 1) for g in shuffled])])
        sign, seq = bubble_sort_sign(shuffled, SIG)
        has_sq = any(SIG.sqz[g] and seq.count(g) >= 2 for g in set(seq))
        if has_sq:
            assert got.is_zero()
        else:
            want = sign * Element.from_terms(
                SIG, [(1, [(SIG.names[g], 1) for g in seq])])
            assert got == want


@st.composite
def random_element(draw):
    """A multi-term element: up to four random words with random rational
    coefficients, so products and sums both merge and cancel terms."""
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    terms = draw(st.lists(st.tuples(coeff, random_word()), max_size=4))
    return Element.from_terms(
        SIG, [(c, [(SIG.names[g], 1) for g in w]) for c, w in terms])


@given(random_element(), random_element(), random_element())
@settings(max_examples=150, deadline=None)
def test_mul_distributes_over_add(a, b, c):
    assert (a + b) * c == a * c + b * c


@given(random_element())
@settings(max_examples=100, deadline=None)
def test_sub_self_is_zero(a):
    assert (a - a).is_zero()


@given(st.fractions(max_denominator=10), random_element(),
       st.fractions(max_denominator=10), random_element())
@settings(max_examples=150, deadline=None)
def test_linear_combine_matches_scaled_sum(x, a, y, b):
    assert linear_combine([(x, a), (y, b)]) == x * a + y * b


def test_coefficients_stay_rational():
    el = Element.from_terms(SIG, [(Fraction(22, 7), [("g4", 2)])])
    for _, c in el.terms.items():
        assert isinstance(c, Fraction)


def test_homogeneity_query():
    mixed = Element.generator(SIG, "g4") + Element.generator(SIG, "h3")
    assert not mixed.is_homogeneous()
    assert mixed.bidegrees() == {(4, 0), (3, 0)}
    assert Element.zero(SIG).is_homogeneous()


# -- the batched kernel against the dict path ---------------------------------


@st.composite
def random_signature(draw, max_gens=24):
    """Generators of degree 0-4 and either parity, so both square-zero and
    polynomial generators occur; with 24 of them packed keys can need more
    than one 64-bit word."""
    n = draw(st.integers(min_value=1, max_value=max_gens))
    return make_signature(
        GeneratorDecl("x", (i,), draw(st.integers(min_value=0, max_value=4)),
                      draw(st.sampled_from([EVEN, ODD])))
        for i in range(n))


@st.composite
def random_terms(draw, sig, max_terms=12, among=None):
    """A canonical terms dict: monomials on up to five generators (of
    `among`, a list of generator ids, if given) with exponents up to 3 (1
    for square-zero ones), coefficients with mixed denominators; possibly
    empty."""
    coeff = st.fractions(min_value=-6, max_value=6,
                         max_denominator=12).filter(bool)
    among = range(len(sig)) if among is None else among
    gens = (st.lists(st.sampled_from(among), max_size=5, unique=True)
            if among else st.just([]))
    terms = {}
    for _ in range(draw(st.integers(min_value=0, max_value=max_terms))):
        mono = tuple(
            (g, draw(st.integers(min_value=1,
                                 max_value=1 if sig.sqz[g] else 3)))
            for g in sorted(draw(gens)))
        terms[mono] = draw(coeff)
    return terms


def dict_product(sig, t1, t2):
    return _accumulate({}, _products([(t1, t2)], sig))


def decoded(d):
    """The terms of a kernel result: a `batched.Packed` is decoded, and a
    dict (an input of a shared Leibniz call) or None is returned as is."""
    return d.decode() if isinstance(d, batched.Packed) else d


def kernel_product(sig, t1, t2):
    return decoded(batched.sum_of_products(sig, [(t1, t2)]))


def kernel_leibniz(sig, images, inputs):
    return [decoded(p) for p in batched.leibniz(sig, images, inputs)]


@contextmanager
def kernel_gate_at_zero():
    """Let every call of `batched.sum_of_products`/`leibniz` reach the
    kernel core, however small its inputs: the front-ends' pair gate is set
    to 0."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(batched, "BATCH_PAIRS", 0)
        yield mp


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_batched_product_matches_dict_path(data):
    sig = data.draw(random_signature())
    t1 = data.draw(random_terms(sig))
    t2 = data.draw(random_terms(sig))
    with kernel_gate_at_zero():
        assert kernel_product(sig, t1, t2) == dict_product(sig, t1, t2)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_sum_of_products_matches_per_product_dict_sum(data):
    """`graded.sum_of_products` against the dict sum of each product on its
    own, with the gate at 0, where every call (no pair included) runs on
    the kernel, and at its default, where these small sums stay on the
    dict path: 0-4 pairs, empty sides, and blocks on the same generators
    or on disjoint ranges of them.  A pair with a side from a second
    signature raises SignatureMismatch on either path."""
    sig = data.draw(random_signature())
    n = data.draw(st.integers(min_value=0, max_value=4))
    if n and data.draw(st.booleans()):
        ranges = [r.tolist() for r in np.array_split(np.arange(len(sig)), n)]
    else:
        ranges = [None] * n
    terms = [tuple(data.draw(random_terms(sig, max_terms=8, among=r))
                   for _ in range(2)) for r in ranges]
    want = {}
    for t1, t2 in terms:
        _accumulate(want, dict_product(sig, t1, t2).items())
    pairs = [(Element(sig, t1), Element(sig, t2)) for t1, t2 in terms]
    for gate in (0, batched.BATCH_PAIRS):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(batched, "BATCH_PAIRS", gate)
            got = sum_of_products(sig, pairs)
        assert (got.packed is not None) == (gate == 0)
        assert got.terms == want
    if n:
        wider = make_signature(list(sig.decls)
                               + [GeneratorDecl("y", (), 0, EVEN)])
        k = data.draw(st.integers(min_value=0, max_value=n - 1))
        side = data.draw(st.integers(min_value=0, max_value=1))
        mixed = [list(pair) for pair in pairs]
        mixed[k][side] = Element(wider, terms[k][side])
        for gate in (0, batched.BATCH_PAIRS):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(batched, "BATCH_PAIRS", gate)
                with pytest.raises(SignatureMismatch):
                    sum_of_products(sig, mixed)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_packed_element_decodes_on_first_read(data):
    """A kernel product stays packed through len, bool and is_zero; its
    first read of `terms` decodes the arrays in key order, the order an
    eager decode gives, to the dict path's terms, and drops them."""
    sig = data.draw(random_signature())
    t1 = data.draw(random_terms(sig))
    t2 = data.draw(random_terms(sig))
    with kernel_gate_at_zero():
        packed = batched.sum_of_products(sig, [(t1, t2)])
        el = Element(sig, t1) * Element(sig, t2)
    want = dict_product(sig, t1, t2)
    assert el.packed is not None
    assert (len(el), bool(el), el.is_zero()) == (len(want), bool(want),
                                                not want)
    assert el.packed is not None
    assert list(el.terms.items()) == list(packed.decode().items())
    assert el.terms == want
    assert el.packed is None
    assert (len(el), bool(el), el.is_zero()) == (len(want), bool(want),
                                                not want)
    assert type(Element(sig, want)) is Element


def test_batched_product_chunks_collisions_and_full_cancellation(
        monkeypatch):
    monkeypatch.setattr(batched, "BATCH_PAIRS", 0)
    # (e0 + e1)^2 = e0 e1 + e1 e0 = 0 for anticommuting degree-1 generators
    e = Element.generator(SIG, "e^0") + Element.generator(SIG, "e^1")
    assert kernel_product(SIG, e.terms, e.terms) == {}
    # 7-pair steps whatever the call's size: many pair steps, accumulator
    # merges and decode blocks; one term on all 80 generators, so packed
    # keys take two words, and the rest on a few generators at both ends,
    # so that many pairs meet
    monkeypatch.setattr(batched, "STEP_MIN", 7)
    monkeypatch.setattr(batched, "STEP_MAX", 7)
    monkeypatch.setattr(batched, "ROWS", 3)
    sig = make_signature(GeneratorDecl("x", (i,), i % 5, i % 2)
                         for i in range(80))
    rng = random.Random(7)
    pool = [0, 1, 2, 3, 76, 77, 78, 79]
    t1, t2 = ({tuple((g, rng.randint(1, 1 if sig.sqz[g] else 3))
                     for g in sorted(rng.sample(pool, 3))):
               Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 5))
               for _ in range(60)} for _ in range(2))
    t1[tuple((g, 1) for g in range(80))] = Fraction(1)
    want = dict_product(sig, t1, t2)
    assert kernel_product(sig, t1, t2) == want
    # every key hashes to 0: all keys collide, and the merge must fall back
    # to sorting the full keys
    monkeypatch.setattr(batched, "_HASH_MUL", np.uint64(0))
    assert kernel_product(sig, t1, t2) == want


#: Key words for the accumulator property: few, so that keys repeat, with
#: both ends of the uint64 range.
KEY_WORDS = st.sampled_from([0, 1, 2, 1 << 32, 1 << 63, (1 << 64) - 1])


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_accumulator_matches_dict_sum(data):
    """`batched._Accumulator` against a dict sum of (key, value) entries:
    keys of 1-3 words, cut into batches at random points (empty batches
    too), values that often cancel, and negated copies of earlier entries
    that cancel them across batches; a few-entry step, so that it merges
    many times.  The partition gate, drawn low, gives one bucket or
    several (2 to 256, so that most stay empty).  The result is every key
    with a nonzero sum, once, as (n, words) uint64 keys, n = 0 included,
    in (hash, key) order (key order is set by `Packed.decode` and
    `Packed.split`, see `test_decode_and_split_give_key_order`): a second
    call over the same key set, in other batches and buckets, returns the
    same key array.  Keys built from KEY_WORDS often share a hash, and with
    `_HASH_MUL` = 0 every key hashes to 0, so that every row falls into
    one bucket and every merge of two keys takes the lexsort fallback."""
    words = data.draw(st.integers(min_value=1, max_value=3))
    entries = data.draw(st.lists(
        st.tuples(st.tuples(*[KEY_WORDS] * words),
                  st.integers(min_value=-3, max_value=3)), max_size=60))
    if entries:
        undo = data.draw(st.lists(st.sampled_from(entries), max_size=20))
        entries += [(k, -v) for k, v in undo]

    def accumulate(entries):
        cuts = sorted(data.draw(st.lists(
            st.integers(min_value=0, max_value=len(entries)), max_size=8)))
        mp.setattr(batched, "PARTITION_PAIRS", data.draw(
            st.integers(min_value=0, max_value=2 * len(entries))))
        mp.setattr(batched, "BUCKETS", data.draw(
            st.sampled_from([2, 8, 32, 256])))
        acc = batched._Accumulator(
            words, data.draw(st.integers(min_value=1, max_value=8)),
            batched._buckets(len(entries)))
        for lo, hi in zip([0] + cuts, cuts + [len(entries)]):
            batch = entries[lo:hi]
            acc.add(np.array([k for k, _ in batch],
                             dtype=np.uint64).reshape(len(batch), words),
                    np.array([v for _, v in batch], dtype=np.int64))
        return acc.result()

    with pytest.MonkeyPatch.context() as mp:
        if data.draw(st.booleans()):
            mp.setattr(batched, "_HASH_MUL", np.uint64(0))
        keys, vals = accumulate(entries)
        rows = [tuple(r) for r in keys.tolist()]
        again = accumulate(list(zip(rows[::-1], (2 * vals[::-1]).tolist())))
        hashed = batched._hash(keys)
    sums = {}
    for k, v in entries:
        sums[k] = sums.get(k, 0) + v
    want = {k: v for k, v in sums.items() if v}
    assert (keys.dtype, keys.shape) == (np.uint64, (len(want), words))
    assert (vals.dtype, vals.shape) == (np.int64, (len(want),))
    assert len(set(rows)) == len(rows)
    assert np.all(vals != 0)
    assert dict(zip(rows, vals.tolist())) == want
    assert np.array_equal(np.lexsort((*keys.T[::-1], hashed)),
                          np.arange(len(rows)))
    assert np.array_equal(again[0], keys)
    assert np.array_equal(again[1], 2 * vals)


def test_accumulator_orders_colliding_keys_by_hash_then_key(monkeypatch):
    """(2**63, 0) and (0, 2**63) share a hash, since 2**63 times an odd
    number is 2**63.  A merge that meets both lexsorts its rows by hash,
    then by key, so the result is in (hash, key) order, as it is when no
    keys collide: one bucket or 32, in one batch or in many, give one key
    array for one key set."""
    top = 1 << 63
    rows = [(top, 0), (0, top)] + [(i, j) for i in range(6) for j in range(6)]
    keys = np.array(rows, dtype=np.uint64)
    hashed = batched._hash(keys).tolist()
    assert hashed[0] == hashed[1]
    want = [r for _, r in sorted(zip(hashed, rows))]
    sorts = []
    lexsort = np.lexsort
    monkeypatch.setattr(np, "lexsort", lambda k: sorts.append(1) or lexsort(k))
    got = []
    for buckets, size in ((1, len(rows)), (32, 3)):
        acc = batched._Accumulator(2, 1, buckets)
        for i in range(0, len(rows), size):
            acc.add(keys[::-1][i:i + size], np.ones(size, dtype=np.int64))
        got.append(acc.result()[0])
    assert sorts
    assert [tuple(r) for r in got[0].tolist()] == want
    assert np.array_equal(got[0], got[1])


def monomials_in_key_order(p) -> list:
    """Per input of the call that made the `batched.Packed` p, the
    monomials of its rows sorted by their packed words compared as Python
    tuples, each row decoded on its own."""
    ctx = p.ctx
    tags = (ctx.field(p.keys, len(ctx.gen_ids)).tolist() if ctx.inputs > 1
            else [0] * len(p))
    out = [[] for _ in range(ctx.inputs)]
    for _, i in sorted((k, i) for i, k in enumerate(map(tuple,
                                                        p.keys.tolist()))):
        row = ctx.decode(p.keys[i:i + 1], p.nums[i:i + 1], p.den, [1])[0]
        out[tags[i]].extend(row)
    return out


#: 80 generators: a term on all of them packs into two key words.
WIDE = make_signature(GeneratorDecl("x", (i,), i % 5, i % 2)
                      for i in range(80))
WIDE_ALL = tuple((g, 1) for g in range(80))
#: Generators at both ends of WIDE, so that keys differ in both words.
WIDE_POOL = [0, 1, 2, 3, 76, 77, 78, 79]


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_decode_and_split_give_key_order(data):
    """A kernel result is in (hash, key) order; `Packed.decode` (one
    input) and `Packed.split` (a shared Leibniz call) give its entries in
    key order, the packed words compared lexicographically, the order of
    every decoded dict, golden and witness.  On WIDE, keys take two words,
    and a merge's hash order is not key order; with `_HASH_MUL` = 0 every
    key hashes to 0, so merges take the full-key fallback.  Few-pair steps
    make the accumulator merge many times."""
    if data.draw(st.booleans()):
        sig, among = WIDE, WIDE_POOL
    else:
        sig, among = data.draw(random_signature(max_gens=8)), None
    t1, t2 = (data.draw(random_terms(sig, among=among)) for _ in range(2))
    images = tuple(
        Element(sig, data.draw(random_terms(sig, max_terms=4, among=among)))
        if among is None or g in among else Element.zero(sig)
        for g in range(len(sig)))
    inputs = data.draw(st.lists(random_terms(sig, among=among), min_size=2,
                                max_size=4))
    if among:
        t1[WIDE_ALL] = inputs[0][WIDE_ALL] = Fraction(1)
    shared = []
    with kernel_gate_at_zero() as mp:
        mp.setattr(batched, "ALONE_PAIRS", 1 << 62)
        for name, value in (("STEPS", 2), ("STEP_MIN", 3), ("STEP_MAX", 12)):
            mp.setattr(batched, name, value)
        if data.draw(st.booleans()):
            mp.setattr(batched, "_HASH_MUL", np.uint64(0))
        split = batched.Packed.split
        mp.setattr(batched.Packed, "split",
                   lambda self: shared.append(self) or split(self))
        product = batched.sum_of_products(sig, [(t1, t2)])
        ds = batched.leibniz(sig, images, inputs)
    assert [list(product.decode())] == monomials_in_key_order(product)
    assert product.decode() == dict_product(sig, t1, t2)
    assert len(shared) == 1 and shared[0].ctx.inputs == len(inputs)
    assert [list(d) for d in ds] == monomials_in_key_order(shared[0])


def test_batched_product_guards_fall_back_to_dict_path():
    # above the pair threshold, so Element.__mul__ asks the batched kernel
    sig = make_signature([GeneratorDecl("w", (), 0, EVEN),
                          GeneratorDecl("z", (), 0, EVEN)])
    side = int(batched.BATCH_PAIRS ** 0.5) + 1

    def el(coeff, zbase):
        return Element(sig, {((0, 1 + i % 16), (1, zbase + i // 16)):
                             Fraction(coeff) for i in range(side)})

    # the z exponents are zbase + i // 16, so the sums below pass 127
    # whatever `side` is
    cases = [
        (el(2 ** 40, 1), el(2 ** 30, 1)),    # products reach 2**70
        (el(1, 100), el(1, 28)),             # exponent sums past 127
        (el(1, 128), el(1, 1)),              # input exponents past 127
    ]
    for a, b in cases:
        assert (a * b).terms == dict_product(sig, a.terms, b.terms)
        assert kernel_product(sig, a.terms, b.terms) is None
    # a raw square-zero power t**2, which only the raw constructor keeps
    # (the dict path's products drop it), and a square-zero field of 1 bit
    # could not hold
    tsig = make_signature([GeneratorDecl("t", (), 1, EVEN),
                           GeneratorDecl("w", (), 0, EVEN)])
    t, w = tsig.gen_id("t"), tsig.gen_id("w")
    a = Element(tsig, {tuple(sorted([(t, 2), (w, i)])): Fraction(1)
                       for i in range(1, side + 1)})
    b = Element(tsig, {((w, i),): Fraction(1) for i in range(1, side + 1)})
    assert (a * b).terms == dict_product(tsig, a.terms, b.terms)
    assert kernel_product(tsig, a.terms, b.terms) is None


def test_product_with_a_raw_square_zero_power_vanishes():
    """t**2 w times w is 0 when t squares to zero: a product that holds a
    square-zero generator to a power above 1 vanishes, also when only one
    factor holds it, and also against the unit."""
    sig = make_signature([GeneratorDecl("t", (), 1, EVEN),
                          GeneratorDecl("w", (), 0, EVEN)])
    t, w = sig.gen_id("t"), sig.gen_id("w")
    squared = Element(sig, {((t, 2), (w, 1)): Fraction(1)})
    assert (squared * Element(sig, {((w, 1),): Fraction(1)})).is_zero()
    assert (Element(sig, {((w, 1),): Fraction(1)}) * squared).is_zero()
    assert (squared * Element.one(sig)).is_zero()
    assert (Element(sig, {((t, 3),): Fraction(1)})
            * Element.generator(sig, "w")).is_zero()


def distinct_terms(sig, n):
    """n terms z^i w^j u^k (i, j, k < 37) with coefficients 1 + i, over
    degree-0 generators z, w, u of `sig`."""
    z, w, u = (sig.gen_id(name) for name in "zwu")
    terms = {}
    for i in range(37):
        for j in range(37):
            for k in range(37):
                if len(terms) == n:
                    return terms
                mono = tuple((g, x) for g, x in ((u, k), (w, j), (z, i)) if x)
                terms[tuple(sorted(mono))] = Fraction(1 + i)
    raise ValueError(f"at most 37**3 terms, asked for {n}")


def test_mul_routes_by_term_pairs(monkeypatch):
    """Element.__mul__ reaches the kernel core at len(a) * len(b) =
    BATCH_PAIRS term pairs and not one pair below."""
    calls = []
    real = batched._sum_of_products

    def spy(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(batched, "_sum_of_products", spy)
    sig = make_signature([GeneratorDecl(n, (), 0, EVEN) for n in "auwz"])
    a = Element.generator(sig, "a")
    at_gate = Element(sig, distinct_terms(sig, batched.BATCH_PAIRS))
    below = Element(sig, distinct_terms(sig, batched.BATCH_PAIRS - 1))
    assert (a * below).terms == dict_product(sig, a.terms, below.terms)
    assert calls == []
    assert (a * at_gate).terms == dict_product(sig, a.terms, at_gate.terms)
    assert calls == [1]


def test_sum_and_scaling_drop_zero_coefficients():
    """A raw Element may carry a zero coefficient; +, -, unary - and scalar
    * return canonical elements all the same."""
    sig = SIG
    x = Element(sig, {((sig.gen_id("e^0"), 1), (sig.gen_id("e^1"), 1)):
                      Fraction(0)})
    zero = Element.zero(sig)
    for y in (x + zero, x - zero, zero + x, zero - x, -x, 2 * x, x * 2,
              x * Fraction(1, 3)):
        assert y.terms == {}
        assert not y
        assert y == zero
    # next to a nonzero term, only that term is kept
    e2 = Element.generator(sig, "e^2")
    mixed = Element(sig, {**x.terms, **e2.terms})
    assert (mixed + zero) == e2
    assert (-mixed) == -e2
    assert (3 * mixed) == 3 * e2


def test_no_assert_statement_in_the_package():
    """Checks that decide a verdict must survive `python -O`, which strips
    `assert`: the package raises instead, and has no assert statement."""
    found = []
    for path in sorted(Path(cealg.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_no_unused_import_in_the_package():
    """Every name a module imports is referenced in it; `__init__.py`, whose
    imports are the package's exports, and `from __future__` are exempt."""
    found = []
    for path in sorted(Path(cealg.__file__).parent.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) \
                    and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        found += [f"{path.name}:{line} {name}"
                  for name, line in imported.items() if name not in used]
    assert found == []


ROOT = Path(__file__).resolve().parent.parent


def attribute_nodes():
    """Every attribute access in `src/`, `tests/` and `perfbench/`."""
    for top in ("src", "tests", "perfbench"):
        for path in (ROOT / top).rglob("*.py"):
            yield from (node for node in ast.walk(ast.parse(path.read_text()))
                        if isinstance(node, ast.Attribute))


def package_classes():
    """(file name, class node) of every class defined in `cealg`."""
    for path in sorted((ROOT / "src" / "cealg").rglob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text())):
            if isinstance(cls, ast.ClassDef):
                yield path.name, cls


def test_every_package_method_is_referenced():
    """Every method or property defined on a `cealg` class, dunders aside,
    is referenced by attribute name somewhere in `src/`, `tests/` or
    `perfbench/`: one that nothing reads is surface to delete."""
    used = {node.attr for node in attribute_nodes()}
    found = []
    for name, cls in package_classes():
        found += [f"{name}:{node.lineno} {cls.name}.{node.name}"
                  for node in cls.body
                  if isinstance(node, ast.FunctionDef)
                  and not node.name.startswith("__")
                  and node.name not in used]
    assert found == []


def test_every_package_field_is_read():
    """Every annotated field or `__slots__` entry of a `cealg` class is
    read by attribute name somewhere in `src/`, `tests/` or `perfbench/`:
    a field that is only ever stored is surface to delete."""
    read = {node.attr for node in attribute_nodes()
            if isinstance(node.ctx, ast.Load)}
    found = []
    for name, cls in package_classes():
        for node in cls.body:
            if isinstance(node, ast.AnnAssign):
                fields = [node.target.id]
            elif (isinstance(node, ast.Assign)
                  and [getattr(t, "id", None) for t in node.targets]
                  == ["__slots__"]):
                fields = [e.value for e in node.value.elts]
            else:
                continue
            found += [f"{name}:{node.lineno} {cls.name}.{field}"
                      for field in fields if field not in read]
    assert found == []


# -- the square front-end -----------------------------------------------------


def spy_core(mp) -> list:
    """Record, per kernel core call, whether it was the square's (rows
    from `batched._square_rows`) and whether it answered (not None)."""
    calls = []
    real = batched._sum_of_products

    def spy(sig, x, blocks, left_rows):
        out = real(sig, x, blocks, left_rows)
        calls.append((left_rows is batched._square_rows, out is not None))
        return out

    mp.setattr(batched, "_sum_of_products", spy)
    return calls


def even_terms(sig, terms: dict) -> dict:
    """The terms of even degree and even parity."""
    return {m: c for m, c in terms.items()
            if not any(x & 1 for x in sig.monomial_bidegree(m))}


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_square_matches_general_kernel_and_dict_path(data):
    """x * x against x * y, where y is an equal copy and so takes the
    general kernel path, and against the dict path (`_products`), on
    random signatures with odd, even and square-zero generators.  With
    every term of even degree and even parity the square forms each
    unordered pair once (`batched.square`), and its result has the
    general one's layout and key array, so that `proportional` gives 1
    without a decode (or None, where its int64 guard trips); otherwise it
    is left to the general path."""
    sig = data.draw(random_signature())
    terms = data.draw(random_terms(sig))
    if data.draw(st.booleans()):
        terms = even_terms(sig, terms)
    x, y = Element(sig, terms), Element(sig, dict(terms))
    with kernel_gate_at_zero() as mp:
        calls = spy_core(mp)
        sq = x * x
        square_calls = list(calls)
        general = x * y
    want = dict_product(sig, terms, terms)
    square = terms == even_terms(sig, terms)
    assert square_calls == ([(True, True)] if square
                            else [(True, False), (False, True)])
    assert calls[len(square_calls):] == [(False, True)]
    assert sq.packed.ctx.same_layout(general.packed.ctx)
    assert np.array_equal(sq.packed.keys, general.packed.keys)
    if want:
        decodes = []
        decode = batched._Context.decode
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(batched._Context, "decode",
                       lambda *a: decodes.append(1) or decode(*a))
            c = batched.proportional(sq.packed, general.packed)
        top = int(np.abs(sq.packed.nums).max())
        assert c == (None if top * top >= 1 << 63 else 1)
        assert decodes == []
    assert sq.terms == general.terms == want


def test_square_guards_fall_back():
    """x * x leaves to the general path, which then decides as it would
    for any product, a square with a term of odd degree or of odd parity,
    one whose doubled cross terms could reach the int64 bound (the general
    product of the same numerators stays below it), and one holding a raw
    square-zero power, which the general kernel also leaves to the dict
    path.  Each call has more than BATCH_PAIRS ordered pairs."""
    sig = make_signature([GeneratorDecl("e", (), 1, EVEN),
                          GeneratorDecl("o", (), 2, ODD),
                          GeneratorDecl("t", (), 1, EVEN),
                          GeneratorDecl("w", (), 0, EVEN)])
    e, o, t, w = (sig.gen_id(n) for n in "eotw")
    n = int(batched.BATCH_PAIRS ** 0.5) + 1
    powers = {((w, i),): Fraction(1 + i % 5) for i in range(1, n + 1)}
    big = {m: Fraction(2 ** 28) for m in powers}
    assert 2 ** 56 * n < 1 << 62 <= 2 * 2 ** 56 * n
    cases = [
        ({**powers, ((e, 1),): Fraction(1)}, [(True, False), (False, True)]),
        ({**powers, ((o, 1),): Fraction(1)}, [(True, False), (False, True)]),
        (big, [(True, False), (False, True)]),
        ({**powers, ((t, 2), (w, 1)): Fraction(1)},
         [(True, False), (False, False)]),
    ]
    for terms, want_calls in cases:
        x = Element(sig, terms)
        with pytest.MonkeyPatch.context() as mp:
            calls = spy_core(mp)
            sq = x * x
        assert calls == want_calls
        assert sq.terms == dict_product(sig, terms, terms)
    # an even square of the same size is taken
    x = Element(sig, powers)
    with pytest.MonkeyPatch.context() as mp:
        calls = spy_core(mp)
        assert (x * x).terms == dict_product(sig, powers, powers)
    assert calls == [(True, True)]


def test_mu4_square_is_partitioned_by_its_ordered_pairs(monkeypatch):
    """mu4**2 forms 912 * 913 / 2 = 416,328 pairs, fewer than
    PARTITION_PAIRS, yet accumulates in BUCKETS buckets: its result is as
    large as that of the 912**2 ordered pairs it stands for, and with one
    bucket the fivebrane run's peak RSS rose by about 2 MiB."""
    from cealg import catalog

    mu4 = catalog._mu(11, 2)
    buckets, pairs = [], []
    accumulator, real_pairs = batched._Accumulator, batched._pairs
    monkeypatch.setattr(batched, "_Accumulator", lambda words, step, n: (
        buckets.append(n) or accumulator(words, step, n)))
    monkeypatch.setattr(batched, "_pairs", lambda a, b, ends, *rest: (
        pairs.append(int(ends[-1])) or real_pairs(a, b, ends, *rest)))
    square = mu4 * mu4
    assert len(mu4) == 912 and len(square) == 194_992
    assert pairs == [912 * 913 // 2] and pairs[0] < batched.PARTITION_PAIRS
    assert buckets == [batched.BUCKETS] and 912 ** 2 >= batched.PARTITION_PAIRS
