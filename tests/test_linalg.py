"""Graded bases, differential matrices, exact rank/solve, cohomology."""

import hashlib
import itertools
import json
import random
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cealg.linalg as la
from cealg import batched

from cealg import (
    Capped,
    Element,
    GeneratorDecl,
    NotClosed,
    SparseRationalMatrix,
    apply_d,
    cohomology_dims,
    count_monomials,
    differential_matrix,
    is_coboundary,
    make_dgca,
    make_signature,
    monomial_basis,
    rank,
    solve,
)
from cealg import reporting
from cealg.catalog import _mink, _mu, brane_cocycle
from cealg.graded import EVEN, ODD, GradedError, SignatureMismatch
from fresh import fresh_run


def s4():
    sig = make_signature([GeneratorDecl("g4", (), 4, EVEN),
                          GeneratorDecl("g7", (), 7, EVEN)])
    g4 = Element.generator(sig, "g4")
    return make_dgca(sig, {"g7": g4 * g4})


def free_line(deg, parity=EVEN):
    sig = make_signature([GeneratorDecl(f"g{deg}", (), deg, parity)])
    return make_dgca(sig, {})


def test_s4_small_bases():
    alg = s4()
    assert [m for m in monomial_basis(alg, 8).monomials] == [
        ((0, 2),)]  # g4^2
    b11 = monomial_basis(alg, 11)
    assert len(b11) == 1  # g4 g7
    assert monomial_basis(alg, 1).monomials == ()


def test_basis_counts_match_closed_form():
    # degree-1 generators: e's square-zero (choose), psi's free (multichoose)
    from math import comb

    decls = [GeneratorDecl("e", (a,), 1, EVEN) for a in range(11)]
    decls += [GeneratorDecl("psi", (i,), 1, ODD) for i in range(1, 33)]
    alg = make_dgca(make_signature(decls), {})
    for degree in (1, 2, 3):
        want = sum(comb(32 + j - 1, j) * comb(11, degree - j)
                   for j in range(degree + 1))
        assert count_monomials(alg, degree) == want
        assert len(monomial_basis(alg, degree)) == want
    assert count_monomials(alg, 3) == 13717


def test_capped_on_cap_exceeded_and_infinite():
    decls = [GeneratorDecl("e", (a,), 1, EVEN) for a in range(3)]
    decls += [GeneratorDecl("psi", (i,), 1, ODD) for i in range(1, 3)]
    alg = make_dgca(make_signature(decls), {})
    with pytest.raises(Capped) as exc:
        monomial_basis(alg, 6, cap=5)
    assert exc.value.estimate == count_monomials(alg, 6) > 5
    pdr_sig = make_signature([GeneratorDecl("x", (1,), 0, EVEN)])
    pdr = make_dgca(pdr_sig, {})
    with pytest.raises(Capped):
        monomial_basis(pdr, 0)


def test_differential_matrix_s4_degree7():
    alg = s4()
    m = differential_matrix(alg, 7)
    assert (m.rows, m.cols) == (1, 1)
    assert m.entries == {(0, 0): Fraction(1)}
    assert m.dom.monomials == monomial_basis(alg, 7).monomials
    assert m.cod.monomials == monomial_basis(alg, 8).monomials
    # the bases take no part in comparison or printing
    bare = SparseRationalMatrix(m.rows, m.cols, dict(m.entries))
    assert bare.dom is None and bare == m and repr(bare) == repr(m)
    zero = differential_matrix(free_line(4), 8)
    assert zero.entries == {}


def compose_cases():
    from cealg.catalog import coefficient_line, m2brane

    return [(s4(), range(0, 12)),
            (free_line(4), range(0, 9)),
            (coefficient_line(1), range(0, 7)),
            (_mink(3), range(0, 5)),
            (m2brane(), range(0, 2))]


def test_consecutive_differential_matrices_compose_to_zero():
    """M_{k+1} M_k = 0, composed through the bases: row r of M_k, the
    monomial `M_k.cod.monomials[r]`, meets its column in `M_{k+1}.dom`."""
    for alg, degrees in compose_cases():
        for degree in degrees:
            m1 = differential_matrix(alg, degree)
            m2 = differential_matrix(alg, degree + 1)
            by_col = {}
            for (r1, c1), w in m1.entries.items():
                col = m2.dom.index[m1.cod.monomials[r1]]
                by_col.setdefault(col, []).append((c1, w))
            prod = {}
            for (r, c), v in m2.entries.items():
                for c1, w in by_col.get(c, ()):
                    key = (r, c1)
                    prod[key] = prod.get(key, Fraction(0)) + v * w
            assert all(v == 0 for v in prod.values())


def test_rows_are_the_reached_part_of_the_full_codomain():
    """The rows of d's matrix are the sorted monomials its columns reach: a
    subsequence of the degree+1 basis, so re-indexing the entries into that
    basis gives the matrix built over the full codomain."""
    mink11 = _mink(11)
    cases = [(alg, degree, None)
             for alg, degrees in compose_cases() for degree in degrees]
    cases += [(mink11, 3, 6), (mink11, 3, None)]
    for alg, degree, weight in cases:
        weights = la.generator_weights(alg) if weight is not None else None
        weight = weight or 0
        m = differential_matrix(alg, degree, weights=weights, weight=weight)
        images = [apply_d(alg, Element(alg.sig, {mono: Fraction(1)}))
                  for mono in m.dom.monomials]
        reached = {m2 for img in images for m2 in img.terms}
        assert m.cod.monomials == tuple(sorted(reached))
        full = monomial_basis(alg, degree + 1, weights=weights, weight=weight)
        at = [full.index[mono] for mono in m.cod.monomials]
        assert at == sorted(at)
        assert {(at[r], c): v for (r, c), v in m.entries.items()} == {
            (full.index[m2], c): v
            for c, img in enumerate(images) for m2, v in img.terms.items()}


def test_coboundary_witnesses_are_pinned():
    """The witnesses of three yes decisions, by the hash of their JSON."""
    alg = s4()
    g4 = Element.generator(alg.sig, "g4")
    mink3 = _mink(3)
    mink11 = _mink(11)
    x = Element.from_terms(mink11.sig, [
        (1, [("e^0", 1), ("e^1", 1), ("psi^1", 1)]),
        (3, [("e^2", 1), ("e^5", 1), ("psi^7", 1)])])
    cases = [(alg, g4 * g4, "cd9014bc682b"),
             (mink3, brane_cocycle(3, 2), "02d8784357ad"),
             (mink11, apply_d(mink11, x), "fd91a4576ce5")]
    for A, y, want in cases:
        dec = is_coboundary(A, y)
        assert dec.status == "yes" and apply_d(A, dec.witness) == y
        text = json.dumps(dec.witness.to_json(), separators=(",", ":"))
        assert hashlib.sha1(text.encode()).hexdigest()[:12] == want


def test_rank_basics_and_cross_check():
    zero = SparseRationalMatrix(4, 5, {})
    assert rank(zero) == 0
    ident = SparseRationalMatrix(5, 5, {(i, i): Fraction(1) for i in range(5)})
    assert rank(ident) == 5

    rng = random.Random(99)
    entries = {}
    for r in range(50):
        for c in range(50):
            if rng.random() < 0.12:
                entries[(r, c)] = Fraction(rng.randint(-9, 9),
                                           rng.randint(1, 9))
    m = SparseRationalMatrix(50, 50, entries)
    reversed_rows = SparseRationalMatrix(
        50, 50, {(49 - r, c): v for (r, c), v in entries.items()})
    transposed = SparseRationalMatrix(
        50, 50, {(c, r): v for (r, c), v in entries.items()})
    assert rank(m) == rank(reversed_rows) == rank(transposed)


def test_each_basis_enumerated_once_per_matrix(monkeypatch):
    """`differential_matrix` is the only caller of `monomial_basis` on the
    decision paths: one matrix, one basis, its domain."""
    calls = []
    real = la.monomial_basis

    def counting(A, degree, *args, **kwargs):
        calls.append(degree)
        return real(A, degree, *args, **kwargs)

    monkeypatch.setattr(la, "monomial_basis", counting)
    alg = s4()
    g4 = Element.generator(alg.sig, "g4")
    dec = la.is_coboundary(alg, g4 * g4)
    assert dec.status == "yes" and sorted(calls) == [7]
    for n in (0, 5, 12):
        calls.clear()
        dims = la.cohomology_dims(alg, n)
        assert dims == [1 if k in (0, 4) else 0 for k in range(n + 1)]
        assert len(calls) <= n + 1


@pytest.mark.parametrize("d, degree, weight", [(3, 3, None), (11, 2, 3)])
def test_differential_matrix_takes_one_leibniz_call(monkeypatch, d, degree,
                                                    weight):
    """The columns come from one `batched.leibniz_tagged` call over the
    domain basis, kept as its arrays for superMink(11)'s 6,656 entries and
    declined below the gate for superMink(3), whose columns then come from
    one `apply_d_all` call, and equal d of each monomial taken alone by
    `apply_d`."""
    alg = _mink(d)
    weights = la.generator_weights(alg) if weight is not None else None
    calls, fallback = [], []
    real = batched.leibniz_tagged
    monkeypatch.setattr(batched, "leibniz_tagged",
                        lambda sig, images, xs: calls.append(len(xs))
                        or real(sig, images, xs))
    real_all = la.apply_d_all
    monkeypatch.setattr(la, "apply_d_all", lambda A, xs: fallback.append(
        len(xs)) or real_all(A, xs))
    m = differential_matrix(alg, degree, weights=weights, weight=weight or 0)
    assert calls == [len(m.dom.monomials)] and m.entries
    # the dict path, where the kernel declines, takes one call over dom too
    assert fallback == ([] if d == 11 else [len(m.dom.monomials)])
    assert isinstance(m, la._PackedMatrix) == (d == 11)
    want = {}
    for c, mono in enumerate(m.dom.monomials):
        img = apply_d(alg, Element(alg.sig, {mono: Fraction(1)}))
        for m2, v in img.terms.items():
            want[(m.cod.index[m2], c)] = v
    assert m.entries == want


def test_solve_exact_and_unsolvable():
    # 2x2: [[1,2],[3,4]] v = (5, 6) -> v = (-4, 9/2)
    m = SparseRationalMatrix(2, 2, {(0, 0): Fraction(1), (0, 1): Fraction(2),
                                    (1, 0): Fraction(3), (1, 1): Fraction(4)})
    v = solve(m, {0: Fraction(5), 1: Fraction(6)})
    assert v == [Fraction(-4), Fraction(9, 2)]
    # inconsistent: rows identical, different rhs
    m2 = SparseRationalMatrix(2, 2, {(0, 0): Fraction(1), (1, 0): Fraction(1)})
    assert solve(m2, {0: Fraction(1), 1: Fraction(2)}) is None


def test_cohomology_dims_lines():
    # odd generator line: dims 1 at 0 and 7 only (g7^2 = 0)
    dims = cohomology_dims(free_line(7), 14)
    assert dims == [1 if k in (0, 7) else 0 for k in range(15)]
    # even polynomial line: 1 at 0, 4, 8, 12
    dims = cohomology_dims(free_line(4), 12)
    assert dims == [1 if k % 4 == 0 else 0 for k in range(13)]
    dims = cohomology_dims(s4(), 12)
    assert dims == [1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0]


def test_cohomology_kunneth_product():
    # (s2 model) tensor (line on h7): H = H(S^2) (x) H(line)
    sig = make_signature([
        GeneratorDecl("g2", (), 2, EVEN),
        GeneratorDecl("g3", (), 3, EVEN),
        GeneratorDecl("h7", (), 7, EVEN),
    ])
    g2 = Element.generator(sig, "g2")
    alg = make_dgca(sig, {"g3": g2 * g2})
    dims = cohomology_dims(alg, 10)
    a = [1, 0, 1] + [0] * 8          # H(S^2 model) up to 10
    b = [1, 0, 0, 0, 0, 0, 0, 1] + [0] * 3  # H(odd line on 7)
    kunneth = [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(11)]
    assert dims == kunneth

    # two s2 factors with renamed families
    sig2 = make_signature([
        GeneratorDecl("g2", (), 2, EVEN), GeneratorDecl("g3", (), 3, EVEN),
        GeneratorDecl("h2", (), 2, EVEN), GeneratorDecl("h3", (), 3, EVEN),
    ])
    g2b = Element.generator(sig2, "g2")
    h2b = Element.generator(sig2, "h2")
    alg2 = make_dgca(sig2, {"g3": g2b * g2b, "h3": h2b * h2b})
    dims2 = cohomology_dims(alg2, 6)
    a = [1, 0, 1, 0, 0, 0, 0]
    kunneth2 = [sum(a[i] * a[k - i] for i in range(k + 1)) for k in range(7)]
    assert dims2 == kunneth2


def test_is_coboundary_yes_with_witness():
    alg = s4()
    g4 = Element.generator(alg.sig, "g4")
    dec = is_coboundary(alg, g4 * g4)
    assert dec.status == "yes"
    assert apply_d(alg, dec.witness) == g4 * g4
    # the class of g4 itself is nontrivial
    assert is_coboundary(alg, g4).status == "no"


def test_is_coboundary_of_another_algebra_is_a_signature_mismatch():
    """An element of another signature raises SignatureMismatch, as
    `apply_d` does; it is a GradedError, so old handlers still catch it."""
    g4 = Element.generator(s4().sig, "g4")
    for alg in (_mink(3), make_dgca(make_signature(g4.sig.decls[:1]), {})):
        with pytest.raises(SignatureMismatch, match="not in this algebra"):
            is_coboundary(alg, g4 * g4)
    assert issubclass(SignatureMismatch, GradedError)


@st.composite
def graded_signatures(draw):
    """Up to four generators of degree 0-3 and either parity (so square-zero
    and degree-0 ones occur), each with a weight 0-2."""
    n = draw(st.integers(min_value=1, max_value=4))
    decls = [GeneratorDecl("g", (i,), draw(st.integers(0, 3)),
                           draw(st.sampled_from([EVEN, ODD])))
             for i in range(n)]
    weights = tuple(draw(st.integers(0, 2)) for _ in range(n))
    return make_dgca(make_signature(decls), {}), weights


def brute_force_basis(alg, degree, weights, weight):
    """Every exponent vector of the given degree and weight, as sorted
    monomials; None when there are infinitely many candidates."""
    sig = alg.sig
    ranges = []
    for k, u, sqz in zip(sig.degrees, weights, sig.sqz):
        if sqz:
            ranges.append(range(2))
        elif k == 0 and u == 0:
            return None
        else:
            ranges.append(range(min(degree // k if k else weight,
                                    weight // u if u else degree) + 1))
    out = []
    for exps in itertools.product(*ranges):
        if (sum(e * k for e, k in zip(exps, sig.degrees)) == degree
                and sum(e * u for e, u in zip(exps, weights)) == weight):
            out.append(tuple((g, e) for g, e in enumerate(exps) if e))
    return sorted(out)


@given(graded_signatures(), st.integers(0, 4), st.integers(0, 4))
@settings(max_examples=300, deadline=None)
def test_basis_components_match_brute_force(case, degree, weight):
    """The pruned enumerator and its count share one DP table, so they are
    checked here against exponent vectors enumerated without it."""
    alg, weights = case
    for ws, w in ((weights, weight), (None, 0)):
        want = brute_force_basis(alg, degree, ws or (0,) * len(weights), w)
        if want is None:
            with pytest.raises(Capped):
                monomial_basis(alg, degree, weights=ws, weight=w)
            continue
        assert monomial_basis(alg, degree, weights=ws,
                              weight=w).monomials == tuple(want)
        if ws is None:
            assert count_monomials(alg, degree) == len(want)


# -- the weight-restricted decision against a full-basis solve -----------------


def full_basis_status(alg, x):
    """The decision the way it was made before the weight grading: solve
    d v = x over the complete basis one degree down.  A monomial of x that
    no column reaches is a zero row with a nonzero right-hand side."""
    ((deg, _),) = x.bidegrees()
    mat = differential_matrix(alg, deg - 1)
    if any(m not in mat.cod.index for m in x.terms):
        return "no"
    b = {mat.cod.index[m]: c for m, c in x.terms.items()}
    return "no" if solve(mat, b) is None else "yes"


def weight_components(alg, x):
    weights = la.generator_weights(alg)
    parts = {}
    for m, c in x.terms.items():
        parts.setdefault(sum(weights[g] * e for g, e in m), {})[m] = c
    return [Element(alg.sig, t) for t in parts.values()]


def check_against_full_basis(alg, x):
    dec = is_coboundary(alg, x)
    assert dec.status == full_basis_status(alg, x)
    if dec.status == "yes":
        assert apply_d(alg, dec.witness) == x
    return dec.status


def random_poly(draw, basis, coeff):
    return {m: draw(coeff) for m in draw(st.lists(
        st.sampled_from(basis), min_size=1, max_size=4, unique=True))
    } if basis else {}


@st.composite
def closed_elements(draw):
    """A random semifree algebra and a random closed element of it.

    Closed generators a^i of degree 1-2 and either parity; each b^j has as
    image a random combination of monomials in the a's of one bidegree, of
    equal or of mixed length, so both weight-homogeneous images and the
    trivial-grading fallback occur.  The element is a random polynomial in
    the a's (closed) plus d of a random element one degree down (exact)."""
    coeff = st.fractions(min_value=-4, max_value=4,
                         max_denominator=3).filter(bool)
    n_a = draw(st.integers(min_value=1, max_value=4))
    a_decls = [GeneratorDecl("a", (i,), draw(st.integers(1, 2)),
                             draw(st.sampled_from([EVEN, ODD])))
               for i in range(n_a)]
    a_alg = make_dgca(make_signature(a_decls), {})
    a_sig = a_alg.sig
    a_monos = [m for deg in (2, 3) for m in monomial_basis(a_alg, deg).monomials]
    b_decls, b_images = [], []
    for j in range(draw(st.integers(min_value=0, max_value=3))
                   if a_monos else 0):
        head = draw(st.sampled_from(a_monos))
        deg, par = a_sig.monomial_bidegree(head)
        same = [m for m in a_monos
                if a_sig.monomial_bidegree(m) == (deg, par)]
        b_decls.append(GeneratorDecl("b", (j,), deg - 1, par))
        b_images.append({head: draw(coeff), **random_poly(draw, same, coeff)})
    sig = make_signature(a_decls + b_decls)

    def to_sig(terms):
        return Element.from_terms(sig, [
            (c, [(a_sig.names[g], e) for g, e in m]) for m, c in terms.items()])

    alg = make_dgca(sig, {decl.name: to_sig(t)
                          for decl, t in zip(b_decls, b_images)})
    degree = draw(st.integers(min_value=1, max_value=4))
    parity = draw(st.sampled_from([EVEN, ODD]))
    closed = [m for m in monomial_basis(a_alg, degree).monomials
              if a_sig.monomial_bidegree(m)[1] == parity]
    below = [m for m in monomial_basis(alg, degree - 1).monomials
             if sig.monomial_bidegree(m)[1] == parity]
    x = (to_sig(random_poly(draw, closed, coeff))
         + apply_d(alg, Element(sig, random_poly(draw, below, coeff))))
    return alg, x


@given(closed_elements())
@settings(max_examples=120, deadline=None)
def test_weight_restricted_decision_matches_full_basis(case):
    alg, x = case
    weights = la.generator_weights(alg)
    assert all(weights[g] == sum(weights[h] * e for h, e in m)
               for g, img in enumerate(alg.d_images) for m in img.terms)
    for degree in range(5):
        full = monomial_basis(alg, degree).monomials
        assert list(full) == sorted(full)
        by_weight = {}
        for m in full:
            by_weight.setdefault(
                sum(weights[g] * e for g, e in m), []).append(m)
        for w, monos in by_weight.items():
            assert monomial_basis(alg, degree, weights=weights,
                                  weight=w).monomials == tuple(monos)
    if not x:
        return
    check_against_full_basis(alg, x)
    for part in weight_components(alg, x):
        check_against_full_basis(alg, part)


def test_brane_cocycles_of_mink3_match_full_basis():
    alg = _mink(3)
    assert la.generator_weights(alg) == (2, 2, 2, 1, 1)
    statuses = [check_against_full_basis(alg, brane_cocycle(3, p))
                for p in (1, 2)]
    assert statuses == ["no", "yes"]


@given(st.integers(min_value=1, max_value=2), st.data())
@settings(max_examples=40, deadline=None)
def test_mink3_cocycle_plus_coboundary_matches_full_basis(p, data):
    alg = _mink(3)
    mu = brane_cocycle(3, p)
    ((_, parity),) = mu.bidegrees()
    below = [m for m in monomial_basis(alg, p + 1).monomials
             if alg.sig.monomial_bidegree(m)[1] == parity]
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    v = Element(alg.sig, {m: data.draw(coeff) for m in data.draw(
        st.lists(st.sampled_from(below), max_size=5, unique=True))})
    scale = data.draw(coeff)
    x = scale * mu + apply_d(alg, v)
    if x:
        want = "no" if p == 1 and scale else "yes"
        assert check_against_full_basis(alg, x) == want


def so3():
    """d omega^i = omega^j omega^k (cyclic): no generator is closed, and
    the only weights d preserves are 0."""
    sig = make_signature([GeneratorDecl("omega", (i,), 1, EVEN)
                          for i in range(3)])
    w = [Element.generator(sig, f"omega^{i}") for i in range(3)]
    return make_dgca(sig, {f"omega^{i}": w[(i + 1) % 3] * w[(i + 2) % 3]
                           for i in range(3)})


def inhomogeneous():
    """a, b, c closed, d z = a b + c and d y = c: the propagated weights of
    z's image are 2 and 1."""
    sig = make_signature([GeneratorDecl("a", (), 1, EVEN),
                          GeneratorDecl("b", (), 1, EVEN),
                          GeneratorDecl("c", (), 2, EVEN),
                          GeneratorDecl("y", (), 1, EVEN),
                          GeneratorDecl("z", (), 1, EVEN)])
    a, b, c = (Element.generator(sig, n) for n in "abc")
    return make_dgca(sig, {"z": a * b + c, "y": c})


def test_weight_zero_only_falls_back_to_full_basis():
    alg = so3()
    assert la.generator_weights(alg) == (0, 0, 0)
    w = [Element.generator(alg.sig, f"omega^{i}") for i in range(3)]
    assert check_against_full_basis(alg, w[0] * w[1] * w[2]) == "no"
    assert check_against_full_basis(alg, w[0] * w[1]) == "yes"
    for degree in range(4):
        assert monomial_basis(alg, degree,
                              weights=la.generator_weights(alg)).monomials \
            == monomial_basis(alg, degree).monomials


def test_inhomogeneous_weights_fall_back_to_full_basis():
    alg = inhomogeneous()
    assert la.generator_weights(alg) == (0,) * 5
    a, b, c = (Element.generator(alg.sig, n) for n in "abc")
    # a b = d(z - y), though a b and z - y have no common propagated weight
    assert check_against_full_basis(alg, a * b) == "yes"
    assert check_against_full_basis(alg, c) == "yes"
    # a b c = d(a b y)
    assert check_against_full_basis(alg, a * b * c) == "yes"


FALLBACK_SCRIPT = """
import cealg.linalg as la
from cealg import (Element, GeneratorDecl, apply_d, is_coboundary, make_dgca,
                   make_signature)
from cealg.graded import EVEN

if __debug__:
    raise SystemExit("asserts are on: run this under python -O")
sig = make_signature([GeneratorDecl(n, (), 2 if n == "c" else 1, EVEN)
                      for n in "abcyz"])
a, b, c = (Element.generator(sig, n) for n in "abc")
alg = make_dgca(sig, {"z": a * b + c, "y": c})
if la.generator_weights(alg) != (0,) * 5:
    raise SystemExit(f"weights {la.generator_weights(alg)} are not trivial")
dec = is_coboundary(alg, a * b)
if dec.status != "yes" or apply_d(alg, dec.witness) != a * b:
    raise SystemExit(f"answered {dec.status!r} with witness {dec.witness!r}")
"""


def test_inhomogeneous_fallback_under_python_O():
    """The homogeneity check decides which basis is solved over, so it must
    survive `python -O`."""
    fresh_run(FALLBACK_SCRIPT, "-O")


def test_cap_bounds_the_bases_built():
    """`scan.11.32.2` solves over mu4's weight-6 component one degree down:
    165 columns, and 8,208 rows, the monomials d of them reaches.  The
    degree-4 weight-6 component has 29,040 monomials and the full bases
    13,717 and 152,834; only the 165-monomial domain is enumerated, so
    it alone meets the cap."""
    alg = _mink(11)
    weights = la.generator_weights(alg)
    assert [len(monomial_basis(alg, d, weights=weights, weight=6))
            for d in (3, 4)] == [165, 29040]
    m = differential_matrix(alg, 3, cap=165, weights=weights, weight=6)
    assert (m.rows, m.cols) == (8208, 165)
    assert count_monomials(alg, 4) == 152_834
    rep = reporting.run_task("scan.11.32.2", cap=165)
    assert rep.verdict == "pass"
    assert rep.pinned == {"closed": True, "nontrivial": "yes",
                          "solve_basis": 13717}
    assert reporting.run_task("scan.11.32.2", cap=164).verdict == "capped"


WRONG_SOLVER_SCRIPT = """
from fractions import Fraction

import cealg.linalg as la
from cealg import Element, GeneratorDecl, GradedError, make_dgca, make_signature
from cealg.graded import EVEN

if __debug__:
    raise SystemExit("asserts are on: run this under python -O")
sig = make_signature([GeneratorDecl("g4", (), 4, EVEN),
                      GeneratorDecl("g7", (), 7, EVEN)])
g4 = Element.generator(sig, "g4")
alg = make_dgca(sig, {"g7": g4 * g4})
la.solve = lambda mat, b: [Fraction(2)] * mat.cols  # d(2 g7) != g4^2
try:
    dec = la.is_coboundary(alg, g4 * g4)
except GradedError:
    raise SystemExit(0)
raise SystemExit(f"answered {dec.status!r} with witness {dec.witness!r}")
"""


def test_invalid_witness_raises_under_python_O():
    """The witness check decides the verdict, so it must not be an assert
    that `python -O` strips: a solver returning a wrong vector must raise."""
    fresh_run(WRONG_SOLVER_SCRIPT, "-O")


def test_is_coboundary_requires_closed():
    alg = s4()
    g7 = Element.generator(alg.sig, "g7")
    with pytest.raises(NotClosed):
        is_coboundary(alg, g7)


def test_is_coboundary_capped():
    decls = [GeneratorDecl("e", (a,), 1, EVEN) for a in range(3)]
    decls += [GeneratorDecl("psi", (i,), 1, ODD) for i in range(1, 3)]
    sig = make_signature(decls)
    alg = make_dgca(sig, {})  # zero differential: everything is closed
    el = Element.from_terms(sig, [(1, [("e^0", 1), ("e^1", 1)])])
    # every generator weighs 1, so el's component one degree down is empty
    # and no column reaches el: a correct no within any cap
    assert is_coboundary(alg, el, cap=2).status == "no"
    # mu4's component one degree down has 165 monomials
    assert is_coboundary(_mink(11), _mu(11, 2), cap=100).status \
        == "capped"


MU4_DECISION_SCRIPT = """
import tracemalloc

from cealg.catalog import _mink, _mu
from cealg.linalg import is_coboundary

alg = _mink(11)
mu4 = _mu(11, 2)
tracemalloc.start()
dec = is_coboundary(alg, mu4)
peak = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
print(int(dec.status == "no"), peak)
"""


def test_mu4_decision_memory():
    """Deciding that mu4 is no coboundary on superMink(11) builds the
    165-monomial domain and the 8,208 rows d of it reaches, with a
    tracemalloc peak of at most 6 MiB (2.83 MiB measured); enumerating the
    29,040-monomial degree-4 component as well peaked at 11.74 MiB."""
    no, peak = map(int, fresh_run(MU4_DECISION_SCRIPT).split())
    assert no == 1
    assert peak <= 6 * 2 ** 20, f"peak {peak / 2 ** 20:.2f} MiB"


# -- d's matrix kept as kernel arrays against the dict path --------------------


@contextmanager
def kernel_gate(gate):
    """Every `batched` front-end call of at least `gate` pairs reaches the
    kernel: 0 sends every matrix there, 1 << 62 none."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(batched, "BATCH_PAIRS", gate)
        yield mp


def both_paths(alg, degree, **kwargs):
    """d's matrix at `degree` with every column call on the kernel, and on
    the dict path."""
    out = []
    for gate in (0, 1 << 62):
        with kernel_gate(gate):
            out.append(differential_matrix(alg, degree, **kwargs))
    return out


def assert_same_matrix(packed, plain):
    assert type(plain) is SparseRationalMatrix
    assert (packed.rows, packed.cols) == (plain.rows, plain.cols)
    assert packed.dom.monomials == plain.dom.monomials
    assert packed.cod.monomials == plain.cod.monomials
    assert packed.entries == plain.entries
    # the integer rows, and the order of their entries, are bit-identical
    assert [list(r.items()) for r in la._int_rows(packed)] == [
        list(r.items()) for r in la._int_rows(plain)]


def assert_same_decision(alg, x):
    decisions = []
    for gate in (0, 1 << 62):
        with kernel_gate(gate):
            decisions.append(is_coboundary(alg, x))
    kernel, plain = decisions
    assert (kernel.status, kernel.unreached) == (plain.status, plain.unreached)
    if plain.witness is None:
        assert kernel.witness is None
    else:
        assert kernel.witness.to_json() == plain.witness.to_json()
    return plain


@given(closed_elements())
@settings(max_examples=80, deadline=None)
def test_packed_matrix_matches_the_dict_path(case):
    """With the gate at 0, d's matrix is the kernel's arrays; with it out
    of reach, it is built from `apply_d_all`'s dicts.  Rows, columns,
    bases, entries and integer rows agree, on every degree and weight
    component of random semifree algebras, and so do the decisions."""
    alg, x = case
    weights = la.generator_weights(alg)
    for degree in range(5):
        for w in sorted({sum(weights[g] * e for g, e in m) for m in
                         monomial_basis(alg, degree).monomials} | {0}):
            packed, plain = both_paths(alg, degree, weights=weights,
                                       weight=w)
            assert isinstance(packed, la._PackedMatrix)
            assert_same_matrix(packed, plain)
    if x:
        assert_same_decision(alg, x)


def prefix_rows():
    """d y = a with z of degree 0 and odd parity, so square-zero, sorted
    after a and y by family name: d(y z) = a z, and the row a is a proper
    prefix of the row a z, which only a degree-0 generator allows."""
    sig = make_signature([GeneratorDecl("a", (), 2, EVEN),
                          GeneratorDecl("y", (), 1, EVEN),
                          GeneratorDecl("z", (), 0, ODD)])
    return make_dgca(sig, {"y": Element.generator(sig, "a")})


def test_packed_matrix_matches_the_dict_path_on_the_compose_cases():
    for alg, degrees in compose_cases() + [(prefix_rows(), range(0, 3))]:
        for degree in degrees:
            assert_same_matrix(*both_paths(alg, degree))
    assert differential_matrix(prefix_rows(), 1).cod.monomials == (
        ((0, 1),), ((0, 1), (2, 1)))
    mink3 = _mink(3)
    for p in (1, 2):
        assert_same_decision(mink3, brane_cocycle(3, p))


def test_matrix_falls_back_to_the_dict_path_when_a_guard_trips(monkeypatch):
    """d(g4^128 g7) = g4^130 on the 4-sphere model: an exponent above the
    kernel's int8 fields, so `leibniz_tagged` declines at gate 0 and the
    matrix comes from the dict path; g4^130 is d(g4^128 g7) either way."""
    alg = s4()
    calls = []
    real = batched.leibniz_tagged
    monkeypatch.setattr(batched, "leibniz_tagged", lambda *a: calls.append(
        real(*a)) or calls[-1])
    packed, plain = both_paths(alg, 519)
    assert calls == [None, None]
    assert type(packed) is SparseRationalMatrix
    assert (packed.rows, packed.cols, packed.entries) == (
        plain.rows, plain.cols, plain.entries)
    assert packed.cod.monomials == (((0, 130),),)
    x = Element(alg.sig, {((0, 130),): Fraction(1)})
    dec = assert_same_decision(alg, x)
    assert dec.status == "yes" and dec.unreached is None
    assert dec.witness.terms == {((0, 128), (1, 1)): Fraction(1)}


def test_mu4_decision_decodes_nothing(monkeypatch):
    """Deciding that mu4 is no coboundary on superMink(11) looks its
    monomials up among the packed rows of d's matrix: no shared call is
    split, and no kernel result is decoded."""
    seen = []
    monkeypatch.setattr(batched.Packed, "split",
                        lambda self: seen.append("split"))
    monkeypatch.setattr(batched._Context, "decode",
                        lambda self, *a: seen.append("decode"))
    dec = is_coboundary(_mink(11), _mu(11, 2))
    assert dec.status == "no" and dec.unreached is not None
    assert seen == []


@pytest.mark.parametrize("task", ["scan.11.32.2", "scan.3.2.1"])
def test_no_decisions_carry_their_first_unreached_monomial(task):
    """The certificate of a no, checked on the dict path: d of no domain
    monomial reaches it, and every monomial of x before it, in x's
    canonical order, is reached."""
    d, p = {"scan.11.32.2": (11, 2), "scan.3.2.1": (3, 1)}[task]
    alg, x = _mink(d), _mu(d, p)
    dec = is_coboundary(alg, x)
    assert dec.status == "no" and dec.witness is None
    weights = la.generator_weights(alg)
    ((deg, _),) = x.bidegrees()
    (weight,) = {sum(weights[g] * e for g, e in m) for m in x.terms}
    dom = monomial_basis(alg, deg - 1, weights=weights, weight=weight)
    with kernel_gate(1 << 62):
        reached = {m for mono in dom.monomials for m in apply_d(
            alg, Element(alg.sig, {mono: Fraction(1)})).terms}
    assert dec.unreached in x.terms and dec.unreached not in reached
    assert all(m in reached for m in sorted(x.terms) if m < dec.unreached)
    yes = is_coboundary(alg, apply_d(alg, Element(alg.sig, {dom.monomials[0]:
                                                            Fraction(1)})))
    assert yes.status == "yes" and yes.unreached is None


def test_reached_refuses_monomials_outside_the_layout():
    """d z = x y, kept packed: x, y and z take one bit each, so x^3 would
    pack to the key of x y, and w has no field.  Only x y is a row."""
    sig = make_signature([GeneratorDecl(n, (), 3 if n == "z" else 2, EVEN)
                          for n in "wxyz"])
    x, y = (Element.generator(sig, n) for n in "xy")
    alg = make_dgca(sig, {"z": x * y})
    with kernel_gate(0):
        m = differential_matrix(alg, 3)
    assert isinstance(m, la._PackedMatrix) and m.rows == 1
    w, x, y = (sig.gen_id(n) for n in "wxy")
    assert m.reached([((x, 1), (y, 1)), ((x, 3),), ((w, 1), (x, 1)),
                      ((y, 2),)]) == [True, False, False, False]
