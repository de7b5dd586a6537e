"""Gamma matrix construction, pairing symmetries, quartic identities."""

import ast
import itertools
import math
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cealg import (
    BadIndices,
    Unsupported,
    build_clifford,
    check_clifford,
    quartic_fierz_check,
)
from cealg import clifford
from cealg.clifford import (
    CliffordError,
    _coo,
    _mu7_terms,
    _outer,
    _pair_sym,
    _pairing_table,
    _sorted_key_sym,
    _sorted_pairs,
    octonion_left_mults,
    pairing_walk,
    spin9_gammas,
)
from cealg.catalog import ZeroCocycle, _mink, _rep, brane_cocycle
from cealg.dgca import apply_d
from fresh import fresh_run


# Dense reference for the sparse quartic tensors: the einsum outer product
# and the sum of the six slot transposes, as n^4 int64 arrays.
def _dense_outer(x, y):
    return np.einsum("ab,cd->abcd", x, y)


def _dense_pair_sym(t):
    return (t + t.transpose(2, 3, 0, 1) + t.transpose(0, 2, 1, 3)
            + t.transpose(2, 0, 3, 1) + t.transpose(0, 2, 3, 1)
            + t.transpose(2, 0, 1, 3))


def _dense_nonzeros(t):
    """A dense tensor in `_pair_sym`'s layout: C-order keys, then values."""
    keys = np.flatnonzero(t)
    return np.stack([keys, t.ravel()[keys]])


def _per_tuple_table(rep, ranks):
    """The reference of `_pairing_table`: each C Gamma^A from `rep.pairing`,
    as its own product chain from C."""
    return {idx: _coo(rep.pairing(idx)) for p in ranks
            for idx in itertools.combinations(range(rep.d), p)}


def read_pairings_per_tuple(monkeypatch):
    """Make `quartic_fierz_check` read its table through `rep.pairing`, so
    that a test can inject a fault into C Gamma^A by replacing it."""
    monkeypatch.setattr(clifford, "_pairing_table", _per_tuple_table)


def _rows(terms) -> np.ndarray:
    """The COO rows of a sum of (x, y, scale) outer-product terms, as
    `_pair_sym` takes them."""
    return np.concatenate([_outer(x, y, s) for x, y, s in terms])


def _dense_mu7_tensors(rep, quad):
    dacc = np.zeros((rep.n_spin,) * 4, dtype=np.int64)
    for b in range(rep.d):
        if b in quad:
            continue
        five = tuple(sorted(quad + (b,)))
        sgn = -1 if (4 - five.index(b)) & 1 else 1
        dacc += (sgn * rep.eta[b]) * _dense_outer(rep.pairing(five),
                                                  rep.pairing((b,)))
    a1, a2, a3, a4 = quad
    qacc = (_dense_outer(rep.pairing((a1, a2)), rep.pairing((a3, a4)))
            - _dense_outer(rep.pairing((a1, a3)), rep.pairing((a2, a4)))
            + _dense_outer(rep.pairing((a1, a4)), rep.pairing((a2, a3))))
    return 120 * _dense_pair_sym(dacc), 8 * _dense_pair_sym(qacc)


def _mu7_tensors(rep, table, quad):
    """D and Q at the quadruple as two `_pair_sym` arrays."""
    d_terms, q_terms = _mu7_terms(rep, table, quad)
    return (_pair_sym(_rows(d_terms), rep.n_spin),
            _pair_sym(_rows(q_terms), rep.n_spin))


def _residual(rep, table, quad, c):
    """den D - num Q at the quadruple, as the check builds it for c = num/den."""
    d_terms, q_terms = _mu7_terms(rep, table, quad, c.denominator, -c.numerator)
    return _pair_sym(_rows(d_terms + q_terms), rep.n_spin)


def _two_tensor_mu7(rep):
    """The reference decision of d mu7 = c mu4^2: both tensors at every
    quadruple, c from the first nonzero of the first nonzero Q, and each
    quadruple compared entry by entry.  Returns (ok, witness, c)."""
    table = _per_tuple_table(rep, (1, 2, 5))
    c = None
    for quad in itertools.combinations(range(rep.d), 4):
        d, q = _mu7_tensors(rep, table, quad)
        if not q.size:
            if d.size:
                return False, str(quad), None
            continue
        if c is None:
            at = np.flatnonzero(d[0] == q[0, 0])
            c = Fraction(int(d[1, at[0]]) if at.size else 0, int(q[1, 0]))
        if c:
            same = (np.array_equal(d[0], q[0])
                    and np.array_equal(c.denominator * d[1], c.numerator * q[1]))
        else:
            same = not d.size
        if not same:
            return False, str(quad), None
    return c is not None, None, c


def _cayley_dickson(a, b):
    """One product in the 2^k-dimensional Cayley-Dickson algebra over Z.

    Vectors split as (x, y) pairs; (x1,y1)(x2,y2) = (x1x2 - y2*conj(y1),
    y2 x1 + y1 conj(x2)).
    """
    n = len(a)
    if n == 1:
        return [a[0] * b[0]]
    h = n // 2
    x1, y1 = a[:h], a[h:]
    x2, y2 = b[:h], b[h:]
    left = [p - q for p, q in zip(_cayley_dickson(x1, x2),
                                  _cayley_dickson(_conj(y2), y1))]
    right = [p + q for p, q in zip(_cayley_dickson(y2, x1),
                                   _cayley_dickson(y1, _conj(x2)))]
    return left + right


def _conj(a):
    return [a[0]] + [-v for v in a[1:]]


def test_octonion_left_mults_match_cayley_dickson_products():
    """Column j of L_i is the full Cayley-Dickson product e_i e_j; the unit
    rule also gives every product of basis units in dimensions 1..16."""
    units = np.eye(8, dtype=np.int64).tolist()
    for i, mat in enumerate(octonion_left_mults()):
        want = np.array([_cayley_dickson(units[i], e) for e in units]).T
        assert np.array_equal(mat, want)
    for n in (1, 2, 4, 8, 16):
        units = np.eye(n, dtype=np.int64).tolist()
        for i, j in itertools.product(range(n), repeat=2):
            want = [0] * n
            want[i ^ j] = clifford._unit_sign(i, j, n)
            assert _cayley_dickson(units[i], units[j]) == want


def test_octonion_left_mults_composition_property():
    mats = octonion_left_mults()
    assert np.array_equal(mats[0], np.eye(8, dtype=np.int64))
    for i in range(1, 8):
        assert np.array_equal(mats[i].T, -mats[i])
    for i in range(8):
        for j in range(8):
            s = mats[i] @ mats[j].T + mats[j] @ mats[i].T
            want = 2 * (1 if i == j else 0) * np.eye(8, dtype=np.int64)
            assert np.array_equal(s, want)


def test_spin9_system():
    gammas = spin9_gammas()
    assert len(gammas) == 9
    ident = np.eye(16, dtype=np.int64)
    for i, gi in enumerate(gammas):
        assert np.array_equal(gi, gi.T)
        for j, gj in enumerate(gammas):
            s = gi @ gj + gj @ gi
            assert np.array_equal(s, 2 * (1 if i == j else 0) * ident)


def test_d3_rep_matches_fixed_basis():
    rep = build_clifford(3)
    assert rep.n_spin == 2
    assert rep.gammas[0].tolist() == [[0, 1], [-1, 0]]
    assert rep.gammas[1].tolist() == [[0, 1], [1, 0]]
    assert rep.gammas[2].tolist() == [[1, 0], [0, -1]]
    assert rep.charge_conj.tolist() == [[0, 1], [-1, 0]]
    assert check_clifford(rep).ok


def test_d11_rep_anticommutators():
    rep = build_clifford(11)
    assert rep.n_spin == 32
    ident = np.eye(32, dtype=np.int64)
    for a in range(11):
        for b in range(a, 11):
            s = rep.gammas[a] @ rep.gammas[b] + rep.gammas[b] @ rep.gammas[a]
            want = 2 * (rep.eta[a] if a == b else 0) * ident
            assert np.array_equal(s, want)
    assert check_clifford(rep).ok


def test_unsupported_dimension():
    with pytest.raises(Unsupported):
        build_clifford(12)
    with pytest.raises(Unsupported, match="d=11"):
        quartic_fierz_check(build_clifford(3), "mu7-relation")


def test_pairing_symmetry_flags_d11():
    rep = build_clifford(11)

    def symmetry(indices):
        return clifford._symmetry_of(rep.pairing(indices))

    assert symmetry((3,)) == "symmetric"
    assert symmetry((0, 7)) == "symmetric"
    assert symmetry((1, 2, 3, 4, 5)) == "symmetric"
    assert symmetry((0, 1, 2)) == "antisymmetric"
    assert symmetry((2, 4, 6, 8)) == "antisymmetric"
    assert symmetry(()) == "antisymmetric"  # C itself


def test_pairing_index_validation():
    rep = build_clifford(11)
    with pytest.raises(BadIndices):
        rep.pairing((0, 11))


def test_check_clifford_negative_control():
    rep = build_clifford(11)
    rep.gammas[4][7, :] = -rep.gammas[4][7, :]
    bad = check_clifford(rep)
    assert not bad.ok
    assert "anticommutator" in bad.details


def _commutator_loop_ok(rep):
    """The commutator pass `check_clifford` no longer runs: [Gamma^a, Gamma^b]
    = 2 Gamma^{ab} for every a, b, with Gamma^{ab} the ordered product for
    a != b and 0 for a = b."""
    for a, b in itertools.product(range(rep.d), repeat=2):
        ga, gb = rep.gammas[a], rep.gammas[b]
        gab = ga @ gb if a != b else np.zeros_like(ga)
        if not np.array_equal(ga @ gb - gb @ ga, 2 * gab):
            return False
    return True


def _one_entry_flipped(d, gamma, row):
    """The rep with the nonzero entry in one row of one gamma sign-flipped."""
    rep = build_clifford(d)
    col = np.flatnonzero(rep.gammas[gamma][row])[0]
    rep.gammas[gamma][row, col] *= -1
    return rep


@pytest.mark.parametrize("rep", [
    build_clifford(3), build_clifford(11),
    _one_entry_flipped(3, 1, 0), _one_entry_flipped(3, 0, 1),
    _one_entry_flipped(11, 4, 7), _one_entry_flipped(11, 0, 0),
    _one_entry_flipped(11, 10, 31),
], ids=["d3", "d11", "d3-g1", "d3-g0", "d11-g4", "d11-g0", "d11-g10"])
def test_check_clifford_needs_no_commutator_pass(rep):
    assert _commutator_loop_ok(rep) == check_clifford(rep).ok


@pytest.mark.parametrize("indices", [(), (3,), (0, 7), (1, 2, 3, 4, 5)])
def test_pairing_returns_a_fresh_array(indices):
    rep = build_clifford(11)
    charge_conj = rep.charge_conj.copy()
    gammas = [g.copy() for g in rep.gammas]
    m = rep.pairing(indices)
    want = m.copy()
    m += 1
    assert np.array_equal(rep.pairing(indices), want)
    assert np.array_equal(rep.charge_conj, charge_conj)
    assert all(np.array_equal(g, h) for g, h in zip(rep.gammas, gammas))


def test_mu4_closure_reads_one_pairing_table(monkeypatch):
    """The 11 pairings of rank 1 and 55 of rank 2, once each: 66 products,
    each one from its parent's, and no product chain from C."""
    rep = build_clifford(11)
    calls = []
    pairing = rep.pairing
    rep.pairing = lambda indices: calls.append(tuple(indices)) or pairing(indices)
    products = []
    real = clifford._times
    monkeypatch.setattr(clifford, "_times",
                        lambda *a: products.append(1) or real(*a))
    report = quartic_fierz_check(rep, "mu4-closure", 2)
    assert report.ok
    assert (len(calls), len(products)) == (0, 66)
    # one key per product entry: 11 prefixes of 10 terms of 32 x 32 entries
    assert (report.stats["sym_keys"], report.stats["prefixes"]) == (112_640, 11)


@pytest.mark.parametrize("ranks", [(1, 2, 5)] + [{1, p} for p in range(1, 6)])
def test_pairing_table_matches_per_tuple_pairings(ranks):
    """The walked table holds the COO triples of `rep.pairing`, entry for
    entry and in the same order, for the tables the Fierz checks read."""
    rep = build_clifford(11)
    got, want = _pairing_table(rep, ranks), _per_tuple_table(rep, ranks)
    assert list(got) == list(want)
    for idx, coo in want.items():
        assert all(np.array_equal(a, b) and a.dtype == b.dtype
                   for a, b in zip(got[idx], coo))


def test_mu4_closure_refuses_int64_overflow():
    rep = build_clifford(11)
    rep.charge_conj *= 2 ** 15
    assert quartic_fierz_check(rep, "mu4-closure", 2).ok
    rep.charge_conj *= 2 ** 16
    with pytest.raises(CliffordError):
        quartic_fierz_check(rep, "mu4-closure", 2)


def test_quartic_closure_identities():
    assert quartic_fierz_check(build_clifford(3), "mu4-closure", 1).ok
    assert quartic_fierz_check(build_clifford(11), "mu4-closure", 2).ok


def test_quartic_negative_controls():
    """Every C Gamma^(3) in d=11 is antisymmetric, so p = 3 has no cocycle
    and is refused; mu3 (p = 1) is not closed, from the first prefix on."""
    rep = build_clifford(11)
    with pytest.raises(CliffordError, match="antisymmetric"):
        quartic_fierz_check(rep, "mu4-closure", p=3)
    bad = quartic_fierz_check(rep, "mu4-closure", p=1)
    assert (bad.ok, bad.witness) == (False, "()")


def test_pairing_rank_is_required_by_mu4_closure_only():
    """mu4-closure checks the rank it is given, with no default to fall
    back on; mu7-relation has no pairing rank to choose: it reads ranks 1,
    2 and 5, so a rank is refused rather than ignored."""
    with pytest.raises(CliffordError, match="needs the pairing rank"):
        quartic_fierz_check(build_clifford(11), "mu4-closure")
    with pytest.raises(CliffordError, match="mu4-closure only"):
        quartic_fierz_check(build_clifford(11), "mu7-relation", p=2)


def _closure_outcome(check):
    """True or False as `check()` passes or fails, "zero" where it raises
    that the cocycle vanishes."""
    try:
        return check()
    except (ZeroCocycle, CliffordError) as e:
        assert "antisymmetric" in str(e)
        return "zero"


def test_tensor_and_symbolic_closure_agree_rank_by_rank():
    """mu_{p+2} for d=3, p = 1..3 and d=11, p = 1..5: the tensor path
    refuses exactly the ranks whose cocycle `brane_cocycle` finds zero,
    and elsewhere passes exactly where d of the cocycle is 0."""
    got = {}
    for d, ranks in ((3, range(1, 4)), (11, range(1, 6))):
        for p in ranks:
            symbolic = _closure_outcome(
                lambda: apply_d(_mink(d), brane_cocycle(d, p)).is_zero())
            tensor = _closure_outcome(lambda: quartic_fierz_check(
                _rep(d), "mu4-closure", p).ok)
            assert tensor == symbolic, (d, p)
            got[d, p] = symbolic
    assert got == {(3, 1): True, (3, 2): True, (3, 3): "zero",
                   (11, 1): False, (11, 2): True, (11, 3): "zero",
                   (11, 4): "zero", (11, 5): False}


@pytest.mark.parametrize("d, p", [(11, 0), (11, -1), (11, 12), (3, 4)])
def test_mu4_closure_refuses_rank_outside_1_to_d(d, p):
    """p <= 0 has no (p-1)-tuples, and p > d has no free index b, so that
    it would pass without checking an identity."""
    with pytest.raises(CliffordError, match="outside"):
        quartic_fierz_check(build_clifford(d), "mu4-closure", p)


def test_mu7_relation_constant():
    rep = quartic_fierz_check(build_clifford(11), "mu7-relation")
    assert rep.ok
    assert rep.pinned["c"] == "15/1"


small_matrices = arrays(np.int64, (4, 4), elements=st.integers(-3, 3))


@given(small_matrices, small_matrices, st.integers(-5, 5))
@settings(max_examples=200, deadline=None)
def test_sparse_pair_sym_matches_dense(x, y, scale):
    # neither symmetric nor a signed permutation: no structure assumed
    for m in (x, y):
        assume(not np.array_equal(m, m.T))
        assume(not np.array_equal(np.abs(m) @ np.abs(m).T, np.eye(4)))
    sparse = _pair_sym(_outer(_coo(x), _coo(y), scale), 4)
    dense = _dense_nonzeros(_dense_pair_sym(scale * _dense_outer(x, y)))
    assert sparse.dtype == np.int64
    assert np.array_equal(sparse, dense)


def _dense_of_rows(t, n):
    dense = np.zeros((n,) * 4, dtype=np.int64)
    np.add.at(dense, tuple(t[:, :4].T), t[:, 4])
    return dense


coo_rows = st.tuples(st.integers(0, 40), st.integers(0, 40)).flatmap(
    lambda mb: st.tuples(
        arrays(np.int64, (mb[0], 4), elements=st.integers(0, 3)),
        # mostly negative, with value widths on both sides of the 24 bits
        # that fit in an int32 word under an 8-bit key
        arrays(np.int64, (mb[0],), elements=st.integers(-2 ** mb[1], 2 ** 4)),
        arrays(np.bool_, (mb[0],))))


@given(coo_rows)
@settings(max_examples=200, deadline=None)
def test_sparse_pair_sym_matches_dense_on_raw_rows(drawn):
    """Rows in any order, repeated positions, values far below zero, and
    each row flagged in `cancel` repeated with the opposite value, so that
    its position sums to zero and must be dropped."""
    idx, val, cancel = drawn
    t = np.concatenate([np.column_stack([idx, val]),
                        np.column_stack([idx[cancel], -val[cancel]])])
    sparse = _pair_sym(t, 4)
    assert sparse.dtype == np.int64
    assert np.array_equal(sparse, _dense_nonzeros(_dense_pair_sym(_dense_of_rows(t, 4))))
    if cancel.all():
        assert sparse.shape == (2, 0)


def test_sparse_pair_sym_edge_cases():
    empty = _pair_sym(np.empty((0, 5), dtype=np.int64), 4)
    assert empty.dtype == np.int64 and empty.shape == (2, 0)
    zero = np.zeros((4, 4), dtype=np.int64)
    assert _outer(_coo(zero), _coo(np.eye(4, dtype=np.int64))).shape == (0, 5)
    # one position under all six pairings, cancelled by its own negative
    row = np.array([[0, 1, 2, 3, -7], [0, 1, 2, 3, 7]], dtype=np.int64)
    assert _pair_sym(row, 4).shape == (2, 0)
    # every value negative: the shift to nonnegative words must undo exactly
    t = np.array([[3, 0, 1, 2, -2 ** 40], [3, 0, 1, 2, -1]], dtype=np.int64)
    got = _pair_sym(t, 4)
    assert np.array_equal(got, _dense_nonzeros(_dense_pair_sym(_dense_of_rows(t, 4))))
    assert set(got[1].tolist()) == {-2 ** 40 - 1}
    # the widest values that still fit an int32 word beside the top key,
    # and one bit more
    for top in (2 ** 22, 2 ** 23):
        t = np.array([[3, 3, 3, 3, top - 1], [0, 1, 2, 3, -top]], dtype=np.int64)
        want = _dense_nonzeros(_dense_pair_sym(_dense_of_rows(t, 4)))
        assert np.array_equal(_pair_sym(t, 4), want)


@pytest.mark.parametrize("quad", [(0, 1, 2, 3), (6, 7, 8, 9)])
def test_mu7_tensors_match_dense(quad):
    rep = build_clifford(11)
    table = _pairing_table(rep, (1, 2, 5))
    d_sparse, q_sparse = _mu7_tensors(rep, table, quad)
    d_dense, q_dense = _dense_mu7_tensors(rep, quad)
    assert q_sparse.size
    assert np.array_equal(d_sparse, _dense_nonzeros(d_dense))
    assert np.array_equal(q_sparse, _dense_nonzeros(q_dense))


# (0, 1, 2, 3, 4) spoils the first quadruple, so c itself comes out wrong;
# (1, 2, 3, 4, 5) first enters after c = 15 is fixed by (0, 1, 2, 3).
@pytest.mark.parametrize("five, witness", [((0, 1, 2, 3, 4), "(0, 1, 2, 3)"),
                                           ((1, 2, 3, 4, 5), "(1, 2, 3, 4)")])
def test_mu7_relation_negative_control(monkeypatch, five, witness):
    read_pairings_per_tuple(monkeypatch)
    rep = build_clifford(11)
    pairing = rep.pairing

    def flipped(indices):
        m = pairing(indices)
        return -m if tuple(indices) == five else m

    rep.pairing = flipped
    bad = quartic_fierz_check(rep, "mu7-relation")
    assert not bad.ok
    assert bad.witness == witness


@pytest.mark.parametrize("which", [0, 5, 10, "C"])
def test_fierz_checks_catch_a_flipped_gamma_entry(which):
    """One entry of a gamma (or of C) flipped in place after the build, and
    no table replaced: both checks, as shipped, read the fault through
    `pairing_walk` and fail where the per-tuple `rep.pairing` reference
    fails.  Every C Gamma^b enters D, so the first quadruple already does."""
    rep = build_clifford(11)
    m = rep.charge_conj if which == "C" else rep.gammas[which]
    i, j = np.argwhere(m)[-1]
    m[i, j] = -m[i, j]
    bad = quartic_fierz_check(rep, "mu7-relation")
    assert (bad.ok, bad.witness) == (False, "(0, 1, 2, 3)")
    assert _two_tensor_mu7(rep)[:2] == (False, bad.witness)
    bad = quartic_fierz_check(rep, "mu4-closure", 2)
    assert (bad.ok, bad.witness) == (False, "(0,)")


WRONG_C = [Fraction(14), Fraction(16), Fraction(15, 2), Fraction(0), Fraction(-15)]


@pytest.mark.parametrize("quad", [(0, 1, 2, 3), (2, 4, 7, 10)])
def test_mu7_residual_matches_dense_two_tensor_reference(quad):
    """The residual den D - num Q the check sorts equals the dense one, entry
    by entry, for c = 15 and for wrong constants, and it vanishes exactly
    when the two-tensor comparison holds."""
    rep = build_clifford(11)
    table = _pairing_table(rep, (1, 2, 5))
    d_dense, q_dense = _dense_mu7_tensors(rep, quad)
    d_sparse, q_sparse = _mu7_tensors(rep, table, quad)
    for c in WRONG_C + [Fraction(15)]:
        num, den = c.numerator, c.denominator
        residual = _residual(rep, table, quad, c)
        assert np.array_equal(residual, _dense_nonzeros(den * d_dense - num * q_dense))
        same = (np.array_equal(d_sparse[0], q_sparse[0])
                and np.array_equal(den * d_sparse[1], num * q_sparse[1]))
        assert (not residual.size) == same == (c == 15)


def _pairs_with_10_scaled(factor):
    """Scale C Gamma^{a 10}: Q at each quadruple with a4 = 10 is scaled by
    `factor`, every other quadruple and every D unchanged.  With c = 15
    fixed at (0, 1, 2, 3), (0, 1, 2, 10) then looks like c = 15 / factor."""
    def perturb(indices, m):
        return factor * m if len(indices) == 2 and indices[1] == 10 else m
    return perturb


@pytest.mark.parametrize("perturb, witness", [
    (None, None),
    (_pairs_with_10_scaled(2), "(0, 1, 2, 10)"),
    (_pairs_with_10_scaled(-1), "(0, 1, 2, 10)"),
    # Q vanishes at a later quadruple while D does not
    (_pairs_with_10_scaled(0), "(0, 1, 2, 10)"),
])
def test_mu7_relation_matches_two_tensor_reference(monkeypatch, perturb,
                                                  witness):
    read_pairings_per_tuple(monkeypatch)
    rep = build_clifford(11)
    if perturb is not None:
        pairing = rep.pairing
        rep.pairing = lambda indices: perturb(tuple(indices), pairing(indices))
    ok, want_witness, c = _two_tensor_mu7(rep)
    got = quartic_fierz_check(rep, "mu7-relation")
    assert (got.ok, got.witness) == (ok, want_witness)
    assert got.witness == witness
    if ok:
        assert got.pinned["c"] == f"{c.numerator}/{c.denominator}" == "15/1"


def test_mu7_relation_sorts_one_residual_per_quadruple(monkeypatch):
    """Two sorts fix c at (0, 1, 2, 3), and each of the 330 quadruples, that
    one included, is decided by one residual: 332 sorts, all on the one-key
    path.  A residual has the 7 terms
    of D and the 3 of Q, 10 x 32 x 32 = 10,240 keys, where the six slot
    pairings sorted 61,440."""
    keys = []
    real = clifford._sorted_key_sym
    monkeypatch.setattr(
        clifford, "_sorted_key_sym",
        lambda pairs, terms, n: keys.append(len(terms) * 32 * 32)
        or real(pairs, terms, n))
    six = []
    monkeypatch.setattr(clifford, "_pair_sym", lambda t, n: six.append(t))
    rep = quartic_fierz_check(build_clifford(11), "mu7-relation")
    assert rep.ok
    assert six == []
    assert len(keys) == 332
    assert keys[2:] == [10_240] * 330
    assert rep.stats["quadruples"] == 330
    assert rep.stats["sym_keys"] == sum(keys) == 3_389_440


def test_mu7_relation_refuses_int64_overflow():
    rep = build_clifford(11)
    rep.charge_conj *= 2 ** 31
    with pytest.raises(CliffordError):
        quartic_fierz_check(rep, "mu7-relation")


def test_mu7_relation_refuses_packed_word_overflow():
    """Scaling C by s scales both sides by s^2 and leaves c = 15.  The
    residual's values reach 2 * 1800 s^2, which must fit in the 43 bits an
    int64 word has left under a 20-bit key: at s = 2^15 they do, at s = 2^16
    they could not, while every sum would still fit."""
    rep = build_clifford(11)
    rep.charge_conj *= 2 ** 15
    assert quartic_fierz_check(rep, "mu7-relation").pinned["c"] == "15/1"
    rep.charge_conj *= 2
    with pytest.raises(CliffordError, match="factor 1800"):
        quartic_fierz_check(rep, "mu7-relation")


def test_mu7_relation_vanishing_mu4_squared_fails(monkeypatch):
    read_pairings_per_tuple(monkeypatch)
    rep = build_clifford(11)
    pairing = rep.pairing

    def zeroed(indices):
        m = pairing(indices)
        return 0 * m if len(indices) in (2, 5) else m

    rep.pairing = zeroed
    bad = quartic_fierz_check(rep, "mu7-relation")
    assert not bad.ok
    assert bad.details == "mu4^2 tensor vanishes at every quadruple"


MU7_TENSOR_MEMORY_SCRIPT = """
import tracemalloc

from cealg.clifford import build_clifford, quartic_fierz_check

rep = build_clifford(11)
tracemalloc.start()
report = quartic_fierz_check(rep, "mu7-relation")
peak = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
print(report.pinned["c"], report.stats["quadruples"], peak)
"""


def test_mu7_relation_tensor_path_memory():
    """The tensor path of d mu7 = 15 mu4^2 keeps its tracemalloc peak, the
    pairing table included, at most 1.78 MiB: 1.62 MiB measured plus 10 %.
    Keying each entry once, by its sorted index tuple, replaced the six
    slot pairings of `_outer` rows, which peaked at 3.06 MiB; sorting one
    residual per quadruple had replaced two symmetrised tensors and their
    `np.unique` inverse, which peaked at 7.62 MiB.  Run in a fresh
    interpreter, so that the figure repeats exactly."""
    c, quadruples, peak = fresh_run(MU7_TENSOR_MEMORY_SCRIPT).split()
    assert (c, int(quadruples)) == ("15/1", 330)
    assert int(peak) <= 1.78 * 2 ** 20, f"peak {int(peak) / 2 ** 20:.2f} MiB"


def _orbit_size(m):
    """The number of distinct orderings of the index tuple m."""
    return math.factorial(len(m)) // math.prod(
        math.factorial(k) for k in Counter(m).values())


def _index_tuples(keys, n):
    """C-order offsets of an n^4 tensor as index tuples (i, j, k, l)."""
    return [tuple(int(k) // n ** (3 - s) % n for s in range(4)) for k in keys]


@st.composite
def pairing_terms(draw, signs=(1, -1, None)):
    """A table of random integer n x n matrices, each symmetric (sign 1),
    antisymmetric (-1) or neither (None) as `signs` allows, some of them
    zero and most with ragged nonzero counts, and (x, y, scale) terms over
    it."""
    n = draw(st.integers(1, 5))
    entries = st.one_of(st.just(0), st.integers(-4, 4))
    mats = []
    for _ in range(draw(st.integers(1, 4))):
        m = draw(arrays(np.int64, (n, n), elements=entries))
        sign = draw(st.sampled_from(signs))
        if sign is not None:
            upper = np.triu(m, 1)
            m = upper + sign * upper.T + (sign > 0) * np.diag(np.diag(m))
        mats.append(m)
    table = {(k,): _coo(m) for k, m in enumerate(mats)}
    terms = draw(st.lists(st.tuples(st.integers(0, len(mats) - 1),
                                    st.integers(0, len(mats) - 1),
                                    st.integers(-5, 5)),
                          min_size=1, max_size=5))
    return n, table, terms


@given(pairing_terms(signs=(1,)))
@settings(max_examples=200, deadline=None)
def test_one_key_path_matches_six_pairings(drawn):
    """For symmetric factors the one-key sum has the six-pairing sum's
    support on sorted keys, and at each sorted key m, 6 one = |orbit(m)| six,
    since the six pairings read 6 Sym(T)_m and the one key
    |orbit(m)| Sym(T)_m."""
    n, table, terms = drawn
    pairs = _sorted_pairs(table)
    one = _sorted_key_sym(
        pairs, [(pairs.index[x,], pairs.index[y,], s) for x, y, s in terms], n)
    six = _pair_sym(_rows([(table[x,], table[y,], s) for x, y, s in terms]), n)
    assert one.dtype == np.int64
    tuples = _index_tuples(six[0], n)
    on_sorted = np.array([list(t) == sorted(t) for t in tuples], dtype=bool)
    assert np.array_equal(one[0], six[0][on_sorted])
    orbits = np.array([_orbit_size(t) for t in _index_tuples(one[0], n)],
                      dtype=np.int64)
    assert np.array_equal(6 * one[1], orbits * six[1][on_sorted])
    # the six-pairing tensor is symmetric, so its support is the orbits of
    # the sorted keys
    assert {tuple(sorted(t)) for t in tuples} == set(
        _index_tuples(one[0], n))


def _dense_sym24(t):
    """The sum of a dense n^4 tensor over the 24 orders of its axes."""
    return sum(t.transpose(perm) for perm in itertools.permutations(range(4)))


def _dense_of_coo(coo, n):
    i, j, v = coo
    m = np.zeros((n, n), dtype=np.int64)
    m[i, j] = v
    return m


def _one_key_reference(table, terms, n):
    """|orbit(m)| Sym(T)_m at each sorted index tuple m where it is
    nonzero, for T = sum scale x (x) y over the dense matrices of `table`
    and Sym the 24-permutation symmetrisation, in `_sorted_key_sym`'s
    layout: C-order keys, then values."""
    t = sum(s * _dense_outer(_dense_of_coo(table[x,], n),
                             _dense_of_coo(table[y,], n))
            for x, y, s in terms)
    sym24 = _dense_sym24(t)
    out = []
    for m in itertools.combinations_with_replacement(range(n), 4):
        v, rest = divmod(_orbit_size(m) * int(sym24[m]), 24)
        assert rest == 0
        if v:
            out.append((np.ravel_multi_index(m, (n,) * 4), v))
    return np.array(out, dtype=np.int64).reshape(-1, 2).T


def _one_key(table, terms, n):
    pairs = _sorted_pairs(table)
    return _sorted_key_sym(
        pairs, [(pairs.index[x,], pairs.index[y,], s) for x, y, s in terms], n)


@given(pairing_terms())
@settings(max_examples=200, deadline=None)
def test_sorted_key_sym_matches_the_dense_symmetrisation(drawn):
    """For factors of any symmetry, the one-key sum at each sorted key m is
    |orbit(m)| times the dense 24-permutation symmetrisation, Sym(T)_m,
    and it has no other keys."""
    n, table, terms = drawn
    one = _one_key(table, terms, n)
    assert one.dtype == np.int64
    assert np.array_equal(one, _one_key_reference(table, terms, n))


@pytest.mark.parametrize("m", [
    [[0, 1], [-1, 0]],                   # antisymmetric
    [[0, 1], [0, 0]],                    # one entry without its mirror
    [[1, 2], [3, 0]],                    # both mirrors, unequal values
    [[0, 1, 0], [0, 0, 0], [0, 1, 0]],   # two equal entries, not mirrors
], ids=["antisymmetric", "unpaired", "unequal", "not-mirrored"])
def test_sorted_key_sym_keys_a_non_symmetric_matrix(m):
    """Non-symmetric matrices of each kind match the dense symmetrisation
    when keyed, beside and against the identity; an antisymmetric factor
    contributes nothing."""
    m = np.array(m, dtype=np.int64)
    n = len(m)
    table = {(0,): _coo(np.eye(n, dtype=np.int64)), (1,): _coo(m)}
    terms = [(1, 1, 1), (0, 1, 2), (1, 0, -3), (0, 0, 1)]
    one = _one_key(table, terms, n)
    assert np.array_equal(one, _one_key_reference(table, terms, n))
    if np.array_equal(m, -m.T):
        assert np.array_equal(one, _one_key(table, terms[3:], n))


def _path_calls(monkeypatch):
    """Record the arguments of every `_pair_sym` and `_sorted_key_sym`
    call, by path."""
    calls = {"six": [], "one": []}
    for name, path in (("_pair_sym", "six"), ("_sorted_key_sym", "one")):
        real = getattr(clifford, name)
        monkeypatch.setattr(
            clifford, name,
            lambda *a, real=real, path=path: calls[path].append(a) or real(*a))
    return calls


def test_a_non_symmetric_pairing_takes_the_one_key_route(monkeypatch):
    """There is one route, whatever the pairings' symmetry: unperturbed
    mu4-closure keys each entry once, one asymmetric entry in
    C Gamma^{0 1} fails the first prefix on the same route, and p = 3
    (antisymmetric) is refused before any sum.  `_pair_sym` is never
    called."""
    calls = _path_calls(monkeypatch)
    assert quartic_fierz_check(build_clifford(11), "mu4-closure", 2).ok
    assert (len(calls["one"]), len(calls["six"])) == (11, 0)

    calls["one"].clear()
    rep = build_clifford(11)
    pairing = rep.pairing

    def skewed(indices):
        m = pairing(indices)
        if tuple(indices) == (0, 1):
            m[0, 1] += 1
        return m

    rep.pairing = skewed
    read_pairings_per_tuple(monkeypatch)
    bad = quartic_fierz_check(rep, "mu4-closure", 2)
    assert (bad.ok, bad.witness) == (False, "(0,)")
    assert (len(calls["one"]), len(calls["six"])) == (1, 0)

    calls["one"].clear()
    with pytest.raises(CliffordError, match="antisymmetric"):
        quartic_fierz_check(build_clifford(11), "mu4-closure", p=3)
    assert (len(calls["one"]), len(calls["six"])) == (0, 0)


SIX_PAIRING_CALLS_SCRIPT = """
from cealg import clifford
from cealg.reporting import run_task

calls = dict.fromkeys(["_outer", "_pair_sym", "_sorted_key_sym"], 0)
for name in calls:
    real = getattr(clifford, name)
    setattr(clifford, name, lambda *a, real=real, name=name: (
        calls.__setitem__(name, calls[name] + 1) or real(*a)))
for task in ("mu3.closure", "mu4.closure", "m5.relation", "clifford.check"):
    print(run_task(task).verdict)
print(*calls.values())
"""


def test_tasks_never_call_the_six_pairing_reference():
    """The tasks that run the tensor path (`mu3.closure`, `mu4.closure`,
    `m5.relation`) and `clifford.check` make no call of `_outer` or
    `_pair_sym`, which stay only as the tests' reference: the one-key path
    takes 1 + 11 + 332 calls.  Run in a fresh interpreter, so that no
    cached report hides a call."""
    lines = fresh_run(SIX_PAIRING_CALLS_SCRIPT).split()
    assert lines == ["pass"] * 4 + ["0", "0", "344"]


@pytest.mark.parametrize("d", [3, 11])
def test_pairing_walk_matches_pairing(d):
    """Every strictly increasing tuple of length at most 5, once, each
    length in `itertools.combinations` order, with C Gamma^A as
    `rep.pairing` computes it."""
    rep = build_clifford(d)
    walked = list(pairing_walk(rep, 5))
    for p in range(6):
        assert ([idx for idx, _ in walked if len(idx) == p]
                == list(itertools.combinations(range(d), p)))
    assert all(np.array_equal(m, rep.pairing(idx)) for idx, m in walked)


def _one_column_doubled(d, gamma):
    """The rep with a second nonzero entry in column 0 of one gamma, which
    is then no signed permutation."""
    rep = build_clifford(d)
    row = np.flatnonzero(rep.gammas[gamma][:, 0] == 0)[0]
    rep.gammas[gamma][row, 0] = 1
    return rep


@pytest.mark.parametrize("rep, gathered", [
    (build_clifford(3), 3), (build_clifford(11), 11),
    (_one_entry_flipped(3, 1, 0), 3), (_one_entry_flipped(11, 4, 7), 11),
    (_one_entry_flipped(11, 0, 0), 11), (_one_entry_flipped(11, 10, 31), 11),
    (_one_column_doubled(3, 2), 2), (_one_column_doubled(11, 5), 10),
], ids=["d3", "d11", "d3-g1", "d11-g4", "d11-g0", "d11-g10", "d3-dense-g2",
        "d11-dense-g5"])
def test_gamma_gathers_match_matmul(rep, gathered):
    """C Gamma^A for every strictly increasing A with |A| <= 5, from
    `rep.pairing` and from `pairing_walk`, against the chain of int64
    matmuls from C: the built-in reps, reps with one gamma entry flipped
    in place after they were built, and reps with a gamma that is no signed
    permutation, whose products stay matmuls.  `gathered` gammas multiply
    by a column gather."""
    assert sum(g is not None for g in clifford._gathers(rep.gammas)) == (
        gathered)
    walked = list(pairing_walk(rep, 5))
    assert len(walked) == sum(math.comb(rep.d, p) for p in range(6))
    for idx, m in walked:
        want = rep.charge_conj
        for a in idx:
            want = want @ rep.gammas[a]
        assert np.array_equal(m, want)
        assert np.array_equal(rep.pairing(idx), want)


def test_tensor_path_imports_nothing_from_the_symbolic_kernel():
    """clifford.py takes only `Report` from `.dgca` and `GradedError` from
    `.graded`, and nothing from `.batched` or `.catalog`, so that the Fierz
    check stays independent of the symbolic expansions."""
    tree = ast.parse(Path(clifford.__file__).read_text())
    local = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            local.setdefault(node.module, set()).update(
                a.name for a in node.names)
        elif isinstance(node, ast.Import):
            assert all(not a.name.startswith("cealg") for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert not (node.module or "").startswith("cealg")
    assert local == {"dgca": {"Report"}, "graded": {"GradedError"}}
