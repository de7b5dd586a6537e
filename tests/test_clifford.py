"""Gamma matrix construction, pairing symmetries, quartic identities."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cealg import (
    BadIndices,
    Unsupported,
    antisym_gamma,
    build_clifford,
    check_clifford,
    quartic_fierz_check,
)
from cealg.clifford import (
    CliffordError,
    _mu7_tensors,
    _outer,
    _pair_sym,
    _pairing_table,
    octonion_left_mults,
    spin9_gammas,
)


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
    with pytest.raises(Unsupported):
        build_clifford(11, (11, 0))


def test_pairing_symmetry_flags_d11():
    rep = build_clifford(11)
    assert antisym_gamma(rep, (3,)).symmetry == "symmetric"
    assert antisym_gamma(rep, (0, 7)).symmetry == "symmetric"
    assert antisym_gamma(rep, (1, 2, 3, 4, 5)).symmetry == "symmetric"
    assert antisym_gamma(rep, (0, 1, 2)).symmetry == "antisymmetric"
    assert antisym_gamma(rep, (2, 4, 6, 8)).symmetry == "antisymmetric"
    assert antisym_gamma(rep, ()).symmetry == "antisymmetric"  # C itself


def test_antisym_gamma_index_validation():
    rep = build_clifford(11)
    with pytest.raises(BadIndices):
        antisym_gamma(rep, (3, 1))
    with pytest.raises(BadIndices):
        antisym_gamma(rep, (0, 11))


def test_check_clifford_negative_control():
    rep = build_clifford(11)
    rep.gammas[4][7, :] = -rep.gammas[4][7, :]
    bad = check_clifford(rep)
    assert not bad.ok
    assert "anticommutator" in bad.details


def test_quartic_closure_identities():
    assert quartic_fierz_check(build_clifford(3), "mu4-closure").ok
    assert quartic_fierz_check(build_clifford(11), "mu4-closure").ok


def test_quartic_negative_controls():
    rep = build_clifford(11)
    assert not quartic_fierz_check(rep, "mu4-closure", p_substitute=3).ok
    assert not quartic_fierz_check(rep, "mu4-closure", p_substitute=1).ok


def test_mu7_relation_constant():
    rep = quartic_fierz_check(build_clifford(11), "mu7-relation")
    assert rep.ok
    assert rep.pinned["c"] == "15/1"


def test_mu7_relation_d3_degenerate():
    rep = quartic_fierz_check(build_clifford(3), "mu7-relation")
    assert rep.ok
    assert rep.pinned["c"] is None


def test_gamma_json_export():
    rep = build_clifford(3)
    data = rep.to_json()
    assert data["gammas"][0] == [[0, 1], [-1, 0]]
    assert data["n_spin"] == 2


small_matrices = arrays(np.int64, (4, 4), elements=st.integers(-3, 3))


@given(small_matrices, small_matrices, st.integers(-5, 5))
@settings(max_examples=200, deadline=None)
def test_sparse_pair_sym_matches_dense(x, y, scale):
    # neither symmetric nor a signed permutation: no structure assumed
    for m in (x, y):
        assume(not np.array_equal(m, m.T))
        assume(not np.array_equal(np.abs(m) @ np.abs(m).T, np.eye(4)))
    sparse = _pair_sym(_outer(x, y, scale), 4)
    dense = _dense_nonzeros(_dense_pair_sym(scale * _dense_outer(x, y)))
    assert sparse.dtype == np.int64
    assert np.array_equal(sparse, dense)


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
def test_mu7_relation_negative_control(five, witness):
    rep = build_clifford(11)
    pairing = rep.pairing

    def flipped(indices):
        m = pairing(indices)
        return -m if tuple(indices) == five else m

    rep.pairing = flipped
    bad = quartic_fierz_check(rep, "mu7-relation")
    assert not bad.ok
    assert bad.witness == witness


def test_mu7_relation_refuses_int64_overflow():
    rep = build_clifford(11)
    rep.charge_conj *= 2 ** 31
    with pytest.raises(CliffordError):
        quartic_fierz_check(rep, "mu7-relation")


def test_mu7_relation_vanishing_mu4_squared_fails():
    rep = build_clifford(11)
    pairing = rep.pairing

    def zeroed(indices):
        m = pairing(indices)
        return 0 * m if len(indices) in (2, 5) else m

    rep.pairing = zeroed
    bad = quartic_fierz_check(rep, "mu7-relation")
    assert not bad.ok
    assert bad.details == "mu4^2 tensor vanishes at every quadruple"
