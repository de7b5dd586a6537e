"""Exact real spinor representations and their bilinear pairings.

Gamma matrices are built from signed-permutation seeds, so every matrix in
sight has integer entries and products stay exact.  The D=11 Majorana
representation is assembled from the nine symmetric 16x16 anticommuting
matrices of the octonionic construction: left multiplications L_i on the
octonions (via Cayley-Dickson doubling) packed into off-diagonal blocks,
plus a diagonal involution.

The representation checks are integer matrix identities.  The quartic
(Fierz) checks contract four spinor indices exactly, as sparse (COO) int64
tensors built from the nonzeros of the pairing matrices and summed by one
sort of (key, value) words, under one int64 overflow guard per pairing
table.  Each product entry is keyed once, by its sorted index tuple
(`_sorted_key_sym`), which is the contraction against four commuting
spinors for pairings of any symmetry.  d mu7 = c mu4^2 fixes c at the
first quadruple of frame indices where mu4^2 is nonzero and decides it
and every later one by a single residual tensor, which must vanish.  The
checks share no code with the symbolic expansions and must agree with them
verdict-for-verdict.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .dgca import Report
from .graded import GradedError


class CliffordError(GradedError):
    pass


class Unsupported(CliffordError):
    pass


class BadIndices(CliffordError):
    pass


SIGMA1 = np.array([[0, 1], [1, 0]], dtype=np.int64)
SIGMA3 = np.array([[1, 0], [0, -1]], dtype=np.int64)
EPS = np.array([[0, 1], [-1, 0]], dtype=np.int64)  # real antisymmetric root of -1


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


def octonion_left_mults() -> list[np.ndarray]:
    """The eight 8x8 integer matrices of left multiplication by the octonion
    basis units: L_0 = Id, L_1..L_7 antisymmetric, L_i L_j^T + L_j L_i^T =
    2 delta_ij."""
    mats = []
    for i in range(8):
        ei = [0] * 8
        ei[i] = 1
        cols = []
        for j in range(8):
            ej = [0] * 8
            ej[j] = 1
            cols.append(_cayley_dickson(ei, ej))
        mats.append(np.array(cols, dtype=np.int64).T)
    return mats


def spin9_gammas() -> list[np.ndarray]:
    """Nine symmetric, mutually anticommuting 16x16 involutions."""
    out = []
    for L in octonion_left_mults():
        g = np.zeros((16, 16), dtype=np.int64)
        g[:8, 8:] = L
        g[8:, :8] = L.T
        out.append(g)
    diag = np.zeros((16, 16), dtype=np.int64)
    diag[:8, :8] = np.eye(8, dtype=np.int64)
    diag[8:, 8:] = -np.eye(8, dtype=np.int64)
    out.append(diag)
    return out


@dataclass
class PairingMatrix:
    """C Gamma^{a1...ap} for strictly increasing indices, with its symmetry."""

    indices: tuple[int, ...]
    matrix: np.ndarray
    symmetry: str  # "symmetric" | "antisymmetric" | "mixed"


class CliffordRep:
    """A real Clifford representation with its invariant bilinear pairing."""

    def __init__(self, d: int, signature: tuple[int, int],
                 gammas: list[np.ndarray], charge_conj: np.ndarray):
        self.d = d
        self.signature = signature
        self.n_spin = int(gammas[0].shape[0])
        self.gammas = [g.copy() for g in gammas]
        self.charge_conj = charge_conj.copy()
        t, s = signature
        self.eta = tuple([-1] * t + [1] * s)

    def pairing(self, indices) -> np.ndarray:
        """C Gamma^{a1} ... Gamma^{ap}: a new array, p products from C, each
        a column gather where the gamma allows it (`_gathers`)."""
        indices = tuple(indices)
        for a in indices:
            if not 0 <= a < self.d:
                raise BadIndices(f"index {a} out of range for d={self.d}")
        gammas = [self.gammas[a] for a in indices]
        out = self.charge_conj.copy()
        for gamma, gather in zip(gammas, _gathers(gammas)):
            out = _times(out, gamma, gather)
        return out

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "signature": list(self.signature),
            "n_spin": self.n_spin,
            "gammas": [g.tolist() for g in self.gammas],
            "charge_conj": self.charge_conj.tolist(),
        }


def _gathers(gammas: list) -> list:
    """Per gamma, (rows, values) when each of its columns has exactly one
    nonzero entry, at rows[j] with value values[j], else None.  Then
    M Gamma = M[:, rows] * values exactly, a column gather in place of a
    matmul: the built-in gammas are signed permutations.  Derived from the
    matrices as they are now, since a rep's gammas may be edited in place."""
    if not gammas:
        return []
    g = np.stack(gammas)
    rows = (g != 0).argmax(axis=1)
    values = np.take_along_axis(g, rows[:, None, :], axis=1)[:, 0, :]
    ok = (np.count_nonzero(g, axis=(1, 2)) == g.shape[2]) & values.all(axis=1)
    return [(r, v) if k else None for r, v, k in zip(rows, values, ok)]


def _times(m: np.ndarray, gamma: np.ndarray, gather) -> np.ndarray:
    """m @ gamma, as a column gather when `gather` (from `_gathers`) is
    given."""
    if gather is None:
        return m @ gamma
    rows, values = gather
    return m[:, rows] * values


def build_clifford(d: int, signature: tuple[int, int] | None = None
                   ) -> CliffordRep:
    """Fixed-basis real representations for the supported dimensions.

    d=3: the explicit 2x2 set Gamma^0 = eps, Gamma^1 = sigma1,
    Gamma^2 = sigma3 with C = Gamma^0.  d=11: the 32x32 Majorana set
    Gamma^0 = eps (x) 1, Gamma^i = sigma1 (x) gamma9_i, Gamma^10 =
    sigma3 (x) 1, with C = Gamma^0.  Metric is mostly plus.
    """
    if d == 3:
        if signature not in (None, (1, 2)):
            raise Unsupported(f"signature {signature} unsupported for d=3")
        gammas = [EPS, SIGMA1, SIGMA3]
        return CliffordRep(3, (1, 2), gammas, EPS)
    if d == 11:
        if signature not in (None, (1, 10)):
            raise Unsupported(f"signature {signature} unsupported for d=11")
        one16 = np.eye(16, dtype=np.int64)
        gammas = [np.kron(EPS, one16)]
        for g9 in spin9_gammas():
            gammas.append(np.kron(SIGMA1, g9))
        gammas.append(np.kron(SIGMA3, one16))
        return CliffordRep(11, (1, 10), gammas, np.kron(EPS, one16))
    raise Unsupported(f"no built-in representation for d={d}")


def _symmetry_of(m: np.ndarray) -> str:
    if np.array_equal(m, m.T):
        return "symmetric"
    if np.array_equal(m, -m.T):
        return "antisymmetric"
    return "mixed"


def antisym_gamma(rep: CliffordRep, indices) -> PairingMatrix:
    """C Gamma^{a1...ap} for strictly increasing indices.

    For distinct indices the normalized antisymmetrization equals the
    ordered product, so that is what gets computed.
    """
    indices = tuple(indices)
    if any(not 0 <= a < rep.d for a in indices):
        raise BadIndices(f"indices {indices} out of range")
    if any(a >= b for a, b in zip(indices, indices[1:])):
        raise BadIndices(f"indices {indices} not strictly increasing")
    m = rep.pairing(indices)
    return PairingMatrix(indices, m, _symmetry_of(m))


def pairing_walk(rep: CliffordRep, max_rank: int):
    """Yield (A, C Gamma^A) for every strictly increasing A of length at
    most max_rank, depth first in lexicographic order, so that the tuples of
    one length come in `itertools.combinations` order.  Each product is one
    product from its parent's, and a parent's array is reused for its
    children, so the yielded arrays must not be modified.  The products
    are column gathers where the gammas allow it (`_gathers`, taken when
    the walk starts)."""
    gathers = _gathers(rep.gammas)

    def walk(indices, m):
        yield indices, m
        if len(indices) < max_rank:
            for a in range(indices[-1] + 1 if indices else 0, rep.d):
                yield from walk(indices + (a,),
                                _times(m, rep.gammas[a], gathers[a]))
    return walk((), rep.charge_conj)


# expected symmetry of C Gamma^(p) in d=11, from C^T = -C and
# (C Gamma^a)^T = C Gamma^a: sign (-1)^(p+1) * (-1)^(p(p-1)/2)
_D11_SYMMETRY = {0: "antisymmetric", 1: "symmetric", 2: "symmetric",
                 3: "antisymmetric", 4: "antisymmetric", 5: "symmetric"}


def check_clifford(rep: CliffordRep, task_id: str = "clifford.check") -> Report:
    """Validate the representation: anticommutators and pairing symmetries
    for p <= 5.  [Gamma^a, Gamma^b] = 2 Gamma^{ab} needs no check of its own:
    Gamma^{ab} is the ordered product Gamma^a Gamma^b, so for a != b it holds
    exactly when {Gamma^a, Gamma^b} = 0, and for a = b both sides vanish."""
    ident = np.eye(rep.n_spin, dtype=np.int64)
    for a in range(rep.d):
        for b in range(a, rep.d):
            anti = rep.gammas[a] @ rep.gammas[b] + rep.gammas[b] @ rep.gammas[a]
            want = 2 * (rep.eta[a] if a == b else 0) * ident
            if not np.array_equal(anti, want):
                return Report(task_id, "fail",
                              details=f"anticommutator fails on pair ({a},{b})",
                              witness=f"({a},{b})")
    if _symmetry_of(rep.charge_conj) != "antisymmetric":
        return Report(task_id, "fail", details="C is not antisymmetric")
    flags: dict[int, set[str]] = {p: set() for p in range(min(5, rep.d) + 1)}
    for idx, m in pairing_walk(rep, 5):
        flags[len(idx)].add(_symmetry_of(m))
    for p, seen in flags.items():
        if len(seen) != 1 or "mixed" in seen:
            return Report(task_id, "fail",
                          details=f"inconsistent pairing symmetry at p={p}: {seen}")
    if rep.d == 11:
        for p, want in _D11_SYMMETRY.items():
            if flags[p] != {want}:
                return Report(
                    task_id, "fail",
                    details=f"pairing symmetry at p={p} is {flags[p]}, expected {want}")
    flag_str = {p: next(iter(s)) for p, s in flags.items()}
    return Report(
        task_id, "pass",
        details="anticommutators, C antisymmetric and pairing symmetries "
                "for p <= 5 verified",
        stats={"d": rep.d, "n_spin": rep.n_spin},
        pinned={"d": rep.d, "n_spin": rep.n_spin,
                "pairing_symmetry": {str(p): f for p, f in flag_str.items()}},
    )


# The six pairings of four spinor slots, as axis orders p: the entry at
# (i0, i1, i2, i3) is added at (i_p0, i_p1, i_p2, i_p3), as if the axes of
# the dense tensor were permuted to the order p.  Used by `_pair_sym`, the
# reference the one-key path is tested against, not by the checks.
_SLOT_PERMS = ((0, 1, 2, 3),   # X_{ab} Y_{cd}
               (2, 3, 0, 1),   # X_{cd} Y_{ab}
               (0, 2, 1, 3),   # X_{ac} Y_{bd}
               (2, 0, 3, 1),   # X_{bd} Y_{ac}
               (0, 2, 3, 1),   # X_{ad} Y_{bc}
               (2, 0, 1, 3))   # X_{bc} Y_{ad}


def _coo(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nonzeros of a matrix as (rows, columns, values)."""
    i, j = np.nonzero(m)
    return i, j, m[i, j]


def _outer(x, y, scale: int = 1) -> np.ndarray:
    """scale * x (x) y in COO form, for x and y given as `_coo` triples:
    int64 rows (i, j, k, l, value), one for each pair of nonzeros x_ij,
    y_kl.  For the signed-permutation pairings of d=11 that is 32 * 32 rows
    instead of 32^4 dense entries.

    With `_pair_sym` this is the six-pairing reference for symmetric
    factors, which the tests hold the dense tensor and `_sorted_key_sym`
    to; the checks do not call it.  The two stay here, beside the path they
    check, and the benchmark's tracer wraps both by name."""
    (i, j, xv), (k, l, yv) = x, y
    out = np.empty((len(i), len(k), 5), dtype=np.int64)
    out[..., 0] = i[:, None]
    out[..., 1] = j[:, None]
    out[..., 2] = k
    out[..., 3] = l
    out[..., 4] = np.multiply.outer(scale * xv, yv)
    return out.reshape(-1, 5)


def _word_layout(val: np.ndarray, n: int) -> tuple[type, int, int]:
    """How `_key_sums` packs `val` under keys of an n^4 tensor: the word
    dtype (int32 when key and value fit in 31 bits, else int64), the shift
    lo that makes every value nonnegative, and the bits the shifted values
    take."""
    lo = int(val.min(initial=0))
    bits = (int(val.max(initial=0)) - lo).bit_length()
    dtype = np.int32 if (n ** 4 - 1).bit_length() + bits < 32 else np.int64
    return dtype, lo, bits


def _key_sums(words: np.ndarray, val: np.ndarray, lo: int, bits: int
              ) -> np.ndarray:
    """Sum `val` by key, exactly: `words` holds the keys (overwritten), in
    the layout `_word_layout` chose for `val`, and `val` broadcasts to it.

    Each value, shifted to be nonnegative, is packed into the low bits of
    the word under its key.  One sort of those words brings equal keys
    together and `np.add.reduceat` sums each run in int64.  Returns a
    (2, m) int64 array: the sorted keys whose sum is nonzero, then the sums.
    """
    words <<= bits
    words += (val - lo).astype(words.dtype)
    words = words.ravel()
    words.sort()
    vals = words & ((1 << bits) - 1)
    vals += lo
    words >>= bits  # the keys
    starts = np.empty(len(words), dtype=bool)
    starts[:1] = True
    np.not_equal(words[1:], words[:-1], out=starts[1:])
    first = np.flatnonzero(starts)
    sums = np.add.reduceat(vals, first, dtype=np.int64)
    nonzero = sums != 0
    return np.stack([words[first[nonzero]], sums[nonzero]])


def _pair_sym(t: np.ndarray, n: int) -> np.ndarray:
    """Sum over the six pairings of four spinor slots, exactly.

    `t` holds COO rows (i, j, k, l, value) with indices below n; repeated
    positions add up.  Each position is keyed by its C-order offset
    ((i n + j) n + k) n + l in the dense n^4 tensor, under each of the six
    slot pairings, and `_key_sums` sums the 6 len(t) keyed values.  Returns
    a (2, m) int64 array: the sorted keys of the nonzero entries, then their
    values.  The caller bounds the values with `_guard_int64`, so that the
    words and the sums cannot overflow.

    For factors that are individually symmetric this equals 6x the full
    symmetrization, which is exactly the functional picking out coefficients
    of commuting-generator monomials.  For other factors it is not: an
    antisymmetric factor gives nonzero sums where the full symmetrization
    vanishes.  So this is a reference for symmetric tables only, against
    which the tests check `_sorted_key_sym`; the checks do not call it (see
    `_outer`).
    """
    val = t[:, 4]
    dtype, lo, bits = _word_layout(val, n)
    idx = t[:, :4].T.astype(dtype)
    words = np.empty((len(_SLOT_PERMS), len(t)), dtype=dtype)
    for row, perm in zip(words, _SLOT_PERMS):
        row[...] = idx[perm[0]]
        for slot in perm[1:]:
            row *= n
            row += idx[slot]
    return _key_sums(words, val, lo, bits)


@dataclass
class _SortedPairs:
    """A pairing table, read as sorted index pairs.

    `index` maps each index tuple A of the table to its row r; row r of
    `lo`, `hi` (int32) and `val` (int64) holds min(i, j), max(i, j) and the
    value of each nonzero (i, j) of C Gamma^A, padded with zero values to a
    common width.  Entries (i, j) and (j, i) keep a slot each, with their
    own values.
    """

    index: dict[tuple[int, ...], int]
    lo: np.ndarray
    hi: np.ndarray
    val: np.ndarray


# ordered index tuples that fall on one sorted key: at most 4! for four
# distinct indices
_ORBIT_MAX = 24


def _sorted_pairs(table) -> _SortedPairs:
    """The table's matrices (`_coo` triples) as `_SortedPairs`."""
    coos = list(table.values())
    sizes = np.array([len(v) for _, _, v in coos], dtype=np.int64)
    width = int(sizes.max(initial=0))
    filled = np.arange(width) < sizes[:, None]
    pairs = _SortedPairs({idx: r for r, idx in enumerate(table)},
                         np.zeros(filled.shape, dtype=np.int32),
                         np.zeros(filled.shape, dtype=np.int32),
                         np.zeros(filled.shape, dtype=np.int64))
    for out, of in ((pairs.lo, np.minimum), (pairs.hi, np.maximum)):
        out[filled] = np.concatenate([of(i, j) for i, j, _ in coos])
    pairs.val[filled] = np.concatenate([v for _, _, v in coos])
    return pairs


def _sorted_key_sym(pairs: _SortedPairs, terms, n: int) -> np.ndarray:
    """The symmetrised sum of outer products, one key per product entry.

    `terms` are (x, y, scale) with x and y rows of `pairs`.  Each pair of
    entries x_ij, y_kl adds scale x_ij y_kl at the C-order offset of the
    sorted tuple of (i, j, k, l): the two sorted pairs are merged by min and
    max, and `_key_sums` sums the keyed values.  Returns a (2, m) int64
    array: the sorted keys whose sum is nonzero, then the sums.  The caller
    bounds the values with `_guard_int64`.

    At a sorted key m the sum gathers every ordered tuple that sorts to m,
    so it is |orbit(m)| Sym(T)_m, where |orbit(m)| is the number of distinct
    orderings of m and Sym the full 24-permutation symmetrisation of
    T = sum scale x (x) y: the contraction against four commuting spinors,
    for factors of any symmetry.  The factor |orbit(m)| is fixed per key, so
    zero tests and the ratio of two tensors at one key, which fixes c, read
    Sym(T) itself.  For symmetric factors `_pair_sym` reads 6 Sym(T)_m at m
    and at each of its reorderings, from a sort 6 times longer.  Padding
    adds zero values only.
    """
    x, y, scale = (np.array(column, dtype=np.int64) for column in zip(*terms))
    val = (scale[:, None] * pairs.val[x])[:, :, None] * pairs.val[y][:, None]
    dtype, lo, bits = _word_layout(val, n)
    a, b = (m[x, :, None].astype(dtype) for m in (pairs.lo, pairs.hi))
    c, d = (m[y, None, :].astype(dtype) for m in (pairs.lo, pairs.hi))
    words = np.minimum(a, c)
    mid = np.maximum(a, c), np.minimum(b, d)
    for k in (np.minimum(*mid), np.maximum(*mid), np.maximum(b, d)):
        words *= n
        words += k
    return _key_sums(words, val, lo, bits)


def _guard_int64(values: np.ndarray, summands: int, factor: int, n: int
                 ) -> None:
    """Raise unless `_key_sums` is exact on keyed values that are `factor`
    times a product of two entries of `values`, with at most `summands` of
    them on one key: each sum stays below 2^62, and each value, shifted to
    be nonnegative, fits under the key of an n^4 tensor in one int64 word."""
    top = int(np.abs(values).max(initial=0))
    bound = top * top * factor
    if (bound * summands >= 1 << 62
            or (n ** 4 - 1).bit_length() + (2 * bound).bit_length() > 63):
        raise CliffordError(
            f"quartic tensors could overflow int64: max |entry| {top}, "
            f"{summands} summands, factor {factor}")


def _pairing_table(rep: CliffordRep, ranks) -> dict[tuple[int, ...], tuple]:
    """C Gamma^A as a `_coo` triple for every strictly increasing A of the
    given lengths."""
    return {idx: _coo(rep.pairing(idx)) for p in ranks
            for idx in itertools.combinations(range(rep.d), p)}


def _closure_terms(rep: CliffordRep, table, prefix, scale: int) -> list:
    """sum_b eta_bb (C Gamma^{prefix b}) (x) (C Gamma^b) over b not in the
    prefix, times scale, as (x, y, scale) terms, x and y what the table
    holds for the index tuples (a `_coo` triple or a `_SortedPairs` row):
    C Gamma^{prefix b} is read at the sorted indices, with the sign of
    moving b to the last slot, past the prefix indices above b."""
    return [(table[tuple(sorted(prefix + (b,)))], table[(b,)],
             scale * rep.eta[b] * (-1) ** sum(a > b for a in prefix))
            for b in range(rep.d) if b not in prefix]


def _mu7_terms(rep: CliffordRep, table, quad, d_scale: int = 1,
               q_scale: int = 1) -> tuple[list, list]:
    """Both sides of d mu7 = c mu4^2 at the quadruple a1 < a2 < a3 < a4, as
    (x, y, scale) terms over the table's entries, as in `_closure_terms`,
    whose sums over the slot pairings are
    D = 120 sym4[sum_b eta_bb (C Gamma^{a1..a4 b}) (x) (C Gamma^b)] and
    Q = 8 sym4[the three two-index splittings of mu4^2], times d_scale and
    q_scale."""
    a1, a2, a3, a4 = quad
    q_terms = [(table[a1, a2], table[a3, a4], 8 * q_scale),
               (table[a1, a3], table[a2, a4], -8 * q_scale),
               (table[a1, a4], table[a2, a3], 8 * q_scale)]
    return _closure_terms(rep, table, quad, 120 * d_scale), q_terms


def _antisymmetric(coo) -> bool:
    """Whether a `_coo` triple, row-major as `np.nonzero` lists it, is an
    antisymmetric matrix: its entries are those of minus its transpose,
    listed row-major."""
    i, j, v = coo
    t = np.lexsort((i, j))
    return (np.array_equal(i, j[t]) and np.array_equal(j, i[t])
            and np.array_equal(v, -v[t]))


def default_cocycle_p(d: int) -> int:
    """Bosonic index count of the dimension's fundamental brane cocycle."""
    return {3: 1, 11: 2}[d]


def quartic_fierz_check(rep: CliffordRep, family: str,
                        p_substitute: int | None = None) -> Report:
    """Exact sparse-tensor evaluation of the quartic spinor identities.

    Each identity is a sum of outer products of pairing matrices contracted
    against four commuting spinors.  It is evaluated as integer COO tensors
    summed by one packed sort and decided on every nonzero entry, never as
    a dense n^4 array: `_sorted_key_sym` keys each product entry once, by
    its sorted index tuple, whatever the symmetry of the pairings, and so
    decides every identity, witness and c.  Stats: `sym_keys`, the keys
    sorted.

    family "mu4-closure": for every (p-1)-tuple A of frame indices,
    sum_b eta_bb sym4[(C Gamma^{A b}) (x) (C Gamma^b)] must vanish; this is
    the closure of the degree-(p+2) cocycle, with the count of `prefixes` A
    decided.  A rank p whose every pairing is antisymmetric has no cocycle
    (the symbolic side raises ZeroCocycle), and raises CliffordError rather
    than pass on sums that vanish term by term.

    family "mu7-relation" (d=11): at each quadruple a1 < a2 < a3 < a4, the
    same contraction D for the 5-index pairing must be c times the
    contraction Q of the two-index splittings of mu4^2.
    Where Q vanishes before c is known, D must vanish too.  c = num/den is
    read off the first quadruple where Q is nonzero, by comparing D and Q
    at their smallest key; that quadruple and every later one is decided by
    one residual den D - num Q, which must vanish.  c is reported exactly,
    with the count of `quadruples` decided.  Each family reads its pairings
    from one `_pairing_table`, guarded once.
    p_substitute swaps in another pairing rank for "mu4-closure", as a
    negative control of the machinery; "mu7-relation" has no rank to swap
    and refuses it.  Raises CliffordError if p is not in 1..d or if the
    int64 arithmetic could overflow.
    """
    n = rep.n_spin
    stats = {"d": rep.d, "sym_keys": 0}

    def sym(terms) -> np.ndarray:
        stats["sym_keys"] += len(terms) * pairs.val.shape[1] ** 2
        return _sorted_key_sym(pairs, terms, n)

    if family == "mu4-closure":
        p = p_substitute if p_substitute is not None else default_cocycle_p(rep.d)
        if not 1 <= p <= rep.d:
            # p > d has no prefix with a free index b, so it would pass
            # without checking anything
            raise CliffordError(f"pairing rank p={p} outside 1..{rep.d}")
        stats.update(p=p, prefixes=0)
        table = _pairing_table(rep, {1, p})
        if all(_antisymmetric(table[idx])
               for idx in itertools.combinations(range(rep.d), p)):
            raise CliffordError(f"every pairing C Gamma^({p}) in d={rep.d} "
                                "is antisymmetric: no cocycle to close")
        pairs = _sorted_pairs(table)
        # the d - (p - 1) terms of one prefix
        _guard_int64(pairs.val, _ORBIT_MAX * (rep.d - p + 1), 1, n)
        for prefix in itertools.combinations(range(rep.d), p - 1):
            stats["prefixes"] += 1
            terms = _closure_terms(rep, pairs.index, prefix, 1)
            if terms and sym(terms).size:
                return Report(
                    "fierz." + family, "fail",
                    details=f"quartic identity fails at indices {prefix} (p={p})",
                    witness=str(prefix),
                    stats=stats,
                )
        return Report("fierz." + family, "pass",
                      details=f"quartic closure identity holds (p={p})",
                      stats=stats)

    if family == "mu7-relation":
        if p_substitute is not None:
            raise CliffordError("p_substitute applies to mu4-closure only")
        if rep.d == 3:
            # degenerate analogue: the target is zero, so this reduces to
            # the closure identity for mu3
            sub = quartic_fierz_check(rep, "mu4-closure")
            sub.task_id = "fierz.mu7-relation"
            sub.pinned["c"] = None
            return sub
        if rep.d != 11:
            raise Unsupported("mu7-relation needs the d=11 representation")
        pairs = _sorted_pairs(_pairing_table(rep, (1, 2, 5)))
        # the residual has the d - 4 terms of D and the 3 of Q
        summands = _ORBIT_MAX * (rep.d - 1)
        _guard_int64(pairs.val, summands, 120, n)
        stats["quadruples"] = 0
        c = None
        for quad in itertools.combinations(range(rep.d), 4):
            stats["quadruples"] += 1
            if c is None:
                d_tensor, q_tensor = map(sym, _mu7_terms(rep, pairs.index,
                                                         quad))
                if not q_tensor.size:
                    if d_tensor.size:
                        return Report("fierz.mu7-relation", "fail",
                                      details=f"no proportionality at {quad}",
                                      witness=str(quad), stats=stats)
                    continue
                # c from the first nonzero of Q in C order: its smallest key
                key = q_tensor[0, 0]
                at = np.searchsorted(d_tensor[0], key)
                hit = at < d_tensor.shape[1] and d_tensor[0, at] == key
                c = Fraction(int(d_tensor[1, at]) if hit else 0,
                             int(q_tensor[1, 0]))
                _guard_int64(pairs.val, summands,
                             120 * max(abs(c.numerator), c.denominator), n)
            d_terms, q_terms = _mu7_terms(rep, pairs.index, quad,
                                          c.denominator, -c.numerator)
            if sym(d_terms + q_terms).size:
                return Report("fierz.mu7-relation", "fail",
                              details=f"proportionality breaks at {quad}",
                              witness=str(quad), stats=stats)
        if c is None:
            return Report("fierz.mu7-relation", "fail",
                          details="mu4^2 tensor vanishes at every quadruple",
                          stats=stats)
        return Report("fierz.mu7-relation", "pass",
                      details=f"d mu7 = c mu4^2 with c = {c} (tensor path)",
                      stats=stats,
                      pinned={"c": f"{c.numerator}/{c.denominator}"})

    raise Unsupported(f"unknown fierz family {family!r}")
