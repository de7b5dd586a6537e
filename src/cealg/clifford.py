"""Exact real spinor representations and their bilinear pairings.

Gamma matrices are built from signed-permutation seeds, so every matrix in
sight has integer entries and products stay exact.  The D=11 Majorana
representation is assembled from the nine symmetric 16x16 anticommuting
matrices of the octonionic construction: left multiplications L_i on the
octonions (via Cayley-Dickson doubling) packed into off-diagonal blocks,
plus a diagonal involution.

The representation checks are integer matrix identities.  The quartic
(Fierz) checks contract four spinor indices exactly, as sparse (COO) int64
tensors built from the nonzeros of the pairing matrices and summed over the
six slot pairings, under an explicit int64 overflow guard.  They share no
code with the symbolic expansions and must agree with them
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

    def gamma_product(self, indices) -> np.ndarray:
        out = np.eye(self.n_spin, dtype=np.int64)
        for a in indices:
            if not 0 <= a < self.d:
                raise BadIndices(f"index {a} out of range for d={self.d}")
            out = out @ self.gammas[a]
        return out

    def pairing(self, indices) -> np.ndarray:
        return self.charge_conj @ self.gamma_product(indices)

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "signature": list(self.signature),
            "n_spin": self.n_spin,
            "gammas": [g.tolist() for g in self.gammas],
            "charge_conj": self.charge_conj.tolist(),
        }


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


# expected symmetry of C Gamma^(p) in d=11, from C^T = -C and
# (C Gamma^a)^T = C Gamma^a: sign (-1)^(p+1) * (-1)^(p(p-1)/2)
_D11_SYMMETRY = {0: "antisymmetric", 1: "symmetric", 2: "symmetric",
                 3: "antisymmetric", 4: "antisymmetric", 5: "symmetric"}


def check_clifford(rep: CliffordRep, task_id: str = "clifford.check") -> Report:
    """Validate the representation: anticommutators, pairing symmetries for
    p <= 5, and Gamma^{ab} = (1/2)[Gamma^a, Gamma^b]."""
    n = rep.n_spin
    ident = np.eye(n, dtype=np.int64)
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
    flags: dict[int, set[str]] = {}
    for p in range(0, 6):
        if p > rep.d:
            break
        seen = set()
        for idx in itertools.combinations(range(rep.d), p):
            seen.add(_symmetry_of(rep.pairing(idx)))
        flags[p] = seen
        if len(seen) != 1 or "mixed" in seen:
            return Report(task_id, "fail",
                          details=f"inconsistent pairing symmetry at p={p}: {seen}")
    if rep.d == 11:
        for p, want in _D11_SYMMETRY.items():
            if flags[p] != {want}:
                return Report(
                    task_id, "fail",
                    details=f"pairing symmetry at p={p} is {flags[p]}, expected {want}")
    for a in range(rep.d):
        for b in range(rep.d):
            comm = rep.gammas[a] @ rep.gammas[b] - rep.gammas[b] @ rep.gammas[a]
            gam_ab = rep.gamma_product((a, b)) if a != b else np.zeros_like(ident)
            if not np.array_equal(comm, 2 * gam_ab):
                return Report(task_id, "fail",
                              details=f"Gamma^{{ab}} != [Gamma,Gamma]/2 at ({a},{b})")
    flag_str = {p: next(iter(s)) for p, s in flags.items()}
    return Report(
        task_id, "pass",
        details="anticommutators, pairing symmetries and commutators verified",
        stats={"d": rep.d, "n_spin": rep.n_spin},
        pinned={"d": rep.d, "n_spin": rep.n_spin,
                "pairing_symmetry": {str(p): f for p, f in flag_str.items()}},
    )


# The six pairings of four spinor slots, as axis orders p: the entry at
# (i0, i1, i2, i3) is added at (i_p0, i_p1, i_p2, i_p3), as if the axes of
# the dense tensor were permuted to the order p.
_SLOT_PERMS = ((0, 1, 2, 3),   # X_{ab} Y_{cd}
               (2, 3, 0, 1),   # X_{cd} Y_{ab}
               (0, 2, 1, 3),   # X_{ac} Y_{bd}
               (2, 0, 3, 1),   # X_{bd} Y_{ac}
               (0, 2, 3, 1),   # X_{ad} Y_{bc}
               (2, 0, 1, 3))   # X_{bc} Y_{ad}


def _outer(x: np.ndarray, y: np.ndarray, scale: int = 1) -> np.ndarray:
    """scale * x (x) y in COO form: int64 rows (i, j, k, l, value), one for
    each pair of nonzeros x_ij, y_kl.  For the signed-permutation pairings
    of d=11 that is 32 * 32 rows instead of 32^4 dense entries."""
    i, j = np.nonzero(x)
    k, l = np.nonzero(y)
    out = np.empty((len(i), len(k), 5), dtype=np.int64)
    out[..., 0] = i[:, None]
    out[..., 1] = j[:, None]
    out[..., 2] = k
    out[..., 3] = l
    out[..., 4] = np.multiply.outer(scale * x[i, j], y[k, l])
    return out.reshape(-1, 5)


def _pair_sym(t: np.ndarray, n: int) -> np.ndarray:
    """Sum over the six pairings of four spinor slots, exactly.

    `t` holds COO rows (i, j, k, l, value) with indices below n; repeated
    positions add up.  Each position is keyed by its C-order offset
    ((i n + j) n + k) n + l in the dense n^4 tensor.  Returns a (2, m) int64
    array: the sorted keys of the nonzero entries, then their values.

    For factors that are individually symmetric this equals 6x the full
    symmetrization, which is exactly the functional picking out coefficients
    of commuting-generator monomials.
    """
    idx = t[:, :4]
    keys = np.concatenate([((idx[:, a] * n + idx[:, b]) * n + idx[:, c]) * n
                           + idx[:, d] for a, b, c, d in _SLOT_PERMS])
    keys, slot = np.unique(keys, return_inverse=True)
    sums = np.zeros(len(keys), dtype=np.int64)
    np.add.at(sums, slot, np.tile(t[:, 4], len(_SLOT_PERMS)))
    nonzero = sums != 0
    return np.stack([keys[nonzero], sums[nonzero]])


def _guard_int64(mats, summands: int, factor: int) -> None:
    """Raise unless `factor` times a sum of `summands` products of two
    entries of `mats` stays below 2^62, so that the int64 sums in
    `_pair_sym` and the cross-multiplied comparison are exact."""
    top = max(int(np.abs(m).max()) for m in mats)
    if top * top * summands * factor >= 1 << 62:
        raise CliffordError(
            f"quartic tensors could overflow int64: max |entry| {top}, "
            f"{summands} summands, factor {factor}")


def _pairing_table(rep: CliffordRep, ranks) -> dict[tuple[int, ...], np.ndarray]:
    """C Gamma^A for every strictly increasing A of the given lengths."""
    return {idx: rep.pairing(idx) for p in ranks
            for idx in itertools.combinations(range(rep.d), p)}


def _mu7_tensors(rep: CliffordRep, table, quad) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of d mu7 = c mu4^2 at the quadruple a1 < a2 < a3 < a4, as
    `_pair_sym` arrays: D = 120 sym4[sum_b eta_bb (C Gamma^{a1..a4 b}) (x)
    (C Gamma^b)] and Q = 8 sym4[the three two-index splittings of mu4^2]."""
    terms = []
    for b in range(rep.d):
        if b in quad:
            continue
        five = tuple(sorted(quad + (b,)))
        pos = five.index(b)
        # move b to the last slot of Gamma^{a1..a4 b}
        sgn = -1 if (len(five) - 1 - pos) & 1 else 1
        terms.append(_outer(table[five], table[(b,)], 120 * sgn * rep.eta[b]))
    a1, a2, a3, a4 = quad
    q_terms = [_outer(table[a1, a2], table[a3, a4], 8),
               _outer(table[a1, a3], table[a2, a4], -8),
               _outer(table[a1, a4], table[a2, a3], 8)]
    return (_pair_sym(np.concatenate(terms), rep.n_spin),
            _pair_sym(np.concatenate(q_terms), rep.n_spin))


def default_cocycle_p(d: int) -> int:
    """Bosonic index count of the dimension's fundamental brane cocycle."""
    return {3: 1, 11: 2}[d]


def quartic_fierz_check(rep: CliffordRep, family: str,
                        p_substitute: int | None = None) -> Report:
    """Exact sparse-tensor evaluation of the quartic spinor identities.

    Each identity is a sum of outer products of pairing matrices contracted
    against four commuting spinors.  It is evaluated as integer COO tensors
    (`_outer`), symmetrized over the six slot pairings (`_pair_sym`) and
    compared on every nonzero entry, never as a dense n^4 array.

    family "mu4-closure": for every (p-1)-tuple A of frame indices,
    sum_b eta_bb sym4[(C Gamma^{A b}) (x) (C Gamma^b)] must vanish; this is
    the closure of the degree-(p+2) cocycle.  family "mu7-relation" (d=11):
    the same contraction for the 5-index pairing against the two-index
    splittings of mu4^2 determines the proportionality constant, reported
    exactly.  p_substitute swaps in another pairing rank as a negative
    control of the machinery.  Raises CliffordError if the int64 sums could
    overflow.
    """
    n = rep.n_spin
    if family == "mu4-closure":
        p = p_substitute if p_substitute is not None else default_cocycle_p(rep.d)
        cg1 = [rep.pairing((b,)) for b in range(rep.d)]
        for prefix in itertools.combinations(range(rep.d), p - 1):
            rest = [b for b in range(rep.d) if b not in prefix]
            bigs = [rep.pairing(prefix + (b,)) for b in rest]
            _guard_int64(bigs + cg1, 6 * len(rest), 1)
            terms = [_outer(big, cg1[b], rep.eta[b]) for big, b in zip(bigs, rest)]
            if terms and _pair_sym(np.concatenate(terms), n).size:
                return Report(
                    "fierz." + family, "fail",
                    details=f"quartic identity fails at indices {prefix} (p={p})",
                    witness=str(prefix),
                    stats={"p": p},
                )
        return Report("fierz." + family, "pass",
                      details=f"quartic closure identity holds (p={p})",
                      stats={"p": p, "d": rep.d})

    if family == "mu7-relation":
        if rep.d == 3:
            # degenerate analogue: the target is zero, so this reduces to
            # the closure identity for mu3
            sub = quartic_fierz_check(rep, "mu4-closure")
            sub.task_id = "fierz.mu7-relation"
            sub.pinned["c"] = None
            return sub
        if rep.d != 11:
            raise Unsupported("mu7-relation needs the d=11 representation")
        table = _pairing_table(rep, (1, 2, 5))
        summands = 6 * (rep.d - 4)  # the larger side, D, at scale 120
        _guard_int64(table.values(), summands, 120)
        num = None
        den = None
        for quad in itertools.combinations(range(rep.d), 4):
            d_tensor, q_tensor = _mu7_tensors(rep, table, quad)
            if not q_tensor.size:
                if d_tensor.size:
                    return Report("fierz.mu7-relation", "fail",
                                  details=f"no proportionality at {quad}",
                                  witness=str(quad))
                continue
            if num is None:
                # c from the first nonzero of Q in C order: its smallest key
                key = q_tensor[0, 0]
                at = np.searchsorted(d_tensor[0], key)
                hit = at < d_tensor.shape[1] and d_tensor[0, at] == key
                c = Fraction(int(d_tensor[1, at]) if hit else 0, int(q_tensor[1, 0]))
                num, den = c.numerator, c.denominator
                _guard_int64(table.values(), summands, 120 * max(abs(num), den))
            # den * D == num * Q at every entry; for num = 0, D must vanish
            if num:
                same = (np.array_equal(d_tensor[0], q_tensor[0])
                        and np.array_equal(den * d_tensor[1], num * q_tensor[1]))
            else:
                same = not d_tensor.size
            if not same:
                return Report("fierz.mu7-relation", "fail",
                              details=f"proportionality breaks at {quad}",
                              witness=str(quad))
        if num is None:
            return Report("fierz.mu7-relation", "fail",
                          details="mu4^2 tensor vanishes at every quadruple")
        c = Fraction(num, den)
        return Report("fierz.mu7-relation", "pass",
                      details=f"d mu7 = c mu4^2 with c = {c} (tensor path)",
                      stats={"d": rep.d},
                      pinned={"c": f"{c.numerator}/{c.denominator}"})

    raise Unsupported(f"unknown fierz family {family!r}")
