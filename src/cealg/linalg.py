"""Sparse exact rational linear algebra over graded monomial bases.

`differential_matrix` is the one place where a matrix of d is built, over
one canonical basis, its domain's; its rows are the monomials d reaches.
It hands both back on the matrix, so `cohomology_dims` and `is_coboundary`
enumerate no basis of their own.
Rank and linear solving convert the matrix's entries to integer rows once
and run integer (division-free) row elimination with gcd normalization.

Weight grading.  `generator_weights` derives from the d-images a
nonnegative integer weight per generator that d preserves: a closed
generator weighs 1, any other weighs what its d-image weighs (on
super-Minkowski psi weighs 1 and e weighs 2, the spinor count).  So d v = x
is solvable exactly when it is solvable inside x's weight component, and
`is_coboundary` builds only that component.  When the propagation does not
reach every generator (an image reaches back to its own generator, as in
d omega = omega omega), when some d-image is not homogeneous for the
propagated weights, or when x itself is not weight-homogeneous, the
grading is the trivial one (every weight 0), whose one component is the
full basis.  Bases are counted and enumerated by one partition DP over
(degree, weight); the full basis is the trivial-grading case of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm

from .dgca import DgcaError, NotClosed, SemifreeDGCA, apply_d, apply_d_all
from .graded import Element, GradedError, Monomial

DEFAULT_CAP = 2_000_000


class Capped(GradedError):
    """Raised when a basis would exceed the configured monomial cap."""

    def __init__(self, msg, estimate=None):
        super().__init__(msg)
        self.estimate = estimate


@dataclass
class GradedBasis:
    degree: int
    monomials: tuple[Monomial, ...]

    def __post_init__(self):
        self.index = {m: i for i, m in enumerate(self.monomials)}

    def __len__(self) -> int:
        return len(self.monomials)


def _weight(mono: Monomial, weights: tuple[int, ...]) -> int:
    return sum(weights[g] * e for g, e in mono)


def generator_weights(A: SemifreeDGCA) -> tuple[int, ...]:
    """One nonnegative weight per generator, preserved by d; all 0 (the
    trivial grading) when the d-images admit no such grading by propagation.

    Weights propagate from the closed generators (weight 1) through the
    d-images; then every d-image must be homogeneous for them."""
    images = A.d_images
    trivial = (0,) * len(images)
    w: list[int] = [-1] * len(images)
    pending = list(range(len(images)))
    while pending:
        waiting = []
        for g in pending:
            terms = images[g].terms
            if any(w[h] < 0 for m in terms for h, _ in m):
                waiting.append(g)
            else:
                w[g] = max((_weight(m, w) for m in terms), default=1)
        if len(waiting) == len(pending):
            return trivial  # these images reach back to their own generators
        pending = waiting
    weights = tuple(w)
    for g, img in enumerate(images):
        if any(_weight(m, weights) != weights[g] for m in img.terms):
            return trivial  # d does not preserve the propagated weights
    return weights


def _suffix_counts(A: SemifreeDGCA, weights: tuple[int, ...], degree: int,
                   weight: int) -> list[list[list[int]]] | None:
    """tables[i][d][w] counts the monomials in generators i.. of degree d
    and weight w, for d <= `degree` and w <= `weight`; None when some count
    is infinite.

    Partition-function DP: a square-zero generator of degree k and weight u
    contributes (1 + x^k y^u), any other 1/(1 - x^k y^u), which is infinite
    for k = u = 0.
    """
    sig = A.sig
    table = [[0] * (weight + 1) for _ in range(degree + 1)]
    table[0][0] = 1
    tables = [table]
    for gid in range(len(sig) - 1, -1, -1):
        k, u, sqz = sig.degrees[gid], weights[gid], sig.sqz[gid]
        if k == 0 and u == 0 and not sqz:
            return None
        new = [row[:] for row in table]
        src = table if sqz else new
        for d in range(k, degree + 1):
            row, src_row = new[d], src[d - k]
            for w in range(u, weight + 1):
                row[w] += src_row[w - u]
        table = new
        tables.append(table)
    tables.reverse()
    return tables


def count_monomials(A: SemifreeDGCA, degree: int) -> int | None:
    """Exact count of degree-d monomials, or None when infinite."""
    if degree < 0:
        return 0
    tables = _suffix_counts(A, (0,) * len(A.sig), degree, 0)
    return None if tables is None else tables[0][degree][0]


def monomial_basis(A: SemifreeDGCA, degree: int, cap: int = DEFAULT_CAP,
                   weights: tuple[int, ...] | None = None, weight: int = 0
                   ) -> GradedBasis:
    """All monomials of the given total degree, canonically ordered; with
    `weights` (one per generator), only those of weight `weight`.  No
    `weights` is the trivial grading, whose weight-0 part is everything."""
    if cap <= 0:
        raise GradedError("cap must be positive")
    if weights is None:
        weights = (0,) * len(A.sig)
    if degree < 0 or weight < 0:
        return GradedBasis(degree, ())
    tables = _suffix_counts(A, weights, degree, weight)
    if tables is None:
        raise Capped(
            f"degree-{degree} basis is infinite (degree-0 generator present)",
            estimate=None,
        )
    count = tables[0][degree][weight]
    if count > cap:
        raise Capped(
            f"degree-{degree} basis has {count} monomials, above cap {cap}",
            estimate=count,
        )
    degs, sqz, n = A.sig.degrees, A.sig.sqz, len(A.sig)
    out: list[Monomial] = []
    stack: list[tuple[int, int]] = []

    def emit(start: int, d: int, w: int):
        # Extend `stack` by the monomials of degree d and weight w in
        # generators start.. (tables[start][d][w] of them), in canonical
        # order: the empty one first, then by first generator and its
        # exponent.  A branch is entered only if the table says it ends.
        if d == 0 and w == 0:
            out.append(tuple(stack))
            if tables[start][0][0] == 1:
                return
        for gid in range(start, n):
            nxt = tables[gid + 1]
            k, u = degs[gid], weights[gid]
            e = 1
            while e * k <= d and e * u <= w and (e == 1 or not sqz[gid]):
                if nxt[d - e * k][w - e * u]:
                    stack.append((gid, e))
                    emit(gid + 1, d - e * k, w - e * u)
                    stack.pop()
                e += 1
            if not nxt[d][w]:
                break

    emit(0, degree, weight)
    if len(out) != count:
        raise DgcaError(f"degree-{degree} basis enumerated {len(out)} "
                        f"monomials, the count predicts {count}")
    return GradedBasis(degree, tuple(out))


@dataclass
class SparseRationalMatrix:
    """A sparse matrix over Q; `dom` and `cod` are the bases of its columns
    and rows when `differential_matrix` built it, else None (`cod` holds
    only the monomials its columns reach).  They take no part in comparison
    or printing."""

    rows: int
    cols: int
    entries: dict[tuple[int, int], Fraction]
    dom: GradedBasis | None = field(default=None, compare=False, repr=False)
    cod: GradedBasis | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        self.entries = {k: v for k, v in self.entries.items() if v}


def differential_matrix(A: SemifreeDGCA, degree: int, cap: int = DEFAULT_CAP,
                        weights: tuple[int, ...] | None = None, weight: int = 0
                        ) -> SparseRationalMatrix:
    """Matrix of d on the degree basis (`dom`); with `weights`, which d must
    preserve, on its weight-`weight` component.  The columns are d of the
    `dom` monomials, all taken in one `apply_d_all` call; the rows (`cod`)
    are the monomials they reach, sorted, as in the degree+1 basis."""
    dom = monomial_basis(A, degree, cap, weights, weight)
    images = apply_d_all(A, [Element(A.sig, {mono: Fraction(1)})
                             for mono in dom.monomials])
    cod = GradedBasis(degree + 1, tuple(sorted(
        {m2 for img in images for m2 in img.terms})))
    entries: dict[tuple[int, int], Fraction] = {}
    for c, img in enumerate(images):
        for m2, coeff in img.terms.items():
            entries[(cod.index[m2], c)] = coeff
    return SparseRationalMatrix(len(cod), len(dom), entries, dom, cod)


# -- integer row elimination -------------------------------------------------


def _normalize_row(row: dict[int, int]) -> None:
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            break
    if g > 1:
        for c in row:
            row[c] //= g
    lead = row[min(row)]
    if lead < 0:
        for c in row:
            row[c] = -row[c]


def _reduce_row(row: dict[int, int], pivots: dict[int, dict[int, int]]) -> None:
    """Eliminate the leading column of `row` against installed pivot rows
    until it is zero or leads on a pivot-free column.

    Division-free: each step cross-multiplies by the integer cofactors of an
    lcm, then strips the content to keep entries small.
    """
    steps = 0
    while row:
        c = min(row)
        p = pivots.get(c)
        if p is None:
            _normalize_row(row)
            return
        a = row[c]
        b = p[c]
        g = gcd(a, b)
        ra = b // g
        rb = a // g
        for cc in row:
            row[cc] *= ra
        for cc, vv in p.items():
            t = row.get(cc, 0) - rb * vv
            if t:
                row[cc] = t
            elif cc in row:
                del row[cc]
        steps += 1
        if row and steps % 8 == 0:
            _normalize_row(row)


def _int_rows(M: SparseRationalMatrix, rhs: dict[int, Fraction] | None = None
              ) -> list[dict[int, int]]:
    """The nonzero rows of M in row order, with -rhs in column M.cols, each
    scaled by the lcm of its denominators to integers."""
    by_row: dict[int, dict[int, Fraction]] = {}
    for (r, c), v in M.entries.items():
        by_row.setdefault(r, {})[c] = v
    for r, v in (rhs or {}).items():
        if v:
            by_row.setdefault(r, {})[M.cols] = -v
    out = []
    for r in sorted(by_row):
        row = by_row[r]
        denom = lcm(*(v.denominator for v in row.values()))
        out.append({c: v.numerator * (denom // v.denominator)
                    for c, v in row.items()})
    return out


def _echelon(rows: list[dict[int, int]]) -> dict[int, dict[int, int]]:
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        _reduce_row(row, pivots)
        if row:
            pivots[min(row)] = row
    return pivots


def rank(M: SparseRationalMatrix) -> int:
    """Exact rank over Q by integer elimination."""
    return len(_echelon(_int_rows(M)))


def solve(M: SparseRationalMatrix, b: dict[int, Fraction]
          ) -> list[Fraction] | None:
    """One exact solution v of M v = b, b given by its nonzero rows, or None
    when none exists."""
    rhs_col = M.cols
    rows = _int_rows(M, b)
    rows.sort(key=len)
    pivots = _echelon(rows)
    if rhs_col in pivots:
        return None
    sol: dict[int, Fraction] = {}
    for c in sorted(pivots, reverse=True):
        row = pivots[c]
        s = Fraction(row.get(rhs_col, 0))
        for cc, vv in row.items():
            if cc == c or cc == rhs_col:
                continue
            x = sol.get(cc)
            if x is not None:
                s += vv * x
        sol[c] = -s / row[c]
    return [sol.get(c, Fraction(0)) for c in range(M.cols)]


def cohomology_dims(A: SemifreeDGCA, max_degree: int, cap: int = DEFAULT_CAP
                    ) -> list[int]:
    """dim H^k for k = 0..max_degree: dim(ker d_k) - rank d_(k-1), exactly."""
    if max_degree < 0:
        raise GradedError("max_degree must be nonnegative")
    mats = [differential_matrix(A, k, cap) for k in range(max_degree + 1)]
    ranks = [rank(m) for m in mats]
    out = []
    for k, m in enumerate(mats):
        prev = ranks[k - 1] if k > 0 else 0
        out.append(m.cols - ranks[k] - prev)
    return out


@dataclass
class CoboundaryDecision:
    status: str  # "yes" | "no" | "capped"
    witness: Element | None = None


def is_coboundary(A: SemifreeDGCA, x: Element, cap: int = DEFAULT_CAP
                  ) -> CoboundaryDecision:
    """Decide whether a closed homogeneous element is d of something.

    Solves d v = x over x's weight component one degree down (the complete
    basis when x is not weight-homogeneous or the grading is trivial); `cap`
    bounds the one basis built, that domain.  A monomial of x that d of no
    domain monomial reaches makes the answer no at once.  A yes comes with
    a witness w satisfying d(w) = x exactly.
    """
    if x.sig != A.sig:
        raise GradedError("element not in this algebra")
    if not x:
        return CoboundaryDecision("yes", Element.zero(A.sig))
    if not x.is_homogeneous():
        raise GradedError("is_coboundary needs a homogeneous element")
    res = apply_d(A, x)
    if res:
        raise NotClosed("is_coboundary needs a closed element", residual=res)
    ((deg, _),) = x.bidegrees()
    if deg == 0:
        return CoboundaryDecision("no")
    weights = generator_weights(A)
    x_weights = {_weight(m, weights) for m in x.terms}
    if len(x_weights) == 1:
        weight = x_weights.pop()
    else:
        weights, weight = None, 0
    try:
        mat = differential_matrix(A, deg - 1, cap, weights, weight)
    except Capped:
        return CoboundaryDecision("capped")
    index = mat.cod.index
    if any(m not in index for m in x.terms):
        return CoboundaryDecision("no")
    v = solve(mat, {index[m]: c for m, c in x.terms.items()})
    if v is None:
        return CoboundaryDecision("no")
    terms = {mat.dom.monomials[i]: c for i, c in enumerate(v) if c}
    w = Element(A.sig, terms)
    if apply_d(A, w) != x:
        raise DgcaError("solver returned an invalid witness")
    return CoboundaryDecision("yes", w)
