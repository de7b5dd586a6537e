"""Sparse exact rational linear algebra over graded monomial bases.

`differential_matrix` is the one place where a matrix of d and its two
canonical bases are built; it hands the bases back on the matrix, so
`cohomology_dims` and `is_coboundary` enumerate no basis of their own.
Rank and linear solving convert the matrix's entries to integer rows once
and run integer (division-free) row elimination with gcd normalization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm

from .dgca import DgcaError, NotClosed, SemifreeDGCA, apply_d
from .graded import Element, GradedError, Monomial

DEFAULT_CAP = 2_000_000


class Capped(GradedError):
    """Raised when a basis would exceed the configured monomial cap."""

    def __init__(self, msg, estimate=None):
        super().__init__(msg)
        self.estimate = estimate


@dataclass
class GradedBasis:
    algebra: SemifreeDGCA
    degree: int
    monomials: tuple[Monomial, ...]

    def __post_init__(self):
        self.index = {m: i for i, m in enumerate(self.monomials)}

    def __len__(self) -> int:
        return len(self.monomials)


def count_monomials(A: SemifreeDGCA, degree: int) -> int | None:
    """Exact count of degree-d monomials, or None when infinite.

    Partition-function DP: a square-zero generator of degree k contributes
    (1 + x^k), any other contributes 1/(1 - x^k); an even generator of
    degree 0 makes every graded piece infinite.
    """
    if degree < 0:
        return 0
    sig = A.sig
    ways = [0] * (degree + 1)
    ways[0] = 1
    for gid in range(len(sig)):
        k = sig.degrees[gid]
        if k == 0:
            if sig.sqz[gid]:
                # exponent <= 1, degree 0: doubles every count
                ways = [2 * w for w in ways]
                continue
            return None
        if sig.sqz[gid]:
            for d in range(degree, k - 1, -1):
                ways[d] += ways[d - k]
        else:
            for d in range(k, degree + 1):
                ways[d] += ways[d - k]
    return ways[degree]


def monomial_basis(A: SemifreeDGCA, degree: int, cap: int = DEFAULT_CAP
                   ) -> GradedBasis:
    """All monomials of the given total degree, canonically ordered."""
    if cap <= 0:
        raise GradedError("cap must be positive")
    count = count_monomials(A, degree)
    if count is None:
        raise Capped(
            f"degree-{degree} basis is infinite (degree-0 generator present)",
            estimate=None,
        )
    if count > cap:
        raise Capped(
            f"degree-{degree} basis has {count} monomials, above cap {cap}",
            estimate=count,
        )
    sig = A.sig
    n = len(sig)
    out: list[Monomial] = []
    stack: list[tuple[int, int]] = []

    def emit(gid: int, remaining: int):
        if remaining == 0:
            out.append(tuple(stack))
            return
        if gid >= n:
            return
        k = sig.degrees[gid]
        # skip this generator
        emit(gid + 1, remaining)
        if k == 0 or k > remaining:
            if k == 0 and sig.sqz[gid]:
                stack.append((gid, 1))
                emit(gid + 1, remaining)
                stack.pop()
            return
        if sig.sqz[gid]:
            stack.append((gid, 1))
            emit(gid + 1, remaining - k)
            stack.pop()
        else:
            e = 1
            while e * k <= remaining:
                stack.append((gid, e))
                emit(gid + 1, remaining - e * k)
                stack.pop()
                e += 1

    emit(0, degree)
    out.sort()
    if len(out) != count:
        raise DgcaError(f"degree-{degree} basis enumerated {len(out)} "
                        f"monomials, the count predicts {count}")
    return GradedBasis(A, degree, tuple(out))


@dataclass
class SparseRationalMatrix:
    """A sparse matrix over Q; `dom` and `cod` are the bases of its columns
    and rows when `differential_matrix` built it, else None.  They take no
    part in comparison or printing."""

    rows: int
    cols: int
    entries: dict[tuple[int, int], Fraction]
    dom: GradedBasis | None = field(default=None, compare=False, repr=False)
    cod: GradedBasis | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        self.entries = {k: v for k, v in self.entries.items() if v}

    def transpose(self) -> "SparseRationalMatrix":
        return SparseRationalMatrix(
            self.cols, self.rows,
            {(c, r): v for (r, c), v in self.entries.items()},
        )

    def to_matrix_market(self) -> str:
        lines = [
            "%%MatrixMarket matrix coordinate rational general",
            f"{self.rows} {self.cols} {len(self.entries)}",
        ]
        for (r, c) in sorted(self.entries):
            v = self.entries[(r, c)]
            lines.append(f"{r + 1} {c + 1} {v.numerator}/{v.denominator}")
        return "\n".join(lines) + "\n"


def differential_matrix(A: SemifreeDGCA, degree: int, cap: int = DEFAULT_CAP
                        ) -> SparseRationalMatrix:
    """Matrix of d from the degree basis (`dom`) to the degree+1 basis
    (`cod`), carrying both bases."""
    dom = monomial_basis(A, degree, cap)
    cod = monomial_basis(A, degree + 1, cap)
    entries: dict[tuple[int, int], Fraction] = {}
    for c, mono in enumerate(dom.monomials):
        img = apply_d(A, Element(A.sig, {mono: Fraction(1)}))
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


def solve(M: SparseRationalMatrix, b: dict[int, Fraction] | list[Fraction]
          ) -> list[Fraction] | None:
    """One exact solution v of M v = b, or None when none exists."""
    if isinstance(b, list):
        b = dict(enumerate(b))
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

    Solves d v = x over the complete basis one degree down; a yes comes with
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
    try:
        mat = differential_matrix(A, deg - 1, cap)
    except Capped:
        return CoboundaryDecision("capped")
    b = {mat.cod.index[m]: c for m, c in x.terms.items()}
    v = solve(mat, b)
    if v is None:
        return CoboundaryDecision("no")
    terms = {mat.dom.monomials[i]: c for i, c in enumerate(v) if c}
    w = Element(A.sig, terms)
    if apply_d(A, w) != x:
        raise DgcaError("solver returned an invalid witness")
    return CoboundaryDecision("yes", w)
