"""Free bigraded-commutative polynomial algebras over exact rationals.

Generators carry a bidegree (n, parity) with n a nonnegative cohomological
degree and parity in {0, 1}.  Two generators g, h commute up to the Koszul
sign (-1)^(deg(g)*deg(h) + par(g)*par(h)), and a generator squares to zero
exactly when deg + par is odd.  Elements are stored canonically: a hash map
from sorted monomials to nonzero Fraction coefficients, with every sign
incurred by sorting absorbed into the coefficient.

Sums of products have two exact paths that return the same canonical map;
`sum_of_products` chooses, and `Element.__mul__` is its one-pair case.  The
dict path (`_products` feeding `_accumulate`) is the reference.
`batched.sum_of_products` is asked first; it works on int8 exponent
matrices and int64 numerators over a shared denominator, and returns None
for the sums it leaves to the dict path.  What it returns stays packed
(`Element.from_packed`): the terms are decoded on their first read, and
len, bool and is_zero read the row count.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from . import batched

EVEN = 0
ODD = 1

#: A monomial is a tuple of (generator id, exponent) pairs, sorted by id.
Monomial = tuple[tuple[int, int], ...]

ONE_MONOMIAL: Monomial = ()


class _FactorTable(dict):
    """(g, e) -> the one shared tuple (g, e), made on first use."""

    __slots__ = ()

    def __missing__(self, f):
        self[f] = f
        return f


#: FACTORS[g, e] is the shared (generator id, exponent) tuple (g, e):
#: monomials built from generator ids hold these, not fresh tuples of their
#: own.  A dict lookup rather than a function call, since the flat-forms
#: sampler takes one per factor it draws.
FACTORS = _FactorTable()


class GradedError(Exception):
    """Base class for errors raised by the graded core."""


class DuplicateName(GradedError):
    pass


class UnknownGenerator(GradedError):
    pass


class SignatureMismatch(GradedError):
    pass


class OutOfRange(GradedError):
    """A parameter value outside the range its function accepts, such as
    a monomial cap below 1: a malformed request, refused before any
    verification runs."""


@dataclass(frozen=True, order=True)
class GeneratorDecl:
    """A named generator with a bidegree and optional integer index tags.

    The canonical total order on generators is lexicographic on
    (family, indices); it is fixed at signature construction and stable
    across runs.
    """

    family: str
    indices: tuple[int, ...] = ()
    degree: int = 1
    parity: int = EVEN

    def __post_init__(self):
        if not self.family or any(ch in self.family for ch in "^,| "):
            raise GradedError(f"bad family name {self.family!r}")
        if self.degree < 0:
            raise GradedError("degree must be nonnegative")
        if self.parity not in (EVEN, ODD):
            raise GradedError("parity must be 0 (even) or 1 (odd)")

    @property
    def name(self) -> str:
        if not self.indices:
            return self.family
        return self.family + "^" + ",".join(str(i) for i in self.indices)

    @property
    def squares_to_zero(self) -> bool:
        return (self.degree + self.parity) % 2 == 1


class AlgebraSignature:
    """An ordered list of generator declarations; the monomial order follows it."""

    def __init__(self, decls: Iterable[GeneratorDecl]):
        ordered = tuple(sorted(decls, key=lambda d: (d.family, d.indices)))
        names = [d.name for d in ordered]
        if len(set(names)) != len(names):
            seen = set()
            for n in names:
                if n in seen:
                    raise DuplicateName(f"duplicate generator {n!r}")
                seen.add(n)
        self.decls: tuple[GeneratorDecl, ...] = ordered
        self.names: tuple[str, ...] = tuple(names)
        self._ids: dict[str, int] = {n: i for i, n in enumerate(names)}
        self.degrees: tuple[int, ...] = tuple(d.degree for d in ordered)
        self.parities: tuple[int, ...] = tuple(d.parity for d in ordered)
        # bit tables driving Koszul signs
        self.odd_bits: tuple[int, ...] = tuple(d.degree & 1 for d in ordered)
        self.sqz: tuple[bool, ...] = tuple(d.squares_to_zero for d in ordered)

    def __len__(self) -> int:
        return len(self.decls)

    def __eq__(self, other) -> bool:
        return isinstance(other, AlgebraSignature) and self.decls == other.decls

    def __hash__(self) -> int:
        return hash(self.decls)

    def __repr__(self) -> str:
        return f"AlgebraSignature({len(self.decls)} generators)"

    def gen_id(self, name: str) -> int:
        try:
            return self._ids[name]
        except KeyError:
            raise UnknownGenerator(f"unknown generator {name!r}") from None

    def monomial_bidegree(self, mono: Monomial) -> tuple[int, int]:
        deg = sum(self.degrees[g] * e for g, e in mono)
        par = sum(self.parities[g] * e for g, e in mono) & 1
        return (deg, par)



def make_signature(decls: Iterable[GeneratorDecl]) -> AlgebraSignature:
    """Build a signature with the deterministic canonical generator order."""
    return AlgebraSignature(decls)


def monomial_mul(m1: Monomial, m2: Monomial, sig: AlgebraSignature):
    """Multiply two canonical monomials.

    Returns (sign, monomial) with sign in {+1, -1}, or None when the product
    vanishes because a square-zero generator is repeated: shared by both
    factors, or already squared in one (which only a raw
    `Element(sig, terms)` can hold).
    """
    sqz = sig.sqz
    for g, e in m2:
        if e > 1 and sqz[g]:
            return None
    odd = sig.odd_bits
    par = sig.parities
    # U, V: parities of summed odd-degree / odd-parity weights of the m1
    # items not yet consumed; an m2 item crosses exactly those.
    u = 0
    v = 0
    for g, e in m1:
        if e > 1 and sqz[g]:
            return None
        if e & 1:
            u ^= odd[g]
            v ^= par[g]
    if not m1 or not m2:
        return 1, m1 or m2
    sign = 0
    out = []
    i = 0
    j = 0
    n1 = len(m1)
    n2 = len(m2)
    while i < n1 and j < n2:
        g1, e1 = m1[i]
        g2, e2 = m2[j]
        if g1 < g2:
            if e1 & 1:
                u ^= odd[g1]
                v ^= par[g1]
            out.append(m1[i])
            i += 1
        elif g1 > g2:
            if e2 & 1:
                sign ^= (u & odd[g2]) ^ (v & par[g2])
            out.append(m2[j])
            j += 1
        else:
            if sqz[g1]:
                return None
            if e1 & 1:
                u ^= odd[g1]
                v ^= par[g1]
            if e2 & 1:
                sign ^= (u & odd[g2]) ^ (v & par[g2])
            out.append((g1, e1 + e2))
            i += 1
            j += 1
    if i < n1:
        out.extend(m1[i:])
    if j < n2:
        out.extend(m2[j:])
    return (1 if sign == 0 else -1), tuple(out)


class Element:
    """An exact linear combination of canonical monomials in a fixed signature.

    Immutable by convention: every operation returns a new Element, and
    equality is map equality.  The raw constructor trusts its caller to
    pass a canonical dict with nonzero coefficients; `from_terms`,
    `scalar` and every operation enforce that.
    """

    __slots__ = ("sig", "terms")
    #: The undecoded kernel result, on elements built by `from_packed`.
    packed = None

    def __init__(self, sig: AlgebraSignature, terms: dict[Monomial, Fraction]):
        self.sig = sig
        self.terms = terms

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(sig: AlgebraSignature) -> "Element":
        return Element(sig, {})

    @staticmethod
    def one(sig: AlgebraSignature) -> "Element":
        return Element(sig, {ONE_MONOMIAL: Fraction(1)})

    @staticmethod
    def scalar(sig: AlgebraSignature, c) -> "Element":
        c = Fraction(c)
        return Element(sig, {ONE_MONOMIAL: c} if c else {})

    @staticmethod
    def generator(sig: AlgebraSignature, name: str) -> "Element":
        return Element(sig, {(FACTORS[sig.gen_id(name), 1],): Fraction(1)})

    @staticmethod
    def from_packed(sig: AlgebraSignature, packed) -> "Element":
        """An element holding a `batched.Packed` kernel result."""
        return _PackedElement(sig, packed)

    @staticmethod
    def from_terms(sig: AlgebraSignature, terms) -> "Element":
        """Build from [(coeff, [(name, exp), ...]), ...] with normalization:
        each word is folded, factor by factor, through `monomial_mul`, whose
        Koszul sign is the sign of sorting it; zero exponents are skipped,
        and a word that repeats a square-zero generator gives no term."""
        def signed():
            for coeff, pairs in terms:
                coeff = Fraction(coeff)
                if not coeff:
                    continue
                sign, mono = 1, ONE_MONOMIAL
                for n, e in pairs:
                    g = sig.gen_id(n)
                    if e < 0:
                        raise GradedError("negative exponent")
                    if e and mono is not None:
                        s, mono = (monomial_mul(mono, (FACTORS[g, e],), sig)
                                   or (1, None))
                        sign *= s
                if mono is not None:
                    yield mono, (coeff if sign > 0 else -coeff)

        return Element(sig, _accumulate({}, signed()))

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def bidegrees(self) -> set[tuple[int, int]]:
        return {self.sig.monomial_bidegree(m) for m in self.terms}

    def is_homogeneous(self, bidegree: tuple[int, int] | None = None) -> bool:
        degs = self.bidegrees()
        if bidegree is not None:
            return degs <= {tuple(bidegree)}
        return len(degs) <= 1

    def coefficient(self, mono: Monomial) -> Fraction:
        return self.terms.get(mono, _ZERO)

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "Element"):
        if self.sig is not other.sig and self.sig != other.sig:
            raise SignatureMismatch("elements live in different signatures")

    def __add__(self, other: "Element") -> "Element":
        self._check(other)
        return Element(self.sig,
                       _accumulate(self._nonzero(), other.terms.items()))

    def __sub__(self, other: "Element") -> "Element":
        self._check(other)
        return Element(self.sig, _accumulate(
            self._nonzero(), ((m, -c) for m, c in other.terms.items())))

    def __neg__(self) -> "Element":
        return Element(self.sig, {m: -c for m, c in self.terms.items() if c})

    def _nonzero(self) -> dict:
        """A copy of the terms without zero coefficients, which a raw
        `Element(sig, terms)` may carry."""
        return {m: c for m, c in self.terms.items() if c}

    def __mul__(self, other):
        if isinstance(other, Element):
            return sum_of_products(self.sig, [(self, other)])
        return self._scaled(Fraction(other))

    def __rmul__(self, other):
        return self._scaled(Fraction(other))

    def _scaled(self, c: Fraction) -> "Element":
        """c times self, with one product per distinct coefficient."""
        if not c:
            return Element.zero(self.sig)
        products = {}
        terms = {}
        for m, v in self.terms.items():
            if v:
                cv = products.get(v)
                if cv is None:
                    cv = products[v] = c * v
                terms[m] = cv
        return Element(self.sig, terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return self.sig == other.sig and self.terms == other.terms

    def __hash__(self):
        raise TypeError("Element is not hashable")

    # -- rendering and serialization ---------------------------------------

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        return sorted(self.terms.items())

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for mono, coeff in self.sorted_terms()[:12]:
            word = "*".join(
                f"{self.sig.names[g]}" + (f"**{e}" if e > 1 else "")
                for g, e in mono
            )
            bits.append(f"({coeff})*{word}" if word else f"({coeff})")
        more = "" if len(self.terms) <= 12 else f" ... [{len(self.terms)} terms]"
        return " + ".join(bits) + more

    def to_json(self) -> list[dict]:
        return [
            {
                "monomial": [[self.sig.names[g], e] for g, e in mono],
                "coeff": f"{coeff.numerator}/{coeff.denominator}",
            }
            for mono, coeff in self.sorted_terms()
        ]


class _PackedElement(Element):
    """An Element whose terms are still a `batched.Packed` kernel result.

    The first read of `terms` decodes them (`__getattr__` runs only while
    the slot is unset) and drops the arrays; until then len, bool and
    is_zero read the row count.  Elements built from a dict are plain
    `Element`s and pay nothing for this."""

    __slots__ = ("packed",)

    def __init__(self, sig: AlgebraSignature, packed):
        self.sig = sig
        self.packed = packed

    def __getattr__(self, name):
        if name != "terms":
            raise AttributeError(name)
        self.terms = terms = self.packed.decode()
        self.packed = None
        return terms

    def __len__(self) -> int:
        packed = self.packed
        return len(self.terms) if packed is None else len(packed)

    def __bool__(self) -> bool:
        return len(self) != 0

    def is_zero(self) -> bool:
        return len(self) == 0


_ZERO = Fraction(0)


def _accumulate(acc: dict, pairs) -> dict:
    """Add (monomial, coefficient) pairs into `acc` in place and return it.

    The one accumulation kernel of the package: a zero fed in for a new
    monomial is not stored and a sum that cancels to zero is removed, so
    `acc` stays canonical.
    """
    get = acc.get
    for m, c in pairs:
        t = get(m)
        if t is None:
            if c:
                acc[m] = c
        else:
            t += c
            if t:
                acc[m] = t
            else:
                del acc[m]
    return acc


def _products(pairs, sig: AlgebraSignature):
    """The signed (monomial, coefficient) pairs of the products of the
    (terms, terms) `pairs`, before summing: the dict path's one pair loop,
    for d too (`dgca._leibniz_terms`)."""
    mm = monomial_mul
    for terms1, terms2 in pairs:
        for m1, c1 in terms1.items():
            for m2, c2 in terms2.items():
                res = mm(m1, m2, sig)
                if res is not None:
                    s, mono = res
                    yield mono, (c1 * c2 if s > 0 else -(c1 * c2))


def sum_of_products(sig: AlgebraSignature, pairs: Sequence) -> Element:
    """sum_k a_k * b_k over the pairs (a_k, b_k) of elements of `sig`, on
    the kernel if `batched.sum_of_products` takes it, else on the dict path."""
    if any(x.sig is not sig and x.sig != sig for pair in pairs for x in pair):
        raise SignatureMismatch("elements live in different signatures")
    terms = [(a.terms, b.terms) for a, b in pairs]
    packed = batched.sum_of_products(sig, terms)
    if packed is not None:
        return _PackedElement(sig, packed)
    return Element(sig, _accumulate({}, _products(terms, sig)))


def linear_combine(terms: Sequence[tuple[object, Element]]) -> Element:
    """Exact linear combination of elements over a common signature."""
    if not terms:
        raise GradedError("linear_combine needs at least one term")
    sig = terms[0][1].sig
    acc: dict[Monomial, Fraction] = {}
    for coeff, el in terms:
        coeff = Fraction(coeff)
        if el.sig != sig:
            raise SignatureMismatch("mixed signatures in linear_combine")
        if coeff:
            _accumulate(acc, ((m, coeff * c) for m, c in el.terms.items()))
    return Element(sig, acc)


def transport(el: Element, new_sig: AlgebraSignature) -> Element:
    """Re-express an element in a signature sharing the generators it uses.

    Relative generator order is preserved automatically because both
    signatures are canonically sorted by (family, indices), which the
    generator name determines, so no signs arise; generators of the
    old signature that the element does not mention need not exist in the
    new one.  Each distinct factor is mapped once, to its shared tuple
    (`FACTORS`).
    """
    names = el.sig.names
    moved: dict = {}
    acc = {}
    for mono, c in el.terms.items():
        new = []
        for f in mono:
            nf = moved.get(f)
            if nf is None:
                nf = moved[f] = FACTORS[new_sig.gen_id(names[f[0]]), f[1]]
            new.append(nf)
        acc[tuple(new)] = c
    return Element(new_sig, acc)
