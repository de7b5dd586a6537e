"""Semifree differential bigraded commutative algebras and their morphisms.

A SemifreeDGCA is a free bigraded-commutative algebra equipped with a
degree-(1, even) differential given on generators and extended by the graded
Leibniz rule.  Morphisms are algebra maps given on generators; chain
homotopies are degree -1 (f, g)-derivations.  The homotopy-fiber extension
(adjoining a generator killing a closed element) and the generator-killing
pushout are the two algebra constructors everything downstream relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping

from . import batched
from .graded import (
    AlgebraSignature,
    Element,
    GeneratorDecl,
    GradedError,
    SignatureMismatch,
    _accumulate,
    _products,
    make_signature,
    sum_of_products,
    transport,
)


class DgcaError(GradedError):
    pass


class BidegreeMismatch(DgcaError):
    pass


class InhomogeneousImage(BidegreeMismatch):
    pass


class NotClosed(DgcaError):
    def __init__(self, msg, residual: Element | None = None):
        super().__init__(msg)
        self.residual = residual


class ChainMapViolation(DgcaError):
    def __init__(self, msg, residual: Element | None = None):
        super().__init__(msg)
        self.residual = residual


@dataclass
class Report:
    """Outcome of one verification: pass / fail / capped, plus forensics.

    Failing reports carry a concrete nonzero residual.  `pinned` holds the
    exactly-reproducible scalars a golden report compares bit-for-bit;
    `stats` holds term counts and similar diagnostics; timing lives outside
    the pinned data.
    """

    task_id: str
    verdict: str  # "pass" | "fail" | "capped"
    details: str = ""
    witness: str | None = None
    residual: Element | None = None
    stats: dict = field(default_factory=dict)
    pinned: dict = field(default_factory=dict)
    duration_s: float = 0.0  # stamped by reporting.run_task

    @property
    def ok(self) -> bool:
        return self.verdict == "pass"

    def to_json(self) -> dict:
        out = {
            "task_id": self.task_id,
            "verdict": self.verdict,
            "details": self.details,
            "witness": self.witness,
            "stats": self.stats,
            "pinned": self.pinned,
            "duration_s": round(self.duration_s, 3),
        }
        if self.residual is not None:
            out["residual"] = self.residual.to_json()
        return out


class SemifreeDGCA:
    """Generators plus differential images; free as a graded algebra."""

    def __init__(self, sig: AlgebraSignature, d_images: tuple[Element, ...]):
        self.sig = sig
        self.d_images = d_images

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SemifreeDGCA)
            and self.sig == other.sig
            and list(self.d_images) == list(other.d_images)
        )

    def __repr__(self) -> str:
        return f"SemifreeDGCA({len(self.sig)} generators)"

    def d_of(self, name: str) -> Element:
        return self.d_images[self.sig.gen_id(name)]


def make_dgca(sig: AlgebraSignature, images: Mapping[str, Element]) -> SemifreeDGCA:
    """Assemble an algebra from generator differentials.

    Each image must be homogeneous of bidegree (deg+1, parity) for its
    generator; d**2 = 0 is not asserted here (see check_d_squared).
    Missing generators get differential zero; a name that is no generator
    raises UnknownGenerator.
    """
    return SemifreeDGCA(sig, _generator_images(sig, sig, images, 1, "d"))


def _generator_images(src: AlgebraSignature, tsig: AlgebraSignature,
                      images: Mapping[str, Element], shift: int,
                      label: str) -> tuple[Element, ...]:
    """The images of the generators x of `src`, in order, from the
    name-keyed `images` (zero where a name is absent): elements of `tsig`,
    homogeneous of bidegree (deg x + shift, parity x).  A name that is no
    generator of `src` raises UnknownGenerator."""
    by_id = {src.gen_id(name): img for name, img in images.items()}
    out = []
    for gid, decl in enumerate(src.decls):
        img = by_id.get(gid)
        if img is None:
            img = Element.zero(tsig)
        if img.sig != tsig:
            raise SignatureMismatch(f"{label}({decl.name}) not in the target")
        want = (decl.degree + shift, decl.parity)
        if img and not img.is_homogeneous(want):
            kind = (BidegreeMismatch if img.is_homogeneous()
                    else InhomogeneousImage)
            raise kind(f"{label}({decl.name}) is not homogeneous of bidegree "
                       f"{want}: got {sorted(img.bidegrees())}")
        out.append(img)
    return tuple(out)


def apply_d(A: SemifreeDGCA, x: Element) -> Element:
    """Extend the generator differential by the graded Leibniz rule.

    d crosses a factor of degree n at the cost of (-1)^n; parity does not
    enter because d itself has even parity.  Per slot the e equal-factor
    terms collapse to a single term with multiplicity e (their relative
    signs cancel whenever e can exceed 1): the "hole" of g, the term with
    g^e lowered to g^(e-1) and signed for moving d g to its end, is
    multiplied by d g in `graded._products`, the dict path's one pair loop
    (`_leibniz_terms`).  This is the one-element case of `apply_d_all`.
    """
    (dx,) = apply_d_all(A, [x])
    return dx


def apply_d_all(A: SemifreeDGCA, xs: list) -> list:
    """d of each element of `xs`, in order: all of them go to
    `batched.leibniz` in one call, which runs those that reach its pair
    gates, alone or together in one tagged call, and the dict path takes
    the rest.  The d of an input that had a kernel call to itself stays
    packed until its terms are read (`Element.from_packed`); every other d
    is a dict.  It evaluates any derivation of odd degree and even parity
    given on generators as `A.d_images`, as `radial_contraction` does."""
    sig = A.sig
    if any(x.sig is not sig and x.sig != sig for x in xs):
        raise SignatureMismatch("element not in this algebra")
    batch = batched.leibniz(sig, A.d_images, [x.terms for x in xs])
    return [Element.from_packed(sig, d) if isinstance(d, batched.Packed)
            else Element(sig, d if d is not None else _accumulate(
                {}, _products(_leibniz_terms(A.d_images, x), sig)))
            for x, d in zip(xs, batch)]


def _leibniz_terms(d_images: tuple[Element, ...], x: Element):
    """The Leibniz holes of d(x), as (terms, terms) pairs for
    `graded._products`: per term c P g^e R of x and slot g with d g != 0,
    ({P g^(e-1) R: (-1)^s e c}, d g), where s is the degree of P plus that
    of d g crossing the rest g^(e-1) R, the whole term less P and one g."""
    sig = x.sig
    degs = sig.degrees
    pars = sig.parities
    for mono, coeff in x.terms.items():
        tot_deg, tot_par = sig.monomial_bidegree(mono)
        pre_deg = pre_par = 0
        for idx, (g, e) in enumerate(mono):
            dg = d_images[g]
            if dg:
                rest_deg = tot_deg - pre_deg - degs[g]
                rest_par = tot_par - pre_par - pars[g]
                s = pre_deg + (degs[g] + 1) * rest_deg + pars[g] * rest_par
                hole = (mono[:idx] + (((g, e - 1),) if e > 1 else ())
                        + mono[idx + 1:])
                yield {hole: -e * coeff if s & 1 else e * coeff}, dg.terms
            pre_deg += degs[g] * e
            pre_par += pars[g] * e


def _first_failure(task_id: str, sig: AlgebraSignature, residuals,
                   details: str) -> Report | None:
    """The failing report of the first generator, in generator order, whose
    residual is nonzero, or None if there is none.  `residuals` yields
    (generator id, residual) pairs and is read only up to that generator;
    `details` names it through "{}"."""
    for gid, res in residuals:
        if res:
            name = sig.decls[gid].name
            return Report(task_id, "fail", details=details.format(name),
                          witness=name, residual=res,
                          stats={"residual_terms": len(res)})
    return None


def check_d_squared(A: SemifreeDGCA, task_id: str = "d_squared") -> Report:
    """Verify d(d(g)) = 0 for every generator, reporting the first residual
    in generator order; the d-images go to `apply_d_all` together."""
    gids = [gid for gid, img in enumerate(A.d_images) if img]
    dd = apply_d_all(A, [A.d_images[g] for g in gids])
    return _first_failure(task_id, A.sig, zip(gids, dd),
                          "d**2 != 0 on generator {}") or Report(
        task_id, "pass", details="d**2 = 0 on all generators",
        stats={"generators": len(A.sig),
               "max_image_terms": max(map(len, A.d_images), default=0)},
        pinned={"generators": len(A.sig)})


class DGCAMorphism:
    """An algebra map determined by generator images of matching bidegree."""

    def __init__(self, source: SemifreeDGCA, target: SemifreeDGCA,
                 images: tuple[Element, ...]):
        self.source = source
        self.target = target
        self.images = images

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DGCAMorphism)
            and self.source.sig == other.source.sig
            and self.target.sig == other.target.sig
            and list(self.images) == list(other.images)
        )

    def image_of(self, name: str) -> Element:
        return self.images[self.source.sig.gen_id(name)]

    def __call__(self, x: Element) -> Element:
        if x.sig != self.source.sig:
            raise SignatureMismatch("element not in the morphism source")
        return self._apply(x.terms)

    def _apply(self, terms: dict) -> Element:
        """f(x) = c + sum_(y, e) f(y)^e f(x_(y, e)) (see `_first_factors`),
        in one `sum_of_products` call per node of x's prefix tree."""
        tsig = self.target.sig
        const, rests = _first_factors(terms)
        if not rests:
            return Element.scalar(tsig, const)
        pairs = [(_power(self.images[y], e), self._apply(rest))
                 for (y, e), rest in rests.items() if self.images[y]]
        if const:
            pairs.append((Element.scalar(tsig, const), Element.one(tsig)))
        return sum_of_products(tsig, pairs)


def make_morphism(source: SemifreeDGCA, target: SemifreeDGCA,
                  images: Mapping[str, Element]) -> DGCAMorphism:
    """Build a morphism from name-keyed generator images (zero where a name
    is absent), verified as a chain map on generators: a failure raises
    ChainMapViolation.  Build a deliberately broken map as a DGCAMorphism."""
    f = DGCAMorphism(source, target, _generator_images(
        source.sig, target.sig, images, 0, "f"))
    rep = check_chain_map(f)
    if not rep.ok:
        raise ChainMapViolation(rep.details, residual=rep.residual)
    return f


def by_name(source: SemifreeDGCA, target: SemifreeDGCA,
            images: Mapping[str, Element] = {}) -> DGCAMorphism:
    """The chain map sending each generator of `source` to the generator of
    `target` with the same name, or to 0 where `target` has none, with
    `images` overriding per name; built and verified by `make_morphism`."""
    shared = set(target.sig.names).intersection(source.sig.names)
    return make_morphism(source, target, {
        **{n: Element.generator(target.sig, n) for n in shared}, **images})


def check_chain_map(f: DGCAMorphism, task_id: str = "chain_map") -> Report:
    """Verify d(f(g)) = f(d(g)) on every source generator; the f(g) go to
    `apply_d_all` together, and f(d(g)) is taken only up to the first
    failing generator."""
    dfs = apply_d_all(f.target, list(f.images))
    residuals = ((gid, df - f(dg)) for gid, (df, dg)
                 in enumerate(zip(dfs, f.source.d_images)))
    return _first_failure(task_id, f.source.sig, residuals,
                          "chain map fails on generator {}") or Report(
        task_id, "pass", details="chain map on all generators")


def identity_morphism(A: SemifreeDGCA) -> DGCAMorphism:
    return DGCAMorphism(
        A, A, tuple(Element.generator(A.sig, n) for n in A.sig.names)
    )


def compose(f: DGCAMorphism, g: DGCAMorphism) -> DGCAMorphism:
    """Composite g-after-f; f.target must be g.source."""
    if f.target.sig != g.source.sig:
        raise SignatureMismatch("compose: f.target != g.source")
    return DGCAMorphism(f.source, g.target, tuple(g(img) for img in f.images))


class ChainHomotopy:
    """A degree (-1, parity-preserving) map given on generators, extended as
    an (f, g)-derivation: s(ab) = s(a) g(b) + (-1)^deg(a) f(a) s(b)."""

    def __init__(self, f: DGCAMorphism, g: DGCAMorphism,
                 images: Mapping[str, Element]):
        if f.source.sig != g.source.sig or f.target.sig != g.target.sig:
            raise SignatureMismatch("homotopy needs parallel morphisms")
        self.f = f
        self.g = g
        self.images = _generator_images(f.source.sig, f.target.sig, images,
                                        -1, "s")

    def __call__(self, x: Element) -> Element:
        if x.sig != self.f.source.sig:
            raise SignatureMismatch("element not in the homotopy source")
        return self._apply(x.terms)

    def _apply(self, terms: dict) -> Element:
        """s(x) = sum_(y, e) s(y^e) g(x_(y, e)) + (-1)^(e deg(y)) f(y)^e
        s(x_(y, e)) (see `_first_factors`), one `sum_of_products` call per
        prefix-tree node, skipping the monomials with no factor that s is
        nonzero on."""
        f, g = self.f, self.g
        _, rests = _first_factors({m: c for m, c in terms.items()
                                   if any(self.images[y] for y, _ in m)})
        if not rests:
            return Element.zero(f.target.sig)
        degs = f.source.sig.degrees
        pairs = []
        for (y, e), rest in rests.items():
            if self.images[y]:
                pairs.append((self._power_image(y, e), g._apply(rest)))
            s_rest = self._apply(rest) if f.images[y] else None
            if s_rest:
                fe = _power(f.images[y], e)
                pairs.append((-fe if (e * degs[y]) & 1 else fe, s_rest))
        return sum_of_products(f.target.sig, pairs)

    def _power_image(self, y: int, e: int) -> Element:
        """s(y^e) by the loop s(y^k) = s(y) g(y)^(k-1) + (-1)^deg(y) f(y)
        s(y^(k-1)), k = 2..e."""
        sy, fy, gy = self.images[y], self.f.images[y], self.g.images[y]
        if self.f.source.sig.degrees[y] & 1:
            fy = -fy
        tsig = self.f.target.sig
        out, g_pow = sy, Element.one(tsig)
        for _ in range(e - 1):
            g_pow = g_pow * gy
            out = sum_of_products(tsig, [(sy, g_pow), (fy, out)])
        return out


def _first_factors(terms: dict) -> tuple:
    """x = c + sum_(y, e) y^e x_(y, e): the constant c of the terms dict x
    and, per first power y^e of its monomials, x_(y, e): those monomials
    without that first power, so no sign arises.  Recursing on the
    x_(y, e) goes as deep as a monomial of x has distinct generators."""
    rests: dict[tuple, dict] = {}
    for mono, coeff in terms.items():
        if mono:
            rests.setdefault(mono[0], {})[mono[1:]] = coeff
    return terms.get((), 0), rests


def _power(x: Element, e: int) -> Element:
    """x^e for e >= 1, by e - 1 products."""
    out = x
    for _ in range(e - 1):
        out = out * x
    return out


def check_homotopy(s: ChainHomotopy, task_id: str = "homotopy") -> Report:
    """Verify f - g = d s + s d on every generator, for the morphisms f and g
    of s; the s(g) go to `apply_d_all` together, and s(d(g)) is taken only
    up to the first failing generator."""
    f, g = s.f, s.g
    src = f.source
    dss = apply_d_all(f.target, list(s.images))
    residuals = ((gid, (f.images[gid] - g.images[gid]) - (ds + s(dg)))
                 for gid, (ds, dg) in enumerate(zip(dss, src.d_images)))
    return _first_failure(task_id, src.sig, residuals,
                          "homotopy identity fails on {}") or Report(
        task_id, "pass", details="homotopy identity on all generators")


def adjoin_generator(A: SemifreeDGCA, decl: GeneratorDecl, d_image: Element,
                     lam=1) -> SemifreeDGCA:
    """Extend by one generator with d(gen) = lam * d_image.

    The image must be a closed element of A, homogeneous of bidegree
    (decl.degree + 1, decl.parity); this is the algebra of the homotopy
    fiber of the cocycle d_image.
    """
    if d_image.sig != A.sig:
        raise SignatureMismatch("d_image not in the base algebra")
    if d_image and not d_image.is_homogeneous((decl.degree + 1, decl.parity)):
        raise BidegreeMismatch(
            f"d({decl.name}) must be homogeneous of bidegree "
            f"{(decl.degree + 1, decl.parity)}"
        )
    res = apply_d(A, d_image)
    if res:
        raise NotClosed(f"image of the new generator {decl.name} is not closed",
                        residual=res)
    new_sig = make_signature(list(A.sig.decls) + [decl])
    images = {
        d.name: transport(A.d_images[i], new_sig)
        for i, d in enumerate(A.sig.decls)
    }
    images[decl.name] = Fraction(lam) * transport(d_image, new_sig)
    return make_dgca(new_sig, images)


def set_generators_to_zero(A: SemifreeDGCA, names: Iterable[str]
                           ) -> SemifreeDGCA:
    """Quotient by sending the named generators to zero (semifree pushout).

    The induced differential is the substituted one; d**2 survives
    substitution automatically and is revalidated here.
    """
    kill = {A.sig.gen_id(n) for n in names}
    keep = [d for i, d in enumerate(A.sig.decls) if i not in kill]
    new_sig = make_signature(keep)
    images = {}
    for gid, decl in enumerate(A.sig.decls):
        if gid in kill:
            continue
        img = A.d_images[gid]
        surviving = {
            m: c for m, c in img.terms.items()
            if not any(g in kill for g, _ in m)
        }
        images[decl.name] = transport(Element(A.sig, surviving), new_sig)
    out = make_dgca(new_sig, images)
    rep = check_d_squared(out)
    if not rep.ok:
        raise NotClosed(f"substitution broke d**2: {rep.details}",
                        residual=rep.residual)
    return out
