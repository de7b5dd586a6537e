"""Graded bases, differential matrices, exact rank/solve, cohomology."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import cealg

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
from cealg.graded import EVEN, ODD


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


def test_consecutive_differential_matrices_compose_to_zero():
    from cealg.catalog import _mink, coefficient_line, m2brane

    cases = [(s4(), range(0, 12)),
             (free_line(4), range(0, 9)),
             (coefficient_line(1).algebra, range(0, 7)),
             (_mink(3).algebra, range(0, 5)),
             (m2brane().algebra, range(0, 2))]
    for alg, degrees in cases:
        for degree in degrees:
            m1 = differential_matrix(alg, degree)
            m2 = differential_matrix(alg, degree + 1)
            by_row = {}
            for (r1, c1), w in m1.entries.items():
                by_row.setdefault(r1, []).append((c1, w))
            prod = {}
            for (r, c), v in m2.entries.items():
                for c1, w in by_row.get(c, ()):
                    key = (r, c1)
                    prod[key] = prod.get(key, Fraction(0)) + v * w
            assert all(v == 0 for v in prod.values())


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
    assert rank(m) == rank(reversed_rows) == rank(m.transpose())


def test_each_basis_enumerated_once_per_matrix(monkeypatch):
    """`differential_matrix` is the only caller of `monomial_basis` on the
    decision paths: one matrix, two bases."""
    import cealg.linalg as la

    calls = []
    real = la.monomial_basis

    def counting(A, degree, cap=la.DEFAULT_CAP):
        calls.append(degree)
        return real(A, degree, cap)

    monkeypatch.setattr(la, "monomial_basis", counting)
    alg = s4()
    g4 = Element.generator(alg.sig, "g4")
    dec = la.is_coboundary(alg, g4 * g4)
    assert dec.status == "yes" and sorted(calls) == [7, 8]
    for n in (0, 5, 12):
        calls.clear()
        dims = la.cohomology_dims(alg, n)
        assert dims == [1 if k in (0, 4) else 0 for k in range(n + 1)]
        assert len(calls) <= 2 * (n + 1)


def test_solve_exact_and_unsolvable():
    # 2x2: [[1,2],[3,4]] v = (5, 6) -> v = (-4, 9/2)
    m = SparseRationalMatrix(2, 2, {(0, 0): Fraction(1), (0, 1): Fraction(2),
                                    (1, 0): Fraction(3), (1, 1): Fraction(4)})
    v = solve(m, [Fraction(5), Fraction(6)])
    assert v == [Fraction(-4), Fraction(9, 2)]
    # inconsistent: rows identical, different rhs
    m2 = SparseRationalMatrix(2, 2, {(0, 0): Fraction(1), (1, 0): Fraction(1)})
    assert solve(m2, [Fraction(1), Fraction(2)]) is None


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
    src = str(Path(cealg.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-O", "-c", WRONG_SOLVER_SCRIPT],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr


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
    dec = is_coboundary(alg, el, cap=2)
    assert dec.status == "capped"


def test_matrix_market_export():
    m = SparseRationalMatrix(2, 3, {(0, 0): Fraction(1, 2),
                                    (1, 2): Fraction(-3)})
    text = m.to_matrix_market()
    lines = text.strip().splitlines()
    assert lines[0].startswith("%%MatrixMarket")
    assert lines[1] == "2 3 2"
    assert "1 1 1/2" in lines and "2 3 -3/1" in lines
