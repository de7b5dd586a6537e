"""The pinned convention ledger.

Every reported constant depends on the choices below; the ledger hash is
embedded in every report so that scalars are only ever compared between
builds that share conventions.
"""

from __future__ import annotations

from fractions import Fraction

CONVENTIONS = """\
convention ledger v1

coefficients
  exact rationals with arbitrary-precision integers; no floats anywhere.

grading and signs
  generators carry a bidegree (n, parity); two generators commute up to
  (-1)^(n n' + parity parity'); a generator squares to zero exactly when
  n + parity is odd.  the canonical generator order is lexicographic on
  (family name, integer index tuple); monomial sorting signs are absorbed
  into coefficients.  the differential has bidegree (1, even), so it
  crosses a factor of degree n at the cost of (-1)^n.

metric
  eta = diag(-1, +1, ..., +1); index 0 is timelike.  frame indices are
  lowered and raised with eta.

gamma matrices (all integer signed-permutation matrices)
  d=3, N=2:  Gamma^0 = [[0,1],[-1,0]], Gamma^1 = [[0,1],[1,0]],
             Gamma^2 = [[1,0],[0,-1]]; C = Gamma^0.
  d=11, N=32: Gamma^0 = eps (x) 1_16, Gamma^i = sigma1 (x) gamma9_i for
             i = 1..9, Gamma^10 = sigma3 (x) 1_16, where gamma9_1..gamma9_9
             are the nine symmetric anticommuting 16x16 involutions built
             from octonion left-multiplication matrices (Cayley-Dickson
             basis) in off-diagonal blocks plus the diagonal involution;
             C = Gamma^0.  C Gamma^(p) is symmetric for p in {1, 2, 5} and
             antisymmetric for p in {0, 3, 4}.
  Gamma^{a1..ap} for distinct indices is the ordered product.

spinor bilinears and cocycles
  psibar Gamma^(p) psi means sum over all alpha, beta of
  (C Gamma^(p))[alpha, beta] psi^alpha psi^beta.
  mu_{p+2} = sum over ALL ordered p-tuples (a1..ap) of
  (C Gamma^{a1..ap}) psi psi e_{a1} ... e_{ap} with eta-lowered e's and no
  1/p! weight (equal to p! times the strictly-increasing sum).

differentials
  super-Minkowski: d psi = 0, d e^a = psibar Gamma^a psi.
  membrane extension: d h3 = -mu4.
  resolved algebras: d g4 = 0, d h3 = g4 - mu4.
  super-Poincare: d omega^a_b = omega^a_c omega^c_b,
  d psi = (1/4) omega_{ab} Gamma^{ab} psi,
  d e^a = omega^a_b e^b + psibar Gamma^a psi; the independent rotational
  generators are omega_{ab} with a < b.

measured proportionality constant
  with the conventions above, d mu7 = c mu4^2 holds exactly with
  c = 15, agreeing with the commonly quoted normalization in which the
  constant is 15; no convention correction factor is needed.
"""

#: sha256 of CONVENTIONS, hex; a literal, since importing `hashlib` loads
#: OpenSSL's libcrypto, about 3.6 MiB of RSS in every process.
#: `tests/test_cli.py` recomputes it.
LEDGER_HASH = (
    "a20f8e623c242b9b101b423a363b0f6111e571a2d6ca59c77cd06f0a2c7e3ff4")

#: d mu7 = MEASURED_C * mu4 wedge mu4, measured symbolically and confirmed
#: by the sparse tensor contraction path.
MEASURED_C = Fraction(15)
