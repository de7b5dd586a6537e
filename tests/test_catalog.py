"""Catalog constructions: named algebras, cocycles, extensions, lifts."""

from fractions import Fraction

import pytest

from cealg import (
    ChainHomotopy,
    Element,
    GeneratorDecl,
    NotClosed,
    NotProportional,
    RepMismatch,
    ZeroCocycle,
    adjoin_generator,
    apply_d,
    brane_cocycle,
    build_clifford,
    check_d_squared,
    check_homotopy,
    compose,
    identity_morphism,
    m2brane,
    m5_cocycle,
    make_morphism,
    measured_c,
    resolved_minkowski,
    set_generators_to_zero,
    sphere_model,
    super_minkowski,
    super_poincare,
    trace_power,
    transport,
    verify_brane_scan_entry,
    verify_m5_relation,
)
from cealg.catalog import (
    _mink,
    _mu,
    coefficient_line,
    equivariant_lift,
    proportionality_constant,
    resolution_homotopy_report,
)
from cealg.graded import EVEN


def test_super_minkowski_shapes_and_rep_mismatch():
    cat11 = super_minkowski(11, build_clifford(11))
    assert len(cat11.algebra.sig) == 43
    cat3 = super_minkowski(3, build_clifford(3))
    assert len(cat3.algebra.sig) == 5
    with pytest.raises(RepMismatch):
        super_minkowski(11, build_clifford(3))


def test_psi_closed_and_e_differential_quadratic():
    alg = _mink(11).algebra
    assert alg.d_of("psi^7").is_zero()
    de0 = alg.d_of("e^0")
    assert de0.is_homogeneous((2, 0))
    # C Gamma^0 = -Id: d e^0 = -sum_alpha (psi^alpha)^2
    assert len(de0) == 32
    assert set(de0.terms.values()) == {Fraction(-1)}


def test_zero_cocycles():
    cat = _mink(11)
    with pytest.raises(ZeroCocycle):
        brane_cocycle(cat, 0)
    with pytest.raises(ZeroCocycle):
        brane_cocycle(cat, 3)
    with pytest.raises(ZeroCocycle):
        brane_cocycle(cat, 4)


def test_mu_closures():
    assert apply_d(_mink(3).algebra, _mu(3, 1)).is_zero()
    assert apply_d(_mink(11).algebra, _mu(11, 2)).is_zero()
    # p = 1 in d = 11 is not closed (no superstring in d = 11)
    mu3_11 = _mu(11, 1)
    assert not apply_d(_mink(11).algebra, mu3_11).is_zero()


def test_m5_relation_pins_c_15():
    rep = verify_m5_relation()
    assert rep.ok
    assert rep.pinned["c"] == "15/1"
    assert measured_c() == 15


def test_m5_relation_computed_once_per_process():
    # measured_c() must reuse the verify_m5_relation() cache entry
    verify_m5_relation()
    measured_c()
    assert verify_m5_relation.cache_info().currsize == 1


def test_run_task_times_a_copy_of_the_cached_report():
    from cealg.reporting import run_task

    rep = run_task("m5.relation")
    assert rep.ok and rep is not verify_m5_relation()
    assert verify_m5_relation().duration_s == 0.0


def test_proportionality_negative_control():
    alg = _mink(11).algebra
    mu4 = _mu(11, 2)
    mu7 = _mu(11, 5)
    m0 = min(mu7.terms)
    perturbed = mu7 + Element(mu7.sig, {m0: Fraction(1)})
    with pytest.raises(NotProportional) as exc:
        proportionality_constant(apply_d(alg, perturbed), mu4 * mu4)
    assert exc.value.residual is not None and not exc.value.residual.is_zero()



def test_proportionality_zero_sides():
    mu3 = _mu(3, 1)
    zero = Element.zero(mu3.sig)
    assert proportionality_constant(zero, mu3) == 0
    assert proportionality_constant(zero, zero) == 0
    assert proportionality_constant(-3 * mu3, mu3) == -3
    with pytest.raises(NotProportional) as exc:
        proportionality_constant(mu3, zero)
    assert exc.value.residual == mu3
    # lhs misses rhs's first monomial, so the tried c is 0
    m0 = min(mu3.terms)
    shifted = mu3 - Element(mu3.sig, {m0: mu3.terms[m0]})
    assert shifted
    with pytest.raises(NotProportional) as exc:
        proportionality_constant(shifted, mu3)
    assert exc.value.residual == shifted


def test_m2brane_extension():
    m2 = m2brane()
    assert "h3" in m2.algebra.sig.names
    assert m2.algebra.d_of("h3") == -transport(_mu(11, 2), m2.algebra.sig)
    assert check_d_squared(m2.algebra).ok


def test_adjoin_non_closed_mu7_rejected():
    mink = _mink(11)
    with pytest.raises(NotClosed):
        adjoin_generator(mink.algebra, GeneratorDecl("b6", (), 6, EVEN),
                         _mu(11, 5))


def test_adjoin_with_alternative_normalization():
    # the scale parameter reproduces the d h3 = -15 mu4 convention
    mink = _mink(11)
    ext = adjoin_generator(mink.algebra, GeneratorDecl("h3", (), 3, EVEN),
                           _mu(11, 2), lam=-15)
    assert ext.d_of("h3") == -15 * transport(_mu(11, 2), ext.sig)


def test_m5_cocycle_closed_and_wrong_normalization_fails():
    chi, rep = m5_cocycle()
    assert rep.ok
    m2 = m2brane()
    sig = m2.algebra.sig
    h3 = Element.generator(sig, "h3")
    mu4 = transport(_mu(11, 2), sig)
    mu7 = transport(_mu(11, 5), sig)
    c = measured_c()
    bad = h3 * mu4 + (2 / c) * mu7
    res = apply_d(m2.algebra, bad)
    assert not res.is_zero()
    # the leftover is exactly mu4^2
    assert res == mu4 * mu4
    # and d(h3 mu4) alone is -mu4^2
    assert apply_d(m2.algebra, h3 * mu4) == -(mu4 * mu4)


def test_resolution_round_trip_and_homotopy():
    cat, p, iota, s = resolved_minkowski()
    mink_alg = _mink(11).algebra
    assert compose(iota, p) == identity_morphism(mink_alg)
    rep = resolution_homotopy_report()
    assert rep.ok
    # d h3 = g4 - mu4 realizes the homotopy identity on g4
    sig = cat.algebra.sig
    g4 = Element.generator(sig, "g4")
    mu4 = transport(_mu(11, 2), sig)
    assert apply_d(cat.algebra, Element.generator(sig, "h3")) == g4 - mu4


def test_wrong_homotopy_scale_fails():
    cat, p, iota, s = resolved_minkowski()
    sig = cat.algebra.sig
    ident = identity_morphism(cat.algebra)
    around = compose(p, iota)
    bad = ChainHomotopy(ident, around,
                        {"g4": 2 * Element.generator(sig, "h3")})
    rep = check_homotopy(ident, around, bad)
    assert not rep.ok and rep.witness == "g4"


def test_homotopy_f_f_zero_on_projection():
    cat, p, iota, s = resolved_minkowski()
    zero = ChainHomotopy(p, p, {})
    assert check_homotopy(p, p, zero).ok


def test_equivariant_lift_identity():
    phi, rep = equivariant_lift()
    assert rep.ok  # includes the residual-zero chain check on g7
    # the displayed identity: (g4 - mu4)(g4 + mu4) + mu4^2 = g4^2
    cat, _, _, _ = resolved_minkowski()
    sig = cat.algebra.sig
    g4 = Element.generator(sig, "g4")
    mu4 = transport(_mu(11, 2), sig)
    assert (g4 - mu4) * (g4 + mu4) + mu4 * mu4 == g4 * g4
    # chain check on g4: 0 = 0
    assert apply_d(cat.algebra, phi.image_of("g4")).is_zero()


def test_kill_translations_in_m2brane_leaves_free_h3():
    m2 = m2brane()
    names = [d.name for d in m2.algebra.sig.decls if d.family in ("e", "psi")]
    quotient = set_generators_to_zero(m2.algebra, names)
    assert list(quotient.sig.names) == ["h3"]
    assert quotient.d_of("h3").is_zero()


def test_coefficient_line():
    line = coefficient_line(2)
    assert list(line.algebra.sig.names) == ["g4"]
    assert line.algebra.d_of("g4").is_zero()
    # mu4 as a validated morphism from the line
    f = make_morphism(line.algebra, _mink(11).algebra, {"g4": _mu(11, 2)})
    assert f.image_of("g4") == _mu(11, 2)


def test_super_poincare_d_squared():
    iso = super_poincare()
    assert len(iso.algebra.sig) == 43 + 55
    assert check_d_squared(iso.algebra).ok


def test_mu4_still_closed_on_iso():
    iso = super_poincare()
    mu4 = transport(_mu(11, 2), iso.algebra.sig)
    assert apply_d(iso.algebra, mu4).is_zero()


def test_traces_small():
    assert trace_power("superPoincare", 2).is_zero()
    assert trace_power("superPoincare", 4).is_zero()
    tr3 = trace_power("superPoincare", 3)
    assert len(tr3) == 165
    assert apply_d(super_poincare().algebra, tr3).is_zero()


def test_lorentz_trace_validation():
    from cealg import Unsupported, lorentz_trace

    with pytest.raises(Unsupported):
        lorentz_trace(5)
    tr3, rep = lorentz_trace(3)
    assert rep.ok and len(tr3) == 165


def test_brane_scan_entries():
    e1 = verify_brane_scan_entry(3, 2, 1)
    assert e1.closed and e1.nontrivial == "yes"
    e2 = verify_brane_scan_entry(3, 2, 2)
    # closed by the d=3 duality Gamma^{ab} ~ eps^{abc} Gamma_c, but exact:
    # not a brane-scan entry
    assert e2.closed and e2.nontrivial == "no"
    e3 = verify_brane_scan_entry(11, 32, 2)
    assert e3.closed and e3.nontrivial == "yes"
    from cealg import Unsupported

    with pytest.raises(Unsupported):
        verify_brane_scan_entry(3, 4, 1)


def test_chain_map_extends_on_catalog_morphism():
    # validated on generators implies it on monomials; at most one g4 per
    # word keeps p(m) away from mu4^2-sized elements
    import random

    cat, p, iota, s = resolved_minkowski()
    rng = random.Random(5)
    sig = cat.algebra.sig
    names = ["e^0", "e^5", "psi^1", "psi^31", "h3"]
    for _ in range(25):
        word = [(rng.choice(names), 1) for _ in range(rng.randint(0, 3))]
        if rng.random() < 0.5:
            word.append(("g4", 1))
        m = Element.from_terms(sig, [(1, word)])
        assert apply_d(_mink(11).algebra, p(m)) == p(apply_d(cat.algebra, m))
