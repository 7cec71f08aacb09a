"""Coefficient-table certificates: margins, rates, and bounds."""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpsfde import certificates
from hpsfde.certificates import (STRICTNESS_MARGIN, CertificateData,
                                 CertificateRow, certify_epsilon_exponential,
                                 check_existence, existence_margins,
                                 moment_bound, polynomial_margins,
                                 solve_epsilon_exponential,
                                 solve_epsilon_polynomial,
                                 time_average_bound,
                                 time_average_denominator)
from hpsfde.errors import NonPositiveDenominator, NotApplicable, ZeroEpsilon
from hpsfde.lyapunov import eval_LV
from hpsfde.models import PantographTerm
from hpsfde.paths import ConstantSegment
from hpsfde.presets import (PRESET_NAMES, preset, preset_certificate,
                            preset_lyapunov)


def simple_data(a=2.0, b_alpha=((0.5, 1.0),), theta=0.5, beta=None, a0=0.0):
    return CertificateData(a0=a0, rows=(CertificateRow(a=a, b_alpha=b_alpha),),
                           theta_lower=theta, t0=1.0, beta=beta)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_row_validation():
    with pytest.raises(ValueError):
        CertificateRow(a=-1.0, b_alpha=())
    with pytest.raises(ValueError):
        CertificateRow(a=1.0, b_alpha=((-0.1, 0.5),))
    with pytest.raises(ValueError):
        CertificateRow(a=1.0, b_alpha=((0.1, 1.5),))


def test_data_validation():
    row = CertificateRow(a=2.0, b_alpha=((0.5, 0.5),))
    with pytest.raises(ValueError):
        CertificateData(a0=-1.0, rows=(row,), theta_lower=0.5, t0=1.0)
    with pytest.raises(ValueError):
        CertificateData(a0=0.0, rows=(), theta_lower=0.5, t0=1.0)
    with pytest.raises(ValueError):
        CertificateData(a0=0.0, rows=(row,), theta_lower=1.0, t0=1.0)
    with pytest.raises(ValueError):
        CertificateData(a0=0.0, rows=(row,), theta_lower=0.5, t0=0.0)
    with pytest.raises(ValueError):
        CertificateData(a0=0.0, rows=(row,), theta_lower=0.5, t0=1.0,
                        beta=2.0)  # beta must be < a_1
    with pytest.raises(ValueError):
        CertificateData(a0=0.0, rows=(row,), theta_lower=0.5, t0=1.0,
                        beta=0.0)
    ok = CertificateData(a0=0.0, rows=(row,), theta_lower=0.5, t0=1.0,
                         beta=1.0)
    assert ok.n_families == 1


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["a", "b", "alpha", "a0", "t0", "beta"])
def test_tables_reject_non_finite_numbers(field, bad):
    # with a NaN b, min(beta, nan) would certify epsilon = beta
    row = {"a": 2.0, "b": 0.5, "alpha": 0.5}
    data = {"a0": 0.0, "t0": 1.0, "beta": 1.0}
    (row if field in row else data)[field] = bad
    with pytest.raises(ValueError, match="finite"):
        CertificateData(rows=(CertificateRow(
            a=row["a"], b_alpha=((row["b"], row["alpha"]),)),),
            theta_lower=0.5, **data)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_preset_certificate_is_tied_to_model_and_lyapunov(name):
    m, fam = preset(name), preset_lyapunov(name)
    cert = preset_certificate(name)
    assert cert.theta_lower == m.theta_lower
    kernels = [term.kernel for terms in m.drift + m.diffusion
               for term in terms if isinstance(term, PantographTerm)
               and term.kernel is not None]
    assert (cert.beta is None) == (not kernels)
    assert all(k.beta == cert.beta for k in kernels)
    # on a constant segment the kernel factor is at most 1, so the
    # dissipation hypothesis implies LV <= a0 + sum_k (-a_k + sum_l b_kl)
    # |c|^{u_k}; equality holds only at c = 0
    for c in np.linspace(-3.0, 3.0, 61):
        seg = ConstantSegment(c, m.theta_lower)
        bound = cert.a0 + sum(
            (-row.a + sum(b for b, _ in row.b_alpha)) * abs(c) ** u
            for row, u in zip(cert.rows, fam.u_powers))
        for i in (1, 2):
            for t in (1.0, 2.0, 5.0, 20.0):
                lv = eval_LV(fam, m, seg, t, i).value
                assert lv <= bound, (c, i, t, lv, bound)
                assert lv < bound or c == 0.0


# ---------------------------------------------------------------------------
# existence margins
# ---------------------------------------------------------------------------

EXACT_MARGINS = {
    # -a + sum b*alpha + (1/theta) sum b*(1-alpha), in exact arithmetic
    "exp_stable": (
        -Fraction(18, 10) + Fraction(1, 2)
        + 2 * (Fraction(1, 2) + Fraction(8, 100)),
        -Fraction(34, 10) + (Fraction(6, 10) * Fraction(5, 6)
                             + Fraction(12, 10) * Fraction(2, 3))
        + 2 * (Fraction(6, 10) * Fraction(1, 6)
               + Fraction(12, 10) * Fraction(1, 3)),
    ),
    "switch_stabilized": (
        -Fraction(264, 100) + 1 + Fraction(10, 7),
        -Fraction(624, 100) + Fraction(1, 8) + Fraction(10, 7) * Fraction(1, 8),
    ),
    "poly_stable": (
        -Fraction(332, 100) + Fraction(3, 2) + Fraction(4, 3) * Fraction(1, 2),
        -Fraction(855, 100) + Fraction(12, 100) + Fraction(4, 3)
        * Fraction(12, 100),
    ),
}


@pytest.mark.parametrize("name", sorted(EXACT_MARGINS))
def test_preset_margins_match_exact_arithmetic(name):
    margins = existence_margins(preset_certificate(name))
    exact = EXACT_MARGINS[name]
    assert len(margins) == 2
    for got, want in zip(margins, exact):
        assert got == pytest.approx(float(want), abs=1e-13)
        assert want < 0


def test_check_existence_holds_for_presets():
    for name in EXACT_MARGINS:
        verdict = check_existence(preset_certificate(name))
        assert verdict.holds
        assert all(m < 0 for m in verdict.margins)
        assert len(verdict.detail) == 2
        assert "need <= 0" in verdict.detail[0]


def test_check_existence_reports_violation():
    verdict = check_existence(simple_data(a=0.5, b_alpha=((1.0, 0.5),)))
    # -0.5 + 0.5 + 1.0 = 1.0
    assert not verdict.holds
    assert verdict.margins[0] == pytest.approx(1.0)


@given(st.integers(1, 50), st.integers(1, 50), st.integers(0, 100),
       st.integers(1, 99))
@settings(max_examples=100, deadline=None)
def test_margin_matches_fraction_arithmetic(a_num, b_num, alpha_pct, th_pct):
    a = Fraction(a_num, 10)
    b = Fraction(b_num, 10)
    alpha = Fraction(alpha_pct, 100)
    theta = Fraction(th_pct, 100)
    exact = -a + b * alpha + (b * (1 - alpha)) / theta
    data = CertificateData(
        a0=0.0, rows=(CertificateRow(a=float(a),
                                     b_alpha=((float(b), float(alpha)),)),),
        theta_lower=float(theta), t0=1.0)
    got = existence_margins(data)[0]
    assert abs(got - float(exact)) <= 1e-10 * max(1.0, abs(float(exact)))


# ---------------------------------------------------------------------------
# exponential rate
# ---------------------------------------------------------------------------

def test_solver_backs_off_strictness_margin():
    c = preset_certificate("exp_stable")
    verdict = solve_epsilon_exponential(c)
    assert verdict.holds
    sup = -existence_margins(c)[0]
    assert verdict.epsilon_sup == pytest.approx(sup, abs=1e-15)
    assert verdict.epsilon == pytest.approx(sup - STRICTNESS_MARGIN,
                                            abs=1e-15)
    assert verdict.epsilon_sup == pytest.approx(0.14, abs=1e-12)


def test_solver_respects_beta_cap():
    c = simple_data(a=3.0, b_alpha=((0.5, 1.0),), beta=0.8)
    # sup = 3.0 - 0.5 = 2.5, but beta caps the certified rate at 0.8
    verdict = solve_epsilon_exponential(c)
    assert verdict.holds
    assert verdict.epsilon == 0.8
    assert verdict.epsilon_sup == pytest.approx(2.5)


def test_solver_switch_stabilized_rate():
    verdict = solve_epsilon_exponential(preset_certificate("switch_stabilized"))
    assert verdict.holds
    assert verdict.epsilon_sup == pytest.approx(0.21142857142857144,
                                                abs=1e-12)
    assert verdict.epsilon < verdict.epsilon_sup


def test_solver_needs_beta():
    with pytest.raises(NotApplicable):
        solve_epsilon_exponential(preset_certificate("poly_stable"))


def test_solver_needs_strict_margins():
    # margin exactly zero: -1.5 + 0.5 + 1.0
    c = simple_data(a=1.5, b_alpha=((0.5, 1.0), (0.5, 0.0)), beta=1.0)
    with pytest.raises(NotApplicable):
        solve_epsilon_exponential(c)


def test_solver_without_room_reports_failure():
    # sup = 5e-10 is strictly positive but below the strictness margin
    c = simple_data(a=1.0 + 5e-10, b_alpha=((0.5, 1.0), (0.25, 0.0)),
                    beta=0.5)
    verdict = solve_epsilon_exponential(c)
    assert not verdict.holds
    assert verdict.epsilon is None
    assert verdict.epsilon_sup == pytest.approx(5e-10, rel=1e-3)


def test_certify_specific_rates():
    c = preset_certificate("exp_stable")
    assert certify_epsilon_exponential(c, 0.05).holds
    assert certify_epsilon_exponential(c, 0.139).holds
    assert not certify_epsilon_exponential(c, 0.15).holds
    assert not certify_epsilon_exponential(c, -0.01).holds
    c2 = preset_certificate("switch_stabilized")
    assert certify_epsilon_exponential(c2, 0.1).holds
    assert not certify_epsilon_exponential(c2, 0.3).holds


def test_certify_exact_boundary():
    # sup = 1.5 exactly in floats; the boundary itself must fail (no
    # strict room) while one strictness margin below it passes
    c = simple_data(a=2.0, b_alpha=((0.5, 1.0),), beta=1.9)
    assert not certify_epsilon_exponential(c, 1.5).holds
    assert certify_epsilon_exponential(c, 1.5 - 1e-9).holds
    # above beta fails even though the margin has room
    assert not certify_epsilon_exponential(c, 1.95).holds


@given(st.floats(0.5, 5.0), st.floats(0.0, 0.4), st.floats(0.0, 1.0),
       st.floats(0.2, 0.9))
@settings(max_examples=100, deadline=None)
def test_solved_rate_always_certifies(a, b, alpha, theta):
    margin = -a + b * alpha + b * (1 - alpha) / theta
    if margin >= 0:
        return
    beta = 0.9 * a
    c = simple_data(a=a, b_alpha=((b, alpha),), theta=theta, beta=beta)
    verdict = solve_epsilon_exponential(c)
    if verdict.holds:
        followup = certify_epsilon_exponential(c, verdict.epsilon)
        assert followup.holds
        assert verdict.epsilon <= beta
        assert verdict.epsilon < verdict.epsilon_sup


# ---------------------------------------------------------------------------
# moment and time-average bounds
# ---------------------------------------------------------------------------

def test_moment_bound():
    c = simple_data(a=2.0, a0=3.0)
    assert moment_bound(c, 0.5) == pytest.approx(6.0)
    assert moment_bound(preset_certificate("exp_stable"), 0.05) == 0.0
    with pytest.raises(ZeroEpsilon):
        moment_bound(c, 0.0)
    with pytest.raises(ZeroEpsilon):
        moment_bound(c, -1.0)


def test_time_average_denominator_exp_stable():
    c = preset_certificate("exp_stable")
    factor = math.exp(-0.5 * 0.5 * 1.0)
    assert time_average_denominator(c, 1) == pytest.approx(
        1.8 - factor * (0.5 + 0.58 / 0.5), abs=1e-14)
    assert time_average_denominator(c, 2) == pytest.approx(
        3.4 - factor * (1.3 + 0.5 / 0.5), abs=1e-14)
    with pytest.raises(ValueError):
        time_average_denominator(c, 0)
    with pytest.raises(ValueError):
        time_average_denominator(c, 3)


def test_time_average_denominator_without_beta_negates_margin():
    c = preset_certificate("poly_stable")
    margins = existence_margins(c)
    for k in (1, 2):
        assert time_average_denominator(c, k) == pytest.approx(
            -margins[k - 1], abs=1e-13)


def test_time_average_bound_values():
    for name in ("exp_stable", "switch_stabilized"):
        c = preset_certificate(name)
        for k in (1, 2):
            assert time_average_denominator(c, k) > 0
            assert time_average_bound(c, k) == 0.0  # a0 = 0
    c = simple_data(a=1.0, b_alpha=((2.0, 0.5),), beta=0.5, a0=1.0)
    with pytest.raises(NonPositiveDenominator):
        time_average_bound(c, 1)


# ---------------------------------------------------------------------------
# polynomial rate
# ---------------------------------------------------------------------------

def test_polynomial_margins_at_zero_match_existence():
    c = preset_certificate("poly_stable")
    got = polynomial_margins(c, 0.0)
    want = existence_margins(c)
    for g, w in zip(got, want):
        assert g == pytest.approx(w, abs=1e-14)


def test_polynomial_rate_matches_fixed_point():
    # the binding k=1 constraint solves
    #   eps = a_1 - sum b alpha - theta^{-(1+eps)} sum b (1-alpha),
    # a contraction; iterate it to an independent root estimate
    c = preset_certificate("poly_stable")
    eps = 0.5
    for _ in range(200):
        eps = 3.32 - 1.5 - 0.5 * 0.75 ** (-(1.0 + eps))
    verdict = solve_epsilon_polynomial(c)
    assert verdict.holds
    assert verdict.epsilon_sup == pytest.approx(eps, abs=1e-9)
    assert verdict.epsilon == pytest.approx(eps - STRICTNESS_MARGIN, abs=1e-9)
    assert verdict.epsilon == pytest.approx(0.9450518362523032, abs=1e-8)
    # k=2 is slack at the root
    assert polynomial_margins(c, verdict.epsilon)[1] < -1.0


def test_polynomial_rate_brackets_the_boundary():
    c = preset_certificate("poly_stable")
    verdict = solve_epsilon_polynomial(c)
    at_eps = polynomial_margins(c, verdict.epsilon)
    assert all(m < 0 for m in at_eps)
    beyond = polynomial_margins(c, verdict.epsilon_sup + 1e-8)
    assert any(m >= 0 for m in beyond)


def test_polynomial_rate_requires_zero_a0():
    c = simple_data(a=2.0, a0=1.0)
    with pytest.raises(NotApplicable):
        solve_epsilon_polynomial(c)


def test_polynomial_rate_flags_ignored_beta():
    verdict = solve_epsilon_polynomial(preset_certificate("switch_stabilized"))
    assert verdict.notes
    assert "ignored" in verdict.notes[0]


def test_polynomial_rate_infeasible_table():
    c = simple_data(a=1.0, b_alpha=((1.0, 0.5),))
    verdict = solve_epsilon_polynomial(c)
    assert not verdict.holds
    assert verdict.epsilon is None
    assert "infeasible" in verdict.detail[0]


def test_polynomial_rate_below_the_strictness_margin():
    # the k=1 margin is epsilon - 5e-10: feasible only below 5e-10,
    # which leaves no rate above STRICTNESS_MARGIN (1e-9)
    c = simple_data(a=1.0 + 5e-10, b_alpha=((1.0, 1.0),))
    verdict = solve_epsilon_polynomial(c)
    assert not verdict.holds
    assert verdict.epsilon is None
    assert 0.0 < verdict.epsilon_sup < STRICTNESS_MARGIN
    assert "no room above the strictness margin" in verdict.detail[0]


@given(st.floats(0.5, 10.0), st.floats(0.0, 2.0), st.floats(0.0, 1.0),
       st.floats(0.1, 0.9), st.floats(0.0, 3.0), st.floats(0.001, 2.0))
@settings(max_examples=100, deadline=None)
def test_polynomial_margins_nondecreasing_in_epsilon(a, b, alpha, theta,
                                                     eps, step):
    c = CertificateData(
        a0=0.0,
        rows=(CertificateRow(a=a, b_alpha=((b, alpha),)),
              CertificateRow(a=a, b_alpha=((b, 1.0 - alpha),))),
        theta_lower=theta, t0=1.0)
    lo = polynomial_margins(c, eps)
    hi = polynomial_margins(c, eps + step)
    for m_lo, m_hi in zip(lo, hi):
        assert m_hi >= m_lo - 1e-12


def test_bisection_tolerance_is_tight(monkeypatch):
    # re-running at a coarser tolerance moves the root estimate by more
    # than the default tolerance does
    c = preset_certificate("poly_stable")
    fine = solve_epsilon_polynomial(c)
    monkeypatch.setattr(certificates, "BISECTION_TOL", 1e-4)
    coarse = solve_epsilon_polynomial(c)
    assert abs(fine.epsilon_sup - coarse.epsilon_sup) < 1e-4
    assert fine.holds and coarse.holds
