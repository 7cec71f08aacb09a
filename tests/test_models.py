"""Measures, kernels, coefficient terms, and model validation."""
from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpsfde.errors import NonFiniteState, UnsupportedMeasure
from hpsfde.integrator import IntegratorConfig, run_batch
from hpsfde.lyapunov import PolynomialV, eval_LV, martingale_residual
from hpsfde.markov import make_generator, sample_regime_path
from hpsfde.models import (Kernel, Measure, ModelSpec, PantographTerm,
                           PolynomialTerm, _Pass, single_regime)
from hpsfde.paths import ConstantSegment
from hpsfde.presets import default_measure, preset, preset_lyapunov

THREE_ATOMS = Measure.from_atoms([(0.5, 1 / 3), (0.75, 1 / 3), (1.0, 1 / 3)])


def coefficients_at(m, seg, t, i):
    """Regime i's drift and diffusion at one segment, as LV reads them."""
    return tuple(float(v) for v in _Pass(m, seg.point, seg, t).regime(i))


# ---------------------------------------------------------------------------
# measures
# ---------------------------------------------------------------------------

def test_atom_measure_mass_validation():
    with pytest.raises(UnsupportedMeasure):
        Measure.from_atoms([(0.5, 0.5), (1.0, 0.6)])
    with pytest.raises(UnsupportedMeasure):
        Measure.from_atoms([(0.5, -0.1), (1.0, 1.1)])
    with pytest.raises(UnsupportedMeasure):
        Measure.from_atoms([])


def test_atom_measure_tolerates_tiny_mass_error():
    Measure.from_atoms([(0.5, 0.5), (1.0, 0.5 + 1e-13)])


def test_point_mass_quadrature_is_exact():
    nu = Measure.point_mass(0.8)
    th, w = nu.thetas, nu.weights
    assert np.array_equal(th, [0.8])
    assert np.array_equal(w, [1.0])


def test_density_measure_validation():
    with pytest.raises(UnsupportedMeasure):
        Measure.piecewise_density([0.5, 1.0], [1.0])  # mass 0.5
    with pytest.raises(UnsupportedMeasure):
        Measure.piecewise_density([1.0, 0.5], [2.0])  # edges decreasing
    with pytest.raises(UnsupportedMeasure):
        Measure.piecewise_density([0.5, 1.0], [-2.0])
    with pytest.raises(UnsupportedMeasure, match="len"):
        Measure.piecewise_density([0.5, 0.75, 1.0], [2.0])
    with pytest.raises(UnsupportedMeasure, match="nodes must be >= 2"):
        Measure.uniform(0.5, 1.0, nodes=1)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_measures_reject_non_finite_numbers(bad):
    # a NaN weight would make every path "explode" as non-finite
    for atoms in ([(bad, 1.0)], [(0.5, bad)], [(0.5, 0.5), (1.0, bad)]):
        with pytest.raises(UnsupportedMeasure, match="finite"):
            Measure.from_atoms(atoms)
    with pytest.raises(UnsupportedMeasure, match="finite"):
        Measure.piecewise_density([0.5, bad], [2.0])
    with pytest.raises(UnsupportedMeasure, match="finite"):
        Measure.piecewise_density([0.5, 1.0], [bad])


@pytest.mark.parametrize("thetas, weights", [
    ((0.5, 1.0), (2.0, 0.5)),
    ((0.5, 1.0), (1.0,)),
    ((), ()),
    ((0.5, 1.0), (-0.5, 1.5)),
    ((math.nan, 1.0), (0.5, 0.5)),
], ids=["mass-2.5", "unequal-lengths", "empty", "negative-weight",
        "nan-node"])
def test_measure_constructor_checks_its_quadrature(thetas, weights):
    with pytest.raises(UnsupportedMeasure):
        Measure(thetas, weights)


def test_measure_holds_read_only_float64_arrays():
    nu = Measure([0.5, 1], [0.25, 0.75])
    assert nu.thetas.dtype == nu.weights.dtype == np.float64
    for a in (nu.thetas, nu.weights):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0


def test_uniform_density_trapezoid_exact_for_linear_integrand():
    # integral of theta over U(0.5, 1) is 0.75; trapezoid is exact on
    # linear integrands at any node count
    nu = Measure.uniform(0.5, 1.0, nodes=7)
    th, w = nu.thetas, nu.weights
    assert abs(w.sum() - 1.0) < 1e-12
    assert abs((w * th).sum() - 0.75) < 1e-12


def test_density_quadrature_halving_converged():
    nu = Measure.uniform(0.5, 1.0, nodes=2048)
    exact = 2.0 * (1.0 - 0.125) / 3.0  # integral of 2 theta^2 on [1/2, 1]

    def integral(measure):
        th, w = measure.thetas, measure.weights
        return float((w * th ** 2).sum())

    coarse = integral(nu)
    fine = integral(Measure.uniform(0.5, 1.0, nodes=4096))
    assert abs(coarse - fine) < 1e-8
    assert abs(fine - exact) < 1e-8


def test_support_range():
    assert THREE_ATOMS.support_range() == (0.5, 1.0)
    assert Measure.uniform(0.6, 0.9).support_range() == (0.6, 0.9)


@given(st.lists(st.tuples(st.floats(min_value=0.5, max_value=1.0),
                          st.floats(min_value=0.01, max_value=1.0)),
                min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_atom_quadrature_weights_normalized(raw):
    total = sum(w for _, w in raw)
    atoms = [(t, w / total) for t, w in raw]
    nu = Measure.from_atoms(atoms)
    th, w = nu.thetas, nu.weights
    assert np.all(w >= 0)
    assert abs(w.sum() - 1.0) < 1e-12
    assert len(th) == len(atoms)


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

def test_linear_kernel_decay_closed_form():
    k = Kernel(0.5)
    assert k.decay(1.0, 7.0) == 1.0
    assert k.decay(0.5, 2.0) == pytest.approx(math.exp(-0.5), rel=1e-15)
    arr = k.decay(np.array([0.5, 1.0]), 2.0)
    assert arr.shape == (2,)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_kernel_rejects_non_finite_beta(bad):
    with pytest.raises(ValueError, match="finite"):
        Kernel(bad)


# ---------------------------------------------------------------------------
# terms
# ---------------------------------------------------------------------------

def test_polynomial_term_signed_powers():
    term = PolynomialTerm([(1, -5.0), (3, 2.0)])
    assert term.value(-1.0, None, 0.0) == pytest.approx(5.0 - 2.0)
    out = term.value(np.array([1.0, 2.0]), None, 0.0)
    assert np.allclose(out, [-3.0, 6.0])


def test_polynomial_term_rejects_bad_powers():
    with pytest.raises(ValueError):
        PolynomialTerm([(-1, 1.0)])
    with pytest.raises(ValueError):
        PolynomialTerm([(1.5, 1.0)])


@pytest.mark.parametrize("cls", [PolynomialTerm, PolynomialV])
@pytest.mark.parametrize("power", [math.inf, math.nan, True, np.True_, "2",
                                   None, -2, 2.5],
                         ids=["inf", "nan", "True", "np.True_", "'2'", "None",
                              "-2", "2.5"])
def test_polynomial_powers_follow_one_rule(cls, power):
    # a power is a real, non-bool number equal to a nonnegative integer
    with pytest.raises(ValueError, match="powers must be .*got %s"
                       % re.escape(repr(power))):
        cls([(power, 1.0)])


@pytest.mark.parametrize("cls", [PolynomialTerm, PolynomialV])
def test_polynomial_powers_accept_integral_numbers(cls):
    for good in (2, 2.0, np.int64(2), np.float64(2.0)):
        (p, _), = cls([(good, 1.0)]).coeffs
        assert p == 2 and type(p) is int
    # V's powers are also even
    PolynomialTerm([(3, 1.0)])
    with pytest.raises(ValueError, match="even nonnegative integers, got 3"):
        PolynomialV([(3, 1.0)])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_terms_reject_non_finite_numbers(bad):
    with pytest.raises(ValueError, match="coeff must be finite"):
        PolynomialTerm([(1, -1.0), (3, bad)])
    for field in ("coeff", "point_exponent", "delay_exponent"):
        numbers = {"coeff": 1.0, "point_exponent": 1.0,
                   "delay_exponent": 2.0, field: bad}
        with pytest.raises(ValueError, match="%s must be finite" % field):
            PantographTerm(measure=THREE_ATOMS, **numbers)


def test_pantograph_term_plain_average():
    term = PantographTerm(coeff=2.0, measure=THREE_ATOMS)
    phi_at = lambda th: np.asarray(th)
    want = 2.0 * (0.5 + 0.75 + 1.0) / 3.0
    assert term.value(1.0, phi_at, 1.0) == pytest.approx(want, rel=1e-14)


def test_pantograph_term_absolute_value_by_default():
    term = PantographTerm(coeff=1.0, measure=THREE_ATOMS)
    signed = PantographTerm(coeff=1.0, measure=THREE_ATOMS, signed=True)
    phi_at = lambda th: -np.asarray(th)
    avg = (0.5 + 0.75 + 1.0) / 3.0
    assert term.value(1.0, phi_at, 1.0) == pytest.approx(avg, rel=1e-14)
    assert signed.value(1.0, phi_at, 1.0) == pytest.approx(-avg, rel=1e-14)


def test_pantograph_term_exponents():
    term = PantographTerm(coeff=1.0, measure=THREE_ATOMS,
                          point_exponent=2.0, delay_exponent=3.0)
    phi_at = lambda th: np.asarray(th)
    want = 4.0 * (0.5 ** 3 + 0.75 ** 3 + 1.0) / 3.0  # |phi1|^2 = 4
    assert term.value(2.0, phi_at, 1.0) == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("exponent", ["point_exponent", "delay_exponent"])
def test_pantograph_term_rejects_negative_exponents(exponent):
    with pytest.raises(ValueError, match="exponents must be nonnegative"):
        PantographTerm(coeff=1.0, measure=THREE_ATOMS, **{exponent: -1.0})


def test_pantograph_term_kernel_decay():
    term = PantographTerm(coeff=0.05, measure=THREE_ATOMS,
                          kernel=Kernel(0.5))
    phi_at = lambda th: np.ones_like(np.asarray(th))
    want = 0.05 * (math.exp(-0.25) + math.exp(-0.125) + 1.0) / 3.0
    assert term.value(1.0, phi_at, 1.0) == pytest.approx(want, rel=1e-14)


def test_pantograph_signed_forbids_delay_exponent():
    with pytest.raises(ValueError):
        PantographTerm(coeff=1.0, measure=THREE_ATOMS, signed=True,
                       delay_exponent=2.0)


def test_pantograph_term_vector_phi1():
    term = PantographTerm(coeff=1.0, measure=THREE_ATOMS,
                          point_exponent=1.0)
    phi1 = np.array([1.0, 2.0, 3.0])
    phi_at = lambda th: np.ones((len(th), 3))
    out = term.value(phi1, phi_at, 1.0)
    assert out.shape == (3,)
    assert np.allclose(out, phi1)


# ---------------------------------------------------------------------------
# model validation and evaluation
# ---------------------------------------------------------------------------

def one_state():
    return make_generator([[0.0]])


def test_model_rejects_bad_theta_lower_and_t0():
    with pytest.raises(ValueError):
        ModelSpec(theta_lower=1.0, t0=1.0, generator=one_state(),
                  drift=((),), diffusion=((),), initial_segment=0.0)
    with pytest.raises(ValueError):
        ModelSpec(theta_lower=0.5, t0=0.0, generator=one_state(),
                  drift=((),), diffusion=((),), initial_segment=0.0)


@pytest.mark.parametrize("t0", [math.nan, math.inf])
def test_model_rejects_non_finite_t0(t0):
    with pytest.raises(ValueError, match="t0 must be finite"):
        ModelSpec(theta_lower=0.5, t0=t0, generator=one_state(),
                  drift=((),), diffusion=((),), initial_segment=0.0)


def test_preset_rejects_infinite_t0():
    with pytest.raises(ValueError, match="t0 must be finite"):
        preset("exp_stable", t0=math.inf)


def test_pantograph_term_needs_a_measure():
    with pytest.raises(TypeError, match="measure must be a Measure"):
        PantographTerm(coeff=1.0, measure=((1.0, 1.0),))


def test_model_requires_terms_per_regime():
    g = make_generator([[-1.0, 1.0], [2.0, -2.0]])
    with pytest.raises(ValueError):
        ModelSpec(theta_lower=0.5, t0=1.0, generator=g,
                  drift=((),), diffusion=((), ()), initial_segment=0.0)


def test_model_rejects_measure_outside_delay_range():
    nu = Measure.from_atoms([(0.3, 1.0)])
    with pytest.raises(UnsupportedMeasure):
        ModelSpec(theta_lower=0.5, t0=1.0, generator=one_state(),
                  drift=((PantographTerm(1.0, nu),),), diffusion=((),),
                  initial_segment=0.0)


def test_initial_value_forms():
    m = ModelSpec(theta_lower=0.5, t0=1.0, generator=one_state(),
                  drift=((),), diffusion=((),), initial_segment=0.7)
    assert m.initial_value(0.6).shape == ()
    assert m.initial_value(np.array([0.5, 1.0])).shape == (2,)
    assert np.all(m.initial_value(np.array([0.5, 1.0])) == 0.7)

    table = ModelSpec(theta_lower=0.5, t0=1.0, generator=one_state(),
                      drift=((),), diffusion=((),),
                      initial_segment=((0.5, 1.0), (0.0, 1.0)))
    assert table.initial_value(0.75) == pytest.approx(0.5)

    # initial data is a constant or a table, checked when it is built
    for other in (lambda t: math.sin(t), "0.7", [(0.5, 1.0), (0.0, 1.0)],
                  True, None):
        with pytest.raises(TypeError, match="a real constant or a "
                           r"\(times, values\) table"):
            ModelSpec(theta_lower=0.5, t0=1.0, generator=one_state(),
                      drift=((),), diffusion=((),), initial_segment=other)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(NonFiniteState, match="initial value"):
            ModelSpec(theta_lower=0.5, t0=1.0, generator=one_state(),
                      drift=((),), diffusion=((),), initial_segment=bad)


@pytest.mark.parametrize("table, why", [
    (((1.0, 0.5), (1.0, 3.0)), "finite and strictly increasing"),
    (((0.5, 0.5, 1.0), (1.0, 2.0, 3.0)), "finite and strictly increasing"),
    (((0.5, math.nan, 1.0), (1.0, 2.0, 3.0)),
     "finite and strictly increasing"),
    (((0.5, 1.0), (1.0, math.inf)), "values must be finite"),
    (((0.5, 0.75, 1.0), (1.0, 3.0)), "equal length"),
    (((0.9, 1.0), (1.0, 3.0)), r"cover \[theta_lower\*t0, t0\] = \[0.5, 1\]"),
    (((0.5, 0.9), (1.0, 3.0)), "cover"),
    (((), ()), "cover"),
], ids=["decreasing", "repeated", "nan-time", "inf-value", "lengths",
        "starts-late", "ends-early", "empty"])
def test_initial_table_is_validated(table, why):
    with pytest.raises(ValueError, match="initial table: .*" + why):
        ModelSpec(theta_lower=0.5, t0=1.0, generator=one_state(),
                  drift=((),), diffusion=((),), initial_segment=table)
    # presets build their model through the same check
    with pytest.raises(ValueError, match="initial table"):
        preset("exp_stable", initial=table)


def test_non_finite_initial_data_is_one_error():
    # a constant and a table value alike, and a ValueError as the other
    # initial-data checks are
    for initial in (math.inf, ((0.5, 1.0), (1.0, math.nan))):
        with pytest.raises(NonFiniteState) as err:
            ModelSpec(theta_lower=0.5, t0=1.0, generator=one_state(),
                      drift=((),), diffusion=((),), initial_segment=initial)
        assert isinstance(err.value, ValueError)


def test_initial_table_within_grid_tolerance_is_accepted():
    m = ModelSpec(theta_lower=0.5, t0=1.0, generator=one_state(),
                  drift=((),), diffusion=((),),
                  initial_segment=((0.5 + 1e-10, 0.8, 1.0 - 1e-10),
                                   (1.0, 2.0, 3.0)))
    assert m.initial_value(0.8) == 2.0


def test_preset_point_mass_spot_values():
    # with nu = delta_1 the delayed average equals the current point and
    # the kernel factor is exp(0) = 1 at any t
    m = preset("exp_stable", nu_choice=Measure.point_mass(1.0))
    seg = ConstantSegment(1.0, m.theta_lower)
    f, g = coefficients_at(m, seg, 3.0, 2)
    assert f == pytest.approx(0.1, rel=1e-14)
    assert g == pytest.approx(0.2, rel=1e-14)
    mp = preset("poly_stable", nu_choice=Measure.point_mass(1.0))
    seg = ConstantSegment(1.0, mp.theta_lower)
    assert coefficients_at(mp, seg, 5.0, 1)[1] == pytest.approx(
        0.2, rel=1e-14)


def test_preset_default_measure_drift_value():
    m = preset("exp_stable")
    seg = ConstantSegment(0.5, m.theta_lower)
    decay = (math.exp(-0.25) + math.exp(-0.125) + 1.0) / 3.0
    want = 0.05 * 0.5 + 0.05 * 0.5 * decay
    f, _ = coefficients_at(m, seg, 1.0, 2)
    assert f == pytest.approx(want, rel=1e-13)


def test_single_regime_preserves_coefficients():
    m = preset("exp_stable")
    sub = single_regime(m, 2)
    assert sub.n_regimes == 1
    seg = ConstantSegment(0.8, m.theta_lower)
    want = coefficients_at(m, seg, 2.0, 2)
    assert coefficients_at(sub, seg, 2.0, 1) == want
    with pytest.raises(ValueError):
        single_regime(m, 5)


_INDEXED_CALLS = {
    "run_batch": lambda m, i: run_batch(m, IntegratorConfig(dt=0.1, T=1.5),
                                        n_paths=2, i0=i, root_seed=0),
    "single_regime": single_regime,
    "eval_LV": lambda m, i: eval_LV(preset_lyapunov("exp_stable"), m,
                                    ConstantSegment(0.5, m.theta_lower),
                                    1.0, i),
    "sample_regime_path": lambda m, i: sample_regime_path(
        m.generator, i, 1.0, 2.0, seed=0),
}


@pytest.mark.parametrize("call", sorted(_INDEXED_CALLS))
def test_index_argument_is_an_integer_in_range(call):
    m = preset("exp_stable")
    fn = _INDEXED_CALLS[call]
    for bad in (0, 3, 2.0, 1.5, True, np.float64(2.0), "2", None):
        with pytest.raises(ValueError, match="must be an integer in 1..2"):
            fn(m, bad)
    # numpy integers index like Python ones
    fn(m, np.int64(2))
    fn(m, np.int16(1))


def test_default_measure_support_matches_preset():
    for name in ("exp_stable", "switch_stabilized", "poly_stable"):
        nu = default_measure(name)
        m = preset(name)
        lo, hi = nu.support_range()
        assert lo == m.theta_lower
        assert hi == 1.0


def test_unknown_preset_name_raises_one_error():
    with pytest.raises(ValueError) as from_preset:
        preset("nope")
    with pytest.raises(ValueError) as from_measure:
        default_measure("nope")
    assert str(from_measure.value) == str(from_preset.value)
    assert "unknown preset 'nope'" in str(from_preset.value)


def test_model_rejects_coefficients_that_are_not_terms():
    with pytest.raises(TypeError, match="regime 1 drift term 1 is a function"):
        ModelSpec(theta_lower=0.5, t0=1.0, generator=one_state(),
                  drift=((lambda x: x,),), diffusion=((),),
                  initial_segment=0.0)
    g = make_generator([[-1.0, 1.0], [2.0, -2.0]])
    with pytest.raises(TypeError, match="regime 2 diffusion term 2 is a "
                       "float, not a PolynomialTerm or PantographTerm$"):
        ModelSpec(theta_lower=0.5, t0=1.0, generator=g,
                  drift=((), ()),
                  diffusion=((), (PolynomialTerm([(1, 1.0)]), 0.1)),
                  initial_segment=0.0)


# ---------------------------------------------------------------------------
# the compiled plan against the per-term sum
# ---------------------------------------------------------------------------

_PLAN_MEASURES = (THREE_ATOMS, Measure.from_atoms([(1.0, 1.0)]),
                  Measure.uniform(0.5, 1.0))  # 64 trapezoid nodes
_PLAN_KERNELS = (None, Kernel(0.5), Kernel(0.0))
_PLAN_INTEGRANDS = ((1.0, False), (1.0, True), (2.0, False), (0.5, False))


def _history_lookup(thetas):
    # a delayed state of either sign, one column per row
    return np.cos(np.outer(thetas, np.arange(1.0, 8.0)) * 3.0) * 2.0


_pantograph_terms = st.builds(
    lambda coeff, nu, kernel, pe, integrand: PantographTerm(
        coeff=coeff, measure=_PLAN_MEASURES[nu], kernel=_PLAN_KERNELS[kernel],
        point_exponent=pe, delay_exponent=integrand[0],
        signed=integrand[1]),
    st.floats(-3.0, 3.0), st.integers(0, len(_PLAN_MEASURES) - 1),
    st.integers(0, len(_PLAN_KERNELS) - 1),
    st.sampled_from((0.0, 1.0, 1.5, 2.0)),
    st.sampled_from(_PLAN_INTEGRANDS))
_polynomial_terms = st.builds(
    PolynomialTerm,
    st.lists(st.tuples(st.integers(0, 7), st.floats(-5.0, 5.0)),
             max_size=4))
_term_lists = st.lists(st.one_of(_pantograph_terms, _polynomial_terms),
                       max_size=5)
# 1e200 overflows every power above 1 and every |x|**pe with pe > 1
_states = st.sampled_from((0.0, -0.0, 1e200, -1e200, 0.3, -1.7, 2.5))


def _per_term_sum(terms, X, phi_at, t):
    out = np.zeros_like(X)
    for term in terms:
        out = out + term.value(X, phi_at, t)
    return out


@given(st.lists(_term_lists, min_size=4, max_size=4),
       st.lists(_states, min_size=7, max_size=7),
       st.lists(st.integers(1, 2), min_size=7, max_size=7),
       st.booleans())
@settings(max_examples=150, deadline=None)
def test_plan_matches_per_term_sum_bit_for_bit(lists, states, regimes,
                                               one_t_per_row):
    m = ModelSpec(theta_lower=0.5, t0=1.0,
                  generator=make_generator([[-1.0, 1.0], [2.0, -2.0]]),
                  drift=(tuple(lists[0]), tuple(lists[1])),
                  diffusion=(tuple(lists[2]), tuple(lists[3])),
                  initial_segment=0.0)
    X = np.array(states)
    reg = np.array(regimes)
    t = np.linspace(1.0, 3.0, len(X)) if one_t_per_row else 2.0
    with np.errstate(all="ignore"):
        F, G = _Pass(m, X, _history_lookup, t).merged(reg)
        want = [np.where(reg == 2,
                         _per_term_sum(part[1], X, _history_lookup, t),
                         _per_term_sum(part[0], X, _history_lookup, t))
                for part in (m.drift, m.diffusion)]
    assert F.tobytes() == want[0].tobytes()
    assert G.tobytes() == want[1].tobytes()


def test_structured_terms_have_one_evaluation_path(monkeypatch):
    def refuse(self, phi1, phi_at, t):
        raise AssertionError("Term.value called outside the plan")

    m = preset("exp_stable")
    batch = run_batch(m, IntegratorConfig(dt=0.05, T=2.0), 100, i0=1,
                      root_seed=3, keep_paths=True)
    monkeypatch.setattr(PolynomialTerm, "value", refuse)
    monkeypatch.setattr(PantographTerm, "value", refuse)
    again = run_batch(m, IntegratorConfig(dt=0.05, T=2.0), 100, i0=1,
                      root_seed=3, keep_paths=True)
    assert again.uniform_values.tobytes() == batch.uniform_values.tobytes()
    fam = preset_lyapunov("exp_stable")
    martingale_residual(fam, again, 2.0)
    for i in (1, 2):
        eval_LV(fam, m, ConstantSegment(0.5, m.theta_lower), 1.0, i)


def test_one_kernel_factor_per_integral_group(monkeypatch):
    # switch_stabilized's four pantograph terms form three integrals:
    # signed over nu, |y|^2 over nu, and signed over the point mass at 1,
    # which a drift and a diffusion term share.  A pass computes each
    # integral's exp(-beta (1 - theta) t) once, and none when handed
    # its weights.
    calls = []
    decay = Kernel.decay

    def counted(self, theta, t):
        calls.append(np.asarray(theta).size)
        return decay(self, theta, t)

    monkeypatch.setattr(Kernel, "decay", counted)
    m = preset("switch_stabilized")
    X = np.linspace(-1.0, 1.0, 7)
    reg = np.array([1, 2, 1, 2, 1, 2, 1])
    F, G = _Pass(m, X, _history_lookup, 2.0).merged(reg)
    assert len(m._plan.integrals) == 3
    assert sorted(calls) == [1, 3, 3]
    weights = [w[:, :1] for w in m._plan.weights(np.array([2.0]))]
    del calls[:]
    again = _Pass(m, X, _history_lookup, 2.0, weights).merged(reg)
    assert calls == []
    assert again[0].tobytes() == F.tobytes()
    assert again[1].tobytes() == G.tobytes()
