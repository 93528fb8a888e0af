"""Joint-amplitude algebra: symbolic oracle, exact symmetries, CHSH."""

import math

import numpy as np
import pytest
import sympy as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from franson.correlation import (
    chsh_value,
    correlation_coefficient,
    ensemble_fringe,
    expected_rates,
    fringe_term,
    fringe_visibility,
    joint_phase,
    overlap_envelope,
)
from franson.errors import UndefinedCorrelationError
from franson.interferometer import UmziConfig
from franson.source import SpectralModel, sample_pairs

from oracles import PORTS, joint_amplitude, outcome_table

T_SL = 100e-12


def umzi(phase=0.0, t_sl=T_SL, gamma=1.0):
    return UmziConfig(t_sl=t_sl, phase=phase, gamma=gamma)


def model(delta=1e12, pump=0.0):
    return SpectralModel(f0=3.7e14, delta=delta, pump_linewidth=pump, tau_ind=10e-9, pair_rate=1e6)


def one_pair_rates(df, dp, cfg_a, cfg_b):
    """The (2, 2) central rates (1/8)(1 + s_a s_b V cos(phi' + psi')) of the
    single pair (df, dp)."""
    fringe = fringe_term(df, dp, cfg_a, cfg_b)
    same, diff = 0.125 * (1.0 + fringe), 0.125 * (1.0 - fringe)
    return np.array([[same, diff], [diff, same]])


# ---------------------------------------------------------------------------
# Symbolic oracle: expand the single-photon port amplitudes, keep the
# short-short and long-long products, and confirm the port-sign law used by
# the whole package.  This is the independent check of the generalization of
# the (5,5) fringe to all four port pairs.
# ---------------------------------------------------------------------------

def _symbolic_port_coeffs(phase):
    # (c_S, c_L) per port for one interferometer with accumulated phase
    return {
        5: (sp.Rational(1, 2), sp.exp(sp.I * phase) / 2),
        6: (sp.I / 2, -sp.I * sp.exp(sp.I * phase) / 2),
    }


@pytest.mark.parametrize("port_a", [5, 6])
@pytest.mark.parametrize("port_b", [5, 6])
def test_symbolic_expansion_confirms_the_port_sign_law(port_a, port_b):
    phi, psi = sp.symbols("phi psi", real=True)
    ca = _symbolic_port_coeffs(phi)[port_a]
    cb = _symbolic_port_coeffs(psi)[port_b]

    amp_ss = ca[0] * cb[0]
    amp_ll = ca[1] * cb[1]
    amp_sl = ca[0] * cb[1]
    amp_ls = ca[1] * cb[0]

    # side products are flat at 1/16, independent of both phases
    assert sp.simplify(sp.Abs(amp_sl) ** 2 - sp.Rational(1, 16)) == 0
    assert sp.simplify(sp.Abs(amp_ls) ** 2 - sp.Rational(1, 16)) == 0

    # the surviving coincidence superposition carries the sign s_a * s_b
    sign = (1 if port_a == 5 else -1) * (1 if port_b == 5 else -1)
    central = amp_ss + amp_ll
    predicted = sp.Rational(1, 8) * (1 + sign * sp.cos(phi + psi))
    measured = sp.re(central * sp.conjugate(central))
    assert sp.simplify(sp.expand_complex(measured - predicted)) == 0

    # and equals (1/4)(s + e^{i(phi+psi)}) up to a global phase
    canonical = (sign + sp.exp(sp.I * (phi + psi))) / 4
    ratio = sp.simplify(sp.expand_complex(central / canonical))
    assert sp.simplify(sp.Abs(ratio) - 1) == 0


def test_symbolic_sum_over_central_products_is_one_half():
    phi, psi = sp.symbols("phi psi", real=True)
    total = 0
    for port_a in (5, 6):
        for port_b in (5, 6):
            ca = _symbolic_port_coeffs(phi)[port_a]
            cb = _symbolic_port_coeffs(psi)[port_b]
            central = ca[0] * cb[0] + ca[1] * cb[1]
            total += sp.re(central * sp.conjugate(central))
    assert sp.simplify(total - sp.Rational(1, 2)) == 0


# ---------------------------------------------------------------------------
# Numeric contracts
# ---------------------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(
    df=st.floats(-2e12, 2e12),
    phase_a=st.floats(-7.0, 7.0),
    phase_b=st.floats(-7.0, 7.0),
)
def test_joint_phase_cancels_detuning_exactly(df, phase_a, phase_b):
    # +df at A, -df at B, equal delays: bitwise equality, not approximate
    cfg_a, cfg_b = umzi(phase_a), umzi(phase_b)
    assert joint_phase(df, 0.0, cfg_a, cfg_b) == phase_a + phase_b


def test_joint_phase_carries_pump_jitter():
    got = joint_phase(3.7e11, 2e9, umzi(0.3), umzi(0.4))
    assert got == pytest.approx(2 * math.pi * 2e9 * T_SL + 0.7, rel=1e-12)


def test_central_amplitude_examples():
    cfg_a, cfg_b = umzi(0.0), umzi(0.0)
    amp55 = joint_amplitude(0.0, 0.0, cfg_a, cfg_b, 5, 5)
    assert abs(amp55) ** 2 == pytest.approx(0.25, abs=1e-12)
    amp56 = joint_amplitude(0.0, 0.0, cfg_a, cfg_b, 5, 6)
    assert abs(amp56) ** 2 == pytest.approx(0.0, abs=1e-12)
    amp66 = joint_amplitude(0.0, 0.0, umzi(math.pi), cfg_b, 6, 6)
    assert abs(amp66) ** 2 == pytest.approx(0.0, abs=1e-12)


def test_central_peak_rate_examples():
    cfg_a, cfg_b = umzi(0.0), umzi(0.0)
    assert fringe_term(0.0, 0.0, cfg_a, cfg_b) == 1.0
    assert fringe_term(0.0, 0.0, umzi(math.pi), cfg_b) == pytest.approx(-1.0, abs=1e-12)
    assert fringe_term(0.0, 0.0, umzi(gamma=0.0), cfg_b) == 0.0
    assert one_pair_rates(0.0, 0.0, cfg_a, cfg_b)[0, 0] == pytest.approx(0.25, abs=1e-12)
    assert one_pair_rates(0.0, 0.0, umzi(math.pi), cfg_b)[0, 0] == pytest.approx(0.0, abs=1e-12)
    assert np.all(one_pair_rates(0.0, 0.0, umzi(gamma=0.0), cfg_b) == 0.125)


@settings(max_examples=100, deadline=None)
@given(
    df=st.floats(-2e12, 2e12),
    dp=st.floats(-5e9, 5e9),
    phase_a=st.floats(-7.0, 7.0),
    phase_b=st.floats(-7.0, 7.0),
    t_sl_a=st.floats(20e-12, 200e-12),
    t_sl_b=st.floats(20e-12, 200e-12),
)
def test_fringe_term_matches_the_joint_amplitude(df, dp, phase_a, phase_b, t_sl_a, t_sl_b):
    # the rate law against |SS + LL|^2 of the port amplitudes, unequal delays
    assume(t_sl_a != t_sl_b)
    cfg_a, cfg_b = umzi(phase_a, t_sl_a), umzi(phase_b, t_sl_b)
    rates = one_pair_rates(df, dp, cfg_a, cfg_b)
    for a, port_a in enumerate(PORTS):
        for b, port_b in enumerate(PORTS):
            amp = joint_amplitude(df, dp, cfg_a, cfg_b, port_a, port_b)
            assert rates[a, b] == pytest.approx(abs(amp) ** 2, abs=1e-12)


def test_rate_depends_on_ports_only_through_the_sign_product():
    for table in ensemble_fringe(model(pump=2e9), umzi(0.3), umzi(1.1), 500, seed=2):
        assert table[0, 0] == table[1, 1]
        assert table[0, 1] == table[1, 0]
    # per pair, on the fringe term itself: each central cell of the scalar
    # oracle is (1/8)(1 + s_a s_b fringe), at path overlaps below 1
    cfg_a, cfg_b = umzi(0.3, gamma=0.9), umzi(1.1, t_sl=80e-12, gamma=0.56)
    pairs = sample_pairs(model(delta=1e10, pump=2e9), 50, seed=2)
    fringe = fringe_term(pairs.df, pairs.dp, cfg_a, cfg_b)
    for j, term in enumerate(fringe):
        table = outcome_table(pairs.df[j], pairs.dp[j], cfg_a, cfg_b)
        for a, port_a in enumerate(PORTS):
            for b, port_b in enumerate(PORTS):
                sign = 1.0 if port_a == port_b else -1.0
                assert table[a, b, 0] == pytest.approx(0.125 * (1.0 + sign * term), abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    df=st.floats(-2e12, 2e12),
    dp=st.floats(-5e9, 5e9),
    phase_a=st.floats(-7.0, 7.0),
    phase_b=st.floats(-7.0, 7.0),
    envelope=st.floats(0.0, 1.0),
)
def test_outcome_distribution_invariants(df, dp, phase_a, phase_b, envelope):
    table = outcome_table(df, dp, umzi(phase_a), umzi(phase_b), envelope)
    assert np.all(table >= 0.0)
    assert np.all(table[:, :, 1:] == 1.0 / 16.0)
    assert table.sum() == pytest.approx(1.0, abs=1e-12)
    assert table[:, :, 0].sum() == pytest.approx(0.5, abs=1e-12)
    # no-signaling: either party's port marginal is half, whatever the remote phase
    np.testing.assert_allclose(table.sum(axis=(1, 2)), 0.5, atol=1e-12)
    np.testing.assert_allclose(table.sum(axis=(0, 2)), 0.5, atol=1e-12)


def test_outcome_distribution_at_zero_joint_phase():
    table = outcome_table(0.0, 0.0, umzi(0.0), umzi(0.0), envelope=1.0)
    np.testing.assert_allclose(table[:, :, 0], [[0.25, 0.0], [0.0, 0.25]], atol=1e-12)
    assert np.all(table[:, :, 1:] == 1.0 / 16.0)


def test_fringe_term_folds_in_the_path_overlaps():
    # V = gamma_A * gamma_B: overlaps of 1/2 each scale the unit-overlap term by 1/4
    half = umzi(0.3, gamma=0.5), umzi(1.1, gamma=0.5)
    pairs = sample_pairs(model(pump=2e9), 200, seed=3)
    folded = fringe_term(pairs.df, pairs.dp, *half)
    assert np.array_equal(folded, 0.25 * fringe_term(pairs.df, pairs.dp, umzi(0.3), umzi(1.1)))
    assert fringe_visibility(np.array([1.0, 0.5]), *half).tolist() == [0.25, 0.125]


def test_visibility_factor_outside_unit_interval_is_rejected():
    # checked before the path overlaps shrink it: 1.04 * 0.5**2 would pass
    half = umzi(gamma=0.5), umzi(gamma=0.5)
    for factor in (1.04, -0.1, math.nan, np.array([0.5, 1.04])):
        with pytest.raises(ValueError, match=r"factor must lie in \[0, 1\]"):
            fringe_visibility(factor, *half)


def test_detuning_immunity_is_bitwise_across_pairs():
    # pump off: every pair's fringe term, and so its central rates, must be the same float
    pairs = sample_pairs(model(), 4_000, seed=1)
    assert np.unique(fringe_term(pairs.df, pairs.dp, umzi(0.4), umzi(0.9))).size == 1


def test_ensemble_fringe_is_exact_without_pump_jitter():
    rates, _ = ensemble_fringe(model(), umzi(0.0), umzi(0.0), n_pairs=2_000, seed=9)
    assert rates[0, 0] == 0.25
    assert rates[1, 1] == 0.25
    assert rates[0, 1] == 0.0
    quadrature, _ = ensemble_fringe(
        model(delta=5e12), umzi(0.0), umzi(math.pi / 2), n_pairs=2_000, seed=9
    )
    assert quadrature[0, 0] == pytest.approx(0.125, abs=1e-12)


def test_ensemble_fringe_visibility_tracks_sampled_pump_jitter():
    mdl = model(pump=5e9)  # pump_linewidth * t_sl = 0.5 cycles
    phases = np.linspace(0.0, 2.0 * math.pi, 12, endpoint=False)
    rates, oracles = [], []
    for k, th in enumerate(phases):
        table, _ = ensemble_fringe(mdl, umzi(th), umzi(0.0), n_pairs=5_000, seed=3, stream=(k,))
        rates.append(table[0, 0])
        pairs = sample_pairs(mdl, 5_000, 3, stream=(k,))
        oracles.append(np.exp(1j * 2 * math.pi * pairs.dp * T_SL).mean())
    from franson.fitting import fit_cosine

    fit = fit_cosine(phases, np.asarray(rates))
    cf = abs(np.mean(oracles))
    assert fit.visibility == pytest.approx(cf, abs=3.0 / math.sqrt(12 * 5_000))


@settings(max_examples=12, deadline=None)
@given(
    t_sl_a=st.floats(20e-12, 200e-12),
    t_sl_b=st.floats(20e-12, 200e-12),
    delta=st.floats(9.0, 12.0).map(lambda e: 10.0**e),
    pump=st.one_of(st.just(0.0), st.floats(8.0, 10.5).map(lambda e: 10.0**e)),
    phase_a=st.floats(-7.0, 7.0),
    phase_b=st.floats(-7.0, 7.0),
    gamma_a=st.floats(0.0, 1.0),
    gamma_b=st.floats(0.0, 1.0),
)
# unequal delays, the detuning term resolved: exp(-2 pi^2 (sigma_f (t_A - t_B))^2) = 0.87
@example(
    t_sl_a=100e-12, t_sl_b=80e-12, delta=1e10, pump=0.0,
    phase_a=0.3, phase_b=0.2, gamma_a=1.0, gamma_b=0.9,
)
# equal delays, the pump term resolved: exp(-2 pi^2 (sigma_p t_sl)^2) = 0.41
@example(
    t_sl_a=100e-12, t_sl_b=100e-12, delta=1e12, pump=5e9,
    phase_a=-0.4, phase_b=0.1, gamma_a=0.8, gamma_b=0.9,
)
def test_expected_rates_are_the_ensemble_mean(
    t_sl_a, t_sl_b, delta, pump, phase_a, phase_b, gamma_a, gamma_b
):
    # the closed form against the sampled estimator over 2**20 pairs, within
    # 5 of its standard errors (and rounding, where every pair's rate is equal)
    mdl = model(delta=delta, pump=pump)
    cfg_a, cfg_b = umzi(phase_a, t_sl_a, gamma_a), umzi(phase_b, t_sl_b, gamma_b)
    sampled, stderr = ensemble_fringe(mdl, cfg_a, cfg_b, n_pairs=2**20, seed=5)
    exact = expected_rates(mdl, cfg_a, cfg_b)
    assert exact.shape == (2, 2)
    assert np.all(np.abs(exact - sampled) <= 5.0 * stderr + 1e-12)


def test_chsh_reaches_the_quantum_bound_for_ideal_settings():
    settings_ = (0.0, math.pi / 2, -math.pi / 4, math.pi / 4)
    s_value = chsh_value(model(), umzi(), umzi(), settings_, n_pairs=2_000, seed=4)
    assert s_value == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-6)


def test_chsh_vanishes_with_zero_envelope():
    # no path overlap at A: gamma_A = 0 zeroes V = gamma_A gamma_B
    settings_ = (0.0, math.pi / 2, -math.pi / 4, math.pi / 4)
    s_value = chsh_value(model(), umzi(gamma=0.0), umzi(), settings_, n_pairs=500, seed=4)
    assert s_value == pytest.approx(0.0, abs=1e-12)


def test_chsh_degenerate_settings_give_two():
    s_value = chsh_value(model(), umzi(), umzi(), (0.0, 0.0, 0.0, 0.0), n_pairs=500, seed=4)
    assert s_value == pytest.approx(2.0, abs=1e-12)


def test_correlation_coefficient_requires_counts():
    with pytest.raises(UndefinedCorrelationError):
        correlation_coefficient(np.zeros((2, 2)))


def test_overlap_envelope_shape():
    delta = 1e12
    assert overlap_envelope(0.0, delta) == 1.0
    assert overlap_envelope(1.0 / delta, delta) == pytest.approx(0.25, rel=1e-12)
    taus = np.linspace(0.0, 5.0 / delta, 50)
    values = overlap_envelope(taus, delta)
    assert np.all(np.diff(values) <= 0.0)
    assert overlap_envelope(0.6 / delta, delta) == pytest.approx(0.5, abs=0.12)
