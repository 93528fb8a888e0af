"""Scalar reference implementations the vectorized package is tested against.

Each function treats one photon, one pair or one delay at a time, written
from the physics rather than from the package's fast paths.
"""

import cmath
import math

import numpy as np

PORTS = (5, 6)
BRANCHES = ("central", "SL", "LS")


def port_amplitudes(detuning: float, cfg) -> dict[int, tuple[complex, complex]]:
    """Path-basis coefficients (c_S, c_L) of ports 5 and 6 for one photon.

    Two symmetric beam splitters (1/sqrt 2) [[1, i], [i, 1]] around the
    delay, each port's global phase fixed so that c_S is real for port 5:
    port 5 gets (1, e^{i phi'})/2 and port 6 gets (i, -i e^{i phi'})/2, with
    phi' = 2 pi detuning t_sl + phase.
    """
    if not math.isfinite(detuning):
        raise ValueError(f"detuning must be finite, got {detuning}")
    rot = cmath.exp(1j * (2.0 * math.pi * (detuning * cfg.t_sl) + cfg.phase))
    return {5: (0.5 + 0.0j, 0.5 * rot), 6: (0.5j, -0.5j * rot)}


def joint_amplitude(df: float, dp: float, cfg_a, cfg_b, port_a: int, port_b: int) -> complex:
    """Coincidence-selected amplitude of one pair: the short-short plus the
    long-long product of the two photons' port amplitudes, which is
    (1/4)(s_a s_b + e^{i(phi' + psi')}) up to a global phase."""
    s_a, l_a = port_amplitudes(df + 0.5 * dp, cfg_a)[port_a]
    s_b, l_b = port_amplitudes(0.5 * dp - df, cfg_b)[port_b]
    return s_a * s_b + l_a * l_b


def outcome_table(df: float, dp: float, cfg_a, cfg_b, envelope: float = 1.0) -> np.ndarray:
    """One pair's joint outcome probabilities table[port_a, port_b, branch].

    Ports index (5, 6) and branches index BRANCHES.  A central cell mixes the
    coherent |SS + LL|^2 of the joint amplitude with weight V and the flat
    1/8 of a fully distinguishable pair with weight 1 - V, where
    V = envelope * gamma_A * gamma_B; every SL and LS cell is 1/16, whatever
    the phases.
    """
    visibility = envelope * cfg_a.gamma * cfg_b.gamma
    table = np.full((2, 2, 3), 1.0 / 16.0)
    for a, port_a in enumerate(PORTS):
        for b, port_b in enumerate(PORTS):
            amp = joint_amplitude(df, dp, cfg_a, cfg_b, port_a, port_b)
            table[a, b, 0] = (1.0 - visibility) / 8.0 + visibility * abs(amp) ** 2
    return table


def branch_from_tau(tau_ps: int, t_sl_ps: int) -> str:
    """The branch of an exact coincidence delay (jitter- and eps-free, equal
    delays): central at 0, SL at -t_sl, LS at +t_sl."""
    mapping = {0: "central", -t_sl_ps: "SL", t_sl_ps: "LS"}
    if tau_ps not in mapping:
        raise ValueError(f"tau = {tau_ps} ps is not one of 0, +-{t_sl_ps} ps")
    return mapping[tau_ps]


def pair_frequencies(f0, df, dp):
    """(signal, idler) absolute frequencies.  The idler is (2 f0 + dp) minus
    the signal, so with dp = 0 the pair sum is exactly 2 f0 in floating point."""
    f_signal = f0 + (0.5 * dp + df)
    return f_signal, (2.0 * f0 + dp) - f_signal



def _rounded_normal_pmf(sigma_ps: float, reach: int) -> np.ndarray:
    """P(rint(X) = k) for k = -reach .. reach, X normal of mean 0 and standard
    deviation sigma_ps picoseconds; a point mass at 0 when sigma_ps is 0."""
    if sigma_ps == 0.0:
        return (np.arange(-reach, reach + 1) == 0).astype(np.float64)
    scale = sigma_ps * math.sqrt(2.0)
    return np.diff([0.5 * math.erfc(-(x + 0.5) / scale) for x in range(-reach - 1, reach + 1)])


def window_totals(raw: dict, n_pairs: int) -> dict[str, np.ndarray]:
    """Expected ``central``, ``side_plus`` and ``side_minus`` window totals,
    (2, 2) each over (port_a, port_b), of a run of n_pairs pairs under the
    run config ``raw`` (its JSON dict, every key read here given).

    Per port pair, a pair's photons are both detected with probability
    efficiency**2 and meet at tau = t_A - t_B in one of four peaks: the
    central branch, (1/8)(1 + s_a s_b gamma_A gamma_B cos(phase_A + phase_B)
    D), half at 0 (short-short) and half at t_sl^A - t_sl^B (long-long); the
    long-short peak at +t_sl^A and the short-long peak at -t_sl^B, 1/16 each.
    D = exp(-2 pi^2 [(sigma_f (t_A - t_B))^2 + (sigma_p (t_A + t_B) / 2)^2]),
    sigma = FWHM / (2 sqrt(2 ln 2)) of delta and of the pump linewidth.  Each
    peak is spread by the pair delay (FWHM 1/delta) and both parties'
    jitters, each rounded to the picosecond.  A window [c - w, c + w] also
    holds the accidentals, a flat floor of (efficiency N / 2)(efficiency
    pair_rate / 2) per picosecond of delay: the singles-product estimate.
    """
    src, det, umzi_a, umzi_b = (raw[k] for k in ("source", "detector", "umzi_a", "umzi_b"))
    ps = 1e12
    fwhm_to_sigma = 0.5 / math.sqrt(2.0 * math.log(2.0))
    window = raw["correlator"]["window"]
    t_a, t_b, w = (round(x * ps) for x in (umzi_a["t_sl"], umzi_b["t_sl"], window))
    sigma_eps, sigma_jitter = fwhm_to_sigma / src["delta"] * ps, det["jitter"] * ps
    reach = math.ceil(12.0 * max(sigma_eps, sigma_jitter)) + 2
    spread = _rounded_normal_pmf(sigma_eps, reach)
    for _ in range(2):
        spread = np.convolve(spread, _rounded_normal_pmf(sigma_jitter, reach))
    offsets = np.arange(spread.size) - 3 * reach

    sigma_f, sigma_p = (fwhm_to_sigma * src[k] for k in ("delta", "pump_linewidth"))
    t_sum, t_diff = umzi_a["t_sl"] + umzi_b["t_sl"], umzi_a["t_sl"] - umzi_b["t_sl"]
    damping = math.exp(-2.0 * math.pi**2 * ((sigma_f * t_diff) ** 2 + (sigma_p * t_sum / 2) ** 2))
    visibility = umzi_a["gamma"] * umzi_b["gamma"] * damping
    fringe = visibility * math.cos(umzi_a["phase"] + umzi_b["phase"])
    eff, n = det["efficiency"], n_pairs
    floor = (eff * n / 2) * (eff * src["pair_rate"] / ps / 2) * (2 * w + 1)
    centers = {"central": 0, "side_plus": t_a, "side_minus": -t_b}
    out = {name: np.full((2, 2), floor) for name in centers}
    for a, port_a in enumerate(PORTS):
        for b, port_b in enumerate(PORTS):
            sign = 1.0 if port_a == port_b else -1.0
            central = eff**2 * n * (1.0 + sign * fringe) / 16.0  # each of its two peaks
            side = eff**2 * n / 16.0
            peaks = ((0, central), (t_a - t_b, central), (t_a, side), (-t_b, side))
            for name, center in centers.items():
                for mu, count in peaks:
                    out[name][a, b] += count * spread[np.abs(mu + offsets - center) <= w].sum()
    return out
