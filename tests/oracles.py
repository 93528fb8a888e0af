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
