"""Jump-ahead random streams.

All randomness in the package flows through PCG64DXSM generators keyed by a
seed and a path: a tuple of small non-negative integers naming the consumer,
such as ``(KIND_FRINGE, point, ROLE_SOURCE)`` or ``(KIND_PUMP, j,
ROLE_DETECTION)``.  The seed is the ``SeedSequence`` entropy and the path its
spawn key, so two different (seed, path) keys never share a stream: paths of
different lengths stay apart (a trailing 0 is not padding), and seeds below
2**128 and path entries below 2**32 each fill a fixed number of words.
Each key seeds its own generator state, so every stream is independent and a
sampled sequence is a pure function of its key.  A sampler's ``stream`` is
such a tuple, to which it appends its role; an int is not a path.

Samplers that need per-item addressability draw a fixed block of
``DRAWS_PER_ITEM`` = 4 uniforms per item: the source per pair, and detection
per pair.  Each uniform takes one 64-bit output, and ``advance`` jumps the
generator by any number of outputs in O(log n) steps, so item ``j`` starts at
output ``4 j`` and ranges of items can be generated concurrently without
generating their predecessors.
Every draw lies strictly inside (0, 1), and :func:`normal_quantile` maps
draws to standard normal deviates.
"""

from __future__ import annotations

import numpy as np
from numpy.random import PCG64DXSM, Generator, SeedSequence

# Uniforms drawn per item by item_uniforms.
DRAWS_PER_ITEM = 4

# Stream roles within one simulated scan point.
ROLE_SOURCE = 0
ROLE_DETECTION = 1

# Run-kind tags used as the first path component by experiment runners.
KIND_FRINGE = 1
KIND_LOCAL = 2
KIND_CROSSOVER = 3
KIND_TAU = 4
KIND_PUMP = 5
KIND_CHSH = 6
KIND_TIMETAGS = 7

# Shifts a 2**-53-grid uniform on [0, 1) off 0.  Below 1/2 the shifted draw
# is exact; above it the shift is half an ulp, so the sum ties and rounds to
# even, and the largest draw would round up to 1.0 without the clamp below.
OPEN_INTERVAL_SHIFT = 2.0 ** -54
# The largest double below 1.
BELOW_ONE = 1.0 - 2.0 ** -53
# Every normal_quantile of a draw on [2**-54, BELOW_ONE] lies within this
# bound: the extremes are z(2**-54) = -8.29 and z(BELOW_ONE) = +8.21.
MAX_ABS_NORMAL = 8.3


def item_uniforms(seed: int, path: tuple, n_items: int, start: int = 0) -> np.ndarray:
    """(n_items, DRAWS_PER_ITEM) uniforms on (0, 1) for items start..start+n_items.

    Row ``i`` depends only on the key and ``start + i``, never on ``n_items``
    or on previous calls.
    """
    if n_items < 0 or start < 0:
        raise ValueError("n_items and start must be non-negative")
    path = tuple(map(int, path))
    if not 0 <= int(seed) < 2**128:
        raise ValueError(f"seed must lie in [0, 2**128), got {seed}")
    if not all(0 <= p < 2**32 for p in path):
        raise ValueError(f"stream path entries must lie in [0, 2**32), got {path}")
    bitgen = PCG64DXSM(SeedSequence(int(seed), spawn_key=path))
    if start:
        bitgen.advance(DRAWS_PER_ITEM * start)
    return _open_unit_interval(Generator(bitgen).random(size=(n_items, DRAWS_PER_ITEM)))


def _open_unit_interval(u: np.ndarray) -> np.ndarray:
    """Map 2**-53-grid uniforms on [0, 1) into [2**-54, BELOW_ONE], in place,
    so that inverse-CDF transforms stay finite and ``u < 1`` always holds."""
    u += OPEN_INTERVAL_SHIFT
    np.minimum(u, BELOW_ONE, out=u)
    return u


# Wichura's AS241 (PPND16; Applied Statistics 37:477, 1988), the algorithm of
# statistics.NormalDist.inv_cdf.  Each polynomial lists its coefficients from
# the highest power down.
_CENTRAL_NUM = (
    2.5090809287301226727e3, 3.3430575583588128105e4, 6.7265770927008700853e4,
    4.5921953931549871457e4, 1.3731693765509461125e4, 1.9715909503065514427e3,
    1.3314166789178437745e2, 3.3871328727963666080e0,
)
_CENTRAL_DEN = (
    5.2264952788528545610e3, 2.8729085735721942674e4, 3.9307895800092710610e4,
    2.1213794301586595867e4, 5.3941960214247511077e3, 6.8718700749205790830e2,
    4.2313330701600911252e1, 1.0,
)
_NEAR_TAIL_NUM = (
    7.7454501427834140764e-4, 2.2723844989269184583e-2, 2.4178072517745061177e-1,
    1.2704582524523683826e0, 3.6478483247632046050e0, 5.7694972214606914055e0,
    4.6303378461565452959e0, 1.4234371107496835773e0,
)
_NEAR_TAIL_DEN = (
    1.0507500716444168432e-9, 5.4759380849953449460e-4, 1.5198666563616457197e-2,
    1.4810397642748007459e-1, 6.8976733498510000455e-1, 1.6763848301838038494e0,
    2.0531916266377588219e0, 1.0,
)
_FAR_TAIL_NUM = (
    2.0103343992922881327e-7, 2.7115555687434875782e-5, 1.2426609473880784386e-3,
    2.6532189526576123093e-2, 2.9656057182850489123e-1, 1.7848265399172913358e0,
    5.4637849111641143699e0, 6.6579046435011037772e0,
)
_FAR_TAIL_DEN = (
    2.0442631033899397856e-15, 1.4215117583164458887e-7, 1.8463183175100546818e-5,
    7.8686913114561325910e-4, 1.4875361290850614852e-2, 1.3692988092273580531e-1,
    5.9983220655588793769e-1, 1.0,
)


def _horner(coeffs: tuple, x: np.ndarray) -> np.ndarray:
    acc = coeffs[0] * x
    for c in coeffs[1:-1]:
        acc += c
        acc *= x
    acc += coeffs[-1]
    return acc


def normal_quantile(p: np.ndarray) -> np.ndarray:
    """Standard normal quantile z(p) of each p in (0, 1), by AS241.

    The central rational (|p - 1/2| <= 0.425) runs on every draw; each tail
    rational only on the draws beyond it that it selects, in r =
    sqrt(-log(min(p, 1 - p))), which keeps full relative precision there.
    """
    q = np.subtract(p, 0.5)
    r = q * q
    np.subtract(0.180625, r, out=r)
    z = _horner(_CENTRAL_NUM, r)
    z *= q
    z /= _horner(_CENTRAL_DEN, r)
    tail = np.flatnonzero(np.abs(q) > 0.425)
    if tail.size:
        p_tail = np.asarray(p)[tail]
        r = np.sqrt(-np.log(np.minimum(p_tail, 1.0 - p_tail)))
        x = np.empty_like(r)
        for sel, shift, num, den in (
            (r <= 5.0, 1.6, _NEAR_TAIL_NUM, _NEAR_TAIL_DEN),
            (r > 5.0, 5.0, _FAR_TAIL_NUM, _FAR_TAIL_DEN),
        ):
            if sel.any():  # the far tail is empty in nearly every call
                s = r[sel] - shift
                x[sel] = _horner(num, s) / _horner(den, s)
        z[tail] = np.copysign(x, q[tail])
    return z
