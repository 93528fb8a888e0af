"""Stochastic detection: per-pair outcomes to time-tag streams.

Each emitted pair's outcome is drawn in factorized form from its own block
of uniforms (see :func:`simulate_tags` for the column layout):

* path bits: ``b_A`` and ``b_B`` are independent fair bits.  Equal bits are
  the central branch, labelled (b, b); (0, 1) is SL and (1, 0) is LS, so each
  side branch carries 1/4 and the central branch 1/2;
* port A: a fair bit;
* port parity: "same ports" with probability (1 + V cos(phi' + psi')) / 2 on
  the central branch, with V the rate law's visibility
  (:func:`franson.correlation.fringe_visibility`), and 1/2 on a side branch.

Together these give exactly the coincidence-basis distribution of
:mod:`franson.correlation`: (1/8)(1 + s_a s_b V cos(phi' + psi')) per central
port pair and 1/16 per side cell.  Detection times are assembled as

    t_A = t0 + b_A * t_sl^A + jitter_A
    t_B = t0 + eps + b_B * t_sl^B + jitter_B

The central (b, b) label is pure bookkeeping: the two assignments are
physically indistinguishable, t0 is itself random, and no observable depends
on the split.  Branch and pair id are carried only as diagnostic fields
behind an explicit oracle accessor; the correlator-facing view is
(party, port, time).

All times are quantized component-wise to integer picoseconds, which makes
histograms, dumps and replays exactly reproducible across platforms.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import ndtri

from .correlation import fringe_visibility, joint_phase
from .interferometer import UmziConfig
from .rng import ROLE_DETECTION, item_uniforms, stream_key
from .source import PairEnsemble

PS_PER_S = 1e12

TIMETAG_MAGIC = "# franson-timetags v1"

# Bytes of the dump's record text, the party byte of each stream position,
# and the powers of ten that count digits.
_NEWLINE, _SPACE, _HASH, _MINUS, _ZERO, _A, _B = b"\n #-0AB"
_PARTIES = np.array([_A, _B], dtype=np.uint8)
_POW10 = 10 ** np.arange(1, 20, dtype=np.uint64)


def to_picoseconds(seconds) -> np.ndarray:
    """Round seconds to the integer-picosecond grid."""
    return np.rint(np.asarray(seconds, dtype=np.float64) * PS_PER_S).astype(np.int64)


@dataclass(frozen=True)
class DetectorModel:
    """jitter: RMS timing jitter (s); efficiency: detection probability per photon."""

    jitter: float = 2e-12
    efficiency: float = 1.0

    def validate(self) -> list[str]:
        if self.jitter < 0:
            raise ValueError(f"jitter must be >= 0, got {self.jitter}")
        if not 0.0 < self.efficiency <= 1.0:
            raise ValueError(f"efficiency must be in (0, 1], got {self.efficiency}")
        return []


class TagStream:
    """Time-sorted detection events of one party; which party is the
    stream's position, A first, wherever streams are passed or returned.

    Public arrays: ``port`` and ``time_ps``.  The branch and pair-id arrays
    are diagnostics reachable only through :meth:`diagnostics`; correlator
    results must not change when they are zeroed.
    """

    def __init__(self, port, time_ps, diag_branch, diag_pair_id):
        order = np.lexsort((np.asarray(diag_pair_id), np.asarray(time_ps)))
        self.port = np.asarray(port, dtype=np.uint8)[order]
        self.time_ps = np.asarray(time_ps, dtype=np.int64)[order]
        self._diag_branch = np.asarray(diag_branch, dtype=np.int8)[order]
        self._diag_pair_id = np.asarray(diag_pair_id, dtype=np.int64)[order]

    def __len__(self) -> int:
        return self.time_ps.size

    def diagnostics(self) -> tuple[np.ndarray, np.ndarray]:
        """Oracle accessor: (branch index, pair id) per tag; tests only."""
        return self._diag_branch.copy(), self._diag_pair_id.copy()

    def port_counts(self) -> dict[int, int]:
        return {5: int(np.sum(self.port == 5)), 6: int(np.sum(self.port == 6))}


def simulate_tags(
    pairs: PairEnsemble,
    cfg_a: UmziConfig,
    cfg_b: UmziConfig,
    det: DetectorModel,
    seed: int,
    stream=0,
    envelope: float = 1.0,
) -> tuple[TagStream, TagStream]:
    """Detect a sampled ensemble; returns the streams of party A (the signal
    photons, through ``cfg_a``) and party B (the idlers, through ``cfg_b``).

    stream: the key path of the pairs (an int k is the path (k,)); the
    detection draws come from its ROLE_DETECTION substream.
    envelope: central-fringe envelope factor (imposed wavepacket offset
    and/or pump-side degradations); the fringe visibility is
    ``fringe_visibility(envelope, cfg_a, cfg_b)``.

    Uniform columns per pair: 0 and 1 path bits b_A and b_B, 2 and 3 jitter
    at A and B, 4 and 5 detection at A and B, 6 port A, 7 port parity.
    """
    visibility = fringe_visibility(envelope, cfg_a, cfg_b)
    u = item_uniforms(seed, (*stream_key(stream), ROLE_DETECTION), len(pairs))
    b_a = u[:, 0] < 0.5
    b_b = u[:, 1] < 0.5
    # central 0 for equal bits, SL 1 for (0, 1), LS 2 for (1, 0)
    branch = (2 * b_a.view(np.int8) + b_b) % 3
    theta = joint_phase(pairs.df, pairs.dp, cfg_a, cfg_b)
    p_same = 0.5 + (0.5 * visibility) * np.cos(theta) * (branch == 0)
    port_a = np.uint8(5) + (u[:, 6] < 0.5).view(np.uint8)
    port_b = port_a ^ (np.uint8(3) * (u[:, 7] >= p_same))  # 5 ^ 3 = 6, 6 ^ 3 = 5
    jitter_a_ps = to_picoseconds(ndtri(u[:, 2]) * det.jitter)
    jitter_b_ps = to_picoseconds(ndtri(u[:, 3]) * det.jitter)
    keep_a = u[:, 4] < det.efficiency
    keep_b = u[:, 5] < det.efficiency
    del u  # the largest array here: free it before the times are assembled

    t0_ps = to_picoseconds(pairs.t0)
    t_a = t0_ps + b_a * to_picoseconds(cfg_a.t_sl) + jitter_a_ps
    t_b = t0_ps + to_picoseconds(pairs.eps) + b_b * to_picoseconds(cfg_b.t_sl) + jitter_b_ps

    stream_a = TagStream(port_a[keep_a], t_a[keep_a], branch[keep_a], pairs.ids[keep_a])
    stream_b = TagStream(port_b[keep_b], t_b[keep_b], branch[keep_b], pairs.ids[keep_b])
    return stream_a, stream_b


def write_timetags(
    path, stream_a: TagStream, stream_b: TagStream, seed: int, config_hash: str
) -> None:
    """Dump both streams, merged and time-sorted: one ``party port time_ps``
    record per line, party ``A`` for ``stream_a`` and ``B`` for ``stream_b``;
    the header carries the seed and the config hash.

    The records are laid out as one byte buffer, whole array at a time.
    Diagnostic fields are deliberately not serialized.
    """
    parties = np.concatenate(
        [np.zeros(len(stream_a), dtype=np.int8), np.ones(len(stream_b), dtype=np.int8)]
    )
    ports = np.concatenate([stream_a.port, stream_b.port])
    if not np.all((ports == 5) | (ports == 6)):
        raise ValueError("ports must be 5 or 6")
    times = np.concatenate([stream_a.time_ps, stream_b.time_ps])
    pair_ids = np.concatenate([stream_a._diag_pair_id, stream_b._diag_pair_id])
    order = np.lexsort((pair_ids, parties, times))
    times = times[order]

    # Record layout: party, space, port, space, optional '-', digits, newline.
    neg = times < 0
    mag = np.abs(times).view(np.uint64)  # |INT64_MIN| wraps to 2**63: still right
    n_digits = 1 + np.searchsorted(_POW10, mag, side="right")
    lengths = 5 + neg + n_digits
    ends = np.cumsum(lengths)
    starts = ends - lengths
    buf = np.empty(int(ends[-1]) if ends.size else 0, dtype=np.uint8)
    buf[starts] = _PARTIES[parties[order]]
    buf[starts + 1] = _SPACE
    buf[starts + 2] = _ZERO + ports[order]
    buf[starts + 3] = _SPACE
    buf[starts[neg] + 4] = _MINUS
    buf[ends - 1] = _NEWLINE
    pos = ends - 2  # each record's last digit; digits are written right to left
    for k in range(int(n_digits.max(initial=0))):
        live = n_digits > k
        if not live.all():
            pos, mag, n_digits = pos[live], mag[live], n_digits[live]
        mag, digit = np.divmod(mag, np.uint64(10))
        buf[pos] = _ZERO + digit.astype(np.uint8)  # a uint8 scatter is twice as fast
        pos -= 1

    header = "\n".join(
        [
            TIMETAG_MAGIC,
            f"# seed={seed}",
            f"# config_hash={config_hash}",
            "# columns: party port time_ps",
        ]
    )
    with open(path, "wb") as fh:
        fh.write((header + "\n").encode("ascii"))
        fh.write(buf)


def _record_problem(line: str) -> str:
    """Why ``line`` is not a ``party port time_ps`` record, checked in order."""
    fields = line.split(" ")
    if len(fields) != 3:
        return f"expected 'party port time_ps', got {line!r}"
    party, port, time_ps = fields
    if party not in ("A", "B"):
        return f"party must be A or B, got {party!r}"
    if port not in ("5", "6"):
        return f"port must be 5 or 6, got {port!r}"
    return f"time_ps must be an integer, got {time_ps!r}"


def read_timetags(path) -> tuple[TagStream, TagStream, dict[str, str]]:
    """Load a dump; returns (stream_A, stream_B, header metadata).

    Records must have the writer's form: ``A`` or ``B``, one space, ``5`` or
    ``6``, one space, then ``time_ps`` as an optional ``-`` and 1 to 18
    digits.  Blank lines and ``#`` lines may appear anywhere; ``# key=value``
    lines fill the header.  The earliest line that is none of these fails
    with ``path:line``.  Records are parsed as whole arrays: every array has
    one entry per line, never one per byte.

    Loaded streams carry zeroed diagnostics: a dump is correlator-facing.
    """
    data = Path(path).read_bytes()
    magic_end = data.find(b"\n")
    if magic_end < 0:  # a magic line alone, without its newline
        magic_end = len(data)
    first = data[:magic_end].decode("ascii", "replace")
    if first != TIMETAG_MAGIC:
        raise ValueError(f"not a time-tag dump (bad magic line {first!r})")

    # Lines after the magic one, as (start, end) byte offsets without the newline.
    buf = np.frombuffer(data, dtype=np.uint8)
    body = magic_end + 1
    ends = body + np.flatnonzero(buf[body:] == _NEWLINE)
    if not data.endswith(b"\n") and body < len(data):
        ends = np.append(ends, len(data))  # last line without a newline
    starts = np.concatenate([[body], ends[:-1] + 1])[: ends.size]
    lengths = ends - starts
    # Blank and '#' lines are set aside; every other line must be a record.
    is_record = (lengths > 0) & (buf[starts] != _HASH)
    rec_start, rec_len = starts[is_record], lengths[is_record]
    last = len(data) - 1

    def at(offset):  # one byte per record line, clipped at the end of the file
        return buf[np.minimum(rec_start + offset, last)]

    party = at(0)
    port = at(2) - _ZERO
    neg = at(4) == _MINUS
    n_digits = rec_len - 4 - neg
    ok = (
        ((party == _A) | (party == _B))
        & (at(1) == _SPACE)
        & ((port == 5) | (port == 6))
        & (at(3) == _SPACE)
        & (n_digits >= 1)
        & (n_digits <= 18)
    )
    # Horner over the digit runs, left to right: pass j reads the j-th digit
    # of every record whose run is longer than j.
    first_digit = rec_start + 4 + neg
    time_ps = np.zeros(rec_start.size, dtype=np.int64)
    for j in range(int(np.max(n_digits, where=ok, initial=0))):
        live = ok & (n_digits > j)
        digit = np.where(live, buf[np.minimum(first_digit + j, last)] - _ZERO, 0)
        ok &= digit < 10
        time_ps = np.where(live, time_ps * 10 + digit, time_ps)
    np.negative(time_ps, out=time_ps, where=neg)

    header: dict[str, str] = {}
    bad = np.flatnonzero(is_record)[~ok]
    for i in np.union1d(np.flatnonzero(~is_record), bad):
        line = data[starts[i] : ends[i]].decode("ascii", "replace")
        text = line.strip()
        if not text:
            continue
        if not text.startswith("#"):
            raise ValueError(f"{path}:{i + 2}: {_record_problem(line)}")
        entry = text.lstrip("# ")
        if "=" in entry:
            key, value = entry.split("=", 1)
            header[key.strip()] = value.strip()

    def build(code: int) -> TagStream:
        mine = party == code
        zeros = np.zeros(np.count_nonzero(mine), dtype=np.int64)
        return TagStream(port[mine], time_ps[mine], zeros, zeros)

    return build(_A), build(_B), header

