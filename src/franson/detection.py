"""Stochastic detection: per-pair outcomes to time-tag streams.

Each emitted pair's outcome is drawn in factorized form from its own block
of 4 uniforms (see :func:`_detect` for the bit layout): columns 0 and 1 give
the jitters at A and B as full-resolution normal quantiles; column 2 the port
parity, "same ports" with probability (1 + V cos(phi' + psi')) / 2 on the
central branch, V cos(phi' + psi') the rate law's fringe term
(:func:`franson.correlation.fringe_term`), and 1/2 on a side branch, at
2**-53 resolution; column 3 the fair path bits ``b_A`` and ``b_B`` (equal
bits are the central branch, labelled (b, b); (0, 1) is SL and (1, 0) is LS),
the fair port-A bit, and detection at A and at B at 2**-25 resolution.  To
those resolutions this is the coincidence-basis distribution of
:mod:`franson.correlation`: (1/8)(1 + s_a s_b V cos(phi' + psi')) per central
port pair and 1/16 per side cell.  Detection times are assembled as

    t_A = t0 + b_A * t_sl^A + jitter_A
    t_B = t0 + eps + b_B * t_sl^B + jitter_B

The central (b, b) label is pure bookkeeping: the two assignments are
physically indistinguishable, t0 is itself random, and no observable depends
on the split.  A tag stream holds what a detector sees, a port and a time
per tag; the party is the stream's position.  Checks of which tags came
from one pair read the per-pair steps, :func:`_detect` and :func:`_port_b`.

Emission times arrive in int64 picoseconds and every other term is rounded
onto that grid, so histograms, dumps and replays reproduce on any platform.

A dump is made ``WRITE_CHUNK`` pairs at a time (:func:`simulate_run`): each
chunk of pairs continues the previous one's emission times, and
:func:`write_timetag_chunks` writes the tags that no later chunk can precede
and holds back the rest.  Its working memory is a chunk and the tags held,
whatever the run length, and its bytes are those of the whole run sampled,
detected and written at once.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .correlation import fringe_term
from .interferometer import UmziConfig
from .rng import MAX_ABS_NORMAL, ROLE_DETECTION, item_uniforms, normal_quantile
from .source import (
    FWHM_TO_SIGMA,
    MAX_TIME_PS,
    PS_PER_S,
    PairEnsemble,
    SpectralModel,
    sample_pairs,
    to_picoseconds,
)

TIMETAG_MAGIC = "# franson-timetags v1"

# Bytes of the dump's record text, the party byte of each stream position,
# and the powers of ten that count digits.
_NEWLINE, _SPACE, _MINUS, _ZERO, _A, _B = b"\n -0AB"
_PARTIES = np.array([_A, _B], dtype=np.uint8)
_POW10 = 10 ** np.arange(1, 20, dtype=np.uint64)

# Pairs simulated and records laid out per write, and bytes per read: the
# dump I/O's working memory is bounded by these, not by the file.
WRITE_CHUNK = 2**16
READ_BLOCK = 2**20

# The most bytes a dump line may hold before its newline: a record has at
# most 24 and the writer's header lines at most 46.
_MAX_LINE = 64

# The bound on a tag time's magnitude, which every TagStream holds: a
# simulated tag sums three terms, each below MAX_TIME_PS, so it lies below it.
_MAX_DUMP_TIME = 4 * MAX_TIME_PS


@dataclass(frozen=True)
class DetectorModel:
    """jitter: RMS timing jitter (s); efficiency: detection probability per photon."""

    jitter: float = 2e-12
    efficiency: float = 1.0

    def validate(self) -> list[str]:
        if self.jitter < 0:
            raise ValueError(f"jitter must be >= 0, got {self.jitter}")
        if not self.jitter * MAX_ABS_NORMAL * PS_PER_S < MAX_TIME_PS:
            raise ValueError(
                f"detector.jitter must keep its largest draw, {MAX_ABS_NORMAL} sigma, "
                f"below 2**60 ps, got {self.jitter}"
            )
        if not 0.0 < self.efficiency <= 1.0:
            raise ValueError(f"efficiency must be in (0, 1], got {self.efficiency}")
        return []


class TagStream:
    """Time-sorted detection events of one party; which party is the
    stream's position, A first, wherever streams are passed or returned.

    Public arrays, one entry per tag: ``port`` (uint8, 5 or 6) and
    ``time_ps`` (int64), sorted by time, stably, so tags of equal time keep
    the order they were given in.  Both are read-only, so the order holds
    wherever the stream goes and no reader checks it.  A time that the int64
    cast would change is rejected, and so is one of magnitude 2**62 or more,
    which a dump could not hold and a correlator delay could take out of
    int64.
    """

    def __init__(self, port, time_ps):
        port = np.asarray(port)
        given = np.asarray(time_ps)
        with np.errstate(invalid="ignore"):  # a cast that changes a value fails below
            time_ps = given.astype(np.int64, copy=False)
        if given.dtype != np.int64 and (changed := time_ps != given).any():
            raise ValueError(f"time_ps must be integer picoseconds, got {given[changed][0]}")
        if port.shape != time_ps.shape:
            raise ValueError(f"port and time_ps differ in length, got {port.size} and {time_ps.size}")
        if not np.all((port == 5) | (port == 6)):
            raise ValueError("ports must be 5 or 6")
        order = np.argsort(time_ps, kind="stable")
        self.port = port.astype(np.uint8, copy=False)[order]
        self.time_ps = time_ps[order]
        for t in self.time_ps[[0, -1]].tolist() if order.size else ():
            if abs(t) >= _MAX_DUMP_TIME:
                raise ValueError(f"|time_ps| must be below 2**62, got {t}")
        self.port.flags.writeable = self.time_ps.flags.writeable = False

    def __len__(self) -> int:
        return self.time_ps.size


def _detect(pairs, cfg_a, cfg_b, det, seed, stream=(0,), start=0):
    """The per-pair step of :func:`simulate_tags`, whose arguments it takes,
    all but the port-B choice (:func:`_port_b`); it reads no detuning.

    Returns, in pair order, the branch (0 central, 1 SL, 2 LS), column 2's
    uniform, A's ``(port, time_ps, kept)`` columns and B's ``(time_ps,
    kept)``; ``kept`` marks the photons the detector registers.

    Column 3's 53-bit grid index holds, from the top, b_A, b_B, the port-A
    bit, then 25 bits that keep A's photon when below ceil(efficiency 2**25)
    and 25 that keep B's.  Above 1/2 the open-interval shift rounds the index
    up to even, which moves the five draws' joint law by at most 2**-26.
    """
    u = item_uniforms(seed, (*stream, ROLE_DETECTION), len(pairs), start=start)
    jitter_a_ps = to_picoseconds(normal_quantile(u[:, 0]) * det.jitter)
    jitter_b_ps = to_picoseconds(normal_quantile(u[:, 1]) * det.jitter)
    bits = np.multiply(u[:, 3], 2.0**53, out=u[:, 3]).astype(np.uint64)
    low_25, threshold = np.uint64(2**25 - 1), np.uint64(math.ceil(det.efficiency * 2**25))
    keep_b = (bits & low_25) < threshold
    keep_a = ((bits >> np.uint64(25)) & low_25) < threshold
    top = (bits >> np.uint64(50)).astype(np.uint8)  # 4 b_A + 2 b_B + the port-A bit
    # central 0 for equal bits, SL 1 for (0, 1), LS 2 for (1, 0)
    branch = (top >> 1) % 3
    port_a = np.uint8(5) + (top & 1)
    same = u[:, 2].copy()
    del u, bits  # the largest arrays here: free them before the times are assembled

    b_a, b_b = top >= 4, (top & 2) > 0
    t_a = pairs.t0_ps + b_a * to_picoseconds(cfg_a.t_sl) + jitter_a_ps
    t_b = pairs.t0_ps + to_picoseconds(pairs.eps) + b_b * to_picoseconds(cfg_b.t_sl) + jitter_b_ps
    return branch, same, (port_a, t_a, keep_a), (t_b, keep_b)


def _port_b(fringe, branch, same, port_a):
    """Each pair's port at B from :func:`_detect`'s columns and its fringe term:
    port A's with chance (1 + fringe) / 2 centrally and 1/2 on a side branch."""
    p_same = 0.5 + 0.5 * fringe * (branch == 0)
    return port_a ^ (np.uint8(3) * (same >= p_same))  # 5 ^ 3 = 6, 6 ^ 3 = 5


def _step_tags(steps, umzis, det, seed, stream=(0,), start=0):
    """Stream A and each step's stream B of the ensembles ``steps``, which
    share their times (:func:`franson.source._sample`), step s through
    ``umzis[s] = (cfg_a, cfg_b)``, which share their delays.  The steps share
    every draw, and step s is bitwise :func:`simulate_tags` of its own."""
    branch, same, (port_a, t_a, keep_a), (t_b, keep_b) = _detect(
        steps[0], *umzis[0], det, seed, stream, start
    )
    t_b = t_b[keep_b]
    fringes = (fringe_term(pairs.df, pairs.dp, *umzi) for pairs, umzi in zip(steps, umzis))
    streams_b = [TagStream(_port_b(fringe, branch, same, port_a)[keep_b], t_b) for fringe in fringes]
    return TagStream(port_a[keep_a], t_a[keep_a]), streams_b


def simulate_tags(
    pairs: PairEnsemble,
    cfg_a: UmziConfig,
    cfg_b: UmziConfig,
    det: DetectorModel,
    seed: int,
    stream=(0,),
    start: int = 0,
) -> tuple[TagStream, TagStream]:
    """Detect a sampled ensemble; returns the streams of party A (the signal
    photons, through ``cfg_a``) and party B (the idlers, through ``cfg_b``),
    whose central fringe has visibility gamma_A gamma_B.

    stream: the key path (a tuple) of the pairs; the detection draws come
    from its ROLE_DETECTION substream.
    start: the stream index of the ensemble's first pair, as given to
    :func:`franson.source.sample_pairs`; pair j takes detection item start + j.

    Each stream holds its party's kept tags of :func:`_detect`, which are in
    pair order, so tags of equal time stay in pair order.
    """
    tags_a, [tags_b] = _step_tags([pairs], [(cfg_a, cfg_b)], det, seed, stream, start)
    return tags_a, tags_b


def simulate_run(
    model: SpectralModel,
    cfg_a: UmziConfig,
    cfg_b: UmziConfig,
    det: DetectorModel,
    n_pairs: int,
    seed: int,
    stream=(0,),
):
    """Sample and detect pairs 0 .. n_pairs-1 of ``stream`` ``WRITE_CHUNK``
    at a time; yields each chunk's ``(stream_a, stream_b, watermark_ps)`` for
    :func:`write_timetag_chunks` as soon as it is detected, the last chunk's
    watermark None.

    Each chunk's emission times continue the previous chunk's, and the reach
    check covers the run's absolute times, so the chunks' pairs and tags are
    those of one ``sample_pairs`` and ``simulate_tags`` call on the whole run.
    No tag precedes its pair's emission time by more than its pair delay and
    jitter, each at most ``MAX_ABS_NORMAL`` sigma and rounded to the
    picosecond (one of slack), and emission times never decrease: no later
    tag lies below the chunk's own last emission time less that bound.
    """
    # No tag lies below -2 * MAX_TIME_PS, so a larger bound would change nothing.
    sigma_ps = (FWHM_TO_SIGMA / model.delta + det.jitter) * PS_PER_S
    early_ps = math.ceil(min(MAX_ABS_NORMAL * sigma_ps, 2 * MAX_TIME_PS)) + 1
    origin_ps = 0
    for start in range(0, n_pairs, WRITE_CHUNK):
        n = min(WRITE_CHUNK, n_pairs - start)
        pairs = sample_pairs(model, n, seed, stream, start, origin_ps, run_pairs=n_pairs)
        origin_ps = int(pairs.t0_ps[-1])
        tags = simulate_tags(pairs, cfg_a, cfg_b, det, seed, stream, start=start)
        del pairs  # not held while the writer takes the tags
        yield (*tags, origin_ps - early_ps if start + n < n_pairs else None)


def text_rows(columns, sep: int) -> np.ndarray:
    """Lay out text rows as one uint8 buffer, whole columns at a time.

    Each row holds its entry of every column, joined by the byte ``sep`` and
    ended by a newline.  A uint8 column is one raw byte per row; any other
    column is an int64 written in decimal, with a leading ``-`` when negative.
    """
    cells = []  # per column: its bytes, or its ('-' mask, magnitude, digit count)
    lengths = np.full(len(columns[0]), len(columns), dtype=np.int64)  # a byte after each cell
    for col in columns:
        if col.dtype == np.uint8:
            cells.append(col)
            lengths += 1
            continue
        col = np.asarray(col, dtype=np.int64)
        neg = col < 0
        mag = np.abs(col).view(np.uint64)  # |INT64_MIN| wraps to 2**63: still right
        n_digits = 1 + np.searchsorted(_POW10, mag, side="right")
        cells.append((neg, mag, n_digits))
        lengths += neg
        lengths += n_digits
    ends = np.cumsum(lengths)
    buf = np.empty(int(ends[-1]) if ends.size else 0, dtype=np.uint8)
    pos = ends - lengths  # where each row's next cell starts
    for i, cell in enumerate(cells):
        if isinstance(cell, np.ndarray):
            buf[pos] = cell
            pos += 1
        else:
            neg, mag, n_digits = cell
            buf[pos[neg]] = _MINUS
            pos += neg
            pos += n_digits
            at = pos - 1  # each cell's last digit; digits are written right to left
            for k in range(int(n_digits.max(initial=0))):
                live = n_digits > k
                if not live.all():
                    at, mag, n_digits = at[live], mag[live], n_digits[live]
                quotient = mag // np.uint64(10)  # faster than divmod: a division by a constant
                digit = mag - np.uint64(10) * quotient
                buf[at] = _ZERO + digit.astype(np.uint8)  # a uint8 scatter is twice as fast
                mag = quotient
                at -= 1
        buf[pos] = sep if i + 1 < len(cells) else _NEWLINE
        pos += 1
    return buf


def write_timetags(
    path, stream_a: TagStream, stream_b: TagStream, seed: int, config_hash: str
) -> None:
    """Dump both streams as one chunk of :func:`write_timetag_chunks`; kept
    for the tests and for the benchmark tracer, which binds it by name."""
    write_timetag_chunks(path, [(stream_a, stream_b, None)], seed, config_hash)


def write_timetag_chunks(path, chunks, seed: int, config_hash: str) -> None:
    """Dump a run's tags, given as ``(stream_a, stream_b, watermark_ps)``
    chunks in pair order: one ``party port time_ps`` record per line, party
    ``A`` for ``stream_a`` and ``B`` for ``stream_b``, in time order, A
    before B at equal times, then pair order; the header carries the seed and
    the config hash.

    No tag of a later chunk may lie below a chunk's ``watermark_ps`` (None
    for the last chunk).  After each chunk, the tags so far below its
    watermark are written, ``WRITE_CHUNK`` records per layout, and the rest
    are held back for later chunks.  The dump is written beside ``path``
    and renamed to it once whole, so a run that fails leaves none.
    """
    header = "\n".join(
        [
            TIMETAG_MAGIC,
            f"# seed={seed}",
            f"# config_hash={config_hash}",
            "# columns: party port time_ps",
        ]
    )
    path = Path(path)
    part = path.with_name(path.name + ".part")
    held = [(np.empty(0, np.uint8), np.empty(0, np.int64))] * 2  # (port, time_ps) per party
    floor = -math.inf  # the last watermark: no tag to come may lie below it
    try:
        with open(part, "wb") as fh:
            fh.write((header + "\n").encode("ascii"))
            for stream_a, stream_b, watermark_ps in chunks:
                # Held A, new A, held B, new B: each in (time, pair) order, so a
                # stable sort by time puts A before B, then pair order, at equal times.
                new = [(s.port, s.time_ps) for s in (stream_a, stream_b)]
                runs = (held[0], new[0], held[1], new[1])
                ports = np.concatenate([port for port, _ in runs])
                times = np.concatenate([time_ps for _, time_ps in runs])
                n_a = held[0][1].size + new[0][1].size
                order = np.argsort(times, kind="stable")
                if order.size and times[order[0]] < floor:
                    raise ValueError(f"a chunk has tags below the previous watermark, {floor} ps")
                floor = math.inf if watermark_ps is None else watermark_ps
                n_out = np.count_nonzero(times < floor)
                for lo in range(0, n_out, WRITE_CHUNK):
                    rows = order[lo : min(lo + WRITE_CHUNK, n_out)]
                    parties = _PARTIES[(rows >= n_a).view(np.uint8)]
                    fh.write(text_rows((parties, _ZERO + ports[rows], times[rows]), _SPACE))
                rest = order[n_out:]
                held = [(ports[r], times[r]) for r in (rest[rest < n_a], rest[rest >= n_a])]
        os.replace(part, path)
    except BaseException:
        part.unlink(missing_ok=True)
        raise


def _record_problem(line: bytes) -> str:
    """Why ``line`` (no newline) is not a ``party port time_ps`` record, checked in order."""
    if len(line) > _MAX_LINE:
        return f"line longer than {_MAX_LINE} bytes"
    line = line.decode("ascii", "replace")
    fields = line.split(" ")
    if len(fields) != 3:
        return f"expected 'party port time_ps', got {line!r}"
    party, port, time_ps = fields
    if party not in ("A", "B"):
        return f"party must be A or B, got {party!r}"
    if port not in ("5", "6"):
        return f"port must be 5 or 6, got {port!r}"
    digits = time_ps.removeprefix("-")
    if not (1 <= len(digits) <= 19 and digits.isdigit()):
        return f"time_ps must be an integer of 1 to 19 digits, got {time_ps!r}"
    return f"|time_ps| must be below 2**62, got {time_ps!r}"


def read_timetags(path) -> tuple[TagStream, TagStream, dict[str, str]]:
    """Load a dump; returns (stream_A, stream_B, header metadata).

    A dump must have the writer's form, each line ended by a newline: the
    magic line, the ``#`` header lines right after it, whose ``# key=value``
    entries fill the header, then the records: ``A`` or ``B``, one space,
    ``5`` or ``6``, one space, then ``time_ps`` as an optional ``-`` and 1
    to 19 digits, its magnitude below 2**62.  The earliest line that is none
    of these, or that holds more than 64 bytes before its newline, fails with
    ``path:line``.

    After the magic line, the header lines are read one at a time, at most
    65 bytes each; the first line that is not a whole ``#`` line starts the
    records.  They are read ``READ_BLOCK`` bytes at a time, each block's
    unfinished last line carried into the next, and the whole lines are
    parsed as arrays with one entry per line.  The carried line fails once it
    passes 64 bytes, so memory is bounded by the block size.
    """
    header: dict[str, str] = {}
    # (port, time_ps) per block, for each party
    parts = {code: [(np.empty(0, np.uint8), np.empty(0, np.int64))] for code in (_A, _B)}
    magic = TIMETAG_MAGIC + "\n"
    with open(path, "rb") as fh:
        if (first := fh.read(len(magic)).decode("ascii", "replace")) != magic:
            raise ValueError(f"{path}:1: not a time-tag dump: bad magic line {first!r}, not {magic!r}")
        line = 2  # the number of the line that starts rest, the bytes carried
        while (rest := fh.readline(_MAX_LINE + 1)).startswith(b"#") and rest.endswith(b"\n"):
            key, eq, value = rest[1:-1].decode("ascii", "replace").partition("=")
            if eq:
                header[key.strip()] = value.strip()
            line += 1
        while True:
            if whole := rest.rfind(b"\n") + 1:
                line += _parse_lines(path, rest[:whole], line, parts)
                rest = rest[whole:]
            if len(rest) > _MAX_LINE:
                raise ValueError(f"{path}:{line}: {_record_problem(rest)}")
            if not (block := fh.read(READ_BLOCK)):
                break
            rest += block
    if rest:
        raise ValueError(f"{path}:{line}: the file ends inside this line, before its newline")
    streams = [TagStream(*(np.concatenate(c) for c in zip(*parts.pop(code)))) for code in (_A, _B)]
    return *streams, header


def _parse_lines(path, data: bytes, first_line: int, parts: dict) -> int:
    """Parse ``data``, whole record lines of which the first is line
    ``first_line`` of ``path``, into their parties' ``parts``.  Returns the
    number of lines."""
    # Lines as (start, end) byte offsets without the newline.
    buf = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero(buf == _NEWLINE)
    starts = np.concatenate([[0], ends[:-1] + 1])
    last = len(data) - 1

    def at(offset):  # one byte per line, clipped at the end of the data
        return buf[np.minimum(starts + offset, last)]

    party = at(0)
    port = at(2) - _ZERO
    neg = at(4) == _MINUS
    n_digits = ends - starts - 4 - neg
    ok = (
        ((party == _A) | (party == _B))
        & (at(1) == _SPACE)
        & ((port == 5) | (port == 6))
        & (at(3) == _SPACE)
        & (n_digits >= 1)
        & (n_digits <= 19)  # so no line over 64 bytes passes
    )
    # Horner over the digit runs, left to right: pass j reads the j-th digit
    # of every record whose run is longer than j.  19 digits fit in uint64.
    first_digit = starts + 4 + neg
    magnitude = np.zeros(starts.size, dtype=np.uint64)
    for j in range(int(np.max(n_digits, where=ok, initial=0))):
        live = ok & (n_digits > j)
        digit = np.where(live, buf[np.minimum(first_digit + j, last)] - _ZERO, 0)
        ok &= digit < 10
        magnitude = np.where(live, magnitude * np.uint64(10) + digit, magnitude)
    ok &= magnitude < np.uint64(_MAX_DUMP_TIME)
    time_ps = magnitude.astype(np.int64)
    np.negative(time_ps, out=time_ps, where=neg)

    if not ok.all():
        i = int(np.argmin(ok))
        raise ValueError(f"{path}:{first_line + i}: {_record_problem(data[starts[i] : ends[i]])}")
    for code, blocks in parts.items():
        mine = party == code
        blocks.append((port[mine], time_ps[mine]))
    return ends.size
