"""Stochastic detection: per-pair outcomes to time-tag streams.

For each emitted pair the joint outcome (port_a, port_b, branch) is sampled
from the coincidence-basis distribution; detection times are assembled as

    t_A = t0 + b_A * t_sl^A + jitter_A
    t_B = t0 + eps + b_B * t_sl^B + jitter_B

where (b_A, b_B) is (0,0) or (1,1) with equal probability for the central
branch, (0,1) for SL and (1,0) for LS.  The central (b, b) label is pure
bookkeeping: the two assignments are physically indistinguishable, t0 is
itself random, and no observable depends on the split.  Branch and pair id
are carried only as diagnostic fields behind an explicit oracle accessor;
the correlator-facing view is (party, port, time).

All times are quantized component-wise to integer picoseconds, which makes
histograms, dumps and replays exactly reproducible across platforms.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import ndtri

from .correlation import BRANCHES, central_rate_table, SIDE_PROBABILITY
from .interferometer import UmziConfig
from .rng import ROLE_DETECTION, item_uniforms
from .source import PairEnsemble

PS_PER_S = 1e12

TIMETAG_MAGIC = "# franson-timetags v1"


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


@dataclass(frozen=True)
class TimeTag:
    """One detection event; diagnostic fields are for test oracles only."""

    party: str
    port: int
    time_ps: int
    diag_branch: str
    diag_pair_id: int

    @property
    def time(self) -> float:
        return self.time_ps / PS_PER_S


class TagStream:
    """Time-sorted detection events of one party.

    Public arrays: ``port`` and ``time_ps``.  The branch and pair-id arrays
    are diagnostics reachable only through :meth:`diagnostics`; correlator
    results must not change when they are zeroed (see
    :meth:`without_diagnostics`).
    """

    def __init__(self, party, port, time_ps, diag_branch, diag_pair_id):
        order = np.lexsort((np.asarray(diag_pair_id), np.asarray(time_ps)))
        self.party = party
        self.port = np.asarray(port, dtype=np.uint8)[order]
        self.time_ps = np.asarray(time_ps, dtype=np.int64)[order]
        self._diag_branch = np.asarray(diag_branch, dtype=np.int8)[order]
        self._diag_pair_id = np.asarray(diag_pair_id, dtype=np.int64)[order]

    def __len__(self) -> int:
        return self.time_ps.size

    def __getitem__(self, i: int) -> TimeTag:
        return TimeTag(
            party=self.party,
            port=int(self.port[i]),
            time_ps=int(self.time_ps[i]),
            diag_branch=BRANCHES[self._diag_branch[i]],
            diag_pair_id=int(self._diag_pair_id[i]),
        )

    def diagnostics(self) -> tuple[np.ndarray, np.ndarray]:
        """Oracle accessor: (branch index, pair id) per tag; tests only."""
        return self._diag_branch.copy(), self._diag_pair_id.copy()

    def without_diagnostics(self) -> "TagStream":
        """Copy with diagnostic fields zeroed; correlator output must match."""
        return TagStream(
            self.party,
            self.port.copy(),
            self.time_ps.copy(),
            np.zeros_like(self._diag_branch),
            np.zeros_like(self._diag_pair_id),
        )

    def port_counts(self) -> dict[int, int]:
        return {5: int(np.sum(self.port == 5)), 6: int(np.sum(self.port == 6))}


def _sample_outcomes(u_cell, table_flat):
    """Inverse-CDF sample of the 12-cell outcome index per pair."""
    cum = np.cumsum(table_flat, axis=1)
    idx = np.sum(cum < u_cell[:, None], axis=1)
    return np.minimum(idx, table_flat.shape[1] - 1)


def _flat_outcome_table(df, dp, cfg_a, cfg_b, envelope):
    n = df.size
    table = np.full((n, 2, 2, 3), SIDE_PROBABILITY)
    central = central_rate_table(df, dp, cfg_a, cfg_b, envelope)  # (2, 2, n)
    table[:, :, :, 0] = np.moveaxis(central, -1, 0)
    return table.reshape(n, 12)


def simulate_tags(
    pairs: PairEnsemble,
    cfg_a: UmziConfig,
    cfg_b: UmziConfig,
    det: DetectorModel,
    seed: int,
    stream: int = 0,
    envelope: float = 1.0,
    extra_delay_b: float = 0.0,
) -> tuple[TagStream, TagStream]:
    """Detect a sampled ensemble; returns one stream per party.

    envelope: central-fringe envelope factor (imposed wavepacket offset
    and/or pump-side degradations); the path overlaps gamma_A * gamma_B are
    folded in here as well since first-order coherence between the short and
    long paths is a prerequisite for the central-peak interference.
    extra_delay_b: fixed additional delay (s) on party B before detection.
    """
    u = item_uniforms(seed, (int(stream), ROLE_DETECTION), len(pairs))
    t0_ps = to_picoseconds(pairs.t0)
    eps_ps = to_picoseconds(pairs.eps) + to_picoseconds(extra_delay_b)
    effective = envelope * (cfg_a.gamma * cfg_b.gamma)
    flat = _flat_outcome_table(pairs.df, pairs.dp, cfg_a, cfg_b, effective)
    cell = _sample_outcomes(u[:, 0], flat)
    port_a_idx = cell // 6
    port_b_idx = (cell // 3) % 2
    branch = cell % 3

    # Path bits: central pairs take S-S or L-L with equal probability.
    central_bit = (u[:, 1] < 0.5).astype(np.int64)
    b_a = np.where(branch == 0, central_bit, np.where(branch == 1, 0, 1))
    b_b = np.where(branch == 0, central_bit, np.where(branch == 1, 1, 0))

    jitter_a_ps = to_picoseconds(ndtri(u[:, 2]) * det.jitter)
    jitter_b_ps = to_picoseconds(ndtri(u[:, 3]) * det.jitter)
    t_a = t0_ps + b_a * to_picoseconds(cfg_a.t_sl) + jitter_a_ps
    t_b = t0_ps + eps_ps + b_b * to_picoseconds(cfg_b.t_sl) + jitter_b_ps

    keep_a = u[:, 4] < det.efficiency
    keep_b = u[:, 5] < det.efficiency

    stream_a = TagStream(
        cfg_a.party,
        np.where(port_a_idx == 0, 5, 6)[keep_a],
        t_a[keep_a],
        branch[keep_a],
        pairs.ids[keep_a],
    )
    stream_b = TagStream(
        cfg_b.party,
        np.where(port_b_idx == 0, 5, 6)[keep_b],
        t_b[keep_b],
        branch[keep_b],
        pairs.ids[keep_b],
    )
    return stream_a, stream_b


def write_timetags(
    path, stream_a: TagStream, stream_b: TagStream, seed: int, config_hash: str
) -> None:
    """Dump both streams, merged and time-sorted: one ``party port time_ps``
    record per line; the header carries the seed and the config hash.

    Diagnostic fields are deliberately not serialized.
    """
    parties = np.concatenate(
        [np.zeros(len(stream_a), dtype=np.int8), np.ones(len(stream_b), dtype=np.int8)]
    )
    ports = np.concatenate([stream_a.port, stream_b.port])
    times = np.concatenate([stream_a.time_ps, stream_b.time_ps])
    pair_ids = np.concatenate([stream_a._diag_pair_id, stream_b._diag_pair_id])
    order = np.lexsort((pair_ids, parties, times))
    names = {0: stream_a.party, 1: stream_b.party}
    lines = [
        TIMETAG_MAGIC,
        f"# seed={seed}",
        f"# config_hash={config_hash}",
        "# columns: party port time_ps",
    ]
    lines.extend(f"{names[parties[i]]} {ports[i]} {times[i]}" for i in order)
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def read_timetags(path) -> tuple[TagStream, TagStream, dict[str, str]]:
    """Load a dump; returns (stream_A, stream_B, header metadata).

    Loaded streams carry zeroed diagnostics: a dump is correlator-facing.
    """
    header: dict[str, str] = {}
    records: dict[str, list[tuple[int, int]]] = {"A": [], "B": []}
    with open(path, "r", encoding="ascii") as fh:
        first = fh.readline().rstrip("\n")
        if first != TIMETAG_MAGIC:
            raise ValueError(f"not a time-tag dump (bad magic line {first!r})")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line.lstrip("# ")
                if "=" in body:
                    key, value = body.split("=", 1)
                    header[key.strip()] = value.strip()
                continue
            try:
                party, port, time_ps = line.split()
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: expected 'party port time_ps', got {line!r}"
                ) from None
            rows = records.get(party)
            if rows is None:
                raise ValueError(f"{path}:{lineno}: party must be A or B, got {party!r}")
            if port not in ("5", "6"):
                raise ValueError(f"{path}:{lineno}: port must be 5 or 6, got {port!r}")
            try:
                rows.append((int(port), int(time_ps)))
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: time_ps must be an integer, got {time_ps!r}"
                ) from None

    def build(party: str) -> TagStream:
        rows = records[party]
        ports = np.array([r[0] for r in rows], dtype=np.uint8)
        times = np.array([r[1] for r in rows], dtype=np.int64)
        zeros = np.zeros(len(rows), dtype=np.int64)
        return TagStream(party, ports, times, zeros, zeros)

    return build("A"), build("B"), header


def branch_from_tau(tau_ps: int, t_sl_ps: int) -> str:
    """Recover the branch label from an exact coincidence delay (jitter-free,
    eps-free streams only); used by diagnostic tests."""
    mapping = {0: "central", -t_sl_ps: "SL", t_sl_ps: "LS"}
    if tau_ps not in mapping:
        raise ValueError(f"tau = {tau_ps} ps is not one of 0, +-{t_sl_ps} ps")
    return mapping[tau_ps]
