"""Linear attention biases, standard and visibility-aware.

Positions never enter the token stream or the KV cache; each head adds a
negative bias proportional to the distance between query and key.  The
visibility-aware variant measures distance by rank among a row's *visible*
keys, so rows whose source visibility was cut keep the same consecutive
bias ladder an incremental decoding step would assign over its cache.
Every bias is read off one ladder per slope set, kept and grown by
``rank_biases``.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateRowError
from .masks import AttentionMaskSpec


@dataclass(frozen=True)
class HeadSlopes:
    """Per-head slopes, strictly positive and strictly decreasing."""

    slopes: tuple[float, ...]

    def __post_init__(self):
        s = tuple(float(v) for v in self.slopes)
        if not s:
            raise ConfigError("at least one head required")
        if not np.isfinite(s).all():
            raise ConfigError("slopes must be finite")
        if any(v <= 0 for v in s) or any(nxt >= prev for prev, nxt in zip(s, s[1:])):
            raise ConfigError("slopes must be positive and strictly decreasing")
        object.__setattr__(self, "slopes", s)

    def __len__(self) -> int:
        return len(self.slopes)


@functools.lru_cache(maxsize=64)
def alibi_slopes(n_heads: int) -> HeadSlopes:
    """Geometric slope ladder: head h (1-based) gets 2^(-8h / n_heads).

    Memoized: HeadSlopes is frozen, so every caller may share one.
    """
    if n_heads < 1:
        raise ConfigError(f"n_heads must be >= 1, got {n_heads}")
    return HeadSlopes(tuple(2.0 ** (-8.0 * h / n_heads) for h in range(1, n_heads + 1)))


_KEPT: dict[HeadSlopes, np.ndarray] = {}  # slope set -> read-only ladder


def rank_biases(n_visible: int, slopes: HeadSlopes) -> np.ndarray:
    """Read-only float32 (H, n) bias ladder over n visible keys, one row
    per head, ascending: most recent 0.

    Entry n-1-r of head h holds -float32(slopes[h]) * r, the bias of rank
    r, whatever n is, so the (H, n) ladder is the tail of any longer one.
    One ladder is kept per slope set, 16 entries at first and grown by
    doubling, and every call slices its tail.  Every bias of the package
    is an entry of such a ladder, so all paths produce bit-identical
    values for equal ranks.
    """
    ladder = _KEPT.get(slopes)
    if ladder is None or ladder.shape[1] < n_visible:
        size = 16 if ladder is None else ladder.shape[1]
        while size < n_visible:
            size *= 2
        ranks = np.arange(size - 1, -1, -1, dtype=np.float32)
        ladder = -np.float32(np.asarray(slopes.slopes)[:, None]) * ranks
        ladder.setflags(write=False)
        _KEPT[slopes] = ladder
    return ladder[:, ladder.shape[1] - n_visible:]


def visible_biases(rows: np.ndarray, cols: np.ndarray, counts: np.ndarray,
                   slopes: HeadSlopes, kind: str) -> np.ndarray:
    """float32 (H, n) biases of the visible entries (rows[i], cols[i]),
    listed row-major, where row r has ``counts[r]`` of them.

    This is the one rank rule: entry i is -slopes[h] * ranks[i], read off
    the kept ``rank_biases`` ladder indexed by integer ranks (rank 0 gives
    -0.0).  kind 'modified' ranks a key among its row's visible keys,
    counted from the right (nearest visible key 0), so in each row the
    visible keys, taken in ascending order, get
    -slope*(n-1), ..., -slope, 0: where a row's visibility has gaps, the
    biases left of each gap shrink by exactly the attention removed,
    matching what a fresh incremental step would assign over a cache
    lacking those entries.  'standard' ranks by plain distance rows - cols,
    regardless of hidden entries (the ablation that leaves bias gaps).  On
    a causal mask the two agree.
    """
    if kind == "modified":
        n = int(counts.max())  # ranks run up to a row's count - 1
        ranks = np.cumsum(counts)[rows] - 1 - np.arange(rows.size)
    elif kind == "standard":
        n = counts.size  # causal keys: row r's distances run up to r
        ranks = rows - cols
    else:
        raise ConfigError(f"unknown bias kind {kind!r}")
    return rank_biases(n, slopes).take(n - 1 - ranks, axis=1)


def head_biases(mask: AttentionMaskSpec, slopes: HeadSlopes,
                kind: str = "modified") -> np.ndarray:
    """Read-only float32 (H, L, L) bias stack for a shared mask.

    Head h holds ``visible_biases`` on the ranked entries and +0.0
    elsewhere.  'modified' ranks the mask's visible entries; 'standard'
    every causal entry, whatever the mask hides.  Raises
    DegenerateRowError naming the first row with nothing to rank.
    """
    if kind == "standard":
        if mask.rows != mask.cols:
            raise ConfigError("standard biases need a square mask")
        ranked = np.tril(np.ones((mask.rows, mask.rows), dtype=bool))
    else:
        ranked = mask.visible
    rows, cols = np.nonzero(ranked)
    counts = np.bincount(rows, minlength=ranked.shape[0])
    empty = np.flatnonzero(counts == 0)
    if empty.size:
        raise DegenerateRowError(f"row {empty[0]} has no visible key")
    stack = np.zeros((len(slopes),) + ranked.shape, dtype=np.float32)
    stack[:, rows, cols] = visible_biases(rows, cols, counts, slopes, kind)
    stack.setflags(write=False)
    return stack


def bias_to_csv(bias: np.ndarray, visible: np.ndarray) -> str:
    """CSV of (row, col, bias) over the visible entries of one head's
    (L, L) biases, row-major order."""
    lines = ["row,col,bias"]
    for i, j in zip(*np.nonzero(visible)):
        lines.append(f"{i},{j},{repr(float(bias[i, j]))}")
    return "\n".join(lines) + "\n"
