"""Linear attention biases, standard and visibility-aware.

Positions never enter the token stream or the KV cache; each head adds a
negative bias proportional to the distance between query and key.  The
visibility-aware variant measures distance by rank among a row's *visible*
keys, so rows whose source visibility was cut keep the same consecutive
bias ladder an incremental decoding step would assign over its cache.
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

    def __getitem__(self, h: int) -> float:
        return self.slopes[h]


@functools.lru_cache(maxsize=64)
def alibi_slopes(n_heads: int) -> HeadSlopes:
    """Geometric slope ladder: head h (1-based) gets 2^(-8h / n_heads).

    Memoized: HeadSlopes is frozen, so every caller may share one.
    """
    if n_heads < 1:
        raise ConfigError(f"n_heads must be >= 1, got {n_heads}")
    return HeadSlopes(tuple(2.0 ** (-8.0 * h / n_heads) for h in range(1, n_heads + 1)))


def rank_biases(n_visible: int, slope: float, dtype=np.float32) -> np.ndarray:
    """Bias ladder over n visible keys in ascending order: most recent gets 0.

    The incremental decoder's ladder.  ``head_biases`` computes the same
    product, -float32(slope) * rank, for all rows and heads at once, so
    the two sides produce bit-identical values.  An (H, 1) column of slopes
    gives one ladder per head, shape (H, n).
    """
    ranks = np.arange(n_visible - 1, -1, -1, dtype=dtype)
    return -dtype(slope) * ranks


def _causal_ranks(length: int) -> tuple[np.ndarray, np.ndarray]:
    """(ranks, visible) of a causal mask: entry (i, j) has rank i - j."""
    idx = np.arange(length)
    ranks = (idx[:, None] - idx[None, :]).astype(np.float32)
    return ranks, np.tril(np.ones((length, length), dtype=bool))


def _visible_ranks(visible: np.ndarray) -> np.ndarray:
    """Rank of each visible key among its row's visible keys, counted from
    the right (nearest visible key 0), as float32.

    One cumulative sum covers every row: a visible key's rank is the number
    of visible keys to its right.  Raises DegenerateRowError naming the
    first row with no visible key.
    """
    total = np.count_nonzero(visible, axis=1)
    empty = np.flatnonzero(total == 0)
    if empty.size:
        raise DegenerateRowError(f"row {empty[0]} has no visible key")
    seen = np.cumsum(visible, axis=1, dtype=np.intp)
    return (total[:, None] - seen).astype(np.float32)


def head_biases(mask: AttentionMaskSpec, slopes: HeadSlopes,
                kind: str = "modified") -> np.ndarray:
    """Read-only float32 (H, L, L) bias stack for a shared mask.

    Head h holds -slopes[h] * rank on visible entries (rank 0 gives -0.0,
    as ``rank_biases`` does) and +0.0 on hidden ones.  kind 'modified'
    ranks each row's visible keys, so in each row the visible keys, taken
    in ascending order, get -slope*(n-1), ..., -slope, 0: where a row's
    visibility has gaps, the biases left of each gap shrink by exactly the
    attention removed, matching what a fresh incremental step would assign
    over a cache lacking those entries.  'standard' keeps plain causal
    distances regardless of hidden entries (the ablation that leaves bias
    gaps).  On a causal mask the two agree.
    """
    if kind == "modified":
        ranks, visible = _visible_ranks(mask.visible), mask.visible
    elif kind == "standard":
        if mask.rows != mask.cols:
            raise ConfigError("standard biases need a square mask")
        ranks, visible = _causal_ranks(mask.rows)
    else:
        raise ConfigError(f"unknown bias kind {kind!r}")
    scale = -np.asarray(slopes.slopes, dtype=np.float32)[:, None, None]
    stack = np.where(visible, scale * ranks, np.float32(0))
    stack.setflags(write=False)
    return stack


def bias_to_csv(bias: np.ndarray, visible: np.ndarray) -> str:
    """CSV of (row, col, bias) over the visible entries of one head's
    (L, L) biases, row-major order."""
    lines = ["row,col,bias"]
    for i, j in zip(*np.nonzero(visible)):
        lines.append(f"{i},{j},{repr(float(bias[i, j]))}")
    return "\n".join(lines) + "\n"
