"""Linear attention biases, standard and visibility-aware.

Positions never enter the token stream or the KV cache; each head adds a
negative bias proportional to the distance between query and key.  The
visibility-aware variant measures distance by rank among a row's *visible*
keys, so rows whose source visibility was cut keep the same consecutive
bias ladder an incremental decoding step would assign over its cache.
"""

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
        if any(v <= 0 for v in s) or any(nxt >= prev for prev, nxt in zip(s, s[1:])):
            raise ConfigError("slopes must be positive and strictly decreasing")
        object.__setattr__(self, "slopes", s)

    def __len__(self) -> int:
        return len(self.slopes)

    def __getitem__(self, h: int) -> float:
        return self.slopes[h]


def alibi_slopes(n_heads: int) -> HeadSlopes:
    """Geometric slope ladder: head h (1-based) gets 2^(-8h / n_heads)."""
    if n_heads < 1:
        raise ConfigError(f"n_heads must be >= 1, got {n_heads}")
    return HeadSlopes(tuple(2.0 ** (-8.0 * h / n_heads) for h in range(1, n_heads + 1)))


def rank_biases(n_visible: int, slope: float, dtype=np.float32) -> np.ndarray:
    """Bias ladder over n visible keys in ascending order: most recent gets 0.

    Shared by the mask-side constructors and the incremental decoder so the
    two sides produce bit-identical values.  An (H, 1) column of slopes
    gives one ladder per head, shape (H, n).
    """
    ranks = np.arange(n_visible - 1, -1, -1, dtype=dtype)
    return -dtype(slope) * ranks


@dataclass(frozen=True)
class PositionalBias:
    """Additive bias matrix defined on the visible entries of a mask."""

    matrix: np.ndarray
    visible: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix)
        v = np.asarray(self.visible, dtype=bool)
        if m.shape != v.shape:
            raise ConfigError("bias/visibility shapes differ")
        m.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "visible", v)

    def entry(self, i: int, j: int) -> float:
        if not self.visible[i, j]:
            raise ConfigError(f"bias undefined at hidden entry ({i}, {j})")
        return float(self.matrix[i, j])


def standard_alibi(length: int, slope: float) -> PositionalBias:
    """Causal distance biases: entry (i, j) = -slope * (i - j) for j <= i."""
    if length < 1:
        raise ConfigError("length must be >= 1")
    if slope <= 0:
        raise ConfigError("slope must be positive")
    matrix = np.zeros((length, length), dtype=np.float32)
    visible = np.tril(np.ones((length, length), dtype=bool))
    for i in range(length):
        matrix[i, :i + 1] = rank_biases(i + 1, slope)
    return PositionalBias(matrix, visible)


def modified_alibi(mask: AttentionMaskSpec, slope: float) -> PositionalBias:
    """Distance by visible rank: in each row the visible keys, taken in
    ascending order, get biases -slope*(n-1), ..., -slope, 0.

    On a causal mask this reproduces standard_alibi exactly; where a row's
    visibility has gaps, the biases left of each gap shrink by exactly the
    amount of attention removed, matching what a fresh incremental step
    would assign over a cache lacking those entries.
    """
    if slope <= 0:
        raise ConfigError("slope must be positive")
    matrix = np.zeros(mask.visible.shape, dtype=np.float32)
    for i in range(mask.rows):
        vis = np.flatnonzero(mask.visible[i])
        if vis.size == 0:
            raise DegenerateRowError(f"row {i} has no visible key")
        matrix[i, vis] = rank_biases(vis.size, slope)
    return PositionalBias(matrix, mask.visible)


def head_biases(mask: AttentionMaskSpec, slopes: HeadSlopes,
                kind: str = "modified") -> list[PositionalBias]:
    """One PositionalBias per head for a shared mask.

    kind 'modified' follows the mask's visibility ranks; 'standard' keeps
    plain causal distances regardless of hidden entries (the ablation that
    leaves bias gaps).
    """
    if kind == "modified":
        return [modified_alibi(mask, s) for s in slopes.slopes]
    if kind == "standard":
        if mask.rows != mask.cols:
            raise ConfigError("standard biases need a square mask")
        return [standard_alibi(mask.rows, s) for s in slopes.slopes]
    raise ConfigError(f"unknown bias kind {kind!r}")


def bias_to_csv(bias: PositionalBias) -> str:
    """CSV of (row, col, bias) over visible entries, row-major order."""
    lines = ["row,col,bias"]
    for i, j in zip(*np.nonzero(bias.visible)):
        lines.append(f"{i},{j},{repr(float(bias.matrix[i, j]))}")
    return "\n".join(lines) + "\n"
