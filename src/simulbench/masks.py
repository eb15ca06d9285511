"""Decision policies and attention-mask construction.

A training sequence is laid out as four contiguous regions:

    pre-prompt | source | mid-prompt | target

A decision policy gives f(t), the cumulative number of source tokens
available when target token t is emitted.  The masks built here restrict a
causal mask so that each target-predicting query row sees exactly the
tokens its inference step would see, which is what removes the
fine-tuning/inference mismatch for cached streaming decoding.
"""

import enum
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import LayoutError, PolicyError, ShapeError
from .kernel import NEG_INF


class Region(enum.IntEnum):
    """Token regions in canonical order."""

    PRE_PROMPT = 0
    SOURCE = 1
    MID_PROMPT = 2
    TARGET = 3


def whole(value, what: str, error, depth: int = 0):
    """The whole-count rule that every public entry point applies.

    A value passes when it is not a bool (to Python, an integer) and
    ``operator.index`` takes it; it comes back as an int.  With ``depth``
    > 0, a list or tuple passes when each element does at ``depth - 1``
    (it comes back as a list), and an ndarray when its dtype is an integer
    kind (one test, no per-element loop; it comes back as it is, its shape
    the caller's to check).  Else ``error`` names ``what`` and the value."""
    if depth and isinstance(value, np.ndarray):
        if value.dtype.kind in "iu":
            return value
        raise error(f"{what}: {value.dtype} array is not an integer array")
    if depth and isinstance(value, (list, tuple)):
        return [whole(v, what, error, depth - 1) for v in value]
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise error(f"{what}: {value!r} is not an integer (integers only, "
                f"and a bool is not one)")


def _check_lengths(**lengths):
    for name, n in lengths.items():
        if whole(n, name, LayoutError) < 1:
            raise LayoutError(f"{name} must be >= 1, got {n}")


@dataclass(frozen=True)
class PromptLayout:
    """Region lengths of one training sequence (whole counts, all >= 1)."""

    pre_prompt_len: int
    source_len: int
    mid_prompt_len: int
    target_len: int

    def __post_init__(self):
        _check_lengths(pre_prompt_len=self.pre_prompt_len,
                       source_len=self.source_len,
                       mid_prompt_len=self.mid_prompt_len,
                       target_len=self.target_len)

    @property
    def total_len(self) -> int:
        return (self.pre_prompt_len + self.source_len
                + self.mid_prompt_len + self.target_len)

    @property
    def source_start(self) -> int:
        return self.pre_prompt_len

    @property
    def mid_start(self) -> int:
        return self.pre_prompt_len + self.source_len

    @property
    def target_start(self) -> int:
        return self.mid_start + self.mid_prompt_len

    def predictor_row(self, t: int) -> int:
        """Absolute row of the query that predicts target token t (1-based).

        The final mid-prompt row predicts t=1; target row t-1 predicts t>=2.
        """
        if not 1 <= whole(t, "target token", LayoutError) <= self.target_len:
            raise LayoutError(f"no predictor row for target token {t}")
        if t == 1:
            return self.target_start - 1
        return self.target_start + t - 2

    def predictor_rows(self) -> tuple[int, ...]:
        """All rows whose next-token prediction is a target token."""
        return tuple(self.predictor_row(t) for t in range(1, self.target_len + 1))


class DecisionPolicy:
    """Interface: cumulative source reads per emitted target token."""

    source_len: int

    def cumulative_reads(self, t: int) -> int:
        """f(t); PolicyError for a step outside the policy's domain."""
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class WaitKPolicy(DecisionPolicy):
    """Read k tokens, then alternate one write with one read."""

    k: int
    source_len: int

    def __post_init__(self):
        if whole(self.k, "wait-k lag", PolicyError) < 1:
            raise PolicyError(f"wait-k lag must be >= 1, got {self.k}")
        if whole(self.source_len, "source_len", PolicyError) < 1:
            raise PolicyError("source_len must be >= 1")

    def cumulative_reads(self, t: int) -> int:
        if whole(t, "target step", PolicyError) < 1:
            raise PolicyError(f"target step must be >= 1, got {t}")
        return min(self.k + t - 1, self.source_len)

    def describe(self) -> str:
        return f"wait-{self.k}"


@dataclass(frozen=True)
class TablePolicy(DecisionPolicy):
    """Explicit per-step cumulative read counts (supports adaptive policies)."""

    reads: tuple[int, ...]
    source_len: int = field(default=0)

    def __post_init__(self):
        reads = tuple(whole(list(self.reads), "read counts", PolicyError, 1))
        if not reads:
            raise PolicyError("reads table must be non-empty")
        src = whole(self.source_len, "source_len", PolicyError) or max(reads)
        object.__setattr__(self, "reads", reads)
        object.__setattr__(self, "source_len", src)
        prev = 1
        for r in reads:
            if not 1 <= r <= src:
                raise PolicyError(f"read count {r} outside 1..{src}")
            if r < prev:
                raise PolicyError("read counts must be non-decreasing")
            prev = r

    def cumulative_reads(self, t: int) -> int:
        if not 1 <= whole(t, "target step", PolicyError) <= len(self.reads):
            raise PolicyError(f"policy covers 1..{len(self.reads)}, got step {t}")
        return self.reads[t - 1]

    def describe(self) -> str:
        return "table-" + ",".join(str(r) for r in self.reads)


@dataclass(frozen=True)
class AttentionMaskSpec:
    """Boolean visibility grid: True = visible, False = hidden."""

    visible: np.ndarray

    def __post_init__(self):
        vis = np.asarray(self.visible, dtype=bool)
        if vis.ndim != 2:
            raise ShapeError("mask grid must be 2-D")
        if not vis.any(axis=1).all():
            raise ShapeError("every query row needs at least one visible entry")
        vis.setflags(write=False)
        object.__setattr__(self, "visible", vis)

    @property
    def rows(self) -> int:
        return self.visible.shape[0]

    @property
    def cols(self) -> int:
        return self.visible.shape[1]

    def to_additive(self, dtype=np.float32) -> np.ndarray:
        """0 where visible, -inf where hidden."""
        out = np.zeros(self.visible.shape, dtype=dtype)
        out[~self.visible] = NEG_INF
        return out


def causal_mask(length: int) -> AttentionMaskSpec:
    """Lower-triangular visibility: position i sees j iff j <= i."""
    if length < 1:
        raise ShapeError("causal mask needs length >= 1")
    return AttentionMaskSpec(np.tril(np.ones((length, length), dtype=bool)))


def simul_mask(layout: PromptLayout, policy: DecisionPolicy) -> AttentionMaskSpec:
    """Causal mask restricted to mirror streaming inference under a policy.

    Construction:
      1. start from the causal mask over the whole sequence;
      2. in the row predicting target token t, hide source keys beyond
         f(t);
      3. in every mid-prompt row before the predictor of the first target
         token, hide source keys beyond f(1).

    The final target row predicts nothing; it keeps full source visibility
    so that the loss can be computed over a complete sequence.  The visible
    source count of each predicting row is then exactly f(t).  A policy
    too short for the layout raises PolicyError from ``cumulative_reads``.
    """
    if policy.source_len != layout.source_len:
        raise LayoutError(
            f"policy source_len {policy.source_len} != layout {layout.source_len}")
    reads = [policy.cumulative_reads(t) for t in range(1, layout.target_len + 1)]
    return read_count_mask(layout.pre_prompt_len, layout.mid_prompt_len,
                           reads + [layout.source_len])


def read_count_mask(pre_len: int, mid_len: int, reads) -> AttentionMaskSpec:
    """Streaming visibility from cumulative read counts.

    The sequence is pre | source | mid | target with ``reads[-1]`` source
    and ``len(reads) - 1`` target tokens, so its last row predicts token
    ``len(reads)``.  Each row sees its causal prefix, except that rows
    from the mid-prompt on see only the source tokens before their
    frontier: the row predicting token t the first ``reads[t-1]``, the
    mid-prompt rows before it the first ``reads[0]``.  Raises LayoutError
    for an empty region and PolicyError for read counts outside
    1..reads[-1], decreasing or not whole.
    """
    reads = np.asarray(whole(list(reads), "read counts", PolicyError, 1))
    src = int(reads[-1])
    _check_lengths(pre_prompt_len=pre_len, source_len=src,
                   mid_prompt_len=mid_len)
    if reads[0] < 1 or (reads[1:] < reads[:-1]).any():
        raise PolicyError(f"read counts must be non-decreasing within 1..{src}")
    s_end = pre_len + src
    cols = np.arange(s_end + mid_len - 1 + reads.size)
    vis = cols <= cols[:, None]
    frontier = np.empty(cols.size - s_end, dtype=np.intp)  # rows s_end..
    frontier[:mid_len - 1] = reads[0]
    frontier[mid_len - 1:] = reads
    vis[s_end:, pre_len:s_end] = cols[:src] < frontier[:, None]
    return AttentionMaskSpec(vis)


def mask_to_ascii(mask: AttentionMaskSpec, policy_desc: str) -> str:
    """'#' = visible, '.' = hidden; header carries size and policy."""
    lines = [f"L={mask.rows} policy={policy_desc}"]
    for row in mask.visible:
        lines.append("".join("#" if v else "." for v in row))
    return "\n".join(lines) + "\n"
