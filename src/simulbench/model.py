"""Tiny decoder-only transformer with linear attention biases.

No positional embeddings touch the token stream, keys, or values; position
enters only through per-head additive biases.  One row engine computes
every exact forward; it is fed two ways:

* ``forward_full`` runs a whole sequence, taking each row's visible keys
  from an explicit mask and their biases from the rank rule of a bias
  kind;
* ``forward_incremental`` extends a KV cache with one region-ordered run
  of new tokens, given with their count per region; the cache numbers the
  new rows itself and stores its rows in canonical order, so each new
  token attends to a prefix of it, read in place.

Keys and values live in one arena, (n_layers, 2, n_heads, capacity,
d_head), whose shape and dtype come from the model: a ``KVCache``'s,
shaped by its first call, or one built per ``forward_full`` call.  The
engine validates a call's ragged layout once (``kernel.row_plan``) and
every layer's attention reuses the plan.

Given the same visible keys and biases, a row's arithmetic is the same on
both paths, so a full-sequence forward and the equivalent sequence of
incremental calls produce bit-identical float32 logits.  ModelParams are
immutable after creation; a KVCache belongs to a single generation session.
"""

import functools
import json
import math
from dataclasses import dataclass
from itertools import accumulate, chain, groupby

import numpy as np

from .alibi import alibi_slopes, rank_biases, visible_biases
from .errors import CacheCoherenceError, ConfigError, DataError, ShapeError
from .kernel import attend_row, row_plan
from .masks import AttentionMaskSpec, Region, whole

LN_EPS = 1e-5
MIN_CACHE_CAPACITY = 16  # rows a KVCache first allocates
GELU_C = math.sqrt(2.0 / math.pi)  # tanh-GELU: c (x + a x^3)
GELU_CUBIC = 0.044715


@dataclass(frozen=True)
class ModelConfig:
    n_layers: int = 2
    n_heads: int = 4
    d_model: int = 64
    vocab_size: int = 24
    seed: int = 0

    def __post_init__(self):
        for name, value in vars(self).items():
            if type(value) is not int:  # no bool, float or numpy scalar
                raise ConfigError(f"{name} must be an int, got {value!r}")
        if min(self.n_layers, self.n_heads, self.d_model, self.vocab_size) < 1:
            raise ConfigError("all model dimensions must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.n_heads & (self.n_heads - 1):
            raise ConfigError(f"n_heads must be a power of two, got {self.n_heads}")
        if self.d_model % self.n_heads:
            raise ConfigError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")

    @property
    def d_head(self) -> int:
        return self.d_model // self.n_heads


_LAYER_TENSORS = ("wq", "wk", "wv", "wo", "w1", "w2",
                  "ln1_g", "ln1_b", "ln2_g", "ln2_b")


@dataclass(frozen=True)
class LayerParams:
    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    w1: np.ndarray
    w2: np.ndarray
    ln1_g: np.ndarray
    ln1_b: np.ndarray
    ln2_g: np.ndarray
    ln2_b: np.ndarray


@dataclass(frozen=True)
class ModelParams:
    config: ModelConfig
    embed: np.ndarray
    layers: tuple[LayerParams, ...]
    lnf_g: np.ndarray
    lnf_b: np.ndarray
    w_out: np.ndarray

    def tensors(self):
        """Deterministically ordered (name, array) pairs."""
        yield "embed", self.embed
        for i, lp in enumerate(self.layers):
            for name in _LAYER_TENSORS:
                yield f"layers.{i}.{name}", getattr(lp, name)
        yield "lnf_g", self.lnf_g
        yield "lnf_b", self.lnf_b
        yield "w_out", self.w_out

    @classmethod
    def from_tensors(cls, config: ModelConfig,
                     arrays: dict[str, np.ndarray]) -> "ModelParams":
        """ModelParams of ``config`` taking each tensor from ``arrays``."""
        layers = tuple(
            LayerParams(**{name: arrays[f"layers.{i}.{name}"]
                           for name in _LAYER_TENSORS})
            for i in range(config.n_layers))
        return cls(config=config, embed=arrays["embed"], layers=layers,
                   lnf_g=arrays["lnf_g"], lnf_b=arrays["lnf_b"],
                   w_out=arrays["w_out"])

    def with_tensors(self, arrays: dict[str, np.ndarray]) -> "ModelParams":
        """New ModelParams taking each tensor from ``arrays``."""
        return ModelParams.from_tensors(self.config, arrays)

    def astype(self, dtype) -> "ModelParams":
        return self.with_tensors({k: v.astype(dtype) for k, v in self.tensors()})


def _tensor_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every tensor of a ``config`` model, in
    ``tensors()`` order, worked out without building the model."""
    d, v = config.d_model, config.vocab_size
    layer = dict(zip(_LAYER_TENSORS, [(d, d)] * 4 + [(d, 4 * d), (4 * d, d)]
                     + [(d,)] * 4))
    shapes = {"embed": (v, d)}
    for i in range(config.n_layers):
        shapes.update({f"layers.{i}.{name}": shape
                       for name, shape in layer.items()})
    shapes.update(lnf_g=(d,), lnf_b=(d,), w_out=(d, v))
    return shapes


def init_model(config: ModelConfig) -> ModelParams:
    """Deterministic pseudo-random initialization from config.seed: layer
    norm gains (``_g``) ones, offsets (``_b``) zeros, every other tensor a
    scaled normal draw, drawn in ``tensors()`` order."""
    rng = np.random.default_rng(config.seed)
    arrays = {}
    for name, shape in _tensor_shapes(config).items():
        if name.endswith("_g"):
            arrays[name] = np.ones(shape, dtype=np.float32)
        elif name.endswith("_b"):
            arrays[name] = np.zeros(shape, dtype=np.float32)
        else:
            arrays[name] = (rng.standard_normal(shape) * 0.02).astype(np.float32)
    return ModelParams.from_tensors(config, arrays)


class FlopCounter:
    """Shadow counter the row engine charges with the true sizes of the
    matrix products it runs.

    Convention: one multiply-accumulate = 2 operations; only matrix products
    are counted (no softmax, normalization, activation, or embedding
    lookup costs).
    """

    def __init__(self):
        self.total = 0
        self.kv_rows = 0  # (token, layer) pairs whose keys/values were built


class KVCache:
    """Per-layer cached keys/values, stored in canonical order.

    ``kv`` is one arena of shape (n_layers, 2, n_heads, capacity, d_head):
    ``kv[layer, 0]`` holds that layer's head-major keys, ``kv[layer, 1]``
    its values.  The first ``len(cache)`` entries along the token axis hold
    the cached tokens in canonical order, pre | source | mid | target, each
    region by index, and ``counts`` says how many tokens each region holds.
    A token's visible keys are the rows of every earlier region followed by
    its own region's rows up to itself, which is exactly every row up to
    its own: attention reads a prefix of the arena, in place.

    A ``forward_incremental`` call adds one region-ordered run of rows.  It
    moves the blocks of the later regions right to make room, one slice
    copy per block covering every layer, keys and values (a source token
    read after mid-prompt and target rows exist moves those rows).  When a
    call needs more room, the arena doubles its capacity (one copy of the
    cache per growth), so growth costs amortized O(1) per token.
    Entries past ``len(cache)`` are scratch.  ``arrival`` gives the arrival
    number of each cached row, in canonical order; only the ``stale`` bias
    control reads it.  The first call shapes the arena (``kv``, None
    before) from its model; a later call's model must match it in layer
    count, head count, head width and dtype.  One logical owner per
    cache; no concurrent mutation.
    """

    def __init__(self):
        self.kv = None
        self._arrivals = [[] for _ in Region]  # per region, by index

    def __len__(self) -> int:
        return sum(map(len, self._arrivals))

    @property
    def counts(self) -> list[int]:
        """Cached tokens per region, in region order."""
        return [len(kept) for kept in self._arrivals]

    @property
    def arrival(self) -> np.ndarray:
        """Arrival number of every cached row, in canonical order."""
        return np.fromiter(chain.from_iterable(self._arrivals), dtype=np.intp,
                           count=len(self))

    def _reserve(self, params: ModelParams, size: int):
        """Build or grow the arena, doubling, to hold at least ``size`` rows."""
        capacity = 0 if self.kv is None else self.kv.shape[3]
        if size <= capacity:
            return
        capacity = max(capacity, MIN_CACHE_CAPACITY)
        while capacity < size:
            capacity *= 2
        kv = _kv_arena(params, capacity)
        n = len(self)
        if n:
            kv[:, :, :, :n] = self.kv[:, :, :, :n]
        self.kv = kv

    def _move(self, moves):
        """Move each block (lo, hi, by) of rows right by ``by`` rows, in the
        order given (last block first, so no block lands on one not yet
        moved), every layer's keys and values in one slice copy."""
        kv = self.kv
        for lo, hi, by in moves:
            kv[:, :, :, lo + by:hi + by] = kv[:, :, :, lo:hi]

    def _move_back(self, moves):
        """Undo ``_move(moves)``: every block returns to where it was."""
        kv = self.kv
        for lo, hi, by in reversed(moves):
            kv[:, :, :, lo:hi] = kv[:, :, :, lo + by:hi + by]


def _plan(counts: list[int], added: list[int]):
    """Block moves and new rows of a call adding ``added[r]`` tokens to
    region r of a cache holding ``counts[r]``.

    Returns the blocks to move as (lo, hi, by) triples, last block first,
    adjacent blocks moving equally merged into one, and the canonical row
    of each new token, in region order.
    """
    moves, rows = [], []
    start = end = 0  # the region's first row before and after the call
    for count, k in zip(counts, added):
        by = end - start
        if by and count:
            if moves and moves[-1][1:] == (start, by):
                moves[-1] = (moves[-1][0], start + count, by)
            else:
                moves.append((start, start + count, by))
        start += count
        end += count + k
        rows.extend(range(end - k, end))
    return moves[::-1], rows


@functools.lru_cache(maxsize=None)
def _scalars(dtype: np.dtype, *values):
    """``values`` as scalars of ``dtype``, made once per dtype."""
    return tuple(dtype.type(v) for v in values)


def _layer_norm(x: np.ndarray, gain: np.ndarray, offset: np.ndarray) -> np.ndarray:
    """Layer norm of each row of ``x`` over its last axis.

    Each row reduces exactly as a 1-D ``row.mean(dtype=row.dtype)`` would
    (a same-dtype sum, then one division by the count), without numpy's
    Python-level ``mean`` wrapper.  Every step after the centring runs in
    place on the centred copy.
    """
    n, eps = _scalars(x.dtype, x.shape[-1], LN_EPS)
    mu = np.add.reduce(x, axis=-1, dtype=x.dtype, keepdims=True)
    mu /= n
    c = x - mu
    var = np.add.reduce(c * c, axis=-1, dtype=x.dtype, keepdims=True)
    var /= n
    var += eps
    c /= np.sqrt(var, out=var)
    c *= gain
    c += offset
    return c


def gelu(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """tanh-GELU 0.5 x (1 + tanh(c (x + a x^3))) of ``x``, and the tanh
    (training's backward reads it)."""
    half, c, cubic = _scalars(x.dtype, 0.5, GELU_C, GELU_CUBIC)
    # positional outputs and in-place operators: a cached step's rows are
    # small enough that keyword parsing would show
    t = np.multiply(x, x)
    t *= x
    t *= cubic
    t += x
    t *= c
    np.tanh(t, t)
    g = np.multiply(half, x)
    g *= 1.0 + t
    return g, t


def _kv_arena(params: ModelParams, capacity: int) -> np.ndarray:
    """An uninitialized key/value arena, (n_layers, 2, n_heads, capacity,
    d_head): per layer, head-major keys, then values."""
    cfg = params.config
    return np.empty((cfg.n_layers, 2, cfg.n_heads, capacity, cfg.d_head),
                    dtype=params.embed.dtype)


def _forward_rows(params: ModelParams, tokens, kv: np.ndarray, slots,
                  visible, counts: list[int], offsets: list[int],
                  bias: np.ndarray, flops: list[FlopCounter] | None):
    """The row engine behind both forwards.

    ``kv`` is a key/value arena, (n_layers, 2, n_heads, capacity, d_head);
    each layer writes this call's keys and values in one assignment at
    ``slots`` along the token axis (a slice or an index array).
    ``visible`` maps a layer's (2, n_heads, capacity, d_head) block to the
    (2, n_heads, n, d_head) keys and values the call's attention reads:
    ``forward_full`` gathers every row's visible keys end to end with one
    ``take``, ``forward_incremental`` passes a prefix view of the cache,
    read in place.  Row i attends to the ``counts[i]`` of those rows from
    ``offsets[i]`` on, with the matching entries of the (H, sum(counts))
    additive ``bias`` block, every row's biases end to end; this layout is
    validated once per call, by ``row_plan``, and the plan is shared by
    every layer's ``attend_row``.  Every stage that does not depend on
    visibility (layer norms, projections, FFN, vocabulary head) runs once
    over all rows of the call, each projection as one GEMV per row run
    from C, never as a GEMM, so a row's arithmetic never depends on how
    rows are grouped into calls.  Attention is one ragged ``attend_row``
    call per layer.  ``flops``, when given, holds one shadow counter per
    row; each row's matmul work is charged to its own counter (a run of
    consecutive rows sharing a counter in one charge), so one call may
    serve several events.  Returns the logits.
    """
    cfg = params.config
    d, n_heads, d_head = cfg.d_model, cfg.n_heads, cfg.d_head
    m = len(tokens)
    plan = row_plan(counts, offsets)
    # rows stay stacked as (m, 1, d): a stacked (m, 1, d_in) @ (d_in, d_out)
    # matmul is one GEMV per row, bit-identical to ``row @ w``; a plain
    # (m, d_in) @ (d_in, d_out) GEMM is not, so the result would depend on
    # how rows are grouped into calls
    h = params.embed.take(tokens, axis=0)[:, None]
    new = np.empty((2, m, 1, d), dtype=kv.dtype)  # the call's keys, values
    for lp, layer in zip(params.layers, kv):
        a = _layer_norm(h, lp.ln1_g, lp.ln1_b)
        q = np.matmul(a, lp.wq).reshape(m, n_heads, d_head)
        np.matmul(a, lp.wk, out=new[0])
        np.matmul(a, lp.wv, out=new[1])
        layer[:, :, slots] = (
            new.reshape(2, m, n_heads, d_head).transpose(0, 2, 1, 3))
        seen = visible(layer)
        ctx = attend_row(q, seen[0].transpose(1, 0, 2),
                         seen[1].transpose(1, 0, 2), bias, plan).reshape(m, 1, d)
        h2 = h + np.matmul(ctx, lp.wo)
        b = _layer_norm(h2, lp.ln2_g, lp.ln2_b)
        f = np.matmul(b, lp.w1)
        h = h2 + np.matmul(gelu(f)[0], lp.w2)
    if flops:
        # per row and layer: q, k, v, output projection and FFN, 24 d^2;
        # per row: the vocabulary head; per visible key and layer: scores
        # and weighted sum over all heads, 4 d
        per_row = 2 * d * (12 * d * cfg.n_layers + cfg.vocab_size)
        per_key = 4 * d * cfg.n_layers
        start = 0
        for counter, run in groupby(flops):  # counters compare by identity
            n = len(list(run))
            counter.kv_rows += cfg.n_layers * n
            counter.total += n * per_row + per_key * sum(counts[start:start + n])
            start += n
    return np.matmul(_layer_norm(h, params.lnf_g, params.lnf_b),
                     params.w_out)[:, 0]


def _token_ids(tokens, vocab_size: int) -> list[int]:
    """``tokens`` as ints, each checked to be an id in the vocabulary."""
    ids = whole(list(tokens), "token ids", ShapeError, 1)
    if ids and (min(ids) < 0 or max(ids) >= vocab_size):
        raise ShapeError(f"token id outside vocabulary of size {vocab_size}")
    return ids


def forward_full(params: ModelParams, tokens, mask: AttentionMaskSpec,
                 kind: str, flops: FlopCounter | None = None) -> np.ndarray:
    """Logits (L, vocab) of a full sequence under an explicit mask, with
    ``kind`` ('modified' or 'standard') biases over its visible entries."""
    cfg = params.config
    tokens = _token_ids(tokens, cfg.vocab_size)
    L = len(tokens)
    if mask.rows != L or mask.cols != L:
        raise ShapeError(f"mask is {mask.rows}x{mask.cols}, sequence length {L}")

    rows, cols = np.nonzero(mask.visible)  # row-major: rows ascending
    counts = np.bincount(rows, minlength=L)
    bias = visible_biases(rows, cols, counts, alibi_slopes(cfg.n_heads), kind)
    counts = counts.tolist()
    # a fancy index layer[:, :, cols] would gather token-major and several
    # times slower; one take keeps every head's keys and values contiguous
    return _forward_rows(params, tokens, _kv_arena(params, L), slice(0, L),
                         lambda layer: layer.take(cols, axis=2), counts,
                         list(accumulate(counts, initial=0))[:-1], bias,
                         [flops] * L if flops is not None else None)


def forward_incremental(params: ModelParams, cache: KVCache, tokens, added,
                        bias_scheme: str = "rank",
                        flops: list[FlopCounter] | None = None):
    """Extend ``cache`` with new tokens; return their logits.

    ``tokens`` is one region-ordered run of new token ids, such as a
    step's new source tokens followed by its target token, with
    ``added[r]`` of them in region r; the cache numbers the new rows
    itself, each region's after the ``counts[r]`` it holds.  Each new
    token attends to the rows of every earlier region and its own region's
    rows up to itself, cached or earlier in the call.  Because mid-prompt
    and target regions come after the source region, a source token
    ingested late ignores the mid-prompt and target entries already
    cached, and a source token and a target token ingested together see
    exactly what they would see in two calls, source first.  The cache
    keeps its rows in canonical order, so every new token attends to a
    prefix of it, which the row engine reads in place, in one call.  Each
    row's arithmetic is independent of how rows are grouped into calls, so
    the logits are bit-identical too.  ``flops``, when given, holds one
    FlopCounter per new token, charged with that token's row, so one call
    can serve several trace events.  Per-head biases follow
    ``bias_scheme``:

    * ``"rank"``: -slope * (canonical-rank distance within the visible
      set), nearest key 0 — the scheme matching visibility-aware training
      biases.  Token i's biases are the tail of the kept ``rank_biases``
      ladder of the model's slopes, ranks n_i-1..0;
    * ``"stale"``: -slope * (arrival distance), with each entry's absolute
      position frozen at its arrival — the scheme a naive cache implements,
      kept as a negative control.  A call's tokens arrive in order, the
      first one numbered ``len(cache)``.

    The input is validated before the cache changes: the model has the
    layer count, head count, head width and dtype of the cache's arena,
    if it has one (CacheCoherenceError otherwise), a call holds at least
    one token, every token id is an integer in the vocabulary, and
    ``added`` is ``len(Region)`` non-negative integers summing to
    ``len(tokens)``.  If the row engine raises, the blocks the call moved
    go back, so ``len(cache)``, ``counts`` and every cached row are as
    they were.
    """
    cfg = params.config
    kv = cache.kv
    # the arena's even axes are (n_layers, n_heads, d_head)
    if kv is not None and (*kv.shape[::2], kv.dtype) != (
            cfg.n_layers, cfg.n_heads, cfg.d_head, params.embed.dtype):
        raise CacheCoherenceError(f"{kv.dtype} cache arena {kv.shape} "
                                  f"does not fit the model")
    if bias_scheme not in ("rank", "stale"):
        raise ConfigError(f"unknown bias scheme {bias_scheme!r}")
    tokens = _token_ids(tokens, cfg.vocab_size)
    m = len(tokens)
    if not m:
        raise ShapeError("a call needs at least one new token")
    added = whole(list(added), "per-region counts", ShapeError, 1)
    if len(added) != len(Region) or min(added) < 0 or sum(added) != m:
        raise ShapeError(f"bad per-region counts {added} for {m} tokens")
    if flops is not None and len(flops) != m:
        raise ShapeError(f"{len(flops)} FLOP counters for {m} new tokens")
    past, counts = len(cache), cache.counts
    moves, rows = _plan(counts, added)
    # the call's rows arrive in region order, numbered on from len(cache)
    arrivals = [range(first, first + k)
                for first, k in zip(accumulate(added, initial=past), added)]
    n_visible = [row + 1 for row in rows]
    width = n_visible[-1]
    slopes = alibi_slopes(cfg.n_heads)
    if bias_scheme == "rank":
        ladder = rank_biases(width, slopes)
        bias = ladder if m == 1 else np.concatenate(
            [ladder[:, width - n:] for n in n_visible], axis=1)
    else:
        # token i's entries at arrival distances past + i - arrival
        n = past + m
        ladder = rank_biases(n, slopes)
        arrival = np.array([a for kept, new in zip(cache._arrivals, arrivals)
                            for a in (*kept, *new)])
        bias = np.concatenate(
            [ladder[:, arrival[:size] + (n - 1 - past - i)]
             for i, size in enumerate(n_visible)], axis=1)

    cache._reserve(params, past + m)
    cache._move(moves)
    try:
        logits = _forward_rows(params, tokens, cache.kv,
                               np.array(rows, dtype=np.intp),
                               lambda layer: layer[:, :, :width], n_visible,
                               [0] * m, bias, flops)
    except BaseException:
        cache._move_back(moves)
        raise
    for kept, new in zip(cache._arrivals, arrivals):
        kept += new
    return logits


def params_to_bytes(params: ModelParams) -> bytes:
    """Checkpoint: one-line JSON header, then float32 little-endian data."""
    tensors = list(params.tensors())
    offset = 0
    index = []
    for name, arr in tensors:
        index.append({"name": name, "shape": list(arr.shape), "offset": offset})
        offset += arr.size
    header = {
        "config": {
            "n_layers": params.config.n_layers,
            "n_heads": params.config.n_heads,
            "d_model": params.config.d_model,
            "vocab_size": params.config.vocab_size,
            "seed": params.config.seed,
        },
        "tensors": index,
    }
    return b"".join(
        [json.dumps(header, sort_keys=True).encode() + b"\n"]
        + [np.ascontiguousarray(arr, dtype="<f4").tobytes() for _, arr in tensors])


def load_params(path: str) -> ModelParams:
    """Read a checkpoint made by ``params_to_bytes``.

    The header's config must be a valid ``ModelConfig`` and its tensors
    exactly that config's, with its shapes, their offsets tiling the data
    in header order and the data holding exactly their bytes.  The shapes
    come from the config, so a bad checkpoint fails before any is built.
    """
    try:
        with open(path, "rb") as fh:
            header = json.loads(fh.readline().decode())
            raw = fh.read()
        config = ModelConfig(**header["config"])
        specs = header["tensors"]
        not_its_tensors = DataError(f"checkpoint {path} does not hold "
                                    f"exactly the tensors of its config")
        # count first: the tensor names of a config grow with its layer
        # count, which the header alone sets
        if len(specs) != 4 + len(_LAYER_TENSORS) * config.n_layers:
            raise not_its_tensors
        want = _tensor_shapes(config)
        if sorted(spec["name"] for spec in specs) != sorted(want):
            raise not_its_tensors
        offset = 0
        for spec in specs:
            if tuple(spec["shape"]) != want[spec["name"]]:
                raise DataError(
                    f"checkpoint {path}: {spec['name']} has shape "
                    f"{tuple(spec['shape'])}, its config needs "
                    f"{want[spec['name']]}")
            if spec["offset"] != offset:
                raise DataError(
                    f"checkpoint {path}: {spec['name']} starts at offset "
                    f"{spec['offset']!r}, after the earlier tensors at {offset}")
            offset += math.prod(spec["shape"])
        n_bytes = 4 * offset
        if len(raw) != n_bytes:
            raise DataError(f"checkpoint {path} holds {len(raw)} data bytes, "
                            f"its tensors {n_bytes}")
        flat = np.frombuffer(raw, dtype="<f4")
        arrays = {}
        for spec in specs:
            size = math.prod(spec["shape"])
            chunk = flat[spec["offset"]:spec["offset"] + size]
            arrays[spec["name"]] = chunk.reshape(spec["shape"]).astype(np.float32)
        return ModelParams.from_tensors(config, arrays)
    except (OSError, ValueError, KeyError, TypeError, UnicodeDecodeError,
            ConfigError) as exc:
        raise DataError(f"cannot load checkpoint {path}: {exc}") from exc
