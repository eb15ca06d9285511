"""Tiny decoder-only transformer with linear attention biases.

No positional embeddings touch the token stream, keys, or values; position
enters only through per-head additive biases.  One row engine computes
every exact forward; it is fed two ways:

* ``forward_full`` runs a whole sequence, taking each row's visible keys
  from an explicit mask and their biases from the rank rule of a bias
  kind;
* ``forward_incremental`` extends a KV cache with one region-ordered run
  of new tokens; the cache stores its rows in canonical order, so each
  new token attends to a prefix of it, read in place.

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
from .kernel import attend_row
from .masks import AttentionMaskSpec, Region

LN_EPS = 1e-5
MIN_CACHE_CAPACITY = 16  # rows a KVCache first allocates
_GELU_C = math.sqrt(2.0 / math.pi)


@dataclass(frozen=True)
class ModelConfig:
    n_layers: int = 2
    n_heads: int = 4
    d_model: int = 64
    vocab_size: int = 24
    seed: int = 0

    def __post_init__(self):
        if min(self.n_layers, self.n_heads, self.d_model, self.vocab_size) < 1:
            raise ConfigError("all model dimensions must be >= 1")
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


@dataclass(frozen=True, order=True)
class CacheTag:
    """Canonical identity of a cached token: region plus index within it.

    Ordering is canonical sequence order, independent of arrival order.
    """

    role: Region
    canonical_index: int


class KVCache:
    """Per-layer cached keys/values, stored in canonical order.

    ``k[layer]`` and ``v[layer]`` are head-major buffers of shape
    (n_heads, capacity, d_head).  Their first ``len(cache)`` entries along
    the token axis hold the cached tokens in canonical order, pre | source |
    mid | target, each region by index, and ``counts`` says how many tokens
    each region holds.  A token's visible keys are the rows of every earlier
    region followed by its own region's rows up to itself, which is exactly
    every row up to its own: attention reads a prefix of the buffers, in
    place.

    A ``forward_incremental`` call adds one region-ordered run of rows.  It
    moves the blocks of the later regions right to make room, one slice
    copy per buffer and block (a source token read after mid-prompt and
    target rows exist moves those rows).  When a call needs more room,
    every buffer doubles its capacity (one copy of the cache per
    doubling), so growth costs amortized O(1) per token.
    Entries past ``len(cache)`` are scratch.  ``arrival`` gives the arrival
    number of each cached row, in canonical order; only the ``stale`` bias
    control reads it.  One logical owner per cache; no concurrent mutation.
    """

    def __init__(self, n_layers: int):
        if n_layers < 1:
            raise ConfigError("n_layers must be >= 1")
        self.n_layers = n_layers
        self.k: list[np.ndarray] = []
        self.v: list[np.ndarray] = []
        self._counts = [0] * len(Region)
        self._arrivals = [[] for _ in Region]  # per region, by index
        self._size = 0

    def __len__(self) -> int:
        return self._size

    @property
    def counts(self) -> list[int]:
        """Cached tokens per region, in region order."""
        return list(self._counts)

    @property
    def arrival(self) -> np.ndarray:
        """Arrival number of every cached row, in canonical order."""
        return np.fromiter(chain.from_iterable(self._arrivals), dtype=np.intp,
                           count=self._size)

    def _reserve(self, params: ModelParams, size: int):
        """Grow every buffer, by doubling, to hold at least ``size`` rows."""
        capacity = self.k[0].shape[1] if self.k else 0
        if size <= capacity:
            return
        capacity = max(capacity, MIN_CACHE_CAPACITY)
        while capacity < size:
            capacity *= 2
        n = self._size
        k, v = _kv_buffers(params, capacity)
        for new, old in zip(k + v, self.k + self.v):
            new[:, :n] = old[:, :n]
        self.k, self.v = k, v

    def _move(self, moves):
        """Move each block (lo, hi, by) of rows right by ``by`` rows, in the
        order given (last block first, so no block lands on one not yet
        moved)."""
        for lo, hi, by in moves:
            for buf in self.k + self.v:
                buf[:, lo + by:hi + by] = buf[:, lo:hi]

    def _move_back(self, moves):
        """Undo ``_move(moves)``: every block returns to where it was."""
        for lo, hi, by in reversed(moves):
            for buf in self.k + self.v:
                buf[:, lo:hi] = buf[:, lo + by:hi + by]


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


def _linear(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Rows of ``x`` (m, d_in) times ``w``: one GEMV per row, run from C.

    A stacked (m, 1, d_in) @ (d_in, d_out) matmul is bit-identical to
    ``row @ w`` for every row; a plain (m, d_in) @ (d_in, d_out) GEMM is
    not, so the result would depend on how rows are grouped into calls.
    """
    return np.matmul(x[:, None, :], w)[:, 0]


def _gelu(x: np.ndarray) -> np.ndarray:
    """0.5 x (1 + tanh(c (x + 0.044715 x^3))), in place on one temporary."""
    half, c, cubic = _scalars(x.dtype, 0.5, _GELU_C, 0.044715)
    t = x * x
    t *= x
    t *= cubic
    t += x
    t *= c
    np.tanh(t, out=t)
    t += 1.0
    out = half * x
    out *= t
    return out


def _kv_buffers(params: ModelParams, capacity: int):
    """Per-layer key and value buffers, (n_heads, capacity, d_head) each."""
    cfg = params.config
    shape = (cfg.n_heads, capacity, cfg.d_head)
    dtype = params.embed.dtype
    return ([np.empty(shape, dtype=dtype) for _ in range(cfg.n_layers)],
            [np.empty(shape, dtype=dtype) for _ in range(cfg.n_layers)])


def _forward_rows(params: ModelParams, tokens, k_bufs, v_bufs, slots,
                  visible, counts: list[int], offsets: list[int],
                  bias: np.ndarray, flops: list[FlopCounter] | None):
    """The row engine behind both forwards.

    ``k_bufs``/``v_bufs`` are per-layer head-major (n_heads, capacity,
    d_head) buffers; this call's keys/values are written in place at
    ``slots`` along the token axis (a slice or an index array).
    ``visible`` maps a buffer to the (n_heads, n, d_head) rows the call's
    attention reads: ``forward_full`` gathers every row's visible keys end
    to end with one ``take``, ``forward_incremental`` passes a prefix view
    of the cache, read in place.  Row i attends to the ``counts[i]`` of
    those rows from ``offsets[i]`` on, with the matching entries of the
    (H, sum(counts)) additive ``bias`` block, every row's biases end to end.
    Every stage that does not depend on visibility (layer norms,
    projections, FFN, vocabulary head) runs once over all rows of the call,
    each projection as one GEMV per row run from C, never as a GEMM, so a
    row's arithmetic never depends on how rows are grouped into calls.
    Attention is one ragged ``attend_row`` call per layer.  ``flops``, when
    given, holds one shadow counter per row; each row's matmul work is
    charged to its own counter (a run of consecutive rows sharing a
    counter in one charge), so one call may serve several events.  Returns
    the logits.
    """
    cfg = params.config
    d, n_heads, d_head = cfg.d_model, cfg.n_heads, cfg.d_head
    m = len(tokens)
    h = params.embed[np.asarray(tokens, dtype=np.intp)]
    for lp, keys, values in zip(params.layers, k_bufs, v_bufs):
        a = _layer_norm(h, lp.ln1_g, lp.ln1_b)
        q = _linear(a, lp.wq).reshape(m, n_heads, d_head)
        keys[:, slots] = (
            _linear(a, lp.wk).reshape(m, n_heads, d_head).transpose(1, 0, 2))
        values[:, slots] = (
            _linear(a, lp.wv).reshape(m, n_heads, d_head).transpose(1, 0, 2))
        ctx = attend_row(q, visible(keys).transpose(1, 0, 2),
                         visible(values).transpose(1, 0, 2),
                         bias, counts, offsets).reshape(m, d)
        h2 = h + _linear(ctx, lp.wo)
        b = _layer_norm(h2, lp.ln2_g, lp.ln2_b)
        h = h2 + _linear(_gelu(_linear(b, lp.w1)), lp.w2)
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
    return _linear(_layer_norm(h, params.lnf_g, params.lnf_b), params.w_out)


def forward_full(params: ModelParams, tokens, mask: AttentionMaskSpec,
                 kind: str, flops: FlopCounter | None = None) -> np.ndarray:
    """Logits (L, vocab) of a full sequence under an explicit mask, with
    ``kind`` ('modified' or 'standard') biases over its visible entries."""
    cfg = params.config
    tokens = np.asarray(tokens)
    L = tokens.size
    if mask.rows != L or mask.cols != L:
        raise ShapeError(f"mask is {mask.rows}x{mask.cols}, sequence length {L}")
    if ((tokens < 0) | (tokens >= cfg.vocab_size)).any():
        raise ShapeError("token id outside vocabulary")

    rows, cols = np.nonzero(mask.visible)  # row-major: rows ascending
    counts = np.bincount(rows, minlength=L)
    bias = visible_biases(rows, cols, counts, alibi_slopes(cfg.n_heads), kind)
    counts = counts.tolist()
    k_bufs, v_bufs = _kv_buffers(params, L)
    # a fancy index buf[:, cols] would gather token-major and several times
    # slower; one take keeps every head's keys contiguous
    return _forward_rows(params, tokens, k_bufs, v_bufs, slice(0, L),
                         lambda buf: buf.take(cols, axis=1), counts,
                         list(accumulate(counts, initial=0))[:-1], bias,
                         [flops] * L if flops is not None else None)


def forward_incremental(params: ModelParams, cache: KVCache, new_tokens,
                        bias_scheme: str = "rank",
                        flops: list[FlopCounter] | None = None):
    """Extend ``cache`` with tagged tokens; return (logits for them, cache).

    ``new_tokens`` is one region-ordered run of (token_id, CacheTag)
    pairs, such as a step's new source tokens followed by its target
    token.  Each new token attends, in canonical tag order, to the rows of
    every earlier region and its own region's rows up to itself, cached or
    earlier in the call.  Because mid-prompt and target regions come after
    the source region, a source token ingested late ignores the mid-prompt
    and target entries already cached, and a source token and a target
    token ingested together see exactly what they would see in two calls,
    source first.  The cache keeps its rows in canonical order, so every
    new token attends to a prefix of it, which the row engine reads in
    place, in one call.  Each row's arithmetic is independent of how rows
    are grouped into calls, so the logits are bit-identical too.
    ``flops``, when given, holds one FlopCounter per new token, charged
    with that token's row, so one call can serve several trace events.
    Per-head biases follow ``bias_scheme``:

    * ``"rank"``: -slope * (canonical-rank distance within the visible
      set), nearest key 0 — the scheme matching visibility-aware training
      biases;
    * ``"stale"``: -slope * (arrival distance), with each entry's absolute
      position frozen at its arrival — the scheme a naive cache implements,
      kept as a negative control.

    Every token is validated before the cache changes: its tag must extend
    its region's canonical order, and its region may not precede the
    previous token's (a call is one region-ordered run).  If the row engine
    raises, the blocks the call moved go back, so ``len(cache)``,
    ``counts`` and every cached row are as they were.
    """
    cfg = params.config
    if cache.n_layers != cfg.n_layers:
        raise CacheCoherenceError("cache layer count differs from model")
    if bias_scheme not in ("rank", "stale"):
        raise ConfigError(f"unknown bias scheme {bias_scheme!r}")
    new_tokens = list(new_tokens)
    m = len(new_tokens)
    if flops is not None and len(flops) != m:
        raise ShapeError(f"{len(flops)} FLOP counters for {m} new tokens")
    past, counts = len(cache), cache.counts
    added = [0] * len(Region)
    arrivals = [[] for _ in Region]
    region = Region.PRE_PROMPT
    for i, (tok, tag) in enumerate(new_tokens):
        if not 0 <= tok < cfg.vocab_size:
            raise ShapeError("token id outside vocabulary")
        if tag.role < region:
            raise CacheCoherenceError(
                f"{tag} follows a {region.name} token: a call must be in "
                f"region order")
        region = tag.role
        expected = counts[region] + added[region]
        if tag.canonical_index != expected:
            raise CacheCoherenceError(
                f"{tag} does not extend canonical order "
                f"(expected index {expected})")
        added[region] += 1
        arrivals[region].append(past + i)
    tokens = [tok for tok, _ in new_tokens]
    moves, rows = _plan(counts, added)
    n_visible = [row + 1 for row in rows]
    width = n_visible[-1]
    slopes = np.asarray(alibi_slopes(cfg.n_heads).slopes)[:, None]
    if bias_scheme == "rank":
        # one ladder per call: token i's biases are its tail, ranks n_i-1..0
        ladder = rank_biases(width, slopes)
        bias = ladder if m == 1 else np.concatenate(
            [ladder[:, width - n:] for n in n_visible], axis=1)
    else:
        # token i's entries at arrival distances past + i - arrival
        n = past + m
        ladder = rank_biases(n, slopes)
        arrival = np.array([a for r in Region
                            for a in cache._arrivals[r] + arrivals[r]])
        bias = np.concatenate(
            [ladder[:, arrival[:size] + (n - 1 - past - i)]
             for i, size in enumerate(n_visible)], axis=1)

    cache._reserve(params, past + m)
    cache._move(moves)
    try:
        logits = _forward_rows(params, tokens, cache.k, cache.v,
                               np.array(rows, dtype=np.intp),
                               lambda buf: buf[:, :width], n_visible,
                               [0] * m, bias, flops)
    except BaseException:
        cache._move_back(moves)
        raise
    for kept, new in zip(cache._arrivals, arrivals):
        kept += new
    cache._counts = [c + k for c, k in zip(counts, added)]
    cache._size = past + m
    return logits, cache


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

    The header's tensors must be exactly those of its config, with the
    config's shapes, their offsets must tile the data in header order, and
    the data must hold exactly their bytes.  The shapes are worked out from
    the config, so a bad checkpoint is rejected before any tensor is built.
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
    except (OSError, ValueError, KeyError, TypeError,
            UnicodeDecodeError) as exc:
        raise DataError(f"cannot load checkpoint {path}: {exc}") from exc
