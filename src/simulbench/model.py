"""Tiny decoder-only transformer with linear attention biases.

No positional embeddings touch the token stream, keys, or values; position
enters only through per-head additive biases.  One row engine computes
every exact forward; it is fed two ways:

* ``forward_full`` runs a whole sequence, taking each row's visible keys
  from an explicit mask and its biases from an (H, L, L) bias stack;
* ``forward_incremental`` extends a KV cache with new tokens, taking
  visibility and biases from the cache's canonical-order index.

Given the same visible keys and biases, a row's arithmetic is the same on
both paths, so a full-sequence forward and the equivalent sequence of
incremental calls produce bit-identical float32 logits.  ModelParams are
immutable after creation; a KVCache belongs to a single generation session.
"""

import json
from dataclasses import dataclass, replace
from itertools import groupby

import numpy as np

from .alibi import alibi_slopes, rank_biases
from .errors import CacheCoherenceError, ConfigError, DataError, ShapeError
from .kernel import attend_row
from .masks import AttentionMaskSpec, Region

LN_EPS = 1e-5
MIN_CACHE_CAPACITY = 16  # rows a KVCache first allocates


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
            for name in ("wq", "wk", "wv", "wo", "w1", "w2",
                         "ln1_g", "ln1_b", "ln2_g", "ln2_b"):
                yield f"layers.{i}.{name}", getattr(lp, name)
        yield "lnf_g", self.lnf_g
        yield "lnf_b", self.lnf_b
        yield "w_out", self.w_out

    def as_dict(self) -> dict[str, np.ndarray]:
        return dict(self.tensors())

    def with_tensors(self, arrays: dict[str, np.ndarray]) -> "ModelParams":
        """New ModelParams taking each tensor from ``arrays``."""
        layers = []
        for i in range(self.config.n_layers):
            kw = {name: arrays[f"layers.{i}.{name}"]
                  for name in ("wq", "wk", "wv", "wo", "w1", "w2",
                               "ln1_g", "ln1_b", "ln2_g", "ln2_b")}
            layers.append(LayerParams(**kw))
        return replace(self, embed=arrays["embed"], layers=tuple(layers),
                       lnf_g=arrays["lnf_g"], lnf_b=arrays["lnf_b"],
                       w_out=arrays["w_out"])

    def astype(self, dtype) -> "ModelParams":
        return self.with_tensors({k: v.astype(dtype) for k, v in self.tensors()})


def init_model(config: ModelConfig) -> ModelParams:
    """Deterministic pseudo-random initialization from config.seed."""
    rng = np.random.default_rng(config.seed)
    d, v = config.d_model, config.vocab_size

    def w(*shape):
        return (rng.standard_normal(shape) * 0.02).astype(np.float32)

    embed = w(v, d)
    layers = []
    for _ in range(config.n_layers):
        layers.append(LayerParams(
            wq=w(d, d), wk=w(d, d), wv=w(d, d), wo=w(d, d),
            w1=w(d, 4 * d), w2=w(4 * d, d),
            ln1_g=np.ones(d, dtype=np.float32),
            ln1_b=np.zeros(d, dtype=np.float32),
            ln2_g=np.ones(d, dtype=np.float32),
            ln2_b=np.zeros(d, dtype=np.float32),
        ))
    return ModelParams(
        config=config, embed=embed, layers=tuple(layers),
        lnf_g=np.ones(d, dtype=np.float32), lnf_b=np.zeros(d, dtype=np.float32),
        w_out=w(d, v))


class FlopCounter:
    """Shadow counter incremented at each matmul site with its true sizes.

    Convention: one multiply-accumulate = 2 operations; only matrix products
    are counted (no softmax, normalization, activation, or embedding
    lookup costs).
    """

    def __init__(self):
        self.total = 0
        self.kv_rows = 0  # (token, layer) pairs whose keys/values were built

    def add_linear(self, tokens: int, d_in: int, d_out: int):
        self.total += 2 * tokens * d_in * d_out

    def add_attention_row(self, n_visible: int, d_head: int):
        # n_visible query-key pairs of one head: scores + weighted sum
        self.total += 4 * n_visible * d_head


@dataclass(frozen=True, order=True)
class CacheTag:
    """Canonical identity of a cached token: region plus index within it.

    Ordering is canonical sequence order, independent of arrival order.
    """

    role: Region
    canonical_index: int


class KVCache:
    """Per-layer cached keys/values with a canonical-order index.

    ``k[layer]`` and ``v[layer]`` are head-major buffers of shape
    (n_heads, capacity, d_head): entry ``j`` along the token axis holds the
    key (value) of storage row ``j`` for every head, in storage order
    (arrival order unless permuted).  ``arrival[j]`` is the arrival number
    of storage row ``j``, ``order[:len(cache)]`` the storage rows in
    canonical tag order (pre | source | mid | target, each region by
    index), and ``counts`` the cached tokens per region.  Attention reads
    keys through ``order``, so storage order never reaches the outputs.

    A call writes its new rows in place after the cached ones.  When a call
    needs more room, every buffer doubles its capacity (one copy of the
    cache per doubling), so growth costs amortized O(1) per token and a
    call never copies the whole cache otherwise.  Entries past
    ``len(cache)`` are scratch.  One logical owner per cache; no concurrent
    mutation.
    """

    def __init__(self, n_layers: int):
        if n_layers < 1:
            raise ConfigError("n_layers must be >= 1")
        self.n_layers = n_layers
        self.k: list[np.ndarray] = []
        self.v: list[np.ndarray] = []
        self.arrival = np.empty(0, dtype=np.intp)
        self.order = np.empty(0, dtype=np.intp)
        self.counts = [0] * len(Region)
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def _reserve(self, params: ModelParams, size: int):
        """Grow every buffer, by doubling, to hold at least ``size`` rows."""
        capacity = self.order.size
        if size <= capacity and self.k:
            return
        capacity = max(capacity, MIN_CACHE_CAPACITY)
        while capacity < size:
            capacity *= 2
        n = self._size
        k, v = _kv_buffers(params, capacity)
        for new, old in zip(k + v, self.k + self.v):
            new[:, :n] = old[:, :n]
        arrival, order = np.empty((2, capacity), dtype=np.intp)
        arrival[:n], order[:n] = self.arrival[:n], self.order[:n]
        self.k, self.v, self.arrival, self.order = k, v, arrival, order

    def permute_storage(self, perm):
        """Reorder physical storage (testing hook; outputs must not change)."""
        n = self._size
        if sorted(perm) != list(range(n)):
            raise ConfigError("perm must be a permutation of cache indices")
        perm = np.asarray(perm, dtype=np.intp)
        for buf in self.k + self.v:
            buf[:, :n] = buf[:, perm]
        self.arrival[:n] = self.arrival[perm]
        moved_to = np.empty_like(perm)
        moved_to[perm] = np.arange(n)
        self.order[:n] = moved_to[self.order[:n]]


def _layer_norm(x: np.ndarray, gain: np.ndarray, offset: np.ndarray) -> np.ndarray:
    """Layer norm of each row of ``x`` over its last axis.

    Each row reduces exactly as a 1-D ``row.mean(dtype=row.dtype)`` would
    (a same-dtype sum, then one division by the count), without numpy's
    Python-level ``mean`` wrapper.
    """
    n = x.dtype.type(x.shape[-1])
    mu = np.add.reduce(x, axis=-1, dtype=x.dtype, keepdims=True) / n
    c = x - mu
    var = np.add.reduce(c * c, axis=-1, dtype=x.dtype, keepdims=True) / n
    return c / np.sqrt(var + x.dtype.type(LN_EPS)) * gain + offset


def _linear(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Rows of ``x`` (m, d_in) times ``w``: one GEMV per row, run from C.

    A stacked (m, 1, d_in) @ (d_in, d_out) matmul is bit-identical to
    ``row @ w`` for every row; a plain (m, d_in) @ (d_in, d_out) GEMM is
    not, so the result would depend on how rows are grouped into calls.
    """
    return np.matmul(x[:, None, :], w)[:, 0]


def _gelu(x: np.ndarray) -> np.ndarray:
    c = x.dtype.type(np.sqrt(2.0 / np.pi))
    return x.dtype.type(0.5) * x * (1.0 + np.tanh(c * (x + x.dtype.type(0.044715) * (x * x * x))))


def _kv_buffers(params: ModelParams, capacity: int):
    """Per-layer key and value buffers, (n_heads, capacity, d_head) each."""
    cfg = params.config
    shape = (cfg.n_heads, capacity, cfg.d_head)
    dtype = params.embed.dtype
    return ([np.empty(shape, dtype=dtype) for _ in range(cfg.n_layers)],
            [np.empty(shape, dtype=dtype) for _ in range(cfg.n_layers)])


def _forward_rows(params: ModelParams, tokens, k_bufs, v_bufs, past: int,
                  visible: np.ndarray, counts: np.ndarray, bias: np.ndarray,
                  flops: list[FlopCounter] | None):
    """The row engine behind both forwards.

    ``k_bufs``/``v_bufs`` are per-layer head-major (n_heads, capacity,
    d_head) buffers whose first ``past`` rows hold earlier keys/values; this
    call's rows are written in place after them.  ``visible`` holds every
    row's visible buffer rows end to end, row i owning the next
    ``counts[i]`` of them, and ``bias`` the matching (H, total) additive
    block.  Every stage that does not depend on visibility (layer norms,
    projections, FFN, vocabulary head) runs once over all rows of the call,
    each projection as one GEMV per row run from C, never as a GEMM, so a
    row's arithmetic never depends on how rows are grouped into calls.
    Attention is one ragged ``attend_row`` call per layer: one ``take``
    along the token axis gathers every row's visible keys (values) into a
    contiguous head-major block, handed over as its (total, H, d_head)
    transposed view.  ``flops``, when given, holds one shadow counter per
    row; each row's matmul work is charged to its own counter (a run of
    consecutive rows sharing a counter in one charge), so one call may
    serve several events.  Returns the logits.
    """
    cfg = params.config
    d, n_heads, d_head = cfg.d_model, cfg.n_heads, cfg.d_head
    m = len(tokens)
    h = params.embed[np.asarray(tokens, dtype=np.intp)]
    for lp, keys, values in zip(params.layers, k_bufs, v_bufs):
        a = _layer_norm(h, lp.ln1_g, lp.ln1_b)
        q = _linear(a, lp.wq).reshape(m, n_heads, d_head)
        keys[:, past:past + m] = (
            _linear(a, lp.wk).reshape(m, n_heads, d_head).transpose(1, 0, 2))
        values[:, past:past + m] = (
            _linear(a, lp.wv).reshape(m, n_heads, d_head).transpose(1, 0, 2))
        ctx = attend_row(q, keys.take(visible, axis=1).transpose(1, 0, 2),
                         values.take(visible, axis=1).transpose(1, 0, 2),
                         bias, counts).reshape(m, d)
        h2 = h + _linear(ctx, lp.wo)
        b = _layer_norm(h2, lp.ln2_g, lp.ln2_b)
        h = h2 + _linear(_gelu(_linear(b, lp.w1)), lp.w2)
    if flops:
        start = 0
        for counter, run in groupby(flops):  # counters compare by identity
            n = len(list(run))
            rows = cfg.n_layers * n
            counter.kv_rows += rows
            counter.add_linear(rows, d, 3 * d)  # q, k, v
            counter.add_linear(rows, d, d)
            counter.add_linear(rows, d, 4 * d)
            counter.add_linear(rows, 4 * d, d)
            counter.add_attention_row(cfg.n_layers * n_heads * int(
                counts[start:start + n].sum()), d_head)
            counter.add_linear(n, d, cfg.vocab_size)
            start += n
    return _linear(_layer_norm(h, params.lnf_g, params.lnf_b), params.w_out)


def forward_full(params: ModelParams, tokens, mask: AttentionMaskSpec,
                 bias: np.ndarray,
                 flops: FlopCounter | None = None) -> np.ndarray:
    """Logits (L, vocab) of a full sequence under an explicit mask and an
    (H, L, L) per-head bias stack."""
    cfg = params.config
    tokens = list(tokens)
    L = len(tokens)
    if mask.rows != L or mask.cols != L:
        raise ShapeError(f"mask is {mask.rows}x{mask.cols}, sequence length {L}")
    if bias.shape != (cfg.n_heads, L, L):
        raise ShapeError(f"bias stack is {bias.shape}, need "
                         f"{(cfg.n_heads, L, L)}")
    if any(not 0 <= t < cfg.vocab_size for t in tokens):
        raise ShapeError("token id outside vocabulary")

    rows, visible = np.nonzero(mask.visible)  # row-major: rows ascending
    counts = np.bincount(rows, minlength=L)
    k_bufs, v_bufs = _kv_buffers(params, L)
    return _forward_rows(params, tokens, k_bufs, v_bufs, 0, visible, counts,
                         bias[:, rows, visible], [flops] * L if flops is not None else None)


def forward_incremental(params: ModelParams, cache: KVCache, new_tokens,
                        bias_scheme: str = "rank",
                        flops: list[FlopCounter] | None = None):
    """Extend ``cache`` with tagged tokens; return (logits for them, cache).

    ``new_tokens`` is a sequence of (token_id, CacheTag).  Each new token
    attends, in canonical tag order, to everything cached or earlier in the
    call whose tag orders at or before its own (itself included).  Because
    mid-prompt and target tags order after all source tags, a source token
    ingested late ignores the mid-prompt and target entries already cached,
    and a call may mix regions: a source token and a target token ingested
    together see exactly what they would see in two calls, source first.
    Each row's arithmetic is independent of how rows are grouped into
    calls, so the logits are bit-identical too.  ``flops``, when given,
    holds one FlopCounter per new token, charged with that token's row, so
    one call can serve several trace events.
    Per-head biases follow ``bias_scheme``:

    * ``"rank"``: -slope * (canonical-rank distance within the visible
      set), nearest key 0 — the scheme matching visibility-aware training
      biases;
    * ``"stale"``: -slope * (arrival distance), with each entry's absolute
      position frozen at its arrival — the scheme a naive cache implements,
      kept as a negative control.

    A call that raises leaves ``len(cache)``, ``counts`` and ``order`` as
    they were.
    """
    cfg = params.config
    if cache.n_layers != cfg.n_layers:
        raise CacheCoherenceError("cache layer count differs from model")
    if bias_scheme not in ("rank", "stale"):
        raise ConfigError(f"unknown bias scheme {bias_scheme!r}")
    new_tokens = list(new_tokens)
    slopes = np.asarray(alibi_slopes(cfg.n_heads).slopes)[:, None]
    past, m = len(cache), len(new_tokens)
    if flops is not None and len(flops) != m:
        raise ShapeError(f"{len(flops)} FLOP counters for {m} new tokens")
    counts = list(cache.counts)
    slots = []
    for tok, tag in new_tokens:
        if not 0 <= tok < cfg.vocab_size:
            raise ShapeError("token id outside vocabulary")
        if tag.canonical_index != counts[tag.role]:
            raise CacheCoherenceError(
                f"{tag} does not extend canonical order "
                f"(expected index {counts[tag.role]})")
        # every token of an earlier region, or earlier in this region,
        # orders before this one
        slots.append(sum(counts[:tag.role + 1]))
        counts[tag.role] += 1

    cache._reserve(params, past + m)
    cache.arrival[past:past + m] = np.arange(past, past + m)
    # canonical positions before the lowest slot keep their storage rows;
    # the rest of ``order`` is rebuilt in ``tail`` and stored only once
    # the call has succeeded, so a call that raises leaves the cache as it was
    lo = min(slots, default=past)
    head, tail = cache.order[:lo], cache.order[lo:past]
    visible, bias = [], []
    for i, slot in enumerate(slots):
        j = slot - lo
        tail = np.concatenate((tail[:j], [past + i], tail[j:]))
        vis = np.concatenate((head, tail[:j + 1]))
        visible.append(vis)
        if bias_scheme == "rank":
            bias.append(rank_biases(vis.size, slopes))
        else:
            deltas = (past + i - cache.arrival[vis]).astype(np.float32)
            bias.append(-np.float32(slopes) * deltas)

    n_visible = np.array([vis.size for vis in visible], dtype=np.intp)
    logits = _forward_rows(params, [tok for tok, _ in new_tokens], cache.k,
                           cache.v, past, np.concatenate(visible), n_visible,
                           np.concatenate(bias, axis=1), flops)
    cache.order[lo:past + m] = tail
    cache.counts, cache._size = counts, past + m
    return logits, cache


def save_params(params: ModelParams, path: str):
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
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
        for _, arr in tensors:
            fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def load_params(path: str) -> ModelParams:
    """Read a checkpoint written by ``save_params``.

    The header's tensors must be exactly those of its config, with the
    config's shapes, and the data must hold exactly their bytes.
    """
    try:
        with open(path, "rb") as fh:
            header = json.loads(fh.readline().decode())
            raw = fh.read()
        config = ModelConfig(**header["config"])
        template = init_model(config)
        want = {name: arr.shape for name, arr in template.tensors()}
        specs = header["tensors"]
        if sorted(spec["name"] for spec in specs) != sorted(want):
            raise DataError(f"checkpoint {path} does not hold exactly the "
                            f"tensors of its config")
        for spec in specs:
            if tuple(spec["shape"]) != want[spec["name"]]:
                raise DataError(
                    f"checkpoint {path}: {spec['name']} has shape "
                    f"{tuple(spec['shape'])}, its config needs "
                    f"{want[spec['name']]}")
        n_bytes = 4 * sum(int(np.prod(shape)) for shape in want.values())
        if len(raw) != n_bytes:
            raise DataError(f"checkpoint {path} holds {len(raw)} data bytes, "
                            f"its tensors {n_bytes}")
        flat = np.frombuffer(raw, dtype="<f4")
        arrays = {}
        for spec in specs:
            size = int(np.prod(spec["shape"]))
            chunk = flat[spec["offset"]:spec["offset"] + size]
            if chunk.size != size:
                raise DataError(f"checkpoint {path} truncated at {spec['name']}")
            arrays[spec["name"]] = chunk.reshape(spec["shape"]).astype(np.float32)
        return template.with_tensors(arrays)
    except (OSError, ValueError, KeyError, TypeError,
            UnicodeDecodeError) as exc:
        raise DataError(f"cannot load checkpoint {path}: {exc}") from exc
