"""Cross-entropy fine-tuning of the tiny decoder-only model.

The training forward/backward is vectorized over same-shaped sentences.
It takes what ``model.forward_full`` takes, a mask and a bias kind, and
builds its biases from the mask under the same rank rule, so the row-wise
exact path in ``model`` stays the reference for inference equivalence
tests; the two agree to float precision.  The loss covers exactly the
target-predicting rows: the final mid-prompt row through the penultimate
target row, each labelled with the token after it, which the step reads
from its own tokens.  Optimization is plain SGD with global gradient-norm
clipping at 1.

Products follow three rules.  Every activation x weight product, forward
and backward, is one 2-D GEMM over all B*L rows.  Every weight gradient is
one GEMM per sentence into a (B, d_in, d_out) buffer, summed over the
sentences in order by one ``np.add.reduce``; no BLAS reduction spans
sentences (a GEMM over all B*L rows reduces differently when OpenBLAS
threads it).  That keeps a step's bytes equal at 1 and 2 BLAS threads on
some OpenBLAS kernels only: under ``OPENBLAS_CORETYPE`` Haswell, Prescott
or Zen the flat activation GEMMs thread differently and the bytes differ
(ROADMAP item 2).  The
embedding gradient is one stable sort of the token ids and one
``np.add.reduceat`` over the sorted rows.  The attention products stay
per (sentence, head).

A step allocates its arrays: each intermediate of the forward and
backward is the array its expression returns, and in-place updates remain
only where they read as the math (a running maximum, a normalization, a
residual sum, the softmax backward).  Each step builds its own additive
mask+bias block from its mask and kind, about 56 us at L=36 and 16 heads,
some 0.2% of a 27 ms learning-smoke step.  So that fresh arrays cost no
page faults, ``fine_tune`` runs ``_keep_heap`` once per process: under
glibc only, it raises the allocator's thresholds process-wide, so the
next step reuses the heap a step frees (at most 64 MiB of it is kept);
importing the package or inference alone leaves the allocator as it was.
Every product keeps its shape and operands, every reduction its
grouping, and every elementwise op its operands and order, so the bytes
of a step do not depend on how it holds its temporaries.  The SGD update
runs in place on the ``fine_tune`` call's parameter copies.
"""

import ctypes
import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .alibi import alibi_slopes, head_biases
from .errors import ConfigError, DataError, NumericError, ShapeError
from .masks import AttentionMaskSpec, causal_mask, simul_mask, whole
from .model import GELU_C, GELU_CUBIC, LN_EPS, ModelParams, gelu

_CLIP_NORM = 1.0  # every step clips its global gradient norm to this


@functools.cache
def _keep_heap():
    """Set glibc's mmap threshold to 32 MiB, then its trim threshold to 64
    MiB, for the whole process, so the heap a step frees stays mapped for
    the next step; the trim threshold alone would pin the mmap threshold at
    128 KiB.  Does nothing where the C library has no ``mallopt``."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        mallopt.restype = ctypes.c_int
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
        mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def _mean_last(x):
    """``x.mean(axis=-1, keepdims=True)``: the same-dtype sum, then one
    division by the count, without numpy's Python-level ``mean``."""
    n = x.dtype.type(x.shape[-1])
    return np.add.reduce(x, axis=-1, dtype=x.dtype, keepdims=True) / n


def _gelu_bwd(x, t, dy):
    """The input gradient of ``model.gelu`` at ``x``, whose tanh is ``t``,
    for the output gradient ``dy``."""
    c, cubic = x.dtype.type(GELU_C), x.dtype.type(GELU_CUBIC)
    # dy (0.5 (1 + t) + q), q = 0.5 x (1 - t^2) c (1 + 3a x^2); each
    # product and sum keeps its operands, written temporary first so numpy
    # can reuse it
    sech2 = t * t
    np.subtract(1.0, sech2, out=sech2)
    q = 0.5 * x * sech2 * ((x * x * (3.0 * cubic) + 1.0) * c)
    return ((t + 1.0) * 0.5 + q) * dy


def _ln_fwd(x, g, b):
    """Layer norm of ``x``: returns the output, the normalized input and
    the (..., 1) inverse deviation."""
    centred = x - _mean_last(x)
    inv = 1.0 / np.sqrt(_mean_last(centred * centred) + x.dtype.type(LN_EPS))
    xhat = centred * inv
    return xhat * g + b, xhat, inv


def _ln_bwd(xhat, inv, g, dy):
    """The layer-norm input gradient for the output gradient ``dy``, then
    the gain and offset gradients."""
    d = dy.shape[-1]
    dg = (dy * xhat).reshape(-1, d).sum(axis=0)
    db = dy.reshape(-1, d).sum(axis=0)
    dxhat = dy * g
    m1, m2 = _mean_last(dxhat), _mean_last(dxhat * xhat)
    return inv * (dxhat - m1 - xhat * m2), dg, db


@dataclass
class ForwardBackward:
    loss: float
    grads: dict[str, np.ndarray]
    logits: np.ndarray
    dlogits: np.ndarray


def batch_forward_backward(params: ModelParams, tokens: np.ndarray,
                           mask: AttentionMaskSpec, kind: str,
                           loss_rows) -> ForwardBackward:
    """Summed loss and summed gradients of same-shaped sentences.

    ``tokens`` is (B, L) under one shared mask, with ``kind`` ('modified'
    or 'standard') biases built from it as ``model.forward_full`` builds
    them; ``loss_rows`` gives the predicting rows (shared across the
    batch), and each row's label is the token after it, so the labels are
    ``tokens[:, loss_rows + 1]``.  Per sentence the loss is the mean
    cross-entropy over its predicting rows; the returned loss and gradients
    are sums over the batch.  All other rows contribute nothing and get
    exactly zero logit gradients.  Raises, before any work, DataError when
    ``loss_rows`` is empty or holds a row outside 0..L-2 or not a whole
    count, ShapeError for a mask that is not L x L or a token id that is
    not a whole count or lies outside the vocabulary, and ConfigError for
    an unknown ``kind``.
    Works in whatever float dtype the parameters carry.
    """
    cfg = params.config
    dt = params.embed.dtype.type
    tokens = np.atleast_2d(np.asarray(whole(tokens, "token ids", ShapeError, 2)))
    B, L = tokens.shape
    if mask.rows != L or mask.cols != L:
        raise ShapeError(f"mask is {mask.rows}x{mask.cols}, sequence length {L}")
    loss_rows = np.asarray(whole(loss_rows, "loss rows", DataError, 1))
    if not loss_rows.size or loss_rows.min() < 0 or loss_rows.max() >= L - 1:
        raise DataError(f"need predicting rows in 0..{L - 2}, each labelled "
                        f"by the next token; got {loss_rows.tolist()}")
    if tokens.min() < 0 or tokens.max() >= cfg.vocab_size:
        raise ShapeError(f"token id outside vocabulary of size {cfg.vocab_size}")
    labels = tokens[:, loss_rows + 1]
    H, dh = cfg.n_heads, cfg.d_head
    d = cfg.d_model
    # mask entries are exactly 0 or -inf and biases are finite, so adding
    # their sum equals adding the mask, then the biases
    bias = head_biases(mask, alibi_slopes(H), kind)
    mask_bias = mask.to_additive(dt) + bias.astype(dt, copy=False)

    def heads(arr):  # (B, L, d) -> (B, H, L, dh) view
        return arr.reshape(B, L, H, dh).transpose(0, 2, 1, 3)

    def per_head(x, y):  # x @ y per (sentence, head), as (B, L, d) rows
        out = np.empty((B, L, d), dt)
        np.matmul(x, y, out=heads(out))
        return out

    def flat(arr):  # (B, L, n) -> (B*L, n) view of a C-contiguous array
        return arr.reshape(B * L, arr.shape[-1])

    def linear(arr, w):  # (B, L, n) @ (n, m) as one 2-D GEMM over B*L rows
        return (flat(arr) @ w).reshape(B, L, w.shape[-1])

    def weight_grad(x, dy):
        # one GEMM per sentence, summed over the batch in order: no BLAS
        # reduction spans sentences, so the bits do not depend on threading
        return np.add.reduce(x.transpose(0, 2, 1) @ dy, axis=0)

    scale = dt(1.0) / np.sqrt(dt(dh))
    x = np.take(params.embed, tokens, axis=0)
    saved = []
    for lp in params.layers:
        a, xhat1, inv1 = _ln_fwd(x, lp.ln1_g, lp.ln1_b)
        q, k, v = (heads(linear(a, w)) for w in (lp.wq, lp.wk, lp.wv))
        scores = q @ k.swapaxes(-1, -2)
        scores += mask_bias
        scores *= scale
        # row maxima column by column: rows of L entries would pay the
        # reduction's per-row overhead, and max is exact in any order
        peak = scores[..., 0].copy()
        for j in range(1, L):
            np.maximum(peak, scores[..., j], out=peak)
        scores -= peak[..., None]
        p = np.exp(scores, out=scores)
        p /= np.add.reduce(p, axis=-1, keepdims=True)
        ctx = per_head(p, v)
        x1 = x + linear(ctx, lp.wo)
        b2, xhat2, inv2 = _ln_fwd(x1, lp.ln2_g, lp.ln2_b)
        f1 = linear(b2, lp.w1)
        g1, t = gelu(f1)
        x = x1 + linear(g1, lp.w2)
        saved.append((a, xhat1, inv1, q, k, v, p, ctx, b2, xhat2, inv2,
                      f1, g1, t))
    hf, xhatf, invf = _ln_fwd(x, params.lnf_g, params.lnf_b)
    logits = linear(hf, params.w_out)

    R = loss_rows.size
    sel = logits[:, loss_rows, :]  # (B, R, V)
    at_label = (np.arange(B)[:, None], np.arange(R), labels)
    smx = sel.max(axis=-1, keepdims=True)
    lse = smx[..., 0] + np.log(np.exp(sel - smx).sum(axis=-1))
    loss = float(((lse - sel[at_label]).mean(axis=-1)).sum())

    dlogits = np.zeros_like(logits)
    probs = np.exp(sel - lse[..., None])
    probs[at_label] -= 1.0
    dlogits[:, loss_rows, :] = probs / R

    # gains and offsets are added onto zeros, so a -0.0 entry reads +0.0;
    # embedding rows no token reads stay zero
    grads = {name: np.zeros_like(arr) for name, arr in params.tensors()}
    grads["w_out"] = weight_grad(hf, dlogits)
    dx, dg, db = _ln_bwd(xhatf, invf, params.lnf_g,
                         linear(dlogits, params.w_out.T))
    grads["lnf_g"] += dg
    grads["lnf_b"] += db
    for li in range(cfg.n_layers - 1, -1, -1):
        lp = params.layers[li]
        # popped: a layer's arrays are freed once its backward is done
        (a, xhat1, inv1, q, k, v, p, ctx, b2, xhat2, inv2,
         f1, g1, t) = saved.pop()
        pre = f"layers.{li}."
        # FFN
        grads[pre + "w2"] = weight_grad(g1, dx)
        df1 = _gelu_bwd(f1, t, linear(dx, lp.w2.T))
        grads[pre + "w1"] = weight_grad(b2, df1)
        dx1, dgain, doff = _ln_bwd(xhat2, inv2, lp.ln2_g, linear(df1, lp.w1.T))
        grads[pre + "ln2_g"] += dgain
        grads[pre + "ln2_b"] += doff
        dx1 += dx
        # attention
        grads[pre + "wo"] = weight_grad(ctx, dx1)
        dctx = heads(linear(dx1, lp.wo.T))
        dv = per_head(p.swapaxes(-1, -2), dctx)
        dscores = dctx @ v.swapaxes(-1, -2)  # the softmax backward, in place
        dscores -= np.add.reduce(dscores * p, axis=-1, keepdims=True)
        dscores *= p
        dscores *= scale
        dq = per_head(dscores, k)
        dk = per_head(dscores.swapaxes(-1, -2), q)
        da = linear(dq, lp.wq.T) + linear(dk, lp.wk.T) + linear(dv, lp.wv.T)
        grads[pre + "wq"] = weight_grad(a, dq)
        grads[pre + "wk"] = weight_grad(a, dk)
        grads[pre + "wv"] = weight_grad(a, dv)
        da, dgain, doff = _ln_bwd(xhat1, inv1, lp.ln1_g, da)
        grads[pre + "ln1_g"] += dgain
        grads[pre + "ln1_b"] += doff
        dx = da + dx1

    # embedding rows: a stable sort groups each token's rows, and one
    # segmented sum adds each group
    ids = tokens.reshape(-1)
    order = np.argsort(ids, kind="stable")
    ids = ids[order]
    starts = np.flatnonzero(np.r_[True, ids[1:] != ids[:-1]])
    grads["embed"][ids[starts]] = np.add.reduceat(flat(dx)[order], starts, axis=0)
    return ForwardBackward(loss, grads, logits, dlogits)


def clip_global_norm(grads: dict[str, np.ndarray], clip: float) -> float:
    """Scale all gradients so the global L2 norm is at most ``clip``."""
    total = np.sqrt(sum(float((g ** 2).sum()) for g in grads.values()))
    if total > clip and total > 0:
        factor = clip / total
        for g in grads.values():
            g *= factor
    return total


@dataclass
class TrainResult:
    params: ModelParams
    loss_curve: list[tuple[int, float]]
    skipped: int


def fine_tune(params: ModelParams, corpus, layout_builder, policy_builder,
              mask_mode: str = "simulmask", bias_mode: str = "modified",
              epochs: int = 1, learning_rate: float = 0.5, batch_size: int = 10,
              max_seq_len: int = 128, shuffle_seed: int = 0) -> TrainResult:
    """SGD fine-tuning: one training sample per sentence per epoch.

    ``layout_builder(pair) -> (tokens, PromptLayout)`` turns a sentence pair
    into a training sequence; ``policy_builder(source_len)`` yields the
    decision policy for that sentence.  Each (layout, policy) pair gets its
    mask and loss rows, built once before any step; within an optimizer
    step, sentences sharing a layout (hence a mask) are processed as one
    stacked batch for speed.
    Sentences longer than ``max_seq_len`` are skipped with a warning.
    Raises, before any step, ConfigError for an unknown mask or bias mode,
    for the simulmask mode without a ``policy_builder``, for ``epochs``,
    ``batch_size`` or ``max_seq_len`` not a whole count and for a negative
    or non-finite ``learning_rate``, ShapeError for a layout token not a
    whole count and DataError for a sentence whose tokens do not number
    its layout's ``total_len``; NumericError when a step's loss or gradient
    norm, or a parameter after its update, is not finite.
    Deterministic for fixed seed and corpus order.  Before its first step
    it sets glibc's heap thresholds for the whole process (``_keep_heap``).
    """
    if not corpus:
        raise DataError("empty corpus")
    if (whole(epochs, "epochs", ConfigError) < 0
            or whole(batch_size, "batch_size", ConfigError) < 1):
        raise ConfigError("invalid training settings")
    whole(max_seq_len, "max_seq_len", ConfigError)
    # fails for NaN as well as for negative and infinite values: one such
    # step would poison every weight
    if not 0 <= learning_rate < math.inf:
        raise ConfigError(
            f"learning_rate must be finite and >= 0, got {learning_rate!r}")
    if bias_mode not in ("modified", "standard"):
        raise ConfigError(f"unknown bias mode {bias_mode!r}")
    if mask_mode not in ("causal", "simulmask"):
        raise ConfigError(f"unknown mask mode {mask_mode!r}")
    if mask_mode == "simulmask" and policy_builder is None:
        raise ConfigError("simulmask mode needs a decision policy")

    groups = {}  # key -> (mask, loss rows, token arrays of its sentences)
    skipped = 0
    for i, pair in enumerate(corpus):
        tokens, layout = layout_builder(pair)
        tokens = np.asarray(whole(tokens, "layout tokens", ShapeError, 1))
        if tokens.shape != (layout.total_len,):
            raise DataError(f"sentence {i}: {tokens.size} layout tokens, "
                            f"layout length {layout.total_len}")
        if layout.total_len > max_seq_len:
            warnings.warn(
                f"skipping sentence of length {layout.total_len} > {max_seq_len}")
            skipped += 1
            continue
        policy = policy_builder(layout.source_len) if policy_builder else None
        key = (layout, None if policy is None else policy.describe())
        if key not in groups:
            mask = (causal_mask(layout.total_len) if mask_mode == "causal"
                    else simul_mask(layout, policy))
            groups[key] = (mask, np.asarray(layout.predictor_rows()), [])
        groups[key][2].append(tokens)
    if not groups:
        raise DataError("all sentences skipped")

    # the SGD update runs in place on these copies, which ``cur`` holds
    arrays = {k: v.copy() for k, v in params.tensors()}
    cur = params.with_tensors(arrays)
    rng = np.random.default_rng(shuffle_seed)
    loss_curve = []
    step = 0
    _keep_heap()
    for _ in range(epochs):
        # length-bucketed batches: each step stacks sentences sharing a
        # layout (hence a mask); step order is shuffled across buckets
        batches = []
        for key, (_, _, sentences) in groups.items():
            members = [sentences[i] for i in rng.permutation(len(sentences))]
            for start in range(0, len(members), batch_size):
                batches.append((key, members[start:start + batch_size]))
        batches = [batches[i] for i in rng.permutation(len(batches))]
        for key, members in batches:
            mask, rows, _ = groups[key]
            fb = batch_forward_backward(cur, np.stack(members), mask,
                                        bias_mode, rows)
            if not np.isfinite(fb.loss):
                raise NumericError(f"non-finite loss at step {step + 1}")
            grads = fb.grads
            for name in grads:
                grads[name] /= len(members)
            norm = clip_global_norm(grads, _CLIP_NORM)
            if not np.isfinite(norm):
                raise NumericError(
                    f"non-finite gradient norm at step {step + 1}")
            if learning_rate:
                # an overflowing update is reported by the check below, as
                # a NumericError, not by numpy warnings ahead of it
                with np.errstate(over="ignore", invalid="ignore"):
                    for name, arr in arrays.items():
                        grads[name] *= learning_rate
                        arr -= grads[name]
                        # the next loss misses the last step's update and
                        # any row no sentence reads
                        if not np.isfinite(arr).all():
                            raise NumericError(
                                f"non-finite {name} after the update of "
                                f"step {step + 1}")
            step += 1
            loss_curve.append((step, fb.loss / len(members)))
    return TrainResult(params=cur, loss_curve=loss_curve, skipped=skipped)


def loss_curve_to_csv(curve) -> str:
    lines = ["step,loss"]
    for step, loss in curve:
        lines.append(f"{step},{repr(loss)}")
    return "\n".join(lines) + "\n"
