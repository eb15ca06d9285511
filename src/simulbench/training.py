"""Cross-entropy fine-tuning of the tiny decoder-only model.

The training forward/backward is vectorized over same-shaped sentences
(the row-wise exact path in ``model`` stays the reference for inference
equivalence tests; the two agree to float precision).  The loss covers
exactly the target-predicting rows: the final mid-prompt row through the
penultimate target row.  Optimization is plain SGD with global
gradient-norm clipping at 1.

Products follow three rules.  Every activation x weight product, forward
and backward, is one 2-D GEMM over all B*L rows.  Every weight gradient is
one GEMM per sentence into a (B, d_in, d_out) buffer, summed over the
sentences in order by one ``np.add.reduce``; no BLAS reduction spans
sentences, so the bytes do not depend on the BLAS thread count (a GEMM
over all B*L rows reduces differently when OpenBLAS threads it).  The
embedding gradient is one stable sort of the token ids and one
``np.add.reduceat`` over the sorted rows.  The attention products stay
per (sentence, head).

A step allocates almost nothing: every large intermediate of the forward
and backward is written with ``out=`` (or updated in place) into a
``_Workspace`` that one ``fine_tune`` call owns and hands to each step, and
the SGD update runs in place on the call's parameter copies.  Every
product keeps its shape and every reduction its grouping, and each
elementwise op is the same binary op in the same order as the plain
expression, so training is bit-identical (float32 and float64) to
allocating every temporary afresh.  Nothing a step returns aliases the
workspace.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .alibi import alibi_slopes, head_biases
from .errors import ConfigError, DataError, NumericError
from .masks import AttentionMaskSpec, DecisionPolicy, PromptLayout, causal_mask, simul_mask
from .model import LN_EPS, ModelParams

_GELU_A = 0.044715


class _Workspace:
    """Named scratch buffers reused by the steps of one ``fine_tune`` call.

    Each name owns one flat buffer, grown to the largest size requested
    under it; ``take`` returns a C-contiguous view of the requested shape
    over its prefix.  A view stays valid until the next ``take`` of the
    same name, so arrays that are live together need distinct names.
    """

    def __init__(self):
        self._buffers = {}

    def take(self, name, shape, dtype) -> np.ndarray:
        size = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.dtype != dtype or buf.size < size:
            buf = self._buffers[name] = np.empty(size, dtype)
        return buf[:size].reshape(shape)


def _mean_last(x):
    """``x.mean(axis=-1, keepdims=True)``: the same-dtype sum, then one
    division by the count, without numpy's Python-level ``mean``."""
    n = x.dtype.type(x.shape[-1])
    return np.add.reduce(x, axis=-1, dtype=x.dtype, keepdims=True) / n


def _gelu_fwd(x, out, t, tmp):
    """tanh-GELU of ``x`` into ``out``; ``t`` receives the tanh for the
    backward, ``tmp`` is scratch."""
    c = x.dtype.type(np.sqrt(2.0 / np.pi))
    np.multiply(x, x, out=tmp)
    np.multiply(tmp, x, out=tmp)
    np.multiply(x.dtype.type(_GELU_A), tmp, out=tmp)
    np.add(x, tmp, out=tmp)
    np.multiply(c, tmp, out=tmp)
    np.tanh(tmp, out=t)
    np.multiply(0.5, x, out=out)
    np.add(1.0, t, out=tmp)
    np.multiply(out, tmp, out=out)


def _gelu_bwd(x, t, dy, q, w):
    """Replace ``dy`` by the GELU input gradient; ``q`` and ``w`` are
    scratch."""
    c = x.dtype.type(np.sqrt(2.0 / np.pi))
    # q = 0.5 * x * (1 - t^2) * du, with du = c * (1 + 3a * x^2)
    np.multiply(0.5, x, out=q)
    np.multiply(t, t, out=w)
    np.subtract(1.0, w, out=w)
    np.multiply(q, w, out=q)
    np.multiply(x, x, out=w)
    np.multiply(3.0 * x.dtype.type(_GELU_A), w, out=w)
    np.add(1.0, w, out=w)
    np.multiply(c, w, out=w)
    np.multiply(q, w, out=q)
    # dy * (0.5 * (1 + t) + q)
    np.add(1.0, t, out=w)
    np.multiply(0.5, w, out=w)
    np.add(w, q, out=w)
    np.multiply(dy, w, out=dy)


def _ln_fwd(x, g, b, out, xhat, tmp):
    """Layer norm of ``x`` into ``out``.  ``xhat`` receives the normalized
    input; returns the (..., 1) inverse deviation.  ``tmp`` is scratch."""
    np.subtract(x, _mean_last(x), out=xhat)
    np.multiply(xhat, xhat, out=tmp)
    inv = 1.0 / np.sqrt(_mean_last(tmp) + x.dtype.type(LN_EPS))
    np.multiply(xhat, inv, out=xhat)
    np.multiply(xhat, g, out=out)
    np.add(out, b, out=out)
    return inv


def _ln_bwd(xhat, inv, g, dy, tmp):
    """Replace ``dy`` by the layer-norm input gradient; returns the gain
    and offset gradients.  ``tmp`` is scratch."""
    d = dy.shape[-1]
    np.multiply(dy, xhat, out=tmp)
    dg = tmp.reshape(-1, d).sum(axis=0)
    db = dy.reshape(-1, d).sum(axis=0)
    dxhat = np.multiply(dy, g, out=dy)
    m1 = _mean_last(dxhat)
    np.multiply(dxhat, xhat, out=tmp)
    m2 = _mean_last(tmp)
    np.subtract(dxhat, m1, out=dxhat)
    np.multiply(xhat, m2, out=tmp)
    np.subtract(dxhat, tmp, out=dxhat)
    np.multiply(inv, dxhat, out=dxhat)
    return dg, db


def build_training_mask_and_bias(layout: PromptLayout, policy: DecisionPolicy | None,
                                 mask_mode: str, bias_mode: str, n_heads: int):
    """(mask, per-head bias stack) for one sentence."""
    if mask_mode == "simulmask":
        if policy is None:
            raise ConfigError("simulmask mode needs a decision policy")
        mask = simul_mask(layout, policy)
    elif mask_mode == "causal":
        mask = causal_mask(layout.total_len)
    else:
        raise ConfigError(f"unknown mask mode {mask_mode!r}")
    return mask, head_biases(mask, alibi_slopes(n_heads), bias_mode)


@dataclass
class ForwardBackward:
    loss: float
    grads: dict[str, np.ndarray] | None
    logits: np.ndarray
    dlogits: np.ndarray | None


def batch_forward_backward(params: ModelParams, tokens: np.ndarray,
                           mask: AttentionMaskSpec, bias_stack: np.ndarray,
                           loss_rows, labels: np.ndarray,
                           want_grads: bool = True, *,
                           _workspace: _Workspace | None = None) -> ForwardBackward:
    """Summed loss (+ summed gradients) of same-shaped sentences.

    ``tokens`` is (B, L) over a shared mask/bias; ``loss_rows`` gives the
    predicting rows (shared across the batch) and ``labels`` their (B, R)
    next tokens.  Per sentence the loss is the mean over its predicting
    rows; the returned loss and gradients are sums over the batch.  All
    other rows contribute nothing and get exactly zero logit gradients.
    Works in whatever float dtype the parameters carry.  Intermediates go
    to ``_workspace`` (``fine_tune`` passes its own; otherwise a fresh one);
    the returned arrays never alias it.
    """
    cfg = params.config
    dt = params.embed.dtype.type
    tokens = np.atleast_2d(np.asarray(tokens))
    B, L = tokens.shape
    loss_rows = np.asarray(loss_rows)
    labels = np.atleast_2d(np.asarray(labels))
    if loss_rows.size == 0:
        raise DataError("no predicting rows to train on")
    H, dh = cfg.n_heads, cfg.d_head
    d = cfg.d_model
    ws = _Workspace() if _workspace is None else _workspace

    def buf(name, *shape):
        return ws.take(name, shape, dt)

    def heads(arr):  # (B, L, d) -> (B, H, L, dh) view
        return arr.reshape(B, L, H, dh).transpose(0, 2, 1, 3)

    def flat(arr):  # (B, L, n) -> (B*L, n) view of a C-contiguous array
        return arr.reshape(B * L, arr.shape[-1])

    def weight_grad(x, dy, out):
        # one GEMM per sentence, summed over the batch in order: no BLAS
        # reduction spans sentences, so the bits do not depend on threading
        per = buf("wgrad", B, x.shape[-1], dy.shape[-1])
        np.matmul(x.transpose(0, 2, 1), dy, out=per)
        np.add.reduce(per, axis=0, out=out)

    scale = dt(1.0) / np.sqrt(dt(dh))
    # mask entries are exactly 0 or -inf and biases are finite, so adding
    # their sum equals adding the mask, then the biases
    mask_bias = np.add(mask.to_additive(dt), bias_stack.astype(dt, copy=False),
                       out=buf("mask_bias", H, L, L))
    ln_tmp = buf("ln_tmp", B, L, d)
    scores = buf("scores", B, H, L, L)
    row_max = buf("row_max", B, H, L, 1)
    peak = row_max[..., 0]
    ffn_tmp = [buf(f"ffn_tmp{i}", B, L, 4 * d) for i in range(3)]

    x = np.take(params.embed, tokens, axis=0, out=buf("x", B, L, d))
    x1 = buf("x1", B, L, d)
    saved = []
    for li, lp in enumerate(params.layers):
        a, xhat1, q, k, v, ctx, b2, xhat2 = (
            buf(f"{li}.{name}", B, L, d)
            for name in ("a", "xhat1", "q", "k", "v", "ctx", "b2", "xhat2"))
        f1, g1, t = (buf(f"{li}.{name}", B, L, 4 * d)
                     for name in ("f1", "g1", "t"))
        p = buf(f"{li}.p", B, H, L, L)
        inv1 = _ln_fwd(x, lp.ln1_g, lp.ln1_b, a, xhat1, ln_tmp)
        np.matmul(flat(a), lp.wq, out=flat(q))
        np.matmul(flat(a), lp.wk, out=flat(k))
        np.matmul(flat(a), lp.wv, out=flat(v))
        q, k, v = heads(q), heads(k), heads(v)
        np.matmul(q, k.swapaxes(-1, -2), out=scores)
        np.add(scores, mask_bias, out=scores)
        np.multiply(scores, scale, out=scores)
        # row maxima column by column: rows of L entries would pay the
        # reduction's per-row overhead, and max is exact in any order
        np.copyto(peak, scores[..., 0])
        for j in range(1, L):
            np.maximum(peak, scores[..., j], out=peak)
        np.subtract(scores, row_max, out=scores)
        np.exp(scores, out=p)
        p /= np.add.reduce(p, axis=-1, keepdims=True)
        np.matmul(p, v, out=heads(ctx))
        np.matmul(flat(ctx), lp.wo, out=flat(x1))
        np.add(x, x1, out=x1)
        inv2 = _ln_fwd(x1, lp.ln2_g, lp.ln2_b, b2, xhat2, ln_tmp)
        np.matmul(flat(b2), lp.w1, out=flat(f1))
        _gelu_fwd(f1, g1, t, ffn_tmp[0])
        np.matmul(flat(g1), lp.w2, out=flat(x))
        np.add(x1, x, out=x)
        saved.append((a, xhat1, inv1, q, k, v, p, ctx, b2, xhat2, inv2,
                      f1, g1, t))
    hf, xhatf = buf("hf", B, L, d), buf("xhatf", B, L, d)
    invf = _ln_fwd(x, params.lnf_g, params.lnf_b, hf, xhatf, ln_tmp)
    logits = (flat(hf) @ params.w_out).reshape(B, L, cfg.vocab_size)

    R = loss_rows.size
    sel = logits[:, loss_rows, :]  # (B, R, V)
    smx = sel.max(axis=-1, keepdims=True)
    lse = smx[..., 0] + np.log(np.exp(sel - smx).sum(axis=-1))
    picked = np.take_along_axis(sel, labels[..., None], axis=-1)[..., 0]
    loss = float(((lse - picked).mean(axis=-1)).sum())
    if not want_grads:
        return ForwardBackward(loss, None, logits, None)

    dlogits = np.zeros_like(logits)
    probs = np.exp(sel - lse[..., None])
    np.put_along_axis(probs, labels[..., None],
                      np.take_along_axis(probs, labels[..., None], axis=-1) - 1.0,
                      axis=-1)
    dlogits[:, loss_rows, :] = probs / R

    grads = {name: np.zeros_like(arr) for name, arr in params.tensors()}
    weight_grad(hf, dlogits, grads["w_out"])
    dx = buf("dx", B, L, d)
    np.matmul(flat(dlogits), params.w_out.T, out=flat(dx))
    dg, db = _ln_bwd(xhatf, invf, params.lnf_g, dx, ln_tmp)
    grads["lnf_g"] += dg
    grads["lnf_b"] += db

    dx1, dctx, da = (buf(name, B, L, d) for name in ("dx1", "dctx", "da"))
    dq, dk, dv = (buf(name, B, L, d) for name in ("dq", "dk", "dv"))
    dp = buf("dp", B, H, L, L)
    for li in range(cfg.n_layers - 1, -1, -1):
        lp = params.layers[li]
        (a, xhat1, inv1, q, k, v, p, ctx, b2, xhat2, inv2,
         f1, g1, t) = saved[li]
        pre = f"layers.{li}."
        # FFN
        weight_grad(g1, dx, grads[pre + "w2"])
        df1 = ffn_tmp[0]
        np.matmul(flat(dx), lp.w2.T, out=flat(df1))
        _gelu_bwd(f1, t, df1, *ffn_tmp[1:])
        weight_grad(b2, df1, grads[pre + "w1"])
        np.matmul(flat(df1), lp.w1.T, out=flat(dx1))
        dgain, doff = _ln_bwd(xhat2, inv2, lp.ln2_g, dx1, ln_tmp)
        grads[pre + "ln2_g"] += dgain
        grads[pre + "ln2_b"] += doff
        np.add(dx1, dx, out=dx1)
        # attention
        weight_grad(ctx, dx1, grads[pre + "wo"])
        np.matmul(flat(dx1), lp.wo.T, out=flat(dctx))
        np.matmul(heads(dctx), v.swapaxes(-1, -2), out=dp)
        np.matmul(p.swapaxes(-1, -2), heads(dctx), out=heads(dv))
        np.multiply(dp, p, out=scores)
        np.subtract(dp, np.add.reduce(scores, axis=-1, keepdims=True), out=dp)
        np.multiply(p, dp, out=dp)
        dscores = np.multiply(dp, scale, out=dp)
        np.matmul(dscores, k, out=heads(dq))
        np.matmul(dscores.swapaxes(-1, -2), q, out=heads(dk))
        da2, tmp2 = flat(da), flat(ln_tmp)
        np.matmul(flat(dq), lp.wq.T, out=da2)
        np.add(da2, np.matmul(flat(dk), lp.wk.T, out=tmp2), out=da2)
        np.add(da2, np.matmul(flat(dv), lp.wv.T, out=tmp2), out=da2)
        weight_grad(a, dq, grads[pre + "wq"])
        weight_grad(a, dk, grads[pre + "wk"])
        weight_grad(a, dv, grads[pre + "wv"])
        dgain, doff = _ln_bwd(xhat1, inv1, lp.ln1_g, da, ln_tmp)
        grads[pre + "ln1_g"] += dgain
        grads[pre + "ln1_b"] += doff
        np.add(da, dx1, out=dx)

    # embedding rows: a stable sort groups each token's rows, and one
    # segmented sum adds each group
    ids = tokens.reshape(-1)
    order = np.argsort(ids, kind="stable")
    ids = ids[order]
    starts = np.flatnonzero(np.r_[True, ids[1:] != ids[:-1]])
    grads["embed"][ids[starts]] = np.add.reduceat(flat(dx)[order], starts, axis=0)
    return ForwardBackward(loss, grads, logits, dlogits)


def sentence_forward_backward(params: ModelParams, tokens, mask: AttentionMaskSpec,
                              bias_stack: np.ndarray, loss_rows, labels,
                              want_grads: bool = True) -> ForwardBackward:
    """Single-sentence convenience wrapper around batch_forward_backward."""
    fb = batch_forward_backward(params, np.asarray(tokens)[None, :], mask,
                                bias_stack, loss_rows,
                                np.asarray(labels)[None, :], want_grads)
    dlogits = None if fb.dlogits is None else fb.dlogits[0]
    return ForwardBackward(fb.loss, fb.grads, fb.logits[0], dlogits)


def sentence_logits(params: ModelParams, tokens, mask: AttentionMaskSpec,
                    bias_stack: np.ndarray) -> np.ndarray:
    """Vectorized logits of a sentence (no loss, no gradients)."""
    L = len(tokens)
    fb = sentence_forward_backward(params, tokens, mask, bias_stack,
                                   loss_rows=[L - 1], labels=[0],
                                   want_grads=False)
    return fb.logits


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
    samples_per_epoch: int
    skipped: int


def fine_tune(params: ModelParams, corpus, layout_builder, policy_builder,
              mask_mode: str = "simulmask", bias_mode: str = "modified",
              epochs: int = 1, learning_rate: float = 0.5, batch_size: int = 10,
              max_seq_len: int = 128, clip_norm: float = 1.0,
              shuffle_seed: int = 0) -> TrainResult:
    """SGD fine-tuning: one training sample per sentence per epoch.

    ``layout_builder(pair) -> (tokens, PromptLayout)`` turns a sentence pair
    into a training sequence; ``policy_builder(source_len)`` yields the
    decision policy for that sentence.  The per-sentence mask and biases are
    built fresh per sentence; within an optimizer step, sentences sharing a
    layout (hence a mask) are processed as one stacked batch for speed.
    Sentences longer than ``max_seq_len`` are skipped with a warning.
    Raises ConfigError when ``learning_rate`` or ``clip_norm`` is negative
    or not finite, and NumericError when a step's loss or gradient norm,
    or a parameter after its update, is not finite.
    Deterministic for fixed seed and corpus order.
    """
    if not corpus:
        raise DataError("empty corpus")
    if epochs < 0 or batch_size < 1:
        raise ConfigError("invalid training settings")
    # fails for NaN as well as for negative and infinite values: one such
    # step would poison every weight
    for name, value in (("learning_rate", learning_rate),
                        ("clip_norm", clip_norm)):
        if not 0 <= value < math.inf:
            raise ConfigError(f"{name} must be finite and >= 0, got {value!r}")
    cfg = params.config

    prepared = []
    mask_cache = {}
    skipped = 0
    for pair in corpus:
        tokens, layout = layout_builder(pair)
        if layout.total_len > max_seq_len:
            warnings.warn(
                f"skipping sentence of length {layout.total_len} > {max_seq_len}")
            skipped += 1
            continue
        policy = policy_builder(layout.source_len) if policy_builder else None
        key = (layout, None if policy is None else policy.describe())
        if key not in mask_cache:
            mask_cache[key] = build_training_mask_and_bias(
                layout, policy, mask_mode, bias_mode, cfg.n_heads)
        mask, bias_stack = mask_cache[key]
        rows = tuple(layout.predictor_rows())
        labels = np.asarray([tokens[r + 1] for r in rows])
        prepared.append((np.asarray(tokens), key, rows, labels))
    if not prepared:
        raise DataError("all sentences skipped")

    by_key = {}
    for idx, item in enumerate(prepared):
        by_key.setdefault(item[1], []).append(idx)

    # the SGD update runs in place on these copies, which ``cur`` holds
    arrays = {k: v.copy() for k, v in params.tensors()}
    cur = params.with_tensors(arrays)
    workspace = _Workspace()
    rng = np.random.default_rng(shuffle_seed)
    loss_curve = []
    step = 0
    for _ in range(epochs):
        # length-bucketed batches: each step stacks sentences sharing a
        # layout (hence a mask); step order is shuffled across buckets
        batches = []
        for key in by_key:
            members = [by_key[key][i]
                       for i in rng.permutation(len(by_key[key]))]
            for start in range(0, len(members), batch_size):
                batches.append((key, members[start:start + batch_size]))
        batches = [batches[i] for i in rng.permutation(len(batches))]
        for key, members in batches:
            mask, bias_stack = mask_cache[key]
            rows = prepared[members[0]][2]
            tokens = np.stack([prepared[i][0] for i in members])
            labels = np.stack([prepared[i][3] for i in members])
            fb = batch_forward_backward(cur, tokens, mask, bias_stack,
                                        np.asarray(rows), labels,
                                        _workspace=workspace)
            if not np.isfinite(fb.loss):
                raise NumericError(f"non-finite loss at step {step + 1}")
            grads = fb.grads
            for name in grads:
                grads[name] /= len(members)
            norm = clip_global_norm(grads, clip_norm)
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
    return TrainResult(params=cur, loss_curve=loss_curve,
                       samples_per_epoch=len(prepared), skipped=skipped)


def loss_curve_to_csv(curve) -> str:
    lines = ["step,loss"]
    for step, loss in curve:
        lines.append(f"{step},{repr(loss)}")
    return "\n".join(lines) + "\n"
