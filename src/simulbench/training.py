"""Cross-entropy fine-tuning of the tiny decoder-only model.

The training forward/backward is vectorized over same-shaped sentences
(the row-wise exact path in ``model`` stays the reference for inference
equivalence tests; the two agree to float precision).  The loss covers
exactly the target-predicting rows: the final mid-prompt row through the
penultimate target row.  Optimization is plain SGD with global
gradient-norm clipping at 1.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .alibi import alibi_slopes, head_biases
from .errors import ConfigError, DataError, NumericError
from .masks import AttentionMaskSpec, DecisionPolicy, PromptLayout, causal_mask, simul_mask
from .model import LN_EPS, ModelParams

_GELU_A = 0.044715


def _gelu_fwd(x):
    c = x.dtype.type(np.sqrt(2.0 / np.pi))
    u = c * (x + x.dtype.type(_GELU_A) * (x * x * x))
    t = np.tanh(u)
    return 0.5 * x * (1.0 + t), t


def _gelu_bwd(x, t, dy):
    c = x.dtype.type(np.sqrt(2.0 / np.pi))
    du = c * (1.0 + 3.0 * x.dtype.type(_GELU_A) * (x * x))
    return dy * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du)


def _ln_fwd(x, g, b):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + x.dtype.type(LN_EPS))
    xhat = xc * inv
    return xhat * g + b, (xhat, inv)


def _ln_bwd(cache, g, dy):
    xhat, inv = cache
    dg = (dy * xhat).reshape(-1, dy.shape[-1]).sum(axis=0)
    db = dy.reshape(-1, dy.shape[-1]).sum(axis=0)
    dxhat = dy * g
    dx = inv * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
    return dx, dg, db


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
    biases = head_biases(mask, alibi_slopes(n_heads), bias_mode)
    return mask, np.stack([b.matrix for b in biases])


@dataclass
class ForwardBackward:
    loss: float
    grads: dict[str, np.ndarray] | None
    logits: np.ndarray
    dlogits: np.ndarray | None


def batch_forward_backward(params: ModelParams, tokens: np.ndarray,
                           mask: AttentionMaskSpec, bias_stack: np.ndarray,
                           loss_rows, labels: np.ndarray,
                           want_grads: bool = True) -> ForwardBackward:
    """Summed loss (+ summed gradients) of same-shaped sentences.

    ``tokens`` is (B, L) over a shared mask/bias; ``loss_rows`` gives the
    predicting rows (shared across the batch) and ``labels`` their (B, R)
    next tokens.  Per sentence the loss is the mean over its predicting
    rows; the returned loss and gradients are sums over the batch.  All
    other rows contribute nothing and get exactly zero logit gradients.
    Works in whatever float dtype the parameters carry.
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
    scale = dt(1.0) / np.sqrt(dt(dh))
    add_mask = mask.to_additive(dt)
    bias = bias_stack.astype(dt)

    x = params.embed[tokens]  # (B, L, d)
    caches = []
    for lp in params.layers:
        a, ln1c = _ln_fwd(x, lp.ln1_g, lp.ln1_b)
        q = (a @ lp.wq).reshape(B, L, H, dh).transpose(0, 2, 1, 3)
        k = (a @ lp.wk).reshape(B, L, H, dh).transpose(0, 2, 1, 3)
        v = (a @ lp.wv).reshape(B, L, H, dh).transpose(0, 2, 1, 3)
        scores = (q @ k.swapaxes(-1, -2) + add_mask + bias) * scale
        mx = np.max(scores, axis=-1, keepdims=True)
        p = np.exp(scores - mx)
        p /= p.sum(axis=-1, keepdims=True)
        ctx = (p @ v).transpose(0, 2, 1, 3)
        ctx = ctx.reshape(B, L, d)
        attn = ctx @ lp.wo
        x1 = x + attn
        b2, ln2c = _ln_fwd(x1, lp.ln2_g, lp.ln2_b)
        f1 = b2 @ lp.w1
        g1, tanh_c = _gelu_fwd(f1)
        x2 = x1 + g1 @ lp.w2
        caches.append((x, a, ln1c, q, k, v, p, ctx, x1, b2, ln2c, f1, g1, tanh_c))
        x = x2
    hf, lnfc = _ln_fwd(x, params.lnf_g, params.lnf_b)
    logits = hf @ params.w_out  # (B, L, V)

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
    grads["w_out"] += hf.reshape(-1, d).T @ dlogits.reshape(-1, cfg.vocab_size)
    dhf = dlogits @ params.w_out.T
    dx, dg, db = _ln_bwd(lnfc, params.lnf_g, dhf)
    grads["lnf_g"] += dg
    grads["lnf_b"] += db

    for li in range(cfg.n_layers - 1, -1, -1):
        lp = params.layers[li]
        (xin, a, ln1c, q, k, v, p, ctx, x1, b2, ln2c, f1, g1, tanh_c) = caches[li]
        pre = f"layers.{li}."
        # FFN
        grads[pre + "w2"] += g1.reshape(-1, 4 * d).T @ dx.reshape(-1, d)
        dg1 = dx @ lp.w2.T
        df1 = _gelu_bwd(f1, tanh_c, dg1)
        grads[pre + "w1"] += b2.reshape(-1, d).T @ df1.reshape(-1, 4 * d)
        db2 = df1 @ lp.w1.T
        dx1, dgain, doff = _ln_bwd(ln2c, lp.ln2_g, db2)
        grads[pre + "ln2_g"] += dgain
        grads[pre + "ln2_b"] += doff
        dx1 = dx1 + dx
        # attention
        grads[pre + "wo"] += ctx.reshape(-1, d).T @ dx1.reshape(-1, d)
        dctx = (dx1 @ lp.wo.T).reshape(B, L, H, dh).transpose(0, 2, 1, 3)
        dp = dctx @ v.swapaxes(-1, -2)
        dv = p.swapaxes(-1, -2) @ dctx
        dscores = p * (dp - (dp * p).sum(axis=-1, keepdims=True)) * scale
        dq = dscores @ k
        dk = dscores.swapaxes(-1, -2) @ q
        dq2 = dq.transpose(0, 2, 1, 3).reshape(-1, d)
        dk2 = dk.transpose(0, 2, 1, 3).reshape(-1, d)
        dv2 = dv.transpose(0, 2, 1, 3).reshape(-1, d)
        a2 = a.reshape(-1, d)
        da = (dq2 @ lp.wq.T + dk2 @ lp.wk.T + dv2 @ lp.wv.T).reshape(B, L, d)
        grads[pre + "wq"] += a2.T @ dq2
        grads[pre + "wk"] += a2.T @ dk2
        grads[pre + "wv"] += a2.T @ dv2
        dxin, dgain, doff = _ln_bwd(ln1c, lp.ln1_g, da)
        grads[pre + "ln1_g"] += dgain
        grads[pre + "ln1_b"] += doff
        dx = dxin + dx1

    np.add.at(grads["embed"], tokens.reshape(-1), dx.reshape(-1, d))
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
    Raises NumericError when a step's loss or gradient norm is not finite.
    Deterministic for fixed seed and corpus order.
    """
    if not corpus:
        raise DataError("empty corpus")
    if epochs < 0 or learning_rate < 0 or batch_size < 1:
        raise ConfigError("invalid training settings")
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

    arrays = {k: v.copy() for k, v in params.tensors()}
    cur = params.with_tensors(arrays)
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
                                        np.asarray(rows), labels)
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
                for name in arrays:
                    arrays[name] = arrays[name] - learning_rate * grads[name]
                cur = cur.with_tensors(arrays)
            step += 1
            loss_curve.append((step, fb.loss / len(members)))
    return TrainResult(params=cur, loss_curve=loss_curve,
                       samples_per_epoch=len(prepared), skipped=skipped)


def loss_curve_to_csv(curve) -> str:
    lines = ["step,loss"]
    for step, loss in curve:
        lines.append(f"{step},{repr(loss)}")
    return "\n".join(lines) + "\n"
