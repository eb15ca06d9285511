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

A step allocates almost nothing: every large intermediate of the forward
and backward is written with ``out=`` (or updated in place) into a
``_Workspace`` that one ``fine_tune`` call owns and hands to each step, and
the SGD update runs in place on the call's parameter copies.  The
additive mask+bias block of each (mask, bias kind) is built once per call,
when ``fine_tune`` prepares the mask, and every step reuses it.  Every
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
from .errors import ConfigError, DataError, NumericError, ShapeError
from .masks import AttentionMaskSpec, causal_mask, simul_mask, whole
from .model import GELU_C, GELU_CUBIC, LN_EPS, ModelParams, gelu

_CLIP_NORM = 1.0  # every step clips its global gradient norm to this


class _Workspace:
    """Named scratch buffers reused by the steps of one ``fine_tune`` call.

    Each name owns one flat buffer, grown to the largest size requested
    under it; ``take`` returns a C-contiguous view of the requested shape
    over its prefix.  A view stays valid until the next ``take`` of the
    same name, so arrays that are live together need distinct names.
    """

    def __init__(self):
        self._buffers = {}
        self._blocks = {}

    def take(self, name, shape, dtype) -> np.ndarray:
        size = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.dtype != dtype or buf.size < size:
            buf = self._buffers[name] = np.empty(size, dtype)
        return buf[:size].reshape(shape)

    def mask_bias(self, mask, kind, n_heads, dtype) -> np.ndarray:
        """The (H, L, L) additive mask plus ``kind`` biases over ``mask``,
        built once per (mask object, kind, H, dtype) and kept for the
        workspace's lifetime, with the mask, so its id is never reused."""
        key = (id(mask), kind, n_heads, np.dtype(dtype))
        if key not in self._blocks:
            # mask entries are exactly 0 or -inf and biases are finite, so
            # adding their sum equals adding the mask, then the biases
            bias = head_biases(mask, alibi_slopes(n_heads), kind)
            self._blocks[key] = (mask, np.add(mask.to_additive(dtype),
                                              bias.astype(dtype, copy=False)))
        return self._blocks[key][1]


def _mean_last(x):
    """``x.mean(axis=-1, keepdims=True)``: the same-dtype sum, then one
    division by the count, without numpy's Python-level ``mean``."""
    n = x.dtype.type(x.shape[-1])
    return np.add.reduce(x, axis=-1, dtype=x.dtype, keepdims=True) / n


def _gelu_bwd(x, t, dy, q, w):
    """Replace ``dy`` by the input gradient of ``model.gelu``, whose tanh
    is ``t``; ``q`` and ``w`` are scratch."""
    c = x.dtype.type(GELU_C)
    # q = 0.5 * x * (1 - t^2) * du, with du = c * (1 + 3a * x^2)
    np.multiply(0.5, x, out=q)
    np.multiply(t, t, out=w)
    np.subtract(1.0, w, out=w)
    np.multiply(q, w, out=q)
    np.multiply(x, x, out=w)
    np.multiply(3.0 * x.dtype.type(GELU_CUBIC), w, out=w)
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


@dataclass
class ForwardBackward:
    loss: float
    grads: dict[str, np.ndarray]
    logits: np.ndarray
    dlogits: np.ndarray


def batch_forward_backward(params: ModelParams, tokens: np.ndarray,
                           mask: AttentionMaskSpec, kind: str, loss_rows, *,
                           _workspace: _Workspace | None = None) -> ForwardBackward:
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
    count, and ShapeError for a mask that is not L x L or a token id that
    is not a whole count or lies outside the vocabulary.
    Works in whatever float dtype the parameters carry.  Intermediates go
    to ``_workspace`` (``fine_tune`` passes its own; otherwise a fresh one);
    the returned arrays never alias it.
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
    mask_bias = ws.mask_bias(mask, kind, H, dt)
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
        gelu(f1, g1, t, ffn_tmp[0])
        np.matmul(flat(g1), lp.w2, out=flat(x))
        np.add(x1, x, out=x)
        saved.append((a, xhat1, inv1, q, k, v, p, ctx, b2, xhat2, inv2,
                      f1, g1, t))
    hf, xhatf = buf("hf", B, L, d), buf("xhatf", B, L, d)
    invf = _ln_fwd(x, params.lnf_g, params.lnf_b, hf, xhatf, ln_tmp)
    logits = (flat(hf) @ params.w_out).reshape(B, L, cfg.vocab_size)

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
    mask, loss rows and ``bias_mode`` mask+bias block, built once before
    any step; within an optimizer step, sentences sharing a layout (hence
    a mask) are processed as one stacked batch for speed.
    Sentences longer than ``max_seq_len`` are skipped with a warning.
    Raises, before any step, ConfigError for an unknown mask or bias mode,
    for ``epochs``, ``batch_size`` or ``max_seq_len`` not a whole count and
    for a negative or non-finite ``learning_rate``, ShapeError for a
    layout token not a whole count and DataError for a sentence whose
    tokens do not number its layout's ``total_len``; NumericError when a
    step's loss or gradient norm, or a parameter after its update, is not
    finite.
    Deterministic for fixed seed and corpus order.
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

    workspace = _Workspace()
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
            if mask_mode == "causal":
                mask = causal_mask(layout.total_len)
            elif mask_mode != "simulmask":
                raise ConfigError(f"unknown mask mode {mask_mode!r}")
            elif policy is None:
                raise ConfigError("simulmask mode needs a decision policy")
            else:
                mask = simul_mask(layout, policy)
            groups[key] = (mask, np.asarray(layout.predictor_rows()), [])
            # every step under this key reuses the block
            workspace.mask_bias(mask, bias_mode, params.config.n_heads,
                                params.embed.dtype)
        groups[key][2].append(tokens)
    if not groups:
        raise DataError("all sentences skipped")

    # the SGD update runs in place on these copies, which ``cur`` holds
    arrays = {k: v.copy() for k, v in params.tensors()}
    cur = params.with_tensors(arrays)
    rng = np.random.default_rng(shuffle_seed)
    loss_curve = []
    step = 0
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
                                        bias_mode, rows, _workspace=workspace)
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
