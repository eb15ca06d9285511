"""SHA-256 digests over the exact outputs of fixed, seeded case sets.

Run from the repository root:

    PYTHONPATH=src python tools/logits_digest.py

For every short case it runs teacher-forced generation in three modes (cached
with rank biases, cached with stale biases, recompute) and hashes each
prediction step's logits (dtype, shape and bytes), then hashes the
``bias_to_csv`` dump of every head's modified bias ladder over the case's
streaming mask and of its standard ladder over causal visibility.  The
exactness fuzz compares cached against recompute within one commit; this
digest compares one commit against another, so it also catches a change
that moves both paths together.
Equal digests on two commits mean bit-identical logits and byte-identical
bias dumps on these cases.

Alongside, ``trace_sha256`` hashes every run's ``trace_to_jsonl`` dump
(event order, payloads and per-event FLOPs), ``kv_rows`` and ``d``, so a
change that moves an event or charges FLOPs to a different event shows up
even when the logits and the FLOP totals stay the same.

A second digest (``long_sha256``) covers a few long cases: sources of
150-400 tokens in the two cached modes, so the KV cache grows to hundreds
of entries.  It has no bias dumps; ``long_trace_sha256`` hashes its traces.

A third digest (``full_sha256``) hashes ``forward_full`` logits (dtype,
shape and bytes) over its own case set, under the causal and the streaming
mask, each with modified and with standard biases.  Recompute mode only
ever passes modified biases over its realized step masks; this digest
covers the other mask and bias pairs the full forward accepts.

A fourth digest (``train_sha256``) covers training: ``fine_tune`` over a
mixed-length corpus, a causal/standard phase and then a simulmask/modified
phase at wait-k, for H4 and H16 at d64 in float32 and one float64 run.  It
hashes the loss curve (``loss_curve_to_csv``) and the bytes of every
parameter after each phase.  Batches alternate between layouts and batch
sizes within one call, so every step shape is covered.  One more run has
the learning smoke test's step shape (batches of 25, H16, d64, float32,
vocabulary 48): one causal/standard step, then one simulmask/modified step
at wait-5.

With ``--threads 1,2,4`` the tool reruns itself once per thread count in a
subprocess whose environment sets ``OPENBLAS_NUM_THREADS``, prints for
each digest whether all thread counts agree, and exits 1 if any digest
differs:

    PYTHONPATH=src python tools/logits_digest.py --threads 1,2,4
"""

import argparse
import hashlib
import os
import subprocess
import sys
from dataclasses import dataclass

import numpy as np

from simulbench.alibi import alibi_slopes, bias_to_csv, head_biases
from simulbench.data import default_layout_builder, gen_synthetic
from simulbench.engine import GenerationMode, simul_generate, trace_to_jsonl
from simulbench.masks import (PromptLayout, TablePolicy, WaitKPolicy,
                              causal_mask, simul_mask)
from simulbench.model import ModelConfig, forward_full, init_model
from simulbench.training import fine_tune, loss_curve_to_csv

HEAD_COUNTS = (1, 2, 4, 8, 16)
VOCAB = 24
MODES = (("cached", "rank"), ("cached", "stale"), ("recompute", "rank"))


@dataclass(frozen=True)
class CaseSet:
    seed: int
    cases: int
    source_lens: tuple[int, int]  # drawn from [low, high)
    target_lens: tuple[int, int]
    modes: tuple
    bias_dumps: bool


# short cases: every mode plus the bias dumps
SHORT = CaseSet(20241018, 60, (1, 31), (1, 31), MODES, True)
# long caches, whose buffers grow through several doublings; cached modes
# only, since the exactness fuzz already checks recompute against cached
LONG = CaseSet(20241019, 6, (150, 401), (50, 151), MODES[:2], False)


def _policy(rng, source_len, target_len):
    if rng.random() < 0.5:
        return WaitKPolicy(k=int(rng.integers(1, source_len + 3)),
                           source_len=source_len)
    reads = np.maximum.accumulate(
        rng.integers(1, source_len + 1, size=target_len))
    return TablePolicy(reads=tuple(int(r) for r in reads),
                       source_len=source_len)


def _tokens(rng, n):
    return [int(x) for x in rng.integers(1, VOCAB, size=n)]


def digest(case_set: CaseSet) -> tuple[str, str, int, int]:
    """(logits and bias hex digest, trace hex digest, logit arrays hashed,
    bias dumps hashed)."""
    rng = np.random.default_rng(case_set.seed)
    sha = hashlib.sha256()
    trace_sha = hashlib.sha256()
    arrays = dumps = 0
    for _ in range(case_set.cases):
        cfg = ModelConfig(n_layers=int(rng.integers(1, 4)),
                          n_heads=int(rng.choice(HEAD_COUNTS)), d_model=64,
                          vocab_size=VOCAB, seed=int(rng.integers(0, 1000)))
        params = init_model(cfg)
        pre = _tokens(rng, int(rng.integers(1, 4)))
        mid = _tokens(rng, int(rng.integers(1, 4)))
        src = _tokens(rng, int(rng.integers(*case_set.source_lens)))
        tgt = _tokens(rng, int(rng.integers(*case_set.target_lens)))
        policy = _policy(rng, len(src), len(tgt))
        for kind, scheme in case_set.modes:
            _, trace = simul_generate(
                params, policy, pre, src, mid, GenerationMode(kind),
                max_target_len=len(tgt), forced_target=tgt,
                record_logits=True, bias_scheme=scheme)
            for logits in trace.step_logits:
                sha.update(f"{logits.dtype}{logits.shape}".encode())
                sha.update(np.ascontiguousarray(logits).tobytes())
                arrays += 1
            trace_sha.update(trace_to_jsonl(trace).encode())
            trace_sha.update(f"kv_rows={trace.kv_rows} d={trace.d}\n".encode())
        if not case_set.bias_dumps:
            continue
        layout = PromptLayout(len(pre), len(src), len(mid), len(tgt))
        mask = simul_mask(layout, policy)
        # standard biases are defined on causal visibility, whatever the mask
        for bias_kind, visible in (("modified", mask.visible),
                                   ("standard", causal_mask(mask.rows).visible)):
            for bias in head_biases(mask, alibi_slopes(cfg.n_heads), bias_kind):
                sha.update(bias_to_csv(bias, visible).encode())
                dumps += 1
    return sha.hexdigest(), trace_sha.hexdigest(), arrays, dumps


FULL_SEED, FULL_CASES = 20241021, 40


def full_digest() -> tuple[str, int]:
    """(hex digest, logit arrays hashed) over ``forward_full`` under both
    masks and both bias kinds."""
    rng = np.random.default_rng(FULL_SEED)
    sha = hashlib.sha256()
    arrays = 0
    for _ in range(FULL_CASES):
        cfg = ModelConfig(n_layers=int(rng.integers(1, 4)),
                          n_heads=int(rng.choice(HEAD_COUNTS)), d_model=64,
                          vocab_size=VOCAB, seed=int(rng.integers(0, 1000)))
        params = init_model(cfg)
        pre = _tokens(rng, int(rng.integers(1, 4)))
        mid = _tokens(rng, int(rng.integers(1, 4)))
        src = _tokens(rng, int(rng.integers(1, 31)))
        tgt = _tokens(rng, int(rng.integers(1, 31)))
        layout = PromptLayout(len(pre), len(src), len(mid), len(tgt))
        policy = _policy(rng, len(src), len(tgt))
        for mask in (causal_mask(layout.total_len), simul_mask(layout, policy)):
            for bias_kind in ("modified", "standard"):
                bias = head_biases(mask, alibi_slopes(cfg.n_heads), bias_kind)
                logits = forward_full(params, pre + src + mid + tgt, mask,
                                      bias)
                sha.update(f"{logits.dtype}{logits.shape}".encode())
                sha.update(np.ascontiguousarray(logits).tobytes())
                arrays += 1
    return sha.hexdigest(), arrays


# (n_heads, dtype) of each training run; all d64, two layers
TRAIN_RUNS = ((4, np.float32), (16, np.float32), (4, np.float64))
TRAIN_VOCAB = 32


@dataclass(frozen=True)
class TrainRun:
    n_heads: int
    dtype: type
    vocab: int
    epochs: int
    batch_size: int
    wait_k: int
    seed: int


def _train_phases(run: TrainRun, corpus):
    """The causal/standard phase, then the simulmask/modified one."""
    params = init_model(ModelConfig(n_layers=2, n_heads=run.n_heads,
                                    d_model=64, vocab_size=run.vocab,
                                    seed=run.seed)).astype(run.dtype)
    base = fine_tune(params, corpus, default_layout_builder, None,
                     mask_mode="causal", bias_mode="standard",
                     epochs=run.epochs, learning_rate=0.5,
                     batch_size=run.batch_size, shuffle_seed=run.seed)
    tuned = fine_tune(base.params, corpus, default_layout_builder,
                      lambda source_len: WaitKPolicy(run.wait_k, source_len),
                      mask_mode="simulmask", bias_mode="modified",
                      epochs=run.epochs, learning_rate=0.15,
                      batch_size=run.batch_size, shuffle_seed=run.seed + 100)
    return base, tuned


def train_digest() -> tuple[str, int, int]:
    """(hex digest, runs, optimizer steps hashed) over the ``fine_tune``
    runs."""
    # source lengths 4-8: five layouts; 40 sentences in batches of 6 leave
    # each layout's last batch short, so shapes alternate in L and in B
    mixed = gen_synthetic("shift(2)", 40, 4, 8, TRAIN_VOCAB, 20241020)
    runs = [(TrainRun(n_heads, dtype, TRAIN_VOCAB, 3, 6, 3, seed), mixed)
            for seed, (n_heads, dtype) in enumerate(TRAIN_RUNS)]
    # the learning smoke test's step: 25 sentences of one layout (L=26);
    # a weight gradient taken as one GEMM over all 650 rows reduces
    # differently when OpenBLAS threads it
    runs.append((TrainRun(16, np.float32, 48, 1, 25, 5, len(runs)),
                 gen_synthetic("shift(2)", 25, 12, 12, 48, 20241022)))
    sha = hashlib.sha256()
    steps = 0
    for run, corpus in runs:
        for result in _train_phases(run, corpus):
            sha.update(loss_curve_to_csv(result.loss_curve).encode())
            for name, arr in result.params.tensors():
                sha.update(f"{name}{arr.dtype}{arr.shape}".encode())
                sha.update(np.ascontiguousarray(arr).tobytes())
            steps += len(result.loss_curve)
    return sha.hexdigest(), len(runs), steps


def compare_threads(counts) -> int:
    """Rerun the tool under each BLAS thread count; 1 if any digest
    differs between them, else 0."""
    digests = {}
    for count in counts:
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(count))
        out = subprocess.run([sys.executable, os.path.abspath(__file__)],
                             env=env, check=True, capture_output=True,
                             text=True).stdout
        for line in out.splitlines():
            name, _, value = line.partition("=")
            if name.endswith("sha256"):
                digests.setdefault(name, {})[count] = value
    status = 0
    for name, by_count in digests.items():
        if len(set(by_count.values())) == 1:
            print(f"{name}: agree at threads {','.join(map(str, counts))} "
                  f"{by_count[counts[0]]}")
        else:
            status = 1
            print(f"{name}: DIFFER "
                  + " ".join(f"{c}={v}" for c, v in by_count.items()))
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--threads", metavar="N,N,...",
                        type=lambda s: [int(c) for c in s.split(",")],
                        help="rerun under these OPENBLAS_NUM_THREADS values "
                             "and report whether the digests agree")
    args = parser.parse_args()
    if args.threads:
        sys.exit(compare_threads(args.threads))
    for name, case_set in (("", SHORT), ("long_", LONG)):
        hexdigest, trace_hexdigest, arrays, dumps = digest(case_set)
        print(f"{name}cases={case_set.cases} logit_arrays={arrays} "
              f"bias_dumps={dumps}")
        print(f"{name}sha256={hexdigest}")
        print(f"{name}trace_sha256={trace_hexdigest}")
    hexdigest, arrays = full_digest()
    print(f"full_cases={FULL_CASES} logit_arrays={arrays}")
    print(f"full_sha256={hexdigest}")
    hexdigest, runs, steps = train_digest()
    print(f"train_runs={runs} steps={steps}")
    print(f"train_sha256={hexdigest}")


if __name__ == "__main__":
    main()
