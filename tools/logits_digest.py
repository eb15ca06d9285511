"""SHA-256 digests over the exact outputs of two fixed, seeded case sets.

Run from the repository root:

    PYTHONPATH=src python tools/logits_digest.py

For every short case it runs teacher-forced generation in three modes (cached
with rank biases, cached with stale biases, recompute) and hashes each
prediction step's logits (dtype, shape and bytes), then hashes the
``bias_to_csv`` dump of every head's modified and standard bias ladder over
the case's streaming mask.  The exactness fuzz compares cached against
recompute within one commit; this digest compares one commit against
another, so it also catches a change that moves both paths together.
Equal digests on two commits mean bit-identical logits and byte-identical
bias dumps on these cases.

A second digest (``long_sha256``) covers a few long cases: sources of
150-400 tokens in the two cached modes, so the KV cache grows to hundreds
of entries.  It has no bias dumps.
"""

import hashlib
from dataclasses import dataclass

import numpy as np

from simulbench.alibi import alibi_slopes, bias_to_csv, head_biases
from simulbench.engine import GenerationMode, simul_generate
from simulbench.masks import PromptLayout, TablePolicy, WaitKPolicy, simul_mask
from simulbench.model import ModelConfig, init_model

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


def digest(case_set: CaseSet) -> tuple[str, int, int]:
    """(hex digest, logit arrays hashed, bias dumps hashed)."""
    rng = np.random.default_rng(case_set.seed)
    sha = hashlib.sha256()
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
        if not case_set.bias_dumps:
            continue
        layout = PromptLayout(len(pre), len(src), len(mid), len(tgt))
        mask = simul_mask(layout, policy)
        for bias_kind in ("modified", "standard"):
            for bias in head_biases(mask, alibi_slopes(cfg.n_heads), bias_kind):
                sha.update(bias_to_csv(bias).encode())
                dumps += 1
    return sha.hexdigest(), arrays, dumps


def main():
    for name, case_set in (("", SHORT), ("long_", LONG)):
        hexdigest, arrays, dumps = digest(case_set)
        print(f"{name}cases={case_set.cases} logit_arrays={arrays} "
              f"bias_dumps={dumps}")
        print(f"{name}sha256={hexdigest}")


if __name__ == "__main__":
    main()
