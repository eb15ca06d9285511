"""Synthetic corpora and corpus/layout plumbing.

Vocabulary convention: id 0 is the target end-of-sequence marker, id 1 the
pre-prompt token, id 2 the mid-prompt separator, id 3 the end-of-source
marker streamed after the last source token (streaming interfaces signal
source end; a desk model needs the same cue in-band).  Content tokens use
ids 4 and up, drawn without replacement within each sentence so that
content-based retrieval is unambiguous.  Corpora are JSON lines with
integer "source" and "target" arrays; no tokenizer anywhere.
"""

import json
import re
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .masks import PromptLayout

EOS_ID = 0
PRE_ID = 1
SEP_ID = 2
SRC_END_ID = 3
FIRST_CONTENT_ID = 4


@dataclass(frozen=True)
class SentencePair:
    source: tuple[int, ...]
    target: tuple[int, ...]

    def __post_init__(self):
        src = tuple(int(t) for t in self.source)
        tgt = tuple(int(t) for t in self.target)
        if not src or not tgt:
            raise DataError("source and target must be non-empty")
        if min(src + tgt) < 0:
            raise DataError("token ids must be non-negative")
        object.__setattr__(self, "source", src)
        object.__setattr__(self, "target", tgt)

    def check_vocab(self, vocab_size: int):
        if max(self.source + self.target) >= vocab_size:
            raise DataError(f"token id outside vocabulary of size {vocab_size}")


def parse_task(task: str) -> tuple[str, int]:
    """'copy' | 'reverse' | 'shift(n)' -> (name, shift amount)."""
    if task in ("copy", "reverse"):
        return task, 0
    m = re.fullmatch(r"shift\((\d+)\)", task)
    if m:
        n = int(m.group(1))
        if n < 1:
            raise ConfigError("shift amount must be >= 1")
        return "shift", n
    raise ConfigError(f"unknown task {task!r}")


def gen_synthetic(task: str, n_sentences: int, min_len: int, max_len: int,
                  vocab_size: int, seed: int) -> list[SentencePair]:
    """Deterministic synthetic sentence pairs.

    copy: target equals source.  reverse: target is the reversed source
    (stresses low-k policies).  shift(n): target token i is source token
    i+n, so a lag of at least n source tokens is needed — the training
    layout appends the end-of-sequence marker after the shortened target.
    """
    name, shift_n = parse_task(task)
    if n_sentences < 1:
        raise ConfigError("need at least one sentence")
    if not 1 <= min_len <= max_len:
        raise ConfigError(f"bad length range [{min_len}, {max_len}]")
    if vocab_size - FIRST_CONTENT_ID < max_len:
        raise ConfigError(
            f"vocab_size {vocab_size} too small for length {max_len} with "
            f"replacement-free sampling (needs >= {max_len + FIRST_CONTENT_ID})")
    if name == "shift" and min_len <= shift_n:
        raise ConfigError(f"shift({shift_n}) needs sentences longer than {shift_n}")
    rng = np.random.default_rng(seed)
    content = np.arange(FIRST_CONTENT_ID, vocab_size)
    corpus = []
    for _ in range(n_sentences):
        length = int(rng.integers(min_len, max_len + 1))
        src = [int(t) for t in rng.choice(content, size=length, replace=False)]
        if name == "copy":
            tgt = list(src)
        elif name == "reverse":
            tgt = src[::-1]
        else:
            tgt = src[shift_n:]
        corpus.append(SentencePair(source=tuple(src), target=tuple(tgt)))
    return corpus


def corpus_to_jsonl(corpus) -> str:
    """One {"source", "target"} JSON object per line, as ``load_corpus`` reads."""
    return "".join(json.dumps({"source": list(pair.source),
                               "target": list(pair.target)}) + "\n"
                   for pair in corpus)


def save_corpus(path: str, corpus):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(corpus_to_jsonl(corpus))


def load_corpus(path: str, vocab_size: int | None = None) -> list[SentencePair]:
    corpus = []
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    rec = json.loads(line)
                    pair = SentencePair(source=tuple(rec["source"]),
                                        target=tuple(rec["target"]))
                except (json.JSONDecodeError, KeyError, TypeError) as exc:
                    raise DataError(f"{path}:{lineno}: bad corpus line") from exc
                if vocab_size is not None:
                    pair.check_vocab(vocab_size)
                corpus.append(pair)
    except OSError as exc:
        raise DataError(f"cannot read corpus {path}: {exc}") from exc
    if not corpus:
        raise DataError(f"corpus {path} is empty")
    return corpus


def streamed_source(pair: SentencePair) -> list[int]:
    """What the source side actually streams: content then the end marker."""
    return list(pair.source) + [SRC_END_ID]


def default_layout_builder(pair: SentencePair):
    """Training sequence: [PRE] source [SRC_END] [SEP] target [EOS].

    The source region carries the streamed end-of-source marker; the target
    region includes the end-of-sequence slot so the model learns to
    terminate.  The final target row predicts nothing.
    """
    tokens = ([PRE_ID] + streamed_source(pair) + [SEP_ID]
              + list(pair.target) + [EOS_ID])
    layout = PromptLayout(pre_prompt_len=1, source_len=len(pair.source) + 1,
                          mid_prompt_len=1, target_len=len(pair.target) + 1)
    return tokens, layout
