"""Test-side helpers: parsers, fits and references the package itself
never calls."""

import json
import re

import numpy as np

from simulbench.data import corpus_to_jsonl
from simulbench.engine import ReadEvent, WriteEvent
from simulbench.errors import DataError, ShapeError
from simulbench.masks import AttentionMaskSpec, PromptLayout, Region
from simulbench.model import params_to_bytes


def save_corpus(path: str, corpus):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(corpus_to_jsonl(corpus))


def save_params(params, path: str):
    with open(path, "wb") as fh:
        fh.write(params_to_bytes(params))


def rewrite_checkpoint(path, edit_header, extra_bytes=b""):
    """Rewrite a saved checkpoint's JSON header and append ``extra_bytes``."""
    data = open(path, "rb").read()
    line, _, body = data.partition(b"\n")
    header = json.loads(line)
    edit_header(header)
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode() + b"\n" + body + extra_bytes)


def region_of(layout: PromptLayout, pos: int) -> tuple[Region, int]:
    """(region, 0-based index within the region) of an absolute position."""
    assert 0 <= pos < layout.total_len
    if pos < layout.source_start:
        return Region.PRE_PROMPT, pos
    if pos < layout.mid_start:
        return Region.SOURCE, pos - layout.source_start
    if pos < layout.target_start:
        return Region.MID_PROMPT, pos - layout.mid_start
    return Region.TARGET, pos - layout.target_start


def hidden_beyond_causal(mask: AttentionMaskSpec) -> set[tuple[int, int]]:
    """(row, col) pairs hidden although a causal mask would show them."""
    causal = np.tril(np.ones((mask.rows, mask.cols), dtype=bool))
    return {(int(i), int(j)) for i, j in zip(*np.nonzero(causal & ~mask.visible))}


def ascii_to_mask(text: str) -> tuple[AttentionMaskSpec, str]:
    """Parse the output of mask_to_ascii; returns (mask, policy descriptor)."""
    lines = [ln for ln in text.splitlines() if ln]
    if not lines:
        raise ShapeError("empty mask dump")
    m = re.fullmatch(r"L=(\d+) policy=(.*)", lines[0])
    if not m:
        raise ShapeError(f"bad mask header: {lines[0]!r}")
    n = int(m.group(1))
    if len(lines) != n + 1:
        raise ShapeError(f"expected {n} mask rows, found {len(lines) - 1}")
    grid = []
    for ln in lines[1:]:
        if set(ln) - {"#", "."}:
            raise ShapeError(f"bad mask row: {ln!r}")
        grid.append([c == "#" for c in ln])
    return AttentionMaskSpec(np.array(grid, dtype=bool)), m.group(2)


def events_from_jsonl(text: str) -> list:
    """Parse a trace dump back into event objects."""
    events = []
    for line in text.splitlines():
        if not line:
            continue
        rec = json.loads(line)
        if rec["type"] == "read":
            events.append(ReadEvent(n=rec["payload"], flops=rec["flops"]))
        elif rec["type"] == "write":
            events.append(WriteEvent(token=rec["payload"], flops=rec["flops"]))
        else:
            raise DataError(f"unknown event type {rec['type']!r}")
    return events


def fit_loglog_exponent(lengths, costs) -> float:
    """Least-squares slope of log(cost) against log(length)."""
    lengths = np.asarray(lengths, dtype=float)
    costs = np.asarray(costs, dtype=float)
    assert lengths.size >= 2 and (lengths > 0).all() and (costs > 0).all()
    slope, _ = np.polyfit(np.log(lengths), np.log(costs), 1)
    return float(slope)
