"""Desk-scale workbench for simultaneous-translation attention masking.

Builds small decoder-only models whose fine-tuning attention exactly
mirrors wait-k streaming inference, plus the masks, positional biases,
generation engine, and measurement tooling (latency, FLOPs) needed to
verify that equivalence as testable properties.
"""

__version__ = "0.1.0"

from .alibi import HeadSlopes, alibi_slopes, head_biases
from .data import SentencePair, default_layout_builder, gen_synthetic
from .engine import (GenerationMode, TranslationTrace, prefix_expand,
                     replay_visibility, schedule_trace, simul_generate)
from .errors import WorkbenchError
from .kernel import softmax_row
from .masks import (AttentionMaskSpec, DecisionPolicy, PromptLayout,
                    TablePolicy, WaitKPolicy, causal_mask,
                    cross_attention_mask, simul_mask)
from .metrics import FlopModel, flops_generate, laal, quality_proxy
from .model import (CacheTag, KVCache, ModelConfig, ModelParams,
                    forward_full, forward_incremental, init_model)
from .training import fine_tune

__all__ = [
    "AttentionMaskSpec", "CacheTag", "DecisionPolicy", "FlopModel",
    "GenerationMode", "HeadSlopes", "KVCache", "ModelConfig", "ModelParams",
    "PromptLayout", "SentencePair", "TablePolicy", "TranslationTrace",
    "WaitKPolicy", "WorkbenchError", "alibi_slopes", "causal_mask",
    "cross_attention_mask", "default_layout_builder", "fine_tune",
    "flops_generate", "forward_full", "forward_incremental", "gen_synthetic",
    "head_biases", "init_model", "laal", "prefix_expand", "quality_proxy",
    "replay_visibility", "schedule_trace", "simul_generate", "simul_mask",
    "softmax_row",
]
