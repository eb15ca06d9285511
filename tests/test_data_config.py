import os

import numpy as np
import pytest

from simulbench.config import build_config, load_config, parse_config_text
from simulbench.data import (EOS_ID, PRE_ID, SEP_ID, SentencePair,
                             default_layout_builder, gen_synthetic,
                             load_corpus, parse_task)
from simulbench.errors import ConfigError, DataError

from helpers import save_corpus


class TestGenSynthetic:
    def test_copy_example(self):
        corpus = gen_synthetic("copy", 5, 3, 3, 24, 0)
        for pair in corpus:
            assert pair.target == pair.source

    def test_reverse(self):
        corpus = gen_synthetic("reverse", 5, 3, 6, 24, 1)
        for pair in corpus:
            assert pair.target == tuple(reversed(pair.source))

    def test_shift_drops_leading_tokens(self):
        corpus = gen_synthetic("shift(2)", 5, 4, 8, 24, 2)
        for pair in corpus:
            assert pair.target == pair.source[2:]

    def test_deterministic(self):
        a = gen_synthetic("copy", 10, 3, 9, 24, 5)
        b = gen_synthetic("copy", 10, 3, 9, 24, 5)
        assert a == b
        c = gen_synthetic("copy", 10, 3, 9, 24, 6)
        assert a != c

    def test_content_ids_within_vocab_and_distinct(self):
        corpus = gen_synthetic("copy", 20, 3, 9, 13, 0)
        for pair in corpus:
            assert all(4 <= t < 13 for t in pair.source)
            assert len(set(pair.source)) == len(pair.source)

    def test_invalid_settings(self):
        with pytest.raises(ConfigError):
            gen_synthetic("copy", 0, 3, 5, 24, 0)
        with pytest.raises(ConfigError):
            gen_synthetic("copy", 1, 5, 3, 24, 0)
        with pytest.raises(ConfigError):
            gen_synthetic("shift(4)", 1, 3, 5, 24, 0)
        with pytest.raises(ConfigError):
            gen_synthetic("mystery", 1, 3, 5, 24, 0)
        with pytest.raises(ConfigError):
            gen_synthetic("copy", 1, 3, 25, 24, 0)  # vocab too small
        # whole counts only; the message names the value
        for bad in (2.0, True):
            with pytest.raises(ConfigError, match=f"n_sentences: {bad!r}"):
                gen_synthetic("copy", bad, 3, 4, 12, 0)

    def test_parse_task(self):
        assert parse_task("shift(3)") == ("shift", 3)
        assert parse_task("copy") == ("copy", 0)


class TestCorpusIO:
    def test_round_trip(self, tmp_path):
        corpus = gen_synthetic("copy", 8, 3, 7, 24, 0)
        path = os.path.join(tmp_path, "corpus.jsonl")
        save_corpus(path, corpus)
        loaded = load_corpus(path, vocab_size=24)
        assert loaded == corpus

    def test_vocab_check(self, tmp_path):
        path = os.path.join(tmp_path, "corpus.jsonl")
        save_corpus(path, [SentencePair((3, 9), (3, 9))])
        with pytest.raises(DataError):
            load_corpus(path, vocab_size=8)

    def test_bad_file(self, tmp_path):
        path = os.path.join(tmp_path, "bad.jsonl")
        with open(path, "w") as fh:
            fh.write('{"source": [3]}\n')
        with pytest.raises(DataError):
            load_corpus(path)
        with pytest.raises(DataError):
            load_corpus(os.path.join(tmp_path, "missing.jsonl"))

    def test_pair_validation(self):
        with pytest.raises(DataError):
            SentencePair((), (1,))
        with pytest.raises(DataError):
            SentencePair((1,), (-2,))

    @pytest.mark.parametrize("source", [
        "abc", (4.7, 5), (5.0,), (float("inf"),), (True, 5), ("5",), (None,),
        (np.float32(4),)])
    def test_token_ids_must_be_integers(self, source):
        with pytest.raises(DataError, match="not an integer"):
            SentencePair(source, (4,))
        with pytest.raises(DataError, match="not an integer"):
            SentencePair((4,), source)

    def test_numpy_integer_ids_accepted(self):
        pair = SentencePair(np.array([4, 5]), (np.int32(6),))
        assert pair.source == (4, 5) and pair.target == (6,)
        assert all(type(t) is int for t in pair.source + pair.target)

    @pytest.mark.parametrize("line", [
        '{"source": "abc", "target": [4]}',
        '{"source": [1e400], "target": [4]}',
        '{"source": [4.7, 5], "target": [4]}',
        '{"source": [4], "target": [true]}',
    ])
    def test_load_rejects_non_integer_ids(self, tmp_path, line):
        path = os.path.join(tmp_path, "bad.jsonl")
        with open(path, "w") as fh:
            fh.write(line + "\n")
        with pytest.raises(DataError, match="not an integer"):
            load_corpus(path)


class TestLayoutBuilder:
    def test_default_layout(self):
        pair = SentencePair((5, 6, 7), (8, 9))
        tokens, layout = default_layout_builder(pair)
        from simulbench.data import SRC_END_ID
        assert tokens == [PRE_ID, 5, 6, 7, SRC_END_ID, SEP_ID, 8, 9, EOS_ID]
        assert (layout.pre_prompt_len, layout.source_len,
                layout.mid_prompt_len, layout.target_len) == (1, 4, 1, 3)
        rows = layout.predictor_rows()
        # predictor rows cover the separator through the last content token
        assert rows == (5, 6, 7)
        assert [tokens[r + 1] for r in rows] == [8, 9, EOS_ID]


class TestConfig:
    def test_defaults(self):
        cfg = build_config({}, {})
        assert cfg.mask == "simulmask"
        assert cfg.eval_k == (1, 3, 5)

    def test_parse_and_override(self):
        text = """
        # comment
        train_k = 7
        eval_k = 1, 3
        learning_rate = 0.25
        dataset = corpus.jsonl
        """
        raw = parse_config_text(text)
        cfg = build_config(raw, {"train_k": 9})
        assert cfg.train_k == 9
        assert cfg.eval_k == (1, 3)
        assert cfg.learning_rate == 0.25

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            build_config({"learning_rtae": "0.1"}, {})

    def test_bad_values_rejected(self):
        with pytest.raises(ConfigError):
            build_config({"train_k": "fast"}, {})
        with pytest.raises(ConfigError):
            build_config({"mask": "diagonal"}, {})
        with pytest.raises(ConfigError):
            build_config({"eval_k": "0"}, {})
        # no sentence fits, or no target token may be written
        for key in ("max_seq_len", "max_target_len"):
            for value in ("0", "-1"):
                with pytest.raises(ConfigError, match=key):
                    build_config({key: value}, {})

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("seed = 1\nseed = 2\n")

    def test_file_round_trip(self, tmp_path):
        path = os.path.join(tmp_path, "cfg.txt")
        with open(path, "w") as fh:
            fh.write("train_k = 3\ndataset = d.jsonl\n")
        cfg = load_config(path)
        assert cfg.train_k == 3
        assert cfg.dataset == "d.jsonl"
        with pytest.raises(ConfigError):
            load_config(os.path.join(tmp_path, "missing.txt"))
