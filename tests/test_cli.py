import filecmp
import os
import shlex

import numpy as np
import pytest

from simulbench import engine, experiment
from simulbench.cli import _write_out, main
from simulbench.config import build_config
from simulbench.data import gen_synthetic
from simulbench.engine import GenerationMode
from simulbench.experiment import evaluate_sentence, run_experiment
from simulbench.metrics import FlopModel, flops_generate, laal, quality_proxy
from simulbench.model import ModelConfig, init_model

from helpers import (ascii_to_mask, hidden_beyond_causal,
                     rewrite_checkpoint, save_corpus, save_params)


@pytest.fixture
def corpus_path(tmp_path):
    path = os.path.join(tmp_path, "corpus.jsonl")
    save_corpus(path, gen_synthetic("copy", 3, 3, 5, 24, 0))
    return path


def smoke_config(corpus_path, out, **kw):
    base = dict(dataset=corpus_path, out=out, epochs=0, eval_k="1",
                max_target_len=8)
    base.update(kw)
    return build_config({k: str(v) for k, v in base.items()}, {})


class TestRunExperiment:
    def test_smoke_untrained(self, corpus_path, tmp_path):
        out = os.path.join(tmp_path, "run")
        paths = run_experiment(smoke_config(corpus_path, out))
        names = {os.path.basename(p) for p in paths}
        assert {"params.bin", "loss_curve.csv", "metrics.csv", "summary.csv",
                "traces_k1_cached.jsonl", "mask_k1.txt", "bias_k1.csv"} <= names
        summary = open(os.path.join(out, "summary.csv")).read().splitlines()
        assert summary[0] == "k_or_chunk,mode,mean_laal,token_acc,exact_match"
        assert len(summary) == 2  # one row per requested (k, mode)
        metrics = open(os.path.join(out, "metrics.csv")).read().splitlines()
        assert metrics[0] == ("sentence_id,k_or_chunk,laal,flops_initial,"
                              "flops_recompute,token_acc,exact_match")
        assert [ln.split(",")[:2] for ln in metrics[1:]] == [
            ["0", "1"], ["1", "1"], ["2", "1"]]  # one row per sentence

    def test_one_row_per_eval_k(self, corpus_path, tmp_path):
        out = os.path.join(tmp_path, "run")
        run_experiment(smoke_config(corpus_path, out, eval_k="1,2,3"))
        summary = open(os.path.join(out, "summary.csv")).read().splitlines()
        assert len(summary) == 4

    def test_byte_identical_reruns(self, corpus_path, tmp_path):
        out_a = os.path.join(tmp_path, "a")
        out_b = os.path.join(tmp_path, "b")
        cfg_kw = dict(epochs=2, learning_rate=0.3, batch_size=2, eval_k="1,3")
        paths_a = run_experiment(smoke_config(corpus_path, out_a, **cfg_kw))
        paths_b = run_experiment(smoke_config(corpus_path, out_b, **cfg_kw))
        assert [os.path.basename(p) for p in paths_a] == \
            [os.path.basename(p) for p in paths_b]
        for pa, pb in zip(paths_a, paths_b):
            assert filecmp.cmp(pa, pb, shallow=False), pa

    def test_failed_run_removes_outputs(self, tmp_path):
        out = os.path.join(tmp_path, "run")
        missing = os.path.join(tmp_path, "missing.jsonl")
        cfg = build_config({"dataset": missing, "out": out}, {})
        with pytest.raises(Exception):
            run_experiment(cfg)
        assert not os.path.exists(os.path.join(out, "metrics.csv"))


class TestCli:
    def test_gen_data_and_eval(self, tmp_path):
        corpus = os.path.join(tmp_path, "c.jsonl")
        assert main(["gen-data", "--task", "copy", "--n", "3", "--min-len", "3",
                     "--max-len", "4", "--out", corpus]) == 0
        out = os.path.join(tmp_path, "run")
        code = main(["eval", "--dataset", corpus, "--out", out, "--eval-k", "1",
                     "--config", _write_cfg(tmp_path, "epochs = 0\n")])
        assert code == 0
        assert os.path.exists(os.path.join(out, "summary.csv"))

    def test_mask_dump_round_trip(self, tmp_path):
        out = os.path.join(tmp_path, "mask.txt")
        assert main(["mask-dump", "--layout", "1,4,1,4", "--k", "1",
                     "--out", out]) == 0
        mask, desc = ascii_to_mask(open(out).read())
        assert desc == "wait-1"
        assert hidden_beyond_causal(mask) == {
            (5, 2), (5, 3), (5, 4), (6, 3), (6, 4), (7, 4)}
        # a read table: two sources for the first two targets, then all
        assert main(["mask-dump", "--layout", "1,4,1,4", "--policy",
                     "2,2,4,4", "--out", out]) == 0
        mask, desc = ascii_to_mask(open(out).read())
        assert desc == "table-2,2,4,4"
        assert hidden_beyond_causal(mask) == {(5, 3), (5, 4), (6, 3), (6, 4)}
        # a table shorter than the targets is a config error
        short = os.path.join(tmp_path, "short.txt")
        assert main(["mask-dump", "--layout", "1,4,1,4", "--policy", "1,2,3",
                     "--out", short]) == 2
        assert not os.path.exists(short)

    def test_causal_mask_dump(self, tmp_path):
        out = os.path.join(tmp_path, "mask.txt")
        assert main(["mask-dump", "--layout", "1,2,1,2", "--causal",
                     "--out", out]) == 0
        mask, _ = ascii_to_mask(open(out).read())
        assert hidden_beyond_causal(mask) == set()
        assert np.array_equal(mask.visible, np.tril(np.ones((6, 6), bool)))

    def test_bias_dump(self, tmp_path):
        out = os.path.join(tmp_path, "bias.csv")
        assert main(["bias-dump", "--layout", "1,4,1,4", "--k", "1",
                     "--slope", "1.0", "--out", out]) == 0
        lines = open(out).read().splitlines()
        assert lines[0] == "row,col,bias"

    @pytest.mark.parametrize("slope", ["nan", "inf"])
    def test_non_finite_slope_is_config_error(self, tmp_path, slope):
        out = os.path.join(tmp_path, "bias.csv")
        assert main(["bias-dump", "--layout", "1,3,1,3", "--slope", slope,
                     "--out", out]) == 2
        assert not os.path.exists(out)

    @pytest.mark.parametrize("argv", [
        ["bias-dump", "--layout", "1,a,1,3"],
        ["mask-dump", "--layout", "1,3,1,"],
        ["mask-dump", "--layout", "1,3,1,3", "--policy", "1,x"],
        ["bias-dump", "--layout", "1,3,1,3", "--policy", "1,2.5,3"],
    ])
    def test_malformed_integers_are_config_errors(self, tmp_path, argv):
        out = os.path.join(tmp_path, "dump")
        assert main(argv + ["--out", out]) == 2
        assert not os.path.exists(out)

    def test_config_error_exit_code(self, tmp_path):
        code = main(["eval", "--config", _write_cfg(tmp_path, "junk_key = 1\n")])
        assert code == 2

    @pytest.mark.parametrize("text", ["seed = -1\n", "model_seed = -1\n"])
    def test_negative_seed_is_config_error(self, corpus_path, tmp_path, text):
        out = os.path.join(tmp_path, "run")
        assert main(["eval", "--dataset", corpus_path, "--out", out,
                     "--eval-k", "1", "--config",
                     _write_cfg(tmp_path, "epochs = 0\n" + text)]) == 2
        assert not os.path.exists(out)

    def test_gen_data_negative_seed_is_config_error(self, tmp_path):
        out = os.path.join(tmp_path, "c.jsonl")
        assert main(["gen-data", "--task", "copy", "--n", "2", "--min-len",
                     "3", "--max-len", "4", "--seed", "-1", "--out", out]) == 2
        assert not os.path.exists(out)

    def test_data_error_exit_code(self, tmp_path):
        code = main(["eval", "--dataset", os.path.join(tmp_path, "nope.jsonl"),
                     "--out", os.path.join(tmp_path, "o")])
        assert code == 3

    @pytest.mark.parametrize("source", ['"abc"', "[1e400]", "[4.7, 5]"])
    def test_non_integer_token_ids_exit_code(self, tmp_path, source):
        corpus = os.path.join(tmp_path, "c.jsonl")
        with open(corpus, "w") as fh:
            fh.write(f'{{"source": {source}, "target": [4, 5]}}\n')
        out = os.path.join(tmp_path, "run")
        assert main(["flops-report", "--dataset", corpus, "--out", out,
                     "--eval-k", "1"]) == 3
        assert not os.path.exists(os.path.join(out, "flops_report.csv"))

    def test_numeric_error_exit_code(self, tmp_path):
        corpus = os.path.join(tmp_path, "c.jsonl")
        save_corpus(corpus, gen_synthetic("copy", 2, 3, 4, 24, 0))
        params = init_model(ModelConfig(vocab_size=24))
        ckpt = os.path.join(tmp_path, "nan.bin")
        save_params(params.with_tensors(dict(
            params.tensors(), w_out=np.full_like(params.w_out, np.nan))), ckpt)
        out = os.path.join(tmp_path, "run")
        assert main(["eval", "--dataset", corpus, "--checkpoint", ckpt,
                     "--out", out, "--eval-k", "1"]) == 4
        assert not os.path.exists(os.path.join(out, "metrics.csv"))

    @pytest.mark.parametrize("argv", [
        ["gen-data", "--task", "copy", "--n", "2", "--min-len", "3",
         "--max-len", "4"],
        ["mask-dump", "--layout", "1,4,1,4"],
        ["bias-dump", "--layout", "1,4,1,4"],
    ])
    def test_unwritable_out_is_config_error(self, tmp_path, capsys, argv):
        missing_dir = os.path.join(tmp_path, "missing")
        assert main(argv + ["--out", os.path.join(missing_dir, "x")]) == 2
        assert "config error" in capsys.readouterr().err
        # a directory in the way fails the open too, and is left alone
        assert main(argv + ["--out", str(tmp_path)]) == 2
        assert os.listdir(tmp_path) == []

    def test_write_cut_short_leaves_no_file(self, tmp_path):
        path = os.path.join(tmp_path, "out.txt")
        with pytest.raises(UnicodeEncodeError):
            _write_out(path, "row\ud800")  # a lone surrogate fails to encode
        assert not os.path.exists(path)

    @pytest.mark.parametrize("command",
                             ["train", "eval", "compare", "flops-report"])
    def test_missing_dataset_is_config_error(self, tmp_path, capsys, command):
        out = os.path.join(tmp_path, "o")
        assert main([command, "--out", out]) == 2
        assert capsys.readouterr().err == (
            "config error: a dataset is required (--dataset or config)\n")
        assert not os.path.exists(out)

    @pytest.mark.parametrize("rate", ["nan", "inf"])
    def test_non_finite_learning_rate_is_config_error(self, tmp_path, rate):
        # one layout, one batch, one step: the update is the last thing the
        # run does, so a NaN step would reach the checkpoint unnoticed
        corpus = os.path.join(tmp_path, "c.jsonl")
        save_corpus(corpus, gen_synthetic("shift(2)", 5, 7, 7, 24, 0))
        out = os.path.join(tmp_path, "run")
        cfg = _write_cfg(tmp_path, f"epochs = 1\nlearning_rate = {rate}\n")
        assert main(["train", "--dataset", corpus, "--out", out,
                     "--config", cfg]) == 2
        assert not os.path.exists(os.path.join(out, "params.bin"))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_update_is_numeric_error(self, tmp_path, capsys):
        # a finite learning rate whose one, last update overflows float32:
        # reported by its NumericError alone, with no numpy warning
        corpus = os.path.join(tmp_path, "c.jsonl")
        save_corpus(corpus, gen_synthetic("shift(2)", 5, 5, 5, 24, 0))
        out = os.path.join(tmp_path, "run")
        cfg = _write_cfg(tmp_path, "epochs = 1\nlearning_rate = 1e40\n")
        assert main(["train", "--dataset", corpus, "--out", out,
                     "--config", cfg]) == 4
        assert "numeric error: non-finite" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out, "params.bin"))

    def test_failed_train_leaves_no_checkpoint(self, corpus_path, tmp_path,
                                               capsys):
        # a directory takes an output's name, so opening that output fails:
        # a config error, after which no file of the run is left (no
        # params.bin in particular), and the directory is left alone
        cfg = _write_cfg(tmp_path, "epochs = 0\n")
        for command, blocked in [("train", "loss_curve.csv"),
                                 ("train", "params.bin"),
                                 ("eval", "summary.csv"),
                                 ("flops-report", "flops_report.csv")]:
            out = os.path.join(tmp_path, f"{command}-{blocked}")
            os.makedirs(os.path.join(out, blocked))
            assert main([command, "--dataset", corpus_path, "--out", out,
                         "--config", cfg]) == 2, (command, blocked)
            assert "config error" in capsys.readouterr().err
            assert os.listdir(out) == [blocked]
            assert os.path.isdir(os.path.join(out, blocked))

    def test_flops_report(self, tmp_path, monkeypatch):
        # every row equals the report of one cached and one recompute
        # generation of its sentence, though the command generates each
        # sentence once, cached: it runs no full forward, and it works out
        # no latency or quality, which the report does not hold
        pairs = gen_synthetic("shift(2)", 5, 3, 7, 24, 0)
        assert len({len(p.source) for p in pairs}) > 1
        corpus = os.path.join(tmp_path, "c.jsonl")
        save_corpus(corpus, pairs)
        config = build_config({}, {})
        params = init_model(config.model_config())
        flop_model = FlopModel(params.config)
        expected = ["sentence_id,k_or_chunk,seq_len,cached_total,"
                    "recompute_recompute"]

        def generate(pair, kind):
            mode = GenerationMode(kind)
            _, trace = evaluate_sentence(params, pair, 2, mode,
                                         config.max_target_len)
            return trace, flops_generate(trace, flop_model, mode)

        for sid, pair in enumerate(pairs):
            trace, cached = generate(pair, "cached")
            _, rebuilt = generate(pair, "recompute")
            assert rebuilt.initial == cached.total
            assert rebuilt.recompute > 0
            seq_len = trace.total_reads() + len(trace.writes())
            expected.append(f"{sid},2,{seq_len},{cached.total},"
                            f"{rebuilt.recompute}")
        full_calls = []
        real = engine.forward_full
        monkeypatch.setattr(engine, "forward_full", lambda *args, **kw: (
            full_calls.append(args) or real(*args, **kw)))

        def unused(*args):
            raise AssertionError("flops-report computed what it discards")
        monkeypatch.setattr(experiment, "laal", unused)
        monkeypatch.setattr(experiment, "quality_proxy", unused)
        out = os.path.join(tmp_path, "run")
        assert main(["flops-report", "--dataset", corpus, "--out", out,
                     "--eval-k", "2"]) == 0
        assert full_calls == []
        lines = open(os.path.join(out, "flops_report.csv")).read().splitlines()
        assert lines == expected

    def test_compare(self, tmp_path):
        # each row holds the means over its own mode's and scheme's
        # generations; cached and recompute emit the same tokens, so they
        # agree on everything but the cost, which recompute exceeds
        pairs = gen_synthetic("copy", 3, 3, 6, 24, 0)
        corpus = os.path.join(tmp_path, "c.jsonl")
        save_corpus(corpus, pairs)
        out = os.path.join(tmp_path, "run")
        cfg = _write_cfg(tmp_path, "epochs = 0\nmax_target_len = 8\n")
        assert main(["compare", "--dataset", corpus, "--out", out,
                     "--eval-k", "1", "--eval-k", "3", "--config", cfg]) == 0
        lines = open(os.path.join(out, "compare.csv")).read().splitlines()
        assert lines[0] == ("k_or_chunk,mode,bias_scheme,mean_laal,token_acc,"
                            "exact_match,mean_flops_total")
        rows = {tuple(ln.split(",")[:3]): [float(v) for v in ln.split(",")[3:]]
                for ln in lines[1:]}
        assert list(rows) == [(k, kind, scheme) for k in ("1", "3")
                              for kind, scheme in (("cached", "rank"),
                                                   ("recompute", "rank"),
                                                   ("cached", "stale"))]
        params = init_model(build_config({}, {}).model_config())
        flop_model = FlopModel(params.config)
        refs = [list(p.target) for p in pairs]
        for (k, kind, scheme), row in rows.items():
            mode = GenerationMode(kind)
            runs = [evaluate_sentence(params, p, int(k), mode, 8, scheme)
                    for p in pairs]
            laals = [laal(trace, len(p.source) + 1, len(hyp), len(p.target))
                     for p, (hyp, trace) in zip(pairs, runs)]
            quality = quality_proxy([hyp for hyp, _ in runs], refs)
            totals = [flops_generate(trace, flop_model, mode).total
                      for _, trace in runs]
            assert row == [sum(laals) / len(laals), quality.token_accuracy,
                           quality.exact_match, sum(totals) / len(totals)]
        for k in ("1", "3"):
            cached = rows[k, "cached", "rank"]
            rebuilt = rows[k, "recompute", "rank"]
            assert cached[:3] == rebuilt[:3]
            assert rebuilt[3] > cached[3]


def _write_cfg(tmp_path, text):
    path = os.path.join(tmp_path, "cfg.txt")
    with open(path, "w") as fh:
        fh.write(text)
    return path


class TestCheckpointConfig:
    """A loaded checkpoint's own config sets the vocabulary check, the
    FLOP accounting and the bias dump's head count."""

    def _checkpoint(self, tmp_path, **config):
        path = os.path.join(tmp_path, "ckpt.bin")
        save_params(init_model(ModelConfig(**config)), path)
        return path

    @pytest.mark.parametrize("command, names", [
        ("eval", ["metrics.csv", "bias_k1.csv"]),
        ("compare", ["compare.csv"]),
    ])
    def test_checkpoint_config_sets_flops_and_heads(self, corpus_path,
                                                    tmp_path, command, names):
        # a 1-layer, 8-head checkpoint under the default 2-layer, 4-head
        # config writes what it writes under a config matching it
        ckpt = self._checkpoint(tmp_path, n_layers=1, n_heads=8)
        outs = {}
        for name, text in (("default", "epochs = 0\n"),
                           ("matching", "epochs = 0\nn_layers = 1\n"
                                        "n_heads = 8\n")):
            outs[name] = os.path.join(tmp_path, name)
            cfg = os.path.join(tmp_path, f"{name}.cfg")
            with open(cfg, "w") as fh:
                fh.write(text)
            assert main([command, "--dataset", corpus_path, "--checkpoint",
                         ckpt, "--out", outs[name], "--eval-k", "1",
                         "--config", cfg]) == 0
        for name in names:
            assert filecmp.cmp(os.path.join(outs["default"], name),
                               os.path.join(outs["matching"], name),
                               shallow=False), name

    @pytest.mark.parametrize("edit", [
        {"d_model": 64.0}, {"n_layers": True}, {"n_heads": 3}])
    def test_bad_header_config_is_data_error(self, corpus_path, tmp_path,
                                             edit):
        ckpt = self._checkpoint(tmp_path)
        rewrite_checkpoint(ckpt, lambda h: h["config"].update(edit))
        out = os.path.join(tmp_path, "run")
        assert main(["eval", "--dataset", corpus_path, "--checkpoint", ckpt,
                     "--out", out, "--eval-k", "1"]) == 3
        assert not os.path.exists(os.path.join(out, "metrics.csv"))

    @pytest.fixture
    def wide_corpus(self, tmp_path):
        # id 35 fits a 48-token config but not the 24-token checkpoint
        path = os.path.join(tmp_path, "wide.jsonl")
        with open(path, "w") as fh:
            fh.write('{"source": [4, 35, 6], "target": [7, 8]}\n')
        return path

    def test_train_init_checkpoint_vocab_is_checked(self, tmp_path,
                                                    wide_corpus, capsys):
        ckpt = self._checkpoint(tmp_path, vocab_size=24)
        out = os.path.join(tmp_path, "run")
        assert main(["train", "--dataset", wide_corpus, "--init-checkpoint",
                     ckpt, "--out", out, "--config",
                     _write_cfg(tmp_path, "vocab_size = 48\nepochs = 1\n")]) == 3
        assert "vocabulary of size 24" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out, "params.bin"))

    def test_eval_checkpoint_vocab_is_checked(self, tmp_path, wide_corpus,
                                              capsys):
        ckpt = self._checkpoint(tmp_path, vocab_size=24)
        out = os.path.join(tmp_path, "run")
        assert main(["eval", "--dataset", wide_corpus, "--checkpoint", ckpt,
                     "--out", out, "--eval-k", "1", "--config",
                     _write_cfg(tmp_path, "vocab_size = 48\n")]) == 3
        assert "vocabulary of size 24" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out, "metrics.csv"))


def _walkthrough_commands():
    """The commands of README.md's CLI walkthrough, one argv each."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    text = open(readme, encoding="utf-8").read()
    block = text.split("## CLI walkthrough", 1)[1].split("```bash\n", 1)[1]
    block = block.split("```", 1)[0].replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("simulbench ")]


def test_readme_walkthrough_runs(tmp_path, monkeypatch):
    # each walkthrough command runs as written, with only --n reduced
    monkeypatch.chdir(tmp_path)
    commands = _walkthrough_commands()
    assert [argv[0] for argv in commands] == [
        "gen-data", "train", "eval", "mask-dump", "bias-dump", "compare"]
    for argv in commands:
        if "--n" in argv:
            argv[argv.index("--n") + 1] = "12"
        assert main(argv) == 0, argv
