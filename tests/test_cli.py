import argparse
import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pnma.analysis import read_eval_report
from pnma.checkpoint import load_model
from pnma.cli import build_parser, dispatch
from pnma.config import load_run_config
from pnma.training import train_base, train_pnma


def run(*argv):
    return dispatch(list(argv))


class TestDispatchBasics:
    def test_help_exits_zero(self, capsys):
        assert run("--help") == 0
        out = capsys.readouterr().out
        for sub in ("prepare", "train-base", "build-memory", "train-pnma",
                    "predict", "evaluate", "analyze", "gen-synthetic"):
            assert sub in out

    def test_unknown_subcommand_usage_error(self, capsys):
        assert run("frobnicate") == 1

    def test_no_subcommand_usage_error(self):
        assert run() == 1

    def test_missing_required_flag_usage_error(self):
        assert run("prepare") == 1

    @staticmethod
    def train_base_with_config(tmp_path, capsys, text: str) -> int:
        (tmp_path / "run.cfg").write_text(text, encoding="utf-8")
        (tmp_path / "c.conll").write_text("a 1 B-V\n", encoding="utf-8")
        assert run("prepare", "--train", str(tmp_path / "c.conll"),
                   "--out", str(tmp_path / "v.txt")) == 0
        capsys.readouterr()
        return run("train-base", "--config", str(tmp_path / "run.cfg"), "--epochs", "0",
                   "--train", str(tmp_path / "c.conll"), "--vocab", str(tmp_path / "v.txt"),
                   "--out", str(tmp_path / "m.ckpt"))

    def test_unknown_config_key_exits_two(self, tmp_path, capsys):
        code = self.train_base_with_config(tmp_path, capsys, "epochs = 3\nwibble = 9\n")
        assert code == 2
        assert "wibble" in capsys.readouterr().err

    def test_version_line_in_config_exits_two(self, tmp_path, capsys):
        code = self.train_base_with_config(tmp_path, capsys, "format_version = 7\nepochs = 2\n")
        assert_one_line_error(code, capsys.readouterr().err,
                              f"{tmp_path / 'run.cfg'}:1: unknown config key 'format_version'")
        assert not (tmp_path / "m.ckpt").exists()

    def test_missing_file_exits_two(self):
        assert run("prepare", "--train", "/nonexistent/x.conll", "--out", "/tmp/v") == 2


TOY_CORPUS = "# id: s1\nthe 0 O\ncat 1 B-V\n\n# id: s2\ndog 1 B-V\n"
TOY_CONFIG = (
    "epochs = 1\nbatch_size = 2\nbase_lr = 0.001\n"
    "d_word = 4\nd_pred = 2\nd_hidden = 4\nn_layers = 1\ndropout_embed = 0.1\nseed = 3\n"
)
TOY_EMBEDDINGS = "s1 0 0.5 -0.25\ns1 1 1.75 0.125\ns2 0 0.75 1.5\n"


def test_repeated_sentence_id_exits_two(tmp_path, capsys):
    corpus = tmp_path / "c.conll"
    corpus.write_text(TOY_CORPUS + "\n# id: s1\nbird 1 B-V\n", encoding="utf-8")
    assert run("prepare", "--train", str(corpus), "--out", str(tmp_path / "v.txt")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "c.conll:8: sentence id 's1'" in err
    assert "first used at line 1" in err


# each train-base config flag, its TrainConfig field, and a value that neither
# TOY_CONFIG nor the defaults give
CONFIG_FLAG_VALUES = [
    ("--seed", "seed", "7"), ("--epochs", "epochs", "2"),
    ("--phase2-epochs", "phase2_epochs", "3"), ("--batch-size", "batch_size", "5"),
    ("--k", "k_neighbors", "9"),
    ("--memory-fraction", "memory_fraction", "0.25"), ("--base-lr", "base_lr", "0.002"),
    ("--phase2-lr", "phase2_lr", "0.0005"), ("--d-word", "d_word", "5"),
    ("--d-hidden", "d_hidden", "6"), ("--n-layers", "n_layers", "2"),
    ("--dropout-embed", "dropout_embed", "0.2"), ("--dropout-layer", "dropout_layer", "0.3"),
    ("--scheme", "scheme", "per-token-role"),
    ("--neighborhood-mode", "neighborhood_mode", "shared"),
]


@pytest.mark.parametrize("flag, field, raw", CONFIG_FLAG_VALUES,
                         ids=[f[0] for f in CONFIG_FLAG_VALUES])
def test_config_flag_overrides_its_field(tmp_path, monkeypatch, flag, field, raw):
    from pnma import cli

    configs = []

    def recording_train_base(train, valid, vocab, config, **kwargs):
        configs.append(config)
        return train_base(train, valid, vocab, config, **kwargs)

    monkeypatch.setattr(cli, "train_base", recording_train_base)
    (tmp_path / "c.conll").write_text(TOY_CORPUS, encoding="utf-8")
    (tmp_path / "run.cfg").write_text(TOY_CONFIG, encoding="utf-8")
    assert run("prepare", "--train", str(tmp_path / "c.conll"), "--out",
               str(tmp_path / "v.txt"), "--min-frequency", "1") == 0
    unflagged = load_run_config(str(tmp_path / "run.cfg"))
    want = type(getattr(unflagged, field))(raw)
    assert getattr(unflagged, field) != want
    ckpt = str(tmp_path / "m.ckpt")
    assert run("train-base", "--config", str(tmp_path / "run.cfg"), flag, raw,
               "--train", str(tmp_path / "c.conll"), "--vocab", str(tmp_path / "v.txt"),
               "--out", ckpt) == 0
    assert [getattr(c, field) for c in configs] == [want]
    assert getattr(load_model(ckpt).config, field) == want


@pytest.fixture(scope="module")
def toy_base(tmp_path_factory):
    """A toy base checkpoint, its vocabulary and a whole-corpus memory."""
    root = tmp_path_factory.mktemp("toy_base")
    (root / "c.conll").write_text(TOY_CORPUS, encoding="utf-8")
    (root / "run.cfg").write_text(TOY_CONFIG + "k_neighbors = 2\nphase2_epochs = 1\n",
                                  encoding="utf-8")
    path = {name: str(root / name) for name in ("c.conll", "run.cfg", "v.txt", "m.ckpt",
                                                "mem.bin")}
    for step in [
        ("prepare", "--train", path["c.conll"], "--out", path["v.txt"], "--min-frequency", "1"),
        ("train-base", "--config", path["run.cfg"], "--train", path["c.conll"],
         "--vocab", path["v.txt"], "--out", path["m.ckpt"]),
        ("build-memory", "--checkpoint", path["m.ckpt"], "--train", path["c.conll"],
         "--vocab", path["v.txt"], "--out", path["mem.bin"], "--fraction", "1.0"),
    ]:
        assert run(*step) == 0, step[0]
    return path


# each train-pnma flag, its TrainConfig field, and a value that the toy base
# checkpoint's config does not hold
PNMA_FLAG_VALUES = [
    ("--seed", "seed", "7"), ("--batch-size", "batch_size", "5"), ("--threads", "threads", "2"),
    ("--k", "k_neighbors", "1"), ("--phase2-epochs", "phase2_epochs", "2"),
    ("--phase2-lr", "phase2_lr", "0.0005"), ("--scheme", "scheme", "per-token-role"),
    ("--neighborhood-mode", "neighborhood_mode", "shared"),
]


@pytest.mark.parametrize("flag, field, raw", PNMA_FLAG_VALUES,
                         ids=[f[0] for f in PNMA_FLAG_VALUES])
def test_pnma_flag_overrides_the_inherited_field(toy_base, tmp_path, monkeypatch, flag,
                                                 field, raw):
    # train-pnma runs on its base checkpoint's config with this one field
    # changed, which the adapted checkpoint echoes (threads is never echoed)
    from pnma import cli

    configs = []

    def recording_train_pnma(*args, **kwargs):
        configs.append(args[-1])
        return train_pnma(*args, **kwargs)

    monkeypatch.setattr(cli, "train_pnma", recording_train_pnma)
    inherited = load_model(toy_base["m.ckpt"]).config
    want = dataclasses.replace(inherited, **{field: type(getattr(inherited, field))(raw)})
    assert getattr(want, field) != getattr(inherited, field)
    out = str(tmp_path / "p.ckpt")
    assert run("train-pnma", "--checkpoint", toy_base["m.ckpt"], "--memory", toy_base["mem.bin"],
               "--train", toy_base["c.conll"], "--vocab", toy_base["v.txt"], "--out", out,
               flag, raw) == 0
    assert configs == [want]
    assert load_model(out).config.to_echo() == want.to_echo()


def mutated(data, text: str) -> bytes:
    """``text`` truncated, then with up to four short runs of arbitrary bytes
    written over it: any of them may be non-UTF-8."""
    body = bytearray(text.encode("utf-8"))
    body = body[: data.draw(st.integers(0, len(body)))]
    for _ in range(data.draw(st.integers(0, 4))):
        at = data.draw(st.integers(0, len(body)))
        body[at : at + 2] = data.draw(st.binary(min_size=1, max_size=2))
    return bytes(body)


def assert_ok_or_one_line_error(code: int, err: str) -> None:
    assert code in (0, 2), err
    lines = [line for line in err.splitlines() if not line.startswith("config: using defaults")]
    if code == 2:
        assert len(lines) == 1 and lines[0].startswith("error: "), err


class TestTextInputFuzz:
    """Truncated, byte-mutated and non-UTF-8 text inputs: exit 0, or exit 2
    with a one-line message, never a traceback."""

    @pytest.fixture
    def toy(self, tmp_path):
        (tmp_path / "c.conll").write_text(TOY_CORPUS, encoding="utf-8")
        assert run("prepare", "--train", str(tmp_path / "c.conll"), "--out",
                   str(tmp_path / "v.txt"), "--min-frequency", "1") == 0
        return tmp_path

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_config_file(self, toy, capsys, data):
        # zero epochs: the reader and the key checks decide the outcome
        (toy / "run.cfg").write_bytes(mutated(data, TOY_CONFIG))
        capsys.readouterr()
        code = run("train-base", "--config", str(toy / "run.cfg"), "--epochs", "0",
                   "--train", str(toy / "c.conll"), "--vocab", str(toy / "v.txt"),
                   "--out", str(toy / "m.ckpt"))
        assert_ok_or_one_line_error(code, capsys.readouterr().err)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_embeddings_file(self, toy, capsys, data):
        # zero epochs: the reader and the coverage check decide the outcome
        (toy / "run.cfg").write_text(TOY_CONFIG, encoding="utf-8")
        (toy / "emb.txt").write_bytes(mutated(data, TOY_EMBEDDINGS))
        capsys.readouterr()
        code = run("train-base", "--config", str(toy / "run.cfg"), "--epochs", "0",
                   "--train", str(toy / "c.conll"), "--vocab", str(toy / "v.txt"),
                   "--embeddings", str(toy / "emb.txt"), "--out", str(toy / "m.ckpt"))
        assert_ok_or_one_line_error(code, capsys.readouterr().err)

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_corpus_file(self, toy, capsys, data):
        # both commands read a corpus through parse_conll_file
        (toy / "m.conll").write_bytes(mutated(data, TOY_CORPUS))
        capsys.readouterr()
        code = run("prepare", "--train", str(toy / "m.conll"), "--out", str(toy / "v2.txt"))
        assert_ok_or_one_line_error(code, capsys.readouterr().err)
        code = run("evaluate", "--gold", str(toy / "c.conll"), "--pred", str(toy / "m.conll"),
                   "--out", str(toy / "e.tsv"))
        assert_ok_or_one_line_error(code, capsys.readouterr().err)

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_vocabulary_file(self, toy, capsys, data):
        (toy / "run.cfg").write_text(TOY_CONFIG, encoding="utf-8")
        (toy / "mv.txt").write_bytes(mutated(data, (toy / "v.txt").read_text(encoding="utf-8")))
        capsys.readouterr()
        code = run("train-base", "--config", str(toy / "run.cfg"), "--epochs", "0",
                   "--train", str(toy / "c.conll"), "--vocab", str(toy / "mv.txt"),
                   "--out", str(toy / "m.ckpt"))
        assert_ok_or_one_line_error(code, capsys.readouterr().err)

    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(name=st.sampled_from(["seed", "batch_size", "n_layers", "d_word", "d_pred",
                                 "d_hidden", "k_neighbors", "threads", "epochs"]),
           value=st.integers(-3, 4))
    def test_integer_config_key(self, toy, capsys, name, value):
        # one training epoch, so the batch size and every dimension are used
        (toy / "run.cfg").write_text(TOY_CONFIG + f"{name} = {value}\n", encoding="utf-8")
        capsys.readouterr()
        code = run("train-base", "--config", str(toy / "run.cfg"),
                   "--train", str(toy / "c.conll"), "--vocab", str(toy / "v.txt"),
                   "--out", str(toy / "m.ckpt"))
        assert_ok_or_one_line_error(code, capsys.readouterr().err)

    @pytest.mark.parametrize("flag", ["--seed", "--batch-size", "--n-layers"])
    def test_out_of_range_integer_flag_exits_two(self, toy, capsys, flag):
        (toy / "run.cfg").write_text(TOY_CONFIG, encoding="utf-8")
        code = run("train-base", "--config", str(toy / "run.cfg"), flag, "-1",
                   "--train", str(toy / "c.conll"), "--vocab", str(toy / "v.txt"),
                   "--out", str(toy / "m.ckpt"))
        assert code == 2
        assert flag[2:].replace("-", "_") + " must be at least" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "4e38", "0.5x"])
    def test_bad_embedding_value_exits_two(self, toy, capsys, value):
        (toy / "run.cfg").write_text(TOY_CONFIG, encoding="utf-8")
        (toy / "emb.txt").write_text(TOY_EMBEDDINGS.replace("1.75", value), encoding="utf-8")
        code = run("train-base", "--config", str(toy / "run.cfg"),
                   "--train", str(toy / "c.conll"), "--vocab", str(toy / "v.txt"),
                   "--embeddings", str(toy / "emb.txt"), "--out", str(toy / "m.ckpt"))
        assert code == 2
        assert "emb.txt:2:" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["epochs = 1e400", "epochs = abc", "base_lr = nan"])
    def test_bad_config_value_exits_two(self, toy, capsys, line):
        (toy / "run.cfg").write_text(line + "\n", encoding="utf-8")
        code = run("train-base", "--config", str(toy / "run.cfg"), "--epochs", "0",
                   "--train", str(toy / "c.conll"), "--vocab", str(toy / "v.txt"),
                   "--out", str(toy / "m.ckpt"))
        assert code == 2
        assert line.split()[0] in capsys.readouterr().err
        assert not (toy / "m.ckpt").exists()


class TestGenSyntheticCommand:
    def test_deterministic_outputs(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for d in (d1, d2):
            assert run(
                "gen-synthetic", "--out-dir", str(d), "--train-size", "30",
                "--valid-size", "10", "--test-size", "10",
                "--exception-rate", "0.1", "--seed", "5",
            ) == 0
        assert (d1 / "train.conll").read_bytes() == (d2 / "train.conll").read_bytes()


@pytest.fixture(scope="module")
def smoke_chain(tmp_path_factory):
    """gen-synthetic -> prepare -> train-base -> build-memory -> train-pnma
    -> predict -> evaluate, at toy scale."""
    root = tmp_path_factory.mktemp("chain")
    data = root / "data"
    args = dict(
        data=str(data),
        vocab=str(root / "vocab.txt"),
        base=str(root / "base.ckpt"),
        memory=str(root / "mem.bin"),
        pnma=str(root / "pnma.ckpt"),
        base_preds=str(root / "base_preds.conll"),
        pnma_preds=str(root / "pnma_preds.conll"),
        base_eval=str(root / "base_eval.tsv"),
        pnma_eval=str(root / "pnma_eval.tsv"),
    )
    cfg = root / "run.cfg"
    cfg.write_text(
        "epochs = 4\n"
        "batch_size = 16\n"
        "d_word = 12\n"
        "d_pred = 8\n"
        "d_hidden = 16\n"
        "n_layers = 2\n"
        "k_neighbors = 8\n"
        "memory_fraction = 0.5\n"
        "phase2_epochs = 3\n"
        "dropout_embed = 0.2\n"
        "dropout_layer = 0.05\n"
        "seed = 3\n",
        encoding="utf-8",
    )
    args["cfg"] = str(cfg)
    steps = [
        ("gen-synthetic", "--out-dir", args["data"], "--train-size", "80",
         "--valid-size", "20", "--test-size", "20", "--exception-rate", "0.1",
         "--seed", "11"),
        ("prepare", "--train", f"{args['data']}/train.conll", "--out", args["vocab"]),
        ("train-base", "--config", args["cfg"],
         "--train", f"{args['data']}/train.conll",
         "--valid", f"{args['data']}/valid.conll",
         "--vocab", args["vocab"], "--out", args["base"]),
        ("build-memory", "--checkpoint", args["base"],
         "--train", f"{args['data']}/train.conll", "--vocab", args["vocab"],
         "--out", args["memory"], "--fraction", "0.5", "--seed", "3"),
        ("train-pnma", "--checkpoint", args["base"], "--memory", args["memory"],
         "--train", f"{args['data']}/train.conll",
         "--valid", f"{args['data']}/valid.conll",
         "--vocab", args["vocab"], "--out", args["pnma"]),
        ("predict", "--checkpoint", args["base"],
         "--input", f"{args['data']}/test.conll", "--vocab", args["vocab"],
         "--out", args["base_preds"]),
        ("predict", "--checkpoint", args["pnma"], "--memory", args["memory"],
         "--input", f"{args['data']}/test.conll", "--vocab", args["vocab"],
         "--out", args["pnma_preds"]),
        ("evaluate", "--gold", f"{args['data']}/test.conll",
         "--pred", args["base_preds"], "--out", args["base_eval"]),
        ("evaluate", "--gold", f"{args['data']}/test.conll",
         "--pred", args["pnma_preds"], "--out", args["pnma_eval"]),
    ]
    for step in steps:
        code = run(*step)
        assert code == 0, f"step {step[0]} exited {code}"
    return args


class TestSmokeChain:
    def test_produces_eval_reports(self, smoke_chain):
        report = read_eval_report(smoke_chain["pnma_eval"])
        assert 0.0 <= report.f1 <= 1.0
        assert report.scheme == "bio-span"

    def test_training_logs_written(self, smoke_chain):
        log = open(smoke_chain["base"] + ".log").read().splitlines()
        assert len(log) == 4
        assert all(len(line.split("\t")) == 6 for line in log)

    def test_pnma_checkpoint_contains_neighborhood(self, smoke_chain):
        from pnma.checkpoint import load_model

        model = load_model(smoke_chain["pnma"])
        assert model.nbr is not None
        assert model.nbr.n.shape == (8, 16)

    def test_freeze_contract_on_files(self, smoke_chain):
        from pnma.checkpoint import is_encoder_param, load_checkpoint

        base_params, _, _ = load_checkpoint(smoke_chain["base"])
        pnma_params, _, _ = load_checkpoint(smoke_chain["pnma"])
        for name, arr in base_params.items():
            if is_encoder_param(name):
                assert arr.tobytes() == pnma_params[name].tobytes(), name

    def test_predictions_parse_and_align(self, smoke_chain):
        from pnma.dataio import parse_conll_file

        gold = parse_conll_file(f"{smoke_chain['data']}/test.conll")
        preds = parse_conll_file(smoke_chain["pnma_preds"])
        assert [p.sentence_id for p in preds] == [g.sentence_id for g in gold]
        assert all(len(p) == len(g) for p, g in zip(preds, gold))

    def test_analyze_rank_dist(self, smoke_chain, tmp_path):
        out = str(tmp_path / "rank")
        code = run(
            "analyze", "rank-dist", "--checkpoint", smoke_chain["base"],
            "--memory", smoke_chain["memory"],
            "--input", f"{smoke_chain['data']}/valid.conll",
            "--vocab", smoke_chain["vocab"], "--out", out, "--k", "8",
        )
        assert code == 0
        lines = open(out + ".incorrect.tsv").read().splitlines()
        assert lines[0] == "rank\tnormalized_frequency"
        assert len(lines) == 10  # 8 ranks + absent + header

    @pytest.mark.parametrize("model, memory", [("base", None), ("pnma", "memory")])
    def test_predict_threads_equal_one_thread(self, smoke_chain, tmp_path, model, memory):
        from collections import Counter

        from pnma.dataio import parse_conll_file
        from pnma.memory import _QUERY_BLOCK

        corpus = f"{smoke_chain['data']}/train.conll"
        # some length group spans several K-NN query blocks, so threads get work
        lengths = Counter(len(inst) for inst in parse_conll_file(corpus))
        assert max(n * c for n, c in lengths.items()) > _QUERY_BLOCK
        extra = ("--memory", smoke_chain[memory]) if memory else ()
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}.conll"
            code = run(
                "predict", "--checkpoint", smoke_chain[model], "--input", corpus,
                "--vocab", smoke_chain["vocab"], "--out", str(out),
                "--threads", threads, *extra,
            )
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_analyze_rank_dist_threads_equal_one_thread(self, smoke_chain, tmp_path):
        outputs = {}
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            out.mkdir()
            code = run(
                "analyze", "rank-dist", "--checkpoint", smoke_chain["base"],
                "--memory", smoke_chain["memory"],
                "--input", f"{smoke_chain['data']}/valid.conll",
                "--vocab", smoke_chain["vocab"], "--out", str(out / "rank"), "--k", "8",
                "--exclude-self", "--threads", threads,
            )
            assert code == 0
            outputs[threads] = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
        assert outputs["1"] and outputs["1"] == outputs["2"]

    def test_analyze_confusion_diff(self, smoke_chain, tmp_path):
        out = str(tmp_path / "conf.tsv")
        code = run(
            "analyze", "confusion-diff", "--gold", f"{smoke_chain['data']}/test.conll",
            "--pred-a", smoke_chain["base_preds"], "--pred-b", smoke_chain["pnma_preds"],
            "--out", out, "--top-n", "6",
        )
        assert code == 0
        assert open(out).readline().startswith("label\t")

    def test_analyze_disagreement(self, smoke_chain, tmp_path):
        out = str(tmp_path / "dis.tsv")
        code = run(
            "analyze", "disagreement", "--gold", f"{smoke_chain['data']}/test.conll",
            "--pred-base", smoke_chain["base_preds"],
            "--pred-pnma", smoke_chain["pnma_preds"],
            "--train", f"{smoke_chain['data']}/train.conll", "--out", out,
        )
        assert code == 0
        text = open(out).read()
        assert text.startswith("scenario\tcount")
        assert "corrected_over_regressed" in text

    def test_analyze_neighbors(self, smoke_chain, tmp_path):
        from pnma.dataio import parse_conll_file

        out = str(tmp_path / "nbr.tsv")
        valid = parse_conll_file(f"{smoke_chain['data']}/valid.conll")
        code = run(
            "analyze", "neighbors", "--checkpoint", smoke_chain["base"],
            "--memory", smoke_chain["memory"],
            "--input", f"{smoke_chain['data']}/valid.conll",
            "--vocab", smoke_chain["vocab"],
            "--sources", f"{smoke_chain['data']}/train.conll",
            "--sentence-id", valid[0].sentence_id, "--token-index", "0",
            "--out", out, "--k", "5",
        )
        assert code == 0
        lines = open(out).read().splitlines()
        assert lines[0] == "rank\tlabel\tdistance\tcontext"
        assert len(lines) == 6

    def test_rerun_train_base_is_byte_identical(self, smoke_chain, tmp_path):
        out2 = str(tmp_path / "base2.ckpt")
        code = run(
            "train-base", "--config", smoke_chain["cfg"],
            "--train", f"{smoke_chain['data']}/train.conll",
            "--valid", f"{smoke_chain['data']}/valid.conll",
            "--vocab", smoke_chain["vocab"], "--out", out2,
        )
        assert code == 0
        assert open(smoke_chain["base"], "rb").read() == open(out2, "rb").read()
        assert open(smoke_chain["base"] + ".log").read() == open(out2 + ".log").read()

    def test_train_pnma_inherits_config_from_checkpoint(self, smoke_chain, tmp_path):
        out = str(tmp_path / "p2.ckpt")
        code = run(
            "train-pnma", "--checkpoint", smoke_chain["base"],
            "--memory", smoke_chain["memory"],
            "--train", f"{smoke_chain['data']}/train.conll",
            "--vocab", smoke_chain["vocab"], "--out", out,
            "--phase2-epochs", "1",
        )
        assert code == 0
        from pnma.checkpoint import load_model

        model = load_model(out)
        assert model.config.d_hidden == 16  # inherited from the base run
        assert model.config.phase2_epochs == 1  # flag override

    def test_train_pnma_inherited_config_is_validated(self, smoke_chain, tmp_path, capsys):
        code = run(
            "train-pnma", "--checkpoint", smoke_chain["base"],
            "--memory", smoke_chain["memory"],
            "--train", f"{smoke_chain['data']}/train.conll",
            "--vocab", smoke_chain["vocab"], "--out", str(tmp_path / "x.ckpt"),
            "--phase2-epochs", "-1",
        )
        assert_one_line_error(code, capsys.readouterr().err,
                              "phase2_epochs must be at least 0, got -1")
        assert not (tmp_path / "x.ckpt").exists()

    def test_train_pnma_digest_mismatch_exits_two(self, smoke_chain, tmp_path, capsys):
        # the adapted checkpoint is not the one the memory was built from
        code = run(
            "train-pnma", "--checkpoint", smoke_chain["pnma"],
            "--memory", smoke_chain["memory"],
            "--train", f"{smoke_chain['data']}/train.conll",
            "--vocab", smoke_chain["vocab"],
            "--out", str(tmp_path / "x.ckpt"), "--phase2-epochs", "1",
        )
        assert code == 2

    def test_predict_pnma_without_memory_is_config_error(self, smoke_chain, tmp_path):
        code = run(
            "predict", "--checkpoint", smoke_chain["pnma"],
            "--input", f"{smoke_chain['data']}/test.conll",
            "--vocab", smoke_chain["vocab"], "--out", str(tmp_path / "x.conll"),
        )
        assert code == 2


def assert_one_line_error(code: int, err: str, text: str) -> None:
    assert code == 2, err
    lines = [line for line in err.splitlines() if not line.startswith("config: using defaults")]
    assert len(lines) == 1 and lines[0].startswith("error: ") and text in lines[0], err


class TestArgumentLimits:
    """CLI arguments outside their domain exit 2 with one error line."""

    def train_base(self, chain, tmp_path, *extra):
        return run("train-base", "--config", chain["cfg"],
                   "--train", f"{chain['data']}/train.conll",
                   "--valid", f"{chain['data']}/valid.conll",
                   "--vocab", chain["vocab"], "--out", str(tmp_path / "b.ckpt"), *extra)

    def train_pnma(self, chain, tmp_path, *extra):
        return run("train-pnma", "--checkpoint", chain["base"],
                   "--memory", chain["memory"], "--train", f"{chain['data']}/train.conll",
                   "--valid", f"{chain['data']}/valid.conll",
                   "--vocab", chain["vocab"], "--out", str(tmp_path / "p.ckpt"), *extra)

    @pytest.mark.parametrize("command, flag", [("train_base", "--epochs"),
                                               ("train_pnma", "--phase2-epochs")])
    def test_negative_epochs_exit_two(self, smoke_chain, tmp_path, capsys, command, flag):
        code = getattr(self, command)(smoke_chain, tmp_path, flag, "-2")
        assert_one_line_error(code, capsys.readouterr().err, "must be at least 0, got -2")

    @pytest.mark.parametrize("command, flag", [("train_base", "--epochs"),
                                               ("train_pnma", "--phase2-epochs")])
    def test_zero_epochs_say_no_epoch_ran(self, smoke_chain, tmp_path, capsys, command, flag):
        assert getattr(self, command)(smoke_chain, tmp_path, flag, "0") == 0
        err = capsys.readouterr().err
        assert "no epoch ran" in err and "best epoch" not in err
        logs = list(tmp_path.glob("*.log"))
        assert len(logs) == 1 and logs[0].read_text(encoding="utf-8") == ""

    def test_gen_synthetic_negative_seed(self, tmp_path, capsys):
        code = run("gen-synthetic", "--out-dir", str(tmp_path / "d"), "--train-size", "5",
                   "--valid-size", "2", "--test-size", "2", "--seed", "-1")
        assert_one_line_error(code, capsys.readouterr().err, "seed must be at least 0, got -1")

    def test_build_memory_negative_seed(self, smoke_chain, tmp_path, capsys):
        code = run("build-memory", "--checkpoint", smoke_chain["base"],
                   "--train", f"{smoke_chain['data']}/train.conll",
                   "--vocab", smoke_chain["vocab"], "--out", str(tmp_path / "m.bin"),
                   "--seed", "-1")
        assert_one_line_error(code, capsys.readouterr().err, "seed must be at least 0, got -1")
        assert not (tmp_path / "m.bin").exists()

    @pytest.mark.parametrize("threads", ["0", "-3"])
    @pytest.mark.parametrize("command", ["predict", "rank-dist", "disagreement"])
    def test_threads_below_one(self, smoke_chain, tmp_path, capsys, command, threads):
        c = smoke_chain
        argv = {
            "predict": ("predict", "--checkpoint", c["pnma"], "--memory", c["memory"],
                        "--input", f"{c['data']}/test.conll", "--vocab", c["vocab"],
                        "--out", str(tmp_path / "x.conll")),
            "rank-dist": ("analyze", "rank-dist", "--checkpoint", c["base"],
                          "--memory", c["memory"], "--input", f"{c['data']}/valid.conll",
                          "--vocab", c["vocab"], "--out", str(tmp_path / "r"), "--k", "8"),
            "disagreement": ("analyze", "disagreement", "--gold", f"{c['data']}/test.conll",
                             "--pred-base", c["base_preds"], "--pred-pnma", c["pnma_preds"],
                             "--train", f"{c['data']}/train.conll",
                             "--out", str(tmp_path / "d.tsv")),
        }[command]
        code = run(*argv, "--threads", threads)
        assert_one_line_error(code, capsys.readouterr().err,
                              f"--threads must be at least 1, got {threads}")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("given", ["checkpoint", "memory"])
    def test_disagreement_needs_checkpoint_with_memory(self, smoke_chain, tmp_path, capsys,
                                                       given):
        c = smoke_chain
        code = run("analyze", "disagreement", "--gold", f"{c['data']}/test.conll",
                   "--pred-base", c["base_preds"], "--pred-pnma", c["pnma_preds"],
                   "--train", f"{c['data']}/train.conll", "--vocab", c["vocab"],
                   "--out", str(tmp_path / "d.tsv"),
                   f"--{given}", c["base"] if given == "checkpoint" else c["memory"])
        assert_one_line_error(code, capsys.readouterr().err,
                              "--checkpoint and --memory must be given together")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag", ["--vocab", "--k", "--embeddings", "--threads"])
    def test_disagreement_counts_neighbors_only_with_a_model(self, smoke_chain, tmp_path,
                                                             capsys, flag):
        c = smoke_chain
        value = {"--vocab": c["vocab"], "--k": "3", "--embeddings": "/nonexistent",
                 "--threads": "2"}[flag]
        code = run("analyze", "disagreement", "--gold", f"{c['data']}/test.conll",
                   "--pred-base", c["base_preds"], "--pred-pnma", c["pnma_preds"],
                   "--train", f"{c['data']}/train.conll", "--out", str(tmp_path / "d.tsv"),
                   flag, value)
        assert_one_line_error(code, capsys.readouterr().err,
                              f"{flag} counts neighbors, which needs --checkpoint and --memory")
        assert list(tmp_path.iterdir()) == []

    def test_analyze_neighbors_negative_window(self, smoke_chain, tmp_path, capsys):
        from pnma.dataio import parse_conll_file

        valid = parse_conll_file(f"{smoke_chain['data']}/valid.conll")
        code = run("analyze", "neighbors", "--checkpoint", smoke_chain["base"],
                   "--memory", smoke_chain["memory"],
                   "--input", f"{smoke_chain['data']}/valid.conll",
                   "--vocab", smoke_chain["vocab"],
                   "--sources", f"{smoke_chain['data']}/train.conll",
                   "--sentence-id", valid[0].sentence_id, "--token-index", "0",
                   "--out", str(tmp_path / "nbr.tsv"), "--k", "5", "--window", "-3")
        assert_one_line_error(code, capsys.readouterr().err,
                              "context window must be at least 0, got -3")
        assert not (tmp_path / "nbr.tsv").exists()

    @staticmethod
    def train_without_valid(chain, tmp_path, command, *extra):
        phase = {"train-base": ("--config", chain["cfg"], "--epochs", "2"),
                 "train-pnma": ("--checkpoint", chain["base"], "--memory", chain["memory"],
                                "--phase2-epochs", "2")}[command]
        return run(command, "--train", f"{chain['data']}/train.conll",
                   "--vocab", chain["vocab"], "--out", str(tmp_path / "x.ckpt"), *phase, *extra)

    @pytest.mark.parametrize("command", ["train-base", "train-pnma"])
    def test_empty_validation_file(self, smoke_chain, tmp_path, capsys, command):
        empty = tmp_path / "empty.conll"
        empty.write_text("", encoding="utf-8")
        code = self.train_without_valid(smoke_chain, tmp_path, command, "--valid", str(empty))
        assert_one_line_error(code, capsys.readouterr().err,
                              f"{command.replace('-', '_')}: empty validation set")
        assert not (tmp_path / "x.ckpt").exists()

    @pytest.mark.parametrize("command", ["train-base", "train-pnma"])
    def test_no_validation_says_last_epoch(self, smoke_chain, tmp_path, capsys, command):
        assert self.train_without_valid(smoke_chain, tmp_path, command) == 0
        err = capsys.readouterr().err
        assert "last epoch 2 (no validation data)" in err and "nan" not in err

    @pytest.mark.parametrize("flag, value, text", [
        ("--base-lr", "nan", "base_lr must be a finite number, got nan"),
        ("--base-lr", "inf", "base_lr must be a finite number, got inf"),
        ("--phase2-lr", "nan", "phase2_lr must be a finite number, got nan"),
        ("--phase2-lr", "inf", "phase2_lr must be a finite number, got inf"),
        ("--dropout-layer", "nan", "dropout_layer must be a finite number, got nan"),
        ("--memory-fraction", "nan", "memory_fraction must be a finite number, got nan"),
        ("--memory-fraction", "7", "memory_fraction must lie in (0, 1], got 7.0"),
        ("--memory-fraction", "0", "memory_fraction must lie in (0, 1], got 0.0"),
    ])
    @pytest.mark.parametrize("command", ["train_base", "train_pnma"])
    def test_float_flag_out_of_range(self, smoke_chain, tmp_path, capsys, command, flag,
                                     value, text):
        code = getattr(self, command)(smoke_chain, tmp_path, flag, value)
        if command == "train_pnma" and flag != "--phase2-lr":
            # phase 2 inherits this key from the base checkpoint, so it is no flag
            assert_one_line_usage_error(code, capsys.readouterr().err,
                                        f"unrecognized arguments: {flag}")
        else:
            assert_one_line_error(code, capsys.readouterr().err, text)
        assert not list(tmp_path.glob("*.ckpt"))

    @pytest.mark.parametrize("line, text", [
        ("memory_fraction = 7", "memory_fraction must lie in (0, 1], got 7.0"),
    ])
    def test_float_config_key_out_of_range(self, smoke_chain, tmp_path, capsys, line, text):
        cfg = tmp_path / "run.cfg"
        key = line.split("=")[0].strip()  # replaces the smoke config's line: a key is given once
        kept = [l for l in open(smoke_chain["cfg"]).read().splitlines(True) if not l.startswith(key)]
        cfg.write_text("".join(kept) + line + "\n", encoding="utf-8")
        code = run("train-base", "--config", str(cfg),
                   "--train", f"{smoke_chain['data']}/train.conll",
                   "--vocab", smoke_chain["vocab"], "--out", str(tmp_path / "b.ckpt"))
        assert_one_line_error(code, capsys.readouterr().err, text)
        assert not (tmp_path / "b.ckpt").exists()

    @pytest.mark.parametrize("command, epochs_flag, lr_flag", [
        ("train_base", "--epochs", "--base-lr"),
        ("train_pnma", "--phase2-epochs", "--phase2-lr"),
    ])
    def test_huge_epoch_count_is_not_scheduled_ahead(self, smoke_chain, tmp_path, capsys,
                                                     monkeypatch, command, epochs_flag,
                                                     lr_flag):
        # a rate that overflows float32 makes the first update non-finite; an
        # eager schedule would build 1e20 rates first, so it must fail fast
        from pnma import training
        from pnma.config import TrainConfig

        rate, batches = TrainConfig.lr_for_epoch, training._training_batches
        calls = {"rates": 0, "epochs": 0}

        def few_rates(config, epoch):
            calls["rates"] += 1
            if calls["rates"] > 3:
                raise AssertionError("the epoch schedule was built ahead of training")
            return rate(config, epoch)

        def count_epochs(*args):
            calls["epochs"] += 1
            return batches(*args)

        monkeypatch.setattr(TrainConfig, "lr_for_epoch", few_rates)
        monkeypatch.setattr(training, "_training_batches", count_epochs)
        code = getattr(self, command)(smoke_chain, tmp_path, epochs_flag,
                                      "100000000000000000000", lr_flag, "1e300")
        err = capsys.readouterr().err
        assert code == 3, err
        assert calls["epochs"] == 1
        assert err.splitlines()[-1].startswith("numeric failure: ")
        assert not list(tmp_path.glob("*.ckpt"))

    @pytest.mark.parametrize("top_n", ["0", "-1"])
    def test_confusion_diff_top_n_below_one(self, smoke_chain, tmp_path, capsys, top_n):
        out = tmp_path / "conf.tsv"
        code = run("analyze", "confusion-diff", "--gold", f"{smoke_chain['data']}/test.conll",
                   "--pred-a", smoke_chain["base_preds"], "--pred-b", smoke_chain["pnma_preds"],
                   "--out", str(out), "--top-n", top_n)
        assert_one_line_error(code, capsys.readouterr().err,
                              f"top_n_labels must be at least 1, got {top_n}")
        assert not out.exists()

    def test_predict_base_checkpoint_with_memory(self, smoke_chain, tmp_path, capsys):
        code = run("predict", "--checkpoint", smoke_chain["base"],
                   "--memory", smoke_chain["memory"],
                   "--input", f"{smoke_chain['data']}/test.conll",
                   "--vocab", smoke_chain["vocab"], "--out", str(tmp_path / "x.conll"))
        assert_one_line_error(code, capsys.readouterr().err, "base model")
        assert not (tmp_path / "x.conll").exists()


def crafted_copy(path: str, out, edit) -> str:
    """A copy of checkpoint ``path`` whose sections ``edit`` rewrote, saved
    with a valid digest."""
    from pnma.checkpoint import load_checkpoint, save_checkpoint

    params, echo, _ = load_checkpoint(path)
    edit(params)
    save_checkpoint(str(out), params, echo)
    return str(out)


class TestCraftedCheckpoints:
    """A checkpoint whose digest is valid but whose sections do not form one
    model exits 2 with one error line naming the file."""

    @pytest.mark.parametrize("edit, text", [
        (lambda p: p.pop("embed.pred"), "section 'embed.pred' is missing or not a matrix"),
        (lambda p: p.pop("crf.trans"), "missing section 'crf.trans'"),
        (lambda p: p.update({"lstm0.wh": p["lstm0.wh"][:, :-1]}),
         "section 'lstm0.wh' has shape (64, 15), expected (64, 16)"),
        (lambda p: p.update({"lstm9.wx": p["lstm0.wx"]}), "unexpected section 'lstm9.wx'"),
        (lambda p: p.update({"conn0.w": p["conn0.w"][:, :-2]}), "section 'conn0.w'"),
        (lambda p: p.update({"nbr.n": p["nbr.n"][:-1]}),
         "section 'nbr.n' has shape (7, 16), expected (8, 16)"),
        (lambda p: p.update({"emit.w": p["emit.w"][0]}),
         "section 'emit.w' is missing or not a matrix"),
    ], ids=["no-embed.pred", "no-crf.trans", "lstm0.wh-shape", "stray-lstm9.wx",
            "conn0.w-shape", "nbr.n-rows", "emit.w-rank"])
    def test_predict_exits_two(self, smoke_chain, tmp_path, capsys, edit, text):
        ckpt = crafted_copy(smoke_chain["pnma"], tmp_path / "crafted.ckpt", edit)
        code = run("predict", "--checkpoint", ckpt, "--memory", smoke_chain["memory"],
                   "--input", f"{smoke_chain['data']}/test.conll",
                   "--vocab", smoke_chain["vocab"], "--out", str(tmp_path / "x.conll"))
        assert_one_line_error(code, capsys.readouterr().err, f"{ckpt}: {text}")
        assert not (tmp_path / "x.conll").exists()

    def test_format_1_checkpoint_exits_two(self, smoke_chain, tmp_path, capsys):
        import hashlib

        from pnma.checkpoint import CHECKPOINT_MAGIC, checkpoint_bytes, load_checkpoint

        params, echo, _ = load_checkpoint(smoke_chain["pnma"])
        blob = checkpoint_bytes(params, "format_version = 1\n" + echo)
        body = b"PNMACKPT1" + blob[len(CHECKPOINT_MAGIC) : -32]
        ckpt = tmp_path / "v1.ckpt"
        ckpt.write_bytes(body + hashlib.sha256(body).digest())
        code = run("predict", "--checkpoint", str(ckpt), "--memory", smoke_chain["memory"],
                   "--input", f"{smoke_chain['data']}/test.conll",
                   "--vocab", smoke_chain["vocab"], "--out", str(tmp_path / "x.conll"))
        assert_one_line_error(code, capsys.readouterr().err,
                              f"{ckpt}: unsupported checkpoint format version")
        assert not (tmp_path / "x.conll").exists()

    def test_shared_mode_needs_one_rank_vector(self, smoke_chain, tmp_path, capsys):
        from pnma.checkpoint import load_checkpoint, save_checkpoint

        params, echo, _ = load_checkpoint(smoke_chain["pnma"])
        echo = echo.replace("neighborhood_mode = distinct", "neighborhood_mode = shared")
        save_checkpoint(str(tmp_path / "shared.ckpt"), params, echo)
        code = run("predict", "--checkpoint", str(tmp_path / "shared.ckpt"),
                   "--memory", smoke_chain["memory"],
                   "--input", f"{smoke_chain['data']}/test.conll",
                   "--vocab", smoke_chain["vocab"], "--out", str(tmp_path / "x.conll"))
        assert_one_line_error(code, capsys.readouterr().err,
                              "section 'nbr.n' has shape (8, 16), expected (1, 16)")


    @pytest.mark.parametrize("old, new, text", [
        ("epochs = 4", "format_version = 2\nepochs = 4",
         "config echo:1: unknown config key 'format_version'"),
        ("epochs = 4", "epochs = x", "config key epochs: expected an integer, got 'x'"),
        ("epochs = 4", "bogus = 4", "config echo:1: unknown config key 'bogus'"),
        ("epochs = 4", "epochs = -1", "epochs must be at least 0, got -1"),
        ("epochs = 4", "epochs 4", "config echo:1: expected 'key = value', got 'epochs 4'"),
    ], ids=["version-line", "epochs-x", "unknown-key", "epochs-negative", "no-equals"])
    def test_crafted_config_echo_exits_two(self, smoke_chain, tmp_path, capsys, old, new, text):
        from pnma.checkpoint import load_checkpoint, save_checkpoint

        params, echo, _ = load_checkpoint(smoke_chain["pnma"])
        assert old in echo
        ckpt = str(tmp_path / "echo.ckpt")
        save_checkpoint(ckpt, params, echo.replace(old, new, 1))
        code = run("predict", "--checkpoint", ckpt, "--memory", smoke_chain["memory"],
                   "--input", f"{smoke_chain['data']}/test.conll",
                   "--vocab", smoke_chain["vocab"], "--out", str(tmp_path / "x.conll"))
        assert_one_line_error(code, capsys.readouterr().err, f"{ckpt}: {text}")
        assert not (tmp_path / "x.conll").exists()


class TestVocabularyMismatch:
    """A vocabulary whose tag or word count is not the checkpoint's exits 2
    with one error line, in every command that pairs --checkpoint with --vocab."""

    COMMANDS = ["build-memory", "train-pnma", "predict", "rank-dist", "disagreement",
                "neighbors"]

    @staticmethod
    def argv(chain, command, vocab, out):
        from pnma.dataio import parse_conll_file

        data = chain["data"]
        sentence_id = parse_conll_file(f"{data}/valid.conll")[0].sentence_id
        return {
            "build-memory": ("build-memory", "--checkpoint", chain["base"],
                             "--train", f"{data}/train.conll"),
            "train-pnma": ("train-pnma", "--checkpoint", chain["base"],
                           "--memory", chain["memory"], "--train", f"{data}/train.conll"),
            "predict": ("predict", "--checkpoint", chain["pnma"], "--memory", chain["memory"],
                        "--input", f"{data}/test.conll"),
            "rank-dist": ("analyze", "rank-dist", "--checkpoint", chain["base"],
                          "--memory", chain["memory"], "--input", f"{data}/test.conll"),
            "disagreement": ("analyze", "disagreement", "--gold", f"{data}/test.conll",
                             "--pred-base", chain["base_preds"],
                             "--pred-pnma", chain["pnma_preds"],
                             "--train", f"{data}/train.conll", "--checkpoint", chain["pnma"],
                             "--memory", chain["memory"]),
            "neighbors": ("analyze", "neighbors", "--checkpoint", chain["base"],
                          "--memory", chain["memory"], "--input", f"{data}/valid.conll",
                          "--sources", f"{data}/train.conll", "--sentence-id", sentence_id,
                          "--token-index", "0"),
        }[command] + ("--vocab", vocab, "--out", out)

    @staticmethod
    def edited_vocab(chain, path, fewer_tags=0, more_words=0) -> str:
        from dataclasses import replace

        from pnma.dataio import load_vocab, save_vocab

        vocab = load_vocab(chain["vocab"])
        words = vocab.id_to_word + [f"extra-{i}" for i in range(more_words)]
        edited = replace(vocab, id_to_word=words,
                         word_to_id={w: i for i, w in enumerate(words)},
                         tag_labels=vocab.tag_labels[: vocab.n_tags - fewer_tags])
        save_vocab(edited, str(path))
        return str(path)

    @pytest.mark.parametrize("command", ["train-base", *COMMANDS])
    def test_version_1_file(self, smoke_chain, tmp_path, capsys, command):
        # the first format also held min_frequency and scheme lines
        lines = open(smoke_chain["vocab"], encoding="utf-8").read().splitlines(keepends=True)
        assert lines[0] == "# pnma vocabulary v2\n"
        vocab = tmp_path / "v.txt"
        vocab.write_text("# pnma vocabulary v1\nmin_frequency\t2\nscheme\tbio-span\n"
                         + "".join(lines[1:]), encoding="utf-8")
        if command == "train-base":
            argv = ("train-base", "--config", smoke_chain["cfg"],
                    "--train", f"{smoke_chain['data']}/train.conll",
                    "--vocab", str(vocab), "--out", str(tmp_path / "out"))
        else:
            argv = self.argv(smoke_chain, command, str(vocab), str(tmp_path / "out"))
        assert_one_line_error(run(*argv), capsys.readouterr().err,
                              f"{vocab}: unsupported vocabulary format version")
        assert [f.name for f in tmp_path.iterdir()] == ["v.txt"]

    @pytest.mark.parametrize("command", COMMANDS)
    def test_fewer_tags(self, smoke_chain, tmp_path, capsys, command):
        vocab = self.edited_vocab(smoke_chain, tmp_path / "v.txt", fewer_tags=1)
        n_tags = load_model(smoke_chain["base"]).crf.n_tags
        code = run(*self.argv(smoke_chain, command, vocab, str(tmp_path / "out")))
        assert_one_line_error(code, capsys.readouterr().err,
                              f"v.txt: vocabulary has {n_tags - 1} tags, the checkpoint {n_tags}")
        assert [f.name for f in tmp_path.iterdir()] == ["v.txt"]

    @pytest.mark.parametrize("command", COMMANDS)
    def test_more_words(self, smoke_chain, tmp_path, capsys, command):
        vocab = self.edited_vocab(smoke_chain, tmp_path / "v.txt", more_words=2)
        n_words = load_model(smoke_chain["base"]).encoder.word_emb.shape[0]
        code = run(*self.argv(smoke_chain, command, vocab, str(tmp_path / "out")))
        assert_one_line_error(code, capsys.readouterr().err,
                              f"v.txt: vocabulary has {n_words + 2} words, "
                              f"the checkpoint's word table {n_words}")
        assert [f.name for f in tmp_path.iterdir()] == ["v.txt"]


class TestMemoryLabels:
    """A memory, valid digest and all, holding a label that is not a tag of
    the vocabulary exits 2 with one error line, in every command that pairs
    --memory with --vocab."""

    COMMANDS = ["train-pnma", "predict", "rank-dist", "disagreement", "neighbors"]

    @pytest.mark.parametrize("command", COMMANDS)
    def test_label_beyond_the_tags(self, smoke_chain, tmp_path, capsys, command):
        from pnma.dataio import load_vocab
        from pnma.memory import ActivationMemory, deserialize_memory, serialize_memory

        n_tags = load_vocab(smoke_chain["vocab"]).n_tags
        mem = deserialize_memory(smoke_chain["memory"])
        labels = mem.labels.copy()
        labels[3] = n_tags
        path = str(tmp_path / "bad.mem")
        serialize_memory(ActivationMemory(vectors=mem.vectors, labels=labels,
                                          provenance=mem.provenance, seed=mem.seed,
                                          fraction=mem.fraction,
                                          source_digest=mem.source_digest), path)
        argv = TestVocabularyMismatch.argv({**smoke_chain, "memory": path}, command,
                                           smoke_chain["vocab"], str(tmp_path / "out"))
        assert_one_line_error(run(*argv), capsys.readouterr().err,
                              f"{path}: memory label {n_tags} is not one of the "
                              f"vocabulary's {n_tags} tags")
        assert [f.name for f in tmp_path.iterdir()] == ["bad.mem"]


class TestMemoryFromAnotherCheckpoint:
    """A base checkpoint paired with a memory built from another checkpoint
    exits 2 with one error line, as train-pnma does."""

    @pytest.mark.parametrize("command", ["rank-dist", "disagreement", "neighbors"])
    def test_base_checkpoint_is_not_the_memory_source(self, smoke_chain, tmp_path, capsys,
                                                      command):
        from pnma.memory import deserialize_memory, serialize_memory

        other = load_model(smoke_chain["pnma"]).digest
        mem = deserialize_memory(smoke_chain["memory"])
        mem.source_digest = other
        path = str(tmp_path / "other.mem")
        serialize_memory(mem, path)
        chain = {**smoke_chain, "pnma": smoke_chain["base"], "memory": path}
        argv = TestVocabularyMismatch.argv(chain, command, smoke_chain["vocab"],
                                           str(tmp_path / "out"))
        assert_one_line_error(run(*argv), capsys.readouterr().err,
                              f"{path}: memory built from checkpoint {other[:12]}...")
        assert [f.name for f in tmp_path.iterdir()] == ["other.mem"]


def test_analyze_a_model_trained_on_embeddings(tmp_path, capsys):
    """``analyze neighbors`` and ``analyze disagreement`` read a model trained
    and memorised with --embeddings, given the same file."""
    for name, text in (("c.conll", TOY_CORPUS), ("run.cfg", TOY_CONFIG),
                       ("emb.txt", TOY_EMBEDDINGS)):
        (tmp_path / name).write_text(text, encoding="utf-8")
    path = {name: str(tmp_path / name) for name in
            ("c.conll", "run.cfg", "emb.txt", "v.txt", "m.ckpt", "mem.bin", "p.conll")}
    emb = ("--embeddings", path["emb.txt"])
    for step in [
        ("prepare", "--train", path["c.conll"], "--out", path["v.txt"], "--min-frequency", "1"),
        ("train-base", "--config", path["run.cfg"], "--train", path["c.conll"],
         "--vocab", path["v.txt"], "--out", path["m.ckpt"], *emb),
        ("build-memory", "--checkpoint", path["m.ckpt"], "--train", path["c.conll"],
         "--vocab", path["v.txt"], "--out", path["mem.bin"], "--fraction", "1.0", *emb),
        ("predict", "--checkpoint", path["m.ckpt"], "--input", path["c.conll"],
         "--vocab", path["v.txt"], "--out", path["p.conll"], *emb),
    ]:
        assert run(*step) == 0, step[0]
    neighbors = ("analyze", "neighbors", "--checkpoint", path["m.ckpt"],
                 "--memory", path["mem.bin"], "--input", path["c.conll"],
                 "--vocab", path["v.txt"], "--sources", path["c.conll"],
                 "--sentence-id", "s1", "--token-index", "1", "--k", "2",
                 "--out", str(tmp_path / "n.tsv"))
    disagreement = ("analyze", "disagreement", "--gold", path["c.conll"],
                    "--pred-base", path["p.conll"], "--pred-pnma", path["c.conll"],
                    "--train", path["c.conll"], "--checkpoint", path["m.ckpt"],
                    "--memory", path["mem.bin"], "--vocab", path["v.txt"], "--k", "2",
                    "--out", str(tmp_path / "d.tsv"))
    for argv in (neighbors, disagreement):
        capsys.readouterr()
        assert_one_line_error(run(*argv), capsys.readouterr().err,
                              "encoder has no word table; external vectors required")
        assert run(*argv, *emb) == 0, argv[1]
    assert len((tmp_path / "n.tsv").read_text(encoding="utf-8").splitlines()) == 3
    assert "corrected_over_regressed" in (tmp_path / "d.tsv").read_text(encoding="utf-8")


class TestEmbeddingsNeedAModelTrainedOnThem:
    """--embeddings given with a checkpoint that holds a word table exits 2
    with one error line and writes nothing, even when the file's width is
    the table's: the vectors would silently replace the learned words."""

    @pytest.fixture(scope="class")
    def embeddings(self, smoke_chain, tmp_path_factory):
        from pnma.dataio import parse_conll_file

        width = load_model(smoke_chain["base"]).encoder.d_word
        rows = []
        for split in ("train", "valid", "test"):
            for inst in parse_conll_file(f"{smoke_chain['data']}/{split}.conll"):
                rows.extend(f"{inst.sentence_id} {t}" + " 0.5" * width
                            for t in range(len(inst)))
        path = tmp_path_factory.mktemp("emb") / "emb.txt"
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        return str(path)

    @pytest.mark.parametrize("command", TestVocabularyMismatch.COMMANDS)
    def test_refused(self, smoke_chain, embeddings, tmp_path, capsys, command):
        argv = TestVocabularyMismatch.argv(smoke_chain, command, smoke_chain["vocab"],
                                           str(tmp_path / "out"))
        code = run(*argv, "--embeddings", embeddings)
        assert_one_line_error(code, capsys.readouterr().err,
                              "encoder has a word table; external vectors are only for "
                              "a model trained on them")
        assert list(tmp_path.iterdir()) == []


def test_rank_dist_refuses_an_adapted_checkpoint(smoke_chain, tmp_path, capsys):
    c = smoke_chain
    code = run("analyze", "rank-dist", "--checkpoint", c["pnma"], "--memory", c["memory"],
               "--input", f"{c['data']}/valid.conll", "--vocab", c["vocab"],
               "--out", str(tmp_path / "rank"))
    assert_one_line_error(code, capsys.readouterr().err,
                          "analyze rank-dist: this checkpoint is an adapted model")
    assert list(tmp_path.iterdir()) == []


class TestMisalignedPredictions:
    """evaluate, confusion-diff and disagreement refuse a prediction file
    whose sentence count, or any sentence's length, is not the gold file's:
    exit 2, one error line, no report."""

    @staticmethod
    def argv(chain, command, preds, out):
        c, gold = chain, f"{chain['data']}/test.conll"
        return {
            "evaluate": ("evaluate", "--gold", gold, "--pred", preds),
            "confusion-diff": ("analyze", "confusion-diff", "--gold", gold,
                               "--pred-a", c["base_preds"], "--pred-b", preds),
            "disagreement": ("analyze", "disagreement", "--gold", gold,
                             "--pred-base", c["base_preds"], "--pred-pnma", preds,
                             "--train", f"{c['data']}/train.conll"),
        }[command] + ("--out", out)

    @staticmethod
    def write_preds(chain, path, keep: int, cut: bool = False) -> str:
        """The first ``keep`` adapted-prediction sentences; with ``cut``, the
        last one without its first token that is not the predicate."""
        from pnma.dataio import format_predictions, parse_conll_file

        preds = parse_conll_file(chain["pnma_preds"])[:keep]
        blocks = [format_predictions(i, i.gold_labels) for i in preds]
        if cut:
            lines = blocks[-1].splitlines(keepends=True)
            drop = 1 + (preds[-1].predicate_index == 0)  # line 0 is the id comment
            blocks[-1] = "".join(lines[:drop] + lines[drop + 1:])
        path.write_text("".join(blocks), encoding="utf-8")
        return str(path)

    @pytest.mark.parametrize("command", ["evaluate", "confusion-diff", "disagreement"])
    def test_fewer_sentences(self, smoke_chain, tmp_path, capsys, command):
        preds = self.write_preds(smoke_chain, tmp_path / "p.conll", keep=10)
        code = run(*self.argv(smoke_chain, command, preds, str(tmp_path / "r.tsv")))
        assert_one_line_error(code, capsys.readouterr().err, "20 gold sentences vs 10 in")
        assert [f.name for f in tmp_path.iterdir()] == ["p.conll"]

    @pytest.mark.parametrize("command", ["evaluate", "confusion-diff", "disagreement"])
    def test_shorter_sentence(self, smoke_chain, tmp_path, capsys, command):
        from pnma.dataio import parse_conll_file

        n = len(parse_conll_file(f"{smoke_chain['data']}/test.conll")[19])
        preds = self.write_preds(smoke_chain, tmp_path / "p.conll", keep=20, cut=True)
        code = run(*self.argv(smoke_chain, command, preds, str(tmp_path / "r.tsv")))
        assert_one_line_error(code, capsys.readouterr().err,
                              f"sentence 19 has {n} gold tokens vs {n - 1} in")
        assert [f.name for f in tmp_path.iterdir()] == ["p.conll"]


def test_unknown_neighborhood_mode_exits_two_before_training(smoke_chain, tmp_path, capsys,
                                                             monkeypatch):
    from pnma import cli

    def no_training(*args, **kwargs):
        raise AssertionError("training started")

    monkeypatch.setattr(cli, "train_base", no_training)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(open(smoke_chain["cfg"]).read() + "neighborhood_mode = bogus\n",
                   encoding="utf-8")
    code = run("train-base", "--config", str(cfg), "--train", f"{smoke_chain['data']}/train.conll",
               "--vocab", smoke_chain["vocab"], "--out", str(tmp_path / "b.ckpt"))
    assert_one_line_error(code, capsys.readouterr().err, "unknown neighborhood_mode 'bogus'")
    assert not (tmp_path / "b.ckpt").exists()


@pytest.mark.parametrize("command, lr_flag", [("train-base", "--base-lr"),
                                              ("train-pnma", "--phase2-lr")])
def test_numeric_failure_is_one_stderr_line(smoke_chain, tmp_path, command, lr_flag):
    # a rate that overflows float32 makes the first update non-finite; numpy's
    # floating-point warnings must not precede the one failure line
    c = smoke_chain
    phase = {"train-base": ("--config", c["cfg"], "--epochs", "1"),
             "train-pnma": ("--checkpoint", c["base"], "--memory", c["memory"],
                            "--phase2-epochs", "1")}[command]
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    env.pop("PYTHONWARNINGS", None)
    proc = subprocess.run(
        [sys.executable, "-m", "pnma.cli", command,
         "--train", f"{c['data']}/train.conll", "--vocab", c["vocab"],
         "--out", str(tmp_path / "x.ckpt"), *phase, lr_flag, "1e300"],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 3, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    lines = [line for line in proc.stderr.splitlines()
             if not line.startswith("config: using defaults")]
    assert len(lines) == 1 and lines[0].startswith("numeric failure: "), proc.stderr
    assert not (tmp_path / "x.ckpt").exists()


# each subcommand's flags: every one changes a result, so one is added or
# removed on purpose, and here first
FLAGS = {
    "prepare": "--train --out --min-frequency",
    "train-base": "--train --valid --vocab --out --log --embeddings --config --seed --epochs "
                  "--phase2-epochs --batch-size --k --memory-fraction --base-lr --phase2-lr "
                  "--d-word --d-hidden --n-layers --dropout-embed --dropout-layer --scheme "
                  "--neighborhood-mode",
    "build-memory": "--checkpoint --train --vocab --out --fraction --seed --embeddings",
    "train-pnma": "--checkpoint --memory --train --valid --vocab --out --log --embeddings "
                  "--seed --phase2-epochs --batch-size --threads --k --phase2-lr --scheme "
                  "--neighborhood-mode",
    "predict": "--checkpoint --input --vocab --out --memory --embeddings --threads",
    "evaluate": "--gold --pred --out --scheme",
    "gen-synthetic": "--out-dir --train-size --valid-size --test-size --exception-rate --seed",
    "analyze rank-dist": "--checkpoint --memory --input --vocab --out --k --exclude-self "
                         "--embeddings --threads",
    "analyze confusion-diff": "--gold --pred-a --pred-b --out --top-n",
    "analyze disagreement": "--gold --pred-base --pred-pnma --train --out --checkpoint "
                            "--memory --vocab --k --embeddings --threads",
    "analyze neighbors": "--checkpoint --memory --input --vocab --sources --sentence-id "
                         "--token-index --out --k --window --embeddings",
}


def parser_flags(parser: argparse.ArgumentParser, command: str = "") -> dict[str, list[str]]:
    """Each (sub)command's option strings, in order, --help aside."""
    out: dict[str, list[str]] = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                out.update(parser_flags(sub, f"{command} {name}".strip()))
        elif action.option_strings and not isinstance(action, argparse._HelpAction):
            out.setdefault(command, []).extend(action.option_strings)
    return out


def test_flag_inventory():
    flags = parser_flags(build_parser())
    assert flags == {command: names.split() for command, names in FLAGS.items()}
    assert sum(map(len, flags.values())) == 101


class TestEvaluateCommand:
    def test_mismatched_corpora_exit_two(self, tmp_path):
        a = tmp_path / "a.conll"
        b = tmp_path / "b.conll"
        a.write_text("x 1 B-V\n\ny 1 B-V\n", encoding="utf-8")
        b.write_text("x 1 B-V\n", encoding="utf-8")
        code = run("evaluate", "--gold", str(a), "--pred", str(b),
                   "--out", str(tmp_path / "r.tsv"))
        assert code == 2

    def test_per_token_scheme(self, tmp_path):
        gold = tmp_path / "g.conll"
        pred = tmp_path / "p.conll"
        gold.write_text("he 0 A0\nruns 1 _\n", encoding="utf-8")
        pred.write_text("he 0 A0\nruns 1 A1\n", encoding="utf-8")
        out = str(tmp_path / "r.tsv")
        assert run("evaluate", "--gold", str(gold), "--pred", str(pred),
                   "--out", out, "--scheme", "per-token-role") == 0
        report = read_eval_report(out)
        assert report.scheme == "per-token-role"
        assert report.precision == pytest.approx(0.5)
        assert report.recall == pytest.approx(1.0)


def assert_one_line_usage_error(code: int, err: str, text: str) -> None:
    assert code == 1, err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("usage error: ") and text in lines[0], err


class TestRetiredInputs:
    """Inputs that no code read are refused, not silently accepted: prepare's
    training flags and run config, train-pnma's run config and the keys it
    inherits, train-base's --threads, --scheme on the commands whose reports
    it never changed, and file-path keys in a run-config file."""

    @pytest.mark.parametrize("flag, value", [("--epochs", "5"), ("--d-hidden", "7"),
                                             ("--neighborhood-mode", "shared"),
                                             ("--threads", "9"),
                                             ("--scheme", "per-token-role"),
                                             ("--config", "run.cfg")])
    def test_prepare_takes_no_training_flag(self, tmp_path, capsys, flag, value):
        (tmp_path / "c.conll").write_text(TOY_CORPUS, encoding="utf-8")
        code = run("prepare", "--train", str(tmp_path / "c.conll"),
                   "--out", str(tmp_path / "v.txt"), flag, value)
        assert_one_line_usage_error(code, capsys.readouterr().err, flag)
        assert not (tmp_path / "v.txt").exists()

    # phase 2 reads none of these keys, so the adapted checkpoint inherits
    # them from its base, and a run config has nothing left to set
    @pytest.mark.parametrize("flag, value", [
        ("--config", "run.cfg"), ("--epochs", "2"), ("--base-lr", "0.002"),
        ("--dropout-embed", "0.2"), ("--dropout-layer", "0.3"), ("--memory-fraction", "0.25"),
        ("--d-word", "5"), ("--d-hidden", "6"), ("--n-layers", "3"),
    ])
    def test_train_pnma_takes_no_inherited_key(self, smoke_chain, tmp_path, capsys, flag,
                                               value):
        c = smoke_chain
        code = run("train-pnma", "--checkpoint", c["base"], "--memory", c["memory"],
                   "--train", f"{c['data']}/train.conll", "--vocab", c["vocab"],
                   "--out", str(tmp_path / "p.ckpt"), flag, value)
        assert_one_line_usage_error(code, capsys.readouterr().err,
                                    f"unrecognized arguments: {flag}")
        assert list(tmp_path.iterdir()) == []

    def test_train_base_takes_no_threads(self, smoke_chain, tmp_path, capsys):
        c = smoke_chain
        code = run("train-base", "--config", c["cfg"], "--train", f"{c['data']}/train.conll",
                   "--vocab", c["vocab"], "--out", str(tmp_path / "b.ckpt"), "--threads", "2")
        assert_one_line_usage_error(code, capsys.readouterr().err,
                                    "unrecognized arguments: --threads")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["confusion-diff", "disagreement"])
    def test_analyze_takes_no_scheme(self, smoke_chain, tmp_path, capsys, command):
        c = smoke_chain
        argv = {
            "confusion-diff": ("--pred-a", c["base_preds"], "--pred-b", c["pnma_preds"]),
            "disagreement": ("--pred-base", c["base_preds"], "--pred-pnma", c["pnma_preds"],
                             "--train", f"{c['data']}/train.conll"),
        }[command]
        code = run("analyze", command, "--gold", f"{c['data']}/test.conll", *argv,
                   "--out", str(tmp_path / "r.tsv"), "--scheme", "per-token-role")
        assert_one_line_usage_error(code, capsys.readouterr().err, "--scheme")
        assert list(tmp_path.iterdir()) == []

    # the schedule and the decay are recipe constants; clipping and float64
    # training are gone
    @pytest.mark.parametrize("line", ["lr_halving_epochs = 50,75", "weight_decay = 0.0001",
                                      "clip_norm = 5.0", "clip_enabled = false",
                                      "dtype = float32"])
    def test_retired_key_in_run_config_exits_two(self, smoke_chain, tmp_path, capsys, line):
        cfg = tmp_path / "run.cfg"
        key = line.split("=")[0].strip()  # replaces the smoke config's line: a key is given once
        kept = [l for l in open(smoke_chain["cfg"]).read().splitlines(True) if not l.startswith(key)]
        cfg.write_text("".join(kept) + line + "\n", encoding="utf-8")
        code = run("train-base", "--config", str(cfg),
                   "--train", f"{smoke_chain['data']}/train.conll",
                   "--vocab", smoke_chain["vocab"], "--out", str(tmp_path / "b.ckpt"))
        assert_one_line_error(code, capsys.readouterr().err,
                              f"{cfg}:13: unknown config key '{line.split(' = ')[0]}'")
        assert not (tmp_path / "b.ckpt").exists()

    def test_build_memory_takes_no_stratified(self, smoke_chain, tmp_path, capsys):
        code = run("build-memory", "--checkpoint", smoke_chain["base"],
                   "--train", f"{smoke_chain['data']}/train.conll",
                   "--vocab", smoke_chain["vocab"], "--out", str(tmp_path / "m.bin"),
                   "--stratified")
        assert_one_line_usage_error(code, capsys.readouterr().err, "--stratified")
        assert not (tmp_path / "m.bin").exists()

    @pytest.mark.parametrize("key", ["train", "vocab", "out"])
    def test_path_key_in_run_config_exits_two(self, smoke_chain, tmp_path, capsys, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(open(smoke_chain["cfg"]).read() + f"{key} = x\n", encoding="utf-8")
        code = run("train-base", "--config", str(cfg),
                   "--train", f"{smoke_chain['data']}/train.conll",
                   "--vocab", smoke_chain["vocab"], "--out", str(tmp_path / "b.ckpt"))
        assert_one_line_error(code, capsys.readouterr().err,
                              f"{cfg}:13: unknown config key '{key}'")
        assert not (tmp_path / "b.ckpt").exists()


class TestConfigShapeAgreesWithTensors:
    """train-pnma takes its shape from the base checkpoint and no flag can
    change it, and a checkpoint whose config echo contradicts its sections
    does not load."""

    def test_inherited_config_with_other_shape_flags(self, smoke_chain, tmp_path, capsys):
        code = run("train-pnma", "--checkpoint", smoke_chain["base"],
                   "--memory", smoke_chain["memory"],
                   "--train", f"{smoke_chain['data']}/train.conll",
                   "--vocab", smoke_chain["vocab"], "--out", str(tmp_path / "p.ckpt"),
                   "--phase2-epochs", "1", "--d-hidden", "999", "--n-layers", "7")
        assert_one_line_usage_error(code, capsys.readouterr().err,
                                    "unrecognized arguments: --d-hidden 999 --n-layers 7")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("key, value", [("d_word", 12), ("d_pred", 8), ("d_hidden", 16),
                                            ("n_layers", 2)])
    @pytest.mark.parametrize("which", ["base", "pnma"])
    def test_crafted_echo_is_format_error(self, smoke_chain, tmp_path, which, key, value):
        from pnma.checkpoint import load_checkpoint, save_checkpoint
        from pnma.errors import FormatError

        params, echo, _ = load_checkpoint(smoke_chain[which])
        assert f"\n{key} = {value}\n" in echo
        ckpt = str(tmp_path / "echo.ckpt")
        save_checkpoint(ckpt, params, echo.replace(f"\n{key} = {value}\n", f"\n{key} = 999\n"))
        with pytest.raises(FormatError, match=f"echo.ckpt: the sections contradict the config "
                                              f"echo: {key} = 999, but the tensors have {value}"):
            load_model(ckpt)

    def test_external_embeddings_leave_d_word_free(self, tmp_path):
        # with --embeddings the first layer reads the embeddings' width (2), so
        # the echoed d_word (4) is not a tensor width, and train-pnma accepts it
        for name, text in (("c.conll", TOY_CORPUS), ("run.cfg", TOY_CONFIG),
                           ("emb.txt", TOY_EMBEDDINGS)):
            (tmp_path / name).write_text(text, encoding="utf-8")
        path = {name: str(tmp_path / name) for name in
                ("c.conll", "run.cfg", "emb.txt", "v.txt", "m.ckpt", "mem.bin", "p.ckpt")}
        emb = ("--embeddings", path["emb.txt"])
        for step in [
            ("prepare", "--train", path["c.conll"], "--out", path["v.txt"],
             "--min-frequency", "1"),
            ("train-base", "--config", path["run.cfg"], "--train", path["c.conll"],
             "--vocab", path["v.txt"], "--out", path["m.ckpt"], *emb),
            ("build-memory", "--checkpoint", path["m.ckpt"], "--train", path["c.conll"],
             "--vocab", path["v.txt"], "--out", path["mem.bin"], "--fraction", "1.0", *emb),
            ("train-pnma", "--checkpoint", path["m.ckpt"], "--memory", path["mem.bin"],
             "--train", path["c.conll"], "--vocab", path["v.txt"], "--out", path["p.ckpt"],
             "--k", "2", "--phase2-epochs", "1", *emb),
        ]:
            assert run(*step) == 0, step[0]
        base = load_model(path["m.ckpt"])
        assert (base.encoder.d_word, base.config.d_word) == (2, 4)
        assert load_model(path["p.ckpt"]).config.d_word == 4


class TestThreadsLeaveNoTrace:
    """Worker threads change no result, so train-pnma writes the same files at
    any --threads."""

    def test_training_files_byte_identical(self, smoke_chain, tmp_path):
        c = smoke_chain
        for threads in ("1", "2"):
            assert run("train-pnma", "--phase2-epochs", "1", "--train", f"{c['data']}/train.conll",
                       "--valid", f"{c['data']}/valid.conll", "--vocab", c["vocab"],
                       "--checkpoint", c["base"], "--memory", c["memory"],
                       "--out", str(tmp_path / f"pnma{threads}.ckpt"), "--threads", threads) == 0
        for name in ("pnma{}.ckpt", "pnma{}.ckpt.log"):
            one, two = (tmp_path / name.format(t) for t in ("1", "2"))
            assert one.read_bytes() == two.read_bytes(), name


def test_paper_shape_train_base_repeats_at_one_blas_thread(smoke_chain, tmp_path):
    # a rerun is byte-identical for a fixed BLAS build and thread count; at
    # the default (paper) shape OpenBLAS threads its products, so the count
    # is pinned here, as it is not by any input
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    for name in ("a.ckpt", "b.ckpt"):
        proc = subprocess.run(
            [sys.executable, "-m", "pnma.cli", "train-base", "--epochs", "1",
             "--train", f"{smoke_chain['data']}/train.conll", "--vocab", smoke_chain["vocab"],
             "--out", str(tmp_path / name)],
            capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
    assert load_model(str(tmp_path / "a.ckpt")).config.d_hidden == 300
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


class TestBuildMemoryFraction:
    """build-memory samples the checkpoint's memory_fraction unless --fraction
    is given."""

    @pytest.fixture
    def base_at_0_3(self, smoke_chain, tmp_path):
        ckpt = str(tmp_path / "b.ckpt")
        assert run("train-base", "--config", smoke_chain["cfg"], "--epochs", "0",
                   "--memory-fraction", "0.3", "--train", f"{smoke_chain['data']}/train.conll",
                   "--vocab", smoke_chain["vocab"], "--out", ckpt) == 0
        return ckpt

    def build(self, chain, tmp_path, ckpt, *extra):
        from pnma.memory import deserialize_memory

        out = str(tmp_path / "m.bin")
        assert run("build-memory", "--checkpoint", ckpt,
                   "--train", f"{chain['data']}/train.conll", "--vocab", chain["vocab"],
                   "--out", out, *extra) == 0
        return deserialize_memory(out)

    def test_default_is_the_checkpoints_fraction(self, smoke_chain, tmp_path, base_at_0_3):
        from pnma.dataio import parse_conll_file

        tokens = sum(len(i) for i in parse_conll_file(f"{smoke_chain['data']}/train.conll"))
        memory = self.build(smoke_chain, tmp_path, base_at_0_3)
        assert memory.fraction == 0.3
        assert len(memory) == round(0.3 * tokens)

    def test_flag_wins(self, smoke_chain, tmp_path, base_at_0_3):
        memory = self.build(smoke_chain, tmp_path, base_at_0_3, "--fraction", "0.15")
        assert memory.fraction == 0.15


def test_knn_argument_errors_name_knn_entry_ids(smoke_chain, tmp_path, capsys):
    c = smoke_chain
    code = run("analyze", "rank-dist", "--checkpoint", c["base"], "--memory", c["memory"],
               "--input", f"{c['data']}/valid.conll", "--vocab", c["vocab"],
               "--out", str(tmp_path / "r"), "--k", "0")
    assert_one_line_error(code, capsys.readouterr().err, "knn_entry_ids: K must be >= 1, got 0")
    assert list(tmp_path.iterdir()) == []


class TestPathErrors:
    """A path the operating system refuses, for any reason, exits 2 with one
    error line, as a missing file does."""

    def test_predict_out_under_a_regular_file(self, smoke_chain, tmp_path, capsys):
        c = smoke_chain
        (tmp_path / "f").write_text("x", encoding="utf-8")
        code = run("predict", "--checkpoint", c["base"], "--input", f"{c['data']}/test.conll",
                   "--vocab", c["vocab"], "--out", str(tmp_path / "f" / "x"))
        assert_one_line_error(code, capsys.readouterr().err, "Not a directory")

    def test_gen_synthetic_out_dir_is_a_regular_file(self, tmp_path, capsys):
        (tmp_path / "f").write_text("x", encoding="utf-8")
        code = run("gen-synthetic", "--out-dir", str(tmp_path / "f"), "--train-size", "5",
                   "--valid-size", "5", "--test-size", "5")
        assert_one_line_error(code, capsys.readouterr().err, "File exists")
