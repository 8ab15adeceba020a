import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pnma.analysis import read_eval_report
from pnma.checkpoint import load_model
from pnma.cli import dispatch
from pnma.config import load_run_config


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

    def test_unknown_config_key_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs = 3\nwibble = 9\n", encoding="utf-8")
        corpus = tmp_path / "c.conll"
        corpus.write_text("a 1 B-V\n", encoding="utf-8")
        code = run("prepare", "--train", str(corpus), "--out",
                   str(tmp_path / "v.txt"), "--config", str(cfg))
        assert code == 2
        assert "wibble" in capsys.readouterr().err

    def test_missing_file_exits_two(self):
        assert run("prepare", "--train", "/nonexistent/x.conll", "--out", "/tmp/v") == 2


TOY_CORPUS = "# id: s1\nthe 0 O\ncat 1 B-V\n\n# id: s2\ndog 1 B-V\n"
TOY_CONFIG = (
    "epochs = 1\nbatch_size = 2\nbase_lr = 0.001\nlr_halving_epochs = 1,2\n"
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


# each config flag, its TrainConfig field, and a value that neither TOY_CONFIG
# nor the defaults give
CONFIG_FLAG_VALUES = [
    ("--seed", "seed", "7"), ("--epochs", "epochs", "2"),
    ("--phase2-epochs", "phase2_epochs", "3"), ("--batch-size", "batch_size", "5"),
    ("--threads", "threads", "2"), ("--k", "k_neighbors", "9"),
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
    monkeypatch.delenv("PNMA_CONFIG", raising=False)
    (tmp_path / "c.conll").write_text(TOY_CORPUS, encoding="utf-8")
    (tmp_path / "run.cfg").write_text(TOY_CONFIG, encoding="utf-8")
    assert run("prepare", "--train", str(tmp_path / "c.conll"), "--out",
               str(tmp_path / "v.txt"), "--min-frequency", "1") == 0
    unflagged, _ = load_run_config(str(tmp_path / "run.cfg"), quiet=True)
    want = type(getattr(unflagged, field))(raw)
    assert getattr(unflagged, field) != want
    ckpt = str(tmp_path / "m.ckpt")
    assert run("train-base", "--config", str(tmp_path / "run.cfg"), flag, raw,
               "--train", str(tmp_path / "c.conll"), "--vocab", str(tmp_path / "v.txt"),
               "--out", ckpt) == 0
    assert getattr(load_model(ckpt).config, field) == want


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
        (toy / "run.cfg").write_bytes(mutated(data, TOY_CONFIG))
        capsys.readouterr()
        code = run("prepare", "--config", str(toy / "run.cfg"), "--train",
                   str(toy / "c.conll"), "--out", str(toy / "v2.txt"))
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
        code = run("prepare", "--config", str(toy / "run.cfg"), "--train",
                   str(toy / "c.conll"), "--out", str(toy / "v2.txt"))
        assert code == 2
        assert line.split()[0] in capsys.readouterr().err


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
        ("train-pnma", "--config", args["cfg"], "--checkpoint", args["base"],
         "--memory", args["memory"],
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
        return run("train-pnma", "--config", chain["cfg"], "--checkpoint", chain["base"],
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
        phase = {"train-base": ("--epochs", "2"),
                 "train-pnma": ("--checkpoint", chain["base"], "--memory", chain["memory"],
                                "--phase2-epochs", "2")}[command]
        return run(command, "--config", chain["cfg"], "--train", f"{chain['data']}/train.conll",
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
        assert_one_line_error(code, capsys.readouterr().err, text)
        assert not list(tmp_path.glob("*.ckpt"))

    @pytest.mark.parametrize("line, text", [
        ("clip_norm = -3", "clip_norm must be positive, got -3.0"),
        ("clip_norm = 0", "clip_norm must be positive, got 0.0"),
        ("weight_decay = -1", "weight_decay must be at least 0, got -1.0"),
        ("memory_fraction = 7", "memory_fraction must lie in (0, 1], got 7.0"),
    ])
    def test_float_config_key_out_of_range(self, smoke_chain, tmp_path, capsys, line, text):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(open(smoke_chain["cfg"]).read() + "clip_enabled = true\n" + line + "\n",
                       encoding="utf-8")
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
            "train-pnma": ("train-pnma", "--config", chain["cfg"], "--checkpoint", chain["base"],
                           "--memory", chain["memory"], "--train", f"{data}/train.conll"),
            "predict": ("predict", "--checkpoint", chain["pnma"], "--memory", chain["memory"],
                        "--input", f"{data}/test.conll"),
            "rank-dist": ("analyze", "rank-dist", "--checkpoint", chain["pnma"],
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
    phase = {"train-base": ("--epochs", "1"),
             "train-pnma": ("--checkpoint", c["base"], "--memory", c["memory"],
                            "--phase2-epochs", "1")}[command]
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    env.pop("PYTHONWARNINGS", None)
    proc = subprocess.run(
        [sys.executable, "-m", "pnma.cli", command, "--config", c["cfg"],
         "--train", f"{c['data']}/train.conll", "--vocab", c["vocab"],
         "--out", str(tmp_path / "x.ckpt"), *phase, lr_flag, "1e300"],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 3, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    lines = [line for line in proc.stderr.splitlines()
             if not line.startswith("config: using defaults")]
    assert len(lines) == 1 and lines[0].startswith("numeric failure: "), proc.stderr
    assert not (tmp_path / "x.ckpt").exists()


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
