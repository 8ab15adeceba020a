"""The calls the benchmark makes into pnma, run at toy scale.

``perfbench/workloads.py``, ``run.py`` and ``tracer.py`` are imported as they
are, so a change to an API or a name they read fails here rather than only
in a benchmark run.
"""

import ast
import importlib
import importlib.util
import os
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from pnma.config import TrainConfig
from pnma.crf import init_crf_params
from pnma.dataio import build_vocab
from pnma.encoder import init_encoder_params
from pnma.memory import build_memory
from pnma.neighborhood import init_neighborhood_params
from pnma.numeric import make_rng
from pnma.synthetic import generate_split

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
K = 6
TOY_SHAPE = dict(d_word=6, d_pred=3, d_hidden=8, n_layers=2)


def load_perfbench(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        # run.py pins BLAS threads in the environment for its own process
        with mock.patch.dict(os.environ):
            spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.fixture(scope="module")
def workloads():
    yield from load_perfbench("workloads")


@pytest.fixture(scope="module")
def bench_run():
    yield from load_perfbench("run")


@pytest.fixture(scope="module")
def tracer():
    yield from load_perfbench("tracer")


@pytest.fixture(scope="module")
def toy():
    train, _ = generate_split("train", 60, 0.05, seed=31)
    test, _ = generate_split("test", 30, 0.05, seed=31)
    vocab = build_vocab(train, min_frequency=1)
    rng = make_rng(32)
    enc = init_encoder_params(vocab.n_words, **TOY_SHAPE, rng=rng)
    crf = init_crf_params(8, vocab.n_tags, rng)
    nbr = init_neighborhood_params(K, 8, rng)
    mem = build_memory(enc, vocab, train, fraction=0.5, seed=33)
    return train, test, vocab, enc, crf, nbr, mem


@pytest.mark.parametrize("split, exclude_self", [("train", True), ("test", False)])
def test_knn_oracle_check_passes(workloads, toy, tmp_path, split, exclude_self):
    train, test, vocab, enc, _, _, mem = toy
    instances = train if split == "train" else test
    assert len(instances) >= workloads.ORACLE_SENTENCES
    run = workloads.Run(seed=1, workdir=str(tmp_path), checks=workloads.Checks())
    workloads.check_knn_oracle(run, mem, enc, vocab, instances, K, exclude_self, split)
    assert run.checks.attempted > 0
    assert run.checks.failed == 0, run.checks.failures[:3]


def test_predict_calls_take_positional_arguments(workloads, toy):
    _, test, vocab, enc, crf, nbr, mem = toy
    base = workloads.inference.predict_base_corpus(test, enc, crf, vocab)
    batch = test[: workloads.TAG_REQUEST_SENTENCES]
    adapted = workloads.inference.predict_pnma_corpus(batch, enc, crf, nbr, mem, vocab, K)
    for preds, instances in ((base, test), (adapted, batch)):
        assert len(preds) == len(instances)
        for p, inst in zip(preds, instances):
            assert p.shape == (len(inst),) and np.issubdtype(p.dtype, np.integer)
    assert 0.0 <= workloads.f1(test, base, vocab, "bio-span") <= 1.0
    assert len(workloads.preds_digest(adapted)) == 64


@pytest.mark.parametrize("adapted", [False, True], ids=["base", "adapted"])
def test_tag_checkpoint_round_trip(workloads, toy, tmp_path, adapted):
    # the tag set-up digests its base model with model_bytes and saves its
    # adapted model with save_model; the job reads the latter with load_model
    _, _, _, enc, crf, nbr, _ = toy
    # the tag set-up's config, at the toy's shape: load_model checks the two agree
    cfg = TrainConfig(seed=1, memory_fraction=0.5, **(workloads.DESK | TOY_SHAPE | {
        "phase2_epochs": workloads.TAG_PHASE2_EPOCHS, "k_neighbors": K}))
    model = workloads.checkpoint.Model(enc, crf, nbr if adapted else None, cfg)
    blob = workloads.model_bytes(model)
    path = str(tmp_path / "tag.ckpt")
    digest = workloads.checkpoint.save_model(path, model)
    assert open(path, "rb").read() == blob
    assert digest == blob[-32:].hex() == workloads.file_digest(path)
    loaded = workloads.checkpoint.load_model(path)
    assert loaded.config == cfg and loaded.digest == digest
    assert workloads.model_bytes(loaded) == blob


def test_machine_record(bench_run):
    from pnma.config import TrainConfig

    record = bench_run.machine()
    assert record["pnma_threads"] == TrainConfig().threads
    assert record["numpy"] == np.__version__


def test_working_set_reads_names_pnma_defines(bench_run, toy):
    from pnma import memory

    mem = toy[-1]
    ws = {"memory_entries": len(mem), "d": mem.d}
    assert bench_run.working_set(dict(ws)).items() >= ws.items()
    # the memory constants working_set reads through getattr, which would
    # otherwise drop a renamed one without a word; _ENTRY_BLOCK is gone from
    # pnma, and its read (ROADMAP item 12) is the one allowed miss
    read = {node.args[1].value for node in ast.walk(ast.parse(
                (PERFBENCH / "run.py").read_text(encoding="utf-8")))
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr"
            and getattr(node.args[0], "id", None) == "memory"}
    assert "_QUERY_BLOCK" in read
    assert {name for name in read if not hasattr(memory, name)} <= {"_ENTRY_BLOCK"}


def test_traced_names_resolve(tracer):
    missing = {f"{module}.{func}" for module, funcs in tracer.TRACED.items() for func in funcs
               if not hasattr(importlib.import_module(f"pnma.{module}"), func)}
    # deleted from pnma with the per-sentence neighbor cache; the tracer still lists it
    assert missing <= {"training.corpus_neighbor_cache"}
