"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The synthetic-chain
criteria drive the real CLI end to end (corpus generation through evaluation
and analysis reports) at the documented desk scale.
"""

import contextlib
import hashlib
import io
import itertools
import json
import time
from pathlib import Path

import numpy as np
import pytest

from pnma.analysis import rank_distribution, read_eval_report
from pnma.checkpoint import is_encoder_param, load_checkpoint, load_model
from pnma.cli import dispatch
from pnma.crf import (
    CrfParams,
    crf_log_likelihood,
    emission_backward,
    emission_scores,
    gold_path_score,
    viterbi_decode,
)
from pnma.dataio import load_vocab, parse_conll_file
from pnma.encoder import encode_batch, encode_backward, init_encoder_params
from pnma.memory import ActivationMemory, deserialize_memory, knn_query
from pnma.neighborhood import (
    NeighborhoodParams,
    NeighborhoodWorkspace,
    neighborhood_backward,
    neighborhood_forward,
)
from pnma.numeric import finite_difference_check, make_rng

GRAD_TOL = 1e-4
FD_STEP = 1e-3

CORPUS_SEED = 1234
TRAIN_SEEDS = (1, 2, 3, 4, 5)
CHAIN_BUDGET_SECONDS = 600.0

REPO = Path(__file__).resolve().parent.parent
# the desk run configuration, shared with the quality harness, and the
# per-seed quality rows that harness committed
DESK_CONFIG = REPO / "scripts" / "desk.cfg"
BENCH_QUALITY = REPO / "BENCH_quality.json"
# each committed artifact digest's row field, and the chain's path key of its file
DIGESTS = {"base_sha256": "base", "memory_sha256": "memory", "adapted_sha256": "pnma",
           "base_preds_sha256": "base_preds", "adapted_preds_sha256": "pnma_preds"}


@contextlib.contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number} {name}: PASS")


def run_cli(*argv: str) -> str:
    """Dispatch a CLI command, asserting success; returns captured stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = dispatch(list(argv))
    assert code == 0, f"{argv[0]} exited {code}: {err.getvalue()}"
    return err.getvalue()


def chain_once(root: Path, seed: int) -> dict:
    """One full training chain at the acceptance scale for one seed."""
    data = root / "data"
    vocab = root / "vocab.txt"
    if not data.exists():
        run_cli(
            "gen-synthetic", "--out-dir", str(data),
            "--train-size", "2000", "--valid-size", "300", "--test-size", "300",
            "--exception-rate", "0.05", "--seed", str(CORPUS_SEED),
        )
        run_cli("prepare", "--train", f"{data}/train.conll", "--out", str(vocab))
    tag = f"seed{seed}"
    paths = {
        "base": str(root / f"base.{tag}.ckpt"),
        "memory": str(root / f"memory.{tag}.bin"),
        "pnma": str(root / f"pnma.{tag}.ckpt"),
        "base_preds": str(root / f"base_preds.{tag}.conll"),
        "pnma_preds": str(root / f"pnma_preds.{tag}.conll"),
        "base_eval": str(root / f"base_eval.{tag}.tsv"),
        "pnma_eval": str(root / f"pnma_eval.{tag}.tsv"),
        "disagreement": str(root / f"disagreement.{tag}.tsv"),
        "data": str(data),
        "vocab": str(vocab),
    }
    run_cli(
        "train-base", "--config", str(DESK_CONFIG), "--seed", str(seed),
        "--train", f"{data}/train.conll", "--valid", f"{data}/valid.conll",
        "--vocab", str(vocab), "--out", paths["base"],
    )
    run_cli(
        "build-memory", "--checkpoint", paths["base"],
        "--train", f"{data}/train.conll", "--vocab", str(vocab),
        "--out", paths["memory"], "--fraction", "0.15", "--seed", str(seed),
    )
    stderr_pnma = run_cli(
        "train-pnma", "--seed", str(seed),
        "--checkpoint", paths["base"], "--memory", paths["memory"],
        "--train", f"{data}/train.conll", "--valid", f"{data}/valid.conll",
        "--vocab", str(vocab), "--out", paths["pnma"],
    )
    run_cli(
        "predict", "--checkpoint", paths["base"],
        "--input", f"{data}/test.conll", "--vocab", str(vocab),
        "--out", paths["base_preds"],
    )
    run_cli(
        "predict", "--checkpoint", paths["pnma"], "--memory", paths["memory"],
        "--input", f"{data}/test.conll", "--vocab", str(vocab),
        "--out", paths["pnma_preds"],
    )
    run_cli(
        "evaluate", "--gold", f"{data}/test.conll",
        "--pred", paths["base_preds"], "--out", paths["base_eval"],
    )
    run_cli(
        "evaluate", "--gold", f"{data}/test.conll",
        "--pred", paths["pnma_preds"], "--out", paths["pnma_eval"],
    )
    run_cli(
        "analyze", "disagreement", "--gold", f"{data}/test.conll",
        "--pred-base", paths["base_preds"], "--pred-pnma", paths["pnma_preds"],
        "--train", f"{data}/train.conll", "--out", paths["disagreement"],
    )
    counts = {}
    for line in open(paths["disagreement"], encoding="utf-8"):
        cols = line.rstrip("\n").split("\t")
        if cols[0] in ("corrected", "regressed", "both_wrong", "both_correct"):
            counts[cols[0]] = int(cols[1])
    return {
        "paths": paths,
        "base_f1": read_eval_report(paths["base_eval"]).f1,
        "pnma_f1": read_eval_report(paths["pnma_eval"]).f1,
        "counts": counts,
        "stderr_pnma": stderr_pnma,
    }


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance_chain")
    started = time.perf_counter()
    runs = {seed: chain_once(root, seed) for seed in TRAIN_SEEDS}
    elapsed = time.perf_counter() - started
    return {"root": root, "runs": runs, "seconds": elapsed}


class TestCriterion1GradientSuite:
    def test_gradient_suite(self):
        with criterion(1, "gradient-suite"):
            started = time.perf_counter()
            rng = make_rng(101)
            d, n_tags, k = 8, 3, 4
            encoder = init_encoder_params(
                vocab_size=7, d_word=4, d_pred=4, d_hidden=d, n_layers=2,
                rng=rng, dtype=np.float64,
            )
            crf = CrfParams(
                emit_w=rng.normal(size=(n_tags, d)),
                emit_b=rng.normal(size=n_tags),
                trans=rng.normal(size=(n_tags, n_tags)),
                start=rng.normal(size=n_tags),
                stop=rng.normal(size=n_tags),
            )
            word_ids = np.array([[1, 3, 6]])
            bits = np.array([[0, 1, 0]])
            gold = np.array([0, 2, 1])

            # embedding concat + LSTM steps + connection layers, end to end
            # through the CRF emission path
            def base_loss_fn():
                h, cache = encode_batch(word_ids, bits, encoder, want_cache=True)
                em = emission_scores(h[0], crf)
                ll, cg = crf_log_likelihood(em, gold, crf)
                d_em = -cg.emissions
                d_h, d_ew, d_eb = emission_backward(d_em, h[0], crf)
                enc_grads = encode_backward(d_h[None], cache, encoder)
                enc_grads["emit.w"] = d_ew
                enc_grads["emit.b"] = d_eb
                enc_grads["crf.trans"] = -cg.trans
                enc_grads["crf.start"] = -cg.start
                enc_grads["crf.stop"] = -cg.stop
                return -ll, enc_grads

            _, grads = base_loss_fn()
            tensors = {**encoder.to_dict(), "emit.w": crf.emit_w, "emit.b": crf.emit_b,
                       "crf.trans": crf.trans, "crf.start": crf.start, "crf.stop": crf.stop}
            for name, arr in tensors.items():
                def loss(t, _arr=arr):
                    saved = _arr.copy()
                    _arr[...] = t.reshape(_arr.shape)
                    try:
                        return base_loss_fn()[0]
                    finally:
                        _arr[...] = saved

                err = finite_difference_check(loss, arr.copy(), grads[name], step=FD_STEP)
                assert err < GRAD_TOL, f"phase-1 path gradient for {name}: {err}"

            # neighborhood path (weights + representation) through the same
            # CRF head, memory and encoder activations held fixed
            h_q = rng.normal(size=(3, d))
            m = rng.normal(size=(3, k, d))
            nbr = NeighborhoodParams(n=rng.normal(size=(k, d)))

            def pnma_loss_fn():
                _, rep, cache = neighborhood_forward(h_q, m, nbr, None, NeighborhoodWorkspace())
                em = emission_scores(rep, crf)
                ll, cg = crf_log_likelihood(em, gold, crf)
                d_rep, _, _ = emission_backward(-cg.emissions, rep, crf)
                d_n, d_h, d_m = neighborhood_backward(d_rep, cache, nbr)
                return -ll, d_n, d_h, d_m

            _, d_n, d_h, d_m = pnma_loss_fn()

            def loss_n(t):
                saved = nbr.n.copy()
                nbr.n[...] = t.reshape(nbr.n.shape)
                try:
                    return pnma_loss_fn()[0]
                finally:
                    nbr.n[...] = saved

            def loss_h(t):
                nonlocal h_q
                saved = h_q
                h_q = t.reshape(saved.shape)
                try:
                    return pnma_loss_fn()[0]
                finally:
                    h_q = saved

            def loss_m(t):
                nonlocal m
                saved = m
                m = t.reshape(saved.shape)
                try:
                    return pnma_loss_fn()[0]
                finally:
                    m = saved

            assert finite_difference_check(loss_n, nbr.n.copy(), d_n, step=FD_STEP) < GRAD_TOL
            assert finite_difference_check(loss_h, h_q.copy(), d_h, step=FD_STEP) < GRAD_TOL
            assert finite_difference_check(loss_m, m.copy(), d_m, step=FD_STEP) < GRAD_TOL

            assert time.perf_counter() - started < 60.0


class TestCriterion2CrfOracle:
    def test_crf_oracle_200_instances(self):
        with criterion(2, "crf-oracle"):
            started = time.perf_counter()
            rng = make_rng(202)
            for _ in range(200):
                n = int(rng.integers(1, 7))
                y = int(rng.integers(2, 5))
                em = rng.normal(scale=2.0, size=(n, y))
                params = CrfParams(
                    emit_w=np.zeros((y, 1)),
                    emit_b=np.zeros(y),
                    trans=rng.normal(scale=1.5, size=(y, y)),
                    start=rng.normal(size=y),
                    stop=rng.normal(size=y),
                )
                gold = rng.integers(0, y, size=n)
                ll, _ = crf_log_likelihood(em, gold, params)
                log_z = gold_path_score(em, gold, params) - ll
                scores = [
                    gold_path_score(em, np.array(p), params)
                    for p in itertools.product(range(y), repeat=n)
                ]
                mx = max(scores)
                brute_log_z = mx + np.log(np.sum(np.exp(np.array(scores) - mx)))
                assert abs(log_z - brute_log_z) < 1e-8
                path = viterbi_decode(em, params)
                assert gold_path_score(em, path, params) == pytest.approx(mx, abs=1e-8)
            assert time.perf_counter() - started < 60.0


class TestCriterion3KnnOracle:
    def test_knn_oracle(self):
        with criterion(3, "knn-oracle"):
            started = time.perf_counter()
            rng = make_rng(303)
            n, d, k, n_q = 1000, 16, 8, 100
            vectors = rng.normal(size=(n, d)).astype(np.float32)
            # plant duplicated vectors so ties at the k-th boundary occur
            for i in range(30):
                vectors[n - 1 - i] = vectors[i]
            memory = ActivationMemory(
                vectors=vectors,
                labels=rng.integers(0, 5, size=n),
                provenance=[(f"s{i}", 0) for i in range(n)],
            )
            queries = rng.normal(size=(n_q, d)).astype(np.float32)
            queries[:15] = vectors[5:20]  # exact hits, including duplicated ones
            results = knn_query(queries, memory, k)
            for qi in range(n_q):
                q = queries[qi].astype(np.float64)
                rows = sorted(
                    (float(np.square(q - memory.vectors[i].astype(np.float64)).sum()), i)
                    for i in range(n)
                )[:k]
                ids = np.array([i for _, i in rows])
                dists = np.sqrt(np.array([dd for dd, _ in rows]))
                np.testing.assert_array_equal(results[qi].entry_ids, ids)
                np.testing.assert_array_equal(results[qi].distances, dists)
            assert time.perf_counter() - started < 30.0


class TestCriterion4NeighborhoodUnitTruths:
    def test_unit_truths(self):
        with criterion(4, "neighborhood-unit-truths"):
            rng = make_rng(404)
            # eta sums to one
            for _ in range(100):
                k, d = int(rng.integers(1, 9)), int(rng.integers(1, 8))
                params = NeighborhoodParams(n=rng.normal(size=(k, d)))
                eta, _, _ = neighborhood_forward(
                    rng.normal(size=d), rng.normal(size=(k, d)), params, None,
                    NeighborhoodWorkspace()
                )
                assert abs(eta.sum() - 1.0) < 1e-12
            # K=1 returns the neighbor bit for bit (double precision)
            m1 = rng.normal(size=(1, 6))
            params1 = NeighborhoodParams(n=rng.normal(size=(1, 6)))
            _, rep, _ = neighborhood_forward(rng.normal(size=6), m1, params1,
                                             None, NeighborhoodWorkspace())
            np.testing.assert_array_equal(rep, m1[0])
            # all-zero parameters give uniform weights
            params0 = NeighborhoodParams(n=np.zeros((5, 4)))
            eta0, _, _ = neighborhood_forward(
                rng.normal(size=4), rng.normal(size=(5, 4)), params0, None, NeighborhoodWorkspace()
            )
            np.testing.assert_allclose(eta0, np.full(5, 0.2), atol=1e-15, rtol=0)
            # joint permutation of (neighbors, rank vectors) leaves the result
            # exactly unchanged
            k, d = 6, 5
            nmat = rng.normal(size=(k, d))
            m = rng.normal(size=(k, d))
            h = rng.normal(size=d)
            for _ in range(10):
                perm = rng.permutation(k)
                eta_a, rep_a, _ = neighborhood_forward(h, m, NeighborhoodParams(n=nmat),
                                                       None, NeighborhoodWorkspace())
                eta_b, rep_b, _ = neighborhood_forward(
                    h, m[perm], NeighborhoodParams(n=nmat[perm]), None, NeighborhoodWorkspace()
                )
                np.testing.assert_array_equal(rep_a, rep_b)
                np.testing.assert_array_equal(eta_a[perm], eta_b)


class TestCriterion5FreezeContract:
    def test_freeze_contract(self, chain):
        with criterion(5, "freeze-contract"):
            for seed, run in chain["runs"].items():
                base_params, _, _ = load_checkpoint(run["paths"]["base"])
                pnma_params, _, _ = load_checkpoint(run["paths"]["pnma"])
                frozen = [name for name in base_params if is_encoder_param(name)]
                assert frozen, "no encoder tensors found in checkpoint"
                for name in frozen:
                    assert (
                        base_params[name].tobytes() == pnma_params[name].tobytes()
                    ), f"seed {seed}: encoder tensor {name} changed in phase 2"
                assert "nbr.n" in pnma_params


class TestCriterion6SyntheticGain:
    def test_synthetic_gain(self, chain):
        with criterion(6, "synthetic-gain"):
            runs = chain["runs"]
            f1_wins = sum(1 for r in runs.values() if r["pnma_f1"] >= r["base_f1"])
            scenario_wins = sum(
                1 for r in runs.values()
                if r["counts"]["corrected"] > r["counts"]["regressed"]
            )
            summary = ", ".join(
                f"seed {s}: {r['base_f1']:.4f}->{r['pnma_f1']:.4f} "
                f"(s1 {r['counts']['corrected']}, s4 {r['counts']['regressed']})"
                for s, r in runs.items()
            )
            print(f"  synthetic-gain detail: {summary}")
            assert f1_wins >= 4, f"adapted F1 >= base F1 in only {f1_wins}/5 seeds"
            assert scenario_wins >= 4, (
                f"corrected > regressed in only {scenario_wins}/5 seeds"
            )
            assert chain["seconds"] < CHAIN_BUDGET_SECONDS, (
                f"chain took {chain['seconds']:.0f}s"
            )


def rank_histogram_lines(chain) -> list[str]:
    """Criterion 7's ``analyze rank-dist`` over the first seed's validation
    split: the lines of its base-incorrect histogram, run once per chain."""
    out_prefix = str(chain["root"] / "rankdist")
    if "rank_histogram" not in chain:
        paths = chain["runs"][TRAIN_SEEDS[0]]["paths"]
        run_cli(
            "analyze", "rank-dist", "--checkpoint", paths["base"],
            "--memory", paths["memory"],
            "--input", f"{paths['data']}/valid.conll",
            "--vocab", paths["vocab"], "--out", out_prefix, "--k", "64",
        )
        chain["rank_histogram"] = open(out_prefix + ".incorrect.tsv",
                                       encoding="utf-8").read().splitlines()
    return chain["rank_histogram"]


class TestCommittedQualityRows:
    def test_chain_matches_bench_quality(self, chain):
        # a change that moves quality must regenerate the committed file:
        # python3 scripts/run_synthetic_benchmark.py --out BENCH_quality.json
        bench = json.loads(BENCH_QUALITY.read_text(encoding="utf-8"))
        rows = {r["seed"]: r for r in bench["rows"]}
        assert sorted(rows) == list(TRAIN_SEEDS)
        for seed, run in chain["runs"].items():
            got = {"base_f1": run["base_f1"], "adapted_f1": run["pnma_f1"],
                   "corrected": run["counts"]["corrected"],
                   "regressed": run["counts"]["regressed"]}
            assert got == {k: rows[seed][k] for k in got}, f"seed {seed}"
            # byte identity, under one BLAS build: the checkpoints, the memory
            # and both prediction files are the files the harness wrote
            paths = run["paths"]
            digests = {field: hashlib.sha256(Path(paths[key]).read_bytes()).hexdigest()
                       for field, key in DIGESTS.items()}
            differ = [f for f in DIGESTS if digests[f] != rows[seed][f]]
            assert not differ, f"seed {seed}: {differ} differ from BENCH_quality.json"
        rank1 = rank_histogram_lines(chain)[1].split("\t")
        assert rank1[0] == "1"
        assert rows[TRAIN_SEEDS[0]]["rank1_share_incorrect"] == float(rank1[1])


class TestCriterion7RankHistogram:
    def test_rank_histogram(self, chain):
        with criterion(7, "rank-histogram"):
            paths = chain["runs"][TRAIN_SEEDS[0]]["paths"]
            # the emitted file follows the documented format
            lines = rank_histogram_lines(chain)
            assert lines[0] == "rank\tnormalized_frequency"
            assert len(lines) == 66  # header + ranks 1..64 + absent
            assert lines[-1].startswith("absent\t")
            freqs = [float(l.split("\t")[1]) for l in lines[1:]]
            assert abs(sum(freqs) - 1.0) < 1e-3

            # median over base-mispredicted tokens is <= K/8
            model = load_model(paths["base"])
            vocab = load_vocab(paths["vocab"])
            memory = deserialize_memory(paths["memory"])
            valid = parse_conll_file(f"{paths['data']}/valid.conll")
            hist = rank_distribution(
                model.encoder, model.crf, vocab, memory, valid, k=64
            )
            n_wrong = sum(hist.incorrect.values())
            assert n_wrong > 0, "base model made no validation errors to rank"
            med = hist.median_rank("incorrect")
            print(f"  rank-histogram detail: median {med} over {n_wrong} tokens")
            assert med <= 8.0, f"median first-correct-neighbor rank {med} > 8"


class TestCriterion8Determinism:
    def test_repeat_run_byte_identical(self, chain):
        with criterion(8, "determinism"):
            seed = TRAIN_SEEDS[0]
            rerun_root = chain["root"] / "rerun"
            rerun_root.mkdir()
            rerun = chain_once(rerun_root, seed)
            first = chain["runs"][seed]["paths"]
            second = rerun["paths"]
            for key in ("base", "memory", "pnma", "base_preds", "pnma_preds",
                        "base_eval", "pnma_eval", "disagreement"):
                a = Path(first[key]).read_bytes()
                b = Path(second[key]).read_bytes()
                assert a == b, f"artifact {key} differs between identical runs"
            for key in ("base", "pnma"):
                a = Path(first[key] + ".log").read_bytes()
                b = Path(second[key] + ".log").read_bytes()
                assert a == b, f"training log {key} differs between identical runs"


class TestCriterion9OverheadReporting:
    def test_overhead_reported(self, chain):
        with criterion(9, "overhead-reporting"):
            # not a hard bound: the CLI must report phase-2 wall time and
            # per-token retrieval time so the overhead can be inspected
            err = chain["runs"][TRAIN_SEEDS[0]]["stderr_pnma"]
            assert "wall time" in err
            assert "ms/token" in err
            print(f"  overhead detail: {err.strip().splitlines()[-1]}")
