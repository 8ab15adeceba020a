#!/usr/bin/env python3
"""Quality harness: base tagger vs memory-adapted tagger, one row per seed.

Runs the desk chain for each seed on a seeded corpus with planted
low-frequency exception predicates, and prints per-seed test F1,
corrected/regressed token counts, the median first-correct-neighbor rank and
the share at rank 1 over base-mispredicted validation tokens, the sha256 of
the chain's five artifacts, and timings.  --out writes every row field but
the timings as JSON, so a rerun reproduces the file byte for byte:

    python3 scripts/run_synthetic_benchmark.py --out BENCH_quality.json
"""

import argparse
import contextlib
import dataclasses
import hashlib
import json
import math
import sys
import tempfile
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent
sys.path.insert(0, str(SCRIPTS.parent / "src"))

from pnma.analysis import disagreement_report, evaluate_labels, rank_distribution
from pnma.checkpoint import Model, save_model
from pnma.config import load_run_config
from pnma.dataio import build_vocab, format_predictions
from pnma.inference import predict_base_corpus, predict_pnma_corpus
from pnma.memory import build_memory, serialize_memory
from pnma.synthetic import generate_split
from pnma.training import predicate_frequency_table, train_base, train_pnma

# the chain's files by artifact; a row's <artifact>_sha256 field is the file's digest
ARTIFACTS = {"base": "base.seed{}.ckpt", "memory": "memory.seed{}.bin",
             "adapted": "pnma.seed{}.ckpt", "base_preds": "base_preds.seed{}.conll",
             "adapted_preds": "pnma_preds.seed{}.conll"}
# the row fields --out writes: all but the timings
QUALITY_FIELDS = ("seed", "base_f1", "adapted_f1", "corrected", "regressed",
                  "median_first_correct_rank", "rank1_share_incorrect",
                  *(f"{artifact}_sha256" for artifact in ARTIFACTS))


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--config", default=str(SCRIPTS / "desk.cfg"),
                    help="run-config file (key = value lines); default: the desk config")
    ap.add_argument("--out", help="write the rows' quality fields to this JSON file")
    ap.add_argument("--out-dir", help="keep checkpoints and memories here")
    ap.add_argument("--train-size", type=int, default=2000)
    ap.add_argument("--valid-size", type=int, default=300)
    ap.add_argument("--test-size", type=int, default=300)
    ap.add_argument("--exception-rate", type=float, default=0.05)
    ap.add_argument("--corpus-seed", type=int, default=1234)
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4, 5])
    return ap.parse_args()


def run_chain(seed, cfg, train, valid, test, vocab, freq, out_dir: Path) -> dict:
    """The desk chain for one seed: its row of quality fields and timings.
    Its files in ``out_dir`` hold the bytes the CLI chain writes: the two
    checkpoints, the memory, and each model's test predictions as ``predict``
    writes them."""
    cfg = dataclasses.replace(cfg, seed=seed)
    paths = {artifact: out_dir / name.format(seed) for artifact, name in ARTIFACTS.items()}
    base = train_base(train, valid, vocab, cfg)
    digest = save_model(str(paths["base"]),
                        Model(encoder=base.encoder, crf=base.crf, nbr=None, config=cfg))
    memory = build_memory(base.encoder, vocab, train, fraction=cfg.memory_fraction,
                          seed=seed, source_digest=digest)
    serialize_memory(memory, str(paths["memory"]))
    adapted = train_pnma(base.encoder, base.crf, digest, memory, train, valid, vocab, cfg)
    save_model(str(paths["adapted"]),
               Model(encoder=adapted.encoder, crf=adapted.crf, nbr=adapted.nbr, config=cfg))

    gold = [list(i.gold_labels) for i in test]
    base_labels = [vocab.tag_strings(p)
                   for p in predict_base_corpus(test, base.encoder, base.crf, vocab)]
    pnma_labels = [vocab.tag_strings(p) for p in predict_pnma_corpus(
        test, adapted.encoder, adapted.crf, adapted.nbr, memory, vocab, cfg.k_neighbors)]
    for artifact, labels in (("base_preds", base_labels), ("adapted_preds", pnma_labels)):
        paths[artifact].write_text("".join(map(format_predictions, test, labels)),
                                   encoding="utf-8")
    rep = disagreement_report(test, base_labels, pnma_labels, freq)
    hist = rank_distribution(base.encoder, base.crf, vocab, memory, valid, k=cfg.k_neighbors)
    median = hist.median_rank("incorrect")
    rank1_share = dict(hist.normalized("incorrect"))["1"]

    def f1(labels) -> float:  # rounded as evaluate's report writes it
        return float(f"{evaluate_labels(gold, labels, cfg.scheme).f1:.6f}")

    return {
        "seed": seed,
        "base_f1": f1(base_labels),
        "adapted_f1": f1(pnma_labels),
        "corrected": rep.scenario_counts[0],
        "regressed": rep.scenario_counts[3],
        "median_first_correct_rank": None if math.isnan(median) else median,
        "rank1_share_incorrect": float(f"{rank1_share:.6f}"),  # as rank-dist writes it
        **{f"{artifact}_sha256": hashlib.sha256(path.read_bytes()).hexdigest()
           for artifact, path in paths.items()},
        "base_s": base.seconds,
        "phase2_s": adapted.seconds,
        "retrieval_ms_per_token": adapted.retrieval_ms_per_token,
    }


def main():
    args = parse_args()
    cfg = load_run_config(args.config)
    train, train_stats = generate_split("train", args.train_size, args.exception_rate,
                                        args.corpus_seed)
    valid, _ = generate_split("valid", args.valid_size, args.exception_rate, args.corpus_seed)
    test, _ = generate_split("test", args.test_size, args.exception_rate, args.corpus_seed)
    vocab = build_vocab(train, min_frequency=2)
    freq = predicate_frequency_table(train)
    corpus = {
        "train_size": args.train_size, "valid_size": args.valid_size,
        "test_size": args.test_size, "exception_rate": args.exception_rate,
        "seed": args.corpus_seed, "train_tokens": train_stats.tokens,
        "exception_sentences": train_stats.exception_sentences,
        "words": vocab.n_words, "tags": vocab.n_tags,
    }
    print(
        f"corpus: {train_stats.tokens} train tokens, "
        f"{train_stats.exception_sentences} exception sentences, "
        f"{vocab.n_words} words, {vocab.n_tags} tags"
    )
    header = (
        "seed  base_F1  pnma_F1  corrected  regressed  median_rank  rank1_share  "
        "base_s  phase2_s  retrieval_ms/token"
    )
    print(header)
    print("-" * len(header))

    rows = []
    keep = contextlib.nullcontext(args.out_dir) if args.out_dir else tempfile.TemporaryDirectory()
    with keep as out_dir:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
        for seed in args.seeds:
            r = run_chain(seed, cfg, train, valid, test, vocab, freq, Path(out_dir))
            rows.append(r)
            print(
                f"{seed:4d}  {r['base_f1']:.4f}   {r['adapted_f1']:.4f}   "
                f"{r['corrected']:9d}  {r['regressed']:9d}  "
                f"{r['median_first_correct_rank'] or math.nan:11.1f}  "
                f"{r['rank1_share_incorrect']:11.4f}  "
                f"{r['base_s']:6.1f}  {r['phase2_s']:8.1f}  "
                f"{r['retrieval_ms_per_token']:18.3f}"
            )

    f1_wins = sum(1 for r in rows if r["adapted_f1"] >= r["base_f1"])
    scen_wins = sum(1 for r in rows if r["corrected"] > r["regressed"])
    overhead = [r["phase2_s"] / r["base_s"] for r in rows]
    print(f"\nadapted F1 >= base F1 in {f1_wins}/{len(rows)} seeds; "
          f"corrected > regressed in {scen_wins}/{len(rows)} seeds")
    print(f"phase-2/phase-1 wall-time ratio: min {min(overhead):.2f} / max {max(overhead):.2f}")

    if args.out:
        # seed varies by row, and threads never changes a result
        run_config = {k: v for k, v in dataclasses.asdict(cfg).items()
                      if k not in ("seed", "threads")}
        rows = [{k: r[k] for k in QUALITY_FIELDS} for r in rows]
        doc = {"corpus": corpus, "config": run_config, "rows": rows}
        Path(args.out).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
