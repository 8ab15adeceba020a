"""Command-line entry point.

Subcommands: prepare, train-base, build-memory, train-pnma, predict,
evaluate, analyze {rank-dist | confusion-diff | disagreement | neighbors},
gen-synthetic.  Exit codes: 0 success, 1 usage error, 2 data/format error,
3 numeric failure.  All randomness is governed by --seed (or the config
file); timing information goes to stderr so report files stay reproducible.

Every flag changes a result, and each phase's settings have one source.
train-base reads --config under a flag for each ``TrainConfig`` key but
``threads`` (phase 1 does not read it) and ``d_pred`` (set in the file only):
--seed, --epochs, --phase2-epochs, --batch-size, --k, --memory-fraction,
--base-lr, --phase2-lr, --d-word, --d-hidden, --n-layers, --dropout-embed,
--dropout-layer, --scheme and --neighborhood-mode.  train-pnma inherits its
base checkpoint's config under a flag for each key phase 2 reads: --seed,
--batch-size, --threads, --k, --phase2-epochs, --phase2-lr, --scheme and
--neighborhood-mode; its phase-1 and shape keys are always the base's.
prepare takes --train, --out and --min-frequency, and evaluate --scheme
picks the F1 definition.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
import time

import numpy as np

from . import analysis, dataio, synthetic
from .checkpoint import Model, load_model, save_model
from .config import load_run_config
from .errors import CompatibilityError, ConfigError, CoverageError, NumericError, PnmaError
from .inference import predict_base_corpus, predict_pnma_corpus
from .memory import ActivationMemory, build_memory, deserialize_memory, serialize_memory
from .neighborhood import MODES
from .training import predicate_frequency_table, train_base, train_pnma

USAGE_EXIT = 1
DATA_EXIT = 2
NUMERIC_EXIT = 3

# every toolkit error but NumericError (which exit_code_for tests first) is a
# data error, so a new subclass needs no entry here
_DATA_ERRORS = (PnmaError, OSError)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep usage problems on exit code 1
        raise UsageError(message)


# flag, TrainConfig field, and the value type or the allowed choices
_CONFIG_FLAGS: tuple[tuple[str, str, type | tuple[str, ...]], ...] = (
    ("--seed", "seed", int),
    ("--epochs", "epochs", int),
    ("--phase2-epochs", "phase2_epochs", int),
    ("--batch-size", "batch_size", int),
    ("--threads", "threads", int),
    ("--k", "k_neighbors", int),
    ("--memory-fraction", "memory_fraction", float),
    ("--base-lr", "base_lr", float),
    ("--phase2-lr", "phase2_lr", float),
    ("--d-word", "d_word", int),
    ("--d-hidden", "d_hidden", int),
    ("--n-layers", "n_layers", int),
    ("--dropout-embed", "dropout_embed", float),
    ("--dropout-layer", "dropout_layer", float),
    ("--scheme", "scheme", dataio.SCHEMES),
    ("--neighborhood-mode", "neighborhood_mode", MODES),
)
# train-base reads no threads; train-pnma takes the keys phase 2 reads and
# inherits every other key from its base checkpoint
_BASE_KEYS = frozenset(dest for _, dest, _ in _CONFIG_FLAGS) - {"threads"}
_PNMA_KEYS = frozenset({"seed", "batch_size", "threads", "k_neighbors", "phase2_epochs",
                        "phase2_lr", "scheme", "neighborhood_mode"})


def _add_config_flags(p: argparse.ArgumentParser, keys: frozenset[str]) -> None:
    for flag, dest, kind in _CONFIG_FLAGS:
        if dest not in keys:
            continue
        if isinstance(kind, tuple):
            p.add_argument(flag, dest=dest, choices=kind)
        else:
            p.add_argument(flag, dest=dest, type=kind)


def _overrides_from_args(args: argparse.Namespace) -> dict:
    return {dest: getattr(args, dest) for _, dest, _ in _CONFIG_FLAGS
            if getattr(args, dest, None) is not None}


def _threads(args) -> int:
    """``--threads``, 1 when not given; like ``TrainConfig.threads``, at least 1."""
    if args.threads is None:
        return 1
    if args.threads < 1:
        raise ConfigError(f"--threads must be at least 1, got {args.threads}")
    return args.threads


def _best_epoch(result) -> str:
    if not result.best_epoch:
        return "no epoch ran"
    if math.isnan(result.best_f1):  # a validation F1 is never NaN
        return f"last epoch {result.best_epoch} (no validation data)"
    return f"best epoch {result.best_epoch} (F1 {result.best_f1:.4f})"


def _load_vocab_for(model: Model, path: str) -> dataio.Vocabulary:
    """The vocabulary at ``path``, which must be the one ``model`` was trained
    with: as many tags as its CRF and, with a word table, as many words."""
    vocab = dataio.load_vocab(path)
    if model.crf.n_tags != vocab.n_tags:
        raise CompatibilityError(f"{path}: vocabulary has {vocab.n_tags} tags, "
                                 f"the checkpoint {model.crf.n_tags}")
    words = model.encoder.word_emb
    if words is not None and words.shape[0] != vocab.n_words:
        raise CompatibilityError(f"{path}: vocabulary has {vocab.n_words} words, "
                                 f"the checkpoint's word table {words.shape[0]}")
    return vocab


def _load_memory_for(path: str, vocab: dataio.Vocabulary, model: Model) -> ActivationMemory:
    """The memory at ``path``, whose gold labels must all be tags of ``vocab``;
    with a base ``model``, it must have been built from that checkpoint.  An
    adapted checkpoint records no base digest to compare with."""
    memory = deserialize_memory(path)
    if model.nbr is None and memory.source_digest != model.digest:
        raise CompatibilityError(f"{path}: memory built from checkpoint "
                                 f"{memory.source_digest[:12]}..., not from this one "
                                 f"({model.digest[:12]}...)")
    if len(memory) and memory.labels.max() >= vocab.n_tags:
        raise CompatibilityError(f"{path}: memory label {int(memory.labels.max())} is not "
                                 f"one of the vocabulary's {vocab.n_tags} tags")
    return memory


def _maybe_external(path: str | None, instances):
    if path is None:
        return None
    return dataio.load_external_embeddings(path, instances)


def _save_trained(args, result, cfg) -> str:
    """Write a training result's checkpoint to ``--out`` and its epoch log to
    ``--log`` (default ``<out>.log``); returns the checkpoint digest."""
    digest = save_model(args.out, Model(result.encoder, result.crf, result.nbr, cfg))
    with open(args.log or (args.out + ".log"), "w", encoding="utf-8") as fh:
        fh.writelines(line + "\n" for line in result.log_lines)
    return digest


def cmd_prepare(args) -> int:
    instances = dataio.parse_conll_file(args.train)
    vocab = dataio.build_vocab(instances, min_frequency=args.min_frequency)
    dataio.save_vocab(vocab, args.out)
    print(
        f"prepare: {len(instances)} instances, {vocab.n_words} words, "
        f"{vocab.n_tags} tags -> {args.out}",
        file=sys.stderr,
    )
    return 0


def cmd_train_base(args) -> int:
    cfg = load_run_config(args.config, _overrides_from_args(args))
    vocab = dataio.load_vocab(args.vocab)
    train_set = dataio.parse_conll_file(args.train)
    valid_set = dataio.parse_conll_file(args.valid) if args.valid else None
    external = _maybe_external(args.embeddings, train_set + (valid_set or []))
    result = train_base(train_set, valid_set, vocab, cfg, external=external)
    digest = _save_trained(args, result, cfg)
    print(
        f"train-base: {_best_epoch(result)}; "
        f"wall time {result.seconds:.1f} s; checkpoint {digest[:12]} -> {args.out}",
        file=sys.stderr,
    )
    return 0


def cmd_build_memory(args) -> int:
    model = load_model(args.checkpoint)
    vocab = _load_vocab_for(model, args.vocab)
    instances = dataio.parse_conll_file(args.train)
    external = _maybe_external(args.embeddings, instances)
    memory = build_memory(
        model.encoder,
        vocab,
        instances,
        fraction=model.config.memory_fraction if args.fraction is None else args.fraction,
        seed=args.seed,
        source_digest=model.digest,
        external=external,
    )
    serialize_memory(memory, args.out)
    print(
        f"build-memory: {len(memory)} entries of width {memory.d} -> {args.out}",
        file=sys.stderr,
    )
    return 0


def cmd_train_pnma(args) -> int:
    base = load_model(args.checkpoint)
    cfg = dataclasses.replace(base.config, **_overrides_from_args(args))
    vocab = _load_vocab_for(base, args.vocab)
    memory = _load_memory_for(args.memory, vocab, base)
    train_set = dataio.parse_conll_file(args.train)
    valid_set = dataio.parse_conll_file(args.valid) if args.valid else None
    external = _maybe_external(args.embeddings, train_set + (valid_set or []))
    result = train_pnma(
        base.encoder, base.crf, base.digest, memory,
        train_set, valid_set, vocab, cfg, external=external,
    )
    digest = _save_trained(args, result, cfg)
    print(
        f"train-pnma: {_best_epoch(result)}; "
        f"phase-2 wall time {result.seconds:.1f} s; retrieval "
        f"{result.retrieval_ms_per_token:.3f} ms/token over {result.retrieval_tokens} tokens; "
        f"checkpoint {digest[:12]} -> {args.out}",
        file=sys.stderr,
    )
    return 0


def cmd_predict(args) -> int:
    threads = _threads(args)
    model = load_model(args.checkpoint)
    if model.nbr is not None and args.memory is None:
        raise ConfigError("predict: this checkpoint needs --memory (neighborhood model)")
    if model.nbr is None and args.memory is not None:
        raise ConfigError("predict: --memory given, but this checkpoint is a base model")
    vocab = _load_vocab_for(model, args.vocab)
    instances = dataio.parse_conll_file(args.input)
    external = _maybe_external(args.embeddings, instances)
    if model.nbr is not None:
        memory = _load_memory_for(args.memory, vocab, model)
        preds = predict_pnma_corpus(
            instances, model.encoder, model.crf, model.nbr, memory, vocab,
            model.config.k_neighbors, external=external, threads=threads,
        )
    else:
        preds = predict_base_corpus(instances, model.encoder, model.crf, vocab, external=external)
    with open(args.out, "w", encoding="utf-8") as fh:
        for inst, pred in zip(instances, preds):
            fh.write(dataio.format_predictions(inst, vocab.tag_strings(pred)))
    print(f"predict: {len(instances)} sentences -> {args.out}", file=sys.stderr)
    return 0


def cmd_evaluate(args) -> int:
    gold = dataio.parse_conll_file(args.gold)
    pred = dataio.parse_conll_file(args.pred)
    report = analysis.evaluate_labels(
        [list(i.gold_labels) for i in gold],
        [list(i.gold_labels) for i in pred],
        args.scheme,
    )
    analysis.write_eval_report(report, args.out)
    print(
        f"evaluate: P {report.precision:.4f} R {report.recall:.4f} F1 {report.f1:.4f} "
        f"-> {args.out}",
        file=sys.stderr,
    )
    return 0


def cmd_gen_synthetic(args) -> int:
    stats = synthetic.gen_synthetic(
        args.out_dir,
        train_size=args.train_size,
        valid_size=args.valid_size,
        test_size=args.test_size,
        exception_rate=args.exception_rate,
        seed=args.seed,
    )
    st = stats["train"]
    print(
        f"gen-synthetic: train {st.sentences} sentences / {st.tokens} tokens "
        f"({st.exception_sentences} exception sentences) -> {args.out_dir}",
        file=sys.stderr,
    )
    return 0


def cmd_analyze_rank_dist(args) -> int:
    threads = _threads(args)
    model = load_model(args.checkpoint)
    if model.nbr is not None:  # its CRF reads the neighborhood's output, not activations
        raise ConfigError("analyze rank-dist: this checkpoint is an adapted model; "
                          "give the base checkpoint the memory was built from")
    vocab = _load_vocab_for(model, args.vocab)
    memory = _load_memory_for(args.memory, vocab, model)
    instances = dataio.parse_conll_file(args.input)
    external = _maybe_external(args.embeddings, instances)
    hist = analysis.rank_distribution(
        model.encoder, model.crf, vocab, memory, instances,
        k=args.k, exclude_self=args.exclude_self, external=external,
        threads=threads,
    )
    for which in ("correct", "incorrect"):
        path = f"{args.out}.{which}.tsv"
        analysis.write_histogram(hist.normalized(which), path)
    med = hist.median_rank("incorrect")
    print(
        f"analyze rank-dist: median first-correct rank over base-incorrect tokens: {med}",
        file=sys.stderr,
    )
    return 0


def cmd_analyze_confusion_diff(args) -> int:
    gold = dataio.parse_conll_file(args.gold)
    pred_a = dataio.parse_conll_file(args.pred_a)
    pred_b = dataio.parse_conll_file(args.pred_b)
    mat, labels = analysis.confusion_diff(
        [list(i.gold_labels) for i in gold],
        [list(i.gold_labels) for i in pred_a],
        [list(i.gold_labels) for i in pred_b],
        top_n_labels=args.top_n,
    )
    analysis.write_matrix(mat, labels, args.out)
    print(f"analyze confusion-diff: {len(labels)} labels -> {args.out}", file=sys.stderr)
    return 0


def cmd_analyze_disagreement(args) -> int:
    threads = _threads(args)
    if (args.checkpoint is None) != (args.memory is None):
        raise ConfigError("analyze disagreement: --checkpoint and --memory must be given "
                          "together")
    if args.checkpoint is None:
        for flag in ("vocab", "k", "embeddings", "threads"):
            if getattr(args, flag) is not None:
                raise ConfigError(f"analyze disagreement: --{flag} counts neighbors, "
                                  "which needs --checkpoint and --memory")
    gold = dataio.parse_conll_file(args.gold)
    base_preds = dataio.parse_conll_file(args.pred_base)
    pnma_preds = dataio.parse_conll_file(args.pred_pnma)
    train_set = dataio.parse_conll_file(args.train)
    freq = predicate_frequency_table(train_set)
    nbr_counts = None
    if args.checkpoint is not None:
        model = load_model(args.checkpoint)
        if not args.vocab:
            raise ConfigError("analyze disagreement: --vocab required with --checkpoint")
        vocab = _load_vocab_for(model, args.vocab)
        memory = _load_memory_for(args.memory, vocab, model)
        nbr_counts = analysis.neighborhood_label_counts(
            model.encoder, vocab, memory, gold, k=64 if args.k is None else args.k,
            external=_maybe_external(args.embeddings, gold), threads=threads,
        )
    report = analysis.disagreement_report(
        gold,
        [list(i.gold_labels) for i in base_preds],
        [list(i.gold_labels) for i in pnma_preds],
        freq,
        neighborhood_counts=nbr_counts,
    )
    analysis.write_disagreement(report, args.out)
    print(
        f"analyze disagreement: corrected {report.scenario_counts[0]}, "
        f"regressed {report.scenario_counts[3]} (ratio {report.ratio:.2f}) -> {args.out}",
        file=sys.stderr,
    )
    return 0


def cmd_analyze_neighbors(args) -> int:
    model = load_model(args.checkpoint)
    vocab = _load_vocab_for(model, args.vocab)
    memory = _load_memory_for(args.memory, vocab, model)
    instances = dataio.parse_conll_file(args.input)
    sources = {i.sentence_id: i for i in dataio.parse_conll_file(args.sources)}
    target = next((i for i in instances if i.sentence_id == args.sentence_id), None)
    if target is None:
        raise CoverageError(f"analyze neighbors: no sentence with id {args.sentence_id!r}")
    rows = analysis.neighbor_dump(
        model.encoder, vocab, memory, target, args.token_index,
        k=args.k, context_window=args.window, sources=sources,
        external=_maybe_external(args.embeddings, [target]),
    )
    analysis.write_neighbor_dump(rows, args.out)
    print(f"analyze neighbors: {len(rows)} neighbors -> {args.out}", file=sys.stderr)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="pnma", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("prepare", help="build a vocabulary file from a training corpus")
    p.add_argument("--train", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--min-frequency", type=int, default=2)
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("train-base", help="phase-1 end-to-end base training")
    p.add_argument("--train", required=True)
    p.add_argument("--valid")
    p.add_argument("--vocab", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--log")
    p.add_argument("--embeddings", help="external per-token embedding file")
    p.add_argument("--config", help="run-config file (key = value lines)")
    _add_config_flags(p, _BASE_KEYS)
    p.set_defaults(func=cmd_train_base)

    p = sub.add_parser("build-memory", help="build the activation memory from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--fraction", type=float,
                   help="memory fraction; default: the checkpoint's memory_fraction")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--embeddings")
    p.set_defaults(func=cmd_build_memory)

    p = sub.add_parser("train-pnma", help="phase-2 frozen-encoder neighborhood training")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--memory", required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--valid")
    p.add_argument("--vocab", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--log")
    p.add_argument("--embeddings")
    _add_config_flags(p, _PNMA_KEYS)
    p.set_defaults(func=cmd_train_pnma)

    p = sub.add_parser("predict", help="tag a corpus with a trained checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--memory")
    p.add_argument("--embeddings")
    p.add_argument("--threads", type=int)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="score a prediction file against gold")
    p.add_argument("--gold", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--scheme", choices=dataio.SCHEMES, default="bio-span")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("gen-synthetic", help="generate a seeded synthetic corpus")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--train-size", type=int, default=2000)
    p.add_argument("--valid-size", type=int, default=300)
    p.add_argument("--test-size", type=int, default=300)
    p.add_argument("--exception-rate", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gen_synthetic)

    pa = sub.add_parser("analyze", help="diagnostic reports")
    asub = pa.add_subparsers(dest="analysis", metavar="KIND")

    p = asub.add_parser("rank-dist", help="rank of first correct-label neighbor")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--memory", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--out", required=True, help="output prefix")
    p.add_argument("--k", type=int, default=64)
    p.add_argument("--exclude-self", action="store_true")
    p.add_argument("--embeddings")
    p.add_argument("--threads", type=int)
    p.set_defaults(func=cmd_analyze_rank_dist)

    p = asub.add_parser("confusion-diff", help="confusion matrix difference of two runs")
    p.add_argument("--gold", required=True)
    p.add_argument("--pred-a", required=True)
    p.add_argument("--pred-b", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--top-n", type=int, default=10)
    p.set_defaults(func=cmd_analyze_confusion_diff)

    p = asub.add_parser("disagreement", help="base-vs-adapted scenario statistics")
    p.add_argument("--gold", required=True)
    p.add_argument("--pred-base", required=True)
    p.add_argument("--pred-pnma", required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--checkpoint")
    p.add_argument("--memory")
    p.add_argument("--vocab")
    p.add_argument("--k", type=int, help="neighbors counted per token (default 64)")
    p.add_argument("--embeddings")
    p.add_argument("--threads", type=int)
    p.set_defaults(func=cmd_analyze_disagreement)

    p = asub.add_parser("neighbors", help="dump the nearest neighbors of one token")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--memory", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--sources", required=True, help="corpus holding the memory sentences")
    p.add_argument("--sentence-id", required=True)
    p.add_argument("--token-index", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--window", type=int, default=5)
    p.add_argument("--embeddings")
    p.set_defaults(func=cmd_analyze_neighbors)

    return parser


def dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except SystemExit as exc:  # --help
        return 0 if exc.code in (0, None) else USAGE_EXIT
    if getattr(args, "func", None) is None:
        parser.print_usage(sys.stderr)
        return USAGE_EXIT
    try:
        # a non-finite value is reported once, by the check that raises NumericError
        with np.errstate(all="ignore"):
            return args.func(args)
    except (*_DATA_ERRORS, UsageError) as exc:
        code = exit_code_for(exc)
        kind = {NUMERIC_EXIT: "numeric failure", USAGE_EXIT: "usage error"}.get(code, "error")
        print(f"{kind}: {exc}", file=sys.stderr)
        return code


def exit_code_for(exc: BaseException) -> int:
    if isinstance(exc, NumericError):
        return NUMERIC_EXIT
    if isinstance(exc, UsageError):
        return USAGE_EXIT
    if isinstance(exc, _DATA_ERRORS):
        return DATA_EXIT
    raise exc


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
