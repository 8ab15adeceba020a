"""Evaluation metrics and diagnostics: span PRF (a per-token role is a
one-token span), rank histograms, confusion-matrix differences, disagreement
scenarios, neighbor dumps.  The token-level reports refuse gold and
predictions that disagree in sentence count or any sentence's length.

All report writers emit tab-separated text with a header line; the data files
are the contract.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping, Sequence, Sized

import numpy as np

from .crf import CrfParams
from .dataio import NULL_ROLE, Instance, TokenTable, Vocabulary, bio_decode_spans, read_text
from .encoder import EncoderParams
from .errors import CoverageError, DimensionError, DomainError, FormatError
from .inference import encode_and_retrieve, tag_rows
from .memory import ActivationMemory, self_exclusions


@dataclass
class EvalReport:
    precision: float
    recall: float
    f1: float
    matched: int
    n_predicted: int
    n_gold: int
    scheme: str
    per_label: dict[str, tuple[int, int, int]] = field(default_factory=dict)


def _prf(matched: int, n_pred: int, n_gold: int) -> tuple[float, float, float]:
    # 0/0 counts as 0 throughout
    p = matched / n_pred if n_pred else 0.0
    r = matched / n_gold if n_gold else 0.0
    f = 2 * p * r / (p + r) if (p + r) else 0.0
    return p, r, f


def _check_aligned(caller: str, gold: Sequence[Sized], others: Mapping[str, Sequence[Sized]]
                   ) -> None:
    """Each of ``others`` holds as many sentences as ``gold``, each as long as
    its gold one; the first that does not raises DimensionError."""
    for name, seqs in others.items():
        if len(seqs) != len(gold):
            raise DimensionError(f"{caller}: {len(gold)} gold sentences vs {len(seqs)} in {name}")
        for i, (g, s) in enumerate(zip(gold, seqs)):
            if len(g) != len(s):
                raise DimensionError(
                    f"{caller}: sentence {i} has {len(g)} gold tokens vs {len(s)} in {name}"
                )


def span_prf(
    gold_spans: Sequence[set[tuple[int, int, str]]],
    pred_spans: Sequence[set[tuple[int, int, str]]],
    scheme: str = "bio-span",
) -> EvalReport:
    """Micro P/R/F1 over exact (start, end, role) matches."""
    if len(gold_spans) != len(pred_spans):
        raise DimensionError(f"span_prf: {len(gold_spans)} gold vs {len(pred_spans)} predicted")
    matched = n_pred = n_gold = 0
    per_label: dict[str, list[int]] = {}
    for g, p in zip(gold_spans, pred_spans):
        hit = g & p
        matched += len(hit)
        n_pred += len(p)
        n_gold += len(g)
        for _, _, role in hit:
            per_label.setdefault(role, [0, 0, 0])[0] += 1
        for _, _, role in p:
            per_label.setdefault(role, [0, 0, 0])[1] += 1
        for _, _, role in g:
            per_label.setdefault(role, [0, 0, 0])[2] += 1
    prec, rec, f1 = _prf(matched, n_pred, n_gold)
    return EvalReport(
        precision=prec,
        recall=rec,
        f1=f1,
        matched=matched,
        n_predicted=n_pred,
        n_gold=n_gold,
        scheme=scheme,
        per_label={k: tuple(v) for k, v in sorted(per_label.items())},
    )


def _token_spans(labels: Sequence[str]) -> set[tuple[int, int, str]]:
    """Each label but ``dataio.NULL_ROLE`` as a one-token span."""
    return {(t, t, label) for t, label in enumerate(labels) if label != NULL_ROLE}


def evaluate_labels(
    gold: Sequence[Sequence[str]], predicted: Sequence[Sequence[str]], scheme: str
) -> EvalReport:
    """Span P/R/F1 under ``scheme``: BIO-decoded spans for bio-span, and for
    per-token-role (dependency-style argument classification) one-token spans."""
    _check_aligned("evaluate_labels", gold, {"predicted": predicted})
    spans = bio_decode_spans if scheme == "bio-span" else _token_spans
    return span_prf([spans(g) for g in gold], [spans(p) for p in predicted], scheme)


ABSENT = "absent"


@dataclass
class RankHistogram:
    """Rank of the first correct-label neighbor, split by base-model correctness."""

    k: int
    correct: Counter = field(default_factory=Counter)
    incorrect: Counter = field(default_factory=Counter)

    def normalized(self, which: str) -> list[tuple[str, float]]:
        counts = self.correct if which == "correct" else self.incorrect
        total = sum(counts.values())
        rows: list[tuple[str, float]] = []
        for rank in range(1, self.k + 1):
            rows.append((str(rank), counts.get(rank, 0) / total if total else 0.0))
        rows.append((ABSENT, counts.get(ABSENT, 0) / total if total else 0.0))
        return rows

    def median_rank(self, which: str) -> float:
        """Median rank with absent counted beyond K."""
        counts = self.correct if which == "correct" else self.incorrect
        values: list[float] = []
        for rank, c in counts.items():
            v = float(self.k + 1) if rank == ABSENT else float(rank)
            values.extend([v] * c)
        if not values:
            return math.nan
        return float(np.median(values))


def _same_label_neighbors(
    encoder: EncoderParams,
    vocab: Vocabulary,
    memory: ActivationMemory,
    instances: Sequence[Instance],
    k: int,
    exclude,
    external,
    threads: int,
) -> tuple[TokenTable, np.ndarray, np.ndarray, np.ndarray]:
    """The token table of ``instances``, its activations (T, d) and gold tag ids
    (T,), and (T, K) whether each token's K neighbors carry its gold label."""
    table, h, ids, _, _ = encode_and_retrieve(instances, encoder, vocab, memory, k, external,
                                              threads, exclude, False)
    gold = vocab.tag_ids([tag for inst in instances for tag in inst.gold_labels])
    return table, h, gold, memory.labels[ids] == gold[:, None]


def rank_distribution(
    encoder: EncoderParams,
    crf: CrfParams,
    vocab: Vocabulary,
    memory: ActivationMemory,
    instances: Sequence[Instance],
    k: int,
    exclude_self: bool = False,
    external=None,
    threads: int = 1,
) -> RankHistogram:
    """For each token, the rank of the first neighbor carrying its gold label.

    Tokens are split by whether the base model tagged them correctly; tokens
    with no correct-label neighbor within K land in the ``absent`` bucket.
    """
    exclude = self_exclusions(instances) if exclude_self else None
    table, h, gold, hits = _same_label_neighbors(encoder, vocab, memory, instances, k, exclude,
                                                 external, threads)
    ranks = np.where(hits.any(axis=1), hits.argmax(axis=1) + 1, 0)  # 0: absent
    preds = tag_rows(table, h, crf)
    base_ok = np.concatenate(preds) == gold if preds else np.zeros(0, dtype=bool)
    hist = RankHistogram(k=k)
    for counts, tokens in ((hist.correct, base_ok), (hist.incorrect, ~base_ok)):
        for rank in ranks[tokens].tolist():
            counts[rank or ABSENT] += 1
    return hist


def confusion_diff(
    gold: Sequence[Sequence[str]],
    preds_a: Sequence[Sequence[str]],
    preds_b: Sequence[Sequence[str]],
    top_n_labels: int = 10,
) -> tuple[np.ndarray, list[str]]:
    """confusion(preds_b) - confusion(preds_a) over the most frequent gold labels.

    Rows index gold labels, columns predicted labels, both restricted to the
    ``top_n_labels`` most frequent gold labels (descending frequency order).
    """
    if top_n_labels < 1:
        raise DomainError(f"confusion_diff: top_n_labels must be at least 1, got {top_n_labels}")
    _check_aligned("confusion_diff", gold, {"preds_a": preds_a, "preds_b": preds_b})
    freq: Counter[str] = Counter()
    for seq in gold:
        freq.update(seq)
    ranked = sorted(freq.items(), key=lambda kv: (-kv[1], kv[0]))
    labels = [lab for lab, _ in ranked[:top_n_labels]]
    index = {lab: i for i, lab in enumerate(labels)}
    mat = np.zeros((len(labels), len(labels)), dtype=np.int64)

    def accumulate(preds, sign: int) -> None:
        for g_seq, p_seq in zip(gold, preds):
            for g, p in zip(g_seq, p_seq):
                gi = index.get(g)
                pi = index.get(p)
                if gi is not None and pi is not None:
                    mat[gi, pi] += sign

    accumulate(preds_b, +1)
    accumulate(preds_a, -1)
    return mat, labels


# width of the disagreement report's bins of same-label neighbor counts
NBR_BUCKET_WIDTH = 8


@dataclass
class DisagreementReport:
    """Scenario counts: 1 corrected, 2 both wrong, 3 both correct, 4 regressed."""

    scenario_counts: tuple[int, int, int, int]
    ratio: float  # scenario1 / scenario4: inf when only corrections, nan when neither
    freq_buckets: list[tuple[str, tuple[int, int, int, int]]]
    nbr_buckets: list[tuple[str, tuple[int, int, int, int]]]


def power_of_two_bucket(value: int) -> str:
    """0, 1, 2-3, 4-7, 8-15, ... (log-scale frequency buckets)."""
    if value <= 0:
        return "0"
    lo = 1 << (value.bit_length() - 1)
    hi = 2 * lo - 1
    return str(lo) if lo == hi else f"{lo}-{hi}"


def _scenario(base_ok: bool, pnma_ok: bool) -> int:
    if not base_ok and pnma_ok:
        return 0  # corrected
    if not base_ok and not pnma_ok:
        return 1  # both wrong
    if base_ok and pnma_ok:
        return 2  # both correct
    return 3  # regressed


def disagreement_report(
    instances: Sequence[Instance],
    base_preds: Sequence[Sequence[str]],
    pnma_preds: Sequence[Sequence[str]],
    predicate_freq: Mapping[str, int],
    neighborhood_counts: Sequence[np.ndarray] | None = None,
) -> DisagreementReport:
    """Token-level base-vs-adapted outcome analysis against the instances'
    gold labels.

    Buckets by training-corpus predicate frequency (powers of two) and, when
    ``neighborhood_counts`` (per-token count of same-gold-label neighbors) is
    given, by that count in bins of ``NBR_BUCKET_WIDTH``.

    The corrected/regressed ratio is reported, never asserted: as a reference
    point, on full-scale news-text SRL benchmarks memory adaptation lands
    near 4 (a correction is about four times likelier than a regression).
    """
    gold = [inst.gold_labels for inst in instances]
    _check_aligned("disagreement_report", gold, {"base_preds": base_preds, "pnma_preds": pnma_preds})
    counts = [0, 0, 0, 0]
    freq_buckets: dict[str, list[int]] = {}
    nbr_buckets: dict[str, list[int]] = {}
    for i, inst in enumerate(instances):
        fb = power_of_two_bucket(predicate_freq.get(inst.tokens[inst.predicate_index], 0))
        for t in range(len(inst)):
            s = _scenario(base_preds[i][t] == gold[i][t], pnma_preds[i][t] == gold[i][t])
            counts[s] += 1
            freq_buckets.setdefault(fb, [0, 0, 0, 0])[s] += 1
            if neighborhood_counts is not None:
                c = int(neighborhood_counts[i][t])
                lo = (c // NBR_BUCKET_WIDTH) * NBR_BUCKET_WIDTH
                nb = f"{lo}-{lo + NBR_BUCKET_WIDTH - 1}"
                nbr_buckets.setdefault(nb, [0, 0, 0, 0])[s] += 1
    if counts[3]:
        ratio = counts[0] / counts[3]
    else:  # nothing regressed: unbounded after a correction, undefined without one
        ratio = math.inf if counts[0] else math.nan

    def bucket_sort_key(name: str):
        return int(name.split("-")[0])

    return DisagreementReport(
        scenario_counts=tuple(counts),
        ratio=ratio,
        freq_buckets=[
            (b, tuple(freq_buckets[b])) for b in sorted(freq_buckets, key=bucket_sort_key)
        ],
        nbr_buckets=[
            (b, tuple(nbr_buckets[b])) for b in sorted(nbr_buckets, key=bucket_sort_key)
        ],
    )


def neighborhood_label_counts(
    encoder: EncoderParams,
    vocab: Vocabulary,
    memory: ActivationMemory,
    instances: Sequence[Instance],
    k: int,
    external=None,
    threads: int = 1,
) -> list[np.ndarray]:
    """Per token: how many of its K neighbors carry the token's gold label."""
    table, _, _, hits = _same_label_neighbors(encoder, vocab, memory, instances, k, None,
                                              external, threads)
    return table.split(hits.sum(axis=1))


@dataclass
class NeighborContext:
    label: str
    snippet: str
    distance: float


def neighbor_dump(
    encoder: EncoderParams,
    vocab: Vocabulary,
    memory: ActivationMemory,
    instance: Instance,
    token_index: int,
    k: int,
    sources: Mapping[str, Instance],
    context_window: int = 5,
    external=None,
) -> list[NeighborContext]:
    """Top-k neighbors of one token with context snippets from their sentences,
    which ``sources`` maps from the memory's sentence ids.

    The neighbors are row ``token_index`` of the sentence's retrieval, as in
    ``predict``.  The neighbor token is bracketed and the predicate of its
    sentence starred; snippets are clamped at sentence boundaries.
    """
    if context_window < 0:
        raise DomainError(
            f"neighbor_dump: context window must be at least 0, got {context_window}"
        )
    if not (0 <= token_index < len(instance)):
        raise CoverageError(
            f"neighbor_dump: token index {token_index} outside sentence of length {len(instance)}"
        )
    _, _, ids, dists, _ = encode_and_retrieve([instance], encoder, vocab, memory, k, external,
                                              1, None, True)
    out: list[NeighborContext] = []
    for entry, distance in zip(ids[token_index], dists[token_index]):
        sid, tix = memory.provenance[int(entry)]
        src = sources.get(sid)
        if src is None:
            raise CoverageError(f"neighbor_dump: no source sentence for id {sid!r}")
        lo = max(0, tix - context_window)
        hi = min(len(src), tix + context_window + 1)
        words = []
        for t in range(lo, hi):
            w = src.tokens[t]
            if t == src.predicate_index:
                w = f"*{w}*"
            if t == tix:
                w = f"[{w}]"
            words.append(w)
        out.append(NeighborContext(label=vocab.tag_labels[int(memory.labels[entry])],
                                   snippet=" ".join(words), distance=float(distance)))
    return out


# ---------------------------------------------------------------------------
# report writers (tab-separated, header line naming columns)

_EVAL_HEADER = "precision\trecall\tf1\tmatched\tpredicted\tgold\tscheme"
_EVAL_LABEL_HEADER = "label\tmatched\tpredicted\tgold"


def write_eval_report(report: EvalReport, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_EVAL_HEADER + "\n")
        fh.write(
            f"{report.precision:.6f}\t{report.recall:.6f}\t{report.f1:.6f}\t"
            f"{report.matched}\t{report.n_predicted}\t{report.n_gold}\t{report.scheme}\n"
        )
        fh.write("\n" + _EVAL_LABEL_HEADER + "\n")
        for label, (m, p, g) in report.per_label.items():
            fh.write(f"{label}\t{m}\t{p}\t{g}\n")


def read_eval_report(path: str) -> EvalReport:
    """Read back a ``write_eval_report`` file; anything else raises FormatError."""
    lines = read_text(path, FormatError).splitlines()
    if lines[:1] != [_EVAL_HEADER] or lines[2:4] != ["", _EVAL_LABEL_HEADER]:
        raise FormatError(f"{path}: not an evaluation report")
    line_no = 2
    try:
        precision, recall, f1, matched, n_pred, n_gold, scheme = lines[1].split("\t")
        report = EvalReport(float(precision), float(recall), float(f1),
                            int(matched), int(n_pred), int(n_gold), scheme)
        for line_no, line in enumerate(lines[4:], start=5):
            if line:
                label, m, p, g = line.split("\t")
                report.per_label[label] = (int(m), int(p), int(g))
    except ValueError:
        raise FormatError(f"{path}:{line_no}: malformed evaluation report line") from None
    return report


def write_histogram(rows: Sequence[tuple[str, float]], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("rank\tnormalized_frequency\n")
        for rank, freq in rows:
            fh.write(f"{rank}\t{freq:.6f}\n")


def write_matrix(mat: np.ndarray, labels: Sequence[str], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("label\t" + "\t".join(labels) + "\n")
        for i, lab in enumerate(labels):
            fh.write(lab + "\t" + "\t".join(str(int(v)) for v in mat[i]) + "\n")


def write_disagreement(report: DisagreementReport, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("scenario\tcount\n")
        names = ("corrected", "both_wrong", "both_correct", "regressed")
        for name, c in zip(names, report.scenario_counts):
            fh.write(f"{name}\t{c}\n")
        fh.write(f"corrected_over_regressed\t{report.ratio:.6f}\n")  # writes inf and nan as such
        fh.write("\npredicate_frequency\tcorrected\tboth_wrong\tboth_correct\tregressed\n")
        for bucket, cs in report.freq_buckets:
            fh.write(bucket + "\t" + "\t".join(str(c) for c in cs) + "\n")
        if report.nbr_buckets:
            fh.write("\nneighborhood_samples\tcorrected\tboth_wrong\tboth_correct\tregressed\n")
            for bucket, cs in report.nbr_buckets:
                fh.write(bucket + "\t" + "\t".join(str(c) for c in cs) + "\n")


def write_neighbor_dump(rows: Sequence[NeighborContext], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("rank\tlabel\tdistance\tcontext\n")
        for i, row in enumerate(rows, start=1):
            fh.write(f"{i}\t{row.label}\t{row.distance:.6f}\t{row.snippet}\n")
