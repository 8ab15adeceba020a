import itertools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pnma.analysis import (
    DisagreementReport,
    confusion_diff,
    disagreement_report,
    evaluate_labels,
    neighbor_dump,
    neighborhood_label_counts,
    power_of_two_bucket,
    rank_distribution,
    read_eval_report,
    span_prf,
    write_disagreement,
    write_eval_report,
    write_histogram,
    write_matrix,
)
from pnma.crf import init_crf_params
from pnma.dataio import Instance, bio_decode_spans, build_vocab
from pnma.encoder import init_encoder_params
from pnma.errors import CoverageError, DimensionError, FormatError
from pnma.memory import ActivationMemory, build_memory
from pnma.numeric import make_rng


class TestSpanPrf:
    def test_identity(self):
        spans = [{(0, 1, "A0"), (3, 3, "V")}]
        r = span_prf(spans, spans)
        assert (r.precision, r.recall, r.f1) == (1.0, 1.0, 1.0)

    def test_empty_predictions(self):
        r = span_prf([{(0, 1, "A0")}], [set()])
        assert (r.precision, r.recall, r.f1) == (0.0, 0.0, 0.0)

    def test_two_of_three_predicted_four_gold(self):
        gold = [{(0, 0, "A"), (1, 1, "B"), (2, 2, "C"), (3, 3, "D")}]
        pred = [{(0, 0, "A"), (1, 1, "B"), (5, 5, "X")}]
        r = span_prf(gold, pred)
        assert r.precision == pytest.approx(2 / 3)
        assert r.recall == pytest.approx(1 / 2)
        assert r.f1 == pytest.approx(4 / 7)

    def test_symmetry_swaps_p_and_r(self):
        gold = [{(0, 0, "A"), (1, 1, "B")}]
        pred = [{(0, 0, "A"), (2, 2, "C"), (3, 3, "D")}]
        a = span_prf(gold, pred)
        b = span_prf(pred, gold)
        assert a.precision == b.recall
        assert a.recall == b.precision
        assert a.f1 == b.f1

    def test_per_label_counts(self):
        gold = [{(0, 0, "A"), (1, 1, "B")}]
        pred = [{(0, 0, "A"), (1, 1, "A")}]
        r = span_prf(gold, pred)
        assert r.per_label["A"] == (1, 2, 1)
        assert r.per_label["B"] == (0, 0, 1)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            span_prf([set()], [set(), set()])


class TestTokenAccuracy:
    """The per-token-role scheme: each label but ``_`` is a one-token span."""

    def test_identity(self):
        seqs = [["A0", "_", "A1"]]
        r = evaluate_labels(seqs, seqs, "per-token-role")
        assert (r.precision, r.recall, r.f1) == (1.0, 1.0, 1.0)
        assert r.scheme == "per-token-role"

    def test_all_null_predictions(self):
        r = evaluate_labels([["A0", "A1"]], [["_", "_"]], "per-token-role")
        assert (r.precision, r.recall, r.f1) == (0.0, 0.0, 0.0)

    def test_constructed_counts(self):
        gold = [["A0", "A1", "_", "A2", "A3", "_"]]
        pred = [["A0", "A1", "A9", "_", "_", "_"]]
        r = evaluate_labels(gold, pred, "per-token-role")
        assert r.matched == 2
        assert r.n_predicted == 3
        assert r.n_gold == 4
        assert r.precision == pytest.approx(2 / 3)
        assert r.recall == pytest.approx(1 / 2)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            evaluate_labels([["A", "B"]], [["A"]], "per-token-role")

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_equals_a_naive_token_count(self, data):
        labels = st.sampled_from(["_", "A0", "A1", "A2", "AM-TMP"])
        lengths = data.draw(st.lists(st.integers(0, 6), max_size=5))
        gold = [data.draw(st.lists(labels, min_size=n, max_size=n)) for n in lengths]
        pred = [data.draw(st.lists(labels, min_size=n, max_size=n)) for n in lengths]
        matched = n_pred = n_gold = 0
        per_label: dict[str, list[int]] = {}
        for g, p in zip(itertools.chain(*gold), itertools.chain(*pred)):
            if g != "_" and g == p:
                matched += 1
                per_label.setdefault(g, [0, 0, 0])[0] += 1
            if p != "_":
                n_pred += 1
                per_label.setdefault(p, [0, 0, 0])[1] += 1
            if g != "_":
                n_gold += 1
                per_label.setdefault(g, [0, 0, 0])[2] += 1
        precision = matched / n_pred if n_pred else 0.0
        recall = matched / n_gold if n_gold else 0.0
        f1 = 2 * precision * recall / (precision + recall) if matched else 0.0
        r = evaluate_labels(gold, pred, "per-token-role")
        assert (r.matched, r.n_predicted, r.n_gold) == (matched, n_pred, n_gold)
        assert (r.precision, r.recall, r.f1) == (precision, recall, f1)
        assert r.per_label == {k: tuple(v) for k, v in sorted(per_label.items())}
        assert list(r.per_label) == sorted(per_label)


def _aligned_reports(gold, other):
    """Each token-level report, with ``other`` in one of its prediction slots."""
    insts = [_mk_inst(f"s{i}", ("w",) * len(g), 0, g) for i, g in enumerate(gold)]
    return {
        "evaluate bio-span": lambda: evaluate_labels(gold, other, "bio-span"),
        "evaluate per-token-role": lambda: evaluate_labels(gold, other, "per-token-role"),
        "confusion_diff a": lambda: confusion_diff(gold, other, gold),
        "confusion_diff b": lambda: confusion_diff(gold, gold, other),
        "disagreement base": lambda: disagreement_report(insts, other, gold, {}),
        "disagreement adapted": lambda: disagreement_report(insts, gold, other, {}),
    }


class TestAlignment:
    """Each token-level report refuses predictions whose sentence count, or
    any sentence's length, is not the gold one's."""

    GOLD = [["B-A0", "B-V"], ["B-V", "O", "B-A1"]]
    REPORTS = list(_aligned_reports([], []))

    @pytest.mark.parametrize("report", REPORTS)
    @pytest.mark.parametrize("other, message", [
        (GOLD[:1], "2 gold sentences vs 1 in"),
        (GOLD + [["O"]], "2 gold sentences vs 3 in"),
        ([GOLD[0], ["B-V", "O"]], "sentence 1 has 3 gold tokens vs 2 in"),
        ([GOLD[0] + ["O"], GOLD[1]], "sentence 0 has 2 gold tokens vs 3 in"),
    ], ids=["fewer-sentences", "more-sentences", "shorter-sentence", "longer-sentence"])
    def test_misaligned_predictions(self, report, other, message):
        with pytest.raises(DimensionError, match=message):
            _aligned_reports(self.GOLD, other)[report]()


class TestConfusionDiff:
    def test_identical_predictions_zero_matrix(self):
        gold = [["A", "B", "A"]]
        preds = [["A", "A", "B"]]
        mat, labels = confusion_diff(gold, preds, preds, top_n_labels=2)
        np.testing.assert_array_equal(mat, np.zeros((2, 2)))
        assert labels == ["A", "B"]

    def test_single_correction_unit_delta(self):
        gold = [["X"]]
        a = [["Y"]]
        b = [["X"]]
        mat, labels = confusion_diff(gold + [["Y"]], a + [["Y"]], b + [["Y"]], 2)
        ix, iy = labels.index("X"), labels.index("Y")
        assert mat[ix, ix] == 1
        assert mat[ix, iy] == -1

    def test_hand_counted_fixture(self):
        gold = [["A", "A", "B", "B", "C"]]
        pa = [["A", "B", "B", "C", "C"]]
        pb = [["A", "A", "C", "B", "A"]]
        mat, labels = confusion_diff(gold, pa, pb, top_n_labels=3)
        # labels sorted by gold frequency then name: A(2), B(2), C(1)
        assert labels == ["A", "B", "C"]
        li = {lab: i for i, lab in enumerate(labels)}
        expected = np.zeros((3, 3), dtype=int)
        # token 2: gold A, a:B -> b:A
        expected[li["A"], li["A"]] += 1
        expected[li["A"], li["B"]] -= 1
        # token 3: gold B, a:B -> b:C
        expected[li["B"], li["C"]] += 1
        expected[li["B"], li["B"]] -= 1
        # token 4: gold B, a:C -> b:B
        expected[li["B"], li["B"]] += 1
        expected[li["B"], li["C"]] -= 1
        # token 5: gold C, a:C -> b:A
        expected[li["C"], li["A"]] += 1
        expected[li["C"], li["C"]] -= 1
        np.testing.assert_array_equal(mat, expected)

    def test_restricts_to_top_n(self):
        gold = [["A", "A", "A", "B", "B", "C"]]
        preds = [["A", "A", "A", "B", "B", "C"]]
        mat, labels = confusion_diff(gold, preds, preds, top_n_labels=2)
        assert labels == ["A", "B"]
        assert mat.shape == (2, 2)


def _mk_inst(sid, tokens, pred_idx, labels):
    bits = tuple(1 if i == pred_idx else 0 for i in range(len(tokens)))
    return Instance(sid, tuple(tokens), pred_idx, bits, tuple(labels))


class TestDisagreement:
    def _fixture(self):
        insts = [
            _mk_inst("d-0", ("a", "hits", "b"), 1, ("B-A0", "B-V", "B-A1")),
            _mk_inst("d-1", ("c", "hits", "d"), 1, ("B-A0", "B-V", "B-A1")),
        ]
        gold = [list(i.gold_labels) for i in insts]
        return insts, gold

    def test_identical_predictions(self):
        insts, gold = self._fixture()
        r = disagreement_report(insts, gold, gold, {"hits": 2})
        assert r.scenario_counts[0] == 0
        assert r.scenario_counts[3] == 0
        assert r.scenario_counts[2] == 6
        assert math.isnan(r.ratio)  # neither corrected nor regressed: no ratio

    def test_corrections_without_regressions_are_an_infinite_ratio(self):
        insts, gold = self._fixture()
        base = [["B-A0", "B-V", "O"], gold[1]]
        r = disagreement_report(insts, base, gold, {"hits": 2})
        assert r.scenario_counts[0] == 1 and r.scenario_counts[3] == 0
        assert math.isinf(r.ratio)

    def test_counts_partition_tokens(self):
        insts, gold = self._fixture()
        base = [["B-A0", "B-V", "O"], ["O", "B-V", "B-A1"]]
        pnma = [["B-A0", "B-V", "B-A1"], ["B-A0", "B-V", "O"]]
        r = disagreement_report(insts, base, pnma, {"hits": 2})
        assert sum(r.scenario_counts) == 6
        # corrected: d-0 token 2, d-1 token 0 -> 2; regressed: d-1 token 2 -> 1
        assert r.scenario_counts[0] == 2
        assert r.scenario_counts[3] == 1
        assert r.ratio == pytest.approx(2.0)

    def test_four_corrections_one_regression(self):
        insts = [
            _mk_inst(f"d-{i}", ("a", "hits", "b"), 1, ("B-A0", "B-V", "B-A1"))
            for i in range(5)
        ]
        gold = [list(i.gold_labels) for i in insts]
        base = [["O", "B-V", "B-A1"]] * 4 + [["B-A0", "B-V", "B-A1"]]
        pnma = [["B-A0", "B-V", "B-A1"]] * 4 + [["O", "B-V", "B-A1"]]
        r = disagreement_report(insts, base, pnma, {"hits": 5})
        assert r.scenario_counts[0] == 4
        assert r.scenario_counts[3] == 1
        assert r.ratio == pytest.approx(4.0)

    def test_frequency_buckets(self):
        insts, gold = self._fixture()
        r = disagreement_report(insts, gold, gold, {"hits": 5})
        assert r.freq_buckets[0][0] == "4-7"

    def test_neighborhood_buckets(self):
        insts, gold = self._fixture()
        counts = [np.array([3, 10, 0]), np.array([9, 17, 25])]
        r = disagreement_report(
            insts, gold, gold, {"hits": 2}, neighborhood_counts=counts
        )
        names = [b for b, _ in r.nbr_buckets]
        assert names == ["0-7", "8-15", "16-23", "24-31"]

    def test_length_mismatch(self):
        insts, gold = self._fixture()
        with pytest.raises(DimensionError):
            disagreement_report(insts, gold[:1], gold, {})


def test_power_of_two_buckets():
    assert power_of_two_bucket(0) == "0"
    assert power_of_two_bucket(1) == "1"
    assert power_of_two_bucket(2) == "2-3"
    assert power_of_two_bucket(3) == "2-3"
    assert power_of_two_bucket(4) == "4-7"
    assert power_of_two_bucket(100) == "64-127"


@pytest.fixture(scope="module")
def small_model():
    instances = [
        _mk_inst("m-0", ("the", "cat", "runs"), 2, ("B-A0", "I-A0", "B-V")),
        _mk_inst("m-1", ("a", "dog", "sits"), 2, ("B-A0", "I-A0", "B-V")),
        _mk_inst("m-2", ("the", "dog", "runs"), 2, ("B-A0", "I-A0", "B-V")),
        _mk_inst("m-3", ("a", "cat", "sits"), 2, ("B-A0", "I-A0", "B-V")),
    ]
    vocab = build_vocab(instances, min_frequency=1)
    rng = make_rng(3)
    encoder = init_encoder_params(
        vocab.n_words, d_word=5, d_pred=4, d_hidden=6, n_layers=2, rng=rng
    )
    crf = init_crf_params(6, vocab.n_tags, rng)
    return instances, vocab, encoder, crf


class TestRankDistribution:
    def test_fraction_one_self_rank_is_one(self, small_model):
        instances, vocab, encoder, crf = small_model
        memory = build_memory(encoder, vocab, instances, fraction=1.0)
        hist = rank_distribution(encoder, crf, vocab, memory, instances, k=3)
        total = sum(hist.correct.values()) + sum(hist.incorrect.values())
        assert total == 12
        rank1 = hist.correct.get(1, 0) + hist.incorrect.get(1, 0)
        assert rank1 == 12

    def test_planted_fixture_histogram(self, small_model):
        instances, vocab, encoder, crf = small_model
        # hand-built memory: entry 0 far away with matching label, entry 1
        # nearest with a wrong label
        from pnma.encoder import encode_corpus

        enc = encode_corpus(instances, encoder, vocab)
        h = enc["m-0"][0]
        mem = ActivationMemory(
            vectors=np.stack([
                h + 0.5, h, h + 0.25,
            ]).astype(np.float32),
            labels=np.array([
                vocab.tag_to_id["B-A0"], vocab.tag_to_id["B-V"], vocab.tag_to_id["B-V"],
            ]),
            provenance=[("x", 0), ("x", 1), ("x", 2)],
        )
        from pnma.memory import knn_query

        res = knn_query(h.astype(np.float32), mem, 3)
        np.testing.assert_array_equal(res.entry_ids, [1, 2, 0])
        hist = rank_distribution(encoder, crf, vocab, mem, instances[:1], k=3)
        counts = hist.correct + hist.incorrect
        assert counts[3] >= 1  # the B-A0 token finds its label at rank 3

    def test_absent_bucket(self, small_model):
        instances, vocab, encoder, crf = small_model
        mem = ActivationMemory(
            vectors=np.zeros((2, 6), dtype=np.float32),
            labels=np.array([vocab.tag_to_id["B-V"]] * 2),
            provenance=[("x", 0), ("x", 1)],
        )
        hist = rank_distribution(encoder, crf, vocab, mem, instances[:1], k=2)
        counts = hist.correct + hist.incorrect
        assert counts["absent"] == 2  # B-A0 and I-A0 tokens find no match

    def test_median_rank(self):
        from pnma.analysis import RankHistogram

        hist = RankHistogram(k=8)
        hist.incorrect[1] = 3
        hist.incorrect[5] = 1
        hist.incorrect["absent"] = 1
        assert hist.median_rank("incorrect") == 1.0
        # the median lands on an absent neighbor, counted as K + 1
        hist = RankHistogram(k=8)
        hist.incorrect[1] = 1
        hist.incorrect["absent"] = 2
        assert hist.median_rank("incorrect") == 9.0


class TestNeighborhoodCounts:
    def test_counts_match_memory_labels(self, small_model):
        instances, vocab, encoder, crf = small_model
        memory = build_memory(encoder, vocab, instances, fraction=1.0)
        counts = neighborhood_label_counts(encoder, vocab, memory, instances, k=4)
        assert len(counts) == len(instances)
        assert all(c.shape == (3,) for c in counts)
        assert all(np.all(c >= 1) for c in counts)  # self-match included


class TestNeighborDump:
    def test_fixture_round_trip(self, small_model):
        instances, vocab, encoder, crf = small_model
        memory = build_memory(encoder, vocab, instances, fraction=1.0)
        sources = {i.sentence_id: i for i in instances}
        rows = neighbor_dump(
            encoder, vocab, memory, instances[0], 1, k=5,
            context_window=5, sources=sources,
        )
        assert len(rows) == 5
        dists = [r.distance for r in rows]
        assert dists == sorted(dists)
        assert rows[0].distance == 0.0
        assert "[cat]" in rows[0].snippet
        assert "*runs*" in rows[0].snippet

    def test_window_clamps_at_boundaries(self, small_model):
        instances, vocab, encoder, crf = small_model
        memory = build_memory(encoder, vocab, instances, fraction=1.0)
        sources = {i.sentence_id: i for i in instances}
        rows = neighbor_dump(
            encoder, vocab, memory, instances[0], 0, k=1,
            context_window=5, sources=sources,
        )
        assert len(rows[0].snippet.split()) <= 3

    def test_missing_provenance_is_dump_error(self, small_model):
        instances, vocab, encoder, crf = small_model
        memory = build_memory(encoder, vocab, instances, fraction=1.0)
        with pytest.raises(CoverageError):
            neighbor_dump(
                encoder, vocab, memory, instances[0], 0, k=1,
                context_window=2, sources={},
            )


class TestWriters:
    def test_eval_report_round_trip(self, tmp_path):
        r = span_prf([{(0, 0, "A")}], [{(0, 0, "A"), (1, 1, "B")}])
        path = str(tmp_path / "r.tsv")
        write_eval_report(r, path)
        back = read_eval_report(path)
        assert back.f1 == pytest.approx(r.f1, abs=1e-6)
        assert back.per_label == r.per_label
        head = open(path).readline()
        assert head.startswith("precision\trecall\tf1")

    @pytest.mark.parametrize("cut", [0, 1, 2, 3])
    def test_eval_report_truncated_to_lines(self, tmp_path, cut):
        path = tmp_path / "r.tsv"
        write_eval_report(span_prf([{(0, 0, "A")}], [{(0, 0, "A")}]), str(path))
        path.write_text("".join(path.read_text().splitlines(True)[:cut]))
        with pytest.raises(FormatError):
            read_eval_report(str(path))

    @pytest.mark.parametrize("bad, where", [
        ("1.0\t1.0\t1.0\t1\t1\t1", ":2:"), ("x\t1.0\t1.0\t1\t1\t1\tbio-span", ":2:"),
        ("1.0\t1.0\t1.0\t1\t1\t1\tbio-span\n\nlabel\tmatched\tpredicted\tgold\nA\t1\t1", ":5:"),
        ("1.0\t1.0\t1.0\t1\t1\t1\tbio-span\n\nlabel\tmatched\tpredicted\tgold\nA\t1\tq\t1", ":5:"),
    ])
    def test_eval_report_malformed_line_named(self, tmp_path, bad, where):
        path = tmp_path / "r.tsv"
        body = bad if "label" in bad else bad + "\n\nlabel\tmatched\tpredicted\tgold"
        path.write_text("precision\trecall\tf1\tmatched\tpredicted\tgold\tscheme\n" + body + "\n")
        with pytest.raises(FormatError, match=where):
            read_eval_report(str(path))

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_eval_report_mutations_read_or_raise_format_error(self, tmp_path, data):
        path = tmp_path / "r.tsv"
        report = span_prf([{(0, 0, "A"), (2, 3, "B")}], [{(0, 0, "A"), (1, 1, "B")}])
        write_eval_report(report, str(path))
        body = bytearray(path.read_bytes())
        body = body[: data.draw(st.integers(0, len(body)))]
        for _ in range(data.draw(st.integers(0, 4))):
            at = data.draw(st.integers(0, len(body)))
            body[at : at + 2] = data.draw(st.binary(min_size=1, max_size=2))
        path.write_bytes(bytes(body))
        try:
            read_eval_report(str(path))
        except FormatError:
            pass

    def test_histogram_format(self, tmp_path):
        path = str(tmp_path / "h.tsv")
        write_histogram([("1", 0.5), ("2", 0.25), ("absent", 0.25)], path)
        lines = open(path).read().splitlines()
        assert lines[0] == "rank\tnormalized_frequency"
        assert lines[1] == "1\t0.500000"
        assert lines[-1] == "absent\t0.250000"

    def test_matrix_format(self, tmp_path):
        path = str(tmp_path / "m.tsv")
        write_matrix(np.array([[1, -2], [0, 3]]), ["A", "B"], path)
        lines = open(path).read().splitlines()
        assert lines[0] == "label\tA\tB"
        assert lines[1] == "A\t1\t-2"

    def test_disagreement_format(self, tmp_path):
        r = DisagreementReport(
            scenario_counts=(4, 2, 10, 1),
            ratio=4.0,
            freq_buckets=[("1", (1, 0, 2, 0)), ("2-3", (3, 2, 8, 1))],
            nbr_buckets=[],
        )
        path = str(tmp_path / "d.tsv")
        write_disagreement(r, path)
        text = open(path).read()
        assert "corrected\t4" in text
        assert "corrected_over_regressed\t4.000000" in text

    @pytest.mark.parametrize("counts, ratio, written", [((3, 0, 5, 0), math.inf, "inf"),
                                                        ((0, 0, 5, 0), math.nan, "nan")])
    def test_disagreement_ratio_without_regressions(self, tmp_path, counts, ratio, written):
        r = DisagreementReport(scenario_counts=counts, ratio=ratio,
                               freq_buckets=[], nbr_buckets=[])
        path = str(tmp_path / "d.tsv")
        write_disagreement(r, path)
        assert f"corrected_over_regressed\t{written}\n" in open(path).read()
