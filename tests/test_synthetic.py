import numpy as np
import pytest

from pnma.dataio import bio_decode_spans, build_vocab
from pnma.errors import DomainError
from pnma.synthetic import (
    EXCEPTION_VERBS,
    P_DETERMINER,
    RARE_EXCEPTION_VERBS,
    REGULAR_VERBS,
    gen_synthetic,
    generate_split,
)


class TestGenerateSplit:
    def test_zero_exception_rate_all_majority(self):
        insts, stats = generate_split("train", 200, exception_rate=0.0, seed=5)
        assert stats.exception_sentences == 0
        assert stats.exception_tokens == 0
        exception_pool = set(EXCEPTION_VERBS) | set(RARE_EXCEPTION_VERBS)
        for inst in insts:
            assert inst.tokens[inst.predicate_index] in REGULAR_VERBS
            assert not any(t.endswith("A2") for t in inst.gold_labels)
            assert not exception_pool & set(inst.tokens)

    def test_deterministic_given_seed(self):
        a, _ = generate_split("train", 100, 0.05, seed=9)
        b, _ = generate_split("train", 100, 0.05, seed=9)
        assert a == b
        c, _ = generate_split("train", 100, 0.05, seed=10)
        assert a != c

    def test_exception_count_exact(self):
        _, stats = generate_split("train", 500, exception_rate=0.05, seed=1)
        assert stats.exception_sentences == 25

    def test_exception_token_count_near_expectation(self):
        _, stats = generate_split("train", 500, exception_rate=0.05, seed=1)
        # 25 planted objects, each a noun with a determiner at rate P_DETERMINER
        expected = 25 * (1.0 + P_DETERMINER)
        assert abs(stats.exception_tokens - expected) <= 0.2 * expected

    def test_every_sentence_has_one_predicate(self):
        insts, _ = generate_split("valid", 80, 0.1, seed=2)
        for inst in insts:
            assert sum(inst.predicate_bits) == 1
            assert inst.predicate_bits[inst.predicate_index] == 1
            assert inst.gold_labels[inst.predicate_index] == "B-V"

    def test_tags_are_well_formed_bio(self):
        insts, _ = generate_split("test", 60, 0.1, seed=3)
        for inst in insts:
            spans = bio_decode_spans(list(inst.gold_labels))
            # roles present exactly once each for A0/V and object
            roles = [r for _, _, r in spans]
            assert roles.count("A0") == 1
            assert roles.count("V") == 1
            assert roles.count("A1") + roles.count("A2") == 1

    def test_exception_objects_use_contradicting_role(self):
        insts, _ = generate_split("train", 400, 0.1, seed=4)
        exception_pool = set(EXCEPTION_VERBS) | set(RARE_EXCEPTION_VERBS)
        for inst in insts:
            verb = inst.tokens[inst.predicate_index]
            has_a2 = any(t.endswith("A2") for t in inst.gold_labels)
            assert has_a2 == (verb in exception_pool)

    def test_size_validation(self):
        with pytest.raises(DomainError):
            generate_split("train", 0, 0.1, seed=1)
        with pytest.raises(DomainError):
            generate_split("train", 10, 1.5, seed=1)

    def test_exception_verbs_are_low_frequency(self):
        insts, _ = generate_split("train", 2000, 0.05, seed=6)
        from collections import Counter

        verb_counts = Counter(i.tokens[i.predicate_index] for i in insts)
        reg = [verb_counts[v] for v in REGULAR_VERBS if v in verb_counts]
        exc = [verb_counts[v] for v in EXCEPTION_VERBS if v in verb_counts]
        assert min(reg) > max(exc)


class TestGenSynthetic:
    def test_writes_three_splits_and_stats(self, tmp_path):
        stats = gen_synthetic(str(tmp_path), 50, 20, 20, 0.1, seed=1)
        for split in ("train", "valid", "test"):
            assert (tmp_path / f"{split}.conll").exists()
        lines = (tmp_path / "stats.tsv").read_text().splitlines()
        assert lines[0].startswith("split\t")
        assert len(lines) == 4
        assert stats["train"].sentences == 50

    def test_byte_identical_given_seed(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        gen_synthetic(str(d1), 40, 10, 10, 0.05, seed=3)
        gen_synthetic(str(d2), 40, 10, 10, 0.05, seed=3)
        for name in ("train.conll", "valid.conll", "test.conll", "stats.tsv"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_parses_back_with_vocab(self, tmp_path):
        from pnma.dataio import parse_conll_file

        gen_synthetic(str(tmp_path), 60, 10, 10, 0.1, seed=2)
        insts = parse_conll_file(str(tmp_path / "train.conll"))
        assert len(insts) == 60
        vocab = build_vocab(insts, min_frequency=2)
        assert vocab.n_tags >= 8
        assert "B-A2" in vocab.tag_labels
