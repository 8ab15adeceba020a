import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pnma.dataio import (
    ExternalEmbeddings,
    Instance,
    TokenTable,
    bio_decode_spans,
    build_vocab,
    load_external_embeddings,
    load_vocab,
    parse_conll_file,
    save_vocab,
    write_conll_file,
)
from pnma.errors import CoverageError, DomainError, FormatError, ParseError

TWO_BLOCKS = """\
# id: s1
the 0 B-A0
cat 0 I-A0
sees 1 B-V
a 0 B-A1
dog 0 I-A1

# id: s2
birds 0 B-A0
sing 1 B-V
"""


@pytest.fixture
def two_block_file(tmp_path):
    path = tmp_path / "two.conll"
    path.write_text(TWO_BLOCKS, encoding="utf-8")
    return str(path)


class TestParse:
    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.conll"
        p.write_text("", encoding="utf-8")
        assert parse_conll_file(str(p)) == []

    def test_two_block_fixture(self, two_block_file):
        insts = parse_conll_file(two_block_file)
        assert len(insts) == 2
        assert insts[0].sentence_id == "s1"
        assert insts[0].tokens == ("the", "cat", "sees", "a", "dog")
        assert insts[0].predicate_bits == (0, 0, 1, 0, 0)
        assert insts[0].gold_labels == ("B-A0", "I-A0", "B-V", "B-A1", "I-A1")
        assert insts[1].tokens == ("birds", "sing")

    def test_predicate_index_from_bit(self, tmp_path):
        p = tmp_path / "x.conll"
        p.write_text("a 0 O\nb 0 O\nc 1 B-V\n", encoding="utf-8")
        insts = parse_conll_file(str(p))
        assert insts[0].predicate_index == 2

    def test_wrong_column_count_has_line_number(self, tmp_path):
        p = tmp_path / "bad.conll"
        p.write_text("a 0 O\nb 0\n", encoding="utf-8")
        with pytest.raises(ParseError, match=":2:"):
            parse_conll_file(str(p))

    def test_multiple_predicates_rejected(self, tmp_path):
        p = tmp_path / "multi.conll"
        p.write_text("a 1 O\nb 1 O\n", encoding="utf-8")
        with pytest.raises(ParseError, match="2 predicate bits"):
            parse_conll_file(str(p))

    def test_zero_predicates_rejected(self, tmp_path):
        p = tmp_path / "none.conll"
        p.write_text("a 1 O\n\na 0 O\nb 0 O\n", encoding="utf-8")
        with pytest.raises(ParseError, match=":3: block marks no predicate bit"):
            parse_conll_file(str(p))

    def test_default_sentence_ids_from_stem(self, tmp_path):
        p = tmp_path / "corpus.conll"
        p.write_text("a 1 O\n\nb 1 O\n", encoding="utf-8")
        insts = parse_conll_file(str(p))
        assert [i.sentence_id for i in insts] == ["corpus-0", "corpus-1"]

    @pytest.mark.parametrize("text, repeat, first", [
        ("# id: s1\na 1 O\n\n# id: s2\nb 1 O\n\n# id: s1\nc 1 O\n", 7, 1),
        # a given id that equals a generated one, before or after it
        ("a 1 O\n\n# id: dup-0\nb 1 O\n", 3, 1),
        ("# id: dup-1\na 1 O\n\nb 1 O\n", 4, 1),
    ])
    def test_repeated_sentence_id_names_both_lines(self, tmp_path, text, repeat, first):
        path = tmp_path / "dup.conll"
        path.write_text(text, encoding="utf-8")
        message = rf"dup\.conll:{repeat}: .* first used at line {first}$"
        with pytest.raises(ParseError, match=message):
            parse_conll_file(str(path))

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
    def test_non_utf8_corpus_names_line(self, tmp_path, newline):
        path = tmp_path / "bad.conll"
        path.write_bytes(newline.join([b"# id: s1", b"a 1 B-V", b"b 0 \xff", b""]))
        with pytest.raises(ParseError, match=r"bad\.conll:3: not UTF-8"):
            parse_conll_file(str(path))

    def test_lines_numbered_as_text_mode_iterates(self, tmp_path):
        # a form feed or U+0085 inside a comment does not end its line
        path = tmp_path / "c.conll"
        path.write_bytes("# a\x0cb\x85c\u2028d\r\nx 1 B-V\rbad line\n".encode("utf-8"))
        with pytest.raises(ParseError, match=r"c\.conll:3: expected 3 columns"):
            parse_conll_file(str(path))

    def test_parse_serialize_parse_identity(self, two_block_file, tmp_path):
        insts = parse_conll_file(two_block_file)
        out = tmp_path / "round.conll"
        write_conll_file(str(out), insts)
        again = parse_conll_file(str(out))
        assert again == insts


class TestBio:
    def test_all_outside(self):
        assert bio_decode_spans(["O", "O", "O"]) == set()

    def test_basic_spans(self):
        spans = bio_decode_spans(["B-A0", "I-A0", "O", "B-V"])
        assert spans == {(0, 1, "A0"), (3, 3, "V")}

    def test_lenient_orphan_inside(self):
        assert bio_decode_spans(["I-A1", "I-A1", "O"]) == {(0, 1, "A1")}

    def test_role_switch_starts_new_span(self):
        assert bio_decode_spans(["B-A0", "I-A1"]) == {(0, 0, "A0"), (1, 1, "A1")}

    def test_adjacent_b_tags(self):
        assert bio_decode_spans(["B-A0", "B-A0"]) == {(0, 0, "A0"), (1, 1, "A0")}

    @given(st.data())
    def test_round_trip_on_well_formed_sequences(self, data):
        # build a random well-formed BIO sequence segment by segment
        roles = ["A0", "A1", "V", "TMP"]
        n_segments = data.draw(st.integers(0, 6))
        tags: list[str] = []
        spans: set[tuple[int, int, str]] = set()
        for _ in range(n_segments):
            if data.draw(st.booleans()):
                tags.extend(["O"] * data.draw(st.integers(1, 3)))
            else:
                role = data.draw(st.sampled_from(roles))
                length = data.draw(st.integers(1, 4))
                spans.add((len(tags), len(tags) + length - 1, role))
                tags.extend(["B-" + role] + ["I-" + role] * (length - 1))
        assert bio_decode_spans(tags) == spans


class TestVocab:
    def _inst(self, tokens, labels=None):
        labels = labels or ["O"] * len(tokens)
        bits = [0] * len(tokens)
        bits[0] = 1
        return Instance("x", tuple(tokens), 0, tuple(bits), tuple(labels))

    def test_empty_corpus_specials_only(self):
        v = build_vocab([], min_frequency=2)
        assert v.id_to_word == ["<unk>", "<pad>"]
        assert v.tag_labels == []

    def test_count_threshold(self):
        insts = [self._inst(["a", "a", "a", "b"])]
        v = build_vocab(insts, min_frequency=2)
        assert "a" in v.word_to_id
        assert "b" not in v.word_to_id
        np.testing.assert_array_equal(v.word_ids(["a", "b"]), [v.word_to_id["a"], 0])

    def test_all_unique_maps_to_unk(self):
        insts = [self._inst(["x", "y", "z"])]
        v = build_vocab(insts, min_frequency=2)
        assert v.n_words == 2  # specials only
        np.testing.assert_array_equal(v.word_ids(["x", "y", "z"]), [0, 0, 0])

    def test_case_preserving(self):
        insts = [self._inst(["Cat", "Cat", "cat", "cat"])]
        v = build_vocab(insts, min_frequency=2)
        assert "Cat" in v.word_to_id and "cat" in v.word_to_id
        assert v.word_to_id["Cat"] != v.word_to_id["cat"]

    def test_tag_first_occurrence_order(self):
        insts = [
            self._inst(["a", "b"], ["B-V", "O"]),
            self._inst(["c", "d"], ["O", "B-A0"]),
        ]
        v = build_vocab(insts, min_frequency=1)
        assert v.tag_labels == ["B-V", "O", "B-A0"]

    def test_min_frequency_validation(self):
        with pytest.raises(DomainError):
            build_vocab([], min_frequency=0)

    def test_unknown_tag_raises(self):
        v = build_vocab([self._inst(["a", "a"], ["O", "O"])], min_frequency=1)
        with pytest.raises(DomainError, match="B-A9"):
            v.tag_ids(["B-A9"])

    def test_save_load_round_trip(self, tmp_path):
        insts = [self._inst(["a", "a", "b", "b"], ["B-V", "O", "B-A0", "I-A0"])]
        v = build_vocab(insts, min_frequency=2)
        path = str(tmp_path / "vocab.txt")
        save_vocab(v, path)
        w = load_vocab(path)
        assert w.word_to_id == v.word_to_id
        assert w.tag_labels == v.tag_labels
        assert open(path, encoding="utf-8").read() == (
            "# pnma vocabulary v2\nwords\t4\n<unk>\n<pad>\na\nb\n"
            "tags\t4\nB-V\nO\nB-A0\nI-A0\n")

    @pytest.mark.parametrize("words, tags, match", [
        # word id 2 would be unreachable: "cat" maps to id 3
        (["<unk>", "<pad>", "cat", "cat"], ["O", "B-V"], "word 'cat' is listed more than once"),
        # gold O would map to id 2, while id 0 still decodes to O
        (["<unk>", "<pad>", "cat"], ["O", "B-V", "O"], "tag 'O' is listed more than once"),
    ], ids=["word", "tag"])
    def test_load_rejects_a_repeated_entry(self, tmp_path, words, tags, match):
        path = tmp_path / "v.txt"
        path.write_text("# pnma vocabulary v2\n"
                        f"words\t{len(words)}\n" + "".join(w + "\n" for w in words)
                        + f"tags\t{len(tags)}\n" + "".join(t + "\n" for t in tags),
                        encoding="utf-8")
        with pytest.raises(FormatError, match=match):
            load_vocab(str(path))

    def test_load_rejects_version_1(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("# pnma vocabulary v1\nmin_frequency\t2\nscheme\tbio-span\n"
                        "words\t2\n<unk>\n<pad>\ntags\t1\nO\n", encoding="utf-8")
        with pytest.raises(FormatError, match="unsupported vocabulary format version"):
            load_vocab(str(path))

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not a vocab\n", encoding="utf-8")
        with pytest.raises(FormatError):
            load_vocab(str(path))

    def test_load_rejects_non_utf8_naming_line(self, tmp_path):
        path = tmp_path / "vocab.txt"
        save_vocab(build_vocab([self._inst(["a", "a"], ["B-V", "O"])], min_frequency=1),
                   str(path))
        data = path.read_bytes()
        path.write_bytes(data.replace(b"\na\n", b"\n\xffa\n"))
        with pytest.raises(FormatError, match=r"vocab\.txt:5: not UTF-8"):
            load_vocab(str(path))


class TestExternalEmbeddings:
    def _corpus(self):
        return [
            Instance("s1", ("a", "b"), 0, (1, 0), ("B-V", "O")),
            Instance("s2", ("c",), 0, (1,), ("B-V",)),
        ]

    def test_complete_fixture_round_trip(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text(
            "s1 0 1 2 3\n"
            "s1 1 4 5 6\n"
            "s2 0 7 8 9\n",
            encoding="utf-8",
        )
        emb = load_external_embeddings(str(path), self._corpus())
        assert emb.dim == 3
        np.testing.assert_array_equal(emb.vectors("s1"), [[1, 2, 3], [4, 5, 6]])
        np.testing.assert_array_equal(emb.vectors("s2"), [[7, 8, 9]])

    def test_dimension_mismatch(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text(
            "s1 0 1 2 3 4 5 6 7 8\n"
            "s1 1 1 2 3 4 5 6 7\n",
            encoding="utf-8",
        )
        with pytest.raises(FormatError, match="dimension"):
            load_external_embeddings(str(path), self._corpus())

    def test_missing_key_named(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("s1 0 1 2 3\ns2 0 7 8 9\n", encoding="utf-8")
        with pytest.raises(CoverageError, match=r"'s1', token 1"):
            load_external_embeddings(str(path), self._corpus())

    def test_repeated_key_names_both_lines(self, tmp_path):
        # the second row for a token would silently replace the first
        path = tmp_path / "emb.txt"
        path.write_text("s1 0 1 2\ns1 1 3 4\n# note\ns1 0 5 6\ns2 0 7 8\n", encoding="utf-8")
        with pytest.raises(FormatError, match=r":4: \(sentence 's1', token 0\) repeats the row "
                                              r"at line 1$"):
            load_external_embeddings(str(path), self._corpus())

    @pytest.mark.parametrize("row", [
        "s1 1 4 x 6", "s1 1 4 5 nan", "s1 1 inf 5 6", "s1 1 4 5 1e39", "s1 1.5 4 5 6",
    ])
    def test_unreadable_or_non_finite_value(self, tmp_path, row):
        path = tmp_path / "emb.txt"
        path.write_text(f"s1 0 1 2 3\n{row}\ns2 0 7 8 9\n", encoding="utf-8")
        with pytest.raises(FormatError, match=":2:"):
            load_external_embeddings(str(path), self._corpus())

    def test_non_utf8_file(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_bytes(b"s1 0 1 2 3\ns1 1 4 5 6\ns2 0 7 \xfe 9\n")
        with pytest.raises(FormatError, match=":3: not UTF-8"):
            load_external_embeddings(str(path), self._corpus())


class TestTokenTable:
    CORPUS = [
        Instance("a", ("x", "y", "z"), 1, (0, 1, 0), ("O", "B-V", "O")),
        Instance("b", ("w",), 0, (1,), ("B-V",)),
        Instance("c", ("y", "x", "q"), 0, (1, 0, 0), ("B-V", "O", "O")),
        Instance("d", ("z", "w"), 1, (0, 1), ("O", "B-V")),
        Instance("e", ("q",), 0, (1,), ("B-V",)),
    ]

    def external(self):
        rng = np.random.default_rng(0)
        return ExternalEmbeddings(dim=3, by_sentence={
            inst.sentence_id: rng.normal(size=(len(inst), 3)).astype(np.float32)
            for inst in self.CORPUS
        })

    def test_rows_equal_per_instance_stacking(self):
        # mixed lengths, length-1 sentences among them, and external vectors
        corpus, external = self.CORPUS, self.external()
        vocab = build_vocab(corpus, min_frequency=2)
        table = TokenTable.build(corpus, vocab, external)
        assert len(table) == len(corpus)
        assert table.word_ids.shape == table.bits.shape == (10,)
        for job in ([0, 2], [2, 0], [1, 4], [4], [3]):
            rows = table.rows(job)
            np.testing.assert_array_equal(
                table.word_ids[rows], np.stack([vocab.word_ids(corpus[i].tokens) for i in job]))
            np.testing.assert_array_equal(
                table.bits[rows], np.stack([corpus[i].predicate_bits for i in job]))
            ext = table.external[rows]
            assert ext.dtype == np.float32
            np.testing.assert_array_equal(
                ext, np.stack([external.vectors(corpus[i].sentence_id) for i in job]))
        parts = table.split(table.bits)
        assert [p.tolist() for p in parts] == [list(i.predicate_bits) for i in corpus]

    def test_without_external_vectors(self):
        table = TokenTable.build(self.CORPUS, build_vocab(self.CORPUS))
        assert table.external is None
        assert table.starts.tolist() == [0, 3, 4, 7, 9]
        assert table.lengths.tolist() == [3, 1, 3, 2, 1]

    def test_empty_corpus(self):
        table = TokenTable.build([], build_vocab(self.CORPUS), self.external())
        assert len(table) == 0 and table.word_ids.shape == (0,)
        assert table.external.shape == (0, 3)
        assert table.split(table.bits) == []
