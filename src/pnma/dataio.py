"""Corpus parsing, the BIO span decoder, vocabularies, external embeddings.

Column corpus format (UTF-8): three whitespace-separated columns per line —
token, predicate bit (0/1), tag — with blank lines separating sentences and
comments on lines starting with '#'.  The serializer writes a ``# id: <name>``
comment before each block so that parse -> serialize -> parse is the identity;
a block without one gets the id ``<filestem>-<block index>``.

A ``TokenTable`` holds a corpus as flat per-token arrays, one row per token
in instance order; encoding, retrieval, tagging and training index its rows.

Binary files (checkpoints, memories) share one framing: a magic whose last
byte is the format version, a body, and the sha256 digest of both
(``framed_bytes``, ``read_framed``).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import struct
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import CoverageError, DomainError, FormatError, ParseError, PnmaError

UNK = "<unk>"
PAD = "<pad>"
UNK_ID = 0
PAD_ID = 1

SCHEMES = ("bio-span", "per-token-role")
NULL_ROLE = "_"


@dataclass(frozen=True)
class Instance:
    """One sentence paired with one predicate position and per-token gold labels."""

    sentence_id: str
    tokens: tuple[str, ...]
    predicate_index: int
    predicate_bits: tuple[int, ...]
    gold_labels: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass
class Vocabulary:
    """Word table with reserved UNK/PAD ids plus the tag label inventory.

    Tag ordering is the training file's first-occurrence order and is
    persisted verbatim by the vocab file.
    """

    word_to_id: dict[str, int]
    id_to_word: list[str]
    tag_labels: list[str]
    tag_to_id: dict[str, int] = field(init=False)

    def __post_init__(self) -> None:
        self.tag_to_id = {t: i for i, t in enumerate(self.tag_labels)}

    @property
    def n_words(self) -> int:
        return len(self.id_to_word)

    @property
    def n_tags(self) -> int:
        return len(self.tag_labels)

    def word_ids(self, tokens: Sequence[str]) -> np.ndarray:
        return np.array([self.word_to_id.get(t, UNK_ID) for t in tokens], dtype=np.int64)

    def tag_ids(self, labels: Sequence[str]) -> np.ndarray:
        try:
            return np.array([self.tag_to_id[t] for t in labels], dtype=np.int64)
        except KeyError as exc:
            raise DomainError(f"unknown tag label {exc.args[0]!r}") from None

    def tag_strings(self, ids: Sequence[int]) -> list[str]:
        return [self.tag_labels[i] for i in ids]


def read_text(path: str, error: type[PnmaError]) -> str:
    """A UTF-8 text file's contents; bytes that are not UTF-8 raise ``error``,
    naming their line as text-mode iteration counts it (universal newlines:
    ``\n``, ``\r\n`` or a lone ``\r`` ends a line)."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[: exc.start]
        line_no = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise error(f"{path}:{line_no}: not UTF-8 text") from None


def framed_bytes(magic: bytes, body: bytes | bytearray) -> bytes:
    """A binary file's bytes: ``magic``, ``body``, then the sha256 digest of
    both, which is the file's identity."""
    digest = hashlib.sha256(magic)
    digest.update(body)
    return b"".join((magic, body, digest.digest()))


@dataclass
class FramedReader:
    """A framed file's body, read front to back from ``off``; a read past its
    end is a ``FormatError`` naming the file."""

    path: str
    kind: str
    body: bytes
    off: int
    digest: str  # hex, the file's identity

    def take(self, n: int) -> bytes:
        if self.off + n > len(self.body):
            raise FormatError(f"{self.path}: truncated {self.kind}")
        self.off += n
        return self.body[self.off - n : self.off]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def text(self, n: int, what: str) -> str:
        try:
            return self.take(n).decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"{self.path}: {what} is not UTF-8") from None


@contextlib.contextmanager
def read_framed(path: str, magic: bytes, kind: str) -> Iterator[FramedReader]:
    """Read the file at ``path`` as ``framed_bytes(magic, body)`` and yield a
    reader of its body, which must be read to its last byte.

    A file too short to hold the magic and digest, or read past its end, is
    truncated; a magic that differs from ``magic`` only in its last byte is an
    unsupported format version; any other is a bad magic; a digest that does
    not match, or bytes left unread, are ``FormatError``s naming the file too.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(magic) + 32:
        raise FormatError(f"{path}: truncated {kind}")
    if blob[: len(magic)] != magic:
        if blob[: len(magic) - 1] == magic[:-1]:
            raise FormatError(f"{path}: unsupported {kind} format version")
        raise FormatError(f"{path}: not a {kind} (bad magic)")
    body, digest = blob[:-32], blob[-32:]
    if hashlib.sha256(body).digest() != digest:
        raise FormatError(f"{path}: {kind} content digest mismatch")
    reader = FramedReader(path, kind, body, len(magic), digest.hex())
    yield reader
    if reader.off != len(body):
        raise FormatError(f"{path}: trailing bytes in {kind}")


def parse_conll_file(path: str) -> list[Instance]:
    """Parse a column corpus into instances, one per blank-line block.

    A block must mark exactly one predicate bit.  Sentence ids, given or
    generated, must be unique: a repeat fails, naming its line and the line
    of the first use.
    """
    stem = os.path.splitext(os.path.basename(path))[0]
    instances: list[Instance] = []
    tokens: list[str] = []
    bits: list[int] = []
    labels: list[str] = []
    pending_id: str | None = None
    pending_id_line = 0
    block_start_line = 0
    first_use: dict[str, int] = {}  # sentence id -> line of its first use

    def flush(line_no: int) -> None:
        nonlocal tokens, bits, labels, pending_id
        if not tokens:
            pending_id = None
            return
        ones = [i for i, b in enumerate(bits) if b == 1]
        if not ones:
            raise ParseError(f"{path}:{block_start_line}: block marks no predicate bit")
        if len(ones) > 1:
            raise ParseError(
                f"{path}:{block_start_line}: block marks {len(ones)} predicate bits, expected 1"
            )
        if pending_id is not None:
            sid, id_line = pending_id, pending_id_line
        else:
            sid, id_line = f"{stem}-{len(instances)}", block_start_line
        if sid in first_use:
            raise ParseError(
                f"{path}:{id_line}: sentence id {sid!r} repeats the id first used "
                f"at line {first_use[sid]}"
            )
        first_use[sid] = id_line
        instances.append(
            Instance(
                sentence_id=sid,
                tokens=tuple(tokens),
                predicate_index=ones[0],
                predicate_bits=tuple(bits),
                gold_labels=tuple(labels),
            )
        )
        tokens, bits, labels = [], [], []
        pending_id = None

    # the lines of text-mode iteration: universal newlines, and nothing else
    # (str.splitlines would also split on form feeds and Unicode separators)
    line_no = 0
    for line_no, raw in enumerate(io.StringIO(read_text(path, ParseError), newline=None),
                                  start=1):
        line = raw.strip()
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("id:"):
                pending_id, pending_id_line = body[3:].strip(), line_no
            continue
        if not line:
            flush(line_no)
            continue
        cols = line.split()
        if len(cols) != 3:
            raise ParseError(f"{path}:{line_no}: expected 3 columns, got {len(cols)}")
        if not tokens:
            block_start_line = line_no
        tok, bit, tag = cols
        if bit not in ("0", "1"):
            raise ParseError(f"{path}:{line_no}: predicate bit must be 0 or 1, got {bit!r}")
        tokens.append(tok)
        bits.append(int(bit))
        labels.append(tag)
    flush(line_no + 1)
    return instances


def write_conll_file(path: str, instances: Iterable[Instance]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(format_predictions(inst, inst.gold_labels) for inst in instances)


def format_predictions(instance: Instance, predicted: Sequence[str]) -> str:
    """One column block: the instance's id line and columns, tags from ``predicted``."""
    lines = [f"# id: {instance.sentence_id}"]
    for tok, bit, tag in zip(instance.tokens, instance.predicate_bits, predicted):
        lines.append(f"{tok} {bit} {tag}")
    lines.append("")
    return "\n".join(lines) + "\n"


def bio_decode_spans(tags: Sequence[str]) -> set[tuple[int, int, str]]:
    """Decode BIO labels to a set of (start, end, role) with inclusive ends.

    Lenient rule: an I-x not preceded by B-x or I-x of the same role starts
    a new span of role x, so every sequence is decodable.
    """
    spans: set[tuple[int, int, str]] = set()
    start = None
    role = None
    for i, tag in enumerate(tags):
        if tag == "O" or tag == NULL_ROLE:
            if start is not None:
                spans.add((start, i - 1, role))
                start, role = None, None
            continue
        if "-" not in tag:
            raise DomainError(f"bio_decode_spans: malformed tag {tag!r} at position {i}")
        marker, r = tag.split("-", 1)
        if marker == "B" or (marker == "I" and r != role):
            if start is not None:
                spans.add((start, i - 1, role))
            start, role = i, r
        elif marker == "I":
            continue
        else:
            raise DomainError(f"bio_decode_spans: malformed tag {tag!r} at position {i}")
    if start is not None:
        spans.add((start, len(tags) - 1, role))
    return spans


def build_vocab(instances: Sequence[Instance], min_frequency: int = 2) -> Vocabulary:
    """Count-thresholded, case-preserving word table plus ordered tag labels."""
    if min_frequency < 1:
        raise DomainError(f"build_vocab: min_frequency must be >= 1, got {min_frequency}")
    counts: Counter[str] = Counter()
    tag_labels: list[str] = []
    seen_tags: set[str] = set()
    for inst in instances:
        counts.update(inst.tokens)
        for tag in inst.gold_labels:
            if tag not in seen_tags:
                seen_tags.add(tag)
                tag_labels.append(tag)
    id_to_word = [UNK, PAD]
    word_to_id = {UNK: UNK_ID, PAD: PAD_ID}
    for inst in instances:
        for tok in inst.tokens:
            if counts[tok] >= min_frequency and tok not in word_to_id:
                word_to_id[tok] = len(id_to_word)
                id_to_word.append(tok)
    return Vocabulary(word_to_id=word_to_id, id_to_word=id_to_word, tag_labels=tag_labels)


def save_vocab(vocab: Vocabulary, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# pnma vocabulary v2\n")
        fh.write(f"words\t{vocab.n_words}\n")
        for word in vocab.id_to_word:
            fh.write(f"{word}\n")
        fh.write(f"tags\t{vocab.n_tags}\n")
        for tag in vocab.tag_labels:
            fh.write(f"{tag}\n")


def load_vocab(path: str) -> Vocabulary:
    lines = read_text(path, FormatError).splitlines()
    if not lines or not lines[0].startswith("# pnma vocabulary v"):
        raise FormatError(f"{path}: not a pnma vocabulary file")
    if lines[0] != "# pnma vocabulary v2":
        raise FormatError(f"{path}: unsupported vocabulary format version")
    try:
        n_words = int(lines[1].split("\t")[1])
        words = lines[2 : 2 + n_words]
        n_tags = int(lines[2 + n_words].split("\t")[1])
        tags = lines[3 + n_words : 3 + n_words + n_tags]
    except (IndexError, ValueError) as exc:
        raise FormatError(f"{path}: truncated or malformed vocabulary file") from exc
    if len(words) != n_words or len(tags) != n_tags:
        raise FormatError(f"{path}: truncated vocabulary file")
    if words[:2] != [UNK, PAD]:
        raise FormatError(f"{path}: reserved ids 0/1 must be {UNK}/{PAD}")
    vocab = Vocabulary(word_to_id={w: i for i, w in enumerate(words)}, id_to_word=words,
                       tag_labels=tags)
    # a repeat would leave an id that no word or tag maps to
    for kind, items, ids in (("word", words, vocab.word_to_id), ("tag", tags, vocab.tag_to_id)):
        if len(ids) != len(items):
            repeat = next(x for i, x in enumerate(items) if ids[x] != i)
            raise FormatError(f"{path}: {kind} {repeat!r} is listed more than once")
    return vocab


@dataclass
class ExternalEmbeddings:
    """Precomputed per-token vectors keyed by (sentence_id, token_index)."""

    dim: int
    by_sentence: dict[str, np.ndarray]

    def vectors(self, sentence_id: str) -> np.ndarray:
        try:
            return self.by_sentence[sentence_id]
        except KeyError:
            raise CoverageError(f"no external embeddings for sentence {sentence_id!r}") from None


def load_external_embeddings(path: str, instances: Sequence[Instance]) -> ExternalEmbeddings:
    """Read a plain-text embedding file and check it covers every token.

    Row format: sentence_id, token_index, then the vector values, all
    whitespace-separated.  Every row must share one dimension, no (sentence
    id, token index) may repeat (a repeat fails, naming its line and the line
    of the first row), and every token of every instance must be covered.
    """
    table: dict[tuple[str, int], np.ndarray] = {}
    first_use: dict[tuple[str, int], int] = {}  # (sentence id, token index) -> its line
    dim: int | None = None
    for line_no, raw in enumerate(read_text(path, FormatError).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        cols = line.split()
        if len(cols) < 3:
            raise FormatError(f"{path}:{line_no}: expected sentence_id, token_index, values")
        sid, tix = cols[0], cols[1]
        try:
            tix = int(tix)
            vec = np.array([float(v) for v in cols[2:]])
        except ValueError:
            raise FormatError(f"{path}:{line_no}: unreadable token index or value") from None
        if not np.all(np.abs(vec) <= np.finfo(np.float32).max):
            raise FormatError(f"{path}:{line_no}: value not finite in float32")
        if dim is None:
            dim = vec.shape[0]
        elif vec.shape[0] != dim:
            raise FormatError(
                f"{path}:{line_no}: dimension {vec.shape[0]} != {dim} of earlier rows"
            )
        if (sid, tix) in first_use:
            raise FormatError(f"{path}:{line_no}: (sentence {sid!r}, token {tix}) repeats the "
                              f"row at line {first_use[sid, tix]}")
        first_use[sid, tix] = line_no
        table[(sid, tix)] = vec.astype(np.float32)
    if dim is None:
        raise FormatError(f"{path}: no embedding rows")
    by_sentence: dict[str, np.ndarray] = {}
    for inst in instances:
        rows = []
        for i in range(len(inst)):
            key = (inst.sentence_id, i)
            if key not in table:
                raise CoverageError(
                    f"{path}: missing embedding for (sentence {inst.sentence_id!r}, token {i})"
                )
            rows.append(table[key])
        by_sentence[inst.sentence_id] = np.stack(rows)
    return ExternalEmbeddings(dim=dim, by_sentence=by_sentence)


@dataclass(frozen=True)
class TokenTable:
    """A corpus as flat token arrays in instance order, built once.

    Sentence i holds rows ``starts[i] : starts[i] + lengths[i]`` of the word
    ids (T,), predicate bits (T,) and external vectors (T, e), the last None
    when the run trains its own word table.  Every array computed per token
    (activations, neighbor ids, distances) shares these rows.
    """

    word_ids: np.ndarray
    bits: np.ndarray
    external: np.ndarray | None
    starts: np.ndarray
    lengths: np.ndarray

    @staticmethod
    def build(
        instances: Sequence[Instance],
        vocab: Vocabulary,
        external: ExternalEmbeddings | None = None,
    ) -> "TokenTable":
        lengths = np.array([len(inst) for inst in instances], dtype=np.int64)
        ext = None
        if external is not None:
            ext = np.concatenate([external.vectors(inst.sentence_id) for inst in instances]
                                 or [np.zeros((0, external.dim), np.float32)])
        return TokenTable(
            word_ids=vocab.word_ids([t for inst in instances for t in inst.tokens]),
            bits=np.array([b for inst in instances for b in inst.predicate_bits],
                          dtype=np.int64),
            external=ext,
            starts=np.cumsum(lengths) - lengths,
            lengths=lengths,
        )

    def __len__(self) -> int:
        return len(self.lengths)

    def rows(self, job: Sequence[int]) -> np.ndarray:
        """Row index (B, n) of a job of sentences right-padded to the longest
        length n; a shorter sentence's padding repeats its last row."""
        job = np.asarray(job)  # one conversion for both lookups
        lengths = self.lengths[job]
        steps = np.minimum(np.arange(lengths.max()), lengths[:, None] - 1)
        return self.starts[job][:, None] + steps

    def split(self, a: np.ndarray) -> list[np.ndarray]:
        """Per-sentence views of an array (T, ...) in row order."""
        return np.split(a, self.starts[1:]) if len(self) else []
