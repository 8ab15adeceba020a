"""Activation memory: build, exact batched Euclidean K-NN, binary persistence.

The memory holds final-layer activations of a sampled subset of training
tokens together with their gold labels and provenance.  It is built by
sampling rows of ``encoder.encode_rows`` over the training set's token
table, and callers retrieve for a whole table's rows at once.  Exclusions
take one form: a collection of provenance keys per query, such as
``self_exclusions``, which keeps each token from finding its own entry.

Retrieval is exact brute force in two stages per block of queries.  A BLAS
prefilter computes every squared distance in double precision by the flat-L2
expansion ||q||^2 + ||m||^2 - 2 q.m (Johnson, Douze & Jegou 2017,
arXiv:1702.08734), less the row constant ||q||^2, as one GEMM of the block's
rows [-2q, 1] with the memory's prefilter operand: the (d + 1, N) float64
array of the vectors transposed, their squared norms as the last row.  A
certified re-rank keeps each entry within 2 delta of the row's k-th smallest
prefilter value, where delta bounds the rounding gap between the expansion
and the explicit difference sum((q - m)^2) over the d + 1 products of the
GEMM (``_rounding_bound``), recomputes the kept entries' distances as
explicit differences of their float32 rows cast to float64, and orders them
by (distance, entry id).  Every entry of the true top-k survives the
prefilter, so batched queries return bit for bit what a naive one-at-a-time
explicit-difference scan would, ties broken toward the lower entry id.

Bulk retrieval holds its outputs and one block's working set: the (Q, k)
ids and distances are allocated once and each block, on any thread, writes
its own rows of them; queries are cast to float64 a block at a time.
"""

from __future__ import annotations

import hashlib
import struct
from collections import abc
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .dataio import Instance, TokenTable, Vocabulary
from .encoder import EncoderParams, encode_rows
from .errors import CapacityError, DimensionError, DomainError, FormatError, NumericError
from .numeric import make_rng

MEMORY_MAGIC = b"PNMAMEM1"

# rng stream ids (keep distinct from the training streams)
_STREAM_SAMPLE = 101

# queries per K-NN block; fewer against a large memory, so that a block's
# float64 prefilter distances stay within _BLOCK_DISTANCES (8 MiB)
_QUERY_BLOCK = 128
_BLOCK_DISTANCES = 1 << 20

# per query, the provenance keys (sentence id, token index) of entries it must not return
Exclusions = Sequence[Sequence[tuple[str, int]]]


@dataclass
class NeighborSet:
    """K nearest entries of one query, ascending by distance."""

    entry_ids: np.ndarray  # (K,) int64
    distances: np.ndarray  # (K,) float64, true Euclidean
    vectors: np.ndarray  # (K, d) float32
    labels: np.ndarray  # (K,) int64

    def __len__(self) -> int:
        return len(self.entry_ids)


@dataclass
class ActivationMemory:
    """Immutable collection of (vector, gold label, provenance) entries."""

    vectors: np.ndarray  # (N, d) float32
    labels: np.ndarray  # (N,) int64
    provenance: list[tuple[str, int]]
    seed: int = 0
    fraction: float = 1.0
    source_digest: str = ""
    _prov_to_id: dict[tuple[str, int], int] = field(init=False, repr=False)
    # the K-NN prefilter operand (d + 1, N) float64: the vectors transposed,
    # their squared norms as the last row
    _operand: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.vectors = np.ascontiguousarray(self.vectors, dtype=np.float32)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.vectors.ndim != 2 or self.vectors.shape[0] != self.labels.shape[0]:
            raise DimensionError(
                f"memory vectors {self.vectors.shape} vs labels {self.labels.shape}"
            )
        if len(self.provenance) != self.vectors.shape[0]:
            raise DimensionError(
                f"memory provenance length {len(self.provenance)} vs {self.vectors.shape[0]} entries"
            )
        finite = np.isfinite(self.vectors).all(axis=1)
        if not finite.all():
            raise NumericError(
                f"memory entry {int(np.argmin(finite))} has a non-finite vector"
            )
        self.vectors.setflags(write=False)
        self.labels.setflags(write=False)
        self._prov_to_id = {p: i for i, p in enumerate(self.provenance)}
        n, d = self.vectors.shape
        self._operand = np.empty((d + 1, n))
        self._operand[:d] = self.vectors.T  # cast in place: no float64 copy of the memory
        np.einsum("ij,ij->j", self._operand[:d], self._operand[:d], out=self._operand[d])

    def __len__(self) -> int:
        return self.vectors.shape[0]

    @property
    def d(self) -> int:
        return self.vectors.shape[1]


def build_memory(
    encoder: EncoderParams,
    vocab: Vocabulary,
    instances: Sequence[Instance],
    fraction: float = 0.15,
    seed: int = 0,
    stratified: bool = False,
    source_digest: str = "",
    external=None,
) -> ActivationMemory:
    """Encode the training set in evaluation mode and sample token activations.

    Sampling is uniform without replacement over all tokens (or proportional
    per gold label with ``stratified``), driven entirely by ``seed``.
    """
    if not instances:
        raise DomainError("build_memory: empty training set")
    if not (0.0 < fraction <= 1.0):
        raise DomainError(f"build_memory: fraction must be in (0, 1], got {fraction}")
    rng = make_rng(seed, _STREAM_SAMPLE)
    table = TokenTable.build(instances, vocab, external)
    h = encode_rows(table, encoder)
    labels = vocab.tag_ids([tag for inst in instances for tag in inst.gold_labels])

    if stratified:
        chosen = []
        for lab in np.unique(labels):
            group = np.flatnonzero(labels == lab)
            count = max(1, int(round(fraction * len(group))))
            chosen.append(group[rng.choice(len(group), size=count, replace=False)])
        chosen = np.sort(np.concatenate(chosen))
    else:
        count = max(1, int(round(fraction * len(labels))))
        chosen = np.sort(rng.choice(len(labels), size=count, replace=False))

    sentence = np.repeat(np.arange(len(instances)), table.lengths)[chosen]
    tokens = chosen - table.starts[sentence]
    return ActivationMemory(
        vectors=h[chosen].astype(np.float32),
        labels=labels[chosen],
        provenance=[(instances[i].sentence_id, int(t)) for i, t in zip(sentence, tokens)],
        seed=seed,
        fraction=fraction,
        source_digest=source_digest,
    )


class _SelfExclusions(abc.Sequence):
    """Per token row, the one-key collection ``((sentence id, token index),)``,
    made on access: a corpus of T tokens holds no T lists of keys."""

    def __init__(self, instances: Sequence[Instance]) -> None:
        self._sentences = [(inst.sentence_id, len(inst)) for inst in instances]
        self._starts = np.cumsum([0] + [n for _, n in self._sentences])

    def __len__(self) -> int:
        return int(self._starts[-1])

    def __getitem__(self, row: int) -> tuple[tuple[str, int]]:
        row = range(len(self))[row]  # counts from the end if negative; IndexError outside
        s = int(np.searchsorted(self._starts, row, side="right")) - 1
        return ((self._sentences[s][0], row - int(self._starts[s])),)

    def __iter__(self):
        for sid, n in self._sentences:
            for t in range(n):
                yield ((sid, t),)


def self_exclusions(instances: Sequence[Instance]) -> Exclusions:
    """Per token, in row order, the provenance key of its own memory entry:
    ``knn_entry_ids``' ``exclude`` that keeps each token from retrieving itself."""
    return _SelfExclusions(instances)


def _squared_distances(queries: np.ndarray, entries: np.ndarray) -> np.ndarray:
    """Exact squared Euclidean distances (B, C) of float64 queries (B, d) to
    float32 entries (B, C, d).

    The entries are cast to float64 (exactly) and the difference formed in
    place: the arithmetic of a naive per-pair scan, so re-ranked distances
    equal that scan's bit for bit (m - q is exactly -(q - m)).  The
    dot-product expansion only prefilters.
    """
    diff = entries.astype(np.float64)
    diff -= queries[:, None, :]
    np.square(diff, out=diff)
    return diff.sum(axis=2)


def _rounding_bound(q_sq: np.ndarray, m_sq_max: float, d: int) -> np.ndarray:
    """Per query, a bound delta on |(a + ||q||^2) - r| for every memory entry.

    a = [-2q, 1] . [m, M'] is the folded prefilter distance less the row
    constant ||q||^2, M' the operand's rounded squared norm ||m||^2, and r
    the explicit-difference distance.  With u = 2^-53, Q = ||q||^2,
    M = ||m||^2 and gamma_n = n u / (1 - n u): M' is a length-d sum of
    exact squares, off by at most gamma_d M.  The GEMM's length-(d + 1) dot
    product, summed in any order (BLAS blocking, FMA), is off by at most
    gamma_{d+1} times the sum of its |products|, and that sum is at most
    2 |q|.|m| + M' <= Q + M + M' <= Q + 2M + gamma_d M.  So a is off by at
    most d u M + (d + 1) u (Q + 2M) <= (3d + 2) u (Q + M) to first order.
    r rounds each term d + 2 times and is at most 2 (Q + M), so it is off by
    at most 2 gamma_{d+2} (Q + M).  Hence the gap is at most
    (5d + 6) u (Q + M) to first order; 8 (d + 2) covers the second-order
    terms, the rounding of the computed Q and max M' this bound is taken
    over, and the rounding of the threshold a_(k) + 2 delta itself.
    """
    return 8.0 * (d + 2) * 2.0**-53 * (q_sq + m_sq_max)


def _prefilter(q: np.ndarray, memory: ActivationMemory) -> np.ndarray:
    """Prefilter distances ||m||^2 - 2 q.m (B, N) of float64 queries (B, d):
    one GEMM of the rows [-2q, 1] with the memory's operand."""
    lhs = np.empty((len(q), q.shape[1] + 1))
    np.multiply(q, -2.0, out=lhs[:, :-1])
    lhs[:, -1] = 1.0
    return lhs @ memory._operand


def _resolve_exclusions(
    exclude: Exclusions | None, memory: ActivationMemory, n_q: int
) -> tuple[np.ndarray, np.ndarray]:
    """The excluded (query row, entry id) pairs, rows ascending, of one
    collection of provenance keys per query."""
    rows: list[int] = []
    cols: list[int] = []
    if exclude is not None:
        if len(exclude) != n_q:
            raise DimensionError(f"exclusions: {len(exclude)} collections for {n_q} queries")
        for q, keys in enumerate(exclude):
            hits = set()
            for key in keys:
                if not (isinstance(key, tuple) and len(key) == 2):
                    raise DimensionError(f"exclusions of query {q}: {key!r} is not a "
                                         f"(sentence id, token index) key")
                hits.add(memory._prov_to_id.get(key))
            hits.discard(None)  # keys of tokens the memory did not sample
            rows += [q] * len(hits)
            cols += hits
    return np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64)


def _block_top_k(queries, slack, memory: ActivationMemory, k: int, ex_rows, ex_cols,
                 ids: np.ndarray, dists: np.ndarray) -> None:
    """Exact top-k of one query block, written to its rows ``ids`` and ``dists``.

    The queries are cast to float64 here, a block at a time.  After the BLAS
    prefilter (``_prefilter``), a certified re-rank keeps, per row, every
    entry within the limit a_(k) + 2 delta of the row's k-th smallest
    prefilter value a_(k).  One partition at k yields a_(k), the largest of
    the first k, and the (k+1)-th value a_(k+1) beside it.  When every row's
    a_(k+1) exceeds its limit, no entry beyond the first k survives, so those
    k are the candidates without a pass over the full rows (the certificate);
    otherwise every row's survivors are counted and the partition widens to
    the largest count.
    """
    q = queries.astype(np.float64)
    approx = _prefilter(q, memory)
    approx[ex_rows, ex_cols] = np.inf  # every threshold below is finite
    n_m = approx.shape[1]
    cand = np.argpartition(approx, min(k, n_m - 1), axis=1)
    head = np.take_along_axis(approx, cand[:, : k + 1], axis=1)
    # every entry of the true top-k has a <= a_(k) + 2 delta
    limit = head[:, :k].max(axis=1, keepdims=True) + slack[:, None]
    width = k
    if k < n_m and not np.all(head[:, k:] > limit):
        width = int(np.count_nonzero(approx <= limit, axis=1).max())
        if width > k + 1:  # near-ties at the k-th distance: widen to all survivors
            cand = np.argpartition(approx, width - 1, axis=1)
    cand = np.sort(cand[:, :width], axis=1)
    kept = np.take_along_axis(approx, cand, axis=1) <= limit
    del approx  # free the (B, N) prefilter rows before the gather
    exact = _squared_distances(q, memory.vectors[cand])
    exact[~kept] = np.inf
    order = np.argsort(exact, axis=1, kind="stable")[:, :k]
    ids[:] = np.take_along_axis(cand, order, axis=1)
    np.sqrt(np.take_along_axis(exact, order, axis=1), out=dists)


def knn_entry_ids(
    queries: np.ndarray,
    memory: ActivationMemory,
    k: int,
    exclude: Exclusions | None = None,
    threads: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact top-k by Euclidean distance: (entry ids (Q, k) int64, distances (Q, k) float64).

    ``queries`` is one vector (d,) or a batch (Q, d).  Rows are ascending by
    distance, ties broken by lower entry id.  ``exclude`` holds one
    collection of provenance keys per query, such as ``self_exclusions``;
    query q never returns the entries of its collection's keys.  A count of
    collections other than Q, or an item that is not a (sentence id, token
    index) pair, raises ``DimensionError``; a non-finite query raises
    ``NumericError``.
    """
    queries = np.asarray(queries)
    if queries.ndim == 1:
        queries = queries[None, :]
    if queries.ndim != 2 or queries.shape[1] != memory.d:
        raise DimensionError(f"queries {queries.shape} vs memory width {memory.d}")
    n_q, n_m = queries.shape[0], len(memory)
    q_sq = np.einsum("ij,ij->i", queries, queries, dtype=np.float64)
    m_sq_max = float(memory._operand[-1].max(initial=0.0))
    # squared distances are at most 2 (||q||^2 + ||m||^2); keep them finite
    bad = np.nonzero(~np.isfinite(4.0 * (q_sq + m_sq_max)))[0]
    if bad.size:
        raise NumericError(
            f"knn: query {int(bad[0])} is not finite or too large for float64 distances"
        )

    ex_rows, ex_cols = _resolve_exclusions(exclude, memory, n_q)
    usable = n_m - np.bincount(ex_rows, minlength=n_q)
    over = np.nonzero(k > usable)[0]
    if over.size:
        qi = int(over[0])
        raise CapacityError(
            f"knn_query: K={k} exceeds usable memory size {usable[qi]} "
            f"(|M|={n_m}, excluded={n_m - usable[qi]}) for query {qi}"
        )
    if k < 1:
        raise DomainError(f"knn_query: K must be >= 1, got {k}")

    slack = 2.0 * _rounding_bound(q_sq, m_sq_max, memory.d)
    rows_per_block = max(1, min(_QUERY_BLOCK, _BLOCK_DISTANCES // max(n_m, 1)))
    ids = np.empty((n_q, k), dtype=np.int64)
    dists = np.empty((n_q, k))

    def run_block(start: int) -> None:
        stop = min(start + rows_per_block, n_q)
        lo, hi = np.searchsorted(ex_rows, (start, stop))
        _block_top_k(queries[start:stop], slack[start:stop], memory, k,
                     ex_rows[lo:hi] - start, ex_cols[lo:hi], ids[start:stop], dists[start:stop])

    starts = range(0, n_q, rows_per_block)
    if threads > 1 and len(starts) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run_block, starts))
    else:
        for start in starts:
            run_block(start)
    return ids, dists


def knn_query(
    queries: np.ndarray,
    memory: ActivationMemory,
    k: int,
    exclude: Exclusions | None = None,
    threads: int = 1,
) -> NeighborSet | list[NeighborSet]:
    """``knn_entry_ids`` as neighbor sets: one for a query (d,), a list for a batch (Q, d)."""
    ids, dists = knn_entry_ids(queries, memory, k, exclude=exclude, threads=threads)
    sets = [
        NeighborSet(entry_ids=i, distances=dd, vectors=memory.vectors[i], labels=memory.labels[i])
        for i, dd in zip(ids, dists)
    ]
    return sets[0] if np.ndim(queries) == 1 else sets


def _metadata_blob(memory: ActivationMemory) -> bytes:
    text = (
        f"seed={memory.seed}\n"
        f"fraction={memory.fraction!r}\n"
        f"source_digest={memory.source_digest}\n"
    )
    return text.encode("utf-8")


def serialize_memory(memory: ActivationMemory, path: str) -> None:
    """Write the documented binary format; round-trips bit-identically."""
    payload = bytearray()
    payload += MEMORY_MAGIC
    payload += struct.pack("<I", memory.d)
    payload += struct.pack("<Q", len(memory))
    for i in range(len(memory)):
        payload += memory.vectors[i].astype("<f4").tobytes()
        payload += struct.pack("<I", int(memory.labels[i]))
        sid, tix = memory.provenance[i]
        sid_b = sid.encode("utf-8")
        payload += struct.pack("<I", len(sid_b))
        payload += sid_b
        payload += struct.pack("<I", tix)
    meta = _metadata_blob(memory)
    payload += struct.pack("<I", len(meta))
    payload += meta
    digest = hashlib.sha256(bytes(payload)).digest()
    payload += digest
    with open(path, "wb") as fh:
        fh.write(bytes(payload))


def deserialize_memory(path: str) -> ActivationMemory:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(MEMORY_MAGIC) + 32:
        raise FormatError(f"{path}: truncated memory file")
    if blob[: len(MEMORY_MAGIC)] != MEMORY_MAGIC:
        if blob[:7] == MEMORY_MAGIC[:7]:
            raise FormatError(f"{path}: unsupported memory format version")
        raise FormatError(f"{path}: not a memory file (bad magic)")
    body, digest = blob[:-32], blob[-32:]
    if hashlib.sha256(body).digest() != digest:
        raise FormatError(f"{path}: memory content digest mismatch")
    off = len(MEMORY_MAGIC)

    def take(n: int) -> bytes:
        nonlocal off
        if off + n > len(body):
            raise FormatError(f"{path}: truncated memory file")
        out = body[off : off + n]
        off += n
        return out

    def text(raw: bytes, what: str) -> str:
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"{path}: {what} is not UTF-8") from None

    d = struct.unpack("<I", take(4))[0]
    count = struct.unpack("<Q", take(8))[0]
    # each entry takes at least its vector, label, id length and token index
    if count * (4 * d + 12) > len(body) - off:
        raise FormatError(f"{path}: header declares {count} entries of width {d}, "
                          f"more than the file holds")
    vectors = np.empty((count, d), dtype=np.float32)
    labels = np.empty(count, dtype=np.int64)
    provenance: list[tuple[str, int]] = []
    for i in range(count):
        vectors[i] = np.frombuffer(take(4 * d), dtype="<f4")
        labels[i] = struct.unpack("<I", take(4))[0]
        sid_len = struct.unpack("<I", take(4))[0]
        sid = text(take(sid_len), f"sentence id of entry {i}")
        tix = struct.unpack("<I", take(4))[0]
        provenance.append((sid, tix))
    if not np.isfinite(vectors).all():
        raise FormatError(f"{path}: non-finite vector in memory file")
    meta_len = struct.unpack("<I", take(4))[0]
    meta = text(take(meta_len), "metadata")
    if off != len(body):
        raise FormatError(f"{path}: trailing bytes in memory file")
    try:
        fields = dict(line.split("=", 1) for line in meta.splitlines() if line)
        seed = int(fields.get("seed", "0"))
        fraction = float(fields.get("fraction", "1.0"))
    except ValueError:
        raise FormatError(f"{path}: malformed memory metadata") from None
    return ActivationMemory(
        vectors=vectors,
        labels=labels,
        provenance=provenance,
        seed=seed,
        fraction=fraction,
        source_digest=fields.get("source_digest", ""),
    )
