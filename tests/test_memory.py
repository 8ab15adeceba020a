import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import traced_peak
from pnma.dataio import Instance, build_vocab
from pnma.encoder import init_encoder_params
from pnma.errors import CapacityError, DimensionError, DomainError, FormatError, NumericError
from pnma import memory as memory_module
from pnma.memory import (
    _BLOCK_DISTANCES,
    _GROUP_ENTRIES,
    _QUERY_BLOCK,
    MEMORY_MAGIC,
    ActivationMemory,
    _prefilter,
    _rounding_bound,
    build_memory,
    deserialize_memory,
    knn_entry_ids,
    knn_query,
    self_exclusions,
    serialize_memory,
)
from pnma.numeric import make_rng


def naive_knn(query, memory, k, excluded_ids=()):
    """Independent reference scan: per-entry squared distance, tie by id."""
    q = query.astype(np.float64)
    rows = []
    for i in range(len(memory)):
        if i in excluded_ids:
            continue
        m = memory.vectors[i].astype(np.float64)
        rows.append((float(np.square(q - m).sum()), i))
    rows.sort()
    top = rows[:k]
    ids = np.array([i for _, i in top], dtype=np.int64)
    dists = np.sqrt(np.array([d for d, _ in top]))
    return ids, dists


def random_memory(rng, n=50, d=8, n_labels=4, duplicates=0):
    vectors = rng.normal(size=(n, d)).astype(np.float32)
    for i in range(duplicates):
        vectors[n - 1 - i] = vectors[i]  # plant exact ties
    labels = rng.integers(0, n_labels, size=n)
    provenance = [(f"s{i // 5}", i % 5) for i in range(n)]
    return ActivationMemory(vectors=vectors, labels=labels, provenance=provenance)


class TestKnnQuery:
    def test_self_match_rank_one(self):
        rng = make_rng(1)
        mem = random_memory(rng)
        q = mem.vectors[17]
        res = knn_query(q, mem, 3)
        assert res.entry_ids[0] == 17
        assert res.distances[0] == 0.0

    def test_brute_force_oracle_1000_entries(self):
        rng = make_rng(2)
        mem = random_memory(rng, n=1000, d=16, duplicates=25)
        queries = rng.normal(size=(100, 16)).astype(np.float32)
        # make some queries exact duplicates of stored vectors too
        queries[:10] = mem.vectors[:10]
        results = knn_query(queries, mem, 8)
        for qi in range(100):
            ids, dists = naive_knn(queries[qi], mem, 8)
            np.testing.assert_array_equal(results[qi].entry_ids, ids)
            np.testing.assert_array_equal(results[qi].distances, dists)

    def test_duplicate_vectors_tie_by_lower_entry_id(self):
        vecs = np.zeros((4, 3), dtype=np.float32)
        mem = ActivationMemory(
            vectors=vecs, labels=np.zeros(4, dtype=np.int64),
            provenance=[("s", i) for i in range(4)],
        )
        res = knn_query(np.zeros(3, dtype=np.float32), mem, 3)
        np.testing.assert_array_equal(res.entry_ids, [0, 1, 2])

    def test_capacity_error(self):
        rng = make_rng(3)
        mem = random_memory(rng, n=10)
        with pytest.raises(CapacityError):
            knn_query(mem.vectors[0], mem, 11)

    def test_capacity_counts_exclusions(self):
        rng = make_rng(4)
        mem = random_memory(rng, n=10)
        exclude = [[mem.provenance[0]]]
        with pytest.raises(CapacityError):
            knn_query(mem.vectors[0], mem, 10, exclude=exclude)

    def test_excluded_provenance_never_returned(self):
        rng = make_rng(5)
        mem = random_memory(rng, n=30)
        q = mem.vectors[4]
        res = knn_query(q, mem, 5, exclude=[[mem.provenance[4]]])
        assert 4 not in res.entry_ids
        ids, dists = naive_knn(q, mem, 5, excluded_ids={4})
        np.testing.assert_array_equal(res.entry_ids, ids)
        np.testing.assert_array_equal(res.distances, dists)

    def test_per_query_exclusions(self):
        rng = make_rng(6)
        mem = random_memory(rng, n=20)
        queries = mem.vectors[:2]
        exclude = [[mem.provenance[0]], [mem.provenance[1]]]
        res = knn_query(queries, mem, 4, exclude=exclude)
        assert 0 not in res[0].entry_ids
        assert 1 not in res[1].entry_ids

    def test_repeated_key_excludes_its_entry_once(self):
        mem = random_memory(make_rng(6), n=6)
        key = mem.provenance[2]
        ids, _ = knn_entry_ids(mem.vectors[:1], mem, 5, exclude=[[key, key, ("absent", 0)]])
        assert sorted(ids[0].tolist()) == [0, 1, 3, 4, 5]

    @pytest.mark.parametrize("exclude", [
        [("s0", 4)],  # a bare key where the query's collection belongs
        [[("s0", 4)], [("s0", 3)]],  # two collections for one query
        ("s0", 4),
        [["s0"]],
    ], ids=["bare-key", "two-collections", "key-as-exclusions", "id-alone"])
    def test_exclusions_not_one_collection_of_keys_per_query(self, exclude):
        mem = random_memory(make_rng(6), n=20)
        with pytest.raises(DimensionError):
            knn_query(mem.vectors[0], mem, 4, exclude=exclude)

    def test_batched_equals_one_at_a_time(self):
        rng = make_rng(7)
        mem = random_memory(rng, n=200, d=12)
        queries = rng.normal(size=(33, 12)).astype(np.float32)
        batch = knn_query(queries, mem, 6)
        for qi in range(33):
            single = knn_query(queries[qi], mem, 6)
            np.testing.assert_array_equal(batch[qi].entry_ids, single.entry_ids)
            np.testing.assert_array_equal(batch[qi].distances, single.distances)

    def test_threads_do_not_change_results(self):
        rng = make_rng(8)
        mem = random_memory(rng, n=300, d=10)
        queries = rng.normal(size=(150, 10)).astype(np.float32)
        a, da = knn_entry_ids(queries, mem, 5, threads=1)
        b, db = knn_entry_ids(queries, mem, 5, threads=4)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(da, db)
        # per-query exclusions: each query drops its own unexcluded top-2
        exclude = [[mem.provenance[i] for i in row[:2]] for row in a]
        c, dc = knn_entry_ids(queries, mem, 5, exclude=exclude, threads=1)
        e, de = knn_entry_ids(queries, mem, 5, exclude=exclude, threads=4)
        np.testing.assert_array_equal(c, e)
        np.testing.assert_array_equal(dc, de)
        np.testing.assert_array_equal(c[:, :3], a[:, 2:])

    def test_rerank_makes_expansion_exact(self):
        # a large common offset: ||q||^2 + ||m||^2 - 2 q.m cancels to a few
        # bits, so the expansion alone misorders near neighbors
        rng = make_rng(21)
        n, d, k, n_q = 400, 16, 8, 40
        offset = rng.normal(size=d) * 1e4
        vectors = (offset + rng.normal(scale=2e-3, size=(n, d))).astype(np.float32)
        for i in range(20):
            vectors[n - 1 - i] = vectors[i]  # plant exact ties
        mem = ActivationMemory(
            vectors=vectors, labels=np.zeros(n, dtype=np.int64),
            provenance=[(f"s{i}", 0) for i in range(n)],
        )
        queries = (offset + rng.normal(scale=2e-3, size=(n_q, d))).astype(np.float32)
        queries[:10] = vectors[:10]
        excluded = [{i, i + n // 2} for i in range(n_q)]  # a hit's twin stays in
        exclude = [[mem.provenance[i] for i in sorted(e)] for e in excluded]
        ids, dists = knn_entry_ids(queries, mem, k, exclude=exclude)
        m = vectors.astype(np.float64)
        expansion_misorders = 0
        for qi in range(n_q):
            ref_ids, ref_dists = naive_knn(queries[qi], mem, k, excluded_ids=excluded[qi])
            np.testing.assert_array_equal(ids[qi], ref_ids)
            np.testing.assert_array_equal(dists[qi], ref_dists)
            q = queries[qi].astype(np.float64)
            approx = q @ q + np.einsum("ij,ij->i", m, m) - 2.0 * (m @ q)
            keep = np.array([i for i in range(n) if i not in excluded[qi]])
            by_approx = keep[np.lexsort((keep, approx[keep]))[:k]]
            expansion_misorders += not np.array_equal(by_approx, ref_ids)
        assert ids[0, 0] == n - 1 and dists[0, 0] == 0.0
        assert expansion_misorders > 0

    @pytest.mark.parametrize("k, certified", [(2, True), (3, False), (4, False),
                                              (5, True), (30, True)])
    def test_kth_value_certificate_and_its_fallback(self, monkeypatch, k, certified):
        # squared distances from the origin: 1, 2, 3, 3, 3, 4, 5 among far
        # entries, so the k-th and (k+1)-th values tie at k = 3 (and a third
        # entry ties too) and at k = 4, and are apart at k = 2 and k = 5;
        # k = 30 is the whole memory
        near = [[1, 0, 0, 0], [0, 1, 1, 0], [1, 1, 1, 0], [0, 1, 1, 1], [1, 0, 1, 1],
                [2, 0, 0, 0], [2, 1, 0, 0]]
        rng = make_rng(23)
        vectors = np.concatenate([near, rng.normal(size=(23, 4)) + 40.0])
        vectors = vectors[rng.permutation(30)].astype(np.float32)
        mem = ActivationMemory(vectors=vectors, labels=np.zeros(30, dtype=np.int64),
                               provenance=[("s", i) for i in range(30)])
        queries = np.zeros((3, 4), dtype=np.float32)
        counted = []
        count_nonzero = np.count_nonzero
        monkeypatch.setattr(np, "count_nonzero",
                            lambda *a, **kw: counted.append(1) or count_nonzero(*a, **kw))
        ids, dists = knn_entry_ids(queries, mem, k)
        assert (not counted) == certified  # the full-row pass runs only without it
        for qi in range(3):
            ref_ids, ref_dists = naive_knn(queries[qi], mem, k)
            np.testing.assert_array_equal(ids[qi], ref_ids)
            np.testing.assert_array_equal(dists[qi], ref_dists)

    def test_non_finite_query_raises(self):
        rng = make_rng(22)
        mem = random_memory(rng, n=20)
        for bad in (np.nan, np.inf, -np.inf):
            queries = rng.normal(size=(3, 8)).astype(np.float32)
            queries[1, 2] = bad
            with pytest.raises(NumericError, match="query 1"):
                knn_entry_ids(queries, mem, 4)
            with pytest.raises(NumericError, match="query 0"):
                knn_query(queries[1], mem, 4)

    def test_distances_nondecreasing(self):
        rng = make_rng(9)
        mem = random_memory(rng, n=64)
        res = knn_query(rng.normal(size=8).astype(np.float32), mem, 20)
        assert np.all(np.diff(res.distances) >= 0)

    def test_width_mismatch(self):
        rng = make_rng(10)
        mem = random_memory(rng, d=8)
        with pytest.raises(DimensionError):
            knn_query(np.zeros(5, dtype=np.float32), mem, 2)

    @pytest.mark.parametrize("n, width", [(256, np.uint8), (257, np.uint16),
                                          (65536, np.uint16), (65537, np.uint32)])
    def test_ids_have_the_memory_id_width(self, n, width):
        # the narrowest dtype that holds N - 1, on memories either side of
        # the uint8 and uint16 limits; the queries' nearest entries include
        # the last one, whose id needs the full width
        rng = make_rng(24)
        mem = random_memory(rng, n=n, d=2)
        queries = rng.normal(size=(6, 2)).astype(np.float32)
        queries[:2] = mem.vectors[[n - 1, n - 2]]
        ids, dists = knn_entry_ids(queries, mem, 8)
        assert ids.dtype == width == np.min_scalar_type(n - 1)
        assert knn_query(queries[0], mem, 8).entry_ids.dtype == width
        m = mem.vectors.astype(np.float64)
        for qi, q in enumerate(queries.astype(np.float64)):
            # naive_knn's scan, one vectorized pass: at d = 2 a sum is one addition
            exact = np.square(q - m).sum(axis=1)
            ref = np.lexsort((np.arange(n), exact))[:8]
            np.testing.assert_array_equal(ids[qi], ref)
            np.testing.assert_array_equal(dists[qi], np.sqrt(exact[ref]))
        assert ids[0, 0] == n - 1 and ids[1, 0] == n - 2


class TestFoldedPrefilter:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 2**32 - 1), offset=st.sampled_from([0.0, 1.0, 1e2, 1e4, 1e6]),
           scale=st.sampled_from([1e-3, 2e-3, 1.0, 1e3]), d=st.integers(1, 24),
           k=st.integers(1, 10))
    @example(seed=21, offset=1e4, scale=2e-3, d=16, k=8)  # as in the re-rank test above
    def test_within_rounding_bound_and_exact(self, monkeypatch, seed, offset, scale, d, k):
        # vectors around a large common offset, where the expansion cancels
        rng = np.random.default_rng(seed)
        n, n_q = 60, 13
        center = rng.normal(size=d) * offset
        vectors = (center + rng.normal(scale=scale, size=(n, d))).astype(np.float32)
        vectors[n - 5 :] = vectors[:5]  # plant exact ties
        queries = (center + rng.normal(scale=scale, size=(n_q, d))).astype(np.float32)
        queries[:3] = vectors[:3]
        mem = ActivationMemory(vectors=vectors, labels=np.zeros(n, dtype=np.int64),
                               provenance=[(f"s{i}", 0) for i in range(n)])

        q = queries.astype(np.float64)
        q_sq = np.einsum("ij,ij->i", q, q)
        delta = _rounding_bound(q_sq, float(mem._operand[-1].max()), d)
        explicit = np.square(vectors.astype(np.float64)[None] - q[:, None]).sum(axis=2)
        # (a + ||q||^2) - r, the squares exact and the sums nearly so in long double
        exact_q_sq = np.square(q.astype(np.longdouble)).sum(axis=1)
        gap = np.abs(_prefilter(q, mem).astype(np.longdouble) + exact_q_sq[:, None] - explicit)
        assert np.all(gap <= delta[:, None])

        monkeypatch.setattr(memory_module, "_QUERY_BLOCK", 4)  # several blocks per call
        excluded = [{i % n, (7 * i + 3) % n} for i in range(n_q)]
        for exclude in (None, [[mem.provenance[i] for i in sorted(e)] for e in excluded]):
            refs = [naive_knn(queries[qi], mem, k, () if exclude is None else excluded[qi])
                    for qi in range(n_q)]
            for threads in (1, 4):
                ids, dists = knn_entry_ids(queries, mem, k, exclude=exclude, threads=threads)
                np.testing.assert_array_equal(ids, [r[0] for r in refs])
                np.testing.assert_array_equal(dists, [r[1] for r in refs])


class TestIdsOnly:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 6), k=st.integers(1, 12),
           spread=st.integers(1, 3), offset=st.sampled_from([0.0, 0.5, 1e3]))
    def test_equal_the_naive_scan_through_ties(self, monkeypatch, seed, d, k, spread, offset):
        # lattice points: many entries equidistant from a query, and exact
        # duplicates, so rows reach the re-rank on both paths
        rng = np.random.default_rng(seed)
        n, n_q = 80, 17
        vectors = (offset + rng.integers(-spread, spread + 1, size=(n, d))).astype(np.float32)
        vectors[n - 6 :] = vectors[:6]
        queries = (offset + rng.integers(-spread, spread + 1, size=(n_q, d))
                   + rng.choice([0.0, 0.5], size=(n_q, 1))).astype(np.float32)
        queries[:4] = vectors[:4]
        mem = ActivationMemory(vectors=vectors, labels=np.zeros(n, dtype=np.int64),
                               provenance=[(f"s{i}", 0) for i in range(n)])
        reranked = []
        rerank = memory_module._rerank
        monkeypatch.setattr(memory_module, "_rerank",
                            lambda q, *a: reranked.append(len(q)) or rerank(q, *a))
        monkeypatch.setattr(memory_module, "_QUERY_BLOCK", 4)  # several blocks per call
        excluded = [{i % n, (5 * i + 1) % n} for i in range(n_q)]
        for exclude in (None, [[mem.provenance[i] for i in sorted(e)] for e in excluded]):
            refs = [naive_knn(queries[qi], mem, k, () if exclude is None else excluded[qi])[0]
                    for qi in range(n_q)]
            for threads in (1, 4):
                ids, dists = knn_entry_ids(queries, mem, k, exclude=exclude, threads=threads,
                                           distances=False)
                assert dists is None
                np.testing.assert_array_equal(ids, refs)
        assert reranked or k == 1

    def test_certified_rows_rerank_only_near_ties(self, monkeypatch):
        # generic distances, apart by far more than 2 delta, except between
        # the duplicate entries 0 and 199, which query 0 and a few others
        # find among their nearest
        rng = make_rng(41)
        mem = random_memory(rng, n=200, d=8, duplicates=1)
        queries = rng.normal(size=(30, 8)).astype(np.float32)
        queries[0] = mem.vectors[0] + np.float32(1e-3)
        refs = [naive_knn(queries[qi], mem, 5) for qi in range(30)]
        twins = [qi for qi, (ref_ids, _) in enumerate(refs) if {0, 199} <= set(ref_ids.tolist())]
        assert twins[0] == 0 and len(twins) < 5
        reranked = []
        rerank = memory_module._rerank
        monkeypatch.setattr(memory_module, "_rerank",
                            lambda q, *a: reranked.append((q, a[-1])) or rerank(q, *a))
        ids, _ = knn_entry_ids(queries, mem, 5, distances=False)
        assert len(reranked) == 1 and reranked[0][1] is None  # the certified path: no kept mask
        np.testing.assert_array_equal(reranked[0][0], queries[twins].astype(np.float64))
        full_ids, dists = knn_entry_ids(queries, mem, 5)
        np.testing.assert_array_equal(full_ids, ids)
        np.testing.assert_array_equal(ids, [ref_ids for ref_ids, _ in refs])
        np.testing.assert_array_equal(dists, [ref_dists for _, ref_dists in refs])


class TestRowGroups:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 5),
           lengths=st.lists(st.integers(1, 6), min_size=1, max_size=8),
           extra=st.integers(2, 12), group=st.integers(1, 5), block=st.integers(1, 12),
           k=st.integers(1, 8), k_usable=st.booleans(), exclude_self=st.booleans(),
           widen=st.booleans())
    @example(seed=5, d=2, lengths=[5, 5, 4], extra=6, group=3, block=7, k=4, k_usable=False,
             exclude_self=True, widen=False)
    def test_equal_the_naive_scan(self, monkeypatch, seed, d, lengths, extra, group, block, k,
                                  k_usable, exclude_self, widen):
        # lattice points, so that many entries tie; a memory of about half
        # the query tokens, as build_memory samples it, and a few other entries
        rng = np.random.default_rng(seed)
        instances = [Instance(f"s{i}", ("w",) * n, 0, (1,) + (0,) * (n - 1), ("O",) * n)
                     for i, n in enumerate(lengths)]
        keys = [(inst.sentence_id, t) for inst in instances for t in range(len(inst))]
        queries = rng.integers(-2, 3, size=(len(keys), d)).astype(np.float32)
        sampled = np.flatnonzero(rng.random(len(keys)) < 0.5)
        vectors = np.concatenate([queries[sampled],
                                  rng.integers(-2, 3, size=(extra, d)).astype(np.float32)])
        n = len(vectors)
        vectors[-1] = vectors[0]  # an exact tie, found by every group-th query row
        queries[::group] = vectors[0]
        mem = ActivationMemory(vectors=vectors, labels=np.zeros(n, dtype=np.int64),
                               provenance=[keys[i] for i in sampled]
                               + [("m", i) for i in range(extra)])
        own = {keys[i]: e for e, i in enumerate(sampled)}
        excluded = [{own[key]} if exclude_self and key in own else set() for key in keys]
        usable = n - np.array([len(e) for e in excluded])
        k = int(usable.min()) if k_usable else min(k, int(usable.min()))

        monkeypatch.setattr(memory_module, "_QUERY_BLOCK", block)
        monkeypatch.setattr(memory_module, "_GROUP_ENTRIES", group * n)  # rows per group
        if widen:  # a slack above every distance: every finite entry survives
            monkeypatch.setattr(memory_module, "_rounding_bound",
                                lambda q_sq, m_sq_max, d: 4.0 * (q_sq + m_sq_max) + 1.0)
        kept_masks = []
        rerank = memory_module._rerank
        monkeypatch.setattr(memory_module, "_rerank",
                            lambda q, *a: kept_masks.append(a[-1]) or rerank(q, *a))
        exclude = self_exclusions(instances) if exclude_self else None
        refs = [naive_knn(queries[qi], mem, k, excluded[qi]) for qi in range(len(keys))]
        for threads in (1, 2):
            ids, dists = knn_entry_ids(queries, mem, k, exclude=exclude, threads=threads)
            np.testing.assert_array_equal(ids, [ref_ids for ref_ids, _ in refs])
            np.testing.assert_array_equal(dists, [ref_dists for _, ref_dists in refs])
        if widen and (usable > k).any():
            assert any(kept is not None for kept in kept_masks)


def bulk_retrieval_case():
    """4,000 queries with self-exclusions against 4,096 entries: a block of
    128 rows spans 8 selection groups of 16."""
    rng = make_rng(31)
    n_q, n, d, k = 4000, 4096, 16, 64
    mem = random_memory(rng, n=n, d=d)
    queries = rng.normal(size=(n_q, d)).astype(np.float32)
    exclude = [[mem.provenance[i % n]] for i in range(n_q)]
    rows = min(_QUERY_BLOCK, _BLOCK_DISTANCES // n)
    group = max(1, _GROUP_ENTRIES // n)
    assert rows >= 8 * group
    # a block's float64 prefilter rows and its k + 1 candidates per row (ids,
    # prefilter values, order), and beside them one group's int64 partition
    # and survivor mask or, later, the re-rank's k candidates per query: their
    # ids, kept flags, and rows gathered in float32 and cast to float64
    block = (rows * n * 8 + rows * (k + 1) * 24
             + max(group * n * 9, group * k * (17 + 12 * d)))
    return mem, queries, exclude, k, block


@pytest.mark.parametrize("threads", [1, 2])
def test_bulk_retrieval_holds_outputs_and_one_block_per_thread(threads):
    mem, queries, exclude, k, block = bulk_retrieval_case()
    peak = traced_peak(lambda: knn_entry_ids(queries, mem, k, exclude=exclude, threads=threads))
    # the (Q, k) ids at the memory's id width and float64 distances
    id_width = np.min_scalar_type(len(mem) - 1).itemsize
    assert peak <= len(queries) * k * (id_width + 8) + threads * block + (1 << 20)


@pytest.mark.parametrize("threads", [1, 2])
def test_ids_only_retrieval_holds_no_distances(threads):
    # as above, less the (Q, k) float64 distances
    mem, queries, exclude, k, block = bulk_retrieval_case()
    peak = traced_peak(lambda: knn_entry_ids(queries, mem, k, exclude=exclude, threads=threads,
                                             distances=False))
    id_width = np.min_scalar_type(len(mem) - 1).itemsize
    assert peak <= len(queries) * k * id_width + threads * block + (1 << 20)


def synthetic_corpus():
    return [
        Instance("t-0", ("the", "cat", "runs"), 2, (0, 0, 1), ("B-A0", "I-A0", "B-V")),
        Instance("t-1", ("a", "dog", "runs"), 2, (0, 0, 1), ("B-A0", "I-A0", "B-V")),
        Instance("t-2", ("the", "dog", "sits"), 2, (0, 0, 1), ("B-A0", "I-A0", "B-V")),
    ]


def test_self_exclusions_hold_one_key_per_token():
    instances = synthetic_corpus() + [Instance("t-3", ("go",), 0, (1,), ("B-V",))]
    want = [((inst.sentence_id, t),) for inst in instances for t in range(len(inst))]
    exclude = self_exclusions(instances)
    assert len(exclude) == 10 and list(exclude) == want
    assert [exclude[i] for i in range(-10, 10)] == want + want
    for row in (10, -11):
        with pytest.raises(IndexError):
            exclude[row]
    assert len(self_exclusions([])) == 0


def test_self_exclusions_slice_as_a_list():
    instances = synthetic_corpus() + [Instance("t-3", ("go",), 0, (1,), ("B-V",))]
    exclude = self_exclusions(instances)
    rows = list(exclude)
    for s in (slice(2, 7), slice(-4, None), slice(None, -8), slice(-7, -2), slice(1, 9, 3),
              slice(None, None, -2), slice(8, 2, -3), slice(5, 5), slice(20, 30)):
        assert exclude[s] == rows[s]


class TestBuildMemory:
    def setup_method(self):
        self.instances = synthetic_corpus()
        self.vocab = build_vocab(self.instances, min_frequency=1)
        self.encoder = init_encoder_params(
            self.vocab.n_words, d_word=4, d_pred=3, d_hidden=6, n_layers=2,
            rng=make_rng(0),
        )

    def test_fraction_one_keeps_every_token(self):
        mem = build_memory(self.encoder, self.vocab, self.instances, fraction=1.0)
        assert len(mem) == 9

    @pytest.mark.parametrize("fraction, entries", [(0.2, 2), (0.4, 4), (0.7, 6), (0.75, 7)])
    def test_entry_count_rounds_to_nearest(self, fraction, entries):
        # fraction x 9 tokens: 1.8, 3.6, 6.3 and 6.75 entries
        mem = build_memory(self.encoder, self.vocab, self.instances, fraction=fraction)
        assert len(mem) == entries

    def test_same_seed_same_provenance(self):
        a = build_memory(self.encoder, self.vocab, self.instances, fraction=0.5, seed=3)
        b = build_memory(self.encoder, self.vocab, self.instances, fraction=0.5, seed=3)
        assert a.provenance == b.provenance
        np.testing.assert_array_equal(a.vectors, b.vectors)
        c = build_memory(self.encoder, self.vocab, self.instances, fraction=0.5, seed=4)
        assert a.provenance != c.provenance

    def test_vectors_match_eval_encoding(self):
        from pnma.encoder import encode_batch

        mem = build_memory(self.encoder, self.vocab, self.instances, fraction=1.0)
        inst = self.instances[0]
        h0 = encode_batch(self.vocab.word_ids(inst.tokens)[None, :],
                          np.array(inst.predicate_bits)[None, :], self.encoder)[0]
        idx = mem.provenance.index(("t-0", 1))
        np.testing.assert_array_equal(mem.vectors[idx], h0[1].astype(np.float32))

    def test_labels_and_provenance_stored(self):
        mem = build_memory(self.encoder, self.vocab, self.instances, fraction=1.0)
        idx = mem.provenance.index(("t-2", 2))
        assert self.vocab.tag_labels[mem.labels[idx]] == "B-V"

    def test_empty_training_set(self):
        with pytest.raises(DomainError, match="empty"):
            build_memory(self.encoder, self.vocab, [], fraction=0.5)

    def test_bad_fraction(self):
        with pytest.raises(DomainError):
            build_memory(self.encoder, self.vocab, self.instances, fraction=0.0)

    def test_non_finite_vectors_rejected(self):
        vectors = np.zeros((3, 2), dtype=np.float32)
        vectors[2, 1] = np.nan
        with pytest.raises(NumericError, match="entry 2"):
            ActivationMemory(vectors=vectors, labels=np.zeros(3, dtype=np.int64),
                             provenance=[("s", i) for i in range(3)])
        self.encoder.to_dict()["embed.word"][...] = np.nan
        with pytest.raises(NumericError):
            build_memory(self.encoder, self.vocab, self.instances, fraction=1.0)

    def test_memory_is_immutable(self):
        mem = build_memory(self.encoder, self.vocab, self.instances, fraction=1.0)
        with pytest.raises(ValueError):
            mem.vectors[0, 0] = 1.0


class TestSerialization:
    def _mem(self, n=100, d=7):
        rng = make_rng(11)
        return ActivationMemory(
            vectors=rng.normal(size=(n, d)).astype(np.float32),
            labels=rng.integers(0, 5, size=n),
            provenance=[(f"sent-{i:03d}", i % 9) for i in range(n)],
            seed=42,
            fraction=0.15,
            source_digest="abc123",
        )

    def test_round_trip_bit_identical(self, tmp_path):
        mem = self._mem()
        path = str(tmp_path / "m.mem")
        serialize_memory(mem, path)
        back = deserialize_memory(path)
        np.testing.assert_array_equal(back.vectors, mem.vectors)
        np.testing.assert_array_equal(back.labels, mem.labels)
        assert back.provenance == mem.provenance
        assert back.seed == mem.seed
        assert back.fraction == mem.fraction
        assert back.source_digest == mem.source_digest
        # and the file bytes themselves are stable
        path2 = str(tmp_path / "m2.mem")
        serialize_memory(back, path2)
        assert open(path, "rb").read() == open(path2, "rb").read()

    def test_empty_memory_round_trips(self, tmp_path):
        mem = ActivationMemory(
            vectors=np.zeros((0, 4), dtype=np.float32),
            labels=np.zeros(0, dtype=np.int64),
            provenance=[],
        )
        path = str(tmp_path / "e.mem")
        serialize_memory(mem, path)
        back = deserialize_memory(path)
        assert len(back) == 0
        assert back.d == 4

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.mem"
        path.write_bytes(b"NOTAMEM1" + b"\x00" * 64)
        with pytest.raises(FormatError, match="magic"):
            deserialize_memory(str(path))

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "v2.mem"
        path.write_bytes(b"PNMAMEM2" + b"\x00" * 64)
        with pytest.raises(FormatError, match="version"):
            deserialize_memory(str(path))

    def test_truncation(self, tmp_path):
        mem = self._mem(n=10)
        path = str(tmp_path / "t.mem")
        serialize_memory(mem, path)
        blob = open(path, "rb").read()
        path2 = tmp_path / "trunc.mem"
        path2.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(FormatError):
            deserialize_memory(str(path2))

    def test_digest_mismatch(self, tmp_path):
        mem = self._mem(n=10)
        path = str(tmp_path / "d.mem")
        serialize_memory(mem, path)
        blob = bytearray(open(path, "rb").read())
        blob[20] ^= 0xFF  # flip one payload byte
        path2 = tmp_path / "corrupt.mem"
        path2.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="digest"):
            deserialize_memory(str(path2))

    def test_non_finite_vector_is_format_error(self, tmp_path):
        import hashlib

        mem = self._mem(n=10)
        path = str(tmp_path / "n.mem")
        serialize_memory(mem, path)
        blob = bytearray(open(path, "rb").read()[:-32])
        blob[20:24] = np.array([np.nan], dtype="<f4").tobytes()  # entry 0, component 0
        blob += hashlib.sha256(bytes(blob)).digest()  # a valid digest over the crafted body
        path2 = tmp_path / "nan.mem"
        path2.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="non-finite"):
            deserialize_memory(str(path2))

    def _crafted(self, tmp_path, edit):
        """A serialized memory whose body ``edit`` rewrites, under a valid digest."""
        import hashlib

        path = str(tmp_path / "src.mem")
        serialize_memory(self._mem(n=10), path)
        body = edit(bytearray(open(path, "rb").read()[:-32]))
        crafted = tmp_path / "crafted.mem"
        crafted.write_bytes(bytes(body) + hashlib.sha256(bytes(body)).digest())
        return str(crafted)

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_crafted_files_load_or_raise_format_error(self, tmp_path, data):
        def edit(body):
            body = body[: data.draw(st.integers(len(MEMORY_MAGIC), len(body)))]
            for _ in range(data.draw(st.integers(0, 4))):
                at = data.draw(st.integers(len(MEMORY_MAGIC), len(body)))
                body[at : at + 4] = data.draw(st.binary(min_size=1, max_size=4))
            return body

        try:
            deserialize_memory(self._crafted(tmp_path, edit))
        except FormatError:
            pass

    def test_bytes_after_the_last_field_are_format_error(self, tmp_path):
        with pytest.raises(FormatError, match="trailing bytes in memory file"):
            deserialize_memory(self._crafted(tmp_path, lambda body: body + b"\0"))

    @pytest.mark.parametrize("d, count", [(7, 1 << 40), (0xFFFFFFFF, 1)])
    def test_oversized_header_is_format_error(self, tmp_path, d, count):
        def edit(body):
            body[8:20] = struct.pack("<IQ", d, count)
            return body

        with pytest.raises(FormatError, match="more than the file holds"):
            deserialize_memory(self._crafted(tmp_path, edit))

    def test_non_utf8_sentence_id_is_format_error(self, tmp_path):
        def edit(body):
            at = body.index(b"sent-003")
            body[at : at + 2] = b"\xff\xfe"
            return body

        with pytest.raises(FormatError, match="sentence id of entry 3"):
            deserialize_memory(self._crafted(tmp_path, edit))

    def test_non_utf8_metadata_is_format_error(self, tmp_path):
        def edit(body):
            at = body.index(b"seed=42")
            body[at : at + 1] = b"\xff"
            return body

        with pytest.raises(FormatError, match="metadata is not UTF-8"):
            deserialize_memory(self._crafted(tmp_path, edit))

    @pytest.mark.parametrize("old, new", [(b"seed=42", b"seed 42"), (b"seed=42", b"seed=4x")])
    def test_malformed_metadata_is_format_error(self, tmp_path, old, new):
        def edit(body):
            return body.replace(old, new)

        with pytest.raises(FormatError, match="malformed memory metadata"):
            deserialize_memory(self._crafted(tmp_path, edit))

    @pytest.mark.parametrize("meta, text", [
        (b"fraction=0.15\nsource_digest=abc123\n", "no seed"),
        (b"seed=42\nsource_digest=abc123\n", "no fraction"),
        (b"seed=42\nfraction=0.15\n", "no source_digest"),
        (b"", "no seed, fraction, source_digest"),
        (b"seed=42\nfraction=nan\nsource_digest=abc123\n",
         "fraction must lie in (0, 1], got 'nan'"),
        (b"seed=42\nfraction=7.5\nsource_digest=abc123\n",
         "fraction must lie in (0, 1], got '7.5'"),
        (b"seed=42\nfraction=0.0\nsource_digest=abc123\n",
         "fraction must lie in (0, 1], got '0.0'"),
        (b"seed=-1\nfraction=0.15\nsource_digest=abc123\n",
         "seed must be a non-negative integer, got '-1'"),
        (b"seed=42\nfraction=0.15\nsource_digest=abc123\nextra=1\n", "line 'extra=1'"),
        (b"seed=42\nseed=42\nfraction=0.15\nsource_digest=abc123\n", "line 'seed=42'"),
    ], ids=["no-seed", "no-fraction", "no-digest", "empty", "fraction-nan", "fraction-7.5",
            "fraction-0", "seed-negative", "unknown-key", "repeated-key"])
    def test_metadata_other_than_the_writers_is_format_error(self, tmp_path, meta, text):
        def edit(body):
            at = body.index(b"seed=42") - 4  # the metadata's u32 length
            return body[:at] + struct.pack("<I", len(meta)) + meta

        path = self._crafted(tmp_path, edit)
        with pytest.raises(FormatError) as err:
            deserialize_memory(path)
        assert str(err.value) == f"{path}: malformed memory metadata: {text}"
