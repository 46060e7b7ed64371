import numpy as np
import pytest

from streamdcs import Chunk, NotReadyError, ValidationSet, member_posteriors, output_profiles

from helpers import (
    ConstantClassifier,
    LinearSoftmaxClassifier,
    make_chunk,
    make_validation,
    profile_neighbors,
)
from reference import brute_knn_indices, profile_of


class TestWindow:
    def test_oldest_chunk_evicted_first(self):
        vs = ValidationSet(max_chunks=2)
        for tag in (0, 1, 2):
            vs.push_chunk(make_chunk([[float(tag)]] * 2, [tag % 2] * 2))
        assert vs.n_chunks == 2
        assert np.array_equal(vs.features.ravel(), [1.0, 1.0, 2.0, 2.0])

    def test_single_chunk_flat_size_one_thousand(self, rng):
        vs = ValidationSet(max_chunks=4)
        vs.push_chunk(make_chunk(rng.uniform(size=(1000, 3)), rng.integers(0, 2, 1000)))
        assert len(vs) == 1000

    def test_push_to_empty_preserves_order(self):
        X = [[0.0], [1.0], [2.0]]
        vs = make_validation(X, [0, 1, 0])
        assert np.array_equal(vs.features, X)
        assert np.array_equal(vs.labels, [0, 1, 0])

    def test_partial_chunk_rejected(self):
        vs = ValidationSet(max_chunks=2)
        partial = Chunk(5)
        partial.add(np.zeros((2, 1)), np.zeros(2, dtype=int))
        with pytest.raises(ValueError):
            vs.push_chunk(partial)

    def test_retained_chunks_are_last_min_w_pushes(self, rng):
        for _ in range(20):
            w = int(rng.integers(1, 5))
            pushes = int(rng.integers(1, 8))
            vs = ValidationSet(max_chunks=w)
            for tag in range(pushes):
                vs.push_chunk(make_chunk([[float(tag)]], [0]))
            expected = list(range(max(0, pushes - w), pushes))
            assert vs.features.ravel().astype(int).tolist() == expected


class TestKnnQuery:
    def test_forced_by_distances(self):
        vs = make_validation([[0.0], [5.0], [10.0]], [0, 1, 1])
        neigh = vs.knn_query(np.array([1.0]), 2)
        assert np.array_equal(neigh.features.ravel(), [0.0, 5.0])
        assert np.array_equal(neigh.labels, [0, 1])
        assert neigh.distances == pytest.approx([1.0, 4.0])

    def test_k_clamped_to_window_size(self):
        vs = make_validation([[0.0], [1.0]], [0, 1])
        neigh = vs.knn_query(np.array([0.2]), 10)
        assert len(neigh) == 2

    def test_matches_exhaustive_scan_oracle(self, rng):
        X = rng.uniform(size=(200, 5))
        vs = make_validation(X, rng.integers(0, 3, 200))
        for _ in range(25):
            q = rng.uniform(size=5)
            neigh = vs.knn_query(q, 7)
            assert neigh.indices.tolist() == brute_knn_indices(X.tolist(), q.tolist(), 7)

    def test_distance_ties_resolve_to_insertion_order(self):
        # Integer grid gives exact repeated distances.
        X = [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [1.0, 0.0]]
        vs = make_validation(X, [0, 1, 0, 1, 0])
        neigh = vs.knn_query(np.array([0.0, 0.0]), 3)
        assert neigh.indices.tolist() == [0, 1, 2]
        oracle = brute_knn_indices(X, [0.0, 0.0], 3)
        assert neigh.indices.tolist() == oracle

    def test_empty_window_not_ready(self):
        vs = ValidationSet()
        with pytest.raises(NotReadyError):
            vs.knn_query(np.array([0.0]), 1)

    def test_subset_mask_restricts_search(self):
        vs = make_validation([[0.0], [1.0], [2.0]], [0, 1, 1])
        neigh = vs.knn_query(np.array([0.1]), 2, where=vs.labels == 1)
        assert np.array_equal(neigh.features.ravel(), [1.0, 2.0])

    def test_neighbor_set_invariant_to_chunk_order(self, rng):
        a_X, a_y = rng.uniform(size=(6, 2)), rng.integers(0, 2, 6)
        b_X, b_y = rng.uniform(size=(6, 2)), rng.integers(0, 2, 6)
        first = ValidationSet(4)
        first.push_chunk(make_chunk(a_X, a_y))
        first.push_chunk(make_chunk(b_X, b_y))
        second = ValidationSet(4)
        second.push_chunk(make_chunk(b_X, b_y))
        second.push_chunk(make_chunk(a_X, a_y))
        q = rng.uniform(size=2)
        n1 = first.knn_query(q, 4)
        n2 = second.knn_query(q, 4)
        assert np.allclose(n1.distances, n2.distances)
        assert {tuple(r) for r in n1.features} == {tuple(r) for r in n2.features}


class TestProfileQuery:
    def test_identical_profiles_keep_insertion_order(self):
        vs = make_validation([[0.0], [1.0], [2.0]], [0, 0, 1])
        pool = [ConstantClassifier(0)]
        neigh = profile_neighbors(vs, pool, np.array([9.0]), 3)
        assert neigh.indices.tolist() == [0, 1, 2]
        assert np.allclose(neigh.distances, 0.0)

    def test_matches_brute_force_profile_scan(self, rng):
        X = rng.uniform(size=(50, 3))
        vs = make_validation(X, rng.integers(0, 2, 50))
        pool = [
            LinearSoftmaxClassifier(rng.normal(size=(3, 2))),
            LinearSoftmaxClassifier(rng.normal(size=(3, 2))),
        ]
        for _ in range(10):
            q = rng.uniform(size=3)
            neigh = profile_neighbors(vs, pool, q, 3)
            profiles = [
                profile_of([m.predict_proba([row])[0].tolist() for m in pool])
                for row in X
            ]
            query_profile = profile_of(
                [m.predict_proba([q])[0].tolist() for m in pool]
            )
            oracle = brute_knn_indices(profiles, query_profile, 3)
            assert neigh.indices.tolist() == oracle

    def test_exact_profile_match_is_first_with_zero_distance(self, rng):
        X = rng.uniform(size=(10, 2))
        vs = make_validation(X, rng.integers(0, 2, 10))
        pool = [LinearSoftmaxClassifier(rng.normal(size=(2, 2)))]
        neigh = profile_neighbors(vs, pool, X[4], 3)
        assert neigh.indices[0] == 4
        assert neigh.distances[0] == 0.0

    def test_profile_segments_sum_to_one(self, rng):
        X = rng.uniform(size=(20, 2))
        pool = [
            LinearSoftmaxClassifier(rng.normal(size=(2, 3))),
            LinearSoftmaxClassifier(rng.normal(size=(2, 3))),
        ]
        profiles = output_profiles(member_posteriors(pool, X))
        assert profiles.shape == (20, 6)
        for start in (0, 3):
            assert np.allclose(profiles[:, start : start + 3].sum(axis=1), 1.0, atol=1e-9)

    def test_empty_pool_not_ready(self):
        vs = make_validation([[0.0]], [0])
        with pytest.raises(NotReadyError):
            vs.knn_output_profiles(np.empty((0, 1, 2)), np.empty((0, 2)), 1)
