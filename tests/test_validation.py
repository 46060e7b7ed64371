import numpy as np
import pytest

from streamdcs import (
    Chunk,
    NotReadyError,
    Pool,
    ValidationSet,
    member_posteriors,
    output_profiles,
)

from helpers import (
    ConstantClassifier,
    LinearSoftmaxClassifier,
    make_chunk,
    make_validation,
    profile_neighbors,
)
from reference import brute_knn_indices, einsum_knn, profile_of


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


class TestChunk:
    @pytest.mark.parametrize(
        "X, y, message",
        [
            (np.zeros((3, 3)), [0.5, 1.7, 2.2], "row 0 holds 0.5"),
            (np.zeros((3, 3)), [1], "length mismatch"),
            (np.zeros((2, 3)), [[0, 1], [1, 0]], "length mismatch"),
            ([[0.0, np.nan, 1.0]], [0], "features must be finite"),
            (np.full((1, 1), 7.0), [1], "expected 3, got 1"),
            (np.full((1, 4), 7.0), [1], "expected 3, got 4"),
        ],
    )
    def test_bad_rows_or_labels_rejected_and_nothing_stored(self, X, y, message):
        # Rather than truncated, broadcast or stored as they are.
        chunk = Chunk(4)
        chunk.add(np.ones((1, 3)), [0])
        with pytest.raises(ValueError, match=message):
            chunk.add(X, y)
        assert chunk.features.tolist() == [[1.0, 1.0, 1.0]] and chunk.labels.tolist() == [0]


class TestKnnQuery:
    def test_forced_by_distances(self):
        vs = make_validation([[0.0], [5.0], [10.0]], [0, 1, 1])
        neigh = vs.knn_query(np.array([1.0]), 2)
        assert np.array_equal(vs.features[neigh.indices].ravel(), [0.0, 5.0])
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
        assert np.array_equal(vs.features[neigh.indices].ravel(), [1.0, 2.0])

    def test_all_false_mask_gives_an_empty_neighborhood(self):
        vs = make_validation([[0.0, 1.0], [1.0, 0.0]], [0, 0])
        neigh = vs.knn_query(np.array([0.1, 0.2]), 3, where=vs.labels == 1)
        assert len(neigh) == 0
        assert neigh.indices.shape == (0,) and neigh.labels.shape == (0,)
        assert neigh.distances.shape == (0,)

    @pytest.mark.parametrize("shape", [(9,), (11,), (10, 1), ()])
    def test_mask_that_is_not_one_entry_per_row_rejected(self, shape):
        vs = make_validation(np.arange(10.0).reshape(-1, 1), [0] * 10)
        with pytest.raises(ValueError, match="10 rows"):
            vs.knn_query(np.array([9.0]), 1, where=np.ones(shape, dtype=bool))

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
        rows1, rows2 = first.features[n1.indices], second.features[n2.indices]
        assert {tuple(r) for r in rows1} == {tuple(r) for r in rows2}


def window_of(rng, d, scale):
    """A three-chunk window with duplicate rows and exact distance ties: a
    third of its rows come from a coarse integer grid, and some repeat."""
    vs = ValidationSet(max_chunks=3)
    for _ in range(3):
        X = rng.uniform(-1.0, 1.0, size=(60, d)) * scale
        X[::3] = rng.integers(-2, 3, size=(20, d)) * scale
        X[1::7] = X[0]
        vs.push_chunk(make_chunk(X, rng.integers(0, 2, 60)))
    return vs


class TestExactRescoring:
    """knn_query equals the plain einsum scan bit for bit, in its indices and
    its distances, whatever the order in which the fast pass sums features."""

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
    # Ordinary values, squares near the largest double (some overflow),
    # squares in the subnormal range, and large squares whose sums stay
    # below the fast pass's overflow guard.
    @pytest.mark.parametrize("scale", [1.0, 6e153, 1e-160, 3e152])
    def test_matches_einsum_reference(self, rng, d, scale):
        vs = window_of(rng, d, scale)
        X = vs.features
        masks = [None, rng.random(len(vs)) < 0.3, rng.random(len(vs)) < 0.02]
        masks.append(np.zeros(len(vs), dtype=bool))
        queries = [rng.uniform(-1.0, 1.0, size=d) * scale for _ in range(15)]
        queries += [X[0], X[5], np.zeros(d), np.full(d, scale)]
        for q in queries:
            for where in masks:
                for k in (1, 3, 7, 40, len(vs), len(vs) + 5):
                    neigh = vs.knn_query(q, k, where=where)
                    indices, distances = einsum_knn(X, q, k, where)
                    assert neigh.indices.tolist() == indices.tolist()
                    assert neigh.distances.tobytes() == distances.tobytes()

    @pytest.mark.parametrize("d", [2, 3, 5, 8])
    def test_rows_tied_in_real_arithmetic(self, rng, d):
        # Permutations of a few vectors lie at one real distance from a
        # query with equal coordinates, but their floating-point sums differ
        # in the last bits by the order of the terms, so the fast pass and
        # the einsum can rank them differently.
        base = rng.uniform(-1.0, 1.0, size=(4, d))
        X = np.vstack([rng.permutation(row) for row in base for _ in range(15)])
        vs = make_validation(X, rng.integers(0, 2, len(X)))
        for q in (np.zeros(d), np.full(d, 0.25), np.full(d, -0.7)):
            for k in range(1, len(X) + 1):
                neigh = vs.knn_query(q, k)
                indices, distances = einsum_knn(vs.features, q, k)
                assert neigh.indices.tolist() == indices.tolist()
                assert neigh.distances.tobytes() == distances.tobytes()

    def test_masked_block_follows_the_window(self, rng):
        # Same labels, so the same mask, in a window of one chunk: only the
        # window's version tells the new rows from the old ones.
        vs = ValidationSet(max_chunks=1)
        y = rng.integers(0, 2, 50)
        for _ in range(3):
            vs.push_chunk(make_chunk(rng.normal(size=(50, 3)), y))
            q = rng.normal(size=3)
            neigh = vs.knn_query(q, 5, where=vs.labels == 1)
            indices, distances = einsum_knn(vs.features, q, 5, vs.labels == 1)
            assert neigh.indices.tolist() == indices.tolist()
            assert neigh.distances.tobytes() == distances.tobytes()

    def test_query_of_the_wrong_width_rejected(self):
        vs = make_validation([[0.0, 1.0], [1.0, 0.0]], [0, 1])
        with pytest.raises(ValueError, match="expected 2, got 1"):
            vs.knn_query(np.array([0.5]), 1)


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

    def test_profiles_are_a_view_of_the_posteriors(self, rng):
        X = rng.uniform(size=(20, 2))
        pool = [LinearSoftmaxClassifier(rng.normal(size=(2, 3))) for _ in range(4)]
        posteriors = member_posteriors(pool, X)
        profiles = output_profiles(posteriors)
        assert np.shares_memory(profiles, posteriors)
        assert np.array_equal(profiles, np.hstack([m.predict_proba(X) for m in pool]))

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


@pytest.mark.parametrize(
    "make, name", [(Chunk, "capacity"), (ValidationSet, "max_chunks"), (Pool, "max_size")]
)
def test_container_sizes_must_be_positive_integers(make, name):
    # Rejected by name rather than truncated to an integer.
    for value in (2.7, True, 0, -1, "3", None):
        with pytest.raises(ValueError, match=f"{name} must be a positive integer"):
            make(value)
    assert getattr(make(np.int64(3)), name) == 3
