import dataclasses

import numpy as np
import pytest

from streamdcs import (
    KNOP,
    KNORAE,
    KNORAU,
    LCA,
    MCB,
    OLA,
    MDEVote,
    APosteriori,
    APriori,
    DCSRank,
    NotReadyError,
    RULES,
    build_context,
    make_rule,
    member_posteriors,
)

import reference as ref
from helpers import (
    TableClassifier,
    f1_context,
    make_context,
    make_validation,
    random_context,
    synth_posteriors,
    LinearSoftmaxClassifier,
)


class TestKnoraE:
    def test_shared_fixture_selects_perfect_member(self):
        result = KNORAE().select(f1_context())
        assert set(result.selected) == {1}
        assert result.prediction == 1
        assert not result.fallback_used
        assert result.n_neighbors_used == 3

    def test_reduction_drops_farthest_until_someone_is_perfect(self):
        ctx = make_context(
            correctness=[[1, 0, 1], [0, 1, 1]],
            labels=[0, 1, 0],
            query_predictions=[0, 1],
        )
        result = KNORAE().select(ctx)
        assert set(result.selected) == {0}
        assert result.n_neighbors_used == 1
        assert result.prediction == 0

    def test_everyone_perfect_selects_entire_pool(self):
        ctx = make_context(
            correctness=np.ones((3, 4), dtype=int),
            labels=[0, 1, 0, 1],
            query_predictions=[1, 1, 0],
        )
        result = KNORAE().select(ctx)
        assert set(result.selected) == {0, 1, 2}
        assert result.prediction == 1

    def test_nobody_ever_correct_falls_back_to_pool_vote(self):
        ctx = make_context(
            correctness=np.zeros((2, 3), dtype=int),
            labels=[0, 0, 0],
            query_predictions=[1, 1],
        )
        result = KNORAE().select(ctx)
        assert result.fallback_used
        assert set(result.selected) == {0, 1}
        assert result.prediction == 1

    def test_non_fallback_selection_is_sound(self, rng):
        for _ in range(1000):
            ctx, _ = random_context(rng)
            result = KNORAE().select(ctx)
            if result.fallback_used:
                continue
            m = result.n_neighbors_used
            assert m >= 1
            for i in result.selected:
                assert ctx.correctness[i, :m].all()


class TestKnoraU:
    def test_shared_fixture_weighted_votes(self):
        result = KNORAU().select(f1_context())
        # weights (2, 3) -> class 0 gets 2, class 1 gets 3
        assert result.prediction == 1
        assert set(result.selected) == {0, 1}
        assert result.weights == (2.0, 3.0)

    def test_all_zero_weights_fall_back(self):
        ctx = make_context(
            correctness=np.zeros((2, 2), dtype=int),
            labels=[0, 1],
            query_predictions=[0, 0],
        )
        result = KNORAU().select(ctx)
        assert result.fallback_used and result.prediction == 0

    def test_single_member_pool_follows_member(self):
        ctx = make_context(
            correctness=[[1, 0]], labels=[0, 1], query_predictions=[1]
        )
        result = KNORAU().select(ctx)
        assert result.prediction == 1 and set(result.selected) == {0}


class TestOLA:
    def test_shared_fixture(self):
        result = OLA().select(f1_context())
        assert set(result.selected) == {1} and result.prediction == 1

    def test_tie_selects_lowest_index(self):
        ctx = make_context(
            correctness=[[1, 0], [0, 1]], labels=[0, 1], query_predictions=[1, 0]
        )
        result = OLA().select(ctx)
        assert set(result.selected) == {0} and result.prediction == 1

    def test_single_member(self):
        ctx = make_context(correctness=[[0, 1]], labels=[0, 1], query_predictions=[0])
        assert set(OLA().select(ctx).selected) == {0}

    def test_appending_an_all_correct_neighbor_keeps_the_winner(self, rng):
        for _ in range(50):
            ctx, _ = random_context(rng, max_pool=4, max_k=5)
            extended = make_context(
                correctness=np.hstack(
                    [ctx.correctness, np.ones((ctx.n_members, 1), dtype=bool)]
                ),
                labels=np.append(ctx.labels, 0),
                query_predictions=ctx.query_predictions,
                n_classes=ctx.n_classes,
            )
            assert OLA().select(ctx).selected == OLA().select(extended).selected


class TestLCA:
    def test_shared_fixture_restricted_accuracy(self):
        result = LCA().select(f1_context())
        # member 0 predicts 0; neighbors labeled 0 are 1st and 3rd -> 1/2
        # member 1 predicts 1; the single neighbor labeled 1 is correct -> 1
        assert set(result.selected) == {1} and result.prediction == 1

    def test_predicted_class_absent_scores_zero(self):
        ctx = make_context(
            correctness=[[1, 1], [1, 1]],
            labels=[0, 0],
            query_predictions=[1, 0],
            n_classes=2,
        )
        result = LCA().select(ctx)
        assert set(result.selected) == {1}

    def test_perfect_on_own_class_scores_one(self):
        ctx = make_context(
            correctness=[[1, 0, 1]],
            labels=[0, 1, 0],
            query_predictions=[0],
        )
        assert LCA().select(ctx).prediction == 0


class TestAPriori:
    def test_hand_computed_weighted_mean(self):
        labels = np.zeros(3, dtype=np.int64)
        posteriors = np.array(
            [
                [[0.9, 0.1], [0.2, 0.8], [0.8, 0.2]],
                [[0.5, 0.5], [0.9, 0.1], [0.7, 0.3]],
            ]
        )
        ctx = make_context(
            correctness=posteriors.argmax(axis=2) == labels[None, :],
            labels=labels,
            query_predictions=[0, 1],
            distances=np.array([1.0, 1.0, 1.0]),
            posteriors=posteriors,
        )
        result = APriori().select(ctx)
        # means: (0.9+0.2+0.8)/3 = 0.6333 vs (0.5+0.9+0.7)/3 = 0.7
        assert set(result.selected) == {1} and result.prediction == 1

    def test_certain_member_selected(self):
        labels = np.array([0, 1, 0])
        posteriors = synth_posteriors([[1, 1, 1], [0, 0, 0]], labels, 2, peak=1.0)
        ctx = make_context(
            correctness=[[1, 1, 1], [0, 0, 0]],
            labels=labels,
            query_predictions=[0, 1],
            posteriors=posteriors,
        )
        assert set(APriori().select(ctx).selected) == {0}

    def test_zero_distance_neighbor_dominates(self):
        labels = np.zeros(3, dtype=np.int64)
        posteriors = np.array(
            [
                [[0.1, 0.9], [1.0, 0.0], [1.0, 0.0]],
                [[0.9, 0.1], [0.0, 1.0], [0.0, 1.0]],
            ]
        )
        ctx = make_context(
            correctness=posteriors.argmax(axis=2) == labels[None, :],
            labels=labels,
            query_predictions=[0, 1],
            distances=np.array([0.0, 1.0, 1.0]),
            posteriors=posteriors,
        )
        # member 1 is poor on the two far neighbors but near-certain on the
        # zero-distance one, whose weight 1/eps dwarfs everything else.
        assert set(APriori().select(ctx).selected) == {1}

    def test_scaling_distances_leaves_selection_unchanged(self, rng):
        for _ in range(50):
            ctx, _ = random_context(rng)
            scaled = dataclasses.replace(
                ctx,
                neighborhood=dataclasses.replace(
                    ctx.neighborhood, distances=ctx.neighborhood.distances * 3.0
                ),
            )
            assert APriori().select(ctx).selected == APriori().select(scaled).selected


class TestAPosteriori:
    def test_no_neighbor_of_predicted_class_scores_zero(self):
        labels = np.zeros(2, dtype=np.int64)
        ctx = make_context(
            correctness=[[1, 1], [0, 0]],
            labels=labels,
            query_predictions=[0, 1],
        )
        result = APosteriori().select(ctx)
        assert set(result.selected) == {0}

    def test_mass_only_on_true_class_scores_one(self):
        labels = np.array([0, 1, 0])
        posteriors = np.array(
            [
                [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]],
                [[0.6, 0.4], [0.6, 0.4], [0.6, 0.4]],
            ]
        )
        ctx = make_context(
            correctness=posteriors.argmax(axis=2) == labels[None, :],
            labels=labels,
            query_predictions=[0, 0],
            posteriors=posteriors,
        )
        result = APosteriori().select(ctx)
        assert set(result.selected) == {0}

    def test_f1_posteriors_match_brute_force(self):
        ctx = f1_context()
        raw = {
            "posteriors": ctx.posteriors.tolist(),
            "labels": ctx.labels.tolist(),
            "distances": ctx.distances.tolist(),
            "query_preds": ctx.query_predictions.tolist(),
        }
        expected = ref.aposteriori_ref(
            raw["posteriors"], raw["labels"], raw["distances"], raw["query_preds"]
        )
        result = APosteriori().select(ctx)
        assert (set(result.selected), result.prediction, result.fallback_used) == expected


class TestMCB:
    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), -1, 1.5, True, "0.5"])
    def test_threshold_outside_the_unit_interval_rejected(self, threshold):
        with pytest.raises(ValueError, match="similarity_threshold"):
            MCB(similarity_threshold=threshold)

    @pytest.mark.parametrize("threshold", [0, 1, 0.25, np.float64(0.7)])
    def test_threshold_in_the_unit_interval_accepted(self, threshold):
        assert MCB(similarity_threshold=threshold).similarity_threshold == threshold

    def test_all_neighbors_matching_query_behavior_reduces_to_ola(self):
        ctx = make_context(
            correctness=[[1, 1, 0], [1, 1, 0]],
            labels=[0, 0, 1],
            query_predictions=[0, 0],
        )
        mcb, ola = MCB().select(ctx), OLA().select(ctx)
        assert mcb.selected == ola.selected and mcb.prediction == ola.prediction
        assert mcb.n_neighbors_used == 3

    def test_no_neighbor_reaching_sigma_falls_back_to_full_neighborhood(self):
        ctx = f1_context()  # query behavior (0, 1); neighbor behaviors agree half
        mcb, ola = MCB().select(ctx), OLA().select(ctx)
        assert mcb.selected == ola.selected and mcb.prediction == ola.prediction
        assert mcb.n_neighbors_used == 3

    def test_single_passing_neighbor_decides(self):
        # Only the 2nd neighbor shares the query's behavior (0, 1); member 0
        # is correct there (label 0), so it wins the restricted accuracy.
        labels = np.array([1, 0, 1])
        posteriors = np.array(
            [
                [[0.1, 0.9], [0.9, 0.1], [0.1, 0.9]],
                [[0.1, 0.9], [0.1, 0.9], [0.1, 0.9]],
            ]
        )
        ctx = make_context(
            correctness=posteriors.argmax(axis=2) == labels[None, :],
            labels=labels,
            query_predictions=[0, 1],
            posteriors=posteriors,
        )
        result = MCB().select(ctx)
        assert result.n_neighbors_used == 1
        assert set(result.selected) == {0} and result.prediction == 0

    def test_restricted_tie_selects_lowest_index(self):
        # Both members behave (1, 1) on the query; only the 2nd neighbor
        # matches and both are correct there -> tie -> member 0.
        labels = np.array([0, 1, 0])
        posteriors = np.array(
            [
                [[0.9, 0.1], [0.1, 0.9], [0.1, 0.9]],
                [[0.1, 0.9], [0.1, 0.9], [0.9, 0.1]],
            ]
        )
        ctx = make_context(
            correctness=posteriors.argmax(axis=2) == labels[None, :],
            labels=labels,
            query_predictions=[1, 1],
            posteriors=posteriors,
        )
        result = MCB().select(ctx)
        assert result.n_neighbors_used == 1
        assert set(result.selected) == {0} and result.prediction == 1


class TestRank:
    def test_shared_fixture_prefix_lengths(self):
        result = DCSRank().select(f1_context())
        assert set(result.selected) == {1} and result.prediction == 1

    def test_wrong_on_nearest_gives_rank_zero(self):
        ctx = make_context(
            correctness=[[0, 1, 1], [1, 0, 0]],
            labels=[0, 1, 0],
            query_predictions=[0, 1],
        )
        result = DCSRank().select(ctx)
        assert set(result.selected) == {1}

    def test_correct_everywhere_gives_full_rank(self):
        ctx = make_context(
            correctness=[[1, 1, 1], [1, 1, 0]],
            labels=[0, 1, 0],
            query_predictions=[1, 0],
        )
        result = DCSRank().select(ctx)
        assert set(result.selected) == {0} and result.prediction == 1


class TestKNOP:
    def test_same_context_equals_knora_u(self):
        ctx = f1_context()
        knop, knora_u = KNOP().select(ctx), KNORAU().select(ctx)
        assert knop == knora_u

    def test_all_members_wrong_falls_back(self):
        ctx = make_context(
            correctness=np.zeros((3, 2), dtype=int),
            labels=[0, 0],
            query_predictions=[1, 1, 0],
        )
        assert KNOP().select(ctx).fallback_used

    def test_profile_space_pipeline_matches_composed_oracle(self, rng):
        X = rng.uniform(size=(30, 3))
        y = rng.integers(0, 2, 30)
        vs = make_validation(X, y)
        pool = [LinearSoftmaxClassifier(rng.normal(size=(3, 2))) for _ in range(3)]
        for _ in range(10):
            q = rng.uniform(size=3)
            ctx = build_context(pool, vs, q, 5, space="profile")
            result = KNOP().select(ctx)

            profiles = [
                ref.profile_of([m.predict_proba([row])[0].tolist() for m in pool])
                for row in X
            ]
            query_profile = ref.profile_of(
                [m.predict_proba([q])[0].tolist() for m in pool]
            )
            neighbor_idx = ref.brute_knn_indices(profiles, query_profile, 5)
            correctness = [
                [int(m.predict([X[n]])[0]) == y[n] for n in neighbor_idx] for m in pool
            ]
            query_preds = [int(m.predict([q])[0]) for m in pool]
            expected = ref.knop_ref(correctness, query_preds, 2)
            assert (set(result.selected), result.prediction, result.fallback_used) == expected


class TestMDEVote:
    def test_members_right_on_half_the_neighbors_vote(self):
        # k=4 needs 2 correct: members 0 and 2 qualify and say 1, member 1
        # (one correct) is left out though it would tie the vote.
        ctx = make_context(
            correctness=[[1, 1, 0, 0], [1, 0, 0, 0], [0, 1, 1, 1]],
            labels=[0, 1, 0, 1],
            query_predictions=[1, 0, 1],
        )
        result = MDEVote(k=4).select(ctx)
        assert result.selected == (0, 2) and result.prediction == 1
        assert not result.fallback_used and result.n_neighbors_used == 4

    def test_bar_is_half_the_requested_k(self):
        # Two neighbors found of k=7 asked for: 2 correct is below ceil(7/2).
        ctx = make_context(correctness=[[1, 1]], labels=[0, 1], query_predictions=[1])
        assert MDEVote(k=7).select(ctx).fallback_used
        assert not MDEVote(k=4).select(ctx).fallback_used

    def test_no_competent_member_falls_back_to_pool_vote(self):
        ctx = make_context(
            correctness=[[0, 0, 1], [0, 0, 0], [1, 0, 0]],
            labels=[0, 0, 1],
            query_predictions=[1, 1, 0],
        )
        result = MDEVote(k=3).select(ctx)
        assert result.fallback_used and result.selected == (0, 1, 2)
        assert result.prediction == 1

    def test_empty_neighborhood_falls_back_to_pool_vote(self, rng):
        X = rng.uniform(size=(12, 2))
        vs = make_validation(X, np.zeros(12, dtype=int))
        pool = [LinearSoftmaxClassifier(rng.normal(size=(2, 2))) for _ in range(3)]
        query = rng.uniform(size=2)
        ctx = build_context(pool, vs, query, 5, where=vs.labels == 1)
        assert len(ctx.neighborhood) == 0 and ctx.correctness.shape == (3, 0)
        result = MDEVote(k=5).select(ctx)
        assert result.fallback_used and result.n_neighbors_used == 0
        votes = np.bincount(ctx.query_predictions, minlength=2)
        assert result.prediction == int(np.argmax(votes))

    @pytest.mark.parametrize("k", [0, -3, 2.5, True, "7"])
    def test_k_must_be_a_positive_integer(self, k):
        with pytest.raises(ValueError, match="k must be a positive integer"):
            MDEVote(k=k)


class TestBuildContext:
    def test_given_query_posteriors_are_used_as_they_are(self, rng):
        X = rng.uniform(size=(30, 2))
        vs = make_validation(X, rng.integers(0, 2, 30))
        pool = [LinearSoftmaxClassifier(rng.normal(size=(2, 2))) for _ in range(3)]
        query = rng.uniform(size=2)
        reference = build_context(pool, vs, query, 5, space="profile")
        given = build_context(
            pool,
            vs,
            query,
            5,
            space="profile",
            posteriors=member_posteriors(pool, vs.features),
            query_posteriors=reference.query_posteriors.copy(),
        )
        assert np.array_equal(given.neighborhood.indices, reference.neighborhood.indices)
        assert np.array_equal(given.posteriors, reference.posteriors)
        assert np.array_equal(given.query_predictions, reference.query_predictions)
        # Read from a tensor of any layout, the neighbors' posteriors are
        # row-major, so the rules' sums over them run in one order.
        contiguous = build_context(
            pool, vs, query, 5, posteriors=np.ascontiguousarray(member_posteriors(pool, X))
        )
        assert contiguous.posteriors.flags.c_contiguous and given.posteriors.flags.c_contiguous

    def test_mask_restricts_the_neighborhood(self, rng):
        X = rng.uniform(size=(30, 2))
        y = rng.integers(0, 2, 30)
        vs = make_validation(X, y)
        pool = [LinearSoftmaxClassifier(rng.normal(size=(2, 2))) for _ in range(2)]
        query = rng.uniform(size=2)
        ctx = build_context(pool, vs, query, 4, where=y == 1)
        expected = vs.knn_query(query, 4, where=y == 1)
        assert np.array_equal(ctx.neighborhood.indices, expected.indices)
        assert (ctx.labels == 1).all()

    def test_profile_search_rejects_a_row_mask(self, rng):
        # Refused rather than ignored: a profile search cannot apply it.
        vs = make_validation(rng.uniform(size=(20, 2)), rng.integers(0, 2, 20))
        pool = [LinearSoftmaxClassifier(rng.normal(size=(2, 2))) for _ in range(2)]
        with pytest.raises(ValueError, match="profile-space search takes no row mask"):
            build_context(pool, vs, rng.uniform(size=2), 3, space="profile", where=np.zeros(20, bool))

    def test_shapes(self, rng):
        X = rng.uniform(size=(20, 4))
        y = rng.integers(0, 3, 20)
        vs = make_validation(X, y)
        pool = [LinearSoftmaxClassifier(rng.normal(size=(4, 3))) for _ in range(2)]
        ctx = build_context(pool, vs, rng.uniform(size=4), 3)
        assert ctx.correctness.shape == (2, 3)
        assert ctx.posteriors.shape == (2, 3, 3)
        assert ctx.query_posteriors.shape == (2, 3)
        assert ctx.n_classes == 3

    def test_correctness_equals_recomputation(self, rng):
        X = rng.uniform(size=(15, 2))
        y = rng.integers(0, 2, 15)
        vs = make_validation(X, y)
        pool = [LinearSoftmaxClassifier(rng.normal(size=(2, 2))) for _ in range(3)]
        ctx = build_context(pool, vs, rng.uniform(size=2), 5)
        recomputed = ctx.posteriors.argmax(axis=2) == ctx.labels[None, :]
        assert np.array_equal(ctx.correctness, recomputed)

    @pytest.mark.parametrize("space", ["feature", "profile"])
    def test_given_window_correctness_equals_recomputation(self, rng, space):
        X = rng.uniform(size=(40, 2))
        y = rng.integers(0, 3, 40)
        vs = make_validation(X, y)
        pool = [LinearSoftmaxClassifier(rng.normal(size=(2, 3))) for _ in range(4)]
        posteriors = member_posteriors(pool, X)
        correctness = posteriors.argmax(axis=2) == y
        for query in rng.uniform(size=(20, 2)):
            reference = build_context(pool, vs, query, 6, space=space)
            given = build_context(
                pool, vs, query, 6, space=space, posteriors=posteriors, correctness=correctness
            )
            assert np.array_equal(given.neighborhood.indices, reference.neighborhood.indices)
            assert given.correctness.dtype == bool
            assert np.array_equal(given.correctness, reference.correctness)

    def test_f1_reconstruction_from_raw_learners(self):
        neighbors = np.array([[0.0], [1.0], [2.0]])
        labels = np.array([0, 1, 0])
        query = np.array([-1.0])  # nearest-first order is then 0, 1, 2
        c0 = TableClassifier(
            {
                (0.0,): [0.9, 0.1],
                (1.0,): [0.1, 0.9],
                (2.0,): [0.2, 0.8],  # wrong on the 3rd neighbor
                (-1.0,): [0.8, 0.2],
            },
            n_classes=2,
        )
        c1 = TableClassifier(
            {
                (0.0,): [0.7, 0.3],
                (1.0,): [0.3, 0.7],
                (2.0,): [0.6, 0.4],
                (-1.0,): [0.2, 0.8],
            },
            n_classes=2,
        )
        vs = make_validation(neighbors, labels)
        ctx = build_context([c0, c1], vs, query, 3)
        assert np.array_equal(ctx.correctness, [[True, True, False], [True, True, True]])
        assert ctx.query_predictions.tolist() == [0, 1]
        assert KNORAE().select(ctx).prediction == 1

    def test_empty_pool_and_window_not_ready(self, rng):
        vs = make_validation([[0.0]], [0])
        with pytest.raises(NotReadyError):
            build_context([], vs, np.array([0.0]), 1)
        from streamdcs import ValidationSet

        with pytest.raises(NotReadyError):
            build_context(
                [LinearSoftmaxClassifier(rng.normal(size=(1, 2)))],
                ValidationSet(),
                np.array([0.0]),
                1,
            )


def _reference_for(name, raw):
    if name == "knora-e":
        return ref.knora_e_ref(raw["correctness"], raw["query_preds"], raw["n_classes"])
    if name == "knora-u":
        return ref.knora_u_ref(raw["correctness"], raw["query_preds"], raw["n_classes"])
    if name == "ola":
        return ref.ola_ref(raw["correctness"], raw["query_preds"])
    if name == "lca":
        return ref.lca_ref(raw["correctness"], raw["labels"], raw["query_preds"])
    if name == "apriori":
        return ref.apriori_ref(
            raw["posteriors"], raw["labels"], raw["distances"], raw["query_preds"]
        )
    if name == "aposteriori":
        return ref.aposteriori_ref(
            raw["posteriors"], raw["labels"], raw["distances"], raw["query_preds"]
        )
    if name == "mcb":
        return ref.mcb_ref(raw["posteriors"], raw["correctness"], raw["query_preds"])
    if name == "rank":
        return ref.rank_ref(raw["correctness"], raw["query_preds"])
    if name == "knop":
        return ref.knop_ref(raw["correctness"], raw["query_preds"], raw["n_classes"])
    raise AssertionError(name)


@pytest.mark.parametrize("name", sorted(RULES))
def test_rule_matches_brute_force_reference(name, rng):
    rule = make_rule(name)
    for trial in range(300):
        ctx, raw = random_context(rng)
        result = rule.select(ctx)
        expected = _reference_for(name, raw)
        got = (set(result.selected), result.prediction, result.fallback_used)
        assert got == expected, f"{name} diverged on trial {trial}: {got} vs {expected}"


def test_selectors_are_deterministic(rng):
    for _ in range(20):
        ctx, _ = random_context(rng)
        for name in RULES:
            rule = make_rule(name)
            assert rule.select(ctx) == rule.select(ctx)


def test_unknown_rule_name_rejected():
    with pytest.raises(ValueError):
        make_rule("nope")


def wide_context(rng):
    """A context of 1-12 members, 0-40 neighbors and 2-4 classes, with
    distances that repeat and reach zero, so the rules' sums run past the
    eight terms numpy adds one by one. Dyadic posteriors make ties between
    members and in votes common; some contexts leave every member wrong."""
    n_members = int(rng.integers(1, 13))
    k = int(rng.integers(0, 41))
    n_classes = int(rng.integers(2, 5))
    if rng.random() < 0.5:
        posteriors = rng.multinomial(8, [1.0 / n_classes] * n_classes, size=(n_members, k)) / 8.0
        query_posteriors = rng.multinomial(8, [1.0 / n_classes] * n_classes, size=n_members) / 8.0
    else:
        posteriors = rng.dirichlet(np.ones(n_classes), size=(n_members, k))
        query_posteriors = rng.dirichlet(np.ones(n_classes), size=n_members)
    distances = np.sort(rng.choice([0.0, 0.5, 1.0, rng.uniform(0.1, 3.0)], size=k))
    labels = rng.integers(0, n_classes, k)
    if rng.random() < 0.2:
        # Every member wrong on every neighbor that has a class no member
        # predicts there: that class becomes its label.
        predicted = posteriors.argmax(axis=2)
        for n in range(k):
            unpredicted = sorted(set(range(n_classes)) - set(predicted[:, n].tolist()))
            labels[n] = unpredicted[0] if unpredicted else labels[n]
    return make_context(
        posteriors.argmax(axis=2) == labels,
        labels,
        query_posteriors.argmax(axis=1),
        distances=distances,
        n_classes=n_classes,
        posteriors=posteriors,
        query_posteriors=query_posteriors,
    )


def masked_contexts(rng):
    """Contexts from build_context whose mask leaves fewer rows than k
    asks for, or none at all."""
    X = rng.uniform(size=(40, 2))
    y = rng.integers(0, 3, 40)
    vs = make_validation(X, y)
    pool = [LinearSoftmaxClassifier(rng.normal(size=(2, 3))) for _ in range(4)]
    for rows in (0, 1, 3, 6):
        where = np.zeros(40, dtype=bool)
        where[rng.choice(40, rows, replace=False)] = True
        yield build_context(pool, vs, rng.uniform(size=2), 7, where=where)


LOOP_ORACLES = {"knora-e": ref.knora_e_loop, "lca": ref.lca_loop, "aposteriori": ref.aposteriori_loop}
LOOP_COMPETENCES = {"lca": ref.lca_loop_competence, "aposteriori": ref.aposteriori_loop_competence}


@pytest.mark.parametrize("name", sorted(LOOP_ORACLES))
def test_vectorised_rules_equal_their_loop_oracles(name, rng):
    rule, oracle = make_rule(name), LOOP_ORACLES[name]
    contexts = [wide_context(rng) for _ in range(600)] + [random_context(rng)[0] for _ in range(300)]
    contexts += [ctx for _ in range(25) for ctx in masked_contexts(rng)]
    seen = {"empty": 0, "short": 0, "all wrong": 0}
    if name == "knora-e":
        seen.update({"fallback": 0, "vote tie": 0})
    for ctx in contexts:
        result = rule.select(ctx)
        assert result == oracle(ctx)
        if name in LOOP_COMPETENCES:
            # Bit for bit, so no near-tie can go the other way.
            assert rule._competence(ctx).tobytes() == LOOP_COMPETENCES[name](ctx).tobytes()
        seen["empty"] += len(ctx.neighborhood) == 0
        seen["short"] += 0 < len(ctx.neighborhood) < 7
        seen["all wrong"] += len(ctx.neighborhood) > 0 and not ctx.correctness.any()
        if name == "knora-e":
            seen["fallback"] += result.fallback_used
            voters = ctx.query_predictions[list(result.selected)]
            votes = np.bincount(voters, minlength=ctx.n_classes)
            seen["vote tie"] += int((votes == votes.max()).sum() > 1)
    assert all(seen.values()), seen
