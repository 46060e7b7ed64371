import numpy as np
import pytest

from streamdcs import (
    Chunk,
    CSVStream,
    DriftSchedule,
    SEAGenerator,
    StreamFormatError,
    read_csv_stream,
    sea_label,
)


def take(stream, n):
    return [next(stream) for _ in range(n)]


class TestSeaLabelRule:
    def test_sum_at_or_below_threshold_is_class_one(self):
        assert sea_label(np.array([3.0, 4.0, 5.0]), 8.0) == 1

    def test_sum_above_threshold_is_class_zero(self):
        assert sea_label(np.array([7.0, 5.0, 1.0]), 8.0) == 0

    def test_third_feature_never_influences_label(self):
        gen = SEAGenerator(seed=3)
        for inst in take(gen, 500):
            expected = 1 if inst.features[0] + inst.features[1] <= 8.0 else 0
            assert inst.label == expected


class TestSeaGenerator:
    def test_same_seed_same_sequence(self):
        a = take(SEAGenerator(seed=42), 1000)
        b = take(SEAGenerator(seed=42), 1000)
        assert all(np.array_equal(x.features, y.features) for x, y in zip(a, b))
        assert [x.label for x in a] == [y.label for y in b]

    def test_features_uniform_in_range(self):
        X = np.stack([i.features for i in take(SEAGenerator(seed=5), 2000)])
        assert X.shape == (2000, 3)
        assert X.min() >= 0.0 and X.max() < 10.0

    def test_class_one_prior_matches_monte_carlo_oracle(self):
        # Oracle: independent Monte-Carlo integration of the triangle
        # f0 + f1 <= 8 over the [0, 10)^2 feature square.
        oracle_rng = np.random.default_rng(999)
        pairs = oracle_rng.uniform(0, 10, size=(200_000, 2))
        oracle = np.mean(pairs.sum(axis=1) <= 8.0)
        labels = [i.label for i in take(SEAGenerator(seed=11), 100_000)]
        assert abs(np.mean(labels) - oracle) <= 0.01

    def test_noise_one_flips_every_label(self):
        clean = take(SEAGenerator(seed=8, noise_rate=0.0), 300)
        noisy = take(SEAGenerator(seed=8, noise_rate=1.0), 300)
        for c, n in zip(clean, noisy):
            assert np.array_equal(c.features, n.features)
            assert n.label == 1 - c.label

    def test_invalid_concept_rejected_at_construction(self):
        schedule = DriftSchedule(((0, 0), (100, 9)))
        with pytest.raises(ValueError):
            SEAGenerator(seed=1, schedule=schedule)

    def test_invalid_noise_rejected(self):
        with pytest.raises(ValueError):
            SEAGenerator(seed=1, noise_rate=1.5)

    def test_schedule_switches_threshold(self):
        schedule = DriftSchedule(((0, 0), (50, 3)))
        gen = SEAGenerator(seed=21, schedule=schedule)
        for position, inst in enumerate(take(gen, 200)):
            theta = 8.0 if position < 50 else 9.5
            assert inst.label == sea_label(inst.features, theta)


class TestDriftSchedule:
    def test_must_start_at_zero(self):
        with pytest.raises(ValueError):
            DriftSchedule(((5, 0),))

    def test_starts_strictly_increasing(self):
        with pytest.raises(ValueError):
            DriftSchedule(((0, 0), (100, 1), (100, 2)))

    def test_active_concept_matches_linear_scan(self, rng):
        starts = np.unique(rng.integers(1, 5000, size=6))
        segments = [(0, 0)] + [(int(s), int(i % 4)) for i, s in enumerate(starts, 1)]
        schedule = DriftSchedule(tuple(segments))

        def linear_scan(index):
            active = segments[0][1]
            for start, concept in segments:
                if start <= index:
                    active = concept
            return active

        for index in rng.integers(0, 6000, size=200):
            assert schedule.concept_at(int(index)) == linear_scan(int(index))

    def test_parse_round_trip(self):
        schedule = DriftSchedule.parse("0:0,10000:3")
        assert schedule.segments == ((0, 0), (10000, 3))
        with pytest.raises(ValueError):
            DriftSchedule.parse("0-0")


class TestChunk:
    def test_capacity_and_fill(self):
        chunk = Chunk(3)
        consumed = chunk.add(np.zeros((2, 2)), np.zeros(2, dtype=int))
        assert consumed == 2 and not chunk.is_full
        consumed = chunk.add(np.ones((5, 2)), np.ones(5, dtype=int))
        assert consumed == 1 and chunk.is_full
        assert len(chunk) == 3

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            Chunk(0)


class TestCsvStream:
    def test_labels_mapped_by_first_appearance(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("1,2,A\n3,4,B\n5,6,A\n")
        stream = read_csv_stream(path)
        instances = list(stream)
        assert [i.label for i in instances] == [0, 1, 0]
        assert stream.n_features == 2 and stream.n_classes == 2
        assert stream.class_labels == ["A", "B"]

    def test_header_skipped(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("f1,f2,cls\n1,2,A\n3,4,B\n")
        stream = CSVStream(path, header=True)
        assert len(stream) == 2
        assert stream.n_features == 2 and stream.n_classes == 2

    def test_parse_error_names_row_and_column(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("1,x,A\n")
        with pytest.raises(StreamFormatError, match="row 1, column 2"):
            read_csv_stream(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_cell_names_row_and_column(self, tmp_path, cell):
        path = tmp_path / "s.csv"
        path.write_text(f"1,2,A\n3,{cell},B\n")
        with pytest.raises(StreamFormatError, match="row 2, column 2: non-finite"):
            read_csv_stream(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("1,2,A\n3,4\n")
        with pytest.raises(StreamFormatError, match="row 2"):
            read_csv_stream(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("")
        with pytest.raises(StreamFormatError):
            read_csv_stream(path)

    def test_label_column_index(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("A,1,2\nB,3,4\n")
        stream = CSVStream(path, label_column=0)
        first = next(stream)
        assert first.label == 0
        assert np.array_equal(first.features, [1.0, 2.0])

    def test_exhaustion(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("1,2,A\n")
        stream = read_csv_stream(path)
        next(stream)
        with pytest.raises(StopIteration):
            next(stream)
