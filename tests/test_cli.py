import numpy as np
import pytest

from streamdcs.cli import (
    BY_KEY,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_RUNTIME,
    FIELDS,
    METHODS,
    ConfigError,
    build_components,
    main,
    parse_config,
)


def fast_args(tmp_path, **overrides):
    values = {
        "stream": "sea",
        "method": "dynse",
        "learner": "nb",
        "chunk-size": "200",
        "pool-size": "3",
        "seed": "5",
        "n": "1500",
        "out": str(tmp_path / "r.csv"),
    }
    values.update(overrides)
    args = []
    for key, value in values.items():
        if value is not None:
            args.extend([f"--{key}", value])
    return args


class TestParseConfig:
    def test_reference_composition_is_valid(self, tmp_path):
        config = parse_config(
            [
                "--stream", "sea",
                "--method", "dynse",
                "--dcs", "knora-e",
                "--learner", "ht",
                "--chunk-size", "1000",
                "--pool-size", "10",
                "--seed", "1",
                "--n", "20000",
                "--out", str(tmp_path / "r.csv"),
            ]
        )
        assert config.method == "dynse" and config.dcs == "knora-e"
        assert config.chunk_size == 1000 and config.pool_size == 10
        assert config.k == 7 and config.val_window == 4

    def test_dcs_rejected_for_desdd(self, tmp_path):
        with pytest.raises(ConfigError, match="desdd"):
            parse_config(fast_args(tmp_path, method="desdd", dcs="ola"))

    def test_dcs_rejected_for_mde(self, tmp_path, capsys):
        args = fast_args(tmp_path, method="mde", dcs="ola")
        with pytest.raises(ConfigError, match="dcs is not applicable to method mde"):
            parse_config(args)
        assert main(args) == EXIT_CONFIG
        assert not (tmp_path / "r.csv.meta").exists()

    def test_default_dcs_replays_for_mde(self, tmp_path):
        # MDE sidecars record the default rule.
        config = parse_config(fast_args(tmp_path, method="mde", dcs="knora-e"))
        assert config.method == "mde"

    def test_negative_seed_is_a_config_error(self, tmp_path, capsys):
        args = fast_args(tmp_path, seed="-1")
        with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
            parse_config(args)
        assert main(args) == EXIT_CONFIG
        assert "config error: seed" in capsys.readouterr().err

    def test_desdd_without_explicit_dcs_is_fine(self, tmp_path):
        config = parse_config(fast_args(tmp_path, method="desdd"))
        assert config.method == "desdd"

    def test_missing_seed_rejected(self, tmp_path):
        args = fast_args(tmp_path, seed=None)
        with pytest.raises(ConfigError, match="seed"):
            parse_config(args)

    def test_zero_instance_budget_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="n must be >= 1"):
            parse_config(fast_args(tmp_path, n="0"))

    def test_unknown_config_keys_listed(self, tmp_path):
        cfg = tmp_path / "exp.ini"
        cfg.write_text("seed=1\nout=r.csv\nbogus=1\nmystery=2\n")
        with pytest.raises(ConfigError) as err:
            parse_config(["--config", str(cfg)])
        text = "; ".join(err.value.problems)
        assert "bogus" in text and "mystery" in text

    def test_flags_override_file(self, tmp_path):
        cfg = tmp_path / "exp.ini"
        cfg.write_text("seed=1\nout=a.csv\nchunk_size=100\n")
        config = parse_config(["--config", str(cfg), "--chunk-size", "250"])
        assert config.chunk_size == 250 and config.seed == 1

    def test_invalid_drift_concept_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="concept"):
            parse_config(fast_args(tmp_path, drift="0:0,100:7"))

    def test_csv_stream_requires_path(self, tmp_path):
        with pytest.raises(ConfigError, match="csv_path"):
            parse_config(fast_args(tmp_path, stream="csv"))

    def test_bad_alpha_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="alpha"):
            parse_config(fast_args(tmp_path, alpha="0"))

    def test_mandatory_out(self, tmp_path):
        args = fast_args(tmp_path)
        idx = args.index("--out")
        del args[idx : idx + 2]
        with pytest.raises(ConfigError, match="out"):
            parse_config(args)


class TestBuildComponents:
    def test_sea_dynse(self, tmp_path):
        config = parse_config(fast_args(tmp_path))
        stream, model = build_components(config)
        assert stream.n_classes == 2
        assert type(model).__name__ == "DynseClassifier"

    def test_csv_stream(self, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("1,2,A\n3,4,B\n5,6,A\n")
        config = parse_config(
            fast_args(tmp_path, stream="csv", **{"csv-path": str(data)})
        )
        stream, _ = build_components(config)
        assert stream.n_classes == 2 and stream.n_features == 2


class TestMain:
    def test_exit_codes(self, tmp_path, capsys):
        assert main(fast_args(tmp_path, n="600")) == EXIT_OK
        assert main(fast_args(tmp_path, n="0")) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err

    def test_report_and_sidecar_written(self, tmp_path):
        out = tmp_path / "run.csv"
        assert main(fast_args(tmp_path, n="600", out=str(out))) == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "index,accuracy,faded_accuracy,window_accuracy,kappa,gmean"
        assert lines[-1].startswith("600,")
        meta = (tmp_path / "run.csv.meta").read_text()
        assert "seed=5" in meta and "version=" in meta and "truncated=false" in meta

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(fast_args(tmp_path, n="800", out=str(out1))) == EXIT_OK
        assert main(fast_args(tmp_path, n="800", out=str(out2))) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()
        meta1 = (tmp_path / "a.csv.meta").read_text().replace("out=" + str(out1), "")
        meta2 = (tmp_path / "b.csv.meta").read_text().replace("out=" + str(out2), "")
        assert meta1 == meta2

    def test_sidecar_round_trip_reproduces_report(self, tmp_path):
        out = tmp_path / "r.csv"
        assert main(fast_args(tmp_path, n="600", out=str(out))) == EXIT_OK
        original = out.read_bytes()
        out.unlink()
        assert main(["--config", str(out) + ".meta"]) == EXIT_OK
        assert out.read_bytes() == original

    def test_truncated_csv_run_exits_zero(self, tmp_path):
        data = tmp_path / "d.csv"
        rows = "\n".join(f"{i},{i * 2},{'A' if i % 2 else 'B'}" for i in range(50))
        data.write_text(rows + "\n")
        out = tmp_path / "t.csv"
        code = main(
            fast_args(
                tmp_path,
                stream="csv",
                n="500",
                out=str(out),
                **{"csv-path": str(data), "chunk-size": "20"},
            )
        )
        assert code == EXIT_OK
        assert "truncated=true" in (tmp_path / "t.csv.meta").read_text()
        assert out.read_text().splitlines()[-1].startswith("50,")

    def test_io_failure_exits_runtime(self, tmp_path, capsys):
        out = tmp_path / "missing_dir" / "r.csv"
        assert main(fast_args(tmp_path, n="600", out=str(out))) == EXIT_RUNTIME
        assert "streamdcs:" in capsys.readouterr().err

    def test_non_finite_csv_cell_exits_runtime(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("1,2,A\n3,4,B\nnan,5,A\n")
        args = fast_args(tmp_path, stream="csv", **{"csv-path": str(data)})
        assert main(args) == EXIT_RUNTIME
        assert "row 3, column 1: non-finite" in capsys.readouterr().err

    def test_desdd_and_mde_run_end_to_end(self, tmp_path):
        for method in ("desdd", "mde"):
            out = tmp_path / f"{method}.csv"
            args = fast_args(tmp_path, method=method, n="600", out=str(out))
            if method == "desdd":
                args.extend(["--pool-size", "2"])
            assert main(args) == EXIT_OK
            assert out.exists()


def random_config(rng, directory):
    """A valid config drawn from the field table, as key=value text: each
    choice key from its choices, the rest from ranges that keep a run at
    1-2k instances. A CSV stream gets a data file in directory."""
    drawn = {
        "csv_path": "data.csv",
        "label_column": str(rng.choice(["last", "0", "2"])),
        "drift": str(rng.choice(["0:0", "0:2,700:3", "0:1,300:0,900:3"])),
        "noise": repr(float(rng.choice([0.0, 0.05, 0.25]))),
        "chunk_size": str(rng.integers(100, 400)),
        "pool_size": str(rng.integers(1, 5)),
        "k": str(rng.integers(1, 10)),
        "val_window": str(rng.integers(1, 5)),
        "seed": str(rng.integers(0, 2**40)),
        "n": str(rng.integers(1000, 2001)),
        "out": "report.csv",
        "alpha": repr(float(rng.choice([0.9, 0.999, 1.0]))),
        "metric_window": str(rng.integers(50, 600)),
        "checkpoint_every": str(rng.integers(100, 600)),
    }
    for field in FIELDS:
        if field.choices is not None:
            drawn[field.key] = str(rng.choice(field.choices))
    if "dcs_rule" not in METHODS[drawn["method"]]._param_names():
        drawn["dcs"] = BY_KEY["dcs"].default
    assert set(drawn) == set(BY_KEY)
    if drawn["stream"] == "csv":
        rows = rng.uniform(0.0, 10.0, size=(1500, 3)).round(3).astype(str).tolist()
        position = 3 if drawn["label_column"] == "last" else int(drawn["label_column"])
        for row in rows:
            row.insert(position, "AB"[int(float(row[0]) + float(row[1]) > 9.0)])
        header = ["x,y,z,label"] if drawn["header"] == "true" else []
        text = "\n".join(header + [",".join(row) for row in rows]) + "\n"
        (directory / "data.csv").write_text(text)
    return "".join(f"{key}={value}\n" for key, value in drawn.items())


@pytest.mark.parametrize("seed", range(12))
def test_random_sidecar_replays_byte_identical(seed, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config").write_text(random_config(np.random.default_rng(seed), tmp_path))
    assert main(["--config", "config"]) == EXIT_OK
    first = {name: (tmp_path / name).read_bytes() for name in ("report.csv", "report.csv.meta")}
    (tmp_path / "report.csv.meta").rename(tmp_path / "replayed")
    (tmp_path / "report.csv").unlink()
    assert main(["--config", "replayed"]) == EXIT_OK
    for name, expected in first.items():
        assert (tmp_path / name).read_bytes() == expected, name
