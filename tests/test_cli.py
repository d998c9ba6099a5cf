import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gpattack
from gpattack.cli import (
    CSV_DEFAULT_LONG,
    CSV_DEFAULT_SHORT,
    ConfigError,
    ExperimentConfig,
    load_config,
    main,
)
from gpattack.gp import load_gp, predict


def write_config(path, **overrides):
    payload = {
        "dataset": {"generator": "two_moons", "n": 60, "noise": 0.2},
        "lengthscale_short": 0.2,
        "lengthscale_long": 2.0,
        "seed": 3,
        "attack": {"points": 8, "cw_max_iter": 25},
        "extract": {"holdout": 10},
        "membership": {"trees": 10, "max_depth": 4},
        "secure": {"probes": 200, "grid_resolution": 25},
        "train": {"grid_resolution": 8},
    }
    payload.update(overrides)
    path.write_text(json.dumps(payload))
    return path


def write_csv(path, label_column="y"):
    rng = np.random.default_rng(0)
    labels = np.arange(40) % 2
    features = rng.normal(size=(40, 2)) + 3.0 * labels[:, None]
    rows = "".join(f"{a},{b},{y}\n" for (a, b), y in zip(features, labels))
    path.write_text(f"a,b,{label_column}\n" + rows)
    return path


def manifest_without_timestamp(path):
    payload = json.loads(path.read_text())
    payload.pop("timestamp")
    return payload


class TestConfig:
    def test_lengthscale_ordering_enforced(self):
        cfg = ExperimentConfig(lengthscale_short=2.0, lengthscale_long=0.5)
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_unknown_generator(self):
        cfg = ExperimentConfig(dataset={"generator": "spirals"})
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_missing_csv_is_an_error(self):
        cfg = ExperimentConfig(dataset={"csv": "/nonexistent.csv", "label_column": "y"})
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_csv_defaults_to_digit_style_lengthscale_pair(self, tmp_path):
        csv = tmp_path / "digits.csv"
        csv.write_text("a,b,y\n1,2,1\n3,4,0\n")
        cfg = ExperimentConfig(dataset={"csv": str(csv), "label_column": "y"})
        cfg.validate()
        assert cfg.lengthscale_short == CSV_DEFAULT_SHORT == 1.0
        assert cfg.lengthscale_long == CSV_DEFAULT_LONG == 8.0

    def test_flag_overrides_beat_file_values(self, tmp_path):
        config_path = write_config(tmp_path / "config.json")
        cfg = load_config(str(config_path), {"seed": 99, "out": "elsewhere"})
        assert cfg.seed == 99
        assert cfg.out == "elsewhere"

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"bogus": 1}')
        with pytest.raises(ConfigError):
            load_config(str(path), {})

    def test_non_object_config_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError):
            load_config(str(path), {})

    def test_int_past_the_digit_limit_rejected(self, tmp_path):
        # json raises a plain ValueError, not a JSONDecodeError, for it
        path = tmp_path / "config.json"
        path.write_text('{"dataset": {"noise": 1' + "0" * 5000 + "}}")
        with pytest.raises(ConfigError, match="'config': invalid JSON"):
            load_config(str(path), {})

    def test_noise_and_rho_checked_only_where_read(self):
        # blobs draw no noise, and only an abating (RBF) kernel has rho-balls
        ExperimentConfig(dataset={"generator": "blobs", "n": 40, "noise": -0.1}).validate()
        ExperimentConfig(kernel={"family": "linear"}, secure={"rho": 1.5}).validate()

    def test_int_accepted_where_default_is_float(self):
        cfg = ExperimentConfig(attack={"epsilon": 1}, extract={"interval": [1, 10]}, lengthscale_long=3)
        cfg.validate()
        assert cfg.attack["epsilon"] == 1

    @pytest.mark.parametrize(
        "field, overrides",
        [
            ("zero_rejection_eps", {"zero_rejection_eps": math.nan}),
            ("lengthscale_long", {"lengthscale_long": math.inf}),
            ("lengthscale_short", {"lengthscale_short": -math.inf}),
            ("train_fraction", {"train_fraction": math.nan}),
            ("dataset.noise", {"dataset": {"noise": math.nan}}),
            ("kernel.variance", {"kernel": {"variance": math.inf}}),
            ("kernel.offset", {"kernel": {"family": "poly", "offset": math.nan}}),
            ("rejection.tau0", {"rejection": {"tau0": math.nan}}),
            ("attack.cw_confidence", {"attack": {"cw_confidence": math.inf}}),
            ("extract.interval", {"extract": {"interval": [0.05, math.inf]}}),
            ("secure.rho", {"secure": {"rho": math.nan}}),
            ("dataset.noise", {"dataset": {"noise": 10**400}}),  # an int too large for a double
        ],
    )
    def test_non_finite_value_rejected_by_name(self, tmp_path, field, overrides):
        # json writes and reads NaN and Infinity, though neither is JSON
        config_path = write_config(tmp_path / "config.json", **overrides)
        with pytest.raises(ConfigError, match=f"'{field}': must be finite"):
            load_config(str(config_path), {})

    def test_lengthscale_with_normal_square_accepted(self):
        cfg = ExperimentConfig(lengthscale_short=1e-150)
        cfg.validate()
        assert cfg.lengthscale_short == 1e-150

    def test_partial_section_merges_over_defaults(self):
        cfg = ExperimentConfig(attack={"points": 5})
        assert cfg.attack == {**ExperimentConfig().attack, "points": 5}
        assert cfg.attack["epsilon"] == 0.3


class TestMain:
    def test_invalid_config_exits_2(self, tmp_path, capsys):
        config_path = write_config(tmp_path / "config.json", lengthscale_short=5.0)
        code = main(["train", "--config", str(config_path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "invalid configuration" in capsys.readouterr().err

    def test_non_finite_flag_exits_2(self, tmp_path, capsys):
        config_path = write_config(tmp_path / "config.json")
        code = main(["evade", "--config", str(config_path), "--epsilon", "nan", "--out", str(tmp_path / "out")])
        assert code == 2
        assert "'attack.epsilon': must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_lengthscale_with_subnormal_square_exits_2(self, tmp_path, capsys):
        # evade used to fail on a NaN point its own attack made, blaming a query
        config_path = write_config(tmp_path / "config.json", lengthscale_short=1e-160)
        code = main(["evade", "--config", str(config_path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "'lengthscale_short': lengthscale(s) must be at least" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_train_writes_reports_and_manifest(self, tmp_path):
        config_path = write_config(tmp_path / "config.json")
        out = tmp_path / "out"
        assert main(["train", "--config", str(config_path), "--out", str(out)]) == 0
        for name in ("model_short.json", "model_long.json", "accuracy.json", "grid_short.csv", "manifest.json"):
            assert (out / name).is_file(), name
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["subcommand"] == "train"
        for name, digest in manifest["artifacts"].items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest
        gp = load_gp(out / "model_short.json")
        assert np.isfinite(predict(gp, np.array([0.5, 0.5])).mean)

    @pytest.mark.parametrize("subcommand", ["train", "evade", "extract", "membership", "secure-demo"])
    def test_manifest_lists_exactly_the_files_written(self, tmp_path, subcommand):
        config_path = write_config(tmp_path / "config.json")
        out = tmp_path / "out"
        assert main([subcommand, "--config", str(config_path), "--out", str(out)]) == 0
        artifacts = json.loads((out / "manifest.json").read_text())["artifacts"]
        assert set(artifacts) == {path.name for path in out.iterdir()} - {"manifest.json"}
        for name, digest in artifacts.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest

    def test_non_finite_csv_cell_named(self, tmp_path, capsys):
        csv = write_csv(tmp_path / "data.csv")
        lines = csv.read_text().splitlines()
        a, _, y = lines[14].split(",")
        lines[14] = f"{a},nan,{y}"
        csv.write_text("\n".join(lines) + "\n")
        assert main(["train", "--data", str(csv), "--out", str(tmp_path / "out")]) == 1
        assert f"{csv}: row 15, column 'b': non-finite cell 'nan'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section",
        [
            {"attack": {"pionts": 5}},
            {"attack": 5},
            {"kernel": {"variance": -1}},
            {"kernel": {"variance": "high"}},
            {"zero_rejection_eps": -1.0},
            {"train_fraction": "0.5"},
            {"seed": 1.5},
            {"seed": True},
            {"lengthscale_short": "0.2"},
            {"attack": {"points": "x"}},
            {"attack": {"cw_max_iter": 2.5}},
            {"extract": {"interval": [0.05, "10"]}},
            {"membership": {"feature_set": "latent_mean"}},
            {"attack": {"points": -5}},
            {"membership": {"trees": 0}},
            {"secure": {"n_anchors": 0}},
            {"extract": {"holdout": -3}},
            {"extract": {"interval": [0.05]}},
            {"extract": {"interval": [10.0, 0.05]}},
            {"dataset": {"generator": "blobs", "d": "3"}},
            {"dataset": {"generator": "blobs", "separation": "far"}},
            {"dataset": {"csv": 5, "label_column": "y"}},
            {"extract": {"recover_budget_factor": 1}},
            {"extract": {"interval": [1e-160, 10.0]}},
        ],
        ids=[
            "unknown-key",
            "not-an-object",
            "negative-variance",
            "string-variance",
            "negative-eps",
            "string-train-fraction",
            "float-seed",
            "bool-seed",
            "string-lengthscale",
            "string-points",
            "float-cw-max-iter",
            "string-interval-item",
            "string-feature-set",
            "negative-points",
            "zero-trees",
            "zero-anchors",
            "negative-holdout",
            "one-number-interval",
            "reversed-interval",
            "string-blob-dimension",
            "string-separation",
            "int-csv-path",
            "budget-factor-one",
            "interval-end-with-subnormal-square",
        ],
    )
    def test_malformed_section_exits_2(self, tmp_path, capsys, section):
        config_path = write_config(tmp_path / "config.json", **section)
        code = main(["train", "--config", str(config_path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "invalid configuration" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_secure_spacing_check_builds_two_anchors(self, tmp_path, monkeypatch):
        # every subcommand loads the config, so the layout check must not grow with secure.n_anchors
        import gpattack.cli as cli

        real, seen = cli.build_secure_classifier, []

        def spy(anchors, *args):
            seen.append(len(anchors))
            return real(anchors, *args)

        monkeypatch.setattr(cli, "build_secure_classifier", spy)
        load_config(str(write_config(tmp_path / "config.json", secure={"n_anchors": 1000})), {})
        assert seen == [2]
        bad = write_config(tmp_path / "bad.json", secure={"n_anchors": 1000, "spacing_lengthscales": 2.0})
        with pytest.raises(ConfigError, match="secure.spacing_lengthscales"):
            load_config(str(bad), {})
        assert seen == [2, 2]

    @pytest.mark.parametrize(
        "field, section",
        [
            ("membership.attacker_fraction", {"membership": {"attacker_fraction": 0}}),
            ("membership.attacker_fraction", {"membership": {"attacker_fraction": 1.5}}),
            ("extract.jitter", {"extract": {"jitter": 0}}),
            ("extract.jitter", {"extract": {"jitter": -1e-8}}),
            ("attack.cw_step_size", {"attack": {"cw_step_size": 0}}),
            ("attack.cw_confidence", {"attack": {"cw_confidence": -1}}),
            ("dataset.n", {"dataset": {"generator": "two_moons", "n": 121}}),
            ("dataset.n", {"dataset": {"generator": "blobs", "n": 121}}),
            ("train_fraction", {"train_fraction": 1.0}),
            ("attack.epsilon", {"attack": {"epsilon": -1}}),
            ("attack.jsma_step", {"attack": {"jsma_step": 0}}),
            ("attack.jsma_step", {"attack": {"jsma_step": -0.3}}),
            ("dataset.noise", {"dataset": {"generator": "two_moons", "noise": -0.1}}),
            ("secure.rho", {"secure": {"rho": -0.5}}),
            ("secure.rho", {"secure": {"rho": 1.5}}),
            ("secure.spacing_lengthscales", {"secure": {"spacing_lengthscales": 0}}),
            ("secure.spacing_lengthscales", {"secure": {"spacing_lengthscales": 2.0}}),
            ("dataset.d", {"dataset": {"generator": "two_moons", "d": 3}}),
            ("dataset.separation", {"dataset": {"generator": "two_moons", "separation": 9.0}}),
        ],
    )
    def test_stage_rule_exits_2_by_name(self, tmp_path, capsys, field, section):
        # each rule has one home in its stage's code, which the config check calls
        config_path = write_config(tmp_path / "config.json", **section)
        code = main(["membership", "--config", str(config_path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"invalid configuration: config field '{field}'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_extract_recovers_training_data(self, tmp_path):
        # at this seed the training-data recovery used to stall far from the anchors
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"seed": 2}))
        out = tmp_path / "out"
        assert main(["extract", "--config", str(config_path), "--out", str(out)]) == 0
        recovery = json.loads((out / "extraction.json").read_text())["training_data_recovery"]
        assert recovery["converged"]
        assert max(recovery["point_distances"]) < 1e-6

    def test_manifest_echoes_every_config_value(self, tmp_path):
        config_path = write_config(tmp_path / "config.json")
        out = tmp_path / "out"
        assert main(["train", "--config", str(config_path), "--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["config"] == {
            "dataset": {"generator": "two_moons", "n": 60, "noise": 0.2},
            "kernel": {"family": "rbf", "variance": 1.0},
            "lengthscale_short": 0.2,
            "lengthscale_long": 2.0,
            "rejection": {"tau0": 0.3, "tau1": 0.3},
            "zero_rejection_eps": 1e-3,
            "train_fraction": 0.5,
            "seed": 3,
            "out": str(out),
            "train": {"grid_resolution": 8},
            "attack": {
                "points": 8,
                "epsilon": 0.3,
                "jsma_budget": 2,
                "jsma_step": 0.3,
                "cw_max_iter": 25,
                "cw_step_size": 0.02,
                "cw_confidence": 5.0,
            },
            "extract": {
                "interval": [0.05, 10.0],
                "jitter": 1e-8,
                "recover_n": 2,
                "recover_budget_factor": 3,
                "holdout": 10,
            },
            "membership": {"feature_set": ["latent_mean"], "attacker_fraction": 0.8, "trees": 10, "max_depth": 4},
            "secure": {"rho": 0.4, "n_anchors": 4, "spacing_lengthscales": 20.0, "probes": 200, "grid_resolution": 25},
        }

    def test_label_column_flag_applies_to_config_csv(self, tmp_path):
        csv = write_csv(tmp_path / "data.csv", label_column="target")
        config_path = write_config(tmp_path / "config.json", dataset={"csv": str(csv), "label_column": "y"})
        out = tmp_path / "out"
        argv = ["train", "--config", str(config_path), "--label-column", "target", "--out", str(out)]
        assert main(argv) == 0
        assert json.loads((out / "manifest.json").read_text())["config"]["dataset"]["label_column"] == "target"

    def test_data_flag_keeps_other_dataset_keys(self, tmp_path):
        config_path = write_config(tmp_path / "config.json", dataset={"generator": "blobs", "n": 40, "noise": 0.3})
        out = tmp_path / "out"
        assert main(["train", "--config", str(config_path), "--data", "two_moons", "--out", str(out)]) == 0
        echo = json.loads((out / "manifest.json").read_text())["config"]["dataset"]
        assert echo == {"generator": "two_moons", "n": 40, "noise": 0.3}
        assert load_gp(out / "model_short.json").data.features.shape[0] == 20

    def test_csv_data_flag_gets_csv_default_lengthscales(self, tmp_path):
        csv = write_csv(tmp_path / "data.csv")
        out = tmp_path / "out"
        assert main(["train", "--data", str(csv), "--out", str(out)]) == 0
        report = json.loads((out / "accuracy.json").read_text())
        assert report["short"]["lengthscale"] == CSV_DEFAULT_SHORT
        assert report["long"]["lengthscale"] == CSV_DEFAULT_LONG

    def test_lengthscale_flags_override(self, tmp_path):
        config_path = write_config(tmp_path / "config.json")
        out = tmp_path / "out"
        main(
            [
                "train",
                "--config",
                str(config_path),
                "--out",
                str(out),
                "--lengthscale-short",
                "0.3",
                "--lengthscale-long",
                "3.0",
            ]
        )
        report = json.loads((out / "accuracy.json").read_text())
        assert report["short"]["lengthscale"] == 0.3
        assert report["long"]["lengthscale"] == 3.0

    def test_membership_report_schema(self, tmp_path):
        config_path = write_config(
            tmp_path / "config.json",
            dataset={"generator": "blobs", "n": 80, "d": 2, "separation": 1.5},
        )
        out = tmp_path / "out"
        assert main(["membership", "--config", str(config_path), "--out", str(out)]) == 0
        report = json.loads((out / "membership_short.json").read_text())
        assert set(report) == {
            "feature_set",
            "accuracy",
            "baseline",
            "overfit_gap",
            "drift_ratio",
            "lengthscale",
            "seed",
        }

    def test_secure_demo_equivalence(self, tmp_path):
        config_path = write_config(tmp_path / "config.json")
        out = tmp_path / "out"
        assert main(["secure-demo", "--config", str(config_path), "--out", str(out)]) == 0
        report = json.loads((out / "secure.json").read_text())
        assert report["agreement_rate"] == 1.0
        assert report["identity_regime_fraction"] == 0.0

    def test_train_determinism(self, tmp_path, monkeypatch):
        # identical config and seeds, run from two working directories
        config_path = write_config(tmp_path / "config.json")
        for sub in ("a", "b"):
            workdir = tmp_path / sub
            workdir.mkdir()
            monkeypatch.chdir(workdir)
            assert main(["train", "--config", str(config_path), "--out", "reports"]) == 0
        out_a, out_b = tmp_path / "a" / "reports", tmp_path / "b" / "reports"
        names = sorted(p.name for p in out_a.iterdir())
        assert names == sorted(p.name for p in out_b.iterdir())
        for name in names:
            if name == "manifest.json":
                assert manifest_without_timestamp(out_a / name) == manifest_without_timestamp(out_b / name)
            else:
                assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_subcommands_run_without_scipy_special(tmp_path):
    # scipy.special and scipy.optimize (which imports it) cost every process
    # tens of milliseconds and megabytes to import, and no subcommand needs
    # them; each runs in a fresh interpreter, so none hides another's imports
    config_path = write_config(tmp_path / "config.json", dataset={"generator": "two_moons", "n": 40, "noise": 0.2})
    script = (
        "import sys\n"
        "import gpattack.cli\n"
        "code = gpattack.cli.main([sys.argv[1], '--config', sys.argv[2], '--out', sys.argv[3]])\n"
        "assert code == 0, code\n"
        "loaded = sorted({'scipy.optimize', 'scipy.special'} & sys.modules.keys())\n"
        "assert not loaded, loaded\n"
    )
    source_root = str(Path(gpattack.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [source_root, os.environ.get("PYTHONPATH")]))}
    for sub in ("train", "evade", "extract", "membership", "secure-demo"):
        result = subprocess.run(
            [sys.executable, "-c", script, sub, str(config_path), str(tmp_path / sub)],
            env=env,
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, (sub, result.stderr)
