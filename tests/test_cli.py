import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emocons import cli
from emocons.annotations import (
    AnnotationMatrix,
    GoldStandardTrack,
    WindowSpec,
    load_dataset,
    load_gold_csv,
    write_annotation_csv,
    write_features_csv,
    write_gold_csv,
)
from emocons.cli import (
    CLI_SCHEMA_VERSION,
    CliConfig,
    EvalConfig,
    FLAG_REGISTRY,
    cli_config_from_dict,
    parse_and_dispatch,
    resolve_config,
)
from emocons.codec import from_dict, to_dict
from emocons.consensus import AcnConfig
from emocons.errors import ConfigError
from emocons.evalharness import ab_compare, load_report, make_fixed_split
from emocons.nn import OptimConfig
from emocons.predictor import PredictorConfig
from emocons.synth import SynthConfig
from emocons.trainer import TrainConfig, load_run_model


def make_dataset(tmp_path, name="data", sources=2, frames=400, seed=7):
    d = tmp_path / name
    rc = parse_and_dispatch(
        [
            "simulate",
            "--out", str(d),
            "--seed", str(seed),
            "--synth.sources", str(sources),
            "--synth.frames_per_source", str(frames),
            "--synth.feature_dim", "4",
            "--synth.annotators", "3",
        ]
    )
    assert rc == 0
    return d


def tiny_train_section(**over):
    base = {
        "mode": "acn",
        "dimensions": "arousal",
        "epochs": 1,
        "batch_size": 8,
        "window": {"window_s": 2.0, "shift_s": 1.0},
        "optim": {"learning_rate": 1e-3},
        "predictor": {"encoder_dims": [8]},
        "acn": {"hidden_dims": [4]},
    }
    base.update(over)
    return base


def ab_train_section():
    # ab sets each run's mode and seed, and refuses a file that sets them
    section = tiny_train_section()
    del section["mode"]
    return section


def write_config(tmp_path, name="c.json", **sections):
    payload = {"version": CLI_SCHEMA_VERSION}
    payload.update(sections)
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return p


# What each subcommand reads, as leaves and whole sections, and its options
# that are not config leaves.
READS = {
    "simulate": ("dataset_dir", "synth"),
    "train": ("dataset_dir", "run_dir", "train"),
    "evaluate": ("dataset_dir", "run_dir", "eval.test_sources"),
    "aggregate": ("run_dir",),
    "predict": ("run_dir",),
    "metrics": (),
    # ab_compare sets each run's mode and seed
    "ab": ("dataset_dir", "run_dir", "eval", *(
        name for name in FLAG_REGISTRY
        if name.startswith("train.") and name not in ("train.mode", "train.seed")
    )),
}
OWN_OPTIONS = {
    "simulate": (),
    "train": (),
    "evaluate": ("pooling",),
    "aggregate": ("in", "out", "method", "dimension"),
    "predict": ("features", "out", "dimension"),
    "metrics": ("x", "y", "dimension"),
    "ab": (),
}


def leaf_in(name, reads):
    return any(name == r or name.startswith(r + ".") for r in reads)


def required_args(command, tmp_path):
    """The options a command requires, naming files under ``tmp_path`` that do not exist."""
    missing = str(tmp_path / "missing")
    return {
        "aggregate": ["--in", missing, "--out", missing],
        "predict": ["--features", missing, "--out", missing, "--run", missing],
        "metrics": ["--x", missing, "--y", missing],
        "evaluate": ["--run", missing, "--dataset", missing],
        "train": ["--dataset", missing, "--out", missing],
        "simulate": ["--out", missing],
        "ab": ["--dataset", missing],
    }[command]


class TestCliConfig:
    @given(
        run_dir=st.text(max_size=8),
        alpha=st.floats(0.0, 1.0),
        clip=st.floats(0.1, 10.0),
        encoder=st.lists(st.integers(1, 64), min_size=1, max_size=3),
        detach=st.booleans(),
        synth_seed=st.integers(0, 2**31),
        annotators=st.integers(2, 5),
        snr=st.floats(0.0, 50.0),
        seeds=st.lists(st.integers(0, 99), min_size=1, max_size=5),
        train_sources=st.lists(st.text(min_size=1, max_size=5), max_size=3),
    )
    @settings(max_examples=40, deadline=None)
    def test_round_trip(
        self, run_dir, alpha, clip, encoder, detach, synth_seed, annotators, snr, seeds,
        train_sources,
    ):
        cfg = CliConfig(
            run_dir=run_dir,
            train=TrainConfig(
                alpha=alpha,
                beta=0.5,
                optim=OptimConfig(grad_clip_norm=clip),
                predictor=PredictorConfig(encoder_dims=tuple(encoder)),
                detach_consensus_in_second_term=detach,
            ),
            synth=SynthConfig(
                seed=synth_seed, annotators=annotators,
                feature_snr={"arousal": snr, "valence": 0.1},
            ),
            eval=EvalConfig(seeds=tuple(seeds), train_sources=tuple(train_sources)),
        )
        d = json.loads(json.dumps(to_dict(cfg)))
        assert cli_config_from_dict(d) == cfg

    def test_version_required(self):
        with pytest.raises(ConfigError, match="version"):
            cli_config_from_dict({"dataset_dir": "x"})
        with pytest.raises(ConfigError, match="version"):
            cli_config_from_dict({"version": 99})

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="alpha"):
            cli_config_from_dict({"version": 1, "alpha": 0.5})
        with pytest.raises(ConfigError, match="pooling"):
            cli_config_from_dict({"version": 1, "eval": {"pooling": "x"}})
        with pytest.raises(ConfigError, match="snr"):
            cli_config_from_dict({"version": 1, "synth": {"snr": 3}})
        with pytest.raises(ConfigError, match=r"synth.profiles.arousal\[0\] .*'tilt'"):
            cli_config_from_dict(
                {"version": 1, "synth": {"profiles": {"arousal": [{"tilt": 1}]}}}
            )
        with pytest.raises(ConfigError, match="train.window"):
            cli_config_from_dict({"version": 1, "train": {"window": {"window_s": 2.0}}})

    @pytest.mark.parametrize(
        "section, path",
        [
            ({"eval": {"seeds": [1, "a"]}}, r"eval.seeds\[1\]"),
            ({"synth": {"sources": 2.5}}, "synth.sources"),
            ({"synth": {"annotators": True}}, "synth.annotators"),
            ({"synth": {"feature_snr": {"arousal": "x", "valence": 1}}}, "synth.feature_snr.arousal"),
            ({"dataset_dir": 5}, "dataset_dir"),
            ({"train": {"optim": 0.1}}, r"train.optim \(OptimConfig\) must be a mapping"),
        ],
    )
    def test_wrong_value_types_rejected(self, section, path):
        with pytest.raises(ConfigError, match=path):
            cli_config_from_dict({"version": 1, **section})

    def test_int_stands_in_for_float(self):
        cfg = cli_config_from_dict(
            {"version": 1, "train": {"alpha": 1, "optim": {"grad_clip_norm": 2}}}
        )
        assert cfg.train.alpha == 1 and cfg.train.optim.grad_clip_norm == 2

    def test_sections_default_when_missing(self):
        cfg = cli_config_from_dict({"version": 1})
        assert cfg.train == TrainConfig()
        assert cfg.eval == EvalConfig()

    def test_synth_profiles_survive(self):
        cfg = cli_config_from_dict({"version": 1, "synth": {"annotators": 4, "seed": 2}})
        assert cfg.synth.annotators == 4
        assert cfg.synth.profiles == {}
        assert sorted(cfg.synth.panels) == ["arousal", "valence"]
        assert all(len(v) == 4 for v in cfg.synth.panels.values())
        d = json.loads(json.dumps(to_dict(cfg)))
        back = cli_config_from_dict(d).synth
        assert back == cfg.synth
        assert back.panels == cfg.synth.panels


class TestFlagRegistry:
    def test_registry_covers_config_fields(self):
        paths = set(FLAG_REGISTRY)
        assert {"dataset_dir", "run_dir"} <= paths
        for fld in dataclasses.fields(TrainConfig):
            if fld.name in ("window", "optim", "predictor", "acn"):
                continue
            assert f"train.{fld.name}" in paths
        for section, cls in [
            ("train.window", WindowSpec),
            ("train.optim", OptimConfig),
            ("train.predictor", PredictorConfig),
            ("train.acn", AcnConfig),
        ]:
            for fld in dataclasses.fields(cls):
                assert f"{section}.{fld.name}" in paths
        for fld in dataclasses.fields(SynthConfig):
            if fld.name == "feature_snr":
                assert "synth.feature_snr.arousal" in paths
                assert "synth.feature_snr.valence" in paths
            else:
                assert f"synth.{fld.name}" in paths
        for fld in dataclasses.fields(EvalConfig):
            assert f"eval.{fld.name}" in paths
        assert "version" not in paths
        # every flag, given its default's string form, resolves to the defaults
        for name, (_, default) in FLAG_REGISTRY.items():
            cfg, _ = resolve_config(None, {name: cli._format_value(default)})
            assert cfg == CliConfig(), name

    def test_help_lists_every_flag(self, capsys):
        # each command lists the flags of the leaves it reads, its aliases and
        # its own options; before, every command listed all of them
        for command, reads in READS.items():
            assert parse_and_dispatch([command, "--help"]) == 0
            out = " ".join(capsys.readouterr().out.split())
            listed = set(re.findall(r"--([\w.]+)", out))
            leaves = {name for name in FLAG_REGISTRY if leaf_in(name, reads)}
            assert listed & set(FLAG_REGISTRY) == leaves, command
            assert listed - leaves == {
                "help", "config", *cli._ALIASES.get(command, {}), *OWN_OPTIONS[command]
            }, command
        assert sum(
            leaf_in(name, reads) for reads in READS.values() for name in FLAG_REGISTRY
        ) == 76
        assert parse_and_dispatch(["ab", "--help"]) == 0
        out = " ".join(capsys.readouterr().out.split())
        assert "--train.alpha FLOAT default: 0.5" in out
        assert "--train.optim.grad_clip_norm FLOAT default: 5.0" in out
        assert "--eval.seeds INT,... default: 1,2,3,4,5" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["train", "--synth.seed", "9"],
            ["evaluate", "--train.window.window_s", "3"],
            ["predict", "--train.dimensions", "arousal"],
            ["simulate", "--train.epochs", "2"],
            ["aggregate", "--eval.seeds", "1,2,3"],
            ["metrics", "--run_dir", "x"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_a_flag_the_command_does_not_read_is_a_usage_error(self, tmp_path, capsys, argv):
        # each of these used to exit 0 and ignore the flag; neither the run nor
        # the dataset exists, so the refusal comes before any file is read
        command, flag, value = argv
        rc = parse_and_dispatch(
            [command, *required_args(command, tmp_path), flag, value]
        )
        assert rc == 1
        assert capsys.readouterr().err == f"error: unrecognized arguments: {flag} {value}\n"
        assert sorted(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag, value", [("--train.mode", "acn"), ("--train.seed", "77")])
    def test_ab_refuses_the_leaves_ab_compare_sets(self, tmp_path, capsys, flag, value):
        # ab used to take both, exit 0 and write the report of a run without them
        assert parse_and_dispatch(["ab", "--help"]) == 0
        assert flag not in capsys.readouterr().out
        assert parse_and_dispatch(["ab", *required_args("ab", tmp_path), flag, value]) == 1
        assert capsys.readouterr().err == f"error: unrecognized arguments: {flag} {value}\n"
        assert sorted(tmp_path.iterdir()) == []

    def test_every_unread_leaf_is_refused(self, tmp_path):
        parser = cli._build_parser()
        for command, reads in READS.items():
            required = required_args(command, tmp_path)
            for name in FLAG_REGISTRY:
                argv = [command, *required, f"--{name}", "1"]
                if leaf_in(name, reads):
                    assert vars(parser.parse_args(argv))[name] == "1"
                else:
                    with pytest.raises(ConfigError, match=f"unrecognized arguments: --{name} 1"):
                        parser.parse_args(argv)

    @pytest.mark.parametrize(
        "command, alias, path",
        [
            ("evaluate", "run STR", "run_dir"),
            ("evaluate", "sources STR,...", "eval.test_sources"),
            ("predict", "run STR", "run_dir"),
            ("aggregate", "checkpoint STR", "run_dir"),
        ],
    )
    def test_run_and_source_flags_are_aliases(self, capsys, command, alias, path):
        assert parse_and_dispatch([command, "--help"]) == 0
        assert f"--{alias} alias for --{path}" in " ".join(capsys.readouterr().out.split())

    def test_top_level_help_lists_subcommands(self, capsys):
        rc = parse_and_dispatch(["--help"])
        assert rc == 0
        out = capsys.readouterr().out
        for name in ("simulate", "train", "evaluate", "aggregate", "predict", "metrics", "ab"):
            assert name in out

    def test_value_parsing(self):
        cfg, warns = resolve_config(
            None,
            {
                "train.alpha": "0.7",
                "train.epochs": "3",
                "train.predictor.encoder_dims": "16,8",
                "train.detach_consensus_in_second_term": "true",
                "train.optim.grad_clip_norm": "2.5",
                "eval.seeds": "4,5,6",
                "eval.train_sources": "a,b",
            },
        )
        assert warns == []
        assert cfg.train.alpha == 0.7
        assert cfg.train.epochs == 3
        assert cfg.train.predictor.encoder_dims == (16, 8)
        assert cfg.train.detach_consensus_in_second_term is True
        assert cfg.train.optim.grad_clip_norm == 2.5
        assert cfg.eval.seeds == (4, 5, 6)
        assert cfg.eval.train_sources == ("a", "b")

    def test_bad_value_is_config_error(self):
        with pytest.raises(ConfigError, match="train.epochs"):
            resolve_config(None, {"train.epochs": "many"})
        with pytest.raises(ConfigError, match="detach"):
            resolve_config(None, {"train.detach_consensus_in_second_term": "maybe"})


class TestPrecedence:
    def test_flag_beats_config_with_warning(self, tmp_path):
        c = write_config(tmp_path, train={"alpha": 0.25})
        cfg, warns = resolve_config(str(c), {"train.alpha": "0.75"})
        assert cfg.train.alpha == 0.75
        assert len(warns) == 1 and "train.alpha" in warns[0]

    def test_no_warning_without_conflict(self, tmp_path):
        c = write_config(tmp_path, train={"alpha": 0.25})
        cfg, warns = resolve_config(str(c), {"train.alpha": "0.25", "train.beta": "0.9"})
        assert warns == []
        assert cfg.train.beta == 0.9

    def test_missing_config_file(self):
        with pytest.raises(ConfigError, match="not found"):
            resolve_config("/nonexistent/c.json", {})


def _csv_bytes(root):
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*.csv"))}


class TestSimulateConfig:
    """simulate --config re-derives the annotator panels the file does not give."""

    SIZE = ["--synth.sources", "2", "--synth.frames_per_source", "100"]

    def _first(self, tmp_path):
        d1 = tmp_path / "d1"
        assert parse_and_dispatch(["simulate", "--out", str(d1), "--seed", "1", *self.SIZE]) == 0
        return d1 / "cli_config.json"

    def test_a_new_seed_samples_its_own_panels(self, tmp_path):
        # d1's cli_config.json holds no sampled panels for seed 2 to reuse
        config = self._first(tmp_path)
        d2, fresh = tmp_path / "d2", tmp_path / "fresh"
        assert parse_and_dispatch(
            ["simulate", "--config", str(config), "--seed", "2", "--out", str(d2)]
        ) == 0
        assert parse_and_dispatch(
            ["simulate", "--out", str(fresh), "--seed", "2", *self.SIZE]
        ) == 0
        written = _csv_bytes(d2)
        assert len(written) == 2 * 5
        assert written == _csv_bytes(fresh)

    def test_a_new_annotator_count_runs(self, tmp_path):
        config = self._first(tmp_path)
        d3 = tmp_path / "d3"
        assert parse_and_dispatch(
            ["simulate", "--config", str(config), "--synth.annotators", "4", "--out", str(d3)]
        ) == 0
        ds = load_dataset(d3)
        assert {m.annotators for s in ds.sources for m in s.annotations.values()} == {4}

    def test_profiles_in_the_file_win(self, tmp_path):
        exact = {"bias": 0.25, "scale": 1.0, "noise_sd": 0.0, "lag_frames": 0, "drift_sd": 0.0}
        profiles = {"arousal": [exact, exact], "valence": [exact, exact]}
        c = write_config(
            tmp_path,
            synth={"sources": 1, "frames_per_source": 50, "annotators": 2, "profiles": profiles},
        )
        d = tmp_path / "d"
        assert parse_and_dispatch(
            ["simulate", "--config", str(c), "--seed", "3", "--out", str(d)]
        ) == 0
        resolved = json.loads((d / "cli_config.json").read_text())
        assert resolved["synth"]["profiles"] == profiles
        (source,) = load_dataset(d).sources
        for dim in ("arousal", "valence"):
            want = np.clip(source.gold[dim].values + 0.25, -1.0, 1.0)
            for column in source.annotations[dim].data.T:
                np.testing.assert_allclose(column, want, atol=1e-6)


class TestPipeline:
    def test_simulate_writes_dataset_and_resolved_config(self, tmp_path):
        d = make_dataset(tmp_path)
        ds = load_dataset(d)
        assert len(ds.sources) == 2
        assert ds.meta["seed"] == 7
        assert ds.meta["annotators"] == 3
        resolved = json.loads((d / "cli_config.json").read_text())
        cfg = cli_config_from_dict(resolved)
        assert cfg.synth.sources == 2
        assert cfg.synth.seed == 7
        assert cfg.dataset_dir == str(d)

    def test_train_run_dir(self, tmp_path, capsys):
        d = make_dataset(tmp_path)
        r = tmp_path / "run"
        c = write_config(
            tmp_path,
            dataset_dir=str(d),
            run_dir=str(r),
            train=tiny_train_section(alpha=0.25),
        )
        rc = parse_and_dispatch(
            ["train", "--mode", "acn", "--dimension", "arousal",
             "--config", str(c), "--train.alpha", "0.75"]
        )
        assert rc == 0
        err = capsys.readouterr().err
        assert "warning:" in err and "train.alpha" in err
        assert (r / "epochs.csv").exists()
        saved = from_dict(TrainConfig, json.loads((r / "config.json").read_text()))
        assert saved.alpha == 0.75
        assert saved.mode == "acn"
        assert saved.dimensions == "arousal"
        resolved = cli_config_from_dict(json.loads((r / "cli_config.json").read_text()))
        assert resolved.train == saved
        _, run_cfg = load_run_model(r)
        assert run_cfg == saved

    def test_evaluate_prints_scores(self, tmp_path, capsys):
        d = make_dataset(tmp_path)
        r = self._train(tmp_path, d)
        capsys.readouterr()
        rc = parse_and_dispatch(["evaluate", "--run", str(r), "--dataset", str(d)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "arousal ccc=" in out
        rc = parse_and_dispatch(
            ["evaluate", "--run", str(r), "--dataset", str(d),
             "--pooling", "per_window_mean", "--sources", "source_00"]
        )
        assert rc == 0
        assert "arousal ccc=" in capsys.readouterr().out

    def _train(self, tmp_path, d, run_name="run", **train):
        r = tmp_path / run_name
        c = write_config(
            tmp_path,
            name=f"{run_name}.json",
            dataset_dir=str(d),
            run_dir=str(r),
            train=tiny_train_section(**train),
        )
        assert parse_and_dispatch(["train", "--config", str(c)]) == 0
        return r

    def test_predict_writes_trace(self, tmp_path):
        d = make_dataset(tmp_path)
        r = self._train(tmp_path, d)
        ds = load_dataset(d)
        f = tmp_path / "feats.csv"
        write_features_csv(f, ds.sources[0].features)
        p = tmp_path / "pred.csv"
        rc = parse_and_dispatch(
            ["predict", "--run", str(r), "--features", str(f), "--out", str(p)]
        )
        assert rc == 0
        track = load_gold_csv(p, "arousal")
        assert track.frames == ds.sources[0].features.frames
        assert np.all(np.abs(track.values) <= 1.0)

    def test_predict_refuses_an_untrained_dimension(self, tmp_path, capsys):
        # a single head used to emit its one column under any dimension's name
        d = make_dataset(tmp_path)
        f = d / "source_00" / "features.csv"
        single = self._train(tmp_path, d, "single")
        dual = self._train(
            tmp_path, d, "dual", dimensions="both", predictor={"encoder_dims": [8], "heads": "dual"}
        )
        capsys.readouterr()
        for run, dim in ((single, "valence"), (dual, "both")):
            p = tmp_path / f"{run.name}.csv"
            rc = parse_and_dispatch(
                ["predict", "--run", str(run), "--features", str(f), "--out", str(p),
                 "--dimension", dim]
            )
            assert rc == 1
            assert f"not {dim!r}" in capsys.readouterr().err
            assert not p.exists()
        p = tmp_path / "dual_valence.csv"
        rc = parse_and_dispatch(
            ["predict", "--run", str(dual), "--features", str(f), "--out", str(p),
             "--dimension", "valence"]
        )
        assert rc == 0 and p.exists()

    def test_predict_without_predictor_config_is_exit_1(self, tmp_path, capsys):
        # the predictor config is the run's config.json; the checkpoint holds no copy
        d = make_dataset(tmp_path)
        r = self._train(tmp_path, d)
        (r / "config.json").unlink()
        capsys.readouterr()
        out = tmp_path / "pred.csv"
        rc = parse_and_dispatch(
            ["predict", "--run", str(r), "--features", str(d / "source_00" / "features.csv"),
             "--out", str(out)]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{r / 'config.json'}: cannot read" in err
        assert not out.exists()

    # config.json edits a one-head arousal run cannot have: (keys, value, file refused).
    # A config the networks do not fit names the checkpoint; one no such run may
    # have names config.json.
    CONFIG_FAULTS = {
        "dual_on_one_output": (("predictor", "heads"), "dual", "checkpoint.json"),
        "context_frames": (("predictor", "context_frames"), 2, "checkpoint.json"),
        "both_on_one_head": (("dimensions",), "both", "config.json"),
        "unknown_dimension": (("dimensions",), "dominance", "config.json"),
    }

    @pytest.mark.parametrize(
        "fault", ["no_layers", "unchained", "acn_outputs", *CONFIG_FAULTS]
    )
    def test_checkpoint_whose_nets_do_not_fit_is_exit_1(self, tmp_path, capsys, fault):
        # the network faults used to end in internal-error (exit 2) mid-command
        d = make_dataset(tmp_path)
        r = self._train(tmp_path, d)
        if fault in self.CONFIG_FAULTS:
            keys, value, refused = self.CONFIG_FAULTS[fault]
            doc = json.loads((r / "config.json").read_text())
            node = doc
            for key in keys[:-1]:
                node = node[key]
            node[keys[-1]] = value
            (r / "config.json").write_text(json.dumps(doc))
        else:
            refused = "checkpoint.json"
            ck = r / refused
            doc = json.loads(ck.read_text())
            layers = doc["networks"]["predictor"]["layers"]
            if fault == "no_layers":
                layers.clear()
            elif fault == "unchained":
                layers[-1]["weights"] = [[0.1] * 5]
            else:
                head = doc["networks"]["acn/arousal"]["layers"][-1]
                head["weights"] *= 2
                head["bias"] *= 2
            ck.write_text(json.dumps(doc))
        capsys.readouterr()
        src, out = d / "source_00", tmp_path / "out.csv"
        for argv in (
            ["predict", "--run", str(r), "--features", str(src / "features.csv"),
             "--out", str(out)],
            ["aggregate", "--in", str(src / "annotations_arousal.csv"), "--out", str(out),
             "--method", "acn", "--checkpoint", str(r), "--dimension", "arousal"],
            ["evaluate", "--run", str(r), "--dataset", str(d)],
        ):
            assert parse_and_dispatch(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and f"{r / refused}: " in err, (argv[0], err)
            assert not out.exists()

    def test_checkpoint_meta_does_not_outrank_the_runs_config(self, tmp_path, capsys):
        # the checkpoint meta used to copy the config, and its copy was trusted: with
        # dimensions ["valence"] there, evaluate scored the arousal head as valence and
        # predict wrote it under that name, both exit 0
        d = make_dataset(tmp_path)
        r = self._train(tmp_path, d, mode="baseline")
        ck = r / "checkpoint.json"
        doc = json.loads(ck.read_text())
        doc["meta"].update(
            mode="acn",
            dimensions=["valence"],
            config_hash="00" * 32,
            predictor_config=to_dict(PredictorConfig(feature_dim=4, encoder_dims=(8,))),
        )
        ck.write_text(json.dumps(doc))
        capsys.readouterr()
        assert parse_and_dispatch(["evaluate", "--run", str(r), "--dataset", str(d)]) == 0
        assert re.fullmatch(r"arousal ccc=\S+\n", capsys.readouterr().out)
        out = tmp_path / "pred.csv"
        rc = parse_and_dispatch(
            ["predict", "--run", str(r), "--features", str(d / "source_00" / "features.csv"),
             "--out", str(out), "--dimension", "valence"]
        )
        assert rc == 1
        assert "run was trained on ['arousal'], not 'valence'" in capsys.readouterr().err
        assert not out.exists()

    def test_evaluate_refuses_an_unknown_source(self, tmp_path, capsys):
        d = make_dataset(tmp_path)
        r = self._train(tmp_path, d)
        capsys.readouterr()
        rc = parse_and_dispatch(
            ["evaluate", "--run", str(r), "--dataset", str(d), "--sources", "source_00,nope"]
        )
        assert rc == 1
        assert "unknown sources: ['nope']" in capsys.readouterr().err

    def test_evaluate_refuses_a_repeated_source(self, tmp_path, capsys):
        # a source named twice used to count twice in the mean
        d = make_dataset(tmp_path, sources=3, frames=300)
        r = self._train(tmp_path, d)
        capsys.readouterr()
        rc = parse_and_dispatch(
            ["evaluate", "--run", str(r), "--dataset", str(d),
             "--sources", "source_00,source_00,source_01"]
        )
        assert rc == 1
        assert "sources named more than once: ['source_00']" in capsys.readouterr().err

    def test_evaluate_reads_eval_test_sources(self, tmp_path, capsys):
        # evaluate used to score every source and exit 0, ignoring the list
        d = make_dataset(tmp_path)
        r = self._train(tmp_path, d)
        capsys.readouterr()
        rc = parse_and_dispatch(
            ["evaluate", "--run", str(r), "--dataset", str(d), "--eval.test_sources", "nope"]
        )
        assert rc == 1
        assert "unknown sources: ['nope']" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, field",
        [
            (["--eval.scheme", "fixed_split"], "scheme"),
            (["--eval.train_sources", "zzz"], "train_sources"),
            (["--eval.seeds", "9"], "seeds"),
            (["--eval.scheme", "fixed_split", "--eval.train_sources", "zzz",
              "--eval.seeds", "9"], "scheme"),
        ],
    )
    def test_evaluate_refuses_eval_leaves_it_does_not_read(self, tmp_path, capsys, flags, field):
        # evaluate used to exit 0 with these, reading none of them; neither
        # the run nor the dataset exists, so the refusal comes before either is read
        rc = parse_and_dispatch(
            ["evaluate", "--run", str(tmp_path / "run"), "--dataset", str(tmp_path / "data"),
             *flags]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: unrecognized arguments: ") and f"--eval.{field}" in err

    def test_evaluate_ignores_config_sections_it_does_not_read(self, tmp_path, capsys):
        # a config file is one document for every command: the cli_config.json
        # that ab writes, with its seeds and source lists, is one evaluate takes
        d = make_dataset(tmp_path)
        r = self._train(tmp_path, d)
        c = write_config(
            tmp_path, name="ab.json", dataset_dir=str(d), run_dir=str(r),
            eval={"train_sources": ["zzz"], "test_sources": ["source_00"], "seeds": [9]},
        )
        outs = []
        for argv in (["--config", str(c)], ["--run", str(r), "--dataset", str(d),
                                            "--sources", "source_00"]):
            capsys.readouterr()
            assert parse_and_dispatch(["evaluate", *argv]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_evaluate_sources_is_eval_test_sources(self, tmp_path, capsys):
        d = make_dataset(tmp_path)
        r = self._train(tmp_path, d)
        argv = ["evaluate", "--run", str(r), "--dataset", str(d), "--pooling", "per_window_mean"]
        outs = []
        for flags in ([], ["--sources", "source_00"], ["--eval.test_sources", "source_00"]):
            capsys.readouterr()
            assert parse_and_dispatch(argv + flags) == 0
            outs.append(capsys.readouterr().out)
        assert outs[1] == outs[2] != outs[0]

    def test_predict_and_aggregate_take_the_run_from_run_dir(self, tmp_path):
        d = make_dataset(tmp_path)
        r = self._train(tmp_path, d)
        c = write_config(tmp_path, name="use.json", run_dir=str(r))
        commands = {
            "predict": (["--features", str(d / "source_00" / "features.csv")], "--run"),
            "aggregate": (
                ["--in", str(d / "source_00" / "annotations_arousal.csv"), "--method", "acn"],
                "--checkpoint",
            ),
        }
        for command, (argv, alias) in commands.items():
            outs = []
            for flags in (["--config", str(c)], ["--run_dir", str(r)], [alias, str(r)]):
                out = tmp_path / f"{command}_{len(outs)}.csv"
                assert parse_and_dispatch([command, *argv, "--out", str(out), *flags]) == 0
                outs.append(out.read_text())
            assert outs[0] == outs[1] == outs[2]

    def test_aggregate_acn_refuses_a_dimension_without_a_consensus_net(self, tmp_path, capsys):
        d = make_dataset(tmp_path)
        r = self._train(tmp_path, d)
        out = tmp_path / "cons.csv"
        capsys.readouterr()
        rc = parse_and_dispatch(
            ["aggregate", "--in", str(d / "source_00" / "annotations_valence.csv"),
             "--out", str(out), "--method", "acn", "--checkpoint", str(r),
             "--dimension", "valence"]
        )
        assert rc == 1
        assert "no consensus net for 'valence'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, scores",
        [
            (["--train.dimensions", "both", "--train.predictor.heads", "dual"],
             "val_arousal=\\S+ val_valence=\\S+"),
            (["--train.dimensions", "valence"], "val_valence=\\S+"),
        ],
        ids=["both", "valence"],
    )
    def test_train_prints_each_trained_dimensions_score_in_order(
        self, tmp_path, capsys, flags, scores
    ):
        d = make_dataset(tmp_path)
        c = write_config(
            tmp_path, dataset_dir=str(d), run_dir=str(tmp_path / "run"), train=tiny_train_section()
        )
        capsys.readouterr()
        assert parse_and_dispatch(["train", "--config", str(c), *flags]) == 0
        assert re.search(rf"\(loss \S+ {scores}\) ->", capsys.readouterr().out)

    @pytest.mark.parametrize("fault", ["directory", "not_utf8", "not_object"])
    def test_unreadable_run_config_is_exit_1(self, tmp_path, capsys, fault):
        d = make_dataset(tmp_path)
        r = self._train(tmp_path, d)
        cfg_path = r / "config.json"
        if fault == "directory":
            cfg_path.unlink()
            cfg_path.mkdir()
        elif fault == "not_utf8":
            cfg_path.write_bytes('{"mode": "\u00e9"}'.encode("latin-1"))
        else:
            cfg_path.write_text("[1, 2]")
        capsys.readouterr()
        rc = parse_and_dispatch(
            ["evaluate", "--run", str(r), "--dataset", str(d), "--pooling", "per_window_mean"]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{cfg_path}: " in err

    @pytest.mark.parametrize("text", [None, "{not json"])
    def test_evaluate_windows_need_the_runs_config(self, tmp_path, capsys, text):
        # without the run's own config.json the CLI's default window used to score silently
        d = make_dataset(tmp_path)
        r = self._train(tmp_path, d)
        cfg_path = r / "config.json"
        if text is None:
            cfg_path.unlink()
        else:
            cfg_path.write_text(text)
        capsys.readouterr()
        rc = parse_and_dispatch(
            ["evaluate", "--run", str(r), "--dataset", str(d), "--pooling", "per_window_mean"]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "config.json" in err

    def test_metrics_identical_files(self, tmp_path, capsys):
        g = tmp_path / "g.csv"
        values = 0.5 * np.sin(np.linspace(0, 9, 200))
        write_gold_csv(g, GoldStandardTrack("arousal", 25.0, values))
        rc = parse_and_dispatch(["metrics", "--x", str(g), "--y", str(g)])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "ccc=1.0 loss=0.0"

    def test_metrics_different_files(self, tmp_path, capsys):
        x = 0.5 * np.sin(np.linspace(0, 9, 200))
        g1, g2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_gold_csv(g1, GoldStandardTrack("arousal", 25.0, x))
        write_gold_csv(g2, GoldStandardTrack("arousal", 25.0, 0.5 * x + 0.1))
        rc = parse_and_dispatch(["metrics", "--x", str(g1), "--y", str(g2)])
        assert rc == 0
        out = capsys.readouterr().out
        ccc = float(out.split()[0].split("=")[1])
        loss = float(out.split()[1].split("=")[1])
        assert 0 < ccc < 1
        assert loss == pytest.approx(1 - ccc, abs=1e-6)

    @pytest.mark.parametrize("rate_y, refused", [(50.0, True), (25.1, False)])
    def test_metrics_refuses_traces_on_different_grids(self, tmp_path, capsys, rate_y, refused):
        # 100 frames at 25 Hz against the same values at 50 Hz used to score ccc=1.0
        values = 0.5 * np.sin(np.linspace(0, 9, 100))
        x, y = tmp_path / "x.csv", tmp_path / "y.csv"
        write_gold_csv(x, GoldStandardTrack("arousal", 25.0, values))
        write_gold_csv(y, GoldStandardTrack("arousal", rate_y, values))
        rc = parse_and_dispatch(["metrics", "--x", str(x), "--y", str(y)])
        out, err = capsys.readouterr()
        if refused:
            assert rc == 1
            assert err.startswith(f"error: {x} (25 Hz) and {y} (50 Hz) are not on one time grid")
        else:
            assert rc == 0 and out.strip() == "ccc=1.0 loss=0.0"

    def test_aggregate_mean(self, tmp_path):
        rng = np.random.default_rng(0)
        data = np.clip(rng.normal(scale=0.4, size=(120, 3)), -1, 1)
        m = AnnotationMatrix(
            data=data, annotator_ids=("a00", "a01", "a02"),
            dimension="arousal", rate_hz=25.0,
        )
        a = tmp_path / "ann.csv"
        write_annotation_csv(a, m)
        o = tmp_path / "cons.csv"
        rc = parse_and_dispatch(
            ["aggregate", "--in", str(a), "--out", str(o),
             "--method", "mean", "--dimension", "arousal"]
        )
        assert rc == 0
        got = load_gold_csv(o, "arousal").values
        assert np.allclose(got, data.mean(axis=1), atol=2e-6)

    def test_aggregate_weighted(self, tmp_path):
        rng = np.random.default_rng(1)
        data = np.clip(rng.normal(scale=0.4, size=(120, 3)), -1, 1)
        m = AnnotationMatrix(
            data=data, annotator_ids=("a00", "a01", "a02"),
            dimension="arousal", rate_hz=25.0,
        )
        a = tmp_path / "ann.csv"
        write_annotation_csv(a, m)
        o = tmp_path / "cons.csv"
        rc = parse_and_dispatch(
            ["aggregate", "--in", str(a), "--out", str(o),
             "--method", "weighted", "--dimension", "arousal"]
        )
        assert rc == 0
        assert np.all(np.abs(load_gold_csv(o, "arousal").values) <= 1.0)

    def test_aggregate_acn(self, tmp_path, capsys):
        d = make_dataset(tmp_path)
        r = self._train(tmp_path, d)
        ds = load_dataset(d)
        a = tmp_path / "ann.csv"
        write_annotation_csv(a, ds.sources[0].annotations["arousal"])
        o = tmp_path / "cons.csv"
        rc = parse_and_dispatch(
            ["aggregate", "--in", str(a), "--out", str(o),
             "--method", "acn", "--checkpoint", str(r), "--dimension", "arousal"]
        )
        assert rc == 0
        got = load_gold_csv(o, "arousal").values
        assert got.shape[0] == ds.sources[0].features.frames
        assert np.all(np.abs(got) <= 1.0)

    def test_aggregate_acn_refuses_a_panel_it_was_not_trained_on(self, tmp_path, capsys):
        d = make_dataset(tmp_path)
        r = self._train(tmp_path, d)
        trained = load_dataset(d).sources[0].annotations["arousal"]
        panels = {
            "same": trained,
            # the loader sorts columns by id, so a permuted header reads the same
            "permuted": dataclasses.replace(
                trained, data=trained.data[:, ::-1], annotator_ids=trained.annotator_ids[::-1]
            ),
            "renamed": dataclasses.replace(trained, annotator_ids=("x0", "x1", "x2")),
        }
        outs = {}
        for name, panel in panels.items():
            a = tmp_path / f"{name}.csv"
            write_annotation_csv(a, panel)
            outs[name] = tmp_path / f"{name}_cons.csv"
            capsys.readouterr()
            rc = parse_and_dispatch(
                ["aggregate", "--in", str(a), "--out", str(outs[name]),
                 "--method", "acn", "--checkpoint", str(r), "--dimension", "arousal"]
            )
            assert rc == (1 if name == "renamed" else 0)
        err = capsys.readouterr().err
        assert "annotators ('x0', 'x1', 'x2')" in err
        assert f"trained on {trained.annotator_ids}" in err
        assert not outs["renamed"].exists()
        assert outs["same"].read_text() == outs["permuted"].read_text()

    def test_aggregate_acn_takes_a_checkpoint_without_recorded_ids(self, tmp_path):
        # a run saved before the ids were recorded consumes any panel as before
        d = make_dataset(tmp_path)
        r = self._train(tmp_path, d)
        doc = json.loads((r / "checkpoint.json").read_text())
        assert doc["meta"].pop("acn_annotator_ids") == {"arousal": ["a00", "a01", "a02"]}
        (r / "checkpoint.json").write_text(json.dumps(doc))
        trained = load_dataset(d).sources[0].annotations["arousal"]
        a = tmp_path / "renamed.csv"
        write_annotation_csv(a, dataclasses.replace(trained, annotator_ids=("x0", "x1", "x2")))
        rc = parse_and_dispatch(
            ["aggregate", "--in", str(a), "--out", str(tmp_path / "cons.csv"),
             "--method", "acn", "--checkpoint", str(r), "--dimension", "arousal"]
        )
        assert rc == 0
        assert load_run_model(r)[0].acn_annotator_ids == {}

    def test_aggregate_acn_needs_checkpoint(self, tmp_path, capsys):
        a = tmp_path / "ann.csv"
        m = AnnotationMatrix(
            data=np.zeros((10, 2)), annotator_ids=("a", "b"),
            dimension="arousal", rate_hz=25.0,
        )
        write_annotation_csv(a, m)
        rc = parse_and_dispatch(
            ["aggregate", "--in", str(a), "--out", str(tmp_path / "o.csv"),
             "--method", "acn", "--dimension", "arousal"]
        )
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_ab_compare(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CER_LOG", "info")
        d = make_dataset(tmp_path, sources=3, frames=300)
        root = tmp_path / "ab"
        c = write_config(tmp_path, dataset_dir=str(d), train=ab_train_section())
        rc = parse_and_dispatch(
            ["ab", "--config", str(c), "--out", str(root), "--eval.seeds", "1,2,3"]
        )
        assert rc == 0
        out, err = capsys.readouterr()
        assert "median" in out
        assert "baseline" in out and "acn" in out
        assert "fold" in err  # CER_LOG=info surfaces per-fold progress
        report = load_report(root / "report.json")
        assert report.seeds == (1, 2, 3)
        assert (root / "cli_config.json").exists()

    def test_ab_fixed_split(self, tmp_path, capsys):
        # the source lists select the fixed split: its report is the one the
        # library writes for that plan
        d = make_dataset(tmp_path, sources=3, frames=300)
        root = tmp_path / "ab"
        c = write_config(tmp_path, dataset_dir=str(d), train=ab_train_section())
        rc = parse_and_dispatch(
            ["ab", "--config", str(c), "--out", str(root), "--eval.seeds", "1,2,3",
             "--eval.train_sources", "source_00,source_01", "--eval.test_sources", "source_02"]
        )
        assert rc == 0
        runs = sorted(root.glob("seed_*/*/report.json"))
        assert len(runs) == 6
        for path in runs:
            report = load_report(path)
            assert report.scheme == "fixed_split"
            assert [e.test_sources for e in report.entries] == [("source_02",)]
        assert load_report(root / "report.json").scheme == "fixed_split"
        lib = tmp_path / "lib"
        ab_compare(
            load_dataset(d),
            from_dict(TrainConfig, ab_train_section()),
            (1, 2, 3),
            plan=make_fixed_split(("source_00", "source_01"), ("source_02",)),
            run_root=lib,
        )
        assert (root / "report.json").read_bytes() == (lib / "report.json").read_bytes()

    def test_ab_fixed_split_needs_train_sources(self, tmp_path, capsys):
        d = make_dataset(tmp_path, sources=3, frames=300)
        c = write_config(tmp_path, dataset_dir=str(d), train=ab_train_section())
        capsys.readouterr()
        rc = parse_and_dispatch(
            ["ab", "--config", str(c), "--eval.seeds", "1,2,3", "--eval.test_sources", "source_02"]
        )
        assert rc == 1
        assert "each fold needs sources on both sides" in capsys.readouterr().err

    def test_ab_fixed_split_refuses_a_repeated_source(self, tmp_path, capsys):
        # a source named twice used to be cut into windows twice
        d = make_dataset(tmp_path, sources=3, frames=300)
        c = write_config(tmp_path, dataset_dir=str(d), train=ab_train_section())
        capsys.readouterr()
        rc = parse_and_dispatch(
            ["ab", "--config", str(c), "--eval.train_sources", "source_00,source_00,source_01",
             "--eval.test_sources", "source_02"]
        )
        assert rc == 1
        assert "more than once: ['source_00']" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["train_sources", "test_sources"])
    def test_ab_refuses_sources_outside_fixed_split(self, tmp_path, capsys, field):
        # leave-one-source-out used to run, and exit 0, ignoring a list that
        # named a source outside the dataset; a list now selects the fixed split
        d = make_dataset(tmp_path, sources=2, frames=300)
        c = write_config(tmp_path, dataset_dir=str(d), train=ab_train_section())
        lists = {"train_sources": "source_00", "test_sources": "source_01", field: "nope"}
        capsys.readouterr()
        rc = parse_and_dispatch(
            ["ab", "--config", str(c), "--eval.seeds", "1,2,3",
             *(arg for name, value in lists.items() for arg in (f"--eval.{name}", value))]
        )
        assert rc == 1
        assert "fold references unknown source 'nope'" in capsys.readouterr().err

    def test_ab_refuses_a_fold_whose_annotator_panels_differ(self, tmp_path, capsys):
        # acn folds used to train a consensus net whose column j meant two raters
        d = make_dataset(tmp_path, sources=3, frames=300)
        path = d / "source_01" / "annotations_arousal.csv"
        header, body = path.read_bytes().split(b"\n", 1)
        assert header == b"time,a00,a01,a02\r"
        path.write_bytes(b"time,b0,b1,b2\r\n" + body)
        c = write_config(tmp_path, dataset_dir=str(d), train=ab_train_section())
        capsys.readouterr()
        assert parse_and_dispatch(["ab", "--config", str(c), "--eval.seeds", "1,2,3"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: arousal annotator panels differ: source 'source_0")
        assert "('b0', 'b1', 'b2')" in err

    @pytest.mark.parametrize("leaf, value", [("mode", "acn"), ("seed", 77)])
    def test_ab_refuses_mode_or_seed_from_a_config_file(self, tmp_path, capsys, leaf, value):
        # ab used to exit 0 and record the file's mode and seed in cli_config.json,
        # although every seed ran both modes
        d = make_dataset(tmp_path, sources=3, frames=300)
        train = {**ab_train_section(), leaf: value}
        c = write_config(tmp_path, dataset_dir=str(d), train=train)
        root = tmp_path / "ab"
        capsys.readouterr()
        rc = parse_and_dispatch(["ab", "--config", str(c), "--out", str(root), "--eval.seeds", "1,2,3"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: train.{leaf} is {value!r}: ab sets train.mode and train.seed")
        assert not root.exists()

    def test_ab_runs_its_own_cli_config(self, tmp_path, capsys):
        # the cli_config.json that ab writes gives both leaves at their defaults
        d = make_dataset(tmp_path, sources=3, frames=300)
        c = write_config(tmp_path, dataset_dir=str(d), train=ab_train_section())
        first = tmp_path / "ab1"
        argv = ["--eval.seeds", "1,2,3"]
        assert parse_and_dispatch(["ab", "--config", str(c), "--out", str(first), *argv]) == 0
        saved = json.loads((first / "cli_config.json").read_text())
        assert (saved["train"]["mode"], saved["train"]["seed"]) == ("baseline", 0)
        again = tmp_path / "ab2"
        rc = parse_and_dispatch(
            ["ab", "--config", str(first / "cli_config.json"), "--out", str(again), *argv]
        )
        assert rc == 0
        assert (again / "report.json").read_bytes() == (first / "report.json").read_bytes()

    def test_config_holding_eval_scheme_is_refused(self, tmp_path, capsys):
        # the scheme follows from the source lists; a file written when it was
        # a setting names the key to delete
        c = write_config(tmp_path, eval={"scheme": "leave_one_source_out"})
        for command in ("ab", "evaluate"):
            assert parse_and_dispatch([command, "--config", str(c)]) == 1
            assert (
                "unknown keys in eval (EvalConfig): ['scheme']" in capsys.readouterr().err
            )
        assert EvalConfig().scheme == "leave_one_source_out"
        assert EvalConfig(test_sources=("a",)).scheme == "fixed_split"
        assert EvalConfig(train_sources=("a",)).scheme == "fixed_split"


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        rc = parse_and_dispatch(["transmogrify"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1

    def test_missing_requirement_is_single_line_error(self, capsys):
        rc = parse_and_dispatch(["train"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1

    def test_no_subcommand(self, capsys):
        rc = parse_and_dispatch([])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_internal_failure_is_exit_2(self, tmp_path, capsys, monkeypatch):
        def boom(cfg):
            raise RuntimeError("disk on fire")

        monkeypatch.setattr(cli, "generate_corpus", boom)
        rc = parse_and_dispatch(["simulate", "--out", str(tmp_path / "d")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("internal-error:")
        assert "disk on fire" in err

    def test_evaluate_without_full_window_is_exit_1(self, tmp_path, capsys):
        d = make_dataset(tmp_path, frames=400)
        short = make_dataset(tmp_path, name="short", frames=100)
        r = tmp_path / "run"
        c = write_config(
            tmp_path, dataset_dir=str(d), run_dir=str(r),
            train=tiny_train_section(window={"window_s": 5.0, "shift_s": 3.0}),
        )
        assert parse_and_dispatch(["train", "--config", str(c)]) == 0
        capsys.readouterr()
        rc = parse_and_dispatch(
            ["evaluate", "--run", str(r), "--dataset", str(short), "--pooling", "per_window_mean"]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "125-frame window" in err

    def test_missing_dataset_file_is_exit_1(self, tmp_path, capsys):
        d = make_dataset(tmp_path)
        (d / "source_01" / "gold_arousal.csv").unlink()
        rc = parse_and_dispatch(
            ["train", "--dataset", str(d), "--out", str(tmp_path / "r"), "--dimension", "arousal"]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "source_01/gold_arousal.csv" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["aggregate", "--in", "{missing}", "--out", "{out}"],
            ["metrics", "--x", "{missing}", "--y", "{missing}"],
            ["predict", "--run", "{run}", "--features", "{missing}", "--out", "{out}"],
        ],
        ids=["aggregate", "metrics", "predict"],
    )
    def test_missing_csv_is_exit_1(self, tmp_path, capsys, argv):
        missing, out = tmp_path / "nope.csv", tmp_path / "out.csv"
        argv = [a.format(missing=missing, out=out, run=tmp_path / "run") for a in argv]
        rc = parse_and_dispatch(argv)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{missing}: cannot read" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["metrics", "predict"])
    def test_non_utf8_artifact_is_exit_1(self, tmp_path, capsys, command):
        x = tmp_path / "x.csv"
        write_gold_csv(x, GoldStandardTrack("arousal", 25.0, np.linspace(-0.5, 0.5, 50)))
        if command == "metrics":
            bad = tmp_path / "latin1.csv"
            bad.write_bytes("time,value\n0.0,0.5\n0.04,\u00e9\n".encode("latin-1"))
            argv = ["metrics", "--x", str(bad), "--y", str(x)]
        else:
            bad = tmp_path / "run" / "checkpoint.json"
            bad.parent.mkdir()
            bad.write_bytes('{"format": "\u00e9"}'.encode("latin-1"))
            argv = ["predict", "--run", str(bad.parent), "--features", str(x),
                    "--out", str(tmp_path / "out.csv")]
        assert parse_and_dispatch(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{bad}: cannot read" in err

    @pytest.mark.parametrize(
        "flag, value",
        [("train.alpha", "nan"), ("train.beta", "inf"), ("train.optim.learning_rate", "nan")],
    )
    def test_non_finite_train_value_is_exit_1_before_the_run(self, tmp_path, capsys, flag, value):
        # a nan learning rate used to train, exit 0 and save a checkpoint full of NaN
        d = make_dataset(tmp_path)
        r = tmp_path / "r"
        c = write_config(tmp_path, dataset_dir=str(d), run_dir=str(r), train=tiny_train_section())
        capsys.readouterr()
        assert parse_and_dispatch(["train", "--config", str(c), f"--{flag}", value]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{flag.rpartition('.')[2]} must be" in err
        assert not r.exists()

    @pytest.mark.parametrize("given", ["file", "flag"])
    def test_clipping_cannot_be_switched_off(self, tmp_path, capsys, given):
        optim = {"grad_clip_norm": None} if given == "file" else {}
        c = write_config(tmp_path, train=tiny_train_section(optim=optim))
        flags = ["--train.optim.grad_clip_norm", "none"] if given == "flag" else []
        assert parse_and_dispatch(["train", "--config", str(c), *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "train.optim.grad_clip_norm" in err

    def test_nan_in_config_file_is_exit_1_before_the_run(self, tmp_path, capsys):
        d = make_dataset(tmp_path)
        r = tmp_path / "r"
        c = write_config(
            tmp_path, dataset_dir=str(d), run_dir=str(r), train=tiny_train_section(alpha=math.nan)
        )
        assert '"alpha": NaN' in c.read_text()
        capsys.readouterr()
        assert parse_and_dispatch(["train", "--config", str(c)]) == 1
        assert "alpha must be finite" in capsys.readouterr().err
        assert not r.exists()

    @pytest.mark.parametrize(
        "flag, value, field",
        [
            ("synth.feature_snr.valence", "nan", "feature_snr['valence']"),
            ("synth.rate_hz", "inf", "rate_hz"),
        ],
    )
    def test_non_finite_synth_value_is_exit_1_before_any_file(
        self, tmp_path, capsys, flag, value, field
    ):
        out = tmp_path / "d"
        assert parse_and_dispatch(["simulate", "--out", str(out), f"--{flag}", value]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{field} must be" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["aggregate", "predict", "simulate", "train"])
    def test_unwritable_output_is_exit_1(self, tmp_path, capsys, command):
        # the OSError used to escape as an internal error naming the temporary file
        blocker = tmp_path / "afile"
        blocker.write_text("")
        out = blocker / ("d" if command == "simulate" else "x.csv")
        d = make_dataset(tmp_path)
        ann = d / "source_00" / "annotations_arousal.csv"
        if command == "aggregate":
            argv = ["aggregate", "--in", str(ann), "--out", str(out)]
        elif command == "simulate":
            argv = ["simulate", "--out", str(out), "--synth.sources", "1",
                    "--synth.frames_per_source", "50"]
        else:
            run = tmp_path / "run" if command == "predict" else blocker / "r"
            c = write_config(
                tmp_path, dataset_dir=str(d), run_dir=str(run), train=tiny_train_section()
            )
            argv = ["train", "--config", str(c)]
            if command == "predict":
                assert parse_and_dispatch(argv) == 0
                features = d / "source_00" / "features.csv"
                argv = ["predict", "--run", str(run), "--features", str(features),
                        "--out", str(out)]
            else:
                out = run
        capsys.readouterr()
        assert parse_and_dispatch(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {out}") and "cannot write" in err
        assert not list(tmp_path.rglob("*.tmp"))

    @pytest.mark.parametrize("kind", ["directory", "not_utf8"])
    def test_unreadable_config_is_exit_1(self, tmp_path, capsys, kind):
        path = tmp_path / "c.json"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b'{"version": 1, "train": {"mode": "\xff"}}')
        rc = parse_and_dispatch(["train", "--config", str(path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"config file {path} cannot be read" in err

    def test_contract_violation_is_exit_1(self, tmp_path, capsys):
        rc = parse_and_dispatch(
            ["simulate", "--out", str(tmp_path / "d"), "--synth.annotators", "1"]
        )
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")
