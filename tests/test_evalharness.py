import dataclasses
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from emocons import evalharness
from emocons.annotations import WindowSpec, window_count
from emocons.ccc import ccc_loss
from emocons.consensus import AcnConfig
from emocons.errors import ContractError, StructuralError
from emocons.evalharness import (
    FOLD_SCHEMES,
    AbComparison,
    FoldPlan,
    FoldScore,
    Report,
    ab_compare,
    evaluate,
    format_comparison_table,
    load_report,
    make_fixed_split,
    make_loso_plan,
    run_cv,
    save_report,
)
from emocons.nn import DenseLayer, Network, OptimConfig, load_checkpoint
from emocons.predictor import Predictor, PredictorConfig
from emocons.rng import substream
from emocons.synth import MILD_ANNOTATORS, SynthConfig, generate_corpus, sample_profiles
from emocons.trainer import TrainConfig, config_hash, load_run_model


def tiny_corpus(seed=0, sources=3, frames=600, annotators=3, feature_dim=6):
    profiles = {
        dim: sample_profiles(annotators, substream(seed, f"p/{dim}"), **MILD_ANNOTATORS)
        for dim in ("arousal", "valence")
    }
    return generate_corpus(
        SynthConfig(
            sources=sources,
            frames_per_source=frames,
            feature_dim=feature_dim,
            annotators=annotators,
            profiles=profiles,
            feature_snr={"arousal": 50.0, "valence": 50.0},
            seed=seed,
        )
    )


def tiny_cfg(**over):
    base = dict(
        mode="acn",
        dimensions="valence",
        epochs=2,
        batch_size=8,
        window=WindowSpec(2.0, 1.0),
        optim=OptimConfig(learning_rate=1e-3),
        seed=5,
        predictor=PredictorConfig(encoder_dims=(8,)),
        acn=AcnConfig(hidden_dims=(4,)),
    )
    base.update(over)
    return TrainConfig(**base)


def linear_readout_predictor(feature_dim, weights, bias=0.0):
    """Single linear layer selecting a fixed combination of the features."""
    layer = DenseLayer(
        weights=np.asarray(weights, dtype=np.float64).reshape(1, feature_dim),
        bias=np.asarray([bias], dtype=np.float64),
        activation="linear",
    )
    return Predictor(
        net=Network(layers=[layer]),
        config=PredictorConfig(feature_dim=feature_dim, encoder_dims=(1,)),
    )


class TestFoldPlan:
    def test_loso_structure(self):
        ids = [f"s{i}" for i in range(7)]
        plan = make_loso_plan(ids)
        assert plan.scheme == "leave_one_source_out"
        assert len(plan.folds) == 7
        tested = [t for _, test in plan.folds for t in test]
        assert tested == ids
        for train, test in plan.folds:
            assert len(test) == 1
            assert set(train) == set(ids) - set(test)

    def test_loso_needs_two_sources(self):
        with pytest.raises(ContractError):
            make_loso_plan(["only"])

    def test_leakage_guard(self):
        with pytest.raises(ContractError, match="both"):
            FoldPlan(((("a", "b"), ("b",)),))
        with pytest.raises(ContractError, match="both"):
            make_fixed_split(["a", "b"], ["b", "c"])

    @pytest.mark.parametrize(
        "folds, scheme",
        [
            (((("b",), ("a",)), (("a",), ("b",))), "leave_one_source_out"),
            (((("b", "c"), ("a",)), (("a", "c"), ("b",)), (("a", "b"), ("c",))),
             "leave_one_source_out"),
            (((("a", "b"), ("c",)),), "fixed_split"),
            (((("a",), ("b", "c")),), "fixed_split"),
        ],
        ids=["loso2", "loso3", "split", "split_two_tested"],
    )
    def test_scheme_follows_from_the_folds(self, folds, scheme):
        assert FoldPlan(folds).scheme == scheme
        assert [f.name for f in dataclasses.fields(FoldPlan)] == ["folds"]

    def test_loso_partition_enforced(self):
        # only folds that test every source exactly once are leave-one-source-out:
        # a source tested twice, or one never tested, makes a fixed split
        assert FoldPlan(((("a",), ("b",)), (("a",), ("b",)))).scheme == "fixed_split"
        assert FoldPlan(((("a", "c"), ("b",)), (("b", "c"), ("a",)))).scheme == "fixed_split"

    @pytest.mark.parametrize(
        "make, repeated",
        [
            (lambda: make_fixed_split(["s0", "s0", "s1"], ["s2"]), "s0"),
            (lambda: make_fixed_split(["s0", "s1"], ["s2", "s2"]), "s2"),
            # the fold that holds out "s1" trains on ("s0", "s0")
            (lambda: make_loso_plan(["s0", "s0", "s1"]), "s0"),
        ],
        ids=["train", "test", "loso"],
    )
    def test_repeated_source_rejected(self, make, repeated):
        # a fixed split naming a source twice used to window, or score, it twice
        with pytest.raises(ContractError, match=rf"more than once: \['{repeated}'\]"):
            make()

    def test_empty_sides_rejected(self):
        with pytest.raises(ContractError, match="both sides"):
            FoldPlan((((), ("a",)),))
        with pytest.raises(ContractError, match="both sides"):
            FoldPlan(((("a",), ()),))
        with pytest.raises(ContractError, match="no folds"):
            FoldPlan(())

    def test_unknown_scheme(self, tmp_path):
        # a plan's scheme is derived; a Report, built or loaded, refuses any
        # scheme but FOLD_SCHEMES
        assert FOLD_SCHEMES == ("leave_one_source_out", "fixed_split")
        report = Report(
            scheme=make_fixed_split(["a"], ["b"]).scheme,
            task="valence",
            seeds=(5,),
            config_hashes={"acn": "ab" * 32},
            entries=(FoldScore("acn", 5, 0, ("b",), {"valence": 0.5}),),
        )
        with pytest.raises(ContractError, match="bootstrap"):
            dataclasses.replace(report, scheme="bootstrap")
        p = _saved_report(tmp_path, report, scheme="bootstrap")
        with pytest.raises(StructuralError, match=r"r\.json: unknown fold scheme 'bootstrap'"):
            load_report(p)

    def test_fixed_split(self):
        plan = make_fixed_split(["a", "b"], ["c"])
        assert plan.scheme == "fixed_split"
        assert plan.folds == ((("a", "b"), ("c",)),)


class TestEvaluate:
    def setup_method(self):
        self.corpus = tiny_corpus()
        self.src = self.corpus.sources[0]

    def test_exact_predictor_scores_one(self):
        # feature column 0 carries gold["valence"] exactly
        from emocons.annotations import FeatureSequence, SourceData

        gold = self.src.gold["valence"].values
        feats = np.column_stack([gold, substream(1, "n").normal(size=gold.size)])
        src = SourceData(
            source_id="x",
            features=FeatureSequence(data=feats, rate_hz=25.0),
            gold=dict(self.src.gold),
            annotations=dict(self.src.annotations),
        )
        pred = linear_readout_predictor(2, [1.0, 0.0])
        scores = evaluate(pred, [src], ["valence"])
        assert scores["valence"] > 1 - 1e-7

    def test_constant_predictor_scores_zero(self):
        pred = linear_readout_predictor(6, np.zeros(6), bias=0.7)
        scores = evaluate(pred, [self.src], ["valence"])
        assert abs(scores["valence"]) < 1e-12

    def test_shifted_predictor_matches_hand_oracle(self):
        from emocons.annotations import FeatureSequence, SourceData

        gold = self.src.gold["valence"].values
        feats = np.column_stack([gold, gold])
        src = SourceData(
            source_id="x",
            features=FeatureSequence(data=feats, rate_hz=25.0),
            gold=dict(self.src.gold),
            annotations=dict(self.src.annotations),
        )
        pred = linear_readout_predictor(2, [1.0, 0.0], bias=0.5)
        got = evaluate(pred, [src], ["valence"])["valence"]
        shifted = gold + 0.5
        ref = (2 * np.mean((gold - gold.mean()) * (shifted - shifted.mean()))) / (
            gold.var() + shifted.var() + (gold.mean() - shifted.mean()) ** 2 + 1e-8
        )
        assert got == pytest.approx(ref, abs=1e-10)

    def test_cross_module_consistency(self):
        pred = linear_readout_predictor(6, [0.3, -0.2, 0.1, 0.05, 0.0, 0.4])
        got = evaluate(pred, [self.src], ["arousal"])["arousal"]
        yhat = (self.src.features.data @ np.array([0.3, -0.2, 0.1, 0.05, 0.0, 0.4]))
        want = ccc_loss(self.src.gold["arousal"].values, yhat).ccc
        assert got == pytest.approx(want, abs=1e-12)

    def test_mean_over_sources(self):
        pred = linear_readout_predictor(6, [0.3, -0.2, 0.1, 0.05, 0.0, 0.4])
        per_source = [
            evaluate(pred, [s], ["valence"])["valence"] for s in self.corpus.sources
        ]
        combined = evaluate(pred, list(self.corpus.sources), ["valence"])["valence"]
        assert combined == pytest.approx(np.mean(per_source), abs=1e-12)

    def test_feature_width_mismatch(self):
        pred = linear_readout_predictor(2, [1.0, 0.0])
        with pytest.raises(ContractError, match="width"):
            evaluate(pred, [self.src], ["valence"])

    def test_per_window_pooling(self):
        pred = linear_readout_predictor(6, [0.3, -0.2, 0.1, 0.05, 0.0, 0.4])
        spec = WindowSpec(2.0, 2.0)
        got = evaluate(pred, [self.src], ["valence"], pooling="per_window_mean", window=spec)
        gold = self.src.gold["valence"].values
        yhat = self.src.features.data @ np.array([0.3, -0.2, 0.1, 0.05, 0.0, 0.4])
        w, s = spec.frames(25.0)
        vals = []
        for k in range(window_count(gold.size, w, s)):
            a, b = k * s, k * s + w
            vals.append(ccc_loss(gold[a:b], yhat[a:b]).ccc)
        assert got["valence"] == pytest.approx(np.mean(vals), abs=1e-12)

    def test_per_window_pooling_needs_window(self):
        pred = linear_readout_predictor(6, np.ones(6))
        with pytest.raises(ContractError, match="window"):
            evaluate(pred, [self.src], ["valence"], pooling="per_window_mean")

    def test_per_window_pooling_without_full_window(self):
        # two 100-frame sources cannot hold one 5 s (125-frame) window
        short = tiny_corpus(sources=2, frames=100).sources
        pred = linear_readout_predictor(6, np.ones(6))
        with pytest.raises(ContractError, match=r"125-frame window.*'source_00', has 100 frames"):
            evaluate(
                pred, short, ["valence"], pooling="per_window_mean", window=WindowSpec(5.0, 3.0)
            )

    def test_missing_gold_dimension(self):
        pred = linear_readout_predictor(6, np.ones(6))
        with pytest.raises(ContractError, match="anger"):
            evaluate(pred, [self.src], ["anger"])


class TestRunCv:
    def test_loso_report(self):
        corpus = tiny_corpus()
        cfg = tiny_cfg()
        report = run_cv(corpus, cfg)
        assert report.scheme == "leave_one_source_out"
        assert report.task == "valence"
        assert len(report.entries) == 3
        tested = sorted(t for e in report.entries for t in e.test_sources)
        assert tested == ["source_00", "source_01", "source_02"]
        assert report.config_hashes == {"acn": config_hash(cfg)}
        agg = report.aggregate["acn"]["valence"]
        per_fold = [e.ccc["valence"] for e in report.entries]
        assert agg == pytest.approx(np.mean(per_fold), abs=1e-12)

    def test_deterministic(self):
        corpus = tiny_corpus()
        cfg = tiny_cfg()
        assert run_cv(corpus, cfg) == run_cv(corpus, cfg)

    def test_needs_two_sources(self):
        corpus = tiny_corpus(sources=1)
        with pytest.raises(ContractError):
            run_cv(corpus, tiny_cfg())

    def test_persists_folds_and_report(self, tmp_path):
        corpus = tiny_corpus()
        cfg = tiny_cfg()
        report = run_cv(corpus, cfg, run_root=tmp_path / "cv")
        for i in range(3):
            assert (tmp_path / "cv" / f"fold_{i:02d}" / "epochs.csv").exists()
            assert (tmp_path / "cv" / f"fold_{i:02d}" / "checkpoint.json").exists()
        assert load_report(tmp_path / "cv" / "report.json") == report

    @pytest.mark.parametrize(
        "mode, dims, heads", [("baseline", "valence", "single"), ("acn", "both", "dual")]
    )
    def test_fold_score_is_evaluate_on_the_saved_model(self, tmp_path, mode, dims, heads):
        corpus = tiny_corpus()
        predictor = PredictorConfig(encoder_dims=(8,), heads=heads)
        cfg = tiny_cfg(mode=mode, dimensions=dims, predictor=predictor)
        report = run_cv(corpus, cfg, run_root=tmp_path / "cv")
        by_id = {s.source_id: s for s in corpus.sources}
        rescored = []
        for e in report.entries:
            model, _ = load_run_model(tmp_path / "cv" / f"fold_{e.fold:02d}")
            test = [by_id[sid] for sid in e.test_sources]
            ccc = evaluate(model.predictor, test, list(e.ccc))
            assert {d: repr(v) for d, v in ccc.items()} == {d: repr(v) for d, v in e.ccc.items()}
            rescored.append(dataclasses.replace(e, ccc=ccc))
        rescored_report = dataclasses.replace(report, entries=tuple(rescored))
        save_report(tmp_path / "rescored.json", rescored_report)
        saved = (tmp_path / "cv" / "report.json").read_bytes()
        assert (tmp_path / "rescored.json").read_bytes() == saved

    def test_failed_fold_preserves_partial_results(self, tmp_path, monkeypatch):
        corpus = tiny_corpus()
        cfg = tiny_cfg()
        real = evalharness.run_training
        calls = {"n": 0}

        def flaky(data, c):
            calls["n"] += 1
            if calls["n"] == 3:
                raise RuntimeError("disk full")
            return real(data, c)

        monkeypatch.setattr(evalharness, "run_training", flaky)
        with pytest.raises(RuntimeError):
            run_cv(corpus, cfg, run_root=tmp_path / "cv")
        assert (tmp_path / "cv" / "fold_00" / "epochs.csv").exists()
        assert (tmp_path / "cv" / "fold_01" / "epochs.csv").exists()
        assert not (tmp_path / "cv" / "fold_02").exists()
        assert not (tmp_path / "cv" / "report.json").exists()

    def test_plan_ids_must_exist(self):
        corpus = tiny_corpus()
        plan = make_fixed_split(["source_00"], ["nope"])
        with pytest.raises(ContractError, match="nope"):
            run_cv(corpus, tiny_cfg(), plan=plan)


def _saved_report(tmp_path, report, **edits) -> Path:
    """``report`` saved as JSON with its top-level keys replaced by ``edits``
    (a value of None deletes the key)."""
    p = tmp_path / "r.json"
    save_report(p, report)
    d = json.loads(p.read_text())
    for key, value in edits.items():
        if value is None:
            del d[key]
        else:
            d[key] = value
    p.write_text(json.dumps(d))
    return p


class TestReport:
    def _report(self, task="valence", ccc=({"valence": 0.5}, {"valence": 0.7}), modes=("acn",)):
        entries = tuple(
            FoldScore(mode, 5, fold, (f"s{fold}",), dict(c))
            for mode in modes
            for fold, c in enumerate(ccc)
        )
        return Report(
            scheme="leave_one_source_out",
            task=task,
            seeds=(5,),
            config_hashes={mode: "ab" * 32 for mode in modes},
            entries=entries,
        )

    def test_aggregate_is_fold_mean(self):
        r = self._report()
        assert r.aggregate == {"acn": {"valence": pytest.approx(0.6, abs=1e-12)}}

    def test_tampered_aggregate_rejected(self, tmp_path):
        r = self._report()
        # a Report derives its aggregate and takes none
        with pytest.raises(TypeError, match="aggregate"):
            Report(
                scheme=r.scheme,
                task=r.task,
                seeds=r.seeds,
                config_hashes=r.config_hashes,
                entries=r.entries,
                aggregate={"acn": {"valence": 0.9}},
            )
        p = _saved_report(tmp_path, r, aggregate={"acn": {"valence": 0.9}})
        with pytest.raises(StructuralError, match=r"r\.json: report aggregate is missing"):
            load_report(p)

    @pytest.mark.parametrize(
        "aggregate",
        [
            None,
            {"acn": {"valence": 0.6 + 1e-9}},
            {"acn": {"valence": 0.6, "arousal": 0.6}},
            {"acn": {"valence": 0.6}, "baseline": {"valence": 0.6}},
            {},
            {"acn": {"valence": "0.6"}},
            {"acn": 0.6},
        ],
        ids=["missing", "off_by_1e-9", "extra_dim", "extra_mode", "empty", "str", "flat"],
    )
    def test_stored_aggregate_must_be_the_fold_mean(self, tmp_path, aggregate):
        p = _saved_report(tmp_path, self._report(), aggregate=aggregate)
        with pytest.raises(StructuralError, match=r"r\.json: report aggregate is missing"):
            load_report(p)

    def test_stored_aggregate_within_1e_12_loads(self, tmp_path):
        r = self._report()
        p = _saved_report(tmp_path, r, aggregate={"acn": {"valence": 0.6 + 5e-13}})
        assert load_report(p) == r

    def test_round_trip(self, tmp_path):
        r = self._report()
        save_report(tmp_path / "r.json", r)
        assert load_report(tmp_path / "r.json") == r

    def test_bad_payload_rejected(self, tmp_path):
        p = _saved_report(tmp_path, self._report(), format="something-else")
        with pytest.raises(StructuralError, match="not an emocons-report document"):
            load_report(p)
        p = _saved_report(tmp_path, self._report(), surprise=1)
        with pytest.raises(StructuralError, match=r"r\.json: .*surprise"):
            load_report(p)

    def test_report_json_exact_bytes(self, tmp_path):
        p = tmp_path / "report.json"
        save_report(p, self._report())
        expected = """\
{
  "format": "emocons-report",
  "version": 1,
  "scheme": "leave_one_source_out",
  "task": "valence",
  "seeds": [
    5
  ],
  "config_hashes": {
    "acn": "%s"
  },
  "entries": [
    {
      "mode": "acn",
      "seed": 5,
      "fold": 0,
      "test_sources": [
        "s0"
      ],
      "ccc": {
        "valence": 0.5
      }
    },
    {
      "mode": "acn",
      "seed": 5,
      "fold": 1,
      "test_sources": [
        "s1"
      ],
      "ccc": {
        "valence": 0.7
      }
    }
  ],
  "aggregate": {
    "acn": {
      "valence": 0.6
    }
  }
}
""" % ("ab" * 32)
        assert p.read_bytes() == expected.encode()

    @pytest.mark.parametrize(
        "keys, value, want",
        [
            (("entries",), 3, "entries must be a list"),
            (("entries", 0), ["acn"], r"entries\[0\] \(FoldScore\) must be a mapping"),
            (("entries", 0, "seed"), "x", r"entries\[0\]\.seed must be int"),
            (("entries", 0, "ccc", "valence"), "abc", r"entries\[0\]\.ccc\.valence must be float"),
            (("aggregate",), 3, "report aggregate is missing or is not the mean of its folds"),
            (("config_hashes",), ["acn"], "config_hashes must be a mapping"),
            (("entries", 0, "test_sources"), "s0", r"entries\[0\]\.test_sources must be a list"),
        ],
        ids=[
            "entries_int", "entry_list", "seed_str", "ccc_str", "aggregate_int",
            "config_hashes_list", "test_sources_str",
        ],
    )
    def test_malformed_payload_names_the_file_and_field(self, tmp_path, keys, value, want):
        # test_sources "s0" used to load as ("s", "0"); the rest leaked TypeError and kin
        p = tmp_path / "r.json"
        save_report(p, self._report())
        d = json.loads(p.read_text())
        node = d
        for k in keys[:-1]:
            node = node[k]
        node[keys[-1]] = value
        p.write_text(json.dumps(d))
        with pytest.raises(StructuralError, match=rf"r\.json: {want}"):
            load_report(p)

    def test_table_layout(self):
        for task, by_mode, label, cells in [
            ("valence", {"acn": {"valence": 0.437}, "baseline": {"valence": 0.391}},
             "Valence", ["0.391", "0.437"]),
            ("arousal", {"acn": {"arousal": 0.666}, "baseline": {"arousal": 0.651}},
             "Arousal", ["0.651", "0.666"]),
            (
                "both",
                {
                    "acn": {"valence": 0.482, "arousal": 0.657},
                    "baseline": {"valence": 0.438, "arousal": 0.645},
                },
                "Valence & Arousal",
                ["0.438/0.645", "0.482/0.657"],
            ),
        ]:
            # acn's folds come first: the columns still follow TRAIN_MODES
            report = Report(
                scheme="leave_one_source_out",
                task=task,
                seeds=(0,),
                config_hashes={m: "00" * 32 for m in by_mode},
                entries=tuple(FoldScore(m, 0, 0, ("s0",), c) for m, c in by_mode.items()),
            )
            header, row = format_comparison_table(report).splitlines()
            assert header.split() == ["baseline", "acn"]
            assert row.startswith(label + "  ")
            assert row[len(label):].split() == cells
            # every cell ends under the end of its mode's name
            for name in ("baseline", "acn"):
                end = header.index(name) + len(name)
                assert row[end - 1] != " " and (end == len(row) or row[end] == " ")

    def test_table_puts_other_modes_after_the_training_modes(self):
        report = self._report(modes=("zeta", "acn", "alpha", "baseline"))
        header, _ = format_comparison_table(report).splitlines()
        assert header.split() == ["baseline", "acn", "alpha", "zeta"]

    @pytest.mark.parametrize("dim", ["valence", "arousal"])
    def test_joint_table_needs_both_dimensions(self, dim):
        report = self._report(task="both", ccc=({dim: 0.5},))
        with pytest.raises(ContractError, match="both report has no"):
            format_comparison_table(report)


class TestAbCompare:
    def test_needs_three_seeds(self):
        corpus = tiny_corpus()
        with pytest.raises(ContractError, match="seed"):
            ab_compare(corpus, tiny_cfg(), seeds=[1, 2])

    def test_paired_structure_and_medians(self):
        corpus = tiny_corpus()
        cmp = ab_compare(corpus, tiny_cfg(epochs=1), seeds=[1, 2, 3])
        assert isinstance(cmp, AbComparison)
        assert [row.seed for row in cmp.per_seed] == [1, 2, 3]
        for row in cmp.per_seed:
            assert row.delta["valence"] == pytest.approx(
                row.acn["valence"] - row.baseline["valence"], abs=1e-15
            )
        want = statistics.median(row.delta["valence"] for row in cmp.per_seed)
        assert cmp.median_delta["valence"] == pytest.approx(want, abs=1e-15)
        # merged report carries both modes for every seed
        seeds_by_mode = {
            mode: sorted({e.seed for e in cmp.report.entries if e.mode == mode})
            for mode in ("baseline", "acn")
        }
        assert seeds_by_mode == {"baseline": [1, 2, 3], "acn": [1, 2, 3]}


def _artifacts(root):
    """Every saved file's bytes, except the checkpoints (their meta holds a
    wall-clock time), and every checkpoint's weights and bias bytes."""
    files, weights = {}, {}
    for path in sorted(root.rglob("*")):
        rel = str(path.relative_to(root))
        if path.name == "checkpoint.json":
            nets, _ = load_checkpoint(path)
            weights[rel] = {
                name: [(l.weights.tobytes(), l.bias.tobytes()) for l in net.layers]
                for name, net in nets.items()
            }
        elif path.is_file():
            files[rel] = path.read_bytes()
    return files, weights


class TestFoldPool:
    """ab_compare's folds run in forked workers where it can pin BLAS."""

    SEEDS = (1, 2, 3)

    def _run(self, monkeypatch, root, cores, setters=None):
        monkeypatch.setattr(evalharness, "_usable_cores", lambda: cores)
        if setters is not None:
            monkeypatch.setattr(evalharness, "_blas_thread_setters", lambda: setters)
        pools = []
        real_pool = evalharness._pool_folds

        def spy(tasks, workers, blas_setters):
            pools.append(workers)
            return real_pool(tasks, workers, blas_setters)

        monkeypatch.setattr(evalharness, "_pool_folds", spy)
        cmp = ab_compare(tiny_corpus(), tiny_cfg(epochs=1), seeds=self.SEEDS, run_root=root)
        return cmp, pools

    def _needs_setter(self):
        if not evalharness._blas_thread_setters():
            pytest.skip("the loaded BLAS has no OpenBLAS thread setter")

    def test_numpy_openblas_can_be_pinned(self):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        if "openblas" not in str(blas.get("name", "")).lower():
            pytest.skip("numpy is not built against OpenBLAS")
        assert evalharness._blas_thread_setters()

    @pytest.mark.parametrize("fallback", ["one_core", "no_blas_setter"])
    def test_pool_equals_in_process(self, tmp_path, monkeypatch, fallback):
        self._needs_setter()
        pooled, pools = self._run(monkeypatch, tmp_path / "pool", cores=2)
        assert pools == [2]
        if fallback == "one_core":
            serial, pools = self._run(monkeypatch, tmp_path / "serial", cores=1)
        else:
            serial, pools = self._run(monkeypatch, tmp_path / "serial", cores=2, setters=[])
        assert pools == []
        assert pooled == serial
        pool_files, pool_weights = _artifacts(tmp_path / "pool")
        serial_files, serial_weights = _artifacts(tmp_path / "serial")
        assert sorted(pool_files) == sorted(serial_files)
        assert len(pool_weights) == 2 * len(self.SEEDS) * 3
        assert sum(name.endswith("report.json") for name in pool_files) == 1 + 2 * len(self.SEEDS)
        for name, data in pool_files.items():
            assert data == serial_files[name], name
        assert pool_weights == serial_weights

    def test_failed_fold_in_worker(self, tmp_path, monkeypatch):
        self._needs_setter()
        monkeypatch.setattr(evalharness, "_usable_cores", lambda: 2)
        marks = tmp_path / "trained"
        marks.mkdir()
        real = evalharness.run_training

        def failing(data, cfg):
            if (cfg.seed, cfg.mode) == (2, "baseline"):
                raise RuntimeError("disk full")
            run = real(data, cfg)
            (held,) = {"source_00", "source_01", "source_02"} - {i.source_id for i in data.train}
            (marks / f"{cfg.seed}-{cfg.mode}-{held}").touch()
            return run

        monkeypatch.setattr(evalharness, "run_training", failing)
        root = tmp_path / "ab"
        with pytest.raises(RuntimeError, match="disk full"):
            ab_compare(tiny_corpus(), tiny_cfg(), seeds=self.SEEDS, run_root=root)
        assert not (root / "report.json").exists()
        # plan order: seed 1 baseline, seed 1 acn, seed 2 baseline (fails), ...
        before = {f"1-{mode}-source_0{i}" for mode in ("baseline", "acn") for i in range(3)}
        trained = {p.name for p in marks.iterdir()}
        assert trained <= before
        saved = {p.parent.relative_to(root).as_posix() for p in root.rglob("checkpoint.json")}
        assert saved <= {
            f"seed_01/{slot}/fold_0{i}" for slot in ("0_baseline", "1_acn") for i in range(3)
        }


def test_ab_compare_runs_equal_run_cv(tmp_path):
    """Each (seed, mode) run of ab_compare writes what run_cv writes for its config."""
    corpus, base = tiny_corpus(), tiny_cfg(epochs=1)
    ab_compare(corpus, base, seeds=(1, 2, 3), run_root=tmp_path / "ab")
    names = ["report.json"] + [
        f"fold_{i:02d}/{name}" for i in range(3) for name in ("epochs.csv", "config.json")
    ]
    for seed in (1, 2, 3):
        for slot, mode in enumerate(("baseline", "acn")):
            cv = tmp_path / "cv" / f"{seed}_{mode}"
            run_cv(corpus, dataclasses.replace(base, mode=mode, seed=seed), run_root=cv)
            ab = tmp_path / "ab" / f"seed_{seed:02d}" / f"{slot}_{mode}"
            for name in names:
                assert (ab / name).read_bytes() == (cv / name).read_bytes(), (seed, mode, name)


def test_import_leaves_the_pool_modules_out():
    code = (
        "import sys, emocons; "
        "print([m for m in ('multiprocessing', 'concurrent.futures.process') if m in sys.modules])"
    )
    src = str(Path(evalharness.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, check=True, timeout=120,
    )
    assert out.stdout.strip() == "[]"
