import dataclasses
import json
import math

import numpy as np
import pytest

from emocons.annotations import GoldStandardTrack, SourceData, WindowSpec, windowize
from emocons.ccc import ccc_loss
from emocons.consensus import (
    AcnConfig,
    aggregate_baseline,
    forward_consensus,
    init_acn,
    make_mean_acn,
)
from emocons.errors import ConfigError, ContractError
from emocons.nn import OptimConfig, zero_grads
from emocons.predictor import PredictorConfig, forward_predictor, init_predictor
from emocons.rng import substream
from emocons.synth import (
    MILD_ANNOTATORS,
    SynthConfig,
    generate_corpus,
    sample_profiles,
)
import emocons.trainer as trainer
from emocons.trainer import (
    DIMENSION_CHOICES,
    TRAIN_MODES,
    WINDOW_REGIMES,
    Batch,
    TrainConfig,
    TrainData,
    TrainItem,
    compute_batch,
    config_hash,
    init_models,
    load_run_model,
    make_batches,
    prepare_data,
    run_training,
    save_run,
    train_baseline,
    train_config_from_dict,
    train_config_to_dict,
    train_joint,
    write_epochs_csv,
)


def small_corpus(seed=0, sources=3, frames=600, annotators=3, feature_dim=6, snr=50.0):
    profiles = {
        dim: sample_profiles(
            annotators, substream(seed, f"prof/{dim}"), **MILD_ANNOTATORS
        )
        for dim in ("arousal", "valence")
    }
    cfg = SynthConfig(
        sources=sources,
        frames_per_source=frames,
        feature_dim=feature_dim,
        annotators=annotators,
        profiles=profiles,
        feature_snr={"arousal": snr, "valence": snr},
        seed=seed,
    )
    return generate_corpus(cfg)


def small_train_config(**over):
    base = dict(
        mode="acn",
        dimensions="valence",
        epochs=2,
        batch_size=8,
        window=WindowSpec(2.0, 1.0),
        optim=OptimConfig(learning_rate=1e-3),
        seed=11,
        predictor=PredictorConfig(encoder_dims=(8,)),
        acn=AcnConfig(hidden_dims=(4,)),
    )
    base.update(over)
    return TrainConfig(**base)


def split(corpus):
    return list(corpus.sources[:-1]), [corpus.sources[-1]]


def net_params(net):
    return [(l.weights.copy(), l.bias.copy()) for l in net.layers]


def assert_params_equal(net, snapshot):
    for l, (w, b) in zip(net.layers, snapshot):
        np.testing.assert_array_equal(l.weights, w)
        np.testing.assert_array_equal(l.bias, b)


class TestTrainConfig:
    def test_defaults_follow_protocol(self):
        cfg = TrainConfig()
        assert cfg.alpha == 0.5 and cfg.beta == 0.5
        assert cfg.epochs == 15
        assert cfg.batch_size == 32
        assert cfg.optim.learning_rate == 5e-4
        assert cfg.pooling == "per_window_mean"
        assert cfg.detach_consensus_in_second_term is False

    def test_window_regimes(self):
        assert WINDOW_REGIMES["5s_3s"] == WindowSpec(5.0, 3.0)
        assert WINDOW_REGIMES["3s_0.4s"] == WindowSpec(3.0, 0.4)
        assert TrainConfig().window in WINDOW_REGIMES.values()

    def test_enums(self):
        assert TRAIN_MODES == ("baseline", "acn")
        assert DIMENSION_CHOICES == ("arousal", "valence", "both")

    @pytest.mark.parametrize(
        "bad",
        [
            dict(mode="finetune"),
            dict(dimensions="anger"),
            dict(alpha=-0.1),
            dict(beta=-1.0),
            dict(alpha=0.0, beta=0.0),
            dict(epochs=0),
            dict(batch_size=0),
            dict(pooling="per_frame"),
        ],
    )
    def test_validation(self, bad):
        with pytest.raises(ContractError):
            TrainConfig(**bad)


class TestConfigSerialization:
    def test_round_trip(self):
        cfg = small_train_config(alpha=0.3, beta=0.7, detach_consensus_in_second_term=True)
        d = train_config_to_dict(cfg)
        assert train_config_from_dict(d) == cfg
        # survives a real JSON encode/decode (tuples become lists)
        assert train_config_from_dict(json.loads(json.dumps(d))) == cfg

    def test_unknown_keys_rejected(self):
        d = train_config_to_dict(TrainConfig())
        d["learning_rate"] = 0.1
        with pytest.raises(ConfigError, match="learning_rate"):
            train_config_from_dict(d)

    def test_unknown_nested_keys_rejected(self):
        d = train_config_to_dict(TrainConfig())
        d["optim"]["momentum"] = 0.9
        with pytest.raises(ConfigError, match="momentum"):
            train_config_from_dict(d)

    def test_hash_is_stable_and_sensitive(self):
        a = config_hash(TrainConfig())
        b = config_hash(TrainConfig())
        c = config_hash(TrainConfig(alpha=0.25, beta=0.75))
        assert a == b
        assert a != c
        assert len(a) == 64 and all(ch in "0123456789abcdef" for ch in a)


def numbered_items(n, w=10):
    feats = np.zeros((w, 2))
    return [
        TrainItem(source_id="s", start_frame=i, features=feats, gold={}, annotations={})
        for i in range(n)
    ]


class TestBatches:
    def test_sizes_keep_partial_tail(self):
        batches = make_batches(numbered_items(70), 32, seed=0, shuffle=False)
        assert [len(b.segments) for b in batches] == [32, 32, 6]

    def test_no_shuffle_preserves_order(self):
        batches = make_batches(numbered_items(10), 4, seed=3, shuffle=False)
        flat = [s.start_frame for b in batches for s in b.segments]
        assert flat == list(range(10))

    def test_shuffle_is_seeded(self):
        a = make_batches(numbered_items(40), 8, seed=5)
        b = make_batches(numbered_items(40), 8, seed=5)
        c = make_batches(numbered_items(40), 8, seed=6)
        fa = [s.start_frame for x in a for s in x.segments]
        fb = [s.start_frame for x in b for s in x.segments]
        fc = [s.start_frame for x in c for s in x.segments]
        assert fa == fb
        assert fa != fc
        assert sorted(fc) == list(range(40))

    def test_uniform_window_length_enforced(self):
        rng = substream(0, "b")
        mk = lambda w: TrainItem(
            source_id="s",
            start_frame=0,
            features=rng.normal(size=(w, 3)),
            gold={"valence": rng.normal(size=w)},
            annotations={},
        )
        with pytest.raises(ContractError):
            Batch(segments=(mk(10), mk(12)))


class TestPrepareData:
    def test_window_arithmetic_and_alignment(self):
        corpus = small_corpus()
        train, val = split(corpus)
        cfg = small_train_config()
        data = prepare_data(train, val, cfg)
        # 600 frames, 50-frame window, 25-frame shift -> 23 per source
        assert len(data.train) == 23 * 2
        assert data.feature_dim == 6
        assert tuple(s.source_id for s in data.val) == ("source_02",)
        src = train[0]
        segs = windowize(
            src.features, src.annotations["valence"], src.gold["valence"],
            cfg.window, src.source_id,
        )
        first = data.train[0]
        np.testing.assert_array_equal(first.features, segs[0].features.data)
        np.testing.assert_array_equal(first.gold["valence"], segs[0].gold.values)
        np.testing.assert_array_equal(
            first.annotations["valence"], segs[0].annotations.data
        )
        assert first.start_frame == 0 and data.train[1].start_frame == 25

    def test_single_dimension_only_loads_that_dimension(self):
        corpus = small_corpus()
        data = prepare_data(*split(corpus), small_train_config(dimensions="arousal"))
        assert set(data.train[0].gold) == {"arousal"}

    def test_both_dimensions(self):
        corpus = small_corpus()
        cfg = small_train_config(
            dimensions="both", predictor=PredictorConfig(encoder_dims=(8,), heads="dual")
        )
        data = prepare_data(*split(corpus), cfg)
        assert set(data.train[0].gold) == {"arousal", "valence"}

    def test_baseline_mode_needs_no_annotations(self):
        corpus = small_corpus()
        stripped = [
            SourceData(
                source_id=s.source_id,
                features=s.features,
                gold=dict(s.gold),
                annotations=dict(s.annotations),
            )
            for s in corpus.sources
        ]
        cfg = small_train_config(mode="baseline")
        data = prepare_data(stripped[:2], stripped[2:], cfg)
        assert data.train[0].annotations == {}

    def test_unknown_dimension_rejected(self):
        corpus = small_corpus()
        train, val = split(corpus)
        bad = SourceData(
            source_id="only_arousal",
            features=train[0].features,
            gold={"arousal": train[0].gold["arousal"]},
            annotations={"arousal": train[0].annotations["arousal"]},
        )
        with pytest.raises(ContractError, match="valence"):
            prepare_data([bad], val, small_train_config(dimensions="valence"))


class TestModelSetup:
    def test_feature_dim_and_annotators_resolved(self):
        corpus = small_corpus()
        cfg = small_train_config()
        data = prepare_data(*split(corpus), cfg)
        model = init_models(data, cfg)
        assert model.predictor.config.feature_dim == 6
        assert model.predictor.config.heads == "single"
        assert set(model.acns) == {"valence"}
        assert model.acns["valence"].annotators == 3

    def test_feature_dim_mismatch_rejected(self):
        corpus = small_corpus()
        cfg = small_train_config(
            predictor=PredictorConfig(feature_dim=9, encoder_dims=(8,))
        )
        data = prepare_data(*split(corpus), cfg)
        with pytest.raises(ContractError, match="feature"):
            init_models(data, cfg)

    def test_both_dimensions_require_dual_head(self):
        corpus = small_corpus()
        cfg = small_train_config(dimensions="both")
        data = prepare_data(*split(corpus), cfg)
        with pytest.raises(ConfigError):
            init_models(data, cfg)

    def test_baseline_has_no_acn(self):
        corpus = small_corpus()
        cfg = small_train_config(mode="baseline")
        data = prepare_data(*split(corpus), cfg)
        assert init_models(data, cfg).acns == {}


class TestGradientPaths:
    def test_beta_zero_leaves_predictor_untouched(self):
        corpus = small_corpus()
        cfg = small_train_config(alpha=1.0, beta=0.0)
        data = prepare_data(*split(corpus), cfg)
        run = train_joint(data, cfg)
        pcfg = dataclasses.replace(cfg.predictor, feature_dim=6)
        fresh = init_predictor(pcfg, substream(cfg.seed, "init/predictor"))
        assert_params_equal(run.model.predictor.net, net_params(fresh.net))

    def test_beta_positive_moves_predictor(self):
        corpus = small_corpus()
        cfg = small_train_config()
        data = prepare_data(*split(corpus), cfg)
        run = train_joint(data, cfg)
        pcfg = dataclasses.replace(cfg.predictor, feature_dim=6)
        fresh = init_predictor(pcfg, substream(cfg.seed, "init/predictor"))
        assert not np.array_equal(
            run.model.predictor.net.layers[0].weights, fresh.net.layers[0].weights
        )

    def test_alpha_zero_with_detach_freezes_acn(self):
        corpus = small_corpus()
        cfg = small_train_config(
            alpha=0.0, beta=1.0, detach_consensus_in_second_term=True
        )
        data = prepare_data(*split(corpus), cfg)
        acfg = dataclasses.replace(cfg.acn, annotators=3)
        fresh = init_acn(acfg, substream(cfg.seed, "init/acn/valence"))
        snapshot = net_params(fresh.net)
        run = train_joint(data, cfg, acn_init={"valence": fresh})
        assert_params_equal(run.model.acns["valence"].net, snapshot)

    def test_alpha_zero_without_detach_moves_acn(self):
        corpus = small_corpus()
        cfg = small_train_config(alpha=0.0, beta=1.0)
        data = prepare_data(*split(corpus), cfg)
        run = train_joint(data, cfg)
        acfg = dataclasses.replace(cfg.acn, annotators=3)
        fresh = init_acn(acfg, substream(cfg.seed, "init/acn/valence"))
        assert not np.array_equal(
            run.model.acns["valence"].net.layers[0].weights,
            fresh.net.layers[0].weights,
        )


class TestLossAccounting:
    @pytest.mark.parametrize("pooling", ["per_window_mean", "pooled"])
    def test_total_decomposes_every_step(self, pooling):
        corpus = small_corpus()
        cfg = small_train_config(alpha=0.3, beta=0.7, pooling=pooling)
        data = prepare_data(*split(corpus), cfg)
        run = train_joint(data, cfg)
        assert len(run.steps) > 0
        for s in run.steps:
            assert abs(s.total - (cfg.alpha * s.term1 + cfg.beta * s.term2)) <= 1e-12

    def test_epoch_records_are_monotone_and_complete(self):
        corpus = small_corpus()
        cfg = small_train_config(epochs=3)
        data = prepare_data(*split(corpus), cfg)
        run = train_joint(data, cfg)
        assert [e.epoch for e in run.epochs] == [1, 2, 3]
        for e in run.epochs:
            assert e.val_ccc_valence is not None and -1 <= e.val_ccc_valence <= 1
            assert e.val_ccc_arousal is None

    def test_baseline_records_have_no_terms(self):
        corpus = small_corpus()
        cfg = small_train_config(mode="baseline")
        data = prepare_data(*split(corpus), cfg)
        run = train_baseline(data, cfg)
        for e in run.epochs:
            assert e.term1 is None and e.term2 is None
            assert e.total > 0


class TestDeterminism:
    def test_identical_runs(self, tmp_path):
        corpus = small_corpus()
        cfg = small_train_config()
        data1 = prepare_data(*split(corpus), cfg)
        data2 = prepare_data(*split(corpus), cfg)
        r1 = train_joint(data1, cfg)
        r2 = train_joint(data2, cfg)
        assert r1.epochs == r2.epochs
        assert r1.steps == r2.steps
        for dim in r1.model.acns:
            assert_params_equal(
                r1.model.acns[dim].net, net_params(r2.model.acns[dim].net)
            )
        assert_params_equal(r1.model.predictor.net, net_params(r2.model.predictor.net))
        write_epochs_csv(tmp_path / "a.csv", r1.epochs)
        write_epochs_csv(tmp_path / "b.csv", r2.epochs)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_seed_changes_everything(self):
        corpus = small_corpus()
        cfg = small_train_config()
        data = prepare_data(*split(corpus), cfg)
        r1 = train_joint(data, cfg)
        r2 = train_joint(data, dataclasses.replace(cfg, seed=12))
        assert r1.steps[0].total != r2.steps[0].total


class TestEndToEndGradients:
    def test_joint_composite_matches_finite_differences(self):
        corpus = small_corpus(seed=4, sources=1, frames=200, annotators=2, feature_dim=3)
        cfg = small_train_config(
            window=WindowSpec(1.0, 1.0),
            batch_size=8,
            alpha=0.4,
            beta=0.6,
            predictor=PredictorConfig(encoder_dims=(4,)),
            acn=AcnConfig(hidden_dims=(3,)),
        )
        data = prepare_data(list(corpus.sources), [], cfg)
        model = init_models(data, cfg)
        batch = make_batches(data.train, cfg.batch_size, seed=0, shuffle=False)[0]
        n_params = sum(
            l.weights.size + l.bias.size
            for net in [model.predictor.net, model.acns["valence"].net]
            for l in net.layers
        )
        assert n_params <= 300

        zero_grads(model.predictor.net)
        zero_grads(model.acns["valence"].net)
        compute_batch(model, batch, cfg)
        nets = [model.predictor.net, model.acns["valence"].net]
        analytic = [[(l.grad_w.copy(), l.grad_b.copy()) for l in n.layers] for n in nets]

        h = 1e-6
        for net, grads in zip(nets, analytic):
            for l, (gw, gb) in zip(net.layers, grads):
                for arr, grad in [(l.weights, gw), (l.bias, gb)]:
                    numeric = np.zeros_like(arr)
                    for idx in np.ndindex(*arr.shape):
                        orig = arr[idx]
                        arr[idx] = orig + h
                        up = compute_batch(model, batch, cfg).total
                        arr[idx] = orig - h
                        dn = compute_batch(model, batch, cfg).total
                        arr[idx] = orig
                        numeric[idx] = (up - dn) / (2 * h)
                    np.testing.assert_allclose(grad, numeric, rtol=1e-4, atol=1e-7)

    def test_baseline_loss_matches_finite_differences(self):
        corpus = small_corpus(seed=5, sources=1, frames=150, annotators=2, feature_dim=3)
        cfg = small_train_config(
            mode="baseline",
            window=WindowSpec(1.0, 1.0),
            batch_size=6,
            predictor=PredictorConfig(encoder_dims=(4,)),
        )
        data = prepare_data(list(corpus.sources), [], cfg)
        model = init_models(data, cfg)
        batch = make_batches(data.train, cfg.batch_size, seed=0, shuffle=False)[0]
        zero_grads(model.predictor.net)
        compute_batch(model, batch, cfg)
        l = model.predictor.net.layers[0]
        analytic = l.grad_w.copy()
        h = 1e-6
        numeric = np.zeros_like(l.weights)
        for idx in np.ndindex(*l.weights.shape):
            orig = l.weights[idx]
            l.weights[idx] = orig + h
            up = compute_batch(model, batch, cfg).total
            l.weights[idx] = orig - h
            dn = compute_batch(model, batch, cfg).total
            l.weights[idx] = orig
            numeric[idx] = (up - dn) / (2 * h)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-7)


class TestDegenerateGuard:
    def _items(self, w=30, feature_dim=4, annotators=3):
        rng = substream(21, "degen")
        mk = lambda gold: TrainItem(
            source_id="s",
            start_frame=0,
            features=rng.normal(size=(w, feature_dim)),
            gold={"valence": gold},
            annotations={"valence": np.clip(rng.normal(size=(w, annotators)), -1, 1)},
        )
        flat = mk(np.zeros(w))
        wavy = mk(np.clip(rng.normal(size=w), -1, 1))
        return flat, wavy

    def test_constant_gold_window_contributes_nothing(self):
        flat, wavy = self._items()
        cfg = small_train_config(alpha=0.4, beta=0.6, batch_size=2)
        data = TrainData(train=(flat, wavy), val=())
        model = init_models(data, cfg)
        stats = compute_batch(model, Batch(segments=(flat, wavy)), cfg)
        assert stats.degenerate == 1

        cons = forward_consensus(model.acns["valence"], wavy.annotations["valence"])
        pred = forward_predictor(model.predictor, wavy.features)[:, 0]
        t1 = ccc_loss(wavy.gold["valence"], cons).loss / 2
        t2 = ccc_loss(cons, pred).loss / 2
        assert stats.term1 == pytest.approx(t1, abs=1e-12)
        assert stats.term2 == pytest.approx(t2, abs=1e-12)
        assert stats.total == pytest.approx(0.4 * t1 + 0.6 * t2, abs=1e-12)

    def test_pooled_excludes_degenerate_windows(self):
        flat, wavy = self._items()
        cfg = small_train_config(alpha=0.4, beta=0.6, batch_size=2, pooling="pooled")
        data = TrainData(train=(flat, wavy), val=())
        model = init_models(data, cfg)
        stats = compute_batch(model, Batch(segments=(flat, wavy)), cfg)
        cons = forward_consensus(model.acns["valence"], wavy.annotations["valence"])
        pred = forward_predictor(model.predictor, wavy.features)[:, 0]
        t2 = ccc_loss(cons, pred).loss
        assert stats.degenerate == 1
        assert stats.term2 == pytest.approx(t2, abs=1e-12)

    def test_all_degenerate_batch_is_a_zero_step(self):
        flat, _ = self._items()
        cfg = small_train_config(batch_size=1)
        data = TrainData(train=(flat,), val=())
        model = init_models(data, cfg)
        stats = compute_batch(model, Batch(segments=(flat,)), cfg)
        assert stats.degenerate == 1
        assert stats.total == 0.0
        for l in model.predictor.net.layers:
            assert np.all(l.grad_w == 0.0)


class TestContracts:
    def test_joint_requires_annotations(self):
        corpus = small_corpus()
        cfg = small_train_config()
        data = prepare_data(*split(corpus), cfg)
        bare = TrainItem(
            source_id="s",
            start_frame=0,
            features=data.train[0].features,
            gold=dict(data.train[0].gold),
            annotations={},
        )
        broken = TrainData(train=(bare,) + tuple(data.train[1:]), val=data.val)
        with pytest.raises(ContractError, match="annotation"):
            train_joint(broken, cfg)

    def test_baseline_requires_gold(self):
        corpus = small_corpus()
        cfg = small_train_config(mode="baseline")
        data = prepare_data(*split(corpus), cfg)
        bare = TrainItem(
            source_id="s",
            start_frame=0,
            features=data.train[0].features,
            gold={},
            annotations={},
        )
        broken = TrainData(train=(bare,) + tuple(data.train[1:]), val=data.val)
        with pytest.raises(ContractError, match="gold"):
            train_baseline(broken, cfg)

    def test_mode_mismatch_rejected(self):
        corpus = small_corpus()
        cfg = small_train_config()
        data = prepare_data(*split(corpus), cfg)
        with pytest.raises(ContractError):
            train_baseline(data, cfg)
        with pytest.raises(ContractError):
            train_joint(data, dataclasses.replace(cfg, mode="baseline"))

    def test_empty_training_set_rejected(self):
        cfg = small_train_config()
        with pytest.raises(ContractError, match="window"):
            train_joint(TrainData(train=(), val=()), cfg)


class TestBaselineBehaviour:
    def test_alpha_beta_ignored(self):
        corpus = small_corpus()
        a = small_train_config(mode="baseline", alpha=0.9, beta=0.1)
        b = small_train_config(mode="baseline", alpha=0.1, beta=0.9)
        r1 = train_baseline(prepare_data(*split(corpus), a), a)
        r2 = train_baseline(prepare_data(*split(corpus), b), b)
        assert [s.total for s in r1.steps] == [s.total for s in r2.steps]

    def test_learns_identifiable_task(self):
        corpus = small_corpus(seed=9, sources=4, frames=1500, snr=1e6)
        cfg = small_train_config(
            mode="baseline",
            epochs=10,
            batch_size=16,
            optim=OptimConfig(learning_rate=1e-2),
            predictor=PredictorConfig(encoder_dims=(16,)),
        )
        data = prepare_data(list(corpus.sources[:3]), [corpus.sources[3]], cfg)
        run = train_baseline(data, cfg)
        assert run.epochs[-1].val_ccc_valence > 0.95


class TestMeanAcnEquivalence:
    def test_joint_with_frozen_mean_acn_equals_baseline_on_mean_gold(self):
        corpus = small_corpus(seed=13, sources=3, frames=750)
        remade = []
        for s in corpus.sources:
            mean = aggregate_baseline(s.annotations["valence"], "mean")
            gold = dict(s.gold)
            gold["valence"] = GoldStandardTrack(
                dimension="valence",
                rate_hz=s.features.rate_hz,
                values=mean.values,
                provenance="aggregated",
            )
            remade.append(
                SourceData(
                    source_id=s.source_id,
                    features=s.features,
                    gold=gold,
                    annotations=dict(s.annotations),
                )
            )
        base_cfg = small_train_config(mode="baseline", epochs=3)
        joint_cfg = small_train_config(mode="acn", epochs=3, alpha=0.0, beta=1.0)

        base_run = train_baseline(prepare_data(remade[:2], remade[2:], base_cfg), base_cfg)
        joint_run = train_joint(
            prepare_data(remade[:2], remade[2:], joint_cfg),
            joint_cfg,
            acn_init={"valence": make_mean_acn(3)},
            freeze_acn=True,
        )
        base_steps = [s.total for s in base_run.steps]
        joint_steps = [s.total for s in joint_run.steps]
        assert len(base_steps) == len(joint_steps)
        assert max(abs(a - b) for a, b in zip(base_steps, joint_steps)) <= 1e-10
        for eb, ej in zip(base_run.epochs, joint_run.epochs):
            assert abs(eb.total - ej.total) <= 1e-10
            assert abs(eb.val_ccc_valence - ej.val_ccc_valence) <= 1e-10
        # the frozen ACN never moved off the exact mean
        frozen = joint_run.model.acns["valence"]
        np.testing.assert_array_equal(
            frozen.net.layers[0].weights, np.full((1, 3), 1.0 / 3.0)
        )


class TestBothDimensions:
    def test_dual_head_trains_both(self):
        corpus = small_corpus()
        cfg = small_train_config(
            dimensions="both",
            predictor=PredictorConfig(encoder_dims=(8,), heads="dual"),
        )
        data = prepare_data(*split(corpus), cfg)
        run = train_joint(data, cfg)
        assert set(run.model.acns) == {"arousal", "valence"}
        for e in run.epochs:
            assert e.val_ccc_arousal is not None
            assert e.val_ccc_valence is not None
        pcfg = dataclasses.replace(cfg.predictor, feature_dim=6)
        fresh = init_predictor(pcfg, substream(cfg.seed, "init/predictor"))
        head, head0 = run.model.predictor.net.layers[-1], fresh.net.layers[-1]
        assert not np.array_equal(head.weights[0], head0.weights[0])
        assert not np.array_equal(head.weights[1], head0.weights[1])

    @pytest.mark.parametrize("mode", TRAIN_MODES)
    def test_total_sums_dimensions(self, mode):
        corpus = small_corpus()
        cfg = small_train_config(
            mode=mode,
            dimensions="both",
            predictor=PredictorConfig(encoder_dims=(8,), heads="dual"),
        )
        data = prepare_data(*split(corpus), cfg)
        model = init_models(data, cfg)
        batch = make_batches(data.train, cfg.batch_size, seed=0)[0]
        both = compute_batch(model, batch, cfg).total
        per_dim = [
            compute_batch(model, batch, dataclasses.replace(cfg, dimensions=dim)).total
            for dim in ("arousal", "valence")
        ]
        assert both == pytest.approx(math.fsum(per_dim), abs=1e-12)


class TestJointDimensionLoss:
    def test_single_head_cannot_train_both(self):
        # the two-dimension loss needs one output per dimension: a single-head
        # predictor is refused at the training entry, in either mode
        corpus = small_corpus()
        for mode in TRAIN_MODES:
            cfg = small_train_config(mode=mode, dimensions="both")
            assert cfg.predictor.heads == "single"
            data = prepare_data(*split(corpus), cfg)
            with pytest.raises(ConfigError, match="dual-head"):
                run_training(data, cfg)


class TestRunTraining:
    def test_dispatch(self):
        corpus = small_corpus()
        cfg = small_train_config(mode="baseline")
        data = prepare_data(*split(corpus), cfg)
        run = run_training(data, cfg)
        assert run.mode == "baseline"
        run2 = run_training(prepare_data(*split(corpus), small_train_config()),
                            small_train_config())
        assert run2.mode == "acn"


class TestArtifacts:
    def test_epochs_csv_exact_bytes(self, tmp_path):
        from emocons.trainer import EpochRecord

        records = [
            EpochRecord(1, 0.5, 0.25, 0.375, 0.125, None),
            EpochRecord(2, None, None, 0.5, None, -0.25),
        ]
        path = tmp_path / "epochs.csv"
        write_epochs_csv(path, records)
        expected = (
            "epoch,term1,term2,total,val_ccc_arousal,val_ccc_valence\n"
            "1,0.5,0.25,0.375,0.125,\n"
            "2,,,0.5,,-0.25\n"
        )
        assert path.read_text() == expected

    def test_save_and_reload_run(self, tmp_path):
        corpus = small_corpus()
        cfg = small_train_config()
        data = prepare_data(*split(corpus), cfg)
        run = train_joint(data, cfg)
        save_run(tmp_path / "run", run, cfg)
        assert (tmp_path / "run" / "config.json").exists()
        assert (tmp_path / "run" / "epochs.csv").exists()

        model, meta = load_run_model(tmp_path / "run")
        assert meta["mode"] == "acn"
        assert meta["config_hash"] == run.config_hash
        assert_params_equal(model.predictor.net, net_params(run.model.predictor.net))
        assert_params_equal(
            model.acns["valence"].net, net_params(run.model.acns["valence"].net)
        )
        x = substream(3, "probe").normal(size=(40, 6))
        np.testing.assert_array_equal(
            forward_predictor(model.predictor, x),
            forward_predictor(run.model.predictor, x),
        )
        saved_cfg = train_config_from_dict(
            json.loads((tmp_path / "run" / "config.json").read_text())
        )
        assert saved_cfg == cfg


class TestAcnOrientation:
    @pytest.mark.parametrize("sign, flipped", [(1.0, False), (-1.0, True)])
    def test_flip_recorded_in_checkpoint_meta(self, sign, flipped, tmp_path, monkeypatch):
        # a mean (or negated mean) consensus: concordant (or anti-) at init
        def signed_mean_acn(config, rng):
            acn = make_mean_acn(config.annotators)
            acn.net.layers[0].weights *= sign
            return acn

        monkeypatch.setattr(trainer, "init_acn", signed_mean_acn)
        cfg = small_train_config(epochs=1)
        data = prepare_data(*split(small_corpus()), cfg)
        run = train_joint(data, cfg)
        assert run.model.acn_flipped == {"valence": flipped}
        save_run(tmp_path / "run", run, cfg)
        model, meta = load_run_model(tmp_path / "run")
        assert meta["acn_flipped"] == {"valence": flipped}
        assert model.acn_flipped == {"valence": flipped}

    def test_initial_consensus_never_anti_correlated(self):
        corpus = small_corpus(seed=21)
        data = prepare_data(*split(corpus), small_train_config())
        anns = np.vstack([it.annotations["valence"] for it in data.train[:32]])
        for seed in range(8):
            model = init_models(data, small_train_config(seed=seed))
            cons = forward_consensus(model.acns["valence"], anns)
            assert ccc_loss(anns.mean(axis=1), cons).ccc >= 0.0
