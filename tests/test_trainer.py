import copy
import dataclasses
import json
import math
import pickle
import re
import sys

import numpy as np
import pytest

from emocons.annotations import FeatureSequence, SourceData, WindowSpec
from emocons.ccc import ccc_loss
from emocons.codec import from_dict, to_dict
from emocons.consensus import (
    AcnConfig,
    aggregate_baseline,
    backward_consensus,
    forward_consensus,
    init_acn,
    make_mean_acn,
)
from emocons.errors import ConfigError, ContractError
from emocons.nn import OptimConfig, load_checkpoint, optimizer_step, zero_grads
from emocons.predictor import (
    PredictorConfig,
    build_inputs,
    evaluate,
    forward_predictor,
    init_predictor,
)
from emocons.rng import derive_seed, substream
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


def net_arrays(net):
    """Every array a network holds: parameters, optimizer state, caches and
    work buffers."""
    for l in net.layers:
        yield from (l.weights, l.bias, l.grad_w, l.grad_b, l.m_w, l.v_w, l.m_b, l.v_b)
        yield from (l.cache_x, l.cache_a)
    yield from net._work.values()


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

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "field", ["alpha", "beta", "optim.learning_rate", "optim.eps", "optim.grad_clip_norm"]
    )
    def test_non_finite_values_refused(self, field, value):
        # comparisons with nan are false, so nan used to pass every range check
        section, _, name = field.rpartition(".")
        with pytest.raises(ContractError, match=name):
            if section:
                TrainConfig(optim=OptimConfig(**{name: value}))
            else:
                TrainConfig(**{name: value})


class TestConfigSerialization:
    def test_round_trip(self):
        cfg = small_train_config(alpha=0.3, beta=0.7, detach_consensus_in_second_term=True)
        d = to_dict(cfg)
        assert from_dict(TrainConfig, d) == cfg
        # survives a real JSON encode/decode (tuples become lists)
        assert from_dict(TrainConfig, json.loads(json.dumps(d))) == cfg

    def test_unknown_keys_rejected(self):
        d = to_dict(TrainConfig())
        d["learning_rate"] = 0.1
        with pytest.raises(ConfigError, match="learning_rate"):
            from_dict(TrainConfig, d)

    def test_unknown_nested_keys_rejected(self):
        d = to_dict(TrainConfig())
        d["optim"]["momentum"] = 0.9
        with pytest.raises(ConfigError, match=r"optim \(OptimConfig\): \['momentum'\]"):
            from_dict(TrainConfig, d)

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
        batches = make_batches(numbered_items(70), 32, seed=0)
        assert [len(b.segments) for b in batches] == [32, 32, 6]

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


def at_rate(src, rate_hz):
    """``src`` with every stream relabelled to ``rate_hz``."""
    relabel = lambda streams: {
        dim: dataclasses.replace(s, rate_hz=rate_hz) for dim, s in streams.items()
    }
    return SourceData(
        source_id=src.source_id,
        features=dataclasses.replace(src.features, rate_hz=rate_hz),
        gold=relabel(src.gold),
        annotations=relabel(src.annotations),
    )


def with_flat_gold(src, a, b):
    """``src`` with its gold traces constant over frames [a, b)."""
    gold = {}
    for dim, track in src.gold.items():
        values = track.values.copy()
        values[a:b] = values[a]
        gold[dim] = dataclasses.replace(track, values=values)
    return dataclasses.replace(src, gold=gold)


class TestPrepareData:
    def test_training_sources_of_different_rates_are_refused(self):
        # two 25 Hz sources and one at 50 Hz used to be cut into windows of
        # 50 and 100 frames, and training failed at the first batch that
        # mixed them, naming no source
        corpus = small_corpus()
        sources = [*corpus.sources[:2], at_rate(corpus.sources[2], 50.0)]
        for mode in TRAIN_MODES:
            with pytest.raises(
                ContractError,
                match=r"training sources differ in rate: 'source_00' is sampled at 25.0 Hz, "
                r"'source_02' at 50.0 Hz",
            ):
                prepare_data(sources, [], small_train_config(mode=mode))
        # validation sources are scored whole, at their own rate
        data = prepare_data(sources[:2], sources[2:], small_train_config())
        assert {it.features.shape[0] for it in data.train} == {50}

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
        for k, item in enumerate(data.train[:23]):
            a = 25 * k
            assert item.source_id == src.source_id and item.start_frame == a
            np.testing.assert_array_equal(item.features, src.features.data[a : a + 50])
            np.testing.assert_array_equal(item.gold["valence"], src.gold["valence"].values[a : a + 50])
            np.testing.assert_array_equal(
                item.annotations["valence"], src.annotations["valence"].data[a : a + 50]
            )
        assert data.train[23].source_id == train[1].source_id

    def test_context_rows_match_scoring(self):
        # a window's first rows see the frames before it, as evaluate's do
        corpus = small_corpus()
        train, val = split(corpus)
        cfg = small_train_config(predictor=PredictorConfig(encoder_dims=(8,), context_frames=2))
        data = prepare_data(train, val, cfg)
        inputs = {s.source_id: build_inputs(s.features.data, 2) for s in train}
        assert len(data.train) == 23 * 2
        for item in data.train:
            a = item.start_frame
            np.testing.assert_array_equal(item.features, inputs[item.source_id][a : a + 50])
        assert run_training(data, cfg).model.predictor.config.feature_dim == 6

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

    def test_acn_refuses_training_sources_whose_panels_differ(self):
        # with valence ids a00..a02, b0..b2 and a00..a02, acn used to train on the
        # first two: column j of the consensus net then meant two different raters
        sources = list(small_corpus().sources)
        ann = sources[1].annotations["valence"]
        sources[1] = SourceData(
            source_id=sources[1].source_id,
            features=sources[1].features,
            gold=dict(sources[1].gold),
            annotations={
                **sources[1].annotations,
                "valence": dataclasses.replace(ann, annotator_ids=("b0", "b1", "b2")),
            },
        )
        first, second = sources[0].source_id, sources[1].source_id
        want = (
            f"valence annotator panels differ: source {first!r} has ('a00', 'a01', 'a02'), "
            f"source {second!r} has ('b0', 'b1', 'b2')"
        )
        with pytest.raises(ContractError, match=re.escape(want)):
            prepare_data(sources[:2], sources[2:], small_train_config())
        # held-out sources' annotations are not read, and baseline reads none
        assert prepare_data([sources[0], sources[2]], [sources[1]], small_train_config()).train
        assert prepare_data(sources[:2], sources[2:], small_train_config(mode="baseline")).train
        assert prepare_data(sources[:2], sources[2:], small_train_config(dimensions="arousal")).train


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
        with pytest.raises(ConfigError, match="--train.predictor.heads dual.*--train.dimensions"):
            init_models(data, cfg)

    def test_baseline_has_no_acn(self):
        corpus = small_corpus()
        cfg = small_train_config(mode="baseline")
        data = prepare_data(*split(corpus), cfg)
        assert init_models(data, cfg).acns == {}

    def test_annotator_counts_must_agree_across_windows(self):
        cfg = small_train_config()
        train = prepare_data(*split(small_corpus()), cfg).train
        narrow = dataclasses.replace(
            train[3], annotations={"valence": train[3].annotations["valence"][:, :2]}
        )
        with pytest.raises(ContractError, match=r"inconsistent annotator counts .* \[2, 3\]"):
            init_models(TrainData(train=(*train[:3], narrow, *train[4:])), cfg)

    def test_explicit_annotators_must_match_the_data(self):
        cfg = small_train_config(acn=AcnConfig(annotators=5, hidden_dims=(4,)))
        data = prepare_data(*split(small_corpus()), cfg)
        with pytest.raises(ContractError, match="config expects 5 annotators, data has 3"):
            init_models(data, cfg)

    def test_no_training_windows_refused(self):
        with pytest.raises(ContractError, match="no training windows"):
            init_models(TrainData(train=()), small_train_config())

    @pytest.mark.parametrize(
        "mode, target", [("baseline", "gold"), ("acn", "gold"), ("acn", "annotations")]
    )
    def test_every_window_needs_its_targets(self, mode, target):
        # a hand-built window without them used to reach compute_batch as a KeyError
        cfg = small_train_config(mode=mode)
        train = prepare_data(*split(small_corpus()), cfg).train
        bare = dataclasses.replace(train[3], **{target: {}})
        message = f"window of {bare.source_id!r} is missing {target} for 'valence'"
        with pytest.raises(ContractError, match=message):
            init_models(TrainData(train=(*train[:3], bare, *train[4:])), cfg)


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

    def test_acn_init_copy_shares_no_memory_with_the_callers_net(self):
        corpus = small_corpus()
        cfg = small_train_config()
        data = prepare_data(*split(corpus), cfg)
        mine = init_acn(dataclasses.replace(cfg.acn, annotators=3), substream(3, "mine"))
        forward_consensus(mine, data.train[0].annotations["valence"])
        run = train_joint(data, cfg, acn_init={"valence": mine})
        copied = run.model.acns["valence"]
        assert copied.net._work
        for a in net_arrays(copied.net):
            for b in net_arrays(mine.net):
                assert not np.shares_memory(a, b)

    def test_frozen_acn_init_keeps_its_parameters_and_moments(self):
        corpus = small_corpus()
        cfg = small_train_config()
        data = prepare_data(*split(corpus), cfg)
        mine = init_acn(dataclasses.replace(cfg.acn, annotators=3), substream(4, "mine"))
        m = data.train[0].annotations["valence"]
        for _ in range(3):  # leave non-zero Adam moments on the net
            cons = forward_consensus(mine, m)
            backward_consensus(mine, cons - m.mean(axis=1))
            optimizer_step(mine.net, cfg.optim)
        names = ("weights", "bias", "m_w", "v_w", "m_b", "v_b")
        before = [[getattr(l, n).copy() for n in names] for l in mine.net.layers]
        assert all(np.any(arrays[2] != 0.0) for arrays in before)
        run = train_joint(data, cfg, acn_init={"valence": mine}, freeze_acn=True)
        for layer, arrays in zip(run.model.acns["valence"].net.layers, before):
            for name, want in zip(names, arrays):
                np.testing.assert_array_equal(getattr(layer, name), want)

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


@pytest.mark.skipif(sys.platform != "linux", reason="counts minor page faults as Linux does")
@pytest.mark.parametrize("mode", TRAIN_MODES)
def test_steady_training_steps_page_in_no_fresh_memory(mode):
    """A 4000-row step (32 windows of 5 s at 25 Hz, as in the default
    protocol) reuses its layers' work buffers; fresh per-step activation
    arrays cost several hundred minor faults a step."""
    import resource

    corpus = small_corpus(frames=1500)
    cfg = TrainConfig(mode=mode, dimensions="valence")
    data = prepare_data(*split(corpus), cfg)
    model = init_models(data, cfg)
    # float32 features, as _train_loop casts them
    items = [
        dataclasses.replace(it, features=it.features.astype(np.float32)) for it in data.train
    ]
    batch = Batch(segments=items[:32])
    assert sum(it.features.shape[0] for it in batch.segments) == 4000
    nets = [model.predictor.net] + [acn.net for acn in model.acns.values()]

    def step():
        compute_batch(model, batch, cfg)
        for net in nets:
            optimizer_step(net, cfg.optim)

    for _ in range(3):
        step()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(20):
        step()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults / 20 < 50


def test_unpickled_model_trains_like_a_deep_copy():
    """Unpickling adopts the layers into vectors of the new net's own, so a
    step moves the weights its passes read, exactly as in a deep copy."""
    corpus = small_corpus()
    cfg = small_train_config()
    data = prepare_data(*split(corpus), cfg)
    model = init_models(data, cfg)
    batch = Batch(segments=data.train[:8])

    def nets(m):
        return [m.predictor.net] + [acn.net for acn in m.acns.values()]

    before = [net_params(net) for net in nets(model)]
    thawed = pickle.loads(pickle.dumps(model))
    twin = copy.deepcopy(model)
    for m in (thawed, twin):
        assert all(not net._work for net in nets(m))
        compute_batch(m, batch, cfg)
        for net in nets(m):
            optimizer_step(net, cfg.optim)
    for net, twin_net, snapshot in zip(nets(thawed), nets(twin), before):
        assert net.step == twin_net.step == 1
        for vec in ("_param", "_grad", "_m", "_v"):
            np.testing.assert_array_equal(getattr(net, vec), getattr(twin_net, vec))
        for l in net.layers:
            assert np.shares_memory(l.weights, net._param)
            assert np.shares_memory(l.bias, net._param)
        assert not all(np.array_equal(l.weights, w) for l, (w, _) in zip(net.layers, snapshot))
    for net, snapshot in zip(nets(model), before):
        assert_params_equal(net, snapshot)


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
            assert list(e.val_ccc) == ["valence"] and -1 <= e.val_ccc["valence"] <= 1

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
        batch = Batch(data.train[: cfg.batch_size])
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
        batch = Batch(data.train[: cfg.batch_size])
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

    def test_nan_in_a_source_fails_when_built(self):
        # it used to build, and end the run in epoch 1 as a non-finite gradient
        corpus = small_corpus()
        cfg = small_train_config()
        s = corpus.sources[0]
        feats = s.features.data.copy()
        feats[5, 0] = np.nan
        with pytest.raises(ContractError, match="FeatureSequence values must be finite"):
            bad = SourceData(
                s.source_id, FeatureSequence(feats, s.features.rate_hz), s.gold, s.annotations
            )
            run_training(prepare_data([bad, *corpus.sources[1:]], [], cfg), cfg)

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
        assert run.epochs[-1].val_ccc["valence"] > 0.95


class TestMeanAcnEquivalence:
    def test_joint_with_frozen_mean_acn_equals_baseline_on_mean_gold(self):
        corpus = small_corpus(seed=13, sources=3, frames=750)
        remade = []
        for s in corpus.sources:
            gold = dict(s.gold)
            gold["valence"] = aggregate_baseline(s.annotations["valence"], "mean")
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
            assert abs(eb.val_ccc["valence"] - ej.val_ccc["valence"]) <= 1e-10
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
            assert list(e.val_ccc) == ["arousal", "valence"]
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
        assert run.config.mode == "baseline"
        run2 = run_training(prepare_data(*split(corpus), small_train_config()),
                            small_train_config())
        assert run2.config.mode == "acn"


class TestArtifacts:
    def test_epochs_csv_exact_bytes(self, tmp_path):
        from emocons.trainer import EpochRecord

        records = [
            EpochRecord(1, 0.5, 0.25, 0.375, {"arousal": 0.125}),
            EpochRecord(2, None, None, 0.5, {"valence": -0.25}),
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
        save_run(tmp_path / "run", run)
        assert (tmp_path / "run" / "config.json").exists()
        assert (tmp_path / "run" / "epochs.csv").exists()

        model, saved = load_run_model(tmp_path / "run")
        assert saved == run.config
        assert config_hash(saved) == config_hash(run.config)
        # the checkpoint holds only what training learned; config.json holds the config
        _, meta = load_checkpoint(tmp_path / "run" / "checkpoint.json")
        assert set(meta) == {"degenerate_windows", "acn_flipped", "wall_clock_s"}
        assert_params_equal(model.predictor.net, net_params(run.model.predictor.net))
        assert_params_equal(
            model.acns["valence"].net, net_params(run.model.acns["valence"].net)
        )
        x = substream(3, "probe").normal(size=(40, 6))
        np.testing.assert_array_equal(
            forward_predictor(model.predictor, x),
            forward_predictor(run.model.predictor, x),
        )
        saved_cfg = from_dict(
            TrainConfig, json.loads((tmp_path / "run" / "config.json").read_text())
        )
        assert saved_cfg == cfg

    @pytest.mark.parametrize("mode", TRAIN_MODES)
    def test_checkpoint_counts_the_masked_windows_of_every_step(self, mode, tmp_path):
        train, val = split(small_corpus())
        first = train[0]
        flat = first.gold["valence"].values.copy()
        flat[:300] = 0.25
        gold = dict(first.gold, valence=dataclasses.replace(first.gold["valence"], values=flat))
        train[0] = dataclasses.replace(first, gold=gold)
        cfg = small_train_config(mode=mode)
        run = run_training(prepare_data(train, val, cfg), cfg)
        masked = sum(s.degenerate for s in run.steps)
        assert masked > 0
        save_run(tmp_path / "run", run)
        _, meta = load_checkpoint(tmp_path / "run" / "checkpoint.json")
        assert meta["degenerate_windows"] == masked

    @pytest.mark.parametrize("mode", TRAIN_MODES)
    def test_float32_training_keeps_float64_models(self, mode, tmp_path):
        corpus = small_corpus()
        cfg = small_train_config(mode=mode)
        train, val = split(corpus)
        data = prepare_data(train, val, cfg)
        run = run_training(data, cfg)
        # the training loop computes on float32 copies; the caller's windows stay
        assert {it.features.dtype for it in data.train} == {np.dtype(np.float64)}
        nets = [run.model.predictor.net] + [a.net for a in run.model.acns.values()]
        for net in nets:
            for l in net.layers:
                assert l.weights.dtype == l.bias.dtype == np.float64
                assert l.m_w.dtype == l.v_w.dtype == l.grad_w.dtype == np.float64
        save_run(tmp_path / "run", run)
        model, _ = load_run_model(tmp_path / "run")
        dims = trainer.resolve_dimensions(cfg)
        assert evaluate(model.predictor, val, dims) == evaluate(run.model.predictor, val, dims)


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
        save_run(tmp_path / "run", run)
        _, meta = load_checkpoint(tmp_path / "run" / "checkpoint.json")
        assert meta["acn_flipped"] == {"valence": flipped}
        model, _ = load_run_model(tmp_path / "run")
        assert model.acn_flipped == {"valence": flipped}

    def test_initial_consensus_never_anti_correlated(self):
        corpus = small_corpus(seed=21)
        data = prepare_data(*split(corpus), small_train_config())
        anns = np.vstack([it.annotations["valence"] for it in data.train[:32]])
        for seed in range(8):
            model = init_models(data, small_train_config(seed=seed))
            cons = forward_consensus(model.acns["valence"], anns)
            assert ccc_loss(anns.mean(axis=1), cons).ccc >= 0.0


class TestStackedWindows:
    """A run stacks its windows once, and a step gathers its batch from the stack."""

    def test_loop_batches_follow_the_seeded_shuffle(self, monkeypatch):
        corpus = small_corpus()
        cfg = small_train_config(epochs=2)
        data = prepare_data(*split(corpus), cfg)
        seen = []
        real = trainer.make_batches

        def spy(*args):
            seen.append(real(*args))
            return seen[-1]

        monkeypatch.setattr(trainer, "make_batches", spy)
        run_training(data, cfg)
        assert len(seen) == cfg.epochs
        for epoch, batches in enumerate(seen, 1):
            # the permutation of the items, cut into runs of batch_size
            seed = derive_seed(cfg.seed, f"shuffle/{epoch:03d}")
            order = np.random.default_rng(seed).permutation(len(data.train))
            items = [data.train[i] for i in order]
            want = [items[i : i + cfg.batch_size] for i in range(0, len(items), cfg.batch_size)]
            assert [list(b.segments) for b in batches] == want
            for b in batches:
                got = b.gather()
                assert got.features.dtype == np.float32
                assert np.array_equal(
                    got.features, np.stack([it.features.astype(np.float32) for it in b.segments])
                )
                gold = np.stack([it.gold["valence"] for it in b.segments])
                assert np.array_equal(got.gold["valence"], gold)
                valid = gold.var(axis=1) >= trainer.DEGENERATE_VAR
                assert np.array_equal(got.gold_valid["valence"], valid)
                ann = np.stack([it.annotations["valence"] for it in b.segments])
                assert np.array_equal(got.annotations["valence"], ann)
        # pinned: the first windows of each epoch at this seed
        firsts = [[(s.source_id, s.start_frame) for s in b[0].segments[:4]] for b in seen]
        assert firsts == [
            [("source_01", 475), ("source_01", 50), ("source_00", 350), ("source_00", 50)],
            [("source_01", 375), ("source_00", 300), ("source_00", 125), ("source_00", 25)],
        ]

    @pytest.mark.parametrize(
        "mode, dimensions, pooling, detach",
        [
            (mode, dims, pooling, detach)
            for mode in TRAIN_MODES
            for dims in ("valence", "both")
            for pooling in ("per_window_mean", "pooled")
            for detach in ((False,) if mode == "baseline" else (False, True))
        ],
    )
    def test_gathered_batch_computes_like_a_batch_of_its_items(
        self, monkeypatch, mode, dimensions, pooling, detach
    ):
        corpus = small_corpus()
        # a flat stretch of gold masks some windows
        sources = [with_flat_gold(corpus.sources[0], 100, 300), corpus.sources[1]]
        cfg = small_train_config(
            mode=mode,
            dimensions=dimensions,
            pooling=pooling,
            detach_consensus_in_second_term=detach,
            epochs=1,
            predictor=PredictorConfig(encoder_dims=(8,), heads="dual"),
        )
        data = prepare_data(sources, [], cfg)
        real = trainer.compute_batch
        steps = []

        def nets(model):
            return [model.predictor.net] + [acn.net for acn in model.acns.values()]

        def spy(model, batch, cfg):
            twin = copy.deepcopy(model)
            # the items of the gathered batch, in the dtype the loop casts them to
            items = [
                dataclasses.replace(it, features=it.features.astype(np.float32))
                for it in batch.segments
            ]
            step = real(model, batch, cfg)
            assert real(twin, Batch(segments=items), cfg) == step
            for net, other in zip(nets(model), nets(twin), strict=True):
                assert np.array_equal(net._grad, other._grad)
            steps.append(step)
            return step

        monkeypatch.setattr(trainer, "compute_batch", spy)
        run_training(data, cfg)
        assert len(steps) == math.ceil(len(data.train) / cfg.batch_size)
        windows = len(data.train) * len(trainer.resolve_dimensions(cfg))
        assert 0 < sum(s.degenerate for s in steps) < windows
