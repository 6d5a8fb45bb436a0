import dataclasses
import itertools
import math
import re

import numpy as np
import pytest

from emocons.annotations import AnnotationMatrix, Dataset, load_dataset, write_dataset
from emocons.ccc import ccc_loss
from emocons.errors import ContractError
from emocons.rng import substream
from emocons.synth import (
    MILD_ANNOTATORS,
    NOISY_ANNOTATORS,
    AnnotatorProfile,
    SynthConfig,
    default_synth_config,
    generate_corpus,
    generate_features,
    generate_truth,
    sample_profiles,
    simulate_annotators,
)


def tiny_config(seed=0, **over):
    base = dict(
        sources=2,
        frames_per_source=1500,
        feature_dim=6,
        annotators=3,
        profiles={
            "arousal": sample_profiles(3, substream(seed, "pa"), **MILD_ANNOTATORS),
            "valence": sample_profiles(3, substream(seed, "pv"), **NOISY_ANNOTATORS),
        },
        feature_snr={"arousal": 8.0, "valence": 1.0},
        seed=seed,
    )
    base.update(over)
    return SynthConfig(**base)


def ccc(a, b):
    return ccc_loss(a, b).ccc


class TestProfiles:
    def test_validation(self):
        with pytest.raises(ContractError):
            AnnotatorProfile(scale=0.0)
        with pytest.raises(ContractError):
            AnnotatorProfile(noise_sd=-0.1)
        with pytest.raises(ContractError):
            AnnotatorProfile(lag_frames=-1)
        with pytest.raises(ContractError):
            AnnotatorProfile(drift_sd=-0.1)

    def test_sampling_is_heterogeneous_and_in_range(self):
        profs = sample_profiles(6, substream(1, "p"), **NOISY_ANNOTATORS)
        assert len(profs) == 6
        scales = [p.scale for p in profs]
        assert len(set(scales)) == 6
        for p in profs:
            assert 0.6 <= p.scale <= 1.4
            assert p.noise_sd == 0.3
            assert -0.2 <= p.bias <= 0.2

    def test_sampling_deterministic(self):
        a = sample_profiles(4, substream(2, "p"), **NOISY_ANNOTATORS)
        b = sample_profiles(4, substream(2, "p"), **NOISY_ANNOTATORS)
        assert a == b


# Each non-finite value used to pass: a nan bias or drift_sd failed midway
# through generation without naming the field, an infinite one saturated
# the annotator at +-1, and an infinite rate_hz or snr built a config.
NON_FINITE = {
    "bias": lambda v: AnnotatorProfile(bias=v),
    "scale": lambda v: AnnotatorProfile(scale=v),
    "noise_sd": lambda v: AnnotatorProfile(noise_sd=v),
    "drift_sd": lambda v: AnnotatorProfile(drift_sd=v),
    "rate_hz": lambda v: tiny_config(rate_hz=v),
    "feature_snr['valence']": lambda v: tiny_config(feature_snr={"arousal": 8.0, "valence": v}),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", list(NON_FINITE))
def test_non_finite_values_refused(field, value):
    with pytest.raises(ContractError, match=rf"^{re.escape(field)} must be [a-z ]*finite"):
        NON_FINITE[field](value)


class TestConfig:
    def test_default_corpus_shape(self):
        cfg = default_synth_config(7)
        assert cfg.sources == 7
        assert cfg.frames_per_source == 11250
        assert cfg.rate_hz == 25.0
        assert cfg.annotators == 6
        assert cfg.profiles == {}
        assert set(cfg.panels) == {"arousal", "valence"}
        assert all(len(v) == 6 for v in cfg.panels.values())
        for p in cfg.panels["valence"]:
            assert p.noise_sd == 0.3
            assert 0.6 <= p.scale <= 1.4

    def test_empty_profiles_sampled_from_seed(self):
        # the config keeps only the profiles it is given; the panels it
        # samples are derived, so a new seed or size re-samples them
        cfg = SynthConfig(seed=4, annotators=3, sources=1, frames_per_source=50)
        assert cfg.profiles == {}
        assert cfg.panels == {
            "arousal": sample_profiles(3, substream(4, "profiles/arousal"), **MILD_ANNOTATORS),
            "valence": sample_profiles(3, substream(4, "profiles/valence"), **NOISY_ANNOTATORS),
        }
        assert cfg.panels is cfg.panels  # sampled once per config
        assert default_synth_config(4, annotators=3, sources=1, frames_per_source=50) == cfg
        assert dataclasses.replace(cfg, annotators=4).panels == {
            "arousal": sample_profiles(4, substream(4, "profiles/arousal"), **MILD_ANNOTATORS),
            "valence": sample_profiles(4, substream(4, "profiles/valence"), **NOISY_ANNOTATORS),
        }
        given = dataclasses.replace(cfg, profiles=cfg.panels)
        assert given.profiles == given.panels == cfg.panels
        ours, theirs = generate_corpus(cfg), generate_corpus(given)
        assert ours.meta == theirs.meta
        for dim in cfg.dimensions:
            np.testing.assert_array_equal(
                ours.sources[0].annotations[dim].data, theirs.sources[0].annotations[dim].data
            )

    def test_validation(self):
        with pytest.raises(ContractError):
            tiny_config(annotators=1)
        with pytest.raises(ContractError):
            tiny_config(frames_per_source=1)
        with pytest.raises(ContractError):
            tiny_config(feature_snr={"arousal": 8.0})  # missing valence
        with pytest.raises(ContractError):
            tiny_config(
                profiles={
                    "arousal": sample_profiles(2, substream(0, "x"), **MILD_ANNOTATORS),
                    "valence": sample_profiles(3, substream(0, "y"), **NOISY_ANNOTATORS),
                }
            )


class TestTruth:
    def test_bounds_and_determinism(self):
        cfg = tiny_config(3)
        a = generate_truth(cfg, "arousal", 0)
        b = generate_truth(cfg, "arousal", 0)
        np.testing.assert_array_equal(a.values, b.values)
        assert a.frames == 1500
        assert np.all(np.abs(a.values) < 0.9)
        assert a.provenance == "intended_emotion"

    def test_sources_and_dimensions_differ(self):
        cfg = tiny_config(3)
        a = generate_truth(cfg, "arousal", 0)
        b = generate_truth(cfg, "arousal", 1)
        c = generate_truth(cfg, "valence", 0)
        assert not np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_smoothness_autocorrelation(self):
        cfg = tiny_config(4, frames_per_source=5000)
        for i in range(cfg.sources):
            v = generate_truth(cfg, "valence", i).values
            r = np.corrcoef(v[:-1], v[1:])[0, 1]
            assert r > 0.99


class TestFeatures:
    def test_shape_and_determinism(self):
        cfg = tiny_config(5)
        t = generate_truth(cfg, "arousal", 0)
        f1 = generate_features(t, cfg, 0)
        f2 = generate_features(t, cfg, 0)
        assert f1.data.shape == (1500, 6)
        np.testing.assert_array_equal(f1.data, f2.data)

    def test_linear_probe_recovers_truth_at_high_snr(self):
        cfg = tiny_config(6, feature_snr={"arousal": 1e12, "valence": 1e12})
        t = generate_truth(cfg, "arousal", 0)
        f = generate_features(t, cfg, 0)
        beta, *_ = np.linalg.lstsq(f.data, t.values, rcond=None)
        assert ccc(f.data @ beta, t.values) > 0.99

    def test_zero_snr_is_noise_only(self):
        cfg = tiny_config(7, feature_snr={"arousal": 0.0, "valence": 0.0})
        t = generate_truth(cfg, "arousal", 0)
        f = generate_features(t, cfg, 0)
        half = f.frames // 2
        beta, *_ = np.linalg.lstsq(f.data[:half], t.values[:half], rcond=None)
        assert abs(ccc(f.data[half:] @ beta, t.values[half:])) < 0.2

    def test_lift_shared_across_sources(self):
        # the feature map must be common to all sources so that models
        # trained on some sources transfer to held-out ones
        cfg = tiny_config(8, feature_snr={"arousal": 1e12, "valence": 1e12})
        t0 = generate_truth(cfg, "arousal", 0)
        t1 = generate_truth(cfg, "arousal", 1)
        f0 = generate_features(t0, cfg, 0)
        f1 = generate_features(t1, cfg, 1)
        beta, *_ = np.linalg.lstsq(f0.data, t0.values, rcond=None)
        assert ccc(f1.data @ beta, t1.values) > 0.99


class TestAnnotators:
    def test_identity_profile_reproduces_truth(self):
        cfg = tiny_config(9)
        t = generate_truth(cfg, "arousal", 0)
        m = simulate_annotators(t, (AnnotatorProfile(),) * 3, seed=1)
        assert isinstance(m, AnnotationMatrix)
        for j in range(3):
            np.testing.assert_array_equal(m.data[:, j], t.values)
            assert ccc(m.data[:, j], t.values) > 1 - 1e-7

    def test_pure_bias(self):
        cfg = tiny_config(10)
        t = generate_truth(cfg, "valence", 0)
        m = simulate_annotators(t, (AnnotatorProfile(bias=0.2),), seed=2)
        np.testing.assert_allclose(m.data[:, 0], np.clip(t.values + 0.2, -1, 1))

    def test_lag_edge_holds(self):
        cfg = tiny_config(11)
        t = generate_truth(cfg, "arousal", 0)
        m = simulate_annotators(t, (AnnotatorProfile(lag_frames=3),), seed=3)
        np.testing.assert_array_equal(m.data[3:, 0], t.values[:-3])
        np.testing.assert_array_equal(m.data[:3, 0], np.full(3, t.values[0]))

    def test_lag_must_be_shorter_than_track(self):
        cfg = tiny_config(12, frames_per_source=50)
        t = generate_truth(cfg, "arousal", 0)
        with pytest.raises(ContractError):
            simulate_annotators(t, (AnnotatorProfile(lag_frames=50),), seed=0)

    def test_determinism_and_seed_sensitivity(self):
        cfg = tiny_config(13)
        t = generate_truth(cfg, "arousal", 0)
        profs = (AnnotatorProfile(noise_sd=0.2),) * 2
        a = simulate_annotators(t, profs, seed=5)
        b = simulate_annotators(t, profs, seed=5)
        c = simulate_annotators(t, profs, seed=6)
        np.testing.assert_array_equal(a.data, b.data)
        assert not np.array_equal(a.data, c.data)

    def test_noise_monotonically_degrades_agreement(self):
        cfg = tiny_config(14, frames_per_source=2000)
        t = generate_truth(cfg, "arousal", 0)
        means = []
        for noise in (0.0, 0.15, 0.3, 0.6):
            vals = []
            for s in range(20):
                m = simulate_annotators(
                    t, (AnnotatorProfile(noise_sd=noise),), seed=1000 + s
                )
                vals.append(ccc(m.data[:, 0], t.values))
            means.append(np.mean(vals))
        assert all(a > b for a, b in zip(means, means[1:]))

    def test_noisy_regime_interannotator_band(self):
        # the generator is tuned so heterogeneous noisy panels agree at
        # a mean pairwise CCC between 0.3 and 0.8
        for seed in (0, 1, 2):
            cfg = default_synth_config(seed, sources=1, frames_per_source=6000)
            t = generate_truth(cfg, "valence", 0)
            m = simulate_annotators(t, cfg.panels["valence"], seed=seed)
            pair = [
                ccc(m.data[:, i], m.data[:, j])
                for i, j in itertools.combinations(range(m.annotators), 2)
            ]
            assert 0.3 < np.mean(pair) < 0.8


class TestCorpus:
    def test_structure(self):
        cfg = tiny_config(15)
        ds = generate_corpus(cfg)
        assert isinstance(ds, Dataset)
        assert ds.source_ids == ("source_00", "source_01")
        assert ds.dimensions == ("arousal", "valence")
        assert ds.feature_dim == 6
        s = ds.sources[0]
        assert s.features.frames == 1500
        assert s.annotations["valence"].annotators == 3
        assert s.gold["arousal"].provenance == "intended_emotion"

    def test_deterministic(self):
        a = generate_corpus(tiny_config(16))
        b = generate_corpus(tiny_config(16))
        np.testing.assert_array_equal(a.sources[0].features.data, b.sources[0].features.data)
        np.testing.assert_array_equal(
            a.sources[1].annotations["valence"].data,
            b.sources[1].annotations["valence"].data,
        )

    def test_write_load_roundtrip(self, tmp_path):
        cfg = tiny_config(17, frames_per_source=300)
        ds = generate_corpus(cfg)
        write_dataset(tmp_path / "d", ds)
        back = load_dataset(tmp_path / "d")
        assert back.source_ids == ds.source_ids
        assert back.dimensions == ds.dimensions
        assert back.meta["annotators"] == 3
        assert back.meta["seed"] == 17
        for s1, s2 in zip(ds.sources, back.sources):
            np.testing.assert_allclose(s2.features.data, s1.features.data, atol=1e-6)
            for dim in ds.dimensions:
                np.testing.assert_allclose(
                    s2.gold[dim].values, s1.gold[dim].values, atol=1e-6
                )
                np.testing.assert_allclose(
                    s2.annotations[dim].data, s1.annotations[dim].data, atol=1e-6
                )
                assert s2.gold[dim].provenance == "intended_emotion"
                assert (
                    s2.annotations[dim].annotator_ids == s1.annotations[dim].annotator_ids
                )
