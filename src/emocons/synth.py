"""Synthetic multi-annotator corpus generation.

A corpus is built per source from a smooth latent emotion trace per
dimension.  Features are noisy linear mixtures of causal transforms of
the latent traces; annotators observe the trace through individual
distortions (scale, bias, lag, drift, noise).  Everything is driven by
named RNG substreams so a config reproduces its corpus exactly.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .annotations import (
    VALUE_MAX,
    VALUE_MIN,
    AnnotationMatrix,
    Dataset,
    FeatureSequence,
    GoldStandardTrack,
    SourceData,
)
from .errors import ContractError
from .rng import derive_seed, substream

# Parameter ranges for sampling annotator panels.  Scalars are fixed,
# pairs are uniform ranges.  The noisy regime produces panels whose mean
# pairwise agreement sits well below ceiling; the mild regime stays
# close to the latent trace.
NOISY_ANNOTATORS = dict(
    noise_sd=0.3,
    scale=(0.6, 1.4),
    bias=(-0.2, 0.2),
    lag_frames=(0, 5),
    drift_sd=0.0005,
)
MILD_ANNOTATORS = dict(
    noise_sd=0.1,
    scale=(0.9, 1.1),
    bias=(-0.05, 0.05),
    lag_frames=(0, 2),
    drift_sd=0.0002,
)

_BASIS_SIZE = 5


@dataclass(frozen=True)
class AnnotatorProfile:
    """Per-annotator distortion applied to the latent trace."""

    bias: float = 0.0
    scale: float = 1.0
    noise_sd: float = 0.0
    lag_frames: int = 0
    drift_sd: float = 0.0

    def __post_init__(self):
        for name in ("bias", "scale", "noise_sd", "drift_sd"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ContractError(f"{name} must be finite, got {value}")
        if self.scale <= 0:
            raise ContractError(f"scale must be positive, got {self.scale}")
        if self.noise_sd < 0:
            raise ContractError(f"noise_sd must be >= 0, got {self.noise_sd}")
        if self.lag_frames < 0:
            raise ContractError(f"lag_frames must be >= 0, got {self.lag_frames}")
        if self.drift_sd < 0:
            raise ContractError(f"drift_sd must be >= 0, got {self.drift_sd}")


def _draw(rng, spec, integer=False):
    if isinstance(spec, (tuple, list)):
        lo, hi = spec
        if integer:
            return int(rng.integers(lo, hi, endpoint=True))
        return float(rng.uniform(lo, hi))
    return int(spec) if integer else float(spec)


def sample_profiles(count, rng, *, noise_sd, scale, bias, lag_frames, drift_sd):
    """Sample a heterogeneous panel of `count` annotator profiles.

    Each keyword is either a scalar (shared by the panel) or a
    (low, high) range drawn per annotator.
    """
    if count < 1:
        raise ContractError(f"need at least one annotator, got {count}")
    profiles = []
    for _ in range(count):
        profiles.append(
            AnnotatorProfile(
                bias=_draw(rng, bias),
                scale=_draw(rng, scale),
                noise_sd=_draw(rng, noise_sd),
                lag_frames=_draw(rng, lag_frames, integer=True),
                drift_sd=_draw(rng, drift_sd),
            )
        )
    return tuple(profiles)


# The ranges each dimension's panel is sampled from when a SynthConfig is
# given no profiles.
_SAMPLED_PANELS = {"arousal": MILD_ANNOTATORS, "valence": NOISY_ANNOTATORS}


@dataclass(frozen=True)
class SynthConfig:
    """Corpus recipe; the defaults are the two-dimension benchmark corpus.

    ``profiles`` holds only the panels the caller gives.  When it is empty,
    ``panels`` samples a mild arousal panel and a noisy valence panel of
    ``annotators`` profiles from the seed.
    """

    sources: int = 7
    frames_per_source: int = 11250
    feature_dim: int = 10
    annotators: int = 6
    profiles: Mapping[str, Sequence[AnnotatorProfile]] = field(default_factory=dict)
    # valence is deliberately feature-poor: its per-column snr is tuned so
    # a plain predictor lands near CCC 0.45, the hard regime where
    # consensus-guided training separates from single-gold training
    feature_snr: Mapping[str, float] = field(
        default_factory=lambda: {"arousal": 8.0, "valence": 0.1}
    )
    seed: int = 0
    rate_hz: float = 25.0

    def __post_init__(self):
        if self.sources < 1:
            raise ContractError(f"sources must be >= 1, got {self.sources}")
        if self.frames_per_source < 2:
            raise ContractError(
                f"frames_per_source must be >= 2, got {self.frames_per_source}"
            )
        if not (math.isfinite(self.rate_hz) and self.rate_hz > 0):
            raise ContractError(f"rate_hz must be positive and finite, got {self.rate_hz}")
        if self.annotators < 2:
            raise ContractError(f"annotators must be >= 2, got {self.annotators}")
        # kept sorted, as tuples and floats, so equal recipes have one dict form
        object.__setattr__(
            self, "profiles", {d: tuple(self.profiles[d]) for d in sorted(self.profiles)}
        )
        object.__setattr__(
            self, "feature_snr", {d: float(v) for d, v in sorted(self.feature_snr.items())}
        )
        dims = list(self.dimensions)
        if sorted(self.feature_snr) != dims:
            raise ContractError(
                f"feature_snr dimensions {sorted(self.feature_snr)} "
                f"must match profile dimensions {dims}"
            )
        if self.feature_dim < len(dims):
            raise ContractError(
                f"feature_dim {self.feature_dim} too small for {len(dims)} dimensions"
            )
        for dim, panel in self.profiles.items():
            if len(panel) != self.annotators:
                raise ContractError(
                    f"profiles[{dim!r}] has {len(panel)} entries, expected {self.annotators}"
                )
        for dim in dims:
            if not (math.isfinite(self.feature_snr[dim]) and self.feature_snr[dim] >= 0):
                raise ContractError(
                    f"feature_snr[{dim!r}] must be finite and >= 0, got {self.feature_snr[dim]}"
                )

    @property
    def dimensions(self):
        return tuple(sorted(self.profiles or _SAMPLED_PANELS))

    @functools.cached_property
    def panels(self) -> Mapping[str, tuple[AnnotatorProfile, ...]]:
        """The annotator panel of each dimension: ``profiles``, or when that
        is empty the panels sampled from the seed, once per config."""
        return self.profiles or {
            dim: sample_profiles(
                self.annotators, substream(self.seed, f"profiles/{dim}"), **ranges
            )
            for dim, ranges in _SAMPLED_PANELS.items()
        }


def default_synth_config(seed, **overrides):
    """Two-dimension benchmark corpus: mild arousal panel, noisy valence panel."""
    return SynthConfig(seed=seed, **overrides)


def generate_truth(cfg, dimension, source_index):
    """Latent emotion trace: a squashed sum of random slow sinusoids."""
    rng = substream(cfg.seed, f"truth/{dimension}/{source_index:02d}")
    k = int(rng.integers(3, 7))
    periods = rng.uniform(5.0, 60.0, k)
    phases = rng.uniform(0.0, 2.0 * math.pi, k)
    t = np.arange(cfg.frames_per_source) / cfg.rate_hz
    signal = np.zeros(cfg.frames_per_source)
    for period, phase in zip(periods, phases):
        signal += np.sin(2.0 * math.pi * t / period + phase)
    values = 0.9 * np.tanh(signal / math.sqrt(k / 2.0))
    return GoldStandardTrack(
        dimension=dimension,
        rate_hz=cfg.rate_hz,
        values=values,
        provenance="intended_emotion",
    )


def _causal_mean(x, width):
    csum = np.concatenate([[0.0], np.cumsum(x)])
    t = np.arange(1, x.size + 1)
    lo = np.maximum(t - width, 0)
    return (csum[t] - csum[lo]) / (t - lo)


def _basis(x):
    return np.column_stack(
        [x, _causal_mean(x, 5), _causal_mean(x, 25), _causal_mean(x, 125), x * x]
    )


def _block_widths(feature_dim, n_dims):
    base, extra = divmod(feature_dim, n_dims)
    return [base + (1 if i < extra else 0) for i in range(n_dims)]


def _lift(cfg, dimension, width):
    # shared across sources so probes trained on some sources transfer
    # to held-out ones; orthonormal columns keep it well conditioned
    k = min(_BASIS_SIZE, width)
    rng = substream(cfg.seed, f"lift/{dimension}")
    gauss = rng.standard_normal((width, k))
    q, _ = np.linalg.qr(gauss)
    return q


def generate_features(truth, cfg, source_index):
    """Feature matrix for one source.

    One column block per dimension; `truth` supplies its own dimension
    and the remaining blocks are regenerated deterministically from the
    config.  Block columns mix causal transforms of the latent trace and
    carry Gaussian noise scaled by that dimension's signal-to-noise
    ratio (snr 0 means pure noise).
    """
    if truth.frames != cfg.frames_per_source:
        raise ContractError(
            f"truth has {truth.frames} frames, config expects {cfg.frames_per_source}"
        )
    dims = cfg.dimensions
    widths = _block_widths(cfg.feature_dim, len(dims))
    blocks = []
    for dim, width in zip(dims, widths):
        track = truth if dim == truth.dimension else generate_truth(cfg, dim, source_index)
        noise_rng = substream(cfg.seed, f"featnoise/{dim}/{source_index:02d}")
        snr = cfg.feature_snr[dim]
        if snr == 0:
            blocks.append(noise_rng.standard_normal((track.frames, width)))
            continue
        lift = _lift(cfg, dim, width)
        signal = _basis(track.values)[:, : lift.shape[1]] @ lift.T
        noise_sd = signal.std(axis=0) / math.sqrt(snr)
        blocks.append(signal + noise_rng.standard_normal(signal.shape) * noise_sd)
    return FeatureSequence(data=np.column_stack(blocks), rate_hz=cfg.rate_hz)


def simulate_annotators(truth, profiles, seed):
    """Apply each profile's distortion chain to the latent trace.

    Per annotator: lag with edge hold, affine scale/bias, random-walk
    drift, white noise, then clamp to the value range.
    """
    x = truth.values
    columns = []
    for u, profile in enumerate(profiles):
        if profile.lag_frames >= x.size:
            raise ContractError(
                f"lag_frames {profile.lag_frames} must be shorter than the "
                f"track ({x.size} frames)"
            )
        rng = substream(seed, f"ann-{u:02d}")
        drift = np.cumsum(rng.standard_normal(x.size)) * profile.drift_sd
        noise = rng.standard_normal(x.size) * profile.noise_sd
        lag = profile.lag_frames
        lagged = np.concatenate([np.full(lag, x[0]), x[:-lag]]) if lag else x
        v = profile.scale * lagged + profile.bias
        if profile.drift_sd:
            v = v + drift
        if profile.noise_sd:
            v = v + noise
        columns.append(np.clip(v, VALUE_MIN, VALUE_MAX))
    return AnnotationMatrix(
        data=np.column_stack(columns),
        annotator_ids=tuple(f"a{u:02d}" for u in range(len(profiles))),
        dimension=truth.dimension,
        rate_hz=truth.rate_hz,
    )


def generate_source(cfg, source_index):
    dims = cfg.dimensions
    truths = {dim: generate_truth(cfg, dim, source_index) for dim in dims}
    features = generate_features(truths[dims[0]], cfg, source_index)
    annotations = {
        dim: simulate_annotators(
            truths[dim],
            cfg.panels[dim],
            seed=derive_seed(cfg.seed, f"ann/{dim}/{source_index:02d}"),
        )
        for dim in dims
    }
    return SourceData(
        source_id=f"source_{source_index:02d}",
        features=features,
        gold=truths,
        annotations=annotations,
    )


def generate_corpus(cfg):
    sources = tuple(generate_source(cfg, i) for i in range(cfg.sources))
    meta = {
        "seed": cfg.seed,
        "annotators": cfg.annotators,
        "feature_snr": dict(cfg.feature_snr),
        "profiles": {
            dim: [dataclasses.asdict(p) for p in cfg.panels[dim]] for dim in cfg.dimensions
        },
    }
    return Dataset(sources=sources, meta=meta)
