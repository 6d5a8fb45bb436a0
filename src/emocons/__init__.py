"""Multi-annotator consensus training for continuous emotion recognition.

A feature-to-affect predictor and a small consensus network over annotator
traces are trained jointly under a dual concordance-correlation objective;
classical single-gold-standard training is kept alongside for paired
comparison.  Includes a synthetic corpus generator, a cross-validation
harness, and a CLI (``emocons``).
"""

from .annotations import (
    AnnotationMatrix,
    Dataset,
    FeatureSequence,
    GoldStandardTrack,
    SourceData,
    WindowSpec,
    load_dataset,
    window_count,
)
from .ccc import ccc_batch_loss, ccc_loss
from .consensus import (
    AcnConfig,
    aggregate,
    aggregate_baseline,
    compute_reliability_weights,
    init_acn,
    make_mean_acn,
)
from .errors import (
    ConfigError,
    ContractError,
    EmoconsError,
    ParseError,
    StructuralError,
)
from .evalharness import ab_compare, evaluate, make_loso_plan, run_cv
from .nn import OptimConfig
from .predictor import PredictorConfig, init_predictor
from .synth import SynthConfig, default_synth_config, generate_corpus
from .trainer import (
    TrainConfig,
    load_run_model,
    prepare_data,
    run_training,
    save_run,
)

__version__ = "0.1.0"

__all__ = [
    "AcnConfig",
    "AnnotationMatrix",
    "ConfigError",
    "ContractError",
    "Dataset",
    "EmoconsError",
    "FeatureSequence",
    "GoldStandardTrack",
    "OptimConfig",
    "ParseError",
    "PredictorConfig",
    "SourceData",
    "StructuralError",
    "SynthConfig",
    "TrainConfig",
    "WindowSpec",
    "ab_compare",
    "aggregate",
    "aggregate_baseline",
    "ccc_batch_loss",
    "ccc_loss",
    "compute_reliability_weights",
    "default_synth_config",
    "evaluate",
    "generate_corpus",
    "init_acn",
    "init_predictor",
    "load_dataset",
    "load_run_model",
    "make_loso_plan",
    "make_mean_acn",
    "prepare_data",
    "run_cv",
    "run_training",
    "save_run",
    "window_count",
    "__version__",
]
