"""Document-specific topic composition inference for spectral topic models."""

__version__ = "0.22.0"

from .model import (
    CompositionMatrix,
    Corpus,
    TopicModel,
    load_model,
    normalize_corpus,
    read_composition_tsv,
    read_corpus_tsv,
    read_dense_tsv,
    topic_marginals,
    word_topic_posterior,
    write_composition_tsv,
    write_corpus_tsv,
    write_dense_tsv,
)
from .simplex import project_simplex_columns
from .estimators import (
    TliConfig,
    TliInverse,
    spi_infer,
    tli_compute_inverse,
    tli_infer,
    tli_thresholds,
)
from .padd import (
    PaddConfig,
    PaddDiagnostics,
    padd_infer,
)
from .synth import (
    DirichletPrior,
    FixedLength,
    LogisticNormalPrior,
    PoissonLength,
    SynthOutput,
    synthesize,
)
from .metrics import (
    METRIC_ORDER,
    EvalReport,
    evaluate_compositions,
    prior_distance,
    random_baseline,
    write_per_doc_tsv,
    write_report_tsv,
)
