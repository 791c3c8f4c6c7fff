"""tabattr: coalition-sampling feature attribution for tabular classifiers
served as next-token-logprob endpoints.

Rows become deterministic ``key:value`` prompts; feature importance is the
difference in mean distributional similarity (JSD, KL, or L1 based) between
sampled coalitions that include and exclude each field; deletion curves and
rank correlations validate the resulting orderings.
"""

__version__ = "0.1.0"

from .attribution import (
    AttributionResult,
    Evaluation,
    SamplingConfig,
    essential_coalitions,
    evaluate,
    n_extra,
    normalize_phi,
    sample_extra,
    score,
)
from .backends import (
    Backend,
    HttpBackend,
    RecordingBackend,
    ReplayBackend,
    SyntheticBackend,
    SyntheticOracleSpec,
    TopKDistribution,
    evaluate_prompts,
    open_backend,
    parse_backend,
    prompt_digest,
)
from .cache import CacheManifest, config_fingerprint, ensure_manifest, load_or_evaluate
from .divergence import LN2, METRICS, similarity_rows
from .errors import (
    AttributionError,
    BackendError,
    BackendUnavailableError,
    CacheError,
    CacheMissError,
    ConfigError,
    CorruptCacheError,
    DatasetError,
    IndexSetError,
    MalformedManifestError,
    NormalizationError,
    ProtocolError,
    RankingError,
    SerializationError,
    StaleCacheError,
    TabAttrError,
)
from .faithfulness import (
    DeletionCurve,
    DeletionRun,
    curve_auc,
    load_external_ranking,
    predicted_class,
    random_order,
    run_deletion,
    write_curves_csv,
    write_curves_json,
)
from .rank_compare import GlobalRanking, global_ranking, spearman_rho
from .tabular import (
    FeatureField,
    PromptTemplate,
    TabularInstance,
    build_prompts,
    load_dataset,
    load_schema,
    load_template,
    normalize_key,
    normalize_value,
)
from .verbalizer import VerbalizerMap, canonicalize_token, class_masses, normalize_masses

__all__ = [name for name in dir() if not name.startswith("_")]
