"""The names ``tabattr`` exports, its submodules included; a change of export edits this list."""

import tabattr

EXPORTS = [
    "AttributionError", "AttributionResult", "Backend", "BackendError",
    "BackendUnavailableError", "CacheError", "CacheManifest", "CacheMissError",
    "ConfigError", "CorruptCacheError", "DatasetError", "DeletionCurve", "DeletionRun",
    "Evaluation", "FeatureField", "GlobalRanking", "HttpBackend", "IndexSetError", "LN2",
    "METRICS", "MalformedManifestError", "NormalizationError", "PromptTemplate",
    "ProtocolError", "RankingError", "RecordingBackend", "ReplayBackend", "SamplingConfig",
    "SerializationError", "StaleCacheError", "SyntheticBackend", "SyntheticOracleSpec",
    "TabAttrError", "TabularInstance", "TopKDistribution", "VerbalizerMap", "attribution",
    "backends", "build_prompts", "cache", "canonicalize_token", "class_masses",
    "config_fingerprint", "curve_auc", "divergence", "ensure_manifest", "errors",
    "essential_coalitions", "evaluate", "evaluate_prompts", "faithfulness",
    "global_ranking", "load_dataset", "load_external_ranking", "load_or_evaluate",
    "load_schema", "load_template", "n_extra", "normalize_key", "normalize_masses", "normalize_phi",
    "normalize_value", "open_backend", "parse_backend", "predicted_class", "prompt_digest",
    "random_order", "rank_compare", "run_deletion", "sample_extra", "score",
    "similarity_rows", "spearman_rho", "tabular", "verbalizer", "write_curves_csv",
    "write_curves_json",
]


def test_exports_are_the_pinned_list():
    assert tabattr.__all__ == EXPORTS
