"""Local explanation vectors: gradients of class-probability functions.

Two routes produce one record, :class:`ExplanationVector` (a point or a block):

* analytic — fit a GP classifier with :func:`ep_fit` and differentiate
  its predictive probability with :func:`explain_gpc`, at a point or a block;
* model-agnostic — mimic any label-producing classifier with a Parzen
  window (:class:`ParzenMimic`) and differentiate the mimic's posterior
  with :func:`explain_mimic`, at a point or a block.
"""

from .analysis import (
    FeatureRanking,
    GroupComparison,
    HistogramSpec,
    compare_groups,
    histogram,
    ks_two_sample,
    rank_features,
    roc_auc,
    sym_kld,
)
from .classifiers import KnnClassifier, TableOracle, knn_fit_loo, table_oracle_load
from .data import (
    Dataset,
    ExplanationVector,
    gen_nonlinear,
    gen_three_clusters,
    gen_triangle,
    inject_outliers,
    iris_binary,
    load_csv,
    load_iris,
    normalize_fit_apply,
    save_csv,
    split_stratified,
)
from .gpc import (
    GpcModel,
    ep_fit,
    explain_gpc,
    load_gpc,
    predict_proba,
    save_gpc,
)
from .kernels import KernelSpec, kernel_from_dict, kernel_to_dict
from .mimic import (
    ParzenMimic,
    explain_mimic,
    mimic_predict,
    parzen_posterior_not,
    select_width,
    smooth_gradients,
)

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "ExplanationVector",
    "FeatureRanking",
    "GpcModel",
    "GroupComparison",
    "HistogramSpec",
    "KernelSpec",
    "KnnClassifier",
    "ParzenMimic",
    "TableOracle",
    "compare_groups",
    "ep_fit",
    "explain_gpc",
    "explain_mimic",
    "gen_nonlinear",
    "gen_three_clusters",
    "gen_triangle",
    "histogram",
    "inject_outliers",
    "iris_binary",
    "kernel_from_dict",
    "kernel_to_dict",
    "knn_fit_loo",
    "ks_two_sample",
    "load_csv",
    "load_gpc",
    "load_iris",
    "mimic_predict",
    "normalize_fit_apply",
    "parzen_posterior_not",
    "predict_proba",
    "rank_features",
    "roc_auc",
    "save_csv",
    "save_gpc",
    "select_width",
    "smooth_gradients",
    "split_stratified",
    "sym_kld",
]
