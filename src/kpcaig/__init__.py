"""Kernel PCA with gradient-based feature importance and evaluation tools."""

from .baselines import BaselineRanking, laplacian_score, permutation_importance, subspace_distance
from .curves import CurvePoint, selection_curve, silhouette_curve, variance_generalization
from .data import Dataset, load_labels, load_matrix, save_matrix, standardize
from .exceptions import DegenerateDataError, InputError, ParseError
from .importance import (FeatureRanking, GradientField, arrow_field, feature_score,
                         gradient_field, rank_features)
from .kernels import (GramMatrix, KernelSpec, center_cross, center_gram, gram_matrix,
                      kernel_row, sigma_heuristic)
from .kpca import (Embedding, FittedKpca, SigmaRule, explained_variance, fit_kpca,
                   grid_search_sigma, project, project_training, resolve_spec)
from .metrics import ClusteringResult, clustering_accuracy, kmeans, nmi, silhouette

__version__ = "0.1.0"

__all__ = [
    "BaselineRanking", "ClusteringResult", "CurvePoint", "Dataset",
    "DegenerateDataError", "Embedding", "FeatureRanking", "FittedKpca",
    "GradientField", "GramMatrix", "InputError", "KernelSpec", "ParseError",
    "SigmaRule", "arrow_field", "center_cross", "center_gram",
    "clustering_accuracy", "explained_variance", "feature_score",
    "fit_kpca", "gradient_field", "gram_matrix", "grid_search_sigma",
    "kernel_row", "kmeans", "laplacian_score", "load_labels",
    "load_matrix", "nmi", "permutation_importance", "project",
    "project_training", "rank_features", "resolve_spec", "save_matrix",
    "selection_curve", "sigma_heuristic", "silhouette", "silhouette_curve",
    "standardize", "subspace_distance", "variance_generalization",
]
