"""Kernel PCA with gradient-based feature importance and evaluation tools."""

from .baselines import laplacian_score, permutation_importance
from .curves import CurvePoint, selection_curve, silhouette_curve, variance_generalization
from .data import Dataset, load_labels, load_matrix, save_matrix, standardize
from .exceptions import DegenerateDataError, InputError, ParseError
from .importance import FeatureRanking, arrow_field, gradient_field, rank_features
from .kernels import KernelSpec, center_gram, gram_matrix, sigma_heuristic
from .kpca import (FittedKpca, SigmaRule, explained_variance, fit_kpca, fit_with_rule,
                   grid_search_sigma, project_training)
from .metrics import clustering_accuracy, kmeans, nmi, silhouette

__version__ = "0.1.0"

__all__ = [
    "CurvePoint", "Dataset", "DegenerateDataError", "FeatureRanking", "FittedKpca",
    "InputError", "KernelSpec", "ParseError", "SigmaRule", "arrow_field", "center_gram",
    "clustering_accuracy", "explained_variance", "fit_kpca", "fit_with_rule",
    "gradient_field", "gram_matrix", "grid_search_sigma", "kmeans", "laplacian_score",
    "load_labels", "load_matrix", "nmi", "permutation_importance", "project_training",
    "rank_features", "save_matrix", "selection_curve", "sigma_heuristic", "silhouette",
    "silhouette_curve", "standardize", "variance_generalization",
]
