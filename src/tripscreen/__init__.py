"""Mahalanobis metric learning by regularized triplet loss minimization,
accelerated with provably safe triplet screening along a regularization path.
"""

from .linalg import (EigDecomp, PsdSplit, check_symmetric, cone_project,
                     cone_split, eig_sym, psd_split)
from .problem import (Dataset, MetricProblem, Partition, Pins,
                      SmoothedHingeLoss, TripletSet, build_triplets)
from .bounds import (DualityGap, Sphere, dual_gap_bound, gap_bound,
                     gradient_bound, path_bound, projected_gradient_bound,
                     relaxed_path_bound)
from .rules import (HalfSpace, ScreenCounts, TripletStatus,
                    halfspace_from_iterate, lambda_ranges_all, screen_all)
from .solver import SolveConfig, SolveResult, bb_step, solve
from .path import (PathConfig, PathRecord, PathResult, lambda_max, loss_term,
                   run_path)
from .datasets import (DatasetFormatError, gaussian_blobs, load_csv,
                       load_dataset, load_libsvm, save_csv, save_libsvm,
                       subsample)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
