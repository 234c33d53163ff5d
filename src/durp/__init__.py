"""Distance metric learning with dual random projections.

Learn a Mahalanobis metric from relative comparisons by solving the
margin problem's dual in a low-dimensional random subspace and rebuilding
the full-dimensional metric from the dual variables, with one final PSD
projection.  Includes random-subspace and PCA-subspace baselines, an
exhaustive-reference solver, evaluation protocols, and harnesses that
check the method's recovery guarantees empirically.
"""

from .data import LabeledDataset, ParseError, eigen_spectrum, load_libsvm, parse_libsvm, pca_fit
from .evaluate import EvalReport, evaluate_metric, knn_accuracy
from .experiments import METHODS, RunConfig, run_method, train_trial
from .gram import KappaStats, dense_gram, kappa
from .harness import HarnessConfig, verify_theorem1, verify_theorem2
from .metric import load_metric, psd_project, recover_metric, save_metric
from .projection import gaussian_matrix
from .reference import pga_solve
from .solver import DualSolution, LossModel, certificate, csdca_solve
from .synth import gaussian_blobs, isotropic_cloud, margin_gapped_blobs
from .triplets import TripletCache, build_cache, differences, project_cache, sample_active_triplets

__version__ = "0.1.0"
