"""Gaussian process binary classification with a test-time attack toolkit.

The package fits GP classifiers/regressors with a controllable decision
surface curvature (the RBF lengthscale) and ships the attacker's side as
well: evasion attacks on the latent mean, analytic and empirical model
extraction, membership inference, plus the rho-ball secure classifier that
makes the learning/security trade-off precise.
"""

__version__ = "0.1.0"

from .data import Dataset, generate_blobs, generate_two_moons, load_csv, split
from .kernels import KernelSpec, kernel_eval, kernel_matrix
from .gp import (
    Prediction,
    RejectionPolicy,
    TrainedGP,
    ZeroRejection,
    accuracy,
    decision_grid,
    fit_classification_laplace,
    fit_regression,
    latent_gradient,
    predict,
    predict_with_rejection,
)
from .secure import (
    SecureClassifier,
    build_secure_classifier,
    check_identity_assumption,
    equivalence_check,
    generalization_probe,
)
from .evasion import AdversarialResult, AttackConfig, curvature_comparison, cw_l2, gpfgs, gpjm
from .extraction import (
    ComplexityEstimate,
    ExtractionReport,
    ModelOracle,
    estimate_lengthscale_sweep,
    extract_lengthscale_analytic,
    identify_kernel,
    query_complexity,
    recover_training_data_analytic,
)
from .membership import (
    AttackClassifier,
    MembershipDataset,
    build_attack_dataset,
    distribution_drift,
    evaluate_membership,
    overfitting_gap,
    train_attack_classifier,
)
