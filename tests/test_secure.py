import numpy as np
import pytest

from gpattack.data import Dataset
from gpattack.gp import REJECT, RejectionPolicy, fit_regression
from gpattack.kernels import LINEAR, RBF, KernelSpec, kernel_eval
from gpattack.secure import (
    _secure_classify_batch,
    build_secure_classifier,
    check_identity_assumption,
    equivalence_check,
    generalization_probe,
    rho_ball_radius,
)

SPEC = KernelSpec(RBF, lengthscale=1.0, variance=1.0)


def secure_classify(sc, x):
    """The secure classifier's decision at one point."""
    return int(_secure_classify_batch(sc, SPEC, np.asarray(x, dtype=float)[None, :])[0])


def far_anchors(n=4, spacing=20.0):
    anchors = np.column_stack([np.arange(n) * spacing, np.zeros(n)])
    labels = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    return anchors, labels


class TestConstruction:
    def test_far_anchors_accepted(self):
        anchors, labels = far_anchors()
        sc = build_secure_classifier(anchors, labels, 0.4, SPEC)
        assert sc.rho == 0.4

    def test_overlapping_conflicting_balls_rejected(self):
        # rho = 0.4 gives ball radius ~1.35; conflicting anchors 1 apart overlap
        anchors = np.array([[0.0, 0.0], [1.0, 0.0]])
        labels = np.array([1.0, -1.0])
        with pytest.raises(ValueError):
            build_secure_classifier(anchors, labels, 0.4, SPEC)

    def test_same_label_overlap_is_fine(self):
        anchors = np.array([[0.0, 0.0], [1.0, 0.0]])
        labels = np.array([1.0, 1.0])
        build_secure_classifier(anchors, labels, 0.4, SPEC)

    def test_rho_range(self):
        anchors, labels = far_anchors()
        for rho in (0.0, 1.0, -0.2, 2.0):
            with pytest.raises(ValueError):
                build_secure_classifier(anchors, labels, rho, SPEC)

    def test_requires_abating_kernel(self):
        anchors, labels = far_anchors()
        with pytest.raises(ValueError):
            build_secure_classifier(anchors, labels, 0.4, KernelSpec(LINEAR))

    def test_radius_formula(self):
        spec = KernelSpec(RBF, lengthscale=2.0, variance=1.0)
        radius = rho_ball_radius(spec, 0.5)
        # at that Euclidean distance the similarity equals rho
        x = np.array([radius, 0.0])
        assert kernel_eval(spec, x, np.zeros(2)) == pytest.approx(0.5, rel=1e-12)


class TestSecureClassify:
    def test_anchor_gets_its_label(self):
        anchors, labels = far_anchors()
        sc = build_secure_classifier(anchors, labels, 0.4, SPEC)
        for anchor, label in zip(anchors, labels):
            assert secure_classify(sc, anchor) == label

    def test_boundary_is_rejected(self):
        anchors = np.array([[0.0, 0.0]])
        labels = np.array([1.0])
        x = np.array([0.7, 0.3])
        rho = kernel_eval(SPEC, x, anchors[0])  # similarity exactly rho
        sc = build_secure_classifier(anchors, labels, rho, SPEC)
        assert secure_classify(sc, x) == REJECT

    def test_far_point_rejected(self):
        anchors, labels = far_anchors()
        sc = build_secure_classifier(anchors, labels, 0.4, SPEC)
        assert secure_classify(sc, np.array([0.0, 50.0])) == REJECT

    def test_never_labels_outside_all_balls(self):
        anchors, labels = far_anchors()
        rho = 0.3
        sc = build_secure_classifier(anchors, labels, rho, SPEC)
        rng = np.random.default_rng(0)
        for probe in rng.uniform([-5, -5], [65, 5], size=(500, 2)):
            sims = [kernel_eval(SPEC, probe, a) for a in anchors]
            if secure_classify(sc, probe) != REJECT:
                assert max(sims) > rho


class TestIdentityAssumption:
    def test_far_anchors(self):
        anchors, _ = far_anchors()
        assert check_identity_assumption(anchors, SPEC)

    def test_duplicate_anchor(self):
        anchors = np.array([[0.0, 0.0], [0.0, 0.0]])
        assert not check_identity_assumption(anchors, SPEC)

    def test_single_anchor_vacuous(self):
        assert check_identity_assumption(np.array([[3.0, 1.0]]), SPEC)


class TestEquivalence:
    @staticmethod
    def _setup(rho, n=4, spacing=20.0, jitter=1e-10):
        anchors, labels = far_anchors(n, spacing)
        sc = build_secure_classifier(anchors, labels, rho, SPEC)
        gp = fit_regression(SPEC, Dataset(anchors, labels), jitter)
        policy = RejectionPolicy(1.0 - rho, 1.0 - rho)
        return sc, gp, policy

    def test_exact_agreement_on_uniform_probes(self):
        sc, gp, policy = self._setup(0.4)
        probes = np.random.default_rng(1).uniform([-5, -5], [65, 5], size=(1000, 2))
        result = equivalence_check(sc, gp, policy, probes)
        assert result["agreement_rate"] == 1.0
        assert result["disagreements"] == []

    def test_rho_near_one_rejects_everything(self):
        rho = 0.999999
        sc, gp, policy = self._setup(rho)
        probes = np.random.default_rng(2).uniform([-5, -5], [65, 5], size=(200, 2))
        result = equivalence_check(sc, gp, policy, probes)
        assert result["agreement_rate"] == 1.0

    def test_violated_assumption_is_an_error(self):
        anchors = np.array([[0.0, 0.0], [2.0, 0.0], [40.0, 0.0], [60.0, 0.0]])
        labels = np.array([1.0, 1.0, -1.0, 1.0])
        sc = build_secure_classifier(anchors, labels, 0.4, SPEC)
        gp = fit_regression(SPEC, Dataset(anchors, labels), 1e-10)
        policy = RejectionPolicy(0.6, 0.6)
        with pytest.raises(ValueError):
            equivalence_check(sc, gp, policy, np.zeros((1, 2)))

    def test_mismatched_training_data_is_an_error(self):
        sc, _, policy = self._setup(0.4)
        other = Dataset(np.array([[0.0, 0.0], [30.0, 0.0]]), np.array([1.0, -1.0]))
        gp = fit_regression(SPEC, other, 1e-10)
        with pytest.raises(ValueError):
            equivalence_check(sc, gp, policy, np.zeros((1, 2)))

    def test_mismatched_thresholds_are_an_error(self):
        sc, gp, _ = self._setup(0.4)
        with pytest.raises(ValueError):
            equivalence_check(sc, gp, RejectionPolicy(0.5, 0.5), np.zeros((1, 2)))


class TestGeneralizationProbe:
    @staticmethod
    def _grid(lo, hi, resolution=40):
        axis = np.linspace(lo, hi, resolution)
        g0, g1 = np.meshgrid(axis, axis, indexing="ij")
        return np.column_stack([g0.ravel(), g1.ravel()])

    def test_identity_regime_fraction_zero(self):
        anchors, labels = far_anchors()
        rho = 0.4
        gp = fit_regression(SPEC, Dataset(anchors, labels), 1e-10)
        policy = RejectionPolicy(1 - rho, 1 - rho)
        grid = self._grid(-5.0, 65.0)
        result = generalization_probe(gp, SPEC, rho, grid, policy)
        assert result["outside_classified_fraction"] == 0.0

    def test_interacting_anchors_classify_outside(self):
        anchors = np.array([[0.0, 0.0], [1.0, 0.0]])  # one lengthscale apart
        labels = np.array([1.0, 1.0])
        rho = 0.4
        gp = fit_regression(SPEC, Dataset(anchors, labels), 1e-10)
        policy = RejectionPolicy(1 - rho, 1 - rho)
        result = generalization_probe(gp, SPEC, rho, self._grid(-2.0, 3.0), policy)
        assert result["outside_classified_fraction"] > 0.0

    def test_ball_covering_grid_gives_zero(self):
        # nothing is outside the ball, so the fraction is zero by definition
        anchors = np.array([[0.0, 0.0]])
        gp = fit_regression(SPEC, Dataset(anchors, np.array([1.0])), 1e-10)
        rho = 0.01
        policy = RejectionPolicy(1 - rho, 1 - rho)
        grid = self._grid(-0.5, 0.5, 10)
        result = generalization_probe(gp, SPEC, rho, grid, policy)
        assert result["outside_classified_fraction"] == 0.0

    def test_fraction_monotone_in_lengthscale(self):
        # the rho-balls stay fixed at the reference geometry; only the
        # learner's lengthscale grows
        anchors = np.array([[0.0, 0.0], [1.5, 0.0], [0.0, 1.5]])
        labels = np.array([1.0, 1.0, 1.0])
        rho = 0.4
        grid = self._grid(-3.0, 4.0)
        fractions = []
        for lengthscale in (0.4, 0.8, 1.6, 3.2, 6.4):
            gp = fit_regression(KernelSpec(RBF, lengthscale=lengthscale), Dataset(anchors, labels), 1e-10)
            policy = RejectionPolicy(1 - rho, 1 - rho)
            fractions.append(generalization_probe(gp, SPEC, rho, grid, policy)["outside_classified_fraction"])
        assert all(a <= b + 1e-12 for a, b in zip(fractions, fractions[1:]))
        assert fractions[-1] > 0.0
