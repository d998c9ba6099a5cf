import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpattack.data import Dataset, generate_two_moons, split
from gpattack.evasion import (
    AttackConfig,
    adversarial_accuracy,
    curvature_comparison,
    cw_l2,
    gpfgs,
    gpfgs_batch,
    gpjm,
    write_attack_sets_csv,
)
from gpattack.gp import fit_classification_laplace, fit_regression, latent_mean
from gpattack.kernels import RBF, KernelSpec


def moons_victims(seed=7, noise=0.2, short=0.2, long=2.0):
    data = generate_two_moons(120, noise, seed)
    train, test = split(data, 0.5, seed)
    victim_short = fit_classification_laplace(KernelSpec(RBF, lengthscale=short), train)
    victim_long = fit_classification_laplace(KernelSpec(RBF, lengthscale=long), train)
    return victim_short, victim_long, test


def single_anchor_gp(lengthscale=1.0):
    ds = Dataset(np.zeros((1, 2)), np.array([1.0]))
    return fit_regression(KernelSpec(RBF, lengthscale=lengthscale), ds, 1e-10)


WIDE_BOX = (np.full(2, -100.0), np.full(2, 100.0))


class TestGpfgs:
    def test_zero_epsilon_is_identity(self):
        gp = single_anchor_gp()
        x = np.array([0.5, 0.5])
        result = gpfgs(gp, x, 0.0, box=WIDE_BOX)
        assert np.array_equal(result.adversarial, x)
        assert not result.success
        assert result.norms == {"l0": 0, "l2": 0.0, "linf": 0.0}

    def test_nan_epsilon_refused_by_name(self):
        # NaN passed `epsilon < 0`, and the attack then failed on a NaN point of its own
        with pytest.raises(ValueError, match="epsilon must be nonnegative and finite, got nan"):
            gpfgs_batch(single_anchor_gp(), np.zeros((1, 2)), np.nan)

    def test_sign_structure(self):
        # query below the +1 anchor in both coordinates: gradient is positive,
        # so a +1-labeled point moves down by epsilon in every coordinate
        gp = single_anchor_gp()
        x = np.array([-0.5, -0.7])
        result = gpfgs(gp, x, 0.1, box=WIDE_BOX)
        assert np.allclose(result.delta, [-0.1, -0.1])

    def test_flip_rate_on_short_lengthscale_moons(self):
        victim_short, _, test = moons_victims()
        results = [gpfgs(victim_short, x, 0.3) for x in test.features[:50]]
        assert np.mean([r.success for r in results]) >= 0.3

    def test_linf_bound_and_equality(self):
        victim_short, _, test = moons_victims()
        for x in test.features[:20]:
            r = gpfgs(victim_short, x, 0.25, box=WIDE_BOX)
            assert r.norms["linf"] <= 0.25 + 1e-15
            grad_zero = np.any(np.isclose(np.sign(r.delta), 0.0))
            if not grad_zero:
                assert r.norms["linf"] == pytest.approx(0.25)

    def test_result_wiring(self):
        gp = single_anchor_gp()
        r = gpfgs(gp, np.array([0.3, -0.2]), 0.05, box=WIDE_BOX)
        assert np.array_equal(r.adversarial, r.original + r.delta)
        assert r.norms["l0"] == int((np.abs(r.delta) > 1e-12).sum())

    def test_deterministic(self):
        victim_short, _, test = moons_victims()
        x = test.features[0]
        a = gpfgs(victim_short, x, 0.3)
        b = gpfgs(victim_short, x, 0.3)
        assert np.array_equal(a.adversarial, b.adversarial)


class TestGpjm:
    def test_budget_validation(self):
        gp = single_anchor_gp()
        with pytest.raises(ValueError):
            gpjm(gp, np.zeros(2), 0, 0.1)

    def test_one_dimensional_matches_gpfgs(self):
        ds = Dataset(np.array([[0.0], [2.0]]), np.array([1.0, -1.0]))
        gp = fit_regression(KernelSpec(RBF, lengthscale=0.8), ds, 1e-9)
        box = (np.array([-10.0]), np.array([10.0]))
        x = np.array([0.4])
        saliency = gpjm(gp, x, 1, 0.3, box=box)
        one_step = gpfgs(gp, x, 0.3, box=box)
        assert np.allclose(saliency.adversarial, one_step.adversarial)

    def test_l0_budget_is_exact(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(-1, 1, size=(12, 5))
        y = np.where(rng.random(12) > 0.5, 1.0, -1.0)
        gp = fit_regression(KernelSpec(RBF, lengthscale=0.6), Dataset(X, y), 1e-8)
        for budget in (1, 2, 3, 5):
            r = gpjm(gp, rng.uniform(-1, 1, size=5), budget, 0.4, box=(np.full(5, -5.0), np.full(5, 5.0)))
            assert r.norms["l0"] <= budget

    def test_moons_median_l0_of_successes(self):
        victim_short, _, test = moons_victims()
        results = [gpjm(victim_short, x, 2, 0.3) for x in test.features[:50]]
        successes = [r.norms["l0"] for r in results if r.success]
        assert successes, "expected at least one successful saliency attack"
        assert np.median(successes) <= 2

    def test_deterministic(self):
        victim_short, _, test = moons_victims()
        x = test.features[1]
        a = gpjm(victim_short, x, 2, 0.3)
        b = gpjm(victim_short, x, 2, 0.3)
        assert np.array_equal(a.adversarial, b.adversarial)


class TestCwL2:
    def test_zero_tradeoff_stays_put(self):
        victim_short, _, test = moons_victims()
        x = test.features[0]
        config = AttackConfig(max_iter=50, step_size=0.05, confidence=0.0)
        r = cw_l2(victim_short, x, config)
        assert not r.success
        assert np.max(np.abs(r.adversarial - x)) < 1e-9

    def test_box_constraint_exact(self):
        victim_short, _, test = moons_victims()
        lo, hi = victim_short.data.features.min(axis=0), victim_short.data.features.max(axis=0)
        config = AttackConfig(max_iter=60, step_size=0.05, confidence=10.0)
        for x in test.features[:15]:
            r = cw_l2(victim_short, x, config)
            assert np.all(r.adversarial >= lo) and np.all(r.adversarial <= hi)

    def test_requires_finite_box(self):
        gp = single_anchor_gp()
        config = AttackConfig(box=((0.0, 0.0), (np.inf, 1.0)))
        with pytest.raises(ValueError):
            cw_l2(gp, np.zeros(2), config)

    @pytest.mark.parametrize(
        "knobs, message",
        [
            ({"step_size": np.inf}, "step_size must be positive and finite"),
            ({"step_size": np.nan}, "step_size must be positive and finite"),
            ({"step_size": 0.0}, "step_size must be positive and finite"),
            ({"confidence": np.inf}, "confidence must be nonnegative and finite"),
            ({"confidence": -1.0}, "confidence must be nonnegative and finite"),
        ],
    )
    def test_config_refuses_a_bad_knob(self, knobs, message):
        # an infinite step makes cw_l2 fail on a NaN point of its own, blaming the query
        with pytest.raises(ValueError, match=message):
            AttackConfig(**knobs)

    @pytest.mark.parametrize("box", [((0.0, 1.0), (1.0,)), ((0.0, 1.0), (1.0, 0.5))])
    def test_config_and_attacks_refuse_the_same_boxes(self, box):
        with pytest.raises(ValueError, match="min <= max"):
            AttackConfig(box=box)
        with pytest.raises(ValueError, match="min <= max"):
            gpfgs(single_anchor_gp(), np.zeros(2), 0.1, box=box)

    def test_tighter_than_gpfgs_on_mutual_successes(self):
        victim_short, _, test = moons_victims()
        points = test.features[:50]
        config = AttackConfig(max_iter=100, step_size=0.02, confidence=5.0)
        fgsm = [gpfgs(victim_short, x, 0.3) for x in points]
        cw = [cw_l2(victim_short, x, config, seed=7) for x in points]
        both = [i for i in range(len(points)) if fgsm[i].success and cw[i].success]
        assert both, "expected mutual successes"
        mean_fgsm = np.mean([fgsm[i].norms["l2"] for i in both])
        mean_cw = np.mean([cw[i].norms["l2"] for i in both])
        assert mean_cw <= mean_fgsm

    def test_deterministic(self):
        victim_short, _, test = moons_victims()
        config = AttackConfig(max_iter=30, step_size=0.02, confidence=5.0)
        a = cw_l2(victim_short, test.features[2], config, seed=3)
        b = cw_l2(victim_short, test.features[2], config, seed=3)
        assert np.array_equal(a.adversarial, b.adversarial)


class TestCurvatureComparison:
    def test_plus_five_sign_convention(self):
        # craft labels so the short victim scores 95% and the long one 90%
        data = generate_two_moons(60, 0.15, 1)
        victim_short = fit_classification_laplace(KernelSpec(RBF, lengthscale=0.3), data)
        victim_long = fit_classification_laplace(KernelSpec(RBF, lengthscale=3.0), data)
        rng = np.random.default_rng(5)
        points = rng.uniform([-1.5, -1.0], [2.5, 1.5], size=(200, 2))
        pred_short = np.sign([latent_mean(victim_short, p) for p in points])
        pred_long = np.sign([latent_mean(victim_long, p) for p in points])
        agree = np.flatnonzero((pred_short == pred_long) & (pred_short != 0))
        differ = np.flatnonzero((pred_short != pred_long) & (pred_short != 0) & (pred_long != 0))
        assert len(agree) >= 19 and len(differ) >= 1
        chosen = list(agree[:19]) + [differ[0]]
        labels = pred_short[chosen].copy()
        labels[0] = -labels[0]  # both victims wrong here: 19/20 vs 19/20
        # at the disagreement point only the long victim is wrong: 19/20 vs 18/20
        results = [gpfgs(victim_short, points[i], 0.0, box=WIDE_BOX) for i in chosen]
        table = curvature_comparison(victim_short, victim_long, {"identity": results}, {"identity": labels})
        assert table["identity"]["forced_diff_pp"] == pytest.approx(5.0)

    def test_identical_victims_give_zero(self):
        victim_short, _, test = moons_victims()
        results = [gpfgs(victim_short, x, 0.3) for x in test.features[:20]]
        labels = test.labels[:20]
        table = curvature_comparison(
            victim_short, victim_short, {"gpfgs": results}, {"gpfgs": labels}, zero_rejection_eps=1e-3
        )
        assert table["gpfgs"]["forced_diff_pp"] == 0.0
        assert table["gpfgs"]["rejection_diff_pp"] == 0.0

    def test_empty_set_rejected(self):
        victim_short, victim_long, _ = moons_victims()
        with pytest.raises(ValueError):
            curvature_comparison(victim_short, victim_long, {"empty": []}, {"empty": []})

    def test_rejection_never_hurts(self):
        victim_short, victim_long, test = moons_victims()
        results = [gpfgs(victim_short, x, 0.3) for x in test.features[:30]]
        labels = test.labels[:30]
        for victim in (victim_short, victim_long):
            forced = adversarial_accuracy(victim, results, labels)
            with_rejection = adversarial_accuracy(victim, results, labels, 1e-3)
            assert with_rejection >= forced


class TestAttackCsv:
    def test_schema_and_rows(self, tmp_path):
        victim_short, _, test = moons_victims()
        sets = {
            "gpfgs": [gpfgs(victim_short, x, 0.3) for x in test.features[:4]],
            "gpjm": [gpjm(victim_short, x, 2, 0.3) for x in test.features[:4]],
        }
        path = tmp_path / "attacks.csv"
        write_attack_sets_csv(path, sets, {"gpfgs": 0.3, "gpjm": 0.3})
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "attack,epsilon,success,l0,l2,linf,orig_0,orig_1,adv_0,adv_1"
        assert len(lines) == 9
        assert sum(line.startswith("gpfgs,") for line in lines[1:]) == 4


@st.composite
def attack_cases(draw, outside=False):
    """A small RBF classifier, a box and a point inside the box, or with
    `outside` a point with at least one feature outside it."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(2, 6))
    coordinate = st.floats(-3.0, 3.0, allow_nan=False)
    features = np.array(draw(st.lists(coordinate, min_size=n * d, max_size=n * d))).reshape(n, d)
    labels = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    lengthscale = draw(st.floats(0.2, 3.0))
    gp = fit_classification_laplace(KernelSpec(RBF, lengthscale=lengthscale), Dataset(features, labels))
    lo = np.array(draw(st.lists(st.floats(-4.0, 0.0), min_size=d, max_size=d)))
    hi = lo + np.array(draw(st.lists(st.floats(0.1, 5.0), min_size=d, max_size=d)))
    position = np.array(draw(st.lists(st.floats(-1.0, 2.0) if outside else st.floats(0.0, 1.0), min_size=d, max_size=d)))
    if outside:
        position[draw(st.integers(0, d - 1))] = draw(st.floats(-1.0, -0.01) | st.floats(1.01, 2.0))
    x = lo + (hi - lo) * position
    return gp, (lo, hi), x


def assert_attack_invariants(gp, box, result):
    lo, hi = box
    assert np.all(result.adversarial >= lo - 1e-12) and np.all(result.adversarial <= hi + 1e-12)
    before = np.sign(latent_mean(gp, result.original))
    after = np.sign(latent_mean(gp, result.adversarial))
    assert result.success == (before != 0 and after == -before)


class TestAttackProperties:
    @settings(derandomize=True, deadline=None)
    @given(attack_cases(), st.floats(0.0, 2.0))
    def test_gpfgs(self, case, epsilon):
        gp, box, x = case
        result = gpfgs(gp, x, epsilon, box)
        assert_attack_invariants(gp, box, result)
        assert result.norms["linf"] <= epsilon + 1e-12
        assert result.iterations_used == 1

    @settings(derandomize=True, deadline=None)
    @given(attack_cases(), st.integers(1, 4), st.floats(0.01, 2.0))
    def test_gpjm(self, case, budget, step):
        gp, box, x = case
        result = gpjm(gp, x, budget, step, box)
        assert_attack_invariants(gp, box, result)
        assert result.norms["l0"] <= min(budget, gp.d)
        assert np.all(np.abs(result.delta) <= step + 1e-12)

    @settings(derandomize=True, deadline=None)
    @given(attack_cases(), st.integers(1, 8), st.floats(0.001, 0.5), st.floats(0.0, 10.0), st.integers(0, 5))
    def test_cw_l2(self, case, max_iter, step_size, confidence, seed):
        gp, box, x = case
        config = AttackConfig(max_iter=max_iter, step_size=step_size, confidence=confidence, box=box)
        result = cw_l2(gp, x, config, seed=seed)
        assert_attack_invariants(gp, box, result)
        assert result.iterations_used == 3 * max_iter

    @settings(derandomize=True, deadline=None)
    @given(attack_cases(outside=True), st.floats(0.0, 2.0), st.integers(1, 4), st.floats(0.01, 2.0), st.integers(1, 4))
    def test_start_outside_box_ends_inside(self, case, epsilon, budget, step, max_iter):
        gp, box, x = case
        config = AttackConfig(max_iter=max_iter, step_size=0.1, box=box)
        for result in (gpfgs(gp, x, epsilon, box), gpjm(gp, x, budget, step, box), cw_l2(gp, x, config)):
            assert_attack_invariants(gp, box, result)


ATTACKS = {
    "gpfgs": lambda gp, x: gpfgs(gp, x, 0.3),
    "gpjm": lambda gp, x: gpjm(gp, x, 2, 0.3),
    "cw_l2": lambda gp, x: cw_l2(gp, x, AttackConfig(max_iter=5)),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("attack", sorted(ATTACKS))
def test_attacks_refuse_a_non_finite_point(attack, bad):
    ds = Dataset(np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([1.0, -1.0]))
    gp = fit_classification_laplace(KernelSpec(RBF, lengthscale=0.5), ds)
    x = np.array([0.5, bad])
    with pytest.raises(ValueError, match=re.escape(f"query row 0 is not finite: {x.tolist()}")):
        ATTACKS[attack](gp, x)
