import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alqsim import (ConfigError, DatasetConfig, GlmHyperparams,
                    GlmModel, QueryStrategy, SimulationConfig, fit,
                    predict_proba, run_round)
from alqsim import glm as glm_module
from alqsim import simulation as simulation_module
from alqsim.strategies import STRATEGY_KINDS


def make_pool(features, labels):
    """A labeled pool as a ``(features, labels)`` pair; ``lane_stack`` stacks
    pools into the lanes ``fit`` takes."""
    return np.atleast_2d(np.asarray(features, dtype=float)), np.asarray(labels)


def lane_stack(pools):
    """``(L, n, d)`` features and ``(L, n)`` labels of equal-sized pools."""
    return (np.stack([features for features, _ in pools]),
            np.stack([labels for _, labels in pools]))


def fit_fields(model, lane=0):
    """A lane's fields, comparable with :func:`seed_fit`'s."""
    prior = model.fallback_prior[lane]
    return (model.weights[lane].tobytes(), model.intercept[lane].tobytes(),
            bool(model.converged[lane]), int(model.n_iterations[lane]),
            None if np.isnan(prior) else prior)


def seed_fit(seed_package, pool, hp=None):
    """The fields of the seed package's fit of a ``(features, labels)``
    pool, which takes the pool as its own ``DataPool`` and returns a model
    with scalar fields and a ``fallback_prior`` of None where this
    package's is NaN."""
    features, labels = pool
    seed_pool = seed_package.datagen.DataPool(
        np.arange(len(labels)), features, labels, "labeled")
    model = seed_package.glm.fit(seed_pool, hp or seed_package.glm.GlmHyperparams())
    return (model.weights.tobytes(), np.float64(model.intercept).tobytes(),
            model.converged, model.n_iterations, model.fallback_prior)


def lane_model(weights, intercept):
    """A one-lane model of the given weights and intercept, not a fallback."""
    return GlmModel(np.asarray(weights, dtype=float)[None], np.array([intercept]),
                    np.array([True]), np.array([0]), np.array([np.nan]))


def random_pool(rng, n=30, d=4, sep=0.8):
    labels = rng.integers(0, 2, size=n)
    if labels.min() == labels.max():  # force both classes for fitting tests
        labels[0] = 1 - labels[0]
    features = rng.standard_normal((n, d)) + sep * (2 * labels[:, None] - 1)
    return make_pool(features, labels)


def descend(features, labels, l2, lr=5e-4, steps=400_000):
    """Independent plain gradient-descent minimizer of the same objective.

    Deliberately re-implements the loss gradient instead of importing the
    package's version, so it can serve as an oracle for ``fit``.
    """
    n, d = features.shape
    theta = np.zeros(d + 1)
    Xb = np.hstack([features, np.ones((n, 1))])
    for _ in range(steps):
        p = 1.0 / (1.0 + np.exp(-(Xb @ theta)))
        grad = Xb.T @ (p - labels)
        grad[:d] += l2 * theta[:d]
        theta -= lr * grad
    return theta


class TestHyperparams:
    # fixed ids: a case keeps its name when another case is removed
    @pytest.mark.parametrize("bad,field", [
        (dict(l2_penalty=-1.0), "l2_penalty"),
        (dict(l2_penalty=float("nan")), "l2_penalty"),
        (dict(l2_penalty=float("inf")), "l2_penalty"),
        (dict(max_iterations=0), "max_iterations"),
        (dict(max_iterations=True), "max_iterations"),
    ], ids=["bad0-l2_penalty", "bad1-l2_penalty", "bad2-l2_penalty",
            "bad4-max_iterations", "bad5-max_iterations"])
    def test_invalid_values_rejected(self, bad, field):
        with pytest.raises(ConfigError, match=field):
            GlmHyperparams(**bad)


class TestFallback:
    def test_all_negative_pool_uses_laplace_prior(self):
        features = np.random.default_rng(0).standard_normal((10, 4))
        model = fit(features[None], np.zeros((1, 10), dtype=int))
        assert model.fallback_prior[0] == pytest.approx(1 / 12)
        assert (model.weights == 0).all() and model.intercept[0] == 0.0
        assert predict_proba(model, np.zeros((1, 4)))[0, 0] == pytest.approx(1 / 12)

    def test_all_positive_pool_uses_laplace_prior(self):
        features = np.random.default_rng(0).standard_normal((10, 4))
        model = fit(features[None], np.ones((1, 10), dtype=int))
        assert model.fallback_prior[0] == pytest.approx(11 / 12)

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            fit(np.zeros((1, 0, 4)), np.zeros((1, 0), dtype=int))

    @pytest.mark.parametrize("features,labels,match", [
        (np.zeros((1, 3, 2)), np.array([[0, 1, 2]]), "0 or 1"),
        (np.zeros((1, 3, 2)), np.array([[0.0, 0.5, 1.0]]), "0 or 1"),
        (np.zeros((1, 3, 2)), np.array([[0, 1]]), "one label per feature row"),
        (np.zeros(3), np.array([0, 1, 0]), "3-D"),
        (np.zeros((3, 2)), np.array([0, 1, 0]), r"3-D \(L, n, d\)"),
        (np.zeros((1, 3, 2)), np.zeros((1, 3, 1), dtype=int), r"2-D \(L, n\)"),
        (np.zeros((2, 3, 2)), np.array([[0, 1, 0], [0, 2, 1]]), "0 or 1"),
        (np.zeros((2, 3, 2)), np.zeros((2, 4), dtype=int),
         "one label per feature row"),
        (np.zeros((2, 0, 2)), np.zeros((2, 0), dtype=int), "empty"),
        (np.zeros((0, 3, 2)), np.zeros((0, 3), dtype=int), "empty"),
        (np.array([[[0.0, np.nan], [1.0, 0.0]]]), np.array([[0, 1]]), "finite"),
        (np.array([[[0.0, np.inf], [1.0, 0.0]]]), np.array([[0, 1]]), "finite"),
        (np.array([[[0.0, -np.inf], [1.0, 0.0]]]), np.array([[0, 1]]), "finite"),
    ], ids=["label-2", "label-half", "length-mismatch", "features-1d",
            "features-2d", "labels-3d", "lane-label-2", "lane-length-mismatch",
            "empty-lanes", "zero-lanes", "nan-feature", "inf-feature",
            "lane-minus-inf-feature"])
    def test_malformed_pool_rejected(self, features, labels, match):
        with pytest.raises(ValueError, match=match):
            fit(features, labels)


class TestFit:
    def test_symmetric_1d_pool(self):
        """Antisymmetric data forces a positive slope and a zero intercept."""
        pool = make_pool([[-1.0], [1.0]], [0, 1])
        model = fit(*lane_stack([pool]), GlmHyperparams(l2_penalty=1e-3))
        assert model.converged[0]
        assert model.weights[0, 0] > 0
        assert abs(model.intercept[0]) < 1e-6
        assert predict_proba(model, np.zeros((1, 1)))[0, 0] == pytest.approx(
            0.5, abs=1e-6)

    @pytest.mark.parametrize("l2", [0.1, 1.0, 50.0])
    def test_matches_independent_gradient_descent(self, l2):
        rng = np.random.default_rng(42)
        features, labels = random_pool(rng, n=50)
        model = fit(features[None], labels[None], GlmHyperparams(l2_penalty=l2))
        reference = descend(features, labels.astype(float), l2)
        assert np.abs(model.weights[0] - reference[:-1]).max() < 1e-4
        assert abs(model.intercept[0] - reference[-1]) < 1e-4

    def test_deterministic(self):
        lanes = lane_stack([random_pool(np.random.default_rng(7))])
        a = fit(*lanes)
        b = fit(*lanes)
        assert (a.weights == b.weights).all()
        assert (a.intercept == b.intercept).all()
        assert (a.n_iterations == b.n_iterations).all()

    def test_models_compare_and_hash_by_identity(self):
        pool = random_pool(np.random.default_rng(7))
        model = fit(*lane_stack([pool]))
        assert model == model
        assert not fit(*lane_stack([pool])) == fit(*lane_stack([pool]))
        assert len({model, model, fit(*lane_stack([pool]))}) == 2
        assert isinstance(hash(fit(*lane_stack([pool, pool]))), int)

    def test_converges_on_tiny_separable_pool(self):
        """Separable data must not diverge thanks to the weight penalty."""
        pool = make_pool([[-2.0, 0.0], [-1.5, 1.0], [1.5, 0.3], [2.0, -1.0]],
                         [0, 0, 1, 1])
        model = fit(*lane_stack([pool]), GlmHyperparams(l2_penalty=1e-3))
        assert model.converged[0]
        assert np.isfinite(model.weights).all()


@pytest.fixture(scope="module")
def paper_pools():
    """Every labelled pool fitted by ``compare --class-sep 0.5 --queries 20
    --batch 2 --rounds 5 --seed 5`` (the benchmark's ``paper`` workload):
    rounds 5..9 of each strategy, seed pools included, strategy by
    strategy."""
    lane_pools = [[] for _ in STRATEGY_KINDS]
    real_fit = simulation_module.fit

    def recording_fit(features, labels, hp):
        for pools, lane_features, lane_labels in zip(lane_pools, features, labels):
            pools.append(make_pool(lane_features, lane_labels))
        return real_fit(features, labels, hp)

    config = SimulationConfig(
        dataset=DatasetConfig(class_sep=0.5),
        strategies=tuple(QueryStrategy(kind=kind) for kind in STRATEGY_KINDS),
        n_queries=20, batch_size=2, rounds=5, base_seed=5)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulation_module, "fit", recording_fit)
        for seed in range(5, 10):
            run_round(config, seed)
    return [pool for pools in lane_pools for pool in pools]


class TestFixedPointExit:
    """A fit that stalls at an exact fixed point stops early, yet returns
    exactly what the full Newton loop of the seed package returns."""

    def test_every_paper_fit_matches_seed_package(self, paper_pools, seed_package):
        """At the default cap, and at caps small enough that most fits end by
        exhaustion rather than convergence."""
        assert len(paper_pools) == 3 * 5 * 21
        for pool in paper_pools:
            assert fit_fields(fit(*lane_stack([pool]))) == seed_fit(seed_package, pool)
        for cap in (1, 2, 5):
            hp = GlmHyperparams(max_iterations=cap)
            seed_hp = seed_package.glm.GlmHyperparams(max_iterations=cap)
            for pool in paper_pools:
                assert (fit_fields(fit(*lane_stack([pool]), hp))
                        == seed_fit(seed_package, pool, seed_hp)), cap

    def test_some_paper_fits_end_unconverged(self, paper_pools):
        stalled = [pool for pool in paper_pools
                   if not fit(*lane_stack([pool])).converged[0]]
        assert stalled
        assert all(fit(*lane_stack([pool])).n_iterations[0]
                   == GlmHyperparams().max_iterations for pool in stalled)

    def test_stalled_fit_evaluates_the_loss_less_often(
            self, paper_pools, seed_package, monkeypatch):
        stalled = next(pool for pool in paper_pools
                       if not fit(*lane_stack([pool])).converged[0])
        assert (len(stalled[1]), stalled[1].sum()) == (12, 8)
        calls = {"program": 0, "seed": 0}

        def counting(side, loss):
            def counted(*args):
                calls[side] += 1
                return loss(*args)
            return counted

        for side, module, name in (("program", glm_module, "_lane_losses"),
                                   ("seed", seed_package.glm, "nll_loss")):
            monkeypatch.setattr(module, name, counting(side, getattr(module, name)))
        assert (fit_fields(fit(*lane_stack([stalled])))
                == seed_fit(seed_package, stalled))
        assert 0 < calls["program"] < calls["seed"]


class TestFitLanes:
    """A stacked fit returns, on every lane, the one-lane fit bit for bit,
    however each lane leaves the Newton loop."""

    @pytest.mark.parametrize("cap", [1, 2, 5, 200])
    def test_paper_pools_stacked_by_size(self, paper_pools, seed_package, cap):
        """Each query's 15 same-sized paper pools as lanes, plus a
        single-class lane: lanes converge at different iterations, stall at
        the fixed point, fall back, or run out of iterations."""
        hp = GlmHyperparams(max_iterations=cap)
        seed_hp = seed_package.glm.GlmHyperparams(max_iterations=cap)
        leaves = set()
        for size in sorted({len(labels) for _, labels in paper_pools}):
            lanes = [pool for pool in paper_pools if len(pool[1]) == size]
            lanes.insert(1, make_pool(lanes[0][0], np.zeros(size, dtype=int)))
            model = fit(*lane_stack(lanes), hp)
            assert len(model.weights) == len(lanes) == 16
            for k, pool in enumerate(lanes):
                fields = fit_fields(model, k)
                assert (fields == fit_fields(fit(*lane_stack([pool]), hp))
                        == seed_fit(seed_package, pool, seed_hp)), size
                _, _, converged, iterations, prior = fields
                leaves.add((converged, iterations, prior is not None))
        assert (True, 0, True) in leaves
        if cap == 200:
            assert (False, cap, False) in leaves  # includes the fixed-point stall
            assert len({it for conv, it, _ in leaves if conv}) > 3
        else:
            assert {(False, cap, False), (True, cap, False)} & leaves

    def test_stacked_scores_equal_per_slice_scores(self):
        """The halving table's ``(P, T, d+1)`` trials score, bit for bit,
        as each ``(P, d+1)`` slice of them scores alone."""
        rng = np.random.default_rng(4)
        features = rng.standard_normal((3, 17, 4))
        trials = rng.standard_normal((3, 50, 5))
        stacked = glm_module._lane_scores(features[:, None], trials)
        assert stacked.shape == (3, 50, 17)
        for t in range(trials.shape[1]):
            np.testing.assert_array_equal(
                stacked[:, t], glm_module._lane_scores(features, trials[:, t]))

    @pytest.mark.parametrize("cap", [1, 2, 3])
    def test_uphill_steps_exhaust_the_halvings(self, paper_pools, seed_package,
                                               monkeypatch, cap):
        """With every Newton step turned uphill, no halving keeps a lane's
        loss from rising: each lane takes the step at 2**-50 with the 2**-49
        loss, as the seed package's one-halving-at-a-time loop does, and the
        next pass scores the parameters it took."""
        monkeypatch.setattr(np.linalg, "solve",
                            lambda hessian, grad: -1e3 * np.asarray(grad))
        hp = GlmHyperparams(max_iterations=cap)
        seed_hp = seed_package.glm.GlmHyperparams(max_iterations=cap)
        lanes = [pool for pool in paper_pools if len(pool[1]) == 12]
        model = fit(*lane_stack(lanes), hp)
        for k, pool in enumerate(lanes):
            assert (fit_fields(model, k) == fit_fields(fit(*lane_stack([pool]), hp))
                    == seed_fit(seed_package, pool, seed_hp))
        assert np.isfinite(model.weights).all() and (model.weights != 0).all()

    @pytest.mark.parametrize("cap", [1, 2, 5, 200])
    def test_singular_hessian_lane(self, seed_package, monkeypatch, cap):
        """With no penalty, a duplicated feature makes a lane's Hessian
        singular: that iteration is solved lane by lane, and the singular
        lane by least squares, as a one-lane fit solves it."""
        rng = np.random.default_rng(3)
        labels = rng.integers(0, 2, size=12)
        labels[:2] = 0, 1
        x = rng.standard_normal((12, 2)) + 0.5 * (2 * labels[:, None] - 1)
        lanes = [make_pool(np.hstack([x, x[:, :1]]), labels),
                 make_pool(rng.standard_normal((12, 3)), labels)]
        hp = GlmHyperparams(l2_penalty=0.0, max_iterations=cap)
        lstsq_calls = []
        real_lstsq = np.linalg.lstsq

        def counted_lstsq(*args, **kwargs):
            lstsq_calls.append(args)
            return real_lstsq(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", counted_lstsq)
        model = fit(*lane_stack(lanes), hp)
        assert lstsq_calls
        monkeypatch.undo()
        seed_hp = seed_package.glm.GlmHyperparams(l2_penalty=0.0, max_iterations=cap)
        for k, pool in enumerate(lanes):
            assert (fit_fields(model, k) == fit_fields(fit(*lane_stack([pool]), hp))
                    == seed_fit(seed_package, pool, seed_hp))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("cap", [1, 2, 5, 200])
    def test_singular_single_class_lane_beside_a_stepping_lane(
            self, monkeypatch, cap):
        """A single-class lane stays in the stack; with no penalty and a
        duplicated feature its Hessian is singular, but a stopped lane is
        not solved, so no pass falls back to least squares.  The stepping
        lane still equals its one-lane fit and the single-class lane keeps
        the exact fallback prior."""
        rng = np.random.default_rng(3)
        labels = rng.integers(0, 2, size=12)
        labels[:2] = 0, 1
        x = rng.standard_normal((12, 2))
        lanes = [make_pool(rng.standard_normal((12, 3)), labels),
                 make_pool(np.hstack([x, x[:, :1]]), np.zeros(12, dtype=int))]
        hp = GlmHyperparams(l2_penalty=0.0, max_iterations=cap)
        lstsq_calls = []
        real_lstsq = np.linalg.lstsq

        def counted_lstsq(*args, **kwargs):
            lstsq_calls.append(args)
            return real_lstsq(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", counted_lstsq)
        model = fit(*lane_stack(lanes), hp)
        assert not lstsq_calls
        monkeypatch.undo()
        for k, pool in enumerate(lanes):
            assert fit_fields(model, k) == fit_fields(fit(*lane_stack([pool]), hp))
        assert model.fallback_prior[1] == 1 / 14
        assert (model.weights[1] == 0).all() and model.intercept[1] == 0.0

    def test_only_stepping_lanes_are_solved(self, monkeypatch):
        """Each pass solves the Newton systems of the lanes still stepping
        and no others: never the single-class lane, and a converged lane
        from the pass it stops at."""
        rng = np.random.default_rng(11)
        lanes = [random_pool(rng, n=14), random_pool(rng, n=14, sep=2.0)]
        lanes.insert(1, make_pool(lanes[0][0], np.ones(14, dtype=int)))
        sizes = []
        real_steps = glm_module._newton_steps

        def recorded_steps(hessians, grads):
            sizes.append(len(hessians))
            return real_steps(hessians, grads)

        monkeypatch.setattr(glm_module, "_newton_steps", recorded_steps)
        model = fit(*lane_stack(lanes))
        steps = model.n_iterations[[0, 2]]
        assert model.converged.all() and steps[0] != steps[1]
        assert sizes == [int((steps > i).sum()) for i in range(steps.max())]

    def test_lane_prediction_equals_one_lane_prediction(self):
        """A lane model scores shared rows under lane k exactly as lane k's
        one-lane fit does; a single-class lane predicts its prior exactly."""
        rng = np.random.default_rng(8)
        lanes = [random_pool(rng, n=14), random_pool(rng, n=14)]
        lanes.insert(1, make_pool(lanes[0][0], np.ones(14, dtype=int)))
        model = fit(*lane_stack(lanes))
        rows = rng.standard_normal((9, 4))
        probs = predict_proba(model, rows)
        assert probs.shape == (3, 9)
        for k, pool in enumerate(lanes):
            alone = fit(*lane_stack([pool]))
            assert probs[k].tobytes() == predict_proba(alone, rows)[0].tobytes()
        assert (probs[1] == 15 / 16).all()


@st.composite
def two_class_pools(draw):
    n = draw(st.integers(2, 12), label="n")
    d = draw(st.integers(1, 3), label="d")
    labels = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    labels[0], labels[1] = 0, 1
    coordinate = st.floats(-4.0, 4.0, allow_nan=False, allow_subnormal=False)
    features = draw(st.lists(coordinate, min_size=n * d, max_size=n * d))
    return make_pool(np.reshape(features, (n, d)), labels)


class TestFitReport:
    @settings(deadline=None, derandomize=True, database=None, max_examples=200)
    @given(two_class_pools(), st.sampled_from([1, 2, 5, 200]),
           st.sampled_from([1e-3, 1.0, 50.0]))
    def test_converged_means_small_gradient(self, glm_objective, pool, cap, l2):
        """A converged fit's gradient max-norm is below the tolerance, and
        an unconverged fit reports the iteration cap."""
        hp = GlmHyperparams(l2_penalty=l2, max_iterations=cap)
        features, labels = pool
        model = fit(features[None], labels[None], hp)
        _, grad = glm_objective(np.append(model.weights[0], model.intercept[0]),
                                features, labels, hp.l2_penalty)
        if model.converged[0]:
            assert np.max(np.abs(grad)) < hp.gradient_tolerance
            assert model.n_iterations[0] <= cap
        else:
            assert model.n_iterations[0] == cap


class TestGradient:
    def test_analytic_gradient_matches_finite_differences(self, glm_objective):
        """Central differences with step 1e-5, relative error below 1e-5."""
        rng = np.random.default_rng(123)
        step = 1e-5
        for _ in range(40):
            n = int(rng.integers(5, 40))
            features, labels = random_pool(rng, n=n)
            l2 = float(rng.uniform(0.0, 30.0))
            theta = rng.standard_normal(5) * 0.8
            _, grad = glm_objective(theta, features, labels, l2)
            numeric = np.empty_like(grad)
            for j in range(5):
                up, down = theta.copy(), theta.copy()
                up[j] += step
                down[j] -= step
                numeric[j] = (
                    glm_objective(up, features, labels, l2)[0]
                    - glm_objective(down, features, labels, l2)[0]
                ) / (2 * step)
            scale = np.maximum(np.abs(grad), 1.0)
            assert (np.abs(grad - numeric) / scale).max() < 1e-5


class TestPredict:
    def test_zero_model_gives_half(self):
        model = lane_model(np.zeros(4), 0.0)
        assert (predict_proba(model, np.array([[3.0, -1.0, 0.5, 2.0]])) == 0.5).all()

    def test_intercept_log3_gives_three_quarters(self):
        model = lane_model(np.zeros(2), np.log(3.0))
        assert predict_proba(model, np.zeros((1, 2)))[0, 0] == pytest.approx(
            0.75, abs=1e-12)

    def test_dimension_mismatch_rejected(self):
        model = lane_model(np.zeros(4), 0.0)
        with pytest.raises(ValueError, match="dimension"):
            predict_proba(model, np.zeros((1, 3)))

    @pytest.mark.parametrize("shape", [(2,), (1, 5, 2), (3, 5, 2), (2, 5, 2),
                                       (5, 3)],
                             ids=["one-row", "one-lane-block", "lane-blocks",
                                  "two-of-three-lanes", "wrong-dimension"])
    def test_features_outside_the_lane_shapes_rejected(self, shape):
        """A 3-lane model of dimension 2 scores only ``(m, 2)`` rows and
        names that shape: not one row, a stack of row blocks of any leading
        length, nor rows of another dimension."""
        model = fit(*lane_stack([random_pool(np.random.default_rng(9), d=2)] * 3))
        with pytest.raises(ValueError, match=r"2-D \(m, d\) rows of the model "
                                             r"dimension d = 2"):
            predict_proba(model, np.zeros(shape))

    @pytest.mark.parametrize("weights", [np.zeros(2), np.zeros((1, 1, 2))],
                             ids=["one-pool-weights", "3-d-weights"])
    def test_model_without_lane_weights_rejected(self, weights):
        """A hand-built model whose weights are not ``(L, d)`` is refused by
        a message naming the lane shape, not by numpy's unpacking."""
        model = GlmModel(weights, np.zeros(1), np.ones(1, dtype=bool),
                         np.zeros(1, dtype=int), np.full(1, np.nan))
        with pytest.raises(ValueError, match=r"weights must be 2-D \(L, d\)"):
            predict_proba(model, np.zeros((3, 2)))

    @pytest.mark.parametrize("field", ["intercept", "fallback_prior"])
    def test_model_without_lane_fields_rejected(self, field):
        """A 3-lane model whose intercept or fallback prior holds one entry
        is refused, not broadcast so that every lane predicts lane 0's
        value."""
        fields = dict(weights=np.zeros((3, 2)), intercept=np.zeros(3),
                      converged=np.ones(3, dtype=bool),
                      n_iterations=np.zeros(3, dtype=int),
                      fallback_prior=np.full(3, np.nan))
        fields[field] = np.array([np.log(3.0) if field == "intercept" else 0.2])
        with pytest.raises(ValueError, match=r"intercept and fallback_prior "
                                             r"\(L,\)"):
            predict_proba(GlmModel(**fields), np.zeros((4, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, bad):
        lanes = GlmModel(np.zeros((3, 2)), np.zeros(3), np.ones(3, dtype=bool),
                         np.zeros(3, dtype=int), np.full(3, np.nan))
        with pytest.raises(ValueError, match="features must be finite"):
            predict_proba(lanes, np.array([[0.5, bad]]))

    def test_output_strictly_inside_unit_interval(self):
        model = lane_model([100.0], 0.0)
        lo, hi = predict_proba(model, np.array([[-50.0], [50.0]]))[0]
        assert 0.0 < lo < hi < 1.0

    def test_monotone_in_linear_score(self):
        rng = np.random.default_rng(5)
        model = lane_model(rng.standard_normal(4), 0.3)
        direction = model.weights[0] / np.linalg.norm(model.weights[0])
        xs = np.outer(np.linspace(-5, 5, 101), direction)
        probs = predict_proba(model, xs)[0]
        assert (np.diff(probs) > 0).all()

    def test_batch_matches_single(self):
        rng = np.random.default_rng(6)
        model = lane_model(rng.standard_normal(4), -0.2)
        batch = rng.standard_normal((8, 4))
        vectorized = predict_proba(model, batch)[0]
        assert vectorized == pytest.approx(
            [predict_proba(model, row[None])[0, 0] for row in batch])


class TestRegularizationLimit:
    def test_weights_vanish_and_prior_remains(self):
        """Huge penalties shrink weights to zero; the free intercept keeps
        tracking the pool's base rate."""
        rng = np.random.default_rng(2)
        features, labels = random_pool(rng, n=40)
        norms, models = [], []
        for l2 in (1.0, 100.0, 10_000.0, 1_000_000.0):
            model = fit(features[None], labels[None], GlmHyperparams(l2_penalty=l2))
            norms.append(np.linalg.norm(model.weights))
            models.append(model)
        assert all(a > b for a, b in zip(norms, norms[1:]))
        strongest = models[-1]
        base_rate = labels.sum() / len(labels)
        expected = 1.0 / (1.0 + np.exp(-strongest.intercept[0]))
        assert predict_proba(strongest, np.zeros((1, 4)))[0, 0] == pytest.approx(
            expected, abs=1e-9)
        assert expected == pytest.approx(base_rate, abs=0.01)

