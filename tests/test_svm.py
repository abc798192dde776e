"""Linear SVM trainer against a dense grid-search oracle, the lockstep
trainer against the single-fit trainer, plus prediction semantics (tie rule,
probabilities, serialization)."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from camtrap import svm


def grid_oracle_objective(x, y, lam, bound=5.0, coarse=0.05, fine=0.01):
    """Minimum of the SVM objective over the bounded (w1, w2, b) lattice:
    a coarse pass at `coarse` step followed by a `fine`-step local refine
    around the coarse argmin (equivalent to the dense fine lattice when the
    objective is well-behaved at this scale, and feasible to compute)."""

    def sweep(w1s, w2s, bs):
        ww1, ww2 = np.meshgrid(w1s, w2s, indexing="ij")
        w = np.stack([ww1.ravel(), ww2.ravel()])  # 2 x G
        m = x @ w  # n x G
        reg = 0.5 * lam * (w**2).sum(axis=0)
        best = np.inf
        best_at = None
        for b in bs:
            hinge = np.maximum(0.0, 1.0 - y[:, None] * (m + b)).mean(axis=0)
            obj = reg + hinge
            i = int(np.argmin(obj))
            if obj[i] < best:
                best = float(obj[i])
                best_at = (w[0, i], w[1, i], b)
        return best, best_at

    axis = np.arange(-bound, bound + coarse / 2, coarse)
    best, (w1, w2, b) = sweep(axis, axis, axis)

    def local(center):
        lo, hi = center - coarse, center + coarse
        return np.arange(lo, hi + fine / 2, fine)

    refined, _ = sweep(local(w1), local(w2), local(b))
    return min(best, refined)


def separable_dataset(rng, n_per=4, spread=0.3):
    pos = rng.normal(scale=spread, size=(n_per, 2)) + np.array([1.5, 1.0])
    neg = rng.normal(scale=spread, size=(n_per, 2)) - np.array([1.5, 1.0])
    x = np.vstack([pos, neg])
    y = np.array([1.0] * n_per + [-1.0] * n_per)
    return x, y


def every_epoch_objectives(x, y, cfg):
    """The Pegasos loop of train_linear_svm, with the objective after every
    epoch."""
    w, b, t, objective = np.zeros(x.shape[1]), 0.0, 0, []
    rng = np.random.default_rng(np.uint64(cfg.seed))
    for _ in range(cfg.epochs):
        for i in rng.permutation(len(x)):
            t += 1
            eta = 1.0 / (cfg.lam * t)
            margin = y[i] * (x[i] @ w + b)
            w *= 1.0 - eta * cfg.lam
            if margin < 1.0:
                w += eta * y[i] * x[i]
                b += eta * y[i]
        objective.append(svm.svm_objective(w, b, cfg.lam, x, y))
    return objective


def assert_curve(model, x, y, cfg):
    """The model's curve is the every-epoch objective at the curve epochs,
    byte for byte, and its last value is the returned model's objective."""
    every = every_epoch_objectives(x, y, cfg)
    assert np.array(model.objective_by_epoch).tobytes() == np.array(
        [every[e - 1] for e in svm.curve_epochs(cfg.epochs)[1:]]).tobytes()
    final = svm.svm_objective(model.weights, model.bias, cfg.lam, x, y)
    assert np.float64(model.objective_by_epoch[-1]).tobytes() == np.float64(final).tobytes()


def test_curve_epochs_are_zero_powers_of_two_and_the_last():
    for epochs in range(1300):  # 0: a head fit that accepted no step
        want = sorted({0, epochs} | {2**i for i in range(epochs.bit_length()) if 2**i <= epochs})
        assert svm.curve_epochs(epochs) == tuple(want), epochs
    assert svm.curve_epochs(30) == (0, 1, 2, 4, 8, 16, 30)
    assert len(svm.curve_epochs(1200)) == 13


class TestTraining:
    @pytest.mark.parametrize("epochs", [1, 2, 10, 30])
    def test_curve_is_every_epoch_objective_at_curve_epochs(self, epochs):
        x, y = separable_dataset(np.random.default_rng(epochs), n_per=6, spread=1.5)
        cfg = svm.SvmTrainConfig(epochs=epochs, lam=1e-2, seed=epochs)
        assert_curve(svm.train_linear_svm(x, y, cfg), x, y, cfg)

    def test_separable_pair(self):
        x = np.array([[1.0, 0.0], [-1.0, 0.0]])
        y = np.array([1.0, -1.0])
        model = svm.train_linear_svm(x, y, svm.SvmTrainConfig(epochs=50, lam=1e-3, seed=0))
        assert np.array_equal(svm.predict_labels(model, x), y)

    def test_objective_near_grid_optimum(self):
        rng = np.random.default_rng(42)
        cfg = svm.SvmTrainConfig(epochs=400, lam=1.0, seed=0)
        for trial in range(10):
            x, y = separable_dataset(rng)
            model = svm.train_linear_svm(x, y, cfg)
            trained = svm.svm_objective(model.weights, model.bias, cfg.lam, x, y)
            optimum = grid_oracle_objective(x, y, cfg.lam)
            assert trained <= optimum * 1.05 + 1e-12, (trial, trained, optimum)
            labels = np.where(svm.predict_margins(model, x) >= 0, 1.0, -1.0)
            assert np.array_equal(labels, y), trial

    def test_xor_capped(self):
        x = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
        y = np.array([1.0, 1.0, -1.0, -1.0])
        model = svm.train_linear_svm(x, y, svm.SvmTrainConfig(epochs=100, lam=1e-2, seed=0))
        pred = np.where(svm.predict_margins(model, x) >= 0, 1.0, -1.0)
        assert (pred == y).mean() <= 0.75
        # no linear rule beats 3/4 on this configuration
        axis = np.arange(-5.0, 5.01, 0.1)
        best = 0.0
        for w1 in axis:
            m1 = x[:, 0] * w1
            for w2 in axis:
                m = m1 + x[:, 1] * w2
                acc = np.maximum(
                    (np.where(m[:, None] + axis[None, :] >= 0, 1.0, -1.0) == y[:, None]).mean(0).max(),
                    (np.where(m[:, None] + axis[None, :] < 0, 1.0, -1.0) == y[:, None]).mean(0).max(),
                )
                best = max(best, float(acc))
        assert best <= 0.75

    def test_monotone_objective_on_fixtures(self):
        # fixtures chosen so the epoch trajectory is monotone; the stochastic
        # subgradient path is not monotone for arbitrary (data, seed, epochs).
        # A fit records only its curve epochs, and its first e epochs do not
        # depend on how many follow, so the objective after epoch e is the
        # last value of an e-epoch fit
        for dseed, seed in ((0, 0), (0, 1), (2, 1), (4, 0)):
            rng = np.random.default_rng(dseed)
            x, y = separable_dataset(rng)
            trajectory = [svm.train_linear_svm(x, y, svm.SvmTrainConfig(epochs=e, lam=1.0, seed=seed))
                          .objective_by_epoch[-1] for e in range(1, 11)]
            diffs = np.diff(trajectory)
            assert diffs.max() <= 1e-6, (dseed, seed, diffs.max())

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        x, y = separable_dataset(rng)
        cfg = svm.SvmTrainConfig(epochs=20, lam=1e-2, seed=7)
        a = svm.train_linear_svm(x, y, cfg)
        b = svm.train_linear_svm(x, y, cfg)
        assert np.array_equal(a.weights, b.weights) and a.bias == b.bias

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            svm.train_linear_svm(np.eye(2), np.array([1.0, 1.0]))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            svm.train_linear_svm(np.zeros((3, 2)), np.array([1.0, -1.0]))
        with pytest.raises(ValueError):
            svm.train_linear_svm(np.array([[np.inf, 0.0], [0.0, 1.0]]), np.array([1.0, -1.0]))


class TestConfig:
    def test_bad_values_name_field_and_value(self):
        with pytest.raises(ValueError, match=r"^epochs must be >= 1, got 0$"):
            svm.SvmTrainConfig(epochs=0)
        with pytest.raises(ValueError, match=r"^lam must be > 0, got 0\.0$"):
            svm.SvmTrainConfig(lam=0.0)


def lockstep_case(data_seed, n_rows, dim, lengths):
    """A shared row matrix and one (rows, labels, seed) fit per length: rows
    drawn with repeats from the shared matrix, so fits share rows, and both
    classes present in every fit."""
    rng = np.random.default_rng(data_seed)
    features = rng.normal(size=(n_rows, dim)) * rng.uniform(0.05, 20.0)
    fits = []
    for n in lengths:
        rows = rng.integers(0, n_rows, size=n)
        labels = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        labels[rng.permutation(n)[:2]] = (1.0, -1.0)
        fits.append((rows, labels, int(rng.integers(0, 2**63))))
    return features, fits


def single_fits(features, fits, epochs, lam):
    return [svm.train_linear_svm(features[rows], labels, svm.SvmTrainConfig(epochs, lam, seed))
            for rows, labels, seed in fits]


def assert_same_models(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.weights.tobytes() == b.weights.tobytes()
        assert a.bias == b.bias and a.lam == b.lam
        assert a.objective_by_epoch == b.objective_by_epoch


lockstep_cases = st.tuples(
    st.integers(0, 2**32 - 1),  # data seed
    st.integers(2, 60),  # shared rows
    st.sampled_from((1, 2, 3, 7, 16, 80)),  # feature dim
    st.lists(st.integers(2, 70), min_size=1, max_size=30),  # rows per fit
    st.integers(1, 4),  # epochs
    st.sampled_from((1e-3, 0.1, 1.0, 7.5)),  # lambda
)


@st.composite
def zero_step_cases(draw):
    """(rows, column signs, fits, epochs, lambda): a small shared row matrix
    of dyadic and non-dyadic values, whose columns a sign of -1 turns
    negative and of 0 zeroes, and 1-6 fits `(rows, labels, seed)` of
    unequal lengths, rows repeated, labels of several magnitudes."""
    n_rows, dim = draw(st.integers(1, 8)), draw(st.integers(1, 4))
    cell = st.sampled_from((0.0, 0.1, 0.25, 0.5, 1.0, 1.7, 2.0, 3.0))
    rows = draw(st.lists(st.lists(cell, min_size=dim, max_size=dim), min_size=n_rows, max_size=n_rows))
    signs = draw(st.lists(st.sampled_from((1.0, -1.0, 0.0)), min_size=dim, max_size=dim))
    fits = []
    for _ in range(draw(st.integers(1, 6))):
        n = draw(st.integers(2, 12))
        picked = draw(st.lists(st.integers(0, n_rows - 1), min_size=n, max_size=n))
        labels = draw(st.lists(st.sampled_from((-2.5, -1.0, -0.5, 0.5, 1.0, 3.0)), min_size=n, max_size=n))
        if min(labels) > 0 or max(labels) < 0:
            labels[0] = -labels[0]  # both classes
        fits.append((picked, labels, draw(st.integers(0, 2**63 - 1))))
    return rows, signs, fits, draw(st.integers(1, 4)), draw(st.sampled_from((1e-5, 1e-3, 0.1, 1.0, 7.5)))


class TestLockstep:
    @settings(max_examples=150, deadline=None)
    @given(zero_step_cases())
    # step 3 of both fits misses (margin >= 1): every row of the step gets a zero step
    @example(([[1.0]], [1.0], [([0, 0], [2.0, -0.5], 0), ([0, 0], [2.0, -0.5], 1)], 2, 1.0))
    # step 2 shrinks w to 0.5, and the step -0.5 cancels it to exactly 0
    @example(([[1.0]], [1.0], [([0, 0], [1.0, -1.0], 0)], 2, 1.0))
    def test_zero_steps_keep_single_fit_bytes(self, case):
        rows, signs, fits, epochs, lam = case
        features = np.array(rows) * np.array(signs)
        want = single_fits(features, fits, epochs, lam)
        assert_same_models(svm.train_linear_svms(features, fits, epochs, lam), want)
        for block in (1, 5):  # many block boundaries, mid-epoch and at epoch ends
            with mock.patch.object(svm, "BLOCK_STEPS", block):
                assert_same_models(svm.train_linear_svms(features, fits, epochs, lam), want)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 30), st.integers(1, 200), st.integers(0, 2**32 - 1))
    def test_row_dots_round_like_one_dot(self, k, dim, data_seed):
        # a margin that rounded otherwise could flip an update at margin 1
        rng = np.random.default_rng(data_seed)
        x = rng.normal(size=(k, dim)) * rng.uniform(0.01, 100.0)
        w = rng.normal(size=(k + 3, dim))[3:]  # a slice, as in the trainer
        want = np.array([x[j] @ w[j] for j in range(k)])
        assert svm._row_dots(x, w).tobytes() == want.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(lockstep_cases)
    @example((5, 40, 80, [70, 2, 3, 2, 9], 3, 1e-3))  # one long fit and several short ones
    @example((6, 3, 1, [2], 1, 1.0))
    def test_bytes_equal_single_fits(self, case):
        data_seed, n_rows, dim, lengths, epochs, lam = case
        features, fits = lockstep_case(data_seed, n_rows, dim, lengths)
        assert_same_models(svm.train_linear_svms(features, fits, epochs, lam),
                           single_fits(features, fits, epochs, lam))

    @settings(max_examples=25, deadline=None)
    @given(lockstep_cases, st.randoms(use_true_random=False))
    def test_order_and_split_leave_bytes(self, case, random):
        data_seed, n_rows, dim, lengths, epochs, lam = case
        features, fits = lockstep_case(data_seed, n_rows, dim, lengths)
        want = svm.train_linear_svms(features, fits, epochs, lam)
        perm = list(range(len(fits)))
        random.shuffle(perm)
        shuffled = svm.train_linear_svms(features, [fits[j] for j in perm], epochs, lam)
        assert_same_models([shuffled[perm.index(j)] for j in range(len(fits))], want)
        cut = random.randint(0, len(fits))
        split = (svm.train_linear_svms(features, fits[:cut], epochs, lam)
                 + svm.train_linear_svms(features, fits[cut:], epochs, lam))
        assert_same_models(split, want)

    def bad_fits(self):
        """(rows, labels) pairs that train_linear_svm rejects on features[rows]."""
        return [
            (np.array([0]), np.array([1.0])),  # one row
            (np.array([], dtype=int), np.array([])),  # no rows
            (np.array([0, 1, 2]), np.array([1.0, -1.0])),  # a label short
            (np.array([0, 1, 2]), np.array([1.0, 1.0, 1.0])),  # one class
            (np.array([0, 1, 2]), np.array([1.0, 0.0, -1.0])),  # a zero label
            (np.array([0, 8, 2]), np.array([1.0, -1.0, 1.0])),  # the non-finite row
        ]

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 5), st.integers(0, 6), st.integers(0, 2**32 - 1))
    def test_bad_fit_anywhere_raises_the_single_fit_error_before_any_step(self, which, at, data_seed):
        features, fits = lockstep_case(data_seed, 8, 3, [4, 8, 2, 5, 3, 6])
        features = np.vstack([features, [0.0, np.inf, 0.0]])  # row 8, in no good fit
        rows, labels = self.bad_fits()[which]
        with pytest.raises(ValueError) as single:
            svm.train_linear_svm(features[rows], labels)
        fits.insert(at, (rows, labels, 1))
        # every fit is seeded before the first step: no generator, no step
        with mock.patch.object(svm.np.random, "default_rng", side_effect=AssertionError("stepped")):
            with pytest.raises(ValueError) as lockstep:
                svm.train_linear_svms(features, fits, 2, 0.1)
        assert str(lockstep.value) == str(single.value)

    def test_bad_epochs_or_lambda_raise_the_config_error(self):
        features, fits = lockstep_case(0, 6, 2, [3, 4])
        for epochs, lam in ((0, 0.1), (2, 0.0), (2, -1.0)):
            with pytest.raises(ValueError) as single:
                svm.SvmTrainConfig(epochs, lam)
            with pytest.raises(ValueError) as lockstep:
                svm.train_linear_svms(features, fits, epochs, lam)
            assert str(lockstep.value) == str(single.value)

    def test_no_fits(self):
        assert svm.train_linear_svms(np.zeros((3, 2)), [], 5, 0.1) == []

    @pytest.mark.parametrize("epochs", [1, 5, 9])
    def test_curve_is_every_epoch_objective_at_curve_epochs(self, epochs):
        features, fits = lockstep_case(epochs, 30, 7, [12, 3, 25, 12])
        models = svm.train_linear_svms(features, fits, epochs, 0.1)
        for model, (rows, labels, seed) in zip(models, fits):
            assert_curve(model, features[rows], labels, svm.SvmTrainConfig(epochs, 0.1, seed))


class TestPrediction:
    def test_zero_weights_bias(self):
        model = svm.LinearModel(weights=np.zeros(3), bias=0.7, lam=1.0)
        assert svm.predict_margin(model, np.ones(3)) == 0.7

    def test_margin_affinity(self):
        model = svm.LinearModel(weights=np.array([2.0, -1.0]), bias=0.5, lam=1.0)
        x, y = np.array([1.0, 2.0]), np.array([-3.0, 0.5])
        fx, fy = svm.predict_margin(model, x), svm.predict_margin(model, y)
        assert abs(svm.predict_margin(model, x + y) - (fx + fy - model.bias)) < 1e-12

    def test_tie_rule_positive(self):
        # every row has margin exactly 0, from zero weights or from cancelling terms
        for weights in (np.zeros(2), np.array([1.0, -1.0])):
            model = svm.LinearModel(weights=weights, bias=0.0, lam=1.0)
            x = np.array([[1.0, 1.0], [2.0, 2.0], [-0.5, -0.5]])
            assert np.array_equal(svm.predict_margins(model, x), np.zeros(3))
            assert np.array_equal(svm.predict_labels(model, x), np.ones(3))

    def test_scale_invariance_of_labels(self):
        rng = np.random.default_rng(0)
        model = svm.LinearModel(weights=rng.normal(size=4), bias=0.3, lam=1.0)
        scaled = svm.LinearModel(weights=3.0 * model.weights, bias=3.0 * model.bias, lam=1.0)
        x = rng.normal(size=(20, 4))
        assert np.array_equal(svm.predict_labels(model, x), svm.predict_labels(scaled, x))

    def test_sign_agreement(self):
        rng = np.random.default_rng(2)
        model = svm.LinearModel(weights=rng.normal(size=3), bias=-0.2, lam=1.0)
        x = rng.normal(size=(20, 3))
        expected = [1.0 if svm.predict_margin(model, row) >= 0 else -1.0 for row in x]
        assert svm.predict_labels(model, x).tolist() == expected

    def test_dimension_mismatch(self):
        model = svm.LinearModel(weights=np.zeros(3), bias=0.0, lam=1.0)
        with pytest.raises(ValueError):
            svm.predict_margin(model, np.zeros(2))
        # the N x D functions reject a wrong width and a single 1-D row
        for bad in (np.zeros((4, 2)), np.zeros(3), np.zeros((1, 1, 3))):
            for fn in (svm.predict_margins, svm.predict_labels, svm.margin_to_probability):
                with pytest.raises(ValueError, match=r"model dim 3"):
                    fn(model, bad)


class TestProbability:
    def test_margin_zero_is_half(self):
        model = svm.LinearModel(weights=np.zeros(2), bias=0.0, lam=1.0)
        assert svm.margin_to_probability(model, np.ones((3, 2))).tolist() == [0.5, 0.5, 0.5]

    def test_monotone_in_margin(self):
        model = svm.LinearModel(weights=np.array([1.0]), bias=0.0, lam=1.0)
        probs = svm.margin_to_probability(model, np.array([[-2.0], [-1.0], [0.0], [1.0], [2.0]]))
        assert (np.diff(probs) > 0).all()

    def test_logistic_five(self):
        model = svm.LinearModel(weights=np.array([1.0]), bias=0.0, lam=1.0)
        assert svm.margin_to_probability(model, np.array([[5.0]]))[0] > 0.99

    def test_scale_validation(self):
        model = svm.LinearModel(weights=np.zeros(1), bias=0.0, lam=1.0)
        for scale in (0.0, -1.0):
            with pytest.raises(ValueError, match="scale"):
                svm.margin_to_probability(model, np.zeros((2, 1)), scale=scale)


class TestSerialization:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        x, y = separable_dataset(rng)
        model = svm.train_linear_svm(x, y, svm.SvmTrainConfig(epochs=10, lam=1e-2, seed=0))
        path = tmp_path / "m.txt"
        svm.save_model(model, path)
        loaded = svm.load_model(path)
        assert np.array_equal(loaded.weights, model.weights)
        assert loaded.bias == model.bias and loaded.lam == model.lam

    def test_bad_magic(self, tmp_path):
        # every malformed file is a ValueError naming the file
        magic = "camtrap-linear-model v1\n"
        for n, text in enumerate((
            "nope\n",
            magic,
            magic + "lambda 0.001\n",
            magic + "lambda 0.001\nbias 0.0\ndims 2\n1.0 2.0\n",
            magic + "lambda 0.001\nbias 0.0\ndim 2\n1.0 x\n",
            magic + "lambda 0.001\nbias 0.0\ndim 3\n1.0 2.0\n",
        )):
            path = tmp_path / f"m{n}.txt"
            path.write_text(text)
            with pytest.raises(ValueError, match=path.name):
                svm.load_model(path)
