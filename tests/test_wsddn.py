"""Two-stream region scoring: softmax-product structure, aggregation rules,
tie-breaking, permutation equivariance, training gradients."""

import functools
import hashlib
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from camtrap import experiments as ex, svm, synth, wsddn
from camtrap.features import Region, RegionFeatures


def make_rf(matrix):
    matrix = np.asarray(matrix, dtype=float)
    regions = tuple(Region(0, i, 1, i + 1) for i in range(matrix.shape[0]))
    return RegionFeatures(regions=regions, matrix=matrix)


def rand_head(rng, d, c, names=None):
    names = names or tuple(f"c{i}" for i in range(c))
    return wsddn.TwoStreamHead(
        w_rec=rng.normal(size=(d, c)), w_det=rng.normal(size=(d, c)), class_names=names
    )


def class_sum(a):
    """Sum over the innermost (class) axis as the head step adds it: the
    classes in order, unless they are the array's only values (the step at
    one image), which numpy sums pairwise, as it sums any lone axis."""
    if a.size == a.shape[-1]:
        return a.sum(axis=-1)
    return functools.reduce(np.add, np.moveaxis(a, -1, 0))


def class_softmax(x):
    """Softmax over the innermost (class) axis, its sum in order."""
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / class_sum(e)[..., None]


def oracle_score(matrix, w_rec, w_det):
    """Straight-line reimplementation of the two softmaxes and product."""
    u = matrix @ w_rec
    v = matrix @ w_det
    rec = np.zeros_like(u)
    for r in range(u.shape[0]):
        e = np.exp(u[r] - u[r].max())
        rec[r] = e / e.sum()
    det = np.zeros_like(v)
    for c in range(v.shape[1]):
        e = np.exp(v[:, c] - v[:, c].max())
        det[:, c] = e / e.sum()
    return rec * det, rec, det


class TestScoreRegions:
    def test_single_region_collapse(self):
        rng = np.random.default_rng(0)
        head = rand_head(rng, 4, 3)
        rf = make_rf(rng.normal(size=(1, 4)))
        s = wsddn.score_regions(rf, head)
        assert np.allclose(s.detection, 1.0)
        assert np.allclose(s.scores, s.recognition)
        assert abs(s.recognition.sum() - 1.0) < 1e-12

    def test_zero_weights_uniform(self):
        head = wsddn.TwoStreamHead(np.zeros((4, 3)), np.zeros((4, 3)), ("a", "b", "c"))
        rf = make_rf(np.random.default_rng(0).normal(size=(5, 4)))
        s = wsddn.score_regions(rf, head)
        assert np.allclose(s.recognition, 1 / 3)
        assert np.allclose(s.detection, 1 / 5)
        assert np.allclose(s.scores, 1 / 15)

    def test_matches_straight_line_oracle(self):
        rng = np.random.default_rng(1)
        head = rand_head(rng, 6, 3)
        rf = make_rf(rng.normal(size=(5, 6)))
        s = wsddn.score_regions(rf, head)
        scores, rec, det = oracle_score(rf.matrix, head.w_rec, head.w_det)
        assert np.allclose(s.scores, scores, atol=1e-12)
        assert np.allclose(s.recognition, rec, atol=1e-12)
        assert np.allclose(s.detection, det, atol=1e-12)

    def test_softmax_product_structure(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            r, c, d = rng.integers(1, 10), rng.integers(2, 6), rng.integers(2, 8)
            head = rand_head(rng, d, c)
            s = wsddn.score_regions(make_rf(rng.normal(size=(r, d))), head)
            assert np.allclose(s.recognition.sum(axis=1), 1.0, atol=1e-9)
            assert np.allclose(s.detection.sum(axis=0), 1.0, atol=1e-9)
            assert np.all(s.scores > 0.0) and np.all(s.scores <= 1.0)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            wsddn.score_regions(make_rf(rng.normal(size=(2, 3))), rand_head(rng, 4, 2))


class TestAggregation:
    def test_sum_single_row(self):
        rng = np.random.default_rng(0)
        s = wsddn.score_regions(make_rf(rng.normal(size=(1, 4))), rand_head(rng, 4, 3))
        cs = wsddn.aggregate_sum(s, ("a", "b", "c"))
        assert np.allclose(cs.values, np.clip(s.scores[0], wsddn.EPS, 1 - wsddn.EPS))

    def test_sum_bounded_by_one(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            s = wsddn.score_regions(make_rf(rng.normal(size=(6, 4))), rand_head(rng, 4, 3))
            cs = wsddn.aggregate_sum(s, ("a", "b", "c"))
            assert np.all(cs.values <= 1.0)

    def test_sum_matches_loop_oracle(self):
        rng = np.random.default_rng(2)
        s = wsddn.score_regions(make_rf(rng.normal(size=(4, 5))), rand_head(rng, 5, 2))
        expected = np.array(
            [sum(s.scores[r, c] for r in range(4)) for c in range(2)]
        )
        cs = wsddn.aggregate_sum(s, ("a", "b"))
        assert np.allclose(cs.values, np.clip(expected, wsddn.EPS, 1 - wsddn.EPS))

    def test_topk_saturates_to_column_means(self):
        rng = np.random.default_rng(3)
        s = wsddn.score_regions(make_rf(rng.normal(size=(4, 5))), rand_head(rng, 5, 3))
        cs = wsddn.aggregate_topk(s, ("a", "b", "c"), wsddn.AggregationConfig(k=10))
        assert np.allclose(cs.values, s.scores.mean(axis=0))

    def test_topk_matches_brute_force(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            r = int(rng.integers(1, 13))
            k = int(rng.integers(1, 13))
            s = wsddn.score_regions(make_rf(rng.normal(size=(r, 5))), rand_head(rng, 5, 3))
            cs = wsddn.aggregate_topk(s, ("a", "b", "c"), wsddn.AggregationConfig(k=k))
            row_max = s.scores.max(axis=1)
            order = sorted(range(r), key=lambda i: (-row_max[i], i))
            expected = s.scores[order[: min(k, r)]].mean(axis=0)
            assert np.allclose(cs.values, expected, atol=1e-12)

    def test_topk_row_permutation_invariant(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            s = wsddn.score_regions(make_rf(rng.normal(size=(7, 4))), rand_head(rng, 4, 3))
            if len(np.unique(s.scores.max(axis=1))) < 7:
                continue  # tie rule only defined for distinct maxima
            perm = rng.permutation(7)
            permuted = wsddn.RegionScoreMatrix(
                scores=s.scores[perm], recognition=s.recognition[perm], detection=s.detection[perm]
            )
            cfg = wsddn.AggregationConfig(k=3)
            a = wsddn.aggregate_topk(s, ("a", "b", "c"), cfg)
            b = wsddn.aggregate_topk(permuted, ("a", "b", "c"), cfg)
            assert np.allclose(a.values, b.values, atol=1e-12)


class TestPredictTopk:
    def test_argmax(self):
        cs = wsddn.ClassScores(np.array([0.2, 0.8]), ("a", "b"))
        assert wsddn.predict_topk(cs, 1) == ["b"]

    def test_tie_goes_to_lower_index(self):
        cs = wsddn.ClassScores(np.array([0.5, 0.5, 0.1]), ("a", "b", "c"))
        assert wsddn.predict_topk(cs, 2) == ["a", "b"]

    def test_full_ranking_is_permutation(self):
        cs = wsddn.ClassScores(np.array([0.1, 0.9, 0.5]), ("a", "b", "c"))
        assert sorted(wsddn.predict_topk(cs, 3)) == ["a", "b", "c"]

    def test_k_out_of_range(self):
        cs = wsddn.ClassScores(np.array([0.1, 0.9]), ("a", "b"))
        for k in (0, 3):
            with pytest.raises(ValueError):
                wsddn.predict_topk(cs, k)

    def test_class_permutation_equivariance(self):
        rng = np.random.default_rng(6)
        d, c = 5, 4
        names = ("a", "b", "c", "d")
        head = rand_head(rng, d, c, names)
        rf = make_rf(rng.normal(size=(6, d)))
        perm = np.array([2, 0, 3, 1])
        permuted_head = wsddn.TwoStreamHead(
            w_rec=head.w_rec[:, perm],
            w_det=head.w_det[:, perm],
            class_names=tuple(names[i] for i in perm),
        )
        a = wsddn.aggregate_topk(wsddn.score_regions(rf, head), names)
        b = wsddn.aggregate_topk(
            wsddn.score_regions(rf, permuted_head), permuted_head.class_names
        )
        assert wsddn.predict_topk(a, c) == wsddn.predict_topk(b, c)


class TestRankClasses:
    @staticmethod
    def heads(rng, d, c):
        """A random head, one whose classes 0 and 2 (and 1 and 3) tie, and an all-zero head."""
        head = rand_head(rng, d, c)
        tied = [0, 1, 0, 1] + list(range(4, c))
        yield head
        yield wsddn.TwoStreamHead(w_rec=head.w_rec[:, tied], w_det=head.w_det[:, tied], class_names=head.class_names)
        yield wsddn.TwoStreamHead(w_rec=np.zeros((d, c)), w_det=np.zeros((d, c)), class_names=head.class_names)

    def test_equals_the_chains_it_replaces(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            d, c, r = 5, int(rng.integers(4, 9)), int(rng.integers(1, 12))
            rf = make_rf(rng.normal(size=(r, d)))
            for head in self.heads(rng, d, c):
                s, names = wsddn.score_regions(rf, head), head.class_names
                assert wsddn.rank_classes(rf, head) == wsddn.predict_topk(wsddn.aggregate_sum(s, names), c)
                for k in (1, r, r + 1, 30):  # K above the region count averages every region
                    topk = wsddn.aggregate_topk(s, names, wsddn.AggregationConfig(k))
                    assert wsddn.rank_classes(rf, head, k) == wsddn.predict_topk(topk, c)

    def test_prefix_is_predict_topk(self):
        rng = np.random.default_rng(10)
        rf = make_rf(rng.normal(size=(7, 5)))
        for head in self.heads(rng, 5, 6):
            s = wsddn.score_regions(rf, head)
            for agg, k in ((wsddn.aggregate_sum(s, head.class_names), None),
                           (wsddn.aggregate_topk(s, head.class_names, wsddn.AggregationConfig(3)), 3)):
                for n in range(1, 7):
                    assert wsddn.rank_classes(rf, head, k)[:n] == wsddn.predict_topk(agg, n)


class TestDetectRegion:
    def test_single_region(self):
        rng = np.random.default_rng(0)
        s = wsddn.score_regions(make_rf(rng.normal(size=(1, 4))), rand_head(rng, 4, 2))
        assert wsddn.detect_region(s, 0) == 0

    def test_dominant_row(self):
        scores = np.array([[0.1, 0.1], [0.5, 0.6], [0.2, 0.2]])
        s = wsddn.RegionScoreMatrix(scores=scores, recognition=scores, detection=scores)
        assert wsddn.detect_region(s, 0) == 1
        assert wsddn.detect_region(s, 1) == 1

    def test_class_out_of_range(self):
        s = wsddn.RegionScoreMatrix(np.ones((2, 2)), np.ones((2, 2)), np.ones((2, 2)))
        with pytest.raises(ValueError):
            wsddn.detect_region(s, 2)


class FixedDraws:
    """st.data() for an @example, which hypothesis cannot draw from: a draw
    returns the value given for its label, or else the values of the
    permutation strategy it is given in their given order."""

    def __init__(self, **values):
        self.values = values

    def draw(self, strategy, label):
        if label in self.values:
            return self.values[label]
        return list(strategy.wrapped_strategy.values)


class TestTraining:
    def make_dataset(self, rng, n=2, r=3, c=2, d=4):
        ds = []
        for i in range(n):
            target = np.zeros(c)
            target[i % c] = 1.0
            ds.append((make_rf(rng.normal(size=(r, d))), target))
        return ds

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            ds = self.make_dataset(rng)
            x = np.stack([rf.matrix for rf, _ in ds])
            targets = np.stack([t for _, t in ds])
            a = rng.normal(size=(4, 2))
            b = rng.normal(size=(4, 2))
            _, ga, gb = wsddn._bce_loss_and_grad(x, targets, a, b, l2=1e-4)
            eps = 1e-6
            for mat, grad in ((a, ga), (b, gb)):
                for _ in range(3):
                    i, j = rng.integers(4), rng.integers(2)
                    bump = np.zeros_like(mat)
                    bump[i, j] = eps
                    lp, _, _ = wsddn._bce_loss_and_grad(
                        x, targets, a + (bump if mat is a else 0), b + (bump if mat is b else 0), 1e-4
                    )
                    lm, _, _ = wsddn._bce_loss_and_grad(
                        x, targets, a - (bump if mat is a else 0), b - (bump if mat is b else 0), 1e-4
                    )
                    num = (lp - lm) / (2 * eps)
                    denom = max(abs(num), abs(grad[i, j]), 1e-8)
                    assert abs(num - grad[i, j]) / denom < 1e-4

    def test_loss_decreases(self):
        rng = np.random.default_rng(1)
        ds = []
        for i in range(8):
            base = np.zeros(4)
            base[i % 2] = 1.0
            m = np.tile(base, (3, 1)) + 0.05 * rng.normal(size=(3, 4))
            t = np.zeros(2)
            t[i % 2] = 1.0
            ds.append((make_rf(m), t))
        head = wsddn.train_head(ds, ("a", "b"), wsddn.HeadTrainConfig(epochs=200, learning_rate=1.0, seed=0))
        assert head.loss_by_epoch[-1] < head.loss_by_epoch[0]
        # it stops at convergence, well before its cap of 201 evaluations
        assert 2 <= len(head.loss_by_epoch) < len(svm.curve_epochs(200)) == 10

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        ds = self.make_dataset(rng, n=4)
        cfg = wsddn.HeadTrainConfig(epochs=20, learning_rate=0.5, seed=3)
        a = wsddn.train_head(ds, ("a", "b"), cfg)
        b = wsddn.train_head(ds, ("a", "b"), cfg)
        assert np.array_equal(a.w_rec, b.w_rec) and np.array_equal(a.w_det, b.w_det)

    def test_single_class_rejected(self):
        rng = np.random.default_rng(3)
        ds = [(make_rf(rng.normal(size=(2, 3))), np.array([1.0, 0.0])) for _ in range(3)]
        with pytest.raises(ValueError):
            wsddn.train_head(ds, ("a", "b"))

    def test_inconsistent_region_counts_rejected(self):
        rng = np.random.default_rng(4)
        ds = [
            (make_rf(rng.normal(size=(2, 3))), np.array([1.0, 0.0])),
            (make_rf(rng.normal(size=(3, 3))), np.array([0.0, 1.0])),
        ]
        with pytest.raises(ValueError, match=r"region count.*\[2, 3\]"):
            wsddn.train_head(ds, ("a", "b"))

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            wsddn.train_head([], ("a", "b"))

    @staticmethod
    def einsum_reference(x, targets, a, b, l2):
        """The two-product, two-einsum step that the matrix form replaced,
        its class sums added in order."""
        n = x.shape[0]
        u = x @ a
        v = x @ b
        p = class_softmax(u)
        q = wsddn._softmax(v, -2)
        s = p * q
        ysum = s.sum(axis=1)
        y = np.clip(ysum, wsddn.EPS, 1.0 - wsddn.EPS)
        loss = -class_sum(targets * np.log(y) + (1.0 - targets) * np.log(1.0 - y)).mean()
        loss += 0.5 * l2 * (float((a * a).sum()) + float((b * b).sum()))
        g_y = (y - targets) / (y * (1.0 - y))
        g_y = np.where((ysum < wsddn.EPS) | (ysum > 1.0 - wsddn.EPS), 0.0, g_y)
        ds = g_y[:, None, :]
        dp = ds * q
        dq = ds * p
        du = p * (dp - class_sum(dp * p)[..., None])
        dv = q * (dq - (dq * q).sum(axis=1, keepdims=True))
        ga = np.einsum("nrd,nrc->dc", x, du) / n + l2 * a
        gb = np.einsum("nrd,nrc->dc", x, dv) / n + l2 * b
        return loss, ga, gb

    # (N, R) with N·R below one row block, exactly one, several, and a
    # partial last block; R = 1 is the image-level species heads' case
    @settings(max_examples=60, deadline=None)
    @given(
        nr=st.sampled_from([(1, 1), (3, 5), (16, 10), (160, 1), (32, 10), (17, 10), (161, 1), (7, 50)]),
        c=st.sampled_from([2, 3, 24]),
        d=st.integers(1, 96),
        scale=st.floats(1.0, 8.0),
        seed=st.integers(0, 2**16),
    )
    @example(nr=(17, 10), c=24, d=160, scale=1.0, seed=0)
    @example(nr=(161, 1), c=2, d=5, scale=8.0, seed=1)
    def test_matrix_form_matches_einsum_reference(self, nr, c, d, scale, seed):
        """Rows as the pipeline makes them (non-negative, L2-normalized) and
        Glorot-range weights up to 8x wider.  Where BLAS returns the same
        logits for [a | b] on (N·R, D) rows as for the per-image products,
        the loss is bit-equal; otherwise it differs only by their rounding.
        Gradients change summation order and agree to 1e-12 of their
        largest entry."""
        n, r = nr
        x, targets, a, b = self.pipeline_like(n, r, d, c, scale, seed)
        loss, ga, gb = wsddn._bce_loss_and_grad(x, targets, a, b, 1e-4)
        ref_loss, ref_ga, ref_gb = self.einsum_reference(x, targets, a, b, 1e-4)
        uv = x.reshape(n * r, d) @ np.concatenate([a, b], axis=1)
        if np.array_equal(uv, np.concatenate([x @ a, x @ b], axis=2).reshape(n * r, 2 * c)):
            assert loss == ref_loss
        else:
            assert abs(loss - ref_loss) <= 1e-14 * abs(ref_loss)
        for g, ref in ((ga, ref_ga), (gb, ref_gb)):
            assert np.abs(g - ref).max() <= 1e-12 * np.abs(ref).max()

    @staticmethod
    def class_last_reference(x, targets, a, b, l2):
        """The class-last (N, R, 2C) step that the class-major form replaced:
        every class max and sum runs over the innermost axis, the sums in
        order, in the inputs' dtype."""
        n, r, d = x.shape
        c = a.shape[1]
        x2 = x.reshape(n * r, d)
        uv = (x2 @ np.concatenate([a, b], axis=1)).reshape(n, r, 2 * c)
        p = class_softmax(uv[..., :c])
        q = wsddn._softmax(uv[..., c:], -2)
        s = p * q
        ysum = s.sum(axis=1)
        y = np.clip(ysum, wsddn.EPS, 1.0 - wsddn.EPS)
        loss = -class_sum(targets * np.log(y) + (1.0 - targets) * np.log(1.0 - y)).mean()
        loss += 0.5 * l2 * ((a * a).sum() + (b * b).sum())
        g_y = (y - targets) / (y * (1.0 - y))
        g_y = np.where((ysum < wsddn.EPS) | (ysum > 1.0 - wsddn.EPS), 0.0, g_y)
        ds = g_y[:, None, :]
        dp = ds * q
        dq = ds * p
        du = p * (dp - class_sum(dp * p)[..., None])
        dv = q * (dq - (dq * q).sum(axis=1, keepdims=True))
        duv = np.concatenate([du, dv], axis=2).reshape(n * r, 2 * c)
        g = np.zeros((d, 2 * c), x.dtype)
        for i in range(0, n * r, wsddn.GRAD_ROW_BLOCK):
            g += x2[i : i + wsddn.GRAD_ROW_BLOCK].T @ duv[i : i + wsddn.GRAD_ROW_BLOCK]
        return loss, g[:, :c] / n + l2 * a, g[:, c:] / n + l2 * b

    @staticmethod
    def pipeline_like(n, r, d, c, scale, seed):
        """Rows as the pipeline makes them (non-negative, L2-normalized), one-hot
        targets and Glorot-range weights `scale` times wider."""
        rng = np.random.default_rng(seed)
        x = np.abs(rng.normal(size=(n, r, d)))
        x /= np.linalg.norm(x, axis=2, keepdims=True)
        targets = np.zeros((n, c))
        targets[np.arange(n), rng.integers(c, size=n)] = 1.0
        bound = scale * np.sqrt(6.0 / (d + c))
        return x, targets, rng.uniform(-bound, bound, size=(d, c)), rng.uniform(-bound, bound, size=(d, c))

    # (N, R) with N·R below one row block, exactly one, several, and a
    # partial last block; R = 1 is the image-level species heads' case
    @settings(max_examples=80, deadline=None)
    @given(
        nr=st.sampled_from([(2, 1), (3, 5), (16, 10), (160, 1), (32, 10), (17, 10), (161, 1), (7, 50), (112, 10)]),
        c=st.sampled_from([2, 3, 7, 8, 9, 24, 130]),
        d=st.integers(1, 96),
        scale=st.floats(1.0, 8.0),
        seed=st.integers(0, 2**16),
    )
    @example(nr=(112, 10), c=4, d=80, scale=1.0, seed=0)
    @example(nr=(50, 10), c=24, d=160, scale=1.0, seed=1)
    @example(nr=(84, 1), c=3, d=80, scale=8.0, seed=2)
    def test_class_major_step_matches_class_last_bytes(self, nr, c, d, scale, seed):
        """The class-major step returns the class-last step's loss and
        gradients bit for bit (N >= 2, as train_head always passes)."""
        x, targets, a, b = self.pipeline_like(*nr, d, c, scale, seed)
        loss, ga, gb = wsddn._bce_loss_and_grad(x, targets, a, b, 1e-4)
        ref_loss, ref_ga, ref_gb = self.class_last_reference(x, targets, a, b, 1e-4)
        assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
        assert ga.tobytes() == ref_ga.tobytes() and gb.tobytes() == ref_gb.tobytes()

    @classmethod
    def lbfgs_reference(cls, x, targets, cfg):
        """Weights [a | b] and every accepted iteration's loss, the initial
        loss first, of one fit by train_heads' rule, written per fit and
        plain: class-last evaluations from train_head's seeded init, the
        weights as one flat vector, curvature pairs in a list (newest
        first), all in the inputs' dtype (the init's float64 draws rounded
        to it)."""
        d, c = x.shape[2], targets.shape[1]
        dt = x.dtype.type
        bound = np.sqrt(6.0 / (d + c))
        rng = np.random.default_rng(np.uint64(cfg.seed))
        w = np.concatenate([rng.uniform(-bound, bound, size=(d, c)) for _ in "ab"], axis=1).astype(x.dtype).ravel()

        def evaluate(w):
            loss, ga, gb = cls.class_last_reference(x, targets, *np.split(w.reshape(d, 2 * c), 2, axis=1), cfg.l2)
            return loss, np.concatenate([ga, gb], axis=1).ravel()

        def dot(u, v):
            return (u * v).sum()

        def direction(g, pairs, gamma):
            q, alphas = g, []
            for s, y, rho in pairs:
                alphas.append(rho * dot(s, q))
                q = q - alphas[-1] * y
            r = gamma * q
            for (s, y, rho), alpha in zip(pairs[::-1], alphas[::-1]):
                r = r + s * (alpha - rho * dot(y, r))
            return -r

        loss, g = evaluate(w)
        losses, pairs, gamma, evals = [loss], [], dt(cfg.learning_rate), 1
        step, t = direction(g, pairs, gamma), dt(1)
        while evals < cfg.epochs + 1 and -t * dot(g, step) >= wsddn.LBFGS_TOL * loss:
            trial = w + t * step
            trial_loss, trial_g = evaluate(trial)
            evals += 1
            if not trial_loss <= loss + wsddn.ARMIJO_C1 * t * dot(g, step):
                t *= dt(0.5)
                continue
            s, y = trial - w, trial_g - g
            if dot(s, y) > 0:
                pairs = [(s, y, 1 / dot(s, y))] + pairs[:wsddn.LBFGS_MEMORY - 1]
                gamma = dot(s, y) / dot(y, y)
            converged = loss - trial_loss < wsddn.LBFGS_TOL * loss
            w, loss, g = trial, trial_loss, trial_g
            losses.append(loss)
            if converged:
                break
            step, t = direction(g, pairs, gamma), dt(1)
        a, b = np.split(w.reshape(d, 2 * c), 2, axis=1)
        return a, b, losses

    @pytest.mark.parametrize("n, r, d, c", [(112, 10, 80, 4), (84, 1, 80, 3), (40, 10, 32, 24), (17, 10, 16, 9)])
    def test_train_head_matches_class_last_loop(self, n, r, d, c):
        """At most 61 evaluations from a first step of 8: one changed ulp
        in an evaluation or a curvature product moves the line search and
        every later iterate, so equal hashes mean every step was bit-equal.
        The loss is recorded at the curve epochs of the iterations run.
        The reference runs in float32 on the rows and targets cast as
        train_heads casts them."""
        x, targets, _, _ = self.pipeline_like(n, r, d, c, 1.0, n + c)
        names = tuple(f"c{j}" for j in range(c))
        ds = [(make_rf(m), t) for m, t in zip(x, targets)]
        cfg = wsddn.HeadTrainConfig(epochs=60, learning_rate=8.0, seed=5)
        head = wsddn.train_head(ds, names, cfg)
        a, b, history = self.lbfgs_reference(x.astype(np.float32), targets.astype(np.float32), cfg)
        assert len(history) > 5

        def digest(w_rec, w_det, losses):
            h = hashlib.sha256()
            for arr in (w_rec, w_det, np.array(losses)):
                h.update(arr.tobytes())
            return h.hexdigest()

        assert digest(head.w_rec, head.w_det, head.loss_by_epoch) == digest(
            a.astype(np.float64), b.astype(np.float64),
            [float(history[e]) for e in svm.curve_epochs(len(history) - 1)])

    # (3, 56): one fit's s·y is not positive once, so it keeps no pair then
    @pytest.mark.parametrize("k, epochs", [(1, 1), (1, 16), (3, 37), (3, 56)])
    def test_curve_is_every_epoch_loss_at_curve_epochs(self, k, epochs):
        # train_head (k 1) and lockstep train_heads (k 3): each head's curve
        # is, byte for byte, the reference's float32 loss after every
        # accepted iteration at the curve epochs of the iterations run, and
        # its last value is the loss at the returned weights
        n, r, d, c = 12, 3, 8, 3
        x, targets, _, _ = self.pipeline_like(k * n, r, d, c, 1.0, epochs)
        x32, t32 = x.astype(np.float32), targets.astype(np.float32)
        names = tuple(f"c{j}" for j in range(c))
        fits = [([(make_rf(m), t) for m, t in zip(x[j * n:(j + 1) * n], targets[j * n:(j + 1) * n])], names, j)
                for j in range(k)]
        cfgs = [wsddn.HeadTrainConfig(epochs=epochs, learning_rate=4.0, seed=j) for j in range(k)]
        heads = (wsddn.train_heads(fits, epochs, 4.0, cfgs[0].l2) if k > 1
                 else [wsddn.train_head(*fits[0][:2], cfgs[0])])
        for j, (head, cfg) in enumerate(zip(heads, cfgs)):
            xj, tj = x32[j * n:(j + 1) * n], t32[j * n:(j + 1) * n]
            a, b, history = self.lbfgs_reference(xj, tj, cfg)
            assert head.w_rec.tobytes() == a.astype(np.float64).tobytes()
            assert head.w_det.tobytes() == b.astype(np.float64).tobytes()
            want = [history[e] for e in svm.curve_epochs(len(history) - 1)]
            assert np.array(head.loss_by_epoch).tobytes() == np.array(want, dtype=np.float64).tobytes()
            final = wsddn._bce_loss_and_grad(xj, tj, head.w_rec.astype(np.float32), head.w_det.astype(np.float32),
                                             cfg.l2)[0]
            assert np.float64(head.loss_by_epoch[-1]).tobytes() == np.float64(final).tobytes()

    SCHEDULE = (6, 8.0, 1e-4)  # lockstep_fits' (epochs, learning rate, l2)

    @staticmethod
    def alone(fit, schedule=SCHEDULE):
        """``train_head`` of one `(dataset, class_names, seed)` fit at `schedule`."""
        ds, names, seed = fit
        epochs, learning_rate, l2 = schedule
        return wsddn.train_head(ds, names, wsddn.HeadTrainConfig(epochs, learning_rate, seed, l2))

    @staticmethod
    def lockstep_fits(k, n, r, c, d, seed):
        """k fits of one shape, each with its own rows, labels, class names and seed."""
        rng = np.random.default_rng(seed)
        fits = []
        for j in range(k):
            names = tuple(f"f{j}c{i}" for i in range(c))
            x = np.abs(rng.normal(size=(n, r, d)))
            x /= np.linalg.norm(x, axis=2, keepdims=True)
            labels = np.concatenate([np.arange(2), rng.integers(c, size=n - 2)])
            ds = [(make_rf(m), wsddn.one_hot(names[i], names)) for m, i in zip(x, labels)]
            fits.append((ds, names, int(rng.integers(2**31))))
        return fits

    @staticmethod
    def around_block(r):
        """Image counts whose N·R rows fall below, on and past a GRAD_ROW_BLOCK boundary."""
        b = wsddn.GRAD_ROW_BLOCK
        return sorted({2, max(2, b // r - 1), b // r, b // r + 1, 2 * b // r + 1})

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), k=st.integers(1, 5), r=st.sampled_from([1, 3, 10]), c=st.sampled_from([2, 3, 8, 9]),
           d=st.integers(1, 24), seed=st.integers(0, 2**16),
           schedule=st.sampled_from([SCHEDULE, (4, 1.0, 0.0)]))
    # one group's three fits stop at 81 evaluations (the cap), 42 and 72
    @example(data=FixedDraws(n=52), k=3, r=3, c=2, d=12, seed=2, schedule=(80, 8.0, 1e-4))
    def test_train_heads_matches_train_head_bytes(self, data, k, r, c, d, seed, schedule):
        # mixed fits: k of one shape, interleaved with fits of another image
        # count, which train_heads groups itself
        n = data.draw(st.sampled_from(self.around_block(r)), label="n")
        other_shape = self.lockstep_fits(2, n + 1, r, c, d, seed + 1)
        fits = data.draw(st.permutations(self.lockstep_fits(k, n, r, c, d, seed) + other_shape), label="order")
        heads = wsddn.train_heads(fits, *schedule)
        assert len(heads) == len(fits)
        for head, fit in zip(heads, fits):
            alone = self.alone(fit, schedule)
            assert head.class_names == alone.class_names == fit[1]
            assert head.w_rec.tobytes() == alone.w_rec.tobytes()
            assert head.w_det.tobytes() == alone.w_det.tobytes()
            assert np.array(head.loss_by_epoch).tobytes() == np.array(alone.loss_by_epoch).tobytes()

    @pytest.mark.parametrize("bad", ["one class", "empty", "region counts", "feature dims", "target width", "one name"])
    def test_bad_fit_raises_its_own_message_before_any_step(self, bad, monkeypatch):
        fits = self.lockstep_fits(3, 6, 3, 3, 4, 0)
        ds, names, seed = fits[1]
        if bad == "one class":
            ds = [(rf, wsddn.one_hot(names[0], names)) for rf, _ in ds]
        elif bad == "empty":
            ds = []
        elif bad == "region counts":
            ds = ds[:-1] + [(make_rf(np.ones((4, 4))), ds[-1][1])]
        elif bad == "feature dims":
            ds = ds[:-1] + [(make_rf(np.ones((3, 5))), ds[-1][1])]
        elif bad == "target width":
            ds = [(rf, np.append(t, 0.0)) for rf, t in ds]
        else:
            names = names[:1]
        with pytest.raises(ValueError) as alone:
            self.alone((ds, names, seed))
        monkeypatch.setattr(wsddn, "_bce_step", lambda *args: pytest.fail("stepped before a check"))
        with pytest.raises(ValueError) as lockstep:
            wsddn.train_heads([fits[0], (ds, names, seed), fits[2]], *self.SCHEDULE)
        assert str(lockstep.value) == str(alone.value)

    @pytest.mark.parametrize("schedule, message", [((0, 8.0, 1e-4), "epochs must be >= 1"),
                                                   ((6, 0.0, 1e-4), "learning_rate must be > 0"),
                                                   ((6, 8.0, -1.0), "l2 must be >= 0")])
    def test_train_heads_checks_schedule_before_any_fit(self, schedule, message):
        bad_fit = ([], ("a", "b"), 0)  # an empty dataset: its own check would raise another message
        with pytest.raises(ValueError, match=message):
            wsddn.train_heads([bad_fit], *schedule)

    def test_train_heads_groups_by_shape(self, monkeypatch):
        # one lockstep group per (N, R, D, C), in order of first appearance
        a, b = self.lockstep_fits(2, 6, 3, 3, 4, 0), self.lockstep_fits(2, 7, 3, 3, 4, 1)
        bce_step, groups = wsddn._bce_step, []
        monkeypatch.setattr(wsddn, "_bce_step", lambda x, t, l2: groups.append(x.shape[:2]) or bce_step(x, t, l2))
        assert len(wsddn.train_heads([b[0], a[0], b[1], a[1]], *self.SCHEDULE)) == 4
        assert groups == [(2, 7), (2, 6)]
        assert wsddn.train_heads([], *self.SCHEDULE) == []

    @pytest.mark.parametrize("k", [1, 3])
    def test_training_runs_in_float32(self, k, monkeypatch):
        # one float64 operand would run the whole step in float64 again
        # (NEP 50): train_heads steps on float32 x, targets and w and gets
        # float32 losses and gradients back; it returns float64 weights that
        # hold float32 values and a curve of Python floats
        x, targets, a, b = self.pipeline_like(6, 3, 4, 3, 1.0, k)
        loss, ga, gb = wsddn._bce_loss_and_grad(x, targets, a, b, 1e-4)
        assert loss.dtype == ga.dtype == gb.dtype == np.float64  # the gradient checks' form

        bce_step, seen = wsddn._bce_step, set()

        def recording_step(x, targets, l2):
            loss_and_grad = bce_step(x, targets, l2)

            def step(w):
                loss, g = loss_and_grad(w)
                seen.add((x.shape[0], x.dtype, targets.dtype, w.dtype, g.dtype, loss.dtype))
                return loss, g
            return step

        monkeypatch.setattr(wsddn, "_bce_step", recording_step)
        heads = wsddn.train_heads(self.lockstep_fits(k, 6, 3, 3, 4, k), *self.SCHEDULE)
        f32 = np.dtype(np.float32)
        assert seen == {(k, f32, f32, f32, f32, f32)}
        for head in heads:
            for w in (head.w_rec, head.w_det):
                assert w.dtype == np.float64
                assert w.tobytes() == w.astype(np.float32).astype(np.float64).tobytes()
            assert all(type(v) is float for v in head.loss_by_epoch)

    def test_step_holds_five_units(self):
        """Building a lockstep step and running it once peaks below 5 units
        of C·R·K·N values (its three buffers), plus 10 (C, K, N)
        temporaries of the loss and its derivative and two arrays the size
        of g, in the dtype of x: 4-byte units as train_heads steps in
        float32, 8-byte ones as the gradient checks step in float64.  A step
        on six buffers (9 units) fails this."""
        k, n, r, d, c = 2, 100, 10, 16, 24
        x, targets, _, _ = self.pipeline_like(k * n, r, d, c, 1.0, k)
        w = np.random.default_rng(k).uniform(-0.5, 0.5, size=(k, d, 2 * c))
        for dtype in (np.float64, np.float32):
            args = x.reshape(k, n, r, d).astype(dtype), targets.reshape(k, n, c).astype(dtype), 1e-4
            wd = w.astype(dtype)
            tracing = tracemalloc.is_tracing()
            tracemalloc.start()
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            wsddn._bce_step(*args)(wd)
            peak = tracemalloc.get_traced_memory()[1] - base
            if not tracing:
                tracemalloc.stop()
            size = np.dtype(dtype).itemsize
            unit = c * r * k * n * size
            assert peak < 5 * unit + 10 * c * k * n * size + 2 * k * d * 2 * c * size, (dtype, peak / unit)

    def test_blas_thread_count_leaves_head_bytes(self):
        # 2000 rows x 80 dims against 48 gradient columns: one unblocked
        # reduction of this shape rounds differently at 1 and 2 OpenBLAS
        # threads.  The R = 1, C = 3 and R = 10, C = 4 heads are the species
        # protocol's image-level and region heads, in the class-major layout;
        # (504, 10, 160, 24) is the 24-individual head on (3, 16, 32)
        # features, whose float32 GEMMs no digest tree runs at D 160.
        script = textwrap.dedent("""
            import hashlib
            import numpy as np
            from camtrap import wsddn
            from camtrap.features import Region, RegionFeatures
            rng = np.random.default_rng(7)
            h = hashlib.sha256()
            for n, r, d, c in ((200, 10, 80, 24), (84, 1, 80, 3), (112, 10, 80, 4), (504, 10, 160, 24)):
                names = tuple(f"c{j}" for j in range(c))
                regions = tuple(Region(0, i, 1, i + 1) for i in range(r))
                ds = [(RegionFeatures(regions, rng.normal(size=(r, d))), wsddn.one_hot(names[i % c], names))
                      for i in range(n)]
                head = wsddn.train_head(ds, names, wsddn.HeadTrainConfig(epochs=3, learning_rate=2.0, seed=1))
                for arr in (head.w_rec, head.w_det, np.array(head.loss_by_epoch)):
                    h.update(arr.tobytes())
            print(h.hexdigest())
        """)
        src = str(Path(wsddn.__file__).resolve().parents[1])
        digests = set()
        for threads in ("1", "2", "3"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                                 text=True, check=True, timeout=120)
            digests.add(out.stdout.strip())
        assert len(digests) == 1


def every_iteration(monkeypatch):
    """Make each head's curve hold its loss after every accepted iteration."""
    monkeypatch.setattr(wsddn, "curve_epochs", lambda iterations: tuple(range(iterations + 1)))


def counting_step(monkeypatch):
    """Count the loss-and-gradient evaluations of every `_bce_step` built
    from now on, one list entry per step."""
    bce_step, counts = wsddn._bce_step, []

    def step(x, targets, l2):
        loss_and_grad = bce_step(x, targets, l2)
        counts.append(0)
        index = len(counts) - 1

        def evaluate(w):
            counts[index] += 1
            return loss_and_grad(w)
        return evaluate

    monkeypatch.setattr(wsddn, "_bce_step", step)
    return counts


class TestStepRule:
    """The L-BFGS rule's own checks: it never accepts a rise, never passes
    its evaluation cap, and records its curve at the curve epochs of the
    iterations it ran."""

    SCHEDULES = [(40, 8.0, 1e-4), (300, 8.0, 1e-4), (300, 15.0, 1e-4), (60, 0.5, 0.0)]

    def test_no_accepted_iteration_raises_species_head_loss(self, monkeypatch):
        # the three heads of the seed-7 default species comparison
        every_iteration(monkeypatch)
        train_heads, heads = wsddn.train_heads, []

        def recording(*args):
            heads.extend(train_heads(*args))
            return heads

        monkeypatch.setattr(ex.wsddn, "train_heads", recording)
        cfg = ex.ExperimentConfig(protocol="species", synth_config=synth.SynthConfig(seed=7), n_seeds=1, base_seed=7)
        ex.run_species_comparison(cfg)
        assert len(heads) == 3
        for head in heads:
            curve = head.loss_by_epoch
            assert len(curve) > 20
            assert all(b <= a for a, b in zip(curve, curve[1:])), head.class_names

    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_no_accepted_iteration_raises_random_fit_loss(self, schedule, monkeypatch):
        every_iteration(monkeypatch)
        fits = TestTraining.lockstep_fits(3, 16, 3, 4, 12, 1) + TestTraining.lockstep_fits(2, 40, 1, 3, 20, 2)
        for head in wsddn.train_heads(fits, *schedule):
            curve = head.loss_by_epoch
            assert len(curve) >= 2
            assert all(b <= a for a, b in zip(curve, curve[1:]))

    @pytest.mark.parametrize("epochs", [1, 2, 7, 40, 300])
    def test_evaluations_capped_at_epochs_plus_one(self, epochs, monkeypatch):
        counts = counting_step(monkeypatch)
        fits = TestTraining.lockstep_fits(3, 16, 3, 4, 12, epochs)
        for fit in fits:
            TestTraining.alone(fit, (epochs, 8.0, 1e-4))
        alone = list(counts)
        assert len(alone) == 3 and all(2 <= n <= epochs + 1 for n in alone)
        assert (max(alone) == epochs + 1) == (epochs < 300)  # the cap binds until the fits converge first
        # in lockstep one call evaluates the group, until its last fit stops
        counts.clear()
        wsddn.train_heads(fits, epochs, 8.0, 1e-4)
        assert counts == [max(alone)]

    # (1, 1e4, 1e-4): the one trial step overshoots, so no iteration is accepted
    @pytest.mark.parametrize("schedule", SCHEDULES + [(1, 1e4, 1e-4)])
    def test_curve_is_accepted_losses_at_curve_epochs(self, schedule, monkeypatch):
        fits = TestTraining.lockstep_fits(3, 16, 3, 4, 12, 3)
        heads = wsddn.train_heads(fits, *schedule)
        every_iteration(monkeypatch)
        full = wsddn.train_heads(fits, *schedule)
        for head, every, (ds, _, _) in zip(heads, full, fits):
            assert head.w_rec.tobytes() == every.w_rec.tobytes()
            curve = every.loss_by_epoch
            assert len(curve) == 1 if schedule[1] == 1e4 else len(curve) > 2
            assert head.loss_by_epoch == [curve[e] for e in svm.curve_epochs(len(curve) - 1)]
            x = np.stack([rf.matrix for rf, _ in ds]).astype(np.float32)
            targets = np.stack([t for _, t in ds]).astype(np.float32)
            final = wsddn._bce_loss_and_grad(x, targets, head.w_rec.astype(np.float32),
                                             head.w_det.astype(np.float32), schedule[2])[0]
            assert np.float64(head.loss_by_epoch[-1]).tobytes() == np.float64(final).tobytes()


class TestHelpers:
    def test_one_hot(self):
        assert np.array_equal(wsddn.one_hot("b", ("a", "b", "c")), np.array([0.0, 1.0, 0.0]))

    def test_head_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        # plain names keep the space-joined classes line; others are quoted as CSV
        for names, line in ((("x", "y"), "classes x y"), (("tiger one", "a,b"), 'classes "tiger one" a,b')):
            head = rand_head(rng, 3, 2, names)
            path = tmp_path / "h.txt"
            wsddn.save_head(head, path)
            loaded = wsddn.load_head(path)
            assert np.array_equal(loaded.w_rec, head.w_rec)
            assert np.array_equal(loaded.w_det, head.w_det)
            assert loaded.class_names == head.class_names
            assert path.read_text().splitlines()[1] == line

    def test_trained_head_file_round_trip(self, tmp_path):
        # train -> save_head -> load_head, the CLI's path: the float64 repr
        # of each float32-trained weight reads back to the same bits, and the
        # loaded head ranks every image as the trained one does
        fit = TestTraining.lockstep_fits(1, 12, 10, 4, 16, 3)[0]
        head = TestTraining.alone(fit, (20, 8.0, 1e-4))
        path = tmp_path / "h.head"
        wsddn.save_head(head, path)
        loaded = wsddn.load_head(path)
        assert loaded.w_rec.dtype == loaded.w_det.dtype == np.float64
        assert loaded.w_rec.tobytes() == head.w_rec.tobytes()
        assert loaded.w_det.tobytes() == head.w_det.tobytes()
        for rf, _ in fit[0]:
            for k in (None, 3):
                assert wsddn.rank_classes(rf, loaded, k) == wsddn.rank_classes(rf, head, k)

    def test_bad_magic(self, tmp_path):
        # every malformed file is a ValueError naming the file
        magic = "camtrap-two-stream-head v1\n"
        for n, text in enumerate((
            "nope\n",
            magic,
            magic + "classes a b\n",
            magic + "classes a b\nshape 1 2\n1.0 2.0\n",
            magic + "classes a b\nsize 1 2\n1.0 2.0\n3.0 4.0\n",
            magic + "classes a b\nshape 1 2\n1.0 x\n3.0 4.0\n",
            magic + "classes a b\nshape 1 2\n1.0 2.0\n3.0\n",
            magic + "classes a b c\nshape 1 2\n1.0 2.0\n3.0 4.0\n",
        )):
            path = tmp_path / f"h{n}.txt"
            path.write_text(text)
            with pytest.raises(ValueError, match=path.name):
                wsddn.load_head(path)
