"""Confusion-matrix and metric tests, anchored on an exact-rational fixture
(tests/fixtures/survey_*.csv) and brute-force loop oracles."""

import csv
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from camtrap import metrics as mt

FIXTURES = Path(__file__).parent / "fixtures"


def load_survey_matrix():
    with open(FIXTURES / "survey_confusion.csv", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        classes = header[1:]
        counts = np.array([[int(v) for v in row[1:]] for row in reader], dtype=np.int64)
    return mt.ConfusionMatrix(counts=counts, class_names=classes)


def load_survey_metrics():
    out = {}
    with open(FIXTURES / "survey_metrics.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            out[row["class"]] = {k: Fraction(v) for k, v in row.items() if k != "class"}
    return out


class TestSurveyFixture:
    def test_marginals(self):
        cm = load_survey_matrix()
        assert cm.total == 2823
        bear = cm.class_names.index("bear")
        assert int(cm.counts[bear].sum()) == 126  # predicted-row marginal (TP+FP)
        assert int(cm.counts[:, bear].sum()) == 131  # true-column marginal (TP+FN)
        bc = mt.binary_counts(cm, "bear")
        assert (bc.tp, bc.fp, bc.fn) == (108, 18, 23)

    def test_exact_rational_metrics(self):
        cm = load_survey_matrix()
        expected = load_survey_metrics()
        for name in cm.class_names:
            bc = mt.binary_counts(cm, name)
            got = {
                "precision": mt.precision(bc),
                "sensitivity": mt.sensitivity(bc),
                "specificity": mt.specificity(bc),
                "accuracy": mt.accuracy(bc),
                "fp_rate_pct": mt.fp_rate(bc),
                "fn_rate_pct": mt.fn_rate(bc),
            }
            for key, frac in expected[name].items():
                assert abs(got[key] - float(frac)) < 1e-12, (name, key)

    def test_known_values(self):
        cm = load_survey_matrix()
        bear = mt.binary_counts(cm, "bear")
        assert abs(mt.precision(bear) - 108 / 126) < 1e-12
        assert abs(mt.sensitivity(bear) - 108 / 131) < 1e-12
        assert abs(mt.fp_rate(bear) - 100 * 18 / 108) < 1e-12
        assert abs(mt.fn_rate(bear) - 100 * 23 / 108) < 1e-12
        chital = mt.binary_counts(cm, "chital")
        assert abs(mt.precision(chital) - 320 / 339) < 1e-12
        assert abs(mt.sensitivity(chital) - 320 / 328) < 1e-12

    def test_totals_identity(self):
        cm = load_survey_matrix()
        for name in cm.class_names:
            bc = mt.binary_counts(cm, name)
            assert bc.total == cm.total


class TestAccumulate:
    def test_empty(self):
        cm = mt.accumulate([], ["a", "b"])
        assert cm.total == 0

    def test_all_correct_is_diagonal(self):
        cm = mt.accumulate([("a", "a"), ("b", "b"), ("a", "a")], ["a", "b"])
        assert np.array_equal(cm.counts, np.diag([2, 1]))
        for name in ("a", "b"):
            bc = mt.binary_counts(cm, name)
            assert bc.fp == 0 and bc.fn == 0

    def test_unknown_label(self):
        with pytest.raises(ValueError):
            mt.accumulate([("x", "a")], ["a", "b"])
        with pytest.raises(ValueError):
            mt.accumulate([("a", "x")], ["a", "b"])

    def test_random_vs_loop_oracle(self):
        rng = np.random.default_rng(7)
        classes = ["a", "b", "c"]
        pairs = [
            (classes[rng.integers(3)], classes[rng.integers(3)]) for _ in range(50)
        ]
        cm = mt.accumulate(pairs, classes)
        tally = np.zeros((3, 3), dtype=int)
        for p, t in pairs:
            tally[classes.index(p), classes.index(t)] += 1
        assert np.array_equal(cm.counts, tally)


class TestMetricFormulas:
    def test_perfect_classifier(self):
        bc = mt.BinaryCounts(tp=1, tn=1, fp=0, fn=0)
        assert mt.sensitivity(bc) == 1.0
        assert mt.specificity(bc) == 1.0
        assert mt.precision(bc) == 1.0
        assert mt.accuracy(bc) == 1.0

    def test_zero_denominators_are_undefined(self):
        bc = mt.BinaryCounts(tp=0, tn=5, fp=0, fn=0)
        assert mt.sensitivity(bc) is None
        assert mt.precision(bc) is None
        assert mt.fp_rate(bc) is None
        assert mt.fn_rate(bc) is None
        assert mt.specificity(bc) == 1.0

    def test_fp_rate_zero_fp(self):
        bc = mt.BinaryCounts(tp=4, tn=0, fp=0, fn=2)
        assert mt.fp_rate(bc) == 0.0

    def test_scale_invariance(self):
        a = mt.BinaryCounts(tp=3, tn=5, fp=2, fn=1)
        b = mt.BinaryCounts(tp=6, tn=10, fp=4, fn=2)
        for f in (mt.sensitivity, mt.specificity, mt.precision, mt.accuracy, mt.fp_rate, mt.fn_rate):
            assert abs(f(a) - f(b)) < 1e-12

    def test_report_renders_undefined(self):
        cm = mt.accumulate([("a", "a")], ["a", "b"])
        rows = mt.metrics_report(cm)
        assert rows[1]["class"] == "b" and rows[1]["sensitivity"] is None
        assert "undefined" in mt.format_summary(rows)


class TestTopK:
    def test_k1_matches_confusion_diagonal(self):
        rankings = [["a", "b"], ["b", "a"], ["a", "b"]]
        truths = ["a", "a", "b"]
        cm = mt.accumulate([(r[0], t) for r, t in zip(rankings, truths)], ["a", "b"])
        assert mt.topk_accuracy(rankings, truths, 1) == np.trace(cm.counts) / cm.total

    def test_k_equals_c_is_one(self):
        rankings = [["a", "b", "c"]] * 4
        assert mt.topk_accuracy(rankings, ["c", "a", "b", "c"], 3) == 1.0

    def test_monotone_in_k(self):
        rng = np.random.default_rng(11)
        classes = ["a", "b", "c", "d"]
        rankings, truths = [], []
        for _ in range(30):
            rankings.append(list(rng.permutation(classes)))
            truths.append(classes[rng.integers(4)])
        accs = [mt.topk_accuracy(rankings, truths, k) for k in range(1, 5)]
        assert all(accs[i] <= accs[i + 1] for i in range(3))
        assert accs[-1] == 1.0

    def test_short_ranking_rejected(self):
        with pytest.raises(ValueError):
            mt.topk_accuracy([["a"]], ["a"], 2)


class TestCsvOutput:
    def test_confusion_layout_marginals(self, tmp_path):
        cm = load_survey_matrix()
        path = tmp_path / "confusion.csv"
        mt.write_confusion_csv(cm, path)
        rows = list(csv.reader(open(path)))
        assert rows[0][-1] == "TP+FP"
        assert rows[-1][0] == "TP+FN"
        assert rows[1][0] == "bear" and rows[1][-1] == "126"
        assert rows[-1][1] == "131" and rows[-1][-1] == "2823"

    def test_metrics_csv_roundtrip_values(self, tmp_path):
        cm = load_survey_matrix()
        path = tmp_path / "metrics.csv"
        mt.write_rows_csv(path, mt.metrics_report(cm))
        rows = {r["class"]: r for r in csv.DictReader(open(path))}
        assert float(rows["bear"]["precision"]) == 108 / 126
        assert rows["bear"]["support"] == "131"
