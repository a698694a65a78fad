import numpy as np
import pytest

from fairavi import autodiff as ad
from fairavi import data as dt
from fairavi import evaluation as ev
from fairavi.errors import ContractError
from fairavi.model import HireabilityModel
from tests.conftest import tiny_dims, tiny_generator_config


def brute_force_auc(scores, labels):
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = ties = 0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1
            elif p == n:
                ties += 1
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def loop_midranks(x):
    """Reference: walk the sorted scores, one tie run at a time."""
    order = np.argsort(x, kind="mergesort")
    ranks = np.empty(x.size, dtype=np.float64)
    sx = x[order]
    i = 0
    while i < x.size:
        j = i
        while j + 1 < x.size and sx[j + 1] == sx[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


class TestAuc:
    @pytest.mark.parametrize("kind", ["tied", "all-tied", "no-ties"])
    def test_midranks_match_loop_bitwise(self, kind):
        rng = np.random.default_rng(3)
        x = {"tied": np.round(rng.standard_normal(299), 1),
             "all-tied": np.full(57, 0.25),
             "no-ties": rng.standard_normal(299)}[kind]
        assert ev._midranks(x).tobytes() == loop_midranks(x).tobytes()

    def test_perfect_ranking(self):
        scores = np.array([0.1, 0.2, 0.8, 0.9])
        assert ev.auc(scores, [0, 0, 1, 1]) == 1.0

    def test_all_tied_is_half(self):
        assert ev.auc(np.full(10, 0.3), [0, 1] * 5) == 0.5

    def test_matches_brute_force_with_ties(self):
        rng = np.random.default_rng(0)
        for seed in range(50):
            r = np.random.default_rng(seed)
            n = int(r.integers(10, 300))
            scores = np.round(r.standard_normal(n), 1)  # rounding forces ties
            labels = (r.random(n) < 0.4).astype(int)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            assert abs(ev.auc(scores, labels) - brute_force_auc(scores, labels)) < 1e-12

    def test_single_class_undefined(self):
        with pytest.raises(ev.UndefinedMetricError):
            ev.auc(np.array([0.3, 0.4]), [1, 1])

    def test_invariant_under_increasing_transforms(self):
        rng = np.random.default_rng(4)
        scores = rng.standard_normal(200)
        labels = (rng.random(200) < 0.5).astype(int)
        base = ev.auc(scores, labels)
        assert abs(ev.auc(np.exp(scores), labels) - base) < 1e-12
        assert abs(ev.auc(3.0 * scores + 7.0, labels) - base) < 1e-12


class TestMacroOvr:
    def test_two_class_reduces_to_binary(self):
        rng = np.random.default_rng(5)
        p = rng.uniform(0, 1, 80)
        labels = (rng.random(80) < 0.5).astype(int)
        scores = np.stack([1 - p, p], axis=1)
        assert abs(ev.macro_ovr_auc(scores, labels) - ev.auc(p, labels)) < 1e-12

    def test_one_hot_scores_are_perfect(self):
        labels = np.array([0, 1, 2, 1, 0, 2])
        scores = np.eye(3)[labels]
        assert ev.macro_ovr_auc(scores, labels) == 1.0

    def test_matches_mean_of_brute_force(self):
        rng = np.random.default_rng(6)
        scores = rng.random((60, 3))
        labels = rng.integers(0, 3, 60)
        expected = np.mean([brute_force_auc(scores[:, c], (labels == c).astype(int))
                            for c in range(3)])
        assert abs(ev.macro_ovr_auc(scores, labels) - expected) < 1e-12

    def test_absent_class_skipped_with_warning(self):
        rng = np.random.default_rng(7)
        scores = rng.random((40, 3))
        labels = rng.integers(0, 2, 40)  # class 2 never appears
        with pytest.warns(UserWarning, match="class 2"):
            value = ev.macro_ovr_auc(scores, labels)
        expected = np.mean([brute_force_auc(scores[:, c], (labels == c).astype(int))
                            for c in range(2)])
        assert abs(value - expected) < 1e-12


class TestDisparateImpact:
    def test_reported_gender_rate_table(self):
        assert abs(ev.di_from_rates([0.560, 0.495]) - 0.883) <= 0.001

    def test_reported_ethnicity_rate_table(self):
        assert abs(ev.di_from_rates([0.570, 0.541, 0.434]) - 0.761) <= 0.001

    def test_equal_rates_give_one(self):
        outcomes = [1, 0, 1, 0]
        groups = ["a", "a", "b", "b"]
        assert ev.disparate_impact(outcomes, groups) == 1.0

    def test_group_renaming_invariance(self):
        rng = np.random.default_rng(8)
        outcomes = (rng.random(100) < 0.5).astype(int)
        groups = rng.integers(0, 3, 100)
        renamed = np.array(["xyz"[g] for g in groups])
        assert ev.disparate_impact(outcomes, groups) == \
            ev.disparate_impact(outcomes, renamed)

    def test_bounded_unit_interval(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            outcomes = (rng.random(50) < rng.uniform(0.2, 0.8)).astype(int)
            groups = rng.integers(0, 2, 50)
            if len(set(groups)) < 2:
                continue
            try:
                di = ev.disparate_impact(outcomes, groups)
            except ev.UndefinedMetricError:
                continue
            assert 0.0 <= di <= 1.0

    def test_empty_group_undefined(self):
        with pytest.raises(ev.UndefinedMetricError, match="empty"):
            ev.disparate_impact([1, 0], ["a", "a"], expected_groups=["a", "b"])

    def test_all_zero_rates_undefined(self):
        with pytest.raises(ev.UndefinedMetricError):
            ev.disparate_impact([0, 0, 0, 0], ["a", "a", "b", "b"])


class FakeClip:
    def __init__(self, video_id, y=0, split=""):
        self.video_id = video_id
        self.y = y
        self.split = split


class TestOverlapAudit:
    def test_disjoint_is_zero(self):
        train = [FakeClip(f"v{i}") for i in range(10)]
        test = [FakeClip(f"w{i}") for i in range(5)]
        assert ev.audit_overlap(train, test) == 0.0

    def test_constructed_84_percent(self):
        train = [FakeClip(f"v{i}") for i in range(100)]
        test = [FakeClip(f"v{i}") for i in range(84)] + \
               [FakeClip(f"u{i}") for i in range(16)]
        assert ev.audit_overlap(train, test) == 0.84

    def test_full_overlap(self):
        train = [FakeClip("v0"), FakeClip("v1")]
        test = [FakeClip("v0"), FakeClip("v1"), FakeClip("v0")]
        assert ev.audit_overlap(train, test) == 1.0

    def test_empty_test_undefined(self):
        with pytest.raises(ev.UndefinedMetricError):
            ev.audit_overlap([FakeClip("v0")], [])


def naive_speaker_baseline(train_samples, test_samples, extra_samples=()) -> np.ndarray:
    """Score each test clip by its candidate's mean train label; clips of
    unseen candidates get the pooled train(+extra) mean label."""
    if not train_samples:
        raise ContractError("naive baseline requires a non-empty train split")
    sums: dict = {}
    for s in train_samples:
        tot, cnt = sums.get(s.video_id, (0.0, 0))
        sums[s.video_id] = (tot + s.y, cnt + 1)
    pool = list(train_samples) + list(extra_samples)
    fallback = float(np.mean([s.y for s in pool]))
    out = np.empty(len(test_samples))
    for i, s in enumerate(test_samples):
        if s.video_id in sums:
            tot, cnt = sums[s.video_id]
            out[i] = tot / cnt
        else:
            out[i] = fallback
    return out


class TestNaiveBaseline:
    def test_mean_of_seen_video(self):
        train = [FakeClip("v0", 1), FakeClip("v0", 1), FakeClip("v0", 0)]
        scores = naive_speaker_baseline(train, [FakeClip("v0")])
        assert abs(scores[0] - 2 / 3) < 1e-15

    def test_unseen_video_gets_global_mean(self):
        train = [FakeClip("v0", 1), FakeClip("v1", 0)]
        extra = [FakeClip("v2", 1), FakeClip("v3", 0), FakeClip("v4", 0)]
        scores = naive_speaker_baseline(train, [FakeClip("zz")], extra)
        assert abs(scores[0] - 2 / 5) < 1e-15

    def test_leaked_split_beats_disjoint_at_beta_zero(self):
        samples = dt.generate_synthetic(tiny_generator_config(n=1200, bias=0.0, seed=31))
        groups = {}
        for s in samples:
            groups.setdefault(s.video_id, []).append(s)
        multi = [g for g in groups.values() if len(g) >= 2]
        # leaked: split each multi-clip video between train and test
        leaked_train, leaked_test = [], []
        for g in multi:
            leaked_train.extend(g[:-1])
            leaked_test.append(g[-1])
        # disjoint: whole videos on one side
        disjoint_train = [s for g in multi[: len(multi) // 2] for s in g]
        disjoint_test = [s for g in multi[len(multi) // 2:] for s in g]
        auc_leak = ev.auc(naive_speaker_baseline(leaked_train, leaked_test),
                          [s.y for s in leaked_test])
        auc_disj = ev.auc(naive_speaker_baseline(disjoint_train, disjoint_test),
                          [s.y for s in disjoint_test])
        assert auc_leak > auc_disj

    def test_empty_train_rejected(self):
        with pytest.raises(ContractError):
            naive_speaker_baseline([], [FakeClip("v0")])


class TestProbes:
    def test_separable_blobs(self):
        rng = np.random.default_rng(10)
        x0 = rng.standard_normal((150, 4)) + np.array([4, 0, 0, 0])
        x1 = rng.standard_normal((150, 4)) - np.array([4, 0, 0, 0])
        x = np.vstack([x0, x1])
        z = np.array([0] * 150 + [1] * 150)
        order = rng.permutation(300)
        x, z = x[order], z[order]
        probe, _ = ev.fit_probe(x[:200], z[:200], x[200:250], z[200:250])
        assert ev.auc(ev.probe_scores(probe, x[250:]), z[250:]) >= 0.999

    def test_permuted_labels_score_at_chance(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((2000, 8))
        z = rng.permutation((np.arange(2000) % 2))
        probe, _ = ev.fit_probe(x[:1200], z[:1200], x[1200:1600], z[1200:1600])
        value = ev.auc(ev.probe_scores(probe, x[1600:]), z[1600:])
        assert 0.45 <= value <= 0.55

    def test_three_class_disjoint_supports(self):
        rng = np.random.default_rng(12)
        z = rng.integers(0, 3, 600)
        x = 0.1 * rng.standard_normal((600, 6))
        for c in range(3):
            x[z == c, 2 * c] += 5.0
        probe, _ = ev.fit_probe(x[:400], z[:400], x[400:500], z[400:500])
        assert ev.macro_ovr_auc(ev.probe_scores(probe, x[500:]), z[500:]) >= 0.99

    def test_single_class_rejected(self):
        x = np.zeros((10, 3))
        with pytest.raises(ContractError, match="single class"):
            ev.fit_probe(x, np.zeros(10), x, np.zeros(10))

    def test_huge_strength_zeroes_weights(self, monkeypatch):
        monkeypatch.setattr(ev, "MAX_ITER", 2000)
        rng = np.random.default_rng(13)
        x = rng.standard_normal((200, 5))
        z = (x[:, 0] > 0).astype(float)
        w, _ = ev._fit_logistic(x, np.tile(z, (2, 1)), [1e12] * 2, [True, False])
        assert np.abs(w).max() < 1e-6

    def test_diagnose_reports_selected_penalty(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((300, 4))
        z = (x @ np.array([2.0, -1.0, 0, 0]) + 0.3 * rng.standard_normal(300) > 0)
        z = z.astype(int)
        out = ev.diagnose(x[:200], z[:200], x[200:250], z[200:250], x[250:], z[250:])
        assert set(out) == {"val_auc", "auc", "acc", "penalty", "strength"}
        assert out["auc"] > 0.9
        assert out["penalty"] in ("l1", "l2")

    def test_tied_penalties_keep_l2_at_the_smallest_strength(self):
        # separable blobs: every weak enough probe ranks val perfectly
        rng = np.random.default_rng(16)
        z = np.arange(300) % 2
        x = rng.standard_normal((300, 3)) + 4.0 * np.outer(2 * z - 1, [1, 0, 0])
        out = ev.diagnose(x[:200], z[:200], x[200:250], z[200:250], x[250:], z[250:])
        assert (out["penalty"], out["strength"], out["val_auc"]) == ("l2", ev.STRENGTHS[0], 1.0)
        for s in ev.STRENGTHS[:2]:      # l1 ties at the two smallest strengths
            w, b, _, _ = reference_fit(x[:200], z[:200].astype(float), "l1", s)
            assert ev.auc(ad.logistic(x[200:250] @ w + b), z[200:250]) == 1.0


def reference_fit(h, y, penalty, strength):
    """One logistic fit at one strength, as a plain per-row loop reading the
    probe constants of `ev`; returns (w, b, iterations run, the step size of
    every iteration)."""
    n, d = h.shape
    aug = np.hstack([h, np.ones((n, 1))])
    lipschitz = np.linalg.norm(aug, 2) ** 2 / (4.0 * n)
    step = 1.0 / (lipschitz + (strength if penalty == "l2" else 0.0))
    w = 1e-3 * np.random.default_rng(ev.PROBE_SEED).standard_normal(d)
    b = 0.0
    deltas = []
    for it in range(1, ev.MAX_ITER + 1):
        p = ad.logistic(h @ w + b)
        gw = h.T @ (p - y) / n
        gb = float((p - y).mean())
        if penalty == "l2":
            new_w = w - step * (gw + strength * w)
        else:
            x, t = w - step * gw, step * strength
            new_w = np.sign(x) * np.maximum(np.abs(x) - t, 0.0)
        new_b = b - step * gb
        delta = np.linalg.norm(new_w - w) + abs(new_b - b)
        deltas.append(delta)
        w, b = new_w, new_b
        if delta < ev.TOL:
            break
    return w, b, it, deltas


class TestStackedProbeFit:
    """The stacked fit gives every (penalty, strength, class) row the bytes
    of a fit of that row alone."""

    @pytest.mark.parametrize("first", ["l1", "l2"])
    @pytest.mark.parametrize("n_classes", [2, 3])
    def test_rows_match_per_strength_loop_bitwise(self, first, n_classes, monkeypatch):
        # both penalties' rows in one call, either penalty first
        monkeypatch.setattr(ev, "MAX_ITER", 150)
        rng = np.random.default_rng(40 + n_classes)
        h = np.tanh(rng.standard_normal((180, 6)))
        z = (h[:, 0] + h[:, 1] + 0.5 * rng.standard_normal(180) > 0).astype(int)
        if n_classes == 3:
            z = z + (h[:, 2] > 0.6)
        targets = (z == 1)[None] if n_classes == 2 else np.stack([z == c for c in range(3)])
        monkeypatch.setattr(ev, "TOL", 1e-7)
        penalties = sorted(ev.PENALTIES, key=lambda p: p != first)
        rows = [(p, s, c) for p in penalties for s in ev.STRENGTHS for c in range(len(targets))]
        w_fit, b_fit = ev._fit_logistic(h, np.array([targets[c] for _, _, c in rows]),
                                        [s for _, s, _ in rows],
                                        [p == "l1" for p, _, _ in rows])
        stops = set()
        for w_row, b_row, (p, s, c) in zip(w_fit, b_fit, rows):
            w, b, iters, _ = reference_fit(h, targets[c].astype(float), p, s)
            assert w_row.tobytes() == w.tobytes(), (p, s, c)
            assert np.float64(b_row).tobytes() == np.float64(b).tobytes(), (p, s, c)
            stops.add(iters < ev.MAX_ITER)
        assert stops == {True, False}   # some rows froze early, others ran out

    @pytest.mark.parametrize("penalty", ["l1", "l2"])
    def test_stops_on_the_same_iteration_at_the_tolerance_edge(self, penalty, monkeypatch):
        # tol set to a step size the loop produces, and to the next float
        # above it: a step norm one ulp off the reference stops a row one
        # iteration early or late.
        rng = np.random.default_rng(45)
        h = np.tanh(rng.standard_normal((120, 7)))
        y = (h[:, 0] - h[:, 3] + 0.3 * rng.standard_normal(120) > 0).astype(float)
        monkeypatch.setattr(ev, "MAX_ITER", 40)
        monkeypatch.setattr(ev, "TOL", 0.0)
        *_, deltas = reference_fit(h, y, penalty, 1e-2)
        for k in range(4, 40, 3):
            for tol in (deltas[k], np.nextafter(deltas[k], np.inf)):
                monkeypatch.setattr(ev, "TOL", tol)
                w, b, iters, _ = reference_fit(h, y, penalty, 1e-2)
                w_fit, b_fit = ev._fit_logistic(h, np.tile(y, (3, 1)), [1e-2] * 3,
                                                [penalty == "l1"] * 3)
                for w_row, b_row in zip(w_fit, b_fit):
                    assert w_row.tobytes() == w.tobytes(), (k, tol, iters)
                    assert np.float64(b_row).tobytes() == np.float64(b).tobytes()

    def test_fit_probe_selects_the_per_strength_loop_choice(self, monkeypatch):
        monkeypatch.setattr(ev, "MAX_ITER", 100)
        rng = np.random.default_rng(44)
        h = rng.standard_normal((300, 6))
        z = rng.integers(0, 3, 300)
        h[:, 0] += z
        best, val_auc = ev.fit_probe(h[:200], z[:200], h[200:], z[200:])
        grid = [(p, s) for p in ("l2", "l1") for s in ev.STRENGTHS]
        aucs = []
        for p, s in grid:
            fits = [reference_fit(h[:200], (z[:200] == c).astype(float), p, s)
                    for c in range(3)]
            scores = np.stack([ad.logistic(h[200:] @ w + b) for w, b, _, _ in fits], axis=1)
            aucs.append(ev.macro_ovr_auc(scores, z[200:]))
        assert (best.penalty, best.strength) == grid[int(np.argmax(aucs))]
        assert val_auc == max(aucs)
        chosen = [reference_fit(h[:200], (z[:200] == c).astype(float), best.penalty,
                                best.strength)[0] for c in range(3)]
        assert [w.tobytes() for w in best.w] == [w.tobytes() for w in chosen]


class TestRepresentations:
    def test_extract_requires_trained_flag(self, tiny_dataset):
        m = HireabilityModel("multimodal", "unprotected", tiny_dims(), seed=0)
        with pytest.raises(ContractError, match="trained"):
            ev.extract_representations(m, tiny_dataset[:4])

    def test_extract_shape_range_and_determinism(self, tiny_dataset):
        m = HireabilityModel("multimodal", "unprotected", tiny_dims(), seed=0)
        m.trained = True
        reps = ev.extract_representations(m, tiny_dataset[:10])
        again = ev.extract_representations(m, tiny_dataset[:10])
        assert reps.h.shape == (10, tiny_dims().trunk_width)
        assert np.array_equal(reps.h, again.h)
        assert (np.abs(reps.h) < 1.0).all()
        assert list(reps.y) == [s.y for s in tiny_dataset[:10]]


class TestReport:
    def test_csv_and_markdown_schema(self, tmp_path):
        rep = ev.MetricsReport(model_name="unprotected/multimodal",
                               hire_acc=0.7, hire_auc=0.8,
                               diag_auc={"gender": 0.6}, diag_acc={"gender": 0.55},
                               di_labels={"gender": 0.88},
                               di_predictions={"gender": 0.9})
        path = tmp_path / "m.csv"
        rep.to_csv(path)
        header, row = path.read_text().strip().splitlines()
        assert header.split(",")[:3] == ["model", "hire_acc", "hire_auc"]
        assert "diag_auc_gender" in header and "di_pred_ethnicity" in header
        md = rep.to_markdown()
        for col in ("Hireability ACC", "Hireability AUC", "AUC Gender",
                    "AUC Ethnicity", "DI Gender", "DI Ethnicity"):
            assert col in md
        assert "0.600" in md and "-" in md  # ethnicity column empty for C=2 data
