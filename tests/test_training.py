import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from fairavi import autodiff as ad
from fairavi import layers as ly
from fairavi import training as tr
from fairavi.errors import ConfigError, ContractError
from fairavi.model import VARIANTS, HireabilityModel, adversary_shapes
from tests.conftest import tiny_dims


class TestBce:
    def test_perfect_prediction_is_zero(self):
        assert float(tr.bce_loss(ad.constant([1.0]), [1.0]).value) < 1e-11

    def test_half_is_ln2(self):
        loss = float(tr.bce_loss(ad.constant([0.5]), [1.0]).value)
        assert abs(loss - math.log(2)) < 1e-12

    def test_random_batch_matches_formula(self, rng):
        y = (rng.random(40) < 0.5).astype(float)
        p = rng.uniform(0.01, 0.99, 40)
        loss = float(tr.bce_loss(ad.constant(p), y).value)
        direct = -np.mean(y * np.log(p) + (1 - y) * np.log(1 - p))
        assert abs(loss - direct) < 1e-12

    def test_empty_batch(self):
        with pytest.raises(ContractError, match="empty"):
            tr.bce_loss(ad.constant(np.zeros(0)), np.zeros(0))


class TestMseFace:
    def test_zero_residual(self, rng):
        w = rng.standard_normal((5, 2))
        assert float(tr.mse_face_loss(ad.constant(w), w).value) == 0.0

    def test_unit_residual_single_sample(self):
        loss = tr.mse_face_loss(ad.constant([[0.0, 0.0]]), np.array([[1.0, 0.0]]))
        assert abs(float(loss.value) - 1.0) < 1e-15

    def test_random_batch_matches_residual_norms(self, rng):
        pred = rng.standard_normal((8, 3))
        target = rng.standard_normal((8, 3))
        loss = float(tr.mse_face_loss(ad.constant(pred), target).value)
        direct = np.mean(np.sum((target - pred) ** 2, axis=1))
        assert abs(loss - direct) < 1e-12

    def test_width_mismatch(self, rng):
        with pytest.raises(ad.ShapeMismatch):
            tr.mse_face_loss(ad.constant(rng.standard_normal((4, 2))),
                             rng.standard_normal((4, 16)))


def onehot(z, n_classes: int) -> np.ndarray:
    z = np.asarray(z, dtype=int)
    out = np.zeros((z.size, n_classes))
    out[np.arange(z.size), z] = 1.0
    return out


def onehot_cce(z_hat, z_onehot):
    """The categorical loss on one-hot rows that ns_loss on class indices
    replaced, kept as the reference that ns_loss must match bit for bit."""
    p = ad.clip(ad.constant(z_hat), 1e-12, 1.0)
    return ad.neg(ad.mean(ad.sum_(ad.mul(ad.constant(z_onehot), ad.log(p)), axis=-1)))


class TestNsLoss:
    def test_uniform_five_is_ln5(self):
        p = np.full((3, 5), 0.2)
        loss = float(tr.ns_loss(ad.constant(p), [0, 3, 4]).value)
        assert abs(loss - math.log(5)) < 1e-12

    def test_certain_positive_is_zero(self):
        p = np.array([[0.0, 1.0, 0.0]])
        assert float(tr.ns_loss(ad.constant(p), [1]).value) < 1e-11

    def test_confident_correct_class_is_zero(self):
        p = np.array([[1.0, 0.0, 0.0]])
        assert float(tr.ns_loss(ad.constant(p), [0]).value) < 1e-11

    def test_uniform_three_is_ln3(self):
        p = np.full((4, 3), 1.0 / 3)
        loss = float(tr.ns_loss(ad.constant(p), [0, 1, 2, 1]).value)
        assert abs(loss - math.log(3)) < 1e-12

    def test_two_class_equivalence_with_bce(self, rng):
        y = (rng.random(30) < 0.5).astype(int)
        p1 = rng.uniform(0.05, 0.95, 30)
        two_col = np.stack([1 - p1, p1], axis=1)
        assert abs(float(tr.ns_loss(ad.constant(two_col), y).value)
                   - float(tr.bce_loss(ad.constant(p1), y.astype(float)).value)) < 1e-12

    def test_equals_cce_on_converted_inputs(self, rng):
        p = rng.dirichlet(np.ones(5), size=12)
        pos = rng.integers(0, 5, size=12)
        a = float(tr.ns_loss(ad.constant(p), pos).value)
        b = float(onehot_cce(ad.constant(p), onehot(pos, 5)).value)
        assert abs(a - b) < 1e-12

    def test_positive_index_out_of_range(self):
        with pytest.raises(ContractError, match="out of range"):
            tr.ns_loss(ad.constant(np.full((2, 4), 0.25)), [0, 4])

    def test_empty_batch(self):
        with pytest.raises(ContractError, match="ns_loss: empty batch"):
            tr.ns_loss(ad.constant(np.zeros((0, 3))), np.zeros(0, dtype=int))

    @pytest.mark.parametrize("clipped", [False, True], ids=["open", "clipped"])
    @pytest.mark.parametrize("true_class", [0, 1, 2])
    @pytest.mark.parametrize("B", [1, 2, 32])
    def test_class_indices_match_onehot_reference_bitwise(self, B, true_class, clipped):
        # supervised-ethnicity's adversary loss: ns_loss on int labels gives the
        # bytes of the one-hot composition, value and gradients alike.  Row 0
        # holds true_class; with `clipped` that class's logit sits 800 below
        # another's, so its p is exactly 0.0 and the 1e-12 clamp applies.
        m = HireabilityModel("language", "supervised-ethnicity", tiny_dims(), seed=B)
        if clipped:
            m.params["b_4"].value[(true_class + 1) % 3] += 800.0
        rng = np.random.default_rng(100 * B + true_class)
        z = rng.integers(0, 3, B)
        z[0] = true_class
        h = ad.parameter(rng.standard_normal((B, m.dims.trunk_width)))

        def run(loss_fn):
            params = [*m.theta_a().values(), h]
            ad.zero_grad(params)
            loss = loss_fn(m.head_supervised(h))
            ad.backward(loss)
            return loss.value.tobytes(), [p.grad.tobytes() for p in params]

        ns = run(lambda p: tr.ns_loss(p, z))
        reference = run(lambda p: onehot_cce(p, onehot(z, 3)))
        if clipped:
            assert float(m.head_supervised(h).value[0, true_class]) == 0.0
        assert ns == reference


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        p = {"w": ad.parameter(np.array([1.0, -2.0]))}
        opt = tr.Adam(p, lr=0.1)
        for _ in range(5):
            opt.step({"w": np.zeros(2)})
        assert np.array_equal(p["w"].value, [1.0, -2.0])

    def test_first_step_is_signed_lr(self):
        p = {"w": ad.parameter(np.array([5.0, -3.0]))}
        opt = tr.Adam(p, lr=0.01)
        opt.step({"w": np.array([2.0, -7.0])})
        assert np.abs(p["w"].value - np.array([5.0 - 0.01, -3.0 + 0.01])).max() < 0.01 * 1e-6

    def test_converges_on_quadratic(self):
        p = {"x": ad.parameter(np.array([1.0]))}
        opt = tr.Adam(p, lr=0.1)
        for _ in range(100):
            opt.step({"x": 2.0 * p["x"].value})
        assert abs(p["x"].value.item()) < 0.1

    def test_nonfinite_gradient_names_parameter(self):
        p = {"W_2": ad.parameter(np.ones(2))}
        opt = tr.Adam(p, lr=0.1)
        with pytest.raises(ContractError, match="W_2"):
            opt.step({"W_2": np.array([1.0, np.nan])})

    def test_nonfinite_gradient_leaves_state_untouched(self):
        p = {"a": ad.parameter(np.array([1.0, -2.0])), "b": ad.parameter(np.array([0.5]))}
        opt = tr.Adam(p, lr=0.1)
        opt.step({"a": np.array([0.3, -0.1]), "b": np.array([2.0])})
        before = ({n: q.value.copy() for n, q in p.items()},
                  {n: v.copy() for n, v in opt.m.items()},
                  {n: v.copy() for n, v in opt.v.items()}, opt.t)
        with pytest.raises(ContractError, match="parameter b"):
            opt.step({"a": np.array([1.0, 1.0]), "b": np.array([np.nan])})
        params, m, v, t = before
        assert opt.t == t == 1
        for n in p:
            assert np.array_equal(p[n].value, params[n]), n
            assert np.array_equal(opt.m[n], m[n]), n
            assert np.array_equal(opt.v[n], v[n]), n


    def test_flat_buffers_match_per_parameter_reference(self):
        # the update each parameter got from its own m, v arrays before the
        # moments moved into one flat buffer per optimizer
        def reference_step(m, v, t, g, lr=0.01, b1=0.9, b2=0.999, eps=1e-8):
            c1, c2 = 1.0 - b1 ** t, 1.0 - b2 ** t
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * g * g
            return m, v, lr * ((m / c1) / (np.sqrt(v / c2) + eps))

        rng = np.random.default_rng(8)
        shapes = {"W_1": (3, 4), "b_1": (3,), "gru.U_r": (8, 8), "s": (1,)}
        p = {n: ad.parameter(rng.standard_normal(sh)) for n, sh in shapes.items()}
        ref = {n: (q.value.copy(), np.zeros(sh), np.zeros(sh)) for (n, q), sh
               in zip(p.items(), shapes.values())}
        opt = tr.Adam(p, lr=0.01)
        for t in range(1, 6):
            grads = {n: rng.standard_normal(sh) for n, sh in shapes.items()}
            opt.step(grads)
            for n in shapes:
                value, m, v = ref[n]
                m, v, update = reference_step(m, v, t, grads[n])
                ref[n] = value - update, m, v
                assert p[n].value.tobytes() == ref[n][0].tobytes(), (t, n)
                assert opt.m[n].tobytes() == m.tobytes(), (t, n)
                assert opt.v[n].tobytes() == v.tobytes(), (t, n)

    @pytest.mark.parametrize("grads, message", [
        ({"a": np.ones(2)}, r"missing for \['b'\], unexpected gradients for \[\]"),
        ({"a": np.ones(2), "b": np.ones(1), "c": np.ones(3)},
         r"missing for \[\], unexpected gradients for \['c'\]"),
        ({"a": np.ones(3), "b": np.ones(1)}, r"gradient for a has shape \(3,\)"),
    ])
    def test_mismatched_gradients_raise_before_any_change(self, grads, message):
        p = {"a": ad.parameter(np.array([1.0, -2.0])), "b": ad.parameter(np.array([0.5]))}
        opt = tr.Adam(p, lr=0.1)
        opt.step({"a": np.array([0.3, -0.1]), "b": np.array([2.0])})
        before = [q.value.copy() for q in p.values()], opt._m.copy(), opt._v.copy()
        with pytest.raises(ContractError, match=message):
            opt.step(grads)
        assert opt.t == 1
        assert all(np.array_equal(q.value, old) for q, old in zip(p.values(), before[0]))
        assert np.array_equal(opt._m, before[1]) and np.array_equal(opt._v, before[2])


class TestSelectLambda:
    def test_grid_constant(self):
        assert tr.LAMBDA_GRID == (0.5, 1.0, 2.0, 5.0, 10.0)

    def test_argmin(self):
        results = {0.5: (1.0, 0.0), 1.0: (0.2, 0.0), 2.0: (0.9, 0.0)}
        assert tr.select_lambda(results) == 1.0

    def test_tie_breaks_to_smaller(self):
        results = {0.5: (3.0, 0.5), 1.0: (2.0, 0.5), 2.0: (1.0, 0.5),
                   5.0: (1.0, 0.5), 10.0: (4.0, 0.5)}
        assert tr.select_lambda(results) == 2.0

    def test_single_entry(self):
        assert tr.select_lambda({5.0: (1.0, 2.0)}) == 5.0

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            tr.select_lambda({})


class TestTrainConfig:
    @pytest.mark.parametrize("field, value", [
        ("lam", float("nan")), ("lr_joint", float("nan")), ("lr_adv", float("inf")),
        ("clip", float("inf")), ("l2", float("inf")),
    ])
    def test_non_finite_float_rejected(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be a finite number"):
            tr.TrainConfig(**{field: value}).validate()


class _Params:
    """Just enough of a model for _until_stale: named parameters that
    snapshot and restore like HireabilityModel's."""
    snapshot = HireabilityModel.snapshot
    restore = HireabilityModel.restore

    def __init__(self):
        self.params = {"w": ad.parameter(np.array([-1.0])),
                       "v": ad.parameter(np.array([-1.0]))}


class TestUntilStale:
    @staticmethod
    def _epochs(box, values):
        """epoch() sets both parameters to its call index and returns the next
        value with that index."""
        calls = []

        def epoch():
            index = len(calls)
            for p in box.params.values():
                p.value[...] = index
            calls.append(values[index])
            return calls[-1], index
        return epoch, calls

    def test_stops_after_patience_stale_calls_and_restores_best(self):
        box = _Params()
        epoch, calls = self._epochs(box, [3.0, 2.0, 2.5, 4.0, 1.0])
        best, index = tr._until_stale(box, None, epoch, max_epochs=10, patience=2)
        assert best == 2.0 and index == 1 and calls == [3.0, 2.0, 2.5, 4.0]
        assert box.params["w"].value[0] == 1.0 and box.params["v"].value[0] == 1.0

    def test_restores_only_named_parameters(self):
        box = _Params()
        epoch, _ = self._epochs(box, [3.0, 2.0, 2.5, 4.0, 1.0])
        tr._until_stale(box, ["w"], epoch, max_epochs=10, patience=2)
        assert box.params["w"].value[0] == 1.0 and box.params["v"].value[0] == 3.0

    def test_honours_starting_best(self):
        box = _Params()
        epoch, calls = self._epochs(box, [3.0, 2.0, 1.0])
        best, info = tr._until_stale(box, None, epoch, max_epochs=10, patience=2,
                                     best=1.5, info="entry")
        assert best == 1.5 and info == "entry" and calls == [3.0, 2.0]
        assert box.params["w"].value[0] == -1.0   # the state at entry

    def test_stops_at_max_epochs(self):
        box = _Params()
        epoch, calls = self._epochs(box, [3.0, 2.0, 1.0, 0.5])
        assert tr._until_stale(box, None, epoch, max_epochs=3, patience=2) == (1.0, 2)
        assert calls == [3.0, 2.0, 1.0] and box.params["w"].value[0] == 2.0


def short_cfg(**kw):
    base = dict(modality="multimodal", batch_size=16, max_epochs_pretrain=4,
                patience_pretrain=2, max_epochs_adv=3, patience_adv=2,
                max_outer=2, patience_outer=5, seed=5)
    base.update(kw)
    return tr.TrainConfig(**base)


class TestTrainAlternating:
    def test_unprotected_runs_only_pretrain(self, tiny_dataset):
        cfg = short_cfg(variant="unprotected")
        model = HireabilityModel("multimodal", "unprotected", tiny_dims(), seed=1)
        model, log = tr.train_alternating(cfg, model, tiny_dataset)
        assert set(log.phases()) == {"pretrain-main"}
        assert model.trained

    def test_phase_sequence_two_outer_iterations(self, tiny_dataset):
        cfg = short_cfg(variant="supervised-gender", lam=1.0)
        model = HireabilityModel("multimodal", "supervised-gender", tiny_dims(), seed=2)
        events = []
        model, log = tr.train_alternating(cfg, model, tiny_dataset,
                                          observer=lambda e, p: events.append((e, p)))
        # collapse the epoch-level tags into the phase grammar
        collapsed = []
        for tag in log.phases():
            if not collapsed or collapsed[-1] != tag:
                collapsed.append(tag)
        assert collapsed == ["pretrain-main", "pretrain-adv", "joint", "adv-refit",
                             "joint", "adv-refit"]
        reinits = [p["seed"] for e, p in events if e == "adv_reinit"]
        assert len(reinits) == 2

    def test_adversary_reinitialized_between_joint_and_refit(self, tiny_dataset):
        cfg = short_cfg(variant="supervised-gender", max_outer=1)
        model = HireabilityModel("multimodal", "supervised-gender", tiny_dims(), seed=3)
        captured = {}

        def observer(event, payload):
            if event == "phase_end" and payload["phase"] == "joint":
                captured["pre_reset"] = model.snapshot(model.theta_a())
            if event == "adv_reinit":
                captured["post_reset"] = model.snapshot(model.theta_a())
                captured["seed"] = payload["seed"]

        tr.train_alternating(cfg, model, tiny_dataset, observer=observer)
        pre, post = captured["pre_reset"], captured["post_reset"]
        assert any(not np.array_equal(pre[n], post[n]) for n in pre)
        fresh = ly.draw(np.random.default_rng(captured["seed"]),
                        adversary_shapes(model.variant, model.dims, model.q))
        for n, v in fresh.items():
            assert np.array_equal(post[n], v.value), n

    def test_lambda_zero_matches_detached_step(self, tiny_dataset):
        train = [s for s in tiny_dataset if s.split == "train"]

        def one_epoch(joint: bool):
            cfg = short_cfg(variant="supervised-gender", lam=0.0, dropout=0.2)
            model = HireabilityModel("multimodal", "supervised-gender", tiny_dims(), seed=9)
            main = model.theta_main()
            opt_main = tr.Adam(main, cfg.lr_joint)
            rng = np.random.default_rng(17)
            if joint:
                task = tr._AdversaryTask(cfg, train, train, seed=1)
                opt_adv = tr.Adam(model.theta_a(), cfg.lr_joint)
                tr._train_epoch(model, cfg, train, rng, opt_main, task, opt_adv)
            else:
                tr._train_epoch(model, cfg, train, rng, opt_main)
            return model.snapshot(main)

        with_adv = one_epoch(True)
        without = one_epoch(False)
        for n in without:
            assert np.abs(with_adv[n] - without[n]).max() < 1e-10, n

    def test_task_loss_decreases_during_pretrain(self, tiny_dataset):
        cfg = short_cfg(variant="unprotected", max_epochs_pretrain=5,
                        patience_pretrain=10, dropout=0.0, seed=4)
        model = HireabilityModel("multimodal", "unprotected", tiny_dims(), seed=4)
        _, log = tr.train_alternating(cfg, model, tiny_dataset)
        losses = [r.l_t_train for r in log.rows][:5]
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_post_clip_norm_never_exceeds_unity(self, tiny_dataset, monkeypatch):
        recorded = []
        original = ly.clip_gradients

        def recording_clip(grads, max_norm):
            out = original(grads, max_norm)
            recorded.append(np.sqrt(sum(float((g ** 2).sum()) for g in out.values())))
            return out

        monkeypatch.setattr(ly, "clip_gradients", recording_clip)
        cfg = short_cfg(variant="supervised-gender", max_outer=1)
        model = HireabilityModel("multimodal", "supervised-gender", tiny_dims(), seed=6)
        tr.train_alternating(cfg, model, tiny_dataset)
        assert recorded and max(recorded) <= 1.0 + 1e-12

    def test_one_val_pass_per_trunk_state(self, tiny_dataset, monkeypatch):
        calls = []
        real_predict = tr.predict

        def counting_predict(model, samples, *args, **kwargs):
            calls.append(samples)
            return real_predict(model, samples, *args, **kwargs)

        monkeypatch.setattr(tr, "predict", counting_predict)
        # patience above every cap fixes P pretrain epochs and O outer iterations
        cfg = short_cfg(variant="supervised-gender", max_epochs_pretrain=2,
                        patience_pretrain=5, max_epochs_adv=1, max_outer=2)
        model = HireabilityModel("multimodal", "supervised-gender", tiny_dims(), seed=2)
        _, log = tr.train_alternating(cfg, model, tiny_dataset)
        n_pre, n_outer = log.phases().count("pretrain-main"), log.phases().count("joint")
        assert (n_pre, n_outer) == (2, 2)
        assert len(calls) == n_pre + 2 * n_outer + 1

        calls.clear()
        cfg = short_cfg(variant="unprotected", max_epochs_pretrain=2, patience_pretrain=5)
        model = HireabilityModel("multimodal", "unprotected", tiny_dims(), seed=2)
        _, log = tr.train_alternating(cfg, model, tiny_dataset)
        assert len(calls) == log.phases().count("pretrain-main") == 2

    def test_overlapping_splits_rejected(self, tiny_dataset):
        for s in tiny_dataset[:3]:
            s.split = "train"
        leaked = tiny_dataset[0]
        clone = type(leaked)(**{f: getattr(leaked, f) for f in
                                ("id", "video_id", "seq_language", "seq_audio",
                                 "seq_video", "face", "y", "z", "split")})
        clone.split = "val"
        cfg = short_cfg(variant="unprotected")
        model = HireabilityModel("multimodal", "unprotected", tiny_dims(), seed=0)
        with pytest.raises(ContractError, match="share video ids"):
            tr.train_alternating(cfg, model, tiny_dataset + [clone])

    @pytest.mark.parametrize("variant, bad, match", [
        ("supervised-gender", "no-z", "protected"),
        ("negative-sampling", "k", "at least k"),
        ("static-faces", "face-targets", "lacks"),
    ])
    def test_target_errors_raise_before_any_epoch(self, tiny_dataset, tmp_path,
                                                  variant, bad, match):
        kw = {}
        if bad == "no-z":
            for s in tiny_dataset:
                s.z = None
        elif bad == "k":
            kw["k"] = 1000
        else:
            path = tmp_path / "faces.json"
            path.write_text(f'{{"{tiny_dataset[0].video_id}": [0.0, 0.0]}}')
            kw["face_targets"] = str(path)
        model = HireabilityModel("multimodal", variant, tiny_dims(), k=kw.get("k", 5), seed=0)
        events = []
        with pytest.raises(ContractError, match=match):
            tr.train_alternating(short_cfg(variant=variant, **kw), model, tiny_dataset,
                                 observer=lambda e, p: events.append(e))
        assert events == []

    @pytest.mark.parametrize("cfg_kind, model_kind", [
        (dict(variant="supervised-gender"), dict(variant="unprotected")),
        (dict(variant="static-faces", q=16), dict(variant="static-faces", q=2)),
        (dict(variant="unprotected"), dict(variant="negative-sampling")),
        (dict(modality="language"), dict(modality="multimodal")),
        (dict(variant="negative-sampling", k=3), dict(variant="negative-sampling")),
    ], ids=["variant", "q", "unprotected-config", "modality", "k"])
    def test_model_of_another_kind_refused_before_any_epoch(self, tiny_dataset, monkeypatch,
                                                            cfg_kind, model_kind):
        epochs, events = [], []
        monkeypatch.setattr(tr, "_train_epoch", lambda *a, **kw: epochs.append(a))
        cfg = short_cfg(**cfg_kind)
        model = HireabilityModel(**{"modality": "multimodal", **model_kind},
                                 dims=tiny_dims(), seed=0)
        with pytest.raises(ContractError) as refused:
            tr.train_alternating(cfg, model, tiny_dataset,
                                 observer=lambda e, p: events.append(e))
        kind = lambda o: f"{o.modality}/{o.variant} (q={o.q}, k={o.k})"
        assert kind(cfg) in str(refused.value) and kind(model) in str(refused.value)
        assert epochs == [] and events == []

    @pytest.mark.parametrize("variant", [v for v in VARIANTS if v != "static-faces"])
    def test_face_targets_refused_unless_static_faces(self, tiny_dataset, variant):
        # only static-faces reads them: elsewhere they would train unread
        model = HireabilityModel("multimodal", variant, tiny_dims(), seed=0)
        events = []
        with pytest.raises(ConfigError, match=f"face_targets .* not {variant}"):
            tr.train_alternating(short_cfg(variant=variant, face_targets="faces.json"),
                                 model, tiny_dataset, observer=lambda e, p: events.append(e))
        assert events == []

    def test_alternate_rejects_nan_lambda(self, tiny_dataset):
        cfg = short_cfg(variant="supervised-gender", max_epochs_pretrain=1, max_epochs_adv=1)
        model = HireabilityModel("multimodal", "supervised-gender", tiny_dims(), seed=0)
        state = tr.pretrain(cfg, model, tiny_dataset)
        with pytest.raises(ConfigError, match="lam must be"):
            tr.alternate(state, float("nan"))

    def test_supervised_requires_protected_label(self, tiny_dataset):
        for s in tiny_dataset:
            s.z = None
        cfg = short_cfg(variant="supervised-gender")
        model = HireabilityModel("multimodal", "supervised-gender", tiny_dims(), seed=0)
        with pytest.raises(ContractError, match="protected"):
            tr.train_alternating(cfg, model, tiny_dataset)


class TestAdversaryTargets:
    @staticmethod
    def spy_compressor(monkeypatch):
        """The face arrays each fit_compressor call receives, in call order."""
        fitted, fit = [], tr.fit_compressor
        monkeypatch.setattr(tr, "fit_compressor",
                            lambda faces, *a, **kw: fitted.append(faces) or fit(faces, *a, **kw))
        return fitted

    def test_compressor_fit_on_train_split_only(self, tiny_dataset, monkeypatch):
        fitted = self.spy_compressor(monkeypatch)
        cfg = short_cfg(variant="static-faces", q=2, max_outer=1)
        model = HireabilityModel("multimodal", "static-faces", tiny_dims(), seed=7)
        tr.train_alternating(cfg, model, tiny_dataset)
        seen = {}
        for s in tiny_dataset:
            if s.split == "train" and s.video_id not in seen:
                seen[s.video_id] = np.asarray(s.face, dtype=np.float64)
        # one fit, on one face per train candidate: no val or test face
        assert len(fitted) == 1
        np.testing.assert_array_equal(fitted[0], np.stack(list(seen.values())))

    def test_external_face_targets_replace_compressor(self, tiny_dataset, tmp_path,
                                                      monkeypatch):
        import json
        fitted = self.spy_compressor(monkeypatch)
        rng = np.random.default_rng(0)
        lookup = {s.video_id: rng.standard_normal(2).tolist() for s in tiny_dataset}
        path = tmp_path / "faces.json"
        path.write_text(json.dumps(lookup))
        cfg = short_cfg(variant="static-faces", q=2, max_outer=1,
                        face_targets=str(path))
        model = HireabilityModel("multimodal", "static-faces", tiny_dims(), seed=7)
        _, log = tr.train_alternating(cfg, model, tiny_dataset)
        assert fitted == [] and "adv-refit" in log.phases()

    def test_external_face_targets_missing_video(self, tiny_dataset, tmp_path):
        import json
        path = tmp_path / "faces.json"
        path.write_text(json.dumps({tiny_dataset[0].video_id: [0.0, 0.0]}))
        cfg = short_cfg(variant="static-faces", q=2, face_targets=str(path))
        model = HireabilityModel("multimodal", "static-faces", tiny_dims(), seed=7)
        with pytest.raises(ContractError, match="lacks"):
            tr.train_alternating(cfg, model, tiny_dataset)

    def test_supervised_ethnicity_three_classes(self):
        from tests.conftest import tiny_generator_config
        from fairavi.data import generate_synthetic, split_group_disjoint
        samples = generate_synthetic(tiny_generator_config(n=120, n_classes=3))
        split_group_disjoint(samples, seed=2)
        cfg = short_cfg(variant="supervised-ethnicity", max_outer=1)
        model = HireabilityModel("multimodal", "supervised-ethnicity",
                                 tiny_dims(), seed=2)
        model, log = tr.train_alternating(cfg, model, samples)
        assert model.trained
        assert "joint" in log.phases()

    def test_negative_sampler_one_positive_per_group(self, tiny_dataset):
        train = [s for s in tiny_dataset if s.split == "train"]
        val = [s for s in tiny_dataset if s.split == "val"]
        task = tr._AdversaryTask(short_cfg(variant="negative-sampling", k=4), train, val, seed=9)
        for split, samples, (_, choice, pos) in (("train", train, task.train),
                                                 ("val", val, task.val_draws[0])):
            _, owner = task.tables[split]
            for i in range(len(samples)):
                row = choice[i]
                assert row[pos[i]] == owner[i]          # the true candidate
                assert len(set(row)) == 4               # no duplicates
                negs = np.delete(row, pos[i])
                assert owner[i] not in negs             # impostors only

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_negative_sampler_draw_matches_insert_loop(self, tiny_dataset, k):
        # The per-anchor np.insert loop draw used to run, kept as the
        # reference: the vectorized assembly must give the same arrays
        # from the same random stream.
        def loop_draw(faces, owner, seed):
            rng = np.random.default_rng(seed)
            n, n_cand = owner.size, faces.shape[0]
            choice = np.empty((n, k), dtype=int)
            pos = rng.integers(0, k, size=n)
            for i, own in enumerate(owner):
                others = rng.permutation(n_cand - 1)[: k - 1]
                others = others + (others >= own)
                choice[i] = np.insert(others, pos[i], own)
            return faces, choice, pos

        train = [s for s in tiny_dataset if s.split == "train"]
        val = [s for s in tiny_dataset if s.split == "val"]
        task = tr._AdversaryTask(short_cfg(variant="negative-sampling", k=k), train, val, seed=9)
        for split in ("train", "val"):
            for seed in (0, 1, 9, 12345):
                got = task.draw(split, seed)
                want = loop_draw(*task.tables[split], seed)
                for a, b in zip(got, want):
                    assert a.dtype == b.dtype and a.shape == b.shape
                    assert np.array_equal(a, b)

    def test_negative_sampler_draw_peak_is_a_few_times_its_result(self):
        # the default corpus's train split: 1,401 anchors over 470 candidates;
        # the draw's full permutations (469 ints each) must not stay alive
        # together, which would read about 5 MB against a 0.06 MB choice
        rng = np.random.default_rng(34)
        samples = [SimpleNamespace(video_id=f"v{i % 470}", face=rng.standard_normal(4))
                   for i in range(1401)]
        task = tr._AdversaryTask(short_cfg(variant="negative-sampling", k=5), samples,
                                 samples[:5], seed=0)
        tracemalloc.start()
        try:
            _, choice, _ = task.draw("train", 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert choice.shape == (1401, 5)
        assert peak <= 5 * choice.nbytes, peak / choice.nbytes

    def test_negative_sampler_needs_k_candidates(self, tiny_dataset):
        train = [s for s in tiny_dataset if s.split == "train"]
        val = [s for s in tiny_dataset if s.split == "val"][:2]
        with pytest.raises(ContractError, match="at least k"):
            tr._AdversaryTask(short_cfg(variant="negative-sampling", k=50), train, val, seed=0)


class TestAdversaryEvaluate:
    @staticmethod
    def taped_evaluate(task, model, h_val):
        """evaluate's chunk loop with the tape recording."""
        values = []
        for target in task.val_draws:
            total = 0.0
            for lo in range(0, len(h_val), tr.CHUNK):
                idx = np.arange(lo, min(lo + tr.CHUNK, len(h_val)))
                total += float(task.loss(model, ad.constant(h_val[idx]), idx, target).value) \
                    * idx.size
            values.append(total / len(h_val))
        return float(np.mean(values))

    @pytest.mark.parametrize("variant", [v for v in VARIANTS if v != "unprotected"])
    def test_validation_records_no_tape(self, variant, monkeypatch):
        from tests.conftest import tiny_generator_config
        from fairavi.data import generate_synthetic, split_group_disjoint
        n_classes = 3 if variant == "supervised-ethnicity" else 2
        samples = generate_synthetic(tiny_generator_config(n_classes=n_classes))
        split_group_disjoint(samples, seed=2)
        train = [s for s in samples if s.split == "train"]
        val = [s for s in samples if s.split == "val"]
        cfg = short_cfg(variant=variant, q=2, k=3)
        model = HireabilityModel("multimodal", variant, tiny_dims(), q=2, k=3, seed=6)
        task = tr._AdversaryTask(cfg, train, val, seed=1)
        h_val = np.tanh(np.random.default_rng(8).standard_normal((len(val), 4)))
        monkeypatch.setattr(tr, "CHUNK", 7)      # several chunks per pass
        built, init = [], ad.Node.__init__

        def recording_init(node, *args, **kwargs):
            init(node, *args, **kwargs)
            built.append(node)

        monkeypatch.setattr(ad.Node, "__init__", recording_init)
        value = task.evaluate(model, h_val)
        assert built and all(not node.parents for node in built), variant
        monkeypatch.undo()
        monkeypatch.setattr(tr, "CHUNK", 7)
        expected = self.taped_evaluate(task, model, h_val)
        assert np.float64(value).tobytes() == np.float64(expected).tobytes(), variant


class TestTrainLogCsv:
    def test_round_trip_columns(self, tiny_dataset, tmp_path):
        cfg = short_cfg(variant="unprotected")
        model = HireabilityModel("multimodal", "unprotected", tiny_dims(), seed=1)
        _, log = tr.train_alternating(cfg, model, tiny_dataset)
        path = tmp_path / "log.csv"
        log.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == tr.CSV_HEADER
        first = lines[1].split(",")
        assert first[1] == "pretrain-main"
        assert first[2] and first[3]          # task losses present
        assert first[4] == "" and first[5] == ""  # no adversary during pretrain
        float(first[-1])                      # seconds parses
