import hashlib
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from fairavi import autodiff as ad
from fairavi import layers as ly
from fairavi import training as tr
from fairavi.errors import ContractError
from fairavi.model import (CHUNK, MODALITIES, VARIANTS, HireabilityModel, ModelDims,
                           adversary_shapes, batch_sequences, infer, load_model,
                           modality_contributions, param_shapes, predict, save_model)

TINY = ModelDims(input_dims={"language": 3, "audio": 4, "video": 2},
                 gru_width=4, att_proj=3, trunk_width=3,
                 adv_hidden=3, ns_hidden=4, face_raw=6)


def tiny_batch(rng, b=2, t=3):
    return {m: rng.standard_normal((b, t, d))
            for m, d in (("language", 3), ("audio", 4), ("video", 2))}


def zero_params(model):
    for p in model.params.values():
        p.value[...] = 0.0


class TestForwardBase:
    def test_all_zero_weights_give_half(self):
        m = HireabilityModel("multimodal", "unprotected", TINY, seed=0)
        zero_params(m)
        res = m.forward_base(tiny_batch(np.random.default_rng(0)))
        assert np.allclose(res.y_hat.value, 0.5, atol=1e-15)

    def test_inference_determinism(self):
        m = HireabilityModel("multimodal", "unprotected", TINY, seed=1)
        batch = tiny_batch(np.random.default_rng(2))
        a = m.forward_base(batch)
        b = m.forward_base(batch)
        assert np.array_equal(a.H.value, b.H.value)
        assert np.array_equal(a.y_hat.value, b.y_hat.value)

    def test_h_bounded_and_y_in_unit_interval(self):
        m = HireabilityModel("multimodal", "unprotected", TINY, seed=3)
        res = m.forward_base(tiny_batch(np.random.default_rng(4), b=5))
        assert (np.abs(res.H.value) < 1.0).all()
        assert ((res.y_hat.value > 0) & (res.y_hat.value < 1)).all()

    def test_missing_modality(self):
        m = HireabilityModel("multimodal", "unprotected", TINY, seed=0)
        batch = tiny_batch(np.random.default_rng(0))
        del batch["audio"]
        with pytest.raises(ContractError, match="audio"):
            m.forward_base(batch)

    def test_empty_sequence(self):
        m = HireabilityModel("language", "unprotected", TINY, seed=0)
        with pytest.raises(ContractError):
            m.forward_base({"language": np.zeros((2, 0, 3))})

    def test_batch_sequences_stacks_and_rejects_ragged(self):
        samples = _fake_samples(np.random.default_rng(5), 3)
        batch = batch_sequences(samples, ("language", "audio"))
        assert batch["audio"].dtype == np.float64 and batch["audio"].shape == (3, 3, 4)
        assert np.array_equal(batch["language"][2], samples[2].seq_language)
        samples[1].seq_audio = samples[1].seq_audio[:2]
        with pytest.raises(ValueError):
            batch_sequences(samples, ("audio",))

    def test_monomodal_bypasses_gmu(self):
        m = HireabilityModel("video", "unprotected", TINY, seed=5)
        assert m.gmu is None
        assert not any(n.startswith("gmu.") for n in m.params)
        res = m.forward_base({"video": np.random.default_rng(1).standard_normal((2, 3, 2))})
        assert res.contributions is None
        assert res.H.value.shape == (2, 3)

    def test_full_task_gradient(self):
        m = HireabilityModel("multimodal", "unprotected", TINY, seed=6)
        batch = tiny_batch(np.random.default_rng(7))
        y = np.array([1.0, 0.0])
        err = ad.grad_check_params(
            lambda: tr.bce_loss(m.forward_base(batch).y_hat, y), m.params)
        assert err < 1e-4


class TestSupervisedHead:
    def test_zero_weights_gender(self):
        m = HireabilityModel("language", "supervised-gender", TINY, seed=0)
        zero_params(m)
        out = m.head_supervised(ad.constant(np.zeros((3, TINY.trunk_width))))
        assert np.allclose(out.value, 0.5, atol=1e-15)

    def test_zero_weights_ethnicity(self):
        m = HireabilityModel("language", "supervised-ethnicity", TINY, seed=0)
        zero_params(m)
        out = m.head_supervised(ad.constant(np.zeros((2, TINY.trunk_width))))
        assert np.allclose(out.value, 1.0 / 3, atol=1e-15)

    def test_random_ethnicity_rows_sum_to_one(self):
        m = HireabilityModel("language", "supervised-ethnicity", TINY, seed=8)
        h = np.random.default_rng(9).standard_normal((4, TINY.trunk_width))
        out = m.head_supervised(ad.constant(h))
        assert np.abs(out.value.sum(axis=-1) - 1.0).max() < 1e-12

    def test_gradient(self):
        m = HireabilityModel("language", "supervised-ethnicity", TINY, seed=10)
        h = np.random.default_rng(11).standard_normal((2, TINY.trunk_width))
        err = ad.grad_check_params(
            lambda: tr.ns_loss(m.head_supervised(ad.constant(h)), [0, 2]), m.theta_a())
        assert err < 1e-4


class TestStaticFacesHead:
    def test_zero_params_zero_output(self):
        m = HireabilityModel("language", "static-faces", TINY, q=2, seed=0)
        zero_params(m)
        out = m.head_static_faces(ad.constant(np.ones((3, TINY.trunk_width))))
        assert np.array_equal(out.value, np.zeros((3, 2)))

    @pytest.mark.parametrize("q", [2, 16])
    def test_output_width_is_q(self, q):
        m = HireabilityModel("language", "static-faces", TINY, q=q, seed=1)
        out = m.head_static_faces(ad.constant(np.zeros((2, TINY.trunk_width))))
        assert out.value.shape == (2, q)

    def test_equals_collapsed_affine(self):
        m = HireabilityModel("language", "static-faces", TINY, q=2, seed=12)
        h = np.random.default_rng(13).standard_normal((4, TINY.trunk_width))
        out = m.head_static_faces(ad.constant(h)).value
        w5, b5 = m.params["W_5"].value, m.params["b_5"].value
        w6, b6 = m.params["W_6"].value, m.params["b_6"].value
        collapsed = h @ (w6 @ w5).T + (w6 @ b5 + b6)
        assert np.allclose(out, collapsed, atol=1e-13)

    def test_gradient(self):
        m = HireabilityModel("language", "static-faces", TINY, q=2, seed=14)
        h = np.random.default_rng(15).standard_normal((2, TINY.trunk_width))
        target = np.random.default_rng(16).standard_normal((2, 2))
        err = ad.grad_check_params(
            lambda: tr.mse_face_loss(m.head_static_faces(ad.constant(h)), target),
            m.theta_a())
        assert err < 1e-4


class TestNegativeSamplingHead:
    def make(self, seed, b=3, k=5):
        m = HireabilityModel("language", "negative-sampling", TINY, q=2, k=k, seed=seed)
        rng = np.random.default_rng(seed + 100)
        h = rng.standard_normal((b, TINY.trunk_width))
        faces = rng.standard_normal((b, k, TINY.face_raw))
        return m, h, faces

    def test_zero_params_uniform(self):
        m, h, faces = self.make(0)
        zero_params(m)
        _, p = m.head_negative_sampling(ad.constant(h), faces)
        assert np.allclose(p.value, 0.2, atol=1e-15)

    def test_permutation_equivariance(self):
        m, h, faces = self.make(1)
        perm = np.array([3, 0, 4, 1, 2])
        _, p = m.head_negative_sampling(ad.constant(h), faces)
        _, pp = m.head_negative_sampling(ad.constant(h), faces[:, perm, :])
        assert np.allclose(pp.value, p.value[:, perm], atol=1e-12)

    def test_loss_invariant_under_tracked_permutation(self):
        m, h, faces = self.make(2)
        pos = np.array([1, 4, 0])
        perm = np.array([2, 0, 3, 4, 1])
        inv = np.argsort(perm)
        _, p = m.head_negative_sampling(ad.constant(h), faces)
        base = float(tr.ns_loss(p, pos).value)
        _, pp = m.head_negative_sampling(ad.constant(h), faces[:, perm, :])
        permuted = float(tr.ns_loss(pp, inv[pos]).value)
        assert abs(base - permuted) < 1e-12

    def test_matches_g_chain_oracle(self):
        m, h, faces = self.make(3)
        _, p = m.head_negative_sampling(ad.constant(h), faces)
        assert np.abs(p.value.sum(axis=-1) - 1.0).max() < 1e-12
        w7, b7 = m.params["W_7"].value, m.params["b_7"].value
        w8, b8 = m.params["W_8"].value, m.params["b_8"].value
        w9, b9 = m.params["W_9"].value, m.params["b_9"].value
        w10, b10 = m.params["W_10"].value, m.params["b_10"].value
        h_hat = np.tanh((h @ w8.T + b8) @ w9.T + b9)
        for i in range(3):
            scores = []
            for l in range(5):
                w_hat = np.tanh(w7 @ faces[i, l] + b7)
                scores.append((w10 @ (w_hat * h_hat[i] + b10)).item())
            expect = np.exp(scores - np.max(scores))
            expect /= expect.sum()
            assert np.allclose(p.value[i], expect, atol=1e-12)

    def test_gradient(self):
        m, h, faces = self.make(5, b=2, k=3)
        pos = np.array([0, 2])

        def loss():
            _, p = m.head_negative_sampling(ad.constant(h), faces)
            return tr.ns_loss(p, pos)

        assert ad.grad_check_params(loss, m.theta_a()) < 1e-4


class TestGrlComposition:
    def test_head_updates_equal_solo_training(self):
        """The reversal node must leave head gradients untouched: one joint
        step on the head equals one step on its own loss with the trunk
        frozen, for any lambda."""
        for lam in (0.5, 2.0, 10.0):
            m = HireabilityModel("multimodal", "supervised-gender", TINY, seed=20)
            batch = tiny_batch(np.random.default_rng(21))
            y = np.array([1.0, 0.0])
            z = np.array([0.0, 1.0])

            res = m.forward_base(batch)
            joint = ad.add(tr.bce_loss(res.y_hat, y),
                           tr.bce_loss(m.head_supervised(ad.grl(res.H, lam)), z))
            ad.zero_grad(m.params.values())
            ad.backward(joint)
            joint_grads = {n: p.grad.copy() for n, p in m.theta_a().items()}

            h_frozen = res.H.value.copy()
            solo = tr.bce_loss(m.head_supervised(ad.constant(h_frozen)), z)
            ad.zero_grad(m.params.values())
            ad.backward(solo)
            for n, p in m.theta_a().items():
                assert np.abs(joint_grads[n] - p.grad).max() < 1e-12, (lam, n)


class TestContributions:
    def test_suppressed_modality_contributes_nothing(self):
        m = HireabilityModel("multimodal", "unprotected", TINY, seed=22)
        m.params["gmu.W_aproj"].value[...] = 0.0  # gated vector becomes gate * 0
        samples = _fake_samples(np.random.default_rng(23), 6)
        norms, summary = modality_contributions(m, samples)
        assert norms["audio"].max() == 0.0
        assert summary["audio"]["mean"] == 0.0

    def test_nonnegative_and_decomposition(self):
        m = HireabilityModel("multimodal", "unprotected", TINY, seed=24)
        samples = _fake_samples(np.random.default_rng(25), 5)
        norms, _ = modality_contributions(m, samples)
        for v in norms.values():
            assert (v >= 0).all()
        res = m.forward_base(batch_sequences(samples, m.active_modalities))
        total = sum(c.value for c in res.contributions.values())
        assert np.abs(res.o_mm.value - total).max() < 1e-12

    def test_monomodal_rejected(self):
        m = HireabilityModel("audio", "unprotected", TINY, seed=26)
        with pytest.raises(ContractError, match="multimodal"):
            modality_contributions(m, _fake_samples(np.random.default_rng(0), 2))


class _FakeSample:
    def __init__(self, rng, i):
        self.id = f"s{i}"
        self.video_id = f"v{i}"
        self.seq_language = rng.standard_normal((3, 3))
        self.seq_audio = rng.standard_normal((3, 4))
        self.seq_video = rng.standard_normal((3, 2))
        self.face = rng.standard_normal(6)
        self.y = int(rng.random() < 0.5)
        self.z = None
        self.split = "train"


def _fake_samples(rng, n):
    return [_FakeSample(rng, i) for i in range(n)]


class TestInfer:
    """infer runs without a tape, one chunk at a time, with the bytes of a
    recording forward_base over the same chunks."""

    @pytest.mark.parametrize("modality", ["multimodal", "audio"])
    def test_outputs_match_a_recording_forward(self, modality):
        m = HireabilityModel(modality, "unprotected", TINY, seed=27)
        samples = _fake_samples(np.random.default_rng(28), CHUNK + 3)
        H, y_hat, norms = infer(m, samples)
        chunks = [m.forward_base(batch_sequences(samples[lo:lo + CHUNK], m.active_modalities))
                  for lo in (0, CHUNK)]
        assert all(res.y_hat.parents for res in chunks)     # these did record a tape
        assert H.tobytes() == np.concatenate([r.H.value for r in chunks]).tobytes()
        assert y_hat.tobytes() == np.concatenate([r.y_hat.value for r in chunks]).tobytes()
        if modality != "multimodal":
            assert norms is None
            return
        for mod, n in norms.items():
            expected = [np.linalg.norm(r.contributions[mod].value, axis=-1) for r in chunks]
            assert n.tobytes() == np.concatenate(expected).tobytes(), mod

    def test_peak_memory_does_not_grow_with_the_chunk_count(self):
        # default widths and the default corpus's sequence lengths; one
        # chunk's tape is several MB, so two chunks alive at once would
        # show as about twice the one-chunk peak
        rng = np.random.default_rng(29)
        m = HireabilityModel("multimodal", "unprotected", seed=30)
        lengths = {"language": 12, "audio": 25, "video": 20}
        samples = [_FakeSample(rng, i) for i in range(2 * CHUNK + 1)]
        for s in samples:
            for mod, t in lengths.items():
                setattr(s, f"seq_{mod}", rng.standard_normal((t, m.dims.input_dims[mod])))

        def peak(n):
            tracemalloc.start()
            try:
                predict(m, samples[:n])
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        predict(m, samples[:CHUNK])
        one, three = peak(CHUNK), peak(2 * CHUNK + 1)
        assert three <= 1.2 * one, (one, three)


class TestPersistence:
    def test_round_trip_bit_exact(self, tmp_path):
        for variant, q in (("unprotected", 2), ("supervised-ethnicity", 2),
                           ("static-faces", 16), ("negative-sampling", 2)):
            m = HireabilityModel("multimodal", variant, TINY, q=q, seed=31)
            m.trained = True
            path = tmp_path / f"{variant}.json"
            save_model(m, path)
            loaded = load_model(path)
            assert loaded.variant == variant and loaded.q == q and loaded.trained
            assert set(loaded.params) == set(m.params)
            for n in m.params:
                assert np.array_equal(loaded.params[n].value, m.params[n].value), n

    @pytest.mark.parametrize("modality", MODALITIES + ("multimodal",))
    @pytest.mark.parametrize("dims", [TINY, ModelDims(gru_width=6)], ids=["tiny", "width-6"])
    def test_param_shapes_are_the_built_model_shapes(self, modality, dims):
        for variant in VARIANTS:
            for q in (2, 16):
                m = HireabilityModel(modality, variant, dims, q=q, seed=0)
                built = [(name, node.value.shape) for name, node in m.params.items()]
                assert list(param_shapes(modality, variant, dims, q).items()) == built, \
                    (variant, q)

    def test_initial_parameters_pinned(self):
        # every kind's initial names, shapes and bytes in params order, then a
        # reinit_adversary draw: the draw order is the model file's layout,
        # and params order fixes Adam's buffers and the clipping norm's sum
        digest = hashlib.sha256()
        for modality in MODALITIES + ("multimodal",):
            for variant in VARIANTS:
                for q in (2, 16):
                    for seed in (0, 7):
                        m = HireabilityModel(modality, variant, q=q, seed=seed)
                        initial = list(m.snapshot().items())
                        m.reinit_adversary(seed + 1)
                        for name, value in initial + list(m.snapshot(m.theta_a()).items()):
                            digest.update(f"{name}{value.shape}".encode())
                            digest.update(value.tobytes())
        assert digest.hexdigest() == \
            "3fddf09aa5b14eb5243f3be747db0db599c4ff81de8261ffa19b01af82c84e48"

    @pytest.mark.parametrize("modality, variant", [("multimodal", "negative-sampling"),
                                                   ("audio", "supervised-ethnicity")])
    def test_load_draws_nothing_and_keeps_params_order(self, tmp_path, monkeypatch,
                                                       modality, variant):
        # the file stores names sorted; Adam and the theta_* partitions need
        # param_shapes order, and a load needs no random draw to overwrite
        m = HireabilityModel(modality, variant, TINY, q=2, seed=8)
        path = tmp_path / "m.json"
        save_model(m, path)

        def no_draw(*args):
            raise AssertionError("load_model drew parameters")

        monkeypatch.setattr(ly, "draw", no_draw)
        loaded = load_model(path)
        assert list(loaded.params) == list(param_shapes(modality, variant, TINY, 2))
        assert all(np.array_equal(loaded.params[n].value, m.params[n].value) for n in m.params)
        assert all(node.requires_grad for node in loaded.params.values())

    def test_constructor_refuses_a_kind_the_model_file_refuses(self):
        for field, kind in (("k", dict(variant="negative-sampling", k=1)),
                            ("variant", dict(variant="adversarial")),
                            ("modality", dict(modality="smell")),
                            ("q", dict(variant="static-faces", q=3))):
            with pytest.raises(ContractError, match=rf"^{field} must be "):
                HireabilityModel(dims=TINY, **kind)

    @pytest.mark.parametrize("field, value", [
        ("gru_width", 5), ("gru_width", 0), ("att_proj", 0), ("trunk_width", -2),
        ("input_dims", {"language": 3, "audio": 4}),
    ], ids=["odd-gru-width", "zero-gru-width", "zero-att-proj", "negative-trunk-width",
            "input-dims-missing-video"])
    def test_constructor_refuses_dims_the_model_file_refuses(self, field, value):
        # a model that builds must load again from its own file
        with pytest.raises(ContractError, match=rf"^dims\.{field} must be "):
            HireabilityModel("multimodal", "unprotected", replace(TINY, **{field: value}))

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ContractError, match="not a recognized"):
            load_model(path)

    def test_reinit_adversary_matches_seeded_draw(self):
        m = HireabilityModel("language", "static-faces", TINY, q=2, seed=40)
        before = m.snapshot(m.theta_a())
        m.reinit_adversary(12345)
        after = m.snapshot(m.theta_a())
        assert any(not np.array_equal(before[n], after[n]) for n in before)
        fresh = ly.draw(np.random.default_rng(12345), adversary_shapes(m.variant, TINY, 2))
        for n in after:
            assert np.array_equal(after[n], fresh[n].value), n

    def test_adversary_names_and_order_pinned(self):
        # names are part of the model file format; theta_a order fixes the
        # summation order of the global norm in clip_gradients
        expected = {
            "unprotected": [],
            "supervised-gender": ["W_3", "b_3", "W_4", "b_4"],
            "supervised-ethnicity": ["W_3", "b_3", "W_4", "b_4"],
            "static-faces": ["W_5", "b_5", "W_6", "b_6"],
            "negative-sampling": ["W_7", "b_7", "W_8", "b_8", "W_9", "b_9", "W_10", "b_10"],
        }
        for variant, names in expected.items():
            m = HireabilityModel("multimodal", variant, TINY, q=2, seed=0)
            assert list(m.theta_a()) == names, variant
            assert not set(names) & set(m.theta_main()), variant
            assert list(m.params) == list(m.theta_main()) + names, variant
        # W_* are Glorot draws in table order, b_* start at zero
        m = HireabilityModel("language", "static-faces", TINY, q=2, seed=0)
        rng = np.random.default_rng(7)
        expected = {"W_5": ly.glorot(rng, (3, 3)), "b_5": np.zeros(3),
                    "W_6": ly.glorot(rng, (2, 3)), "b_6": np.zeros(2)}
        m.reinit_adversary(7)
        assert list(m.theta_a()) == list(expected)
        for n, v in expected.items():
            assert np.array_equal(m.params[n].value, v), n
