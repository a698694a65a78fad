import json

import numpy as np
import pytest

from fairavi import data as dt
from fairavi import evaluation as ev
from fairavi.errors import ConfigError, ContractError
from tests.conftest import tiny_generator_config


def pooled_features(samples):
    """Time-averaged concatenation of the three raw sequences."""
    return np.stack([np.concatenate([np.asarray(s.seq_language).mean(axis=0),
                                     np.asarray(s.seq_audio).mean(axis=0),
                                     np.asarray(s.seq_video).mean(axis=0)])
                     for s in samples])


def raw_probe_auc(samples, seed=0):
    """Validation-free LR probe on raw pooled features, train/test halves."""
    x = pooled_features(samples)
    z = np.array([s.z for s in samples])
    half = len(samples) // 2
    probe = ev._fit_binary(x[:half], (z[:half] == 1).astype(float), "l2", 1e-2,
                           ev.ProbeConfig(seed=seed))
    return ev.auc(ev.probe_scores(probe, x[half:]), (z[half:] == 1).astype(int))


class TestGenerator:
    def test_deterministic(self):
        cfg = tiny_generator_config()
        a = dt.generate_synthetic(cfg)
        b = dt.generate_synthetic(tiny_generator_config())
        assert len(a) == len(b) == cfg.n
        for sa, sb in zip(a, b):
            assert sa.id == sb.id and sa.video_id == sb.video_id
            assert sa.y == sb.y and sa.z == sb.z
            assert np.array_equal(sa.seq_audio, sb.seq_audio)
            assert np.array_equal(sa.face, sb.face)

    def test_beta_zero_hides_protected_class(self):
        samples = dt.generate_synthetic(dt.GeneratorConfig(n=2000, bias=0.0, seed=7))
        value = raw_probe_auc(samples)
        assert 0.45 <= value <= 0.55

    def test_leak_monotone_in_beta(self):
        aucs = []
        for beta in (0.0, 0.25, 0.5, 0.75, 1.0):
            samples = dt.generate_synthetic(tiny_generator_config(n=600, bias=beta))
            aucs.append(raw_probe_auc(samples))
        for a, b in zip(aucs, aucs[1:]):
            assert b >= a - 0.02, aucs

    def test_imbalanced_priors_within_three_sigma(self):
        priors = (0.05, 0.85, 0.10)
        cfg = tiny_generator_config(n=2000, n_classes=3, class_priors=priors, seed=9)
        samples = dt.generate_synthetic(cfg)
        by_video = {s.video_id: s.z for s in samples}
        counts = np.bincount(list(by_video.values()), minlength=3)
        n = counts.sum()
        for c, p in enumerate(priors):
            sigma = np.sqrt(n * p * (1 - p))
            assert abs(counts[c] - n * p) <= 3 * sigma, (c, counts)

    def test_candidate_latents_shared_within_video(self):
        samples = dt.generate_synthetic(tiny_generator_config(n=120))
        groups = {}
        for s in samples:
            groups.setdefault(s.video_id, []).append(s)
        multi = [g for g in groups.values() if len(g) > 1]
        assert multi, "expected some multi-clip videos"
        for g in multi:
            assert all(np.array_equal(s.face, g[0].face) for s in g)
            assert all(s.z == g[0].z for s in g)

    def test_invalid_priors_named(self):
        with pytest.raises(ConfigError, match="class priors"):
            dt.GeneratorConfig(n_classes=2, class_priors=(0.6, 0.3)).validate()

    def test_invalid_bias_rejected(self):
        with pytest.raises(ConfigError, match="bias"):
            dt.GeneratorConfig(bias=1.5).validate()


class TestSplit:
    def test_singleton_groups_hit_exact_ratios(self):
        cfg = tiny_generator_config(n=200, max_clips=1)
        samples = dt.generate_synthetic(cfg)
        train, val, test = dt.split_group_disjoint(samples, seed=1)
        assert (len(train), len(val), len(test)) == (140, 30, 30)

    def test_single_video_warns_and_degenerates(self):
        cfg = tiny_generator_config(n=4, max_clips=5, seed=13)
        samples = dt.generate_synthetic(cfg)
        for s in samples:
            s.video_id = "vid00000"
        with pytest.warns(UserWarning, match="degenerate"):
            train, val, test = dt.split_group_disjoint(samples, seed=1)
        assert len(train) == 4 and not val and not test

    def test_no_video_spans_two_splits(self):
        cfg = tiny_generator_config(n=9000, seed=21)
        samples = dt.generate_synthetic(cfg)
        assert len({s.video_id for s in samples}) > 2500
        train, val, test = dt.split_group_disjoint(samples, seed=2)
        ids = lambda part: {s.video_id for s in part}
        assert not ids(train) & ids(val)
        assert not ids(train) & ids(test)
        assert not ids(val) & ids(test)
        assert ev.audit_overlap(train, test) == 0.0

    def test_bad_ratios_rejected(self):
        with pytest.raises(ConfigError):
            dt.split_group_disjoint([], ratios=(0.5, 0.2, 0.2))


class TestCompressor:
    def test_exact_subspace_reconstruction(self, rng):
        basis = np.linalg.qr(rng.standard_normal((8, 2)))[0].T  # (2, 8)
        weights = rng.standard_normal((30, 2))
        faces = weights @ basis + rng.standard_normal(8) * 0  # affine offset below
        offset = rng.standard_normal(8)
        faces = faces + offset
        proj = dt.fit_compressor(faces, q=2, seed=0)
        rebuilt = dt.reconstruct(proj, dt.apply_compressor(proj, faces))
        assert np.abs(rebuilt - faces).max() < 1e-8

    def test_projection_idempotent(self, rng):
        faces = rng.standard_normal((40, 6))
        proj = dt.fit_compressor(faces, q=3, seed=0)
        w = dt.apply_compressor(proj, faces)
        again = dt.apply_compressor(proj, dt.reconstruct(proj, w))
        assert np.abs(again - w).max() < 1e-8

    def test_components_orthonormal(self, rng):
        faces = rng.standard_normal((50, 10))
        proj = dt.fit_compressor(faces, q=4, seed=0)
        gram = proj.components @ proj.components.T
        assert np.abs(gram - np.eye(4)).max() < 1e-8

    def test_class_structure_survives_q2(self):
        cfg = tiny_generator_config(n=400, face_separation=3.0, face_noise=1.0, seed=5)
        samples = dt.generate_synthetic(cfg)
        faces = {}
        for s in samples:
            faces.setdefault(s.video_id, (np.asarray(s.face), s.z))
        mats = np.stack([f for f, _ in faces.values()])
        zs = np.array([z for _, z in faces.values()])
        proj = dt.fit_compressor(mats, q=2, seed=0)
        w = dt.apply_compressor(proj, mats)
        centroids = np.stack([w[zs == c].mean(axis=0) for c in (0, 1)])
        nearest = np.argmin(np.linalg.norm(w[:, None, :] - centroids[None], axis=2), axis=1)
        assert (nearest == zs).mean() > 0.9

    def test_rank_deficient_rejected(self, rng):
        line = np.outer(rng.standard_normal(20), rng.standard_normal(5))
        with pytest.raises(ContractError, match="rank"):
            dt.fit_compressor(line, q=3, seed=0)

    def test_fingerprint_tracks_fit_data(self, rng):
        train = rng.standard_normal((30, 6))
        extra = rng.standard_normal((10, 6))
        a = dt.fit_compressor(train, q=2, seed=0)
        b = dt.fit_compressor(np.vstack([train, extra]), q=2, seed=0)
        assert a.fingerprint == dt.fingerprint_faces(train)
        assert a.fingerprint != b.fingerprint
        assert not np.allclose(a.components, b.components)


class TestJsonl:
    def test_round_trip_bitwise(self, tmp_path):
        samples = dt.generate_synthetic(tiny_generator_config(n=2000))
        dt.split_group_disjoint(samples, seed=1)
        path = tmp_path / "d.jsonl"
        dt.save_jsonl(samples, path)
        loaded = dt.load_jsonl(path)
        assert len(loaded) == len(samples)
        for a, b in zip(samples, loaded):
            assert a.id == b.id and a.video_id == b.video_id
            assert a.y == b.y and a.z == b.z and a.split == b.split
            for f in ("seq_language", "seq_audio", "seq_video", "face"):
                assert np.array_equal(np.asarray(getattr(a, f)), getattr(b, f)), f

    def test_missing_field_names_it(self, tmp_path):
        samples = dt.generate_synthetic(tiny_generator_config(n=1))
        path = tmp_path / "d.jsonl"
        dt.save_jsonl(samples, path)
        doc = json.loads(path.read_text())
        del doc["face"]
        path.write_text(json.dumps(doc) + "\n")
        with pytest.raises(ContractError, match="face"):
            dt.load_jsonl(path)

    def test_malformed_line_numbered(self, tmp_path):
        samples = dt.generate_synthetic(tiny_generator_config(n=2))
        path = tmp_path / "d.jsonl"
        dt.save_jsonl(samples, path)
        with open(path, "a") as fh:
            fh.write("{not json\n")
        with pytest.raises(ContractError, match=":3"):
            dt.load_jsonl(path)

    @staticmethod
    def _two_rows_with(tmp_path, field, value):
        samples = dt.generate_synthetic(tiny_generator_config(n=2))
        path = tmp_path / "d.jsonl"
        dt.save_jsonl(samples, path)
        first, second = path.read_text().splitlines()
        doc = json.loads(second)
        doc[field] = value
        path.write_text(first + "\n" + json.dumps(doc) + "\n")
        return path

    def test_label_outside_zero_one_names_line(self, tmp_path):
        for y in (7, -1, 0.5, "1", None, True):
            path = self._two_rows_with(tmp_path, "y", y)
            with pytest.raises(ContractError, match=r"d\.jsonl:2: y must be 0 or 1"):
                dt.load_jsonl(path)

    def test_bad_protected_label_names_line(self, tmp_path):
        for z in (-1, 1.5, "0", [1], False):
            path = self._two_rows_with(tmp_path, "z", z)
            with pytest.raises(ContractError, match=r"d\.jsonl:2: z must be null or a non-neg"):
                dt.load_jsonl(path)

    @pytest.mark.parametrize("field, edit, message", [
        ("seq_audio", lambda seq: seq[0], "seq_audio must be 2-D"),
        ("seq_audio", lambda seq: [row[:-1] for row in seq][:1] + seq[1:],
         "seq_audio is not a numeric array"),
        ("seq_audio", lambda seq: seq[:-1], "seq_audio has shape"),
        ("seq_video", lambda seq: [row[:-1] for row in seq], "seq_video has shape"),
        ("seq_language", lambda seq: [[float("nan")] + row[1:] for row in seq],
         "seq_language has a non-finite value"),
        ("face", lambda face: face[:-1] + [float("inf")], "face has a non-finite value"),
    ])
    def test_bad_sequence_or_face_names_line_and_field(self, tmp_path, field, edit,
                                                       message):
        samples = dt.generate_synthetic(tiny_generator_config(n=2))
        value = edit(np.asarray(getattr(samples[1], field)).tolist())
        path = self._two_rows_with(tmp_path, field, value)
        with pytest.raises(ContractError, match=rf"d\.jsonl:2: {message}"):
            dt.load_jsonl(path)

    def test_null_z_round_trips(self, tmp_path):
        samples = dt.generate_synthetic(tiny_generator_config(n=3))
        for s in samples:
            s.z = None
        path = tmp_path / "d.jsonl"
        dt.save_jsonl(samples, path)
        assert all(s.z is None for s in dt.load_jsonl(path))


class TestBlind:
    def test_blind_strips_protected_field(self):
        s = dt.generate_synthetic(tiny_generator_config(n=1))[0]
        b = dt.blind(s)
        assert b.id == s.id and b.y == s.y
        with pytest.raises(ContractError, match="not available"):
            _ = b.z

    def test_blind_never_reads_z(self):
        s = dt.generate_synthetic(tiny_generator_config(n=1))[0]
        reads = []

        class Spy:
            def __getattr__(self, name):
                if name == "z":
                    reads.append(name)
                return getattr(s, name)

        dt.blind(Spy())
        assert reads == []
