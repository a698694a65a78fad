"""Acceptance criteria, one test per numbered criterion.

Each test prints a PASS line on success (run with `pytest -s` to see them
live).  Criterion 8 trains four full models on the default synthetic
corpus and is the long pole; everything shares its session fixture.
"""

import math
import time

import numpy as np
import pytest

from fairavi import autodiff as ad
from fairavi import cli
from fairavi import data as dt
from fairavi import evaluation as ev
from fairavi import layers as ly
from fairavi import training as tr
from fairavi.model import HireabilityModel, ModelDims, adversary_shapes
from tests.conftest import layer_params, tiny_dims, tiny_generator_config
from tests.test_evaluation import brute_force_auc
from tests.test_training import onehot, onehot_cce


def report(criterion: int, text: str):
    print(f"\nACCEPTANCE {criterion}: PASS — {text}")


# --------------------------------------------------------------- criterion 1

# Instance values are drawn at half scale: a coordinate behind a deeply
# saturated tanh has a true gradient of ~1e-10, where the central-difference
# quotient is pure roundoff and no implementation could meet the tolerance.

def _head_case(variant, q=2):
    dims = ModelDims(input_dims={"language": 3, "audio": 3, "video": 3},
                     gru_width=4, att_proj=3, trunk_width=3,
                     adv_hidden=3, ns_hidden=4, face_raw=5)

    def build(seed):
        m = HireabilityModel("language", variant, dims, q=q, k=3, seed=seed)
        r = np.random.default_rng(seed + 10_000)
        h = 0.5 * r.standard_normal((2, 3))
        if variant == "supervised-gender":
            z = r.integers(0, 2, 2).astype(float)
            return lambda: tr.bce_loss(m.head_supervised(ad.constant(h)), z), m.theta_a()
        if variant == "supervised-ethnicity":
            z = r.integers(0, 3, 2)
            return lambda: tr.ns_loss(m.head_supervised(ad.constant(h)), z), m.theta_a()
        if variant == "static-faces":
            w = r.standard_normal((2, q))
            return (lambda: tr.mse_face_loss(m.head_static_faces(ad.constant(h)), w),
                    m.theta_a())
        faces = 0.5 * r.standard_normal((2, 3, 5))
        pos = r.integers(0, 3, 2)
        probe = r.standard_normal((2, 3))

        def ns():
            # softmax is shift-invariant, which makes b_10's gradient under the
            # sampling loss structurally zero; probing the raw scores as well
            # keeps every parameter identifiable for the finite-difference check
            scores, p = m.head_negative_sampling(ad.constant(h), faces)
            return ad.add(tr.ns_loss(p, pos), ad.mean(ad.mul(scores, ad.constant(probe))))

        return ns, m.theta_a()

    return build


def _bigru_case(seed):
    r = np.random.default_rng(seed)
    fwd, bwd = layer_params(r, ly.GruParams, 2, 2), layer_params(r, ly.GruParams, 2, 2)
    x = 0.5 * r.standard_normal((1, 2, 2))
    params = {}
    for tag, p in (("f", fwd), ("b", bwd)):
        for g in ("r", "z", "h"):
            params[f"{tag}.W_{g}"] = getattr(p, f"W_{g}")
            params[f"{tag}.U_{g}"] = getattr(p, f"U_{g}")
            params[f"{tag}.b_{g}"] = getattr(p, f"b_{g}")
    weight = r.standard_normal((1, 2, 4))
    fn = lambda: ad.sum_(ad.mul(ly.bigru_encode(fwd, bwd, ad.constant(x)),
                                ad.constant(weight)))
    return fn, params


def _loss_case(kind, seed):
    r = np.random.default_rng(seed)
    if kind == "bce":
        y = (r.random(4) < 0.5).astype(float)
        x = ad.parameter(0.5 * r.standard_normal(4))
        return lambda: tr.bce_loss(ad.sigmoid(x), y), {"x": x}
    if kind == "cce":
        z = r.integers(0, 3, 4)
        x = ad.parameter(0.5 * r.standard_normal((4, 3)))
        return lambda: tr.ns_loss(ad.softmax(x), z), {"x": x}
    if kind == "mse":
        w = r.standard_normal((4, 2))
        x = ad.parameter(0.5 * r.standard_normal((4, 2)))
        return lambda: tr.mse_face_loss(ad.tanh(x), w), {"x": x}
    pos = r.integers(0, 5, 4)       # negative sampling: the positive among 5 candidates
    x = ad.parameter(0.5 * r.standard_normal((4, 5)))
    return lambda: tr.ns_loss(ad.softmax(x), pos), {"x": x}


def _scaled_layer_cases():
    """The unit-test layer cases with parameters at half scale."""
    from tests.test_layers import LAYER_GRAD_CASES

    def scaled(case):
        def make(rng):
            fn, point = case(rng)
            return fn, [0.5 * np.asarray(p) for p in point]
        return make

    return {name: scaled(case) for name, case in LAYER_GRAD_CASES.items()}


def test_criterion_1_gradient_integrity():
    t0 = time.perf_counter()
    worst = {}

    for name, case in _scaled_layer_cases().items():
        w = 0.0
        for seed in range(100):
            fn, point = case(np.random.default_rng(50_000 + seed))
            w = max(w, ad.grad_check(fn, point, h=1e-5))
        worst[name] = w

    w = 0.0
    for seed in range(100):
        fn, params = _bigru_case(60_000 + seed)
        w = max(w, ad.grad_check_params(fn, params, h=1e-5))
    worst["bigru"] = w

    for variant in ("supervised-gender", "supervised-ethnicity",
                    "static-faces", "negative-sampling"):
        build = _head_case(variant)
        w = 0.0
        for seed in range(100):
            fn, params = build(70_000 + seed)
            w = max(w, ad.grad_check_params(fn, params, h=1e-5))
        worst[f"head:{variant}"] = w

    for kind in ("bce", "cce", "mse", "ns"):
        w = 0.0
        for seed in range(100):
            fn, params = _loss_case(kind, 80_000 + seed)
            w = max(w, ad.grad_check_params(fn, params, h=1e-5))
        worst[f"loss:{kind}"] = w

    elapsed = time.perf_counter() - t0
    bad = {k: v for k, v in worst.items() if v >= 1e-4}
    assert not bad, f"gradient checks out of tolerance: {bad}"
    assert elapsed < 120, f"gradient-integrity suite took {elapsed:.0f}s"
    report(1, f"grad_check < 1e-4 on 100 instances for {len(worst)} components "
              f"(worst {max(worst.values()):.2e}) in {elapsed:.0f}s")


# --------------------------------------------------------------- criterion 2

def test_criterion_2_grl_contract():
    rng = np.random.default_rng(2)
    for lam in (0.0, 0.5, 1.0, 2.0, 5.0, 10.0):
        x_val = rng.standard_normal((3, 4))
        upstream = rng.standard_normal((3, 4))
        x = ad.parameter(x_val)
        out = ad.grl(x, lam)
        assert np.array_equal(out.value, x_val)
        ad.backward(ad.sum_(ad.mul(out, ad.constant(upstream))))
        assert np.array_equal(x.grad, (-lam) * upstream)
    report(2, "forward bit-identity and backward == -lambda * upstream, "
              "exact, for lambda in {0, 0.5, 1, 2, 5, 10}")


# --------------------------------------------------------------- criterion 3

def test_criterion_3_disparate_impact_reproduction():
    gender = ev.di_from_rates([0.560, 0.495])
    ethnicity = ev.di_from_rates([0.570, 0.541, 0.434])
    assert abs(gender - 0.883) <= 0.001
    assert abs(ethnicity - 0.761) <= 0.001
    report(3, f"DI gender {gender:.4f} ~ 0.883, ethnicity {ethnicity:.4f} ~ 0.761")


# --------------------------------------------------------------- criterion 4

def test_criterion_4_loss_identities():
    bce = float(tr.bce_loss(ad.constant([0.5]), [1.0]).value)
    cce = float(onehot_cce(ad.constant(np.full((1, 3), 1 / 3)), onehot([1], 3)).value)
    ns = float(tr.ns_loss(ad.constant(np.full((1, 5), 0.2)), [2]).value)
    assert abs(bce - math.log(2)) < 1e-9
    assert abs(cce - math.log(3)) < 1e-9
    assert abs(ns - math.log(5)) < 1e-9
    rng = np.random.default_rng(4)
    p = rng.dirichlet(np.ones(5), size=32)
    pos = rng.integers(0, 5, 32)
    delta = abs(float(tr.ns_loss(ad.constant(p), pos).value)
                - float(onehot_cce(ad.constant(p), onehot(pos, 5)).value))
    assert delta < 1e-12
    report(4, "BCE(1,0.5)=ln2, CCE(uniform3)=ln3, NS(uniform5)=ln5; "
              f"ns==cce to {delta:.1e}")


# --------------------------------------------------------------- criterion 5

def test_criterion_5_auc_oracle_equivalence():
    worst = 0.0
    for seed in range(50):
        r = np.random.default_rng(500 + seed)
        n = int(r.integers(10, 301))
        scores = np.round(r.standard_normal(n), 1)
        labels = (r.random(n) < r.uniform(0.2, 0.8)).astype(int)
        if labels.min() == labels.max():
            labels[:2] = [0, 1]
        worst = max(worst, abs(ev.auc(scores, labels) - brute_force_auc(scores, labels)))
    assert worst < 1e-12
    report(5, f"rank AUC == O(n^2) pairwise count on 50 tied instances "
              f"(max delta {worst:.1e})")


# --------------------------------------------------------------- criterion 6

def test_criterion_6_training_state_machine():
    samples = dt.generate_synthetic(tiny_generator_config())
    dt.split_group_disjoint(samples, seed=3)
    cfg = tr.TrainConfig(variant="supervised-gender", modality="multimodal",
                         batch_size=16, max_epochs_pretrain=3, patience_pretrain=2,
                         max_epochs_adv=3, patience_adv=2, max_outer=2,
                         patience_outer=9, seed=5)
    model = HireabilityModel("multimodal", "supervised-gender", tiny_dims(), seed=5)
    captured = {"pre": None, "post": None, "seed": None}

    def observer(event, payload):
        if event == "phase_end" and payload["phase"] == "joint" and captured["pre"] is None:
            captured["pre"] = model.snapshot(model.theta_a())
        if event == "adv_reinit" and captured["post"] is None:
            captured["post"] = model.snapshot(model.theta_a())
            captured["seed"] = payload["seed"]

    model, log = tr.train_alternating(cfg, model, samples, observer=observer)
    collapsed = []
    for tag in log.phases():
        if not collapsed or collapsed[-1] != tag:
            collapsed.append(tag)
    assert collapsed == ["pretrain-main", "pretrain-adv", "joint", "adv-refit",
                         "joint", "adv-refit"]
    assert any(not np.array_equal(captured["pre"][n], captured["post"][n])
               for n in captured["pre"])
    fresh = ly.draw(np.random.default_rng(captured["seed"]),
                    adversary_shapes(model.variant, model.dims, model.q))
    for n, v in fresh.items():
        assert np.array_equal(captured["post"][n], v.value), n
    report(6, "phase tags follow pretrain-main, pretrain-adv, then "
              "(joint, reinit, adv-refit) x 2; reinit matches the seeded draw")


# --------------------------------------------------------------- criterion 7

def test_criterion_7_lambda_selection():
    stub = {0.5: (0.61, 0.10), 1.0: (0.60, 0.30), 2.0: (0.62, 0.28),
            5.0: (0.64, 0.20), 10.0: (0.66, 0.15)}
    assert tr.select_lambda(stub) == 1.0
    tie = {0.5: (1.0, 0.0), 1.0: (0.875, 0.0), 2.0: (1.0, 0.5),
           5.0: (0.75, 0.25), 10.0: (0.875, 0.125)}
    assert tr.select_lambda(tie) == 2.0  # 2 and 5 tie at exactly 0.5; smaller wins
    report(7, "argmin of validation L_T - L_A over the 5-point grid, "
              "ties to the smaller lambda")


# --------------------------------------------------------------- criterion 8

VARIANT_PLAN = {
    "unprotected": dict(variant="unprotected", lam=1.0),
    "supervised": dict(variant="supervised-gender", lam=1.0),
    "static-faces": dict(variant="static-faces", lam=10.0, q=2),
    "negative-sampling": dict(variant="negative-sampling", lam=2.0, q=2, k=5),
}


@pytest.fixture(scope="session")
def debiasing_runs():
    t0 = time.perf_counter()
    samples = dt.generate_synthetic(dt.GeneratorConfig())  # n=2000, beta=0.8, seed 7
    dt.split_group_disjoint(samples, seed=7)

    results = {}
    for name, plan in VARIANT_PLAN.items():
        cfg = tr.TrainConfig(modality="multimodal", seed=7, **plan)
        model = HireabilityModel("multimodal", cfg.variant, q=cfg.q, k=cfg.k, seed=7)
        model, _ = tr.train_alternating(cfg, model, samples)
        report = cli.build_report(model, samples, "gender")
        results[name] = {"hire_auc": report.hire_auc, "diag_auc": report.diag_auc["gender"],
                         "di_pred": report.di_predictions["gender"]}
    results["elapsed"] = time.perf_counter() - t0
    return results


def test_criterion_8_end_to_end_debiasing(debiasing_runs):
    r = debiasing_runs
    base = r["unprotected"]
    assert r["elapsed"] <= 20 * 60, f"end-to-end runs took {r['elapsed']:.0f}s"
    # (a) unprotected model performs and leaks
    assert base["hire_auc"] >= 0.85, base
    assert base["diag_auc"] >= 0.85, base
    # (b) supervised adversarial scrubs with bounded task cost
    sup = r["supervised"]
    assert sup["diag_auc"] <= 0.65, sup
    assert abs(sup["hire_auc"] - base["hire_auc"]) <= 0.10, (sup, base)
    # (c) each indirect method removes at least 0.10 of diagnostic AUC
    for name in ("static-faces", "negative-sampling"):
        assert r[name]["diag_auc"] <= base["diag_auc"] - 0.10, (name, r[name], base)
    # (d) DI of predictions moves toward 1 in at least 2 of 3 adversarial variants
    moved = sum(1 for name in ("supervised", "static-faces", "negative-sampling")
                if abs(1.0 - r[name]["di_pred"]) < abs(1.0 - base["di_pred"]))
    assert moved >= 2, r
    report(8, "unprotected AUC {:.3f}/diag {:.3f}; supervised diag {:.3f}; "
              "static {:.3f}; ns {:.3f}; DI toward 1 in {}/3; {:.0f}s".format(
                  base["hire_auc"], base["diag_auc"], sup["diag_auc"],
                  r["static-faces"]["diag_auc"], r["negative-sampling"]["diag_auc"],
                  moved, r["elapsed"]))


# --------------------------------------------------------------- criterion 9

def test_criterion_9_split_hygiene():
    for seed in (0, 1, 2):
        samples = dt.generate_synthetic(tiny_generator_config(n=400, seed=40 + seed))
        train, _, test = dt.split_group_disjoint(samples, seed=seed)
        assert ev.audit_overlap(train, test) == 0.0

    class Clip:
        def __init__(self, vid):
            self.video_id = vid

    train = [Clip(f"v{i}") for i in range(100)]
    test = [Clip(f"v{i}") for i in range(84)] + [Clip(f"u{i}") for i in range(16)]
    assert ev.audit_overlap(train, test) == 0.84
    report(9, "group-disjoint splits audit to 0.0; constructed 84/100 "
              "leaked split audits to exactly 0.84")


# -------------------------------------------------------------- criterion 10

class CountingSample:
    """Duck-typed sample that counts reads of the protected field."""

    def __init__(self, inner, counter):
        self._inner = inner
        self._counter = counter

    def __getattr__(self, name):
        if name == "z":
            self._counter[0] += 1
        return getattr(self._inner, name)


def test_criterion_10_privacy_by_construction():
    samples = dt.generate_synthetic(tiny_generator_config(n=160))
    dt.split_group_disjoint(samples, seed=3)
    cfg_common = dict(modality="multimodal", batch_size=16, max_epochs_pretrain=2,
                      patience_pretrain=2, max_epochs_adv=2, patience_adv=2,
                      max_outer=1, patience_outer=2, seed=5)
    for variant in ("static-faces", "negative-sampling"):
        counter = [0]
        proxied = [CountingSample(s, counter) for s in samples]
        cfg = tr.TrainConfig(variant=variant, q=2, **cfg_common)
        cli.run_training(cfg, proxied)
        assert counter[0] == 0, f"{variant} read z {counter[0]} times"
    # the instrumentation itself is live: the supervised path must read z
    counter = [0]
    proxied = [CountingSample(s, counter) for s in samples]
    cli.run_training(tr.TrainConfig(variant="supervised-gender", **cfg_common), proxied)
    assert counter[0] > 0
    report(10, "indirect training paths performed zero reads of z over "
               "full runs (supervised control did read it)")


# -------------------------------------------------------------- criterion 11

def test_criterion_11_determinism(tmp_path):
    import json

    gen_cfg = tmp_path / "gen.json"
    gen_cfg.write_text(json.dumps({
        "n": 160, "seq_len": {"language": 3, "audio": 4, "video": 3},
        "feat_dim": {"language": 3, "audio": 4, "video": 2},
        "skill_scale": 3.0, "noise_scale": 0.2, "seed": 11}))
    train_cfg = tmp_path / "train.json"
    train_cfg.write_text(json.dumps({
        "batch_size": 16, "max_epochs_pretrain": 2, "patience_pretrain": 2,
        "max_epochs_adv": 2, "patience_adv": 2, "max_outer": 1,
        "patience_outer": 2, "seed": 5}))

    outs = {}
    for run in ("one", "two"):
        d = tmp_path / run
        d.mkdir()
        data = d / "data.jsonl"
        model = d / "model.json"
        probe_dir = d / "probe"
        assert cli.main(["gen", "--config", str(gen_cfg), "--out", str(data)]) == 0
        assert cli.main(["train", "--data", str(data), "--variant", "static-faces",
                         "--modality", "multimodal", "--face-dim", "2",
                         "--lambda", "2", "--config", str(train_cfg),
                         "--out", str(model)]) == 0
        assert cli.main(["probe", "--model", str(model), "--data", str(data),
                         "--target", "gender", "--out-dir", str(probe_dir)]) == 0
        assert cli.main(["contributions", "--model", str(model), "--data", str(data),
                         "--out", str(d / "contrib.csv")]) == 0
        log_no_seconds = [",".join(line.split(",")[:-1]) for line in
                          (d / "model.json.log.csv").read_text().splitlines()]
        outs[run] = {
            "data": data.read_bytes(),
            "model": model.read_bytes(),
            "metrics": (probe_dir / "metrics.csv").read_bytes(),
            "report": (probe_dir / "report.md").read_bytes(),
            "contrib": (d / "contrib.csv").read_bytes(),
            "log": log_no_seconds,
        }
    for key in outs["one"]:
        assert outs["one"][key] == outs["two"][key], f"{key} differs between reruns"
    report(11, "gen/train/probe/contributions reruns byte-identical "
               "(train log modulo the wall-time column)")
