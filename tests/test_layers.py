import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairavi import autodiff as ad
from fairavi import layers as ly
from tests.conftest import layer_params


def rng_of(seed):
    return np.random.default_rng(seed)


def gru_pair(rng, h, d):
    """Forward, then backward GRU parameters."""
    return layer_params(rng, ly.GruParams, h, d), layer_params(rng, ly.GruParams, h, d)


def scalar_gru_oracle(p, x, h):
    """Independent per-coordinate re-implementation of the gate formulas."""
    sig = lambda v: 1.0 / (1.0 + np.exp(-v))
    W_r, W_z, W_h = p.W_r.value, p.W_z.value, p.W_h.value
    U_r, U_z, U_h = p.U_r.value, p.U_z.value, p.U_h.value
    b_r, b_z, b_h = p.b_r.value, p.b_z.value, p.b_h.value
    H = p.U_r.value.shape[0]
    r = np.array([sig(W_r[i] @ x + U_r[i] @ h + b_r[i]) for i in range(H)])
    z = np.array([sig(W_z[i] @ x + U_z[i] @ h + b_z[i]) for i in range(H)])
    hhat = np.array([np.tanh(W_h[i] @ x + U_h[i] @ (r * h) + b_h[i]) for i in range(H)])
    return (1.0 - z) * h + z * hhat


def gru_step(p, x_t, h_prev):
    """The reference GRU cell as a tape: one reset/update/candidate step on
    a (B, d) input and (B, h) state.

    r = sig(W_r x + U_r h + b_r)
    z = sig(W_z x + U_z h + b_z)
    hhat = tanh(W_h x + U_h (r*h) + b_h)
    h_t = (1 - z)*h_prev + z*hhat
    """
    x_t, h_prev = ad.constant(x_t), ad.constant(h_prev)
    hidden = p.U_r.value.shape[0]
    if h_prev.value.shape != (x_t.value.shape[0], hidden):
        raise ad.ShapeMismatch(f"gru_step: state {h_prev.value.shape} does not fit "
                               f"input {x_t.value.shape} and hidden width {hidden}")
    px = {g: ad.linear(x_t, W, b) for g, W, b in
          (("r", p.W_r, p.b_r), ("z", p.W_z, p.b_z), ("h", p.W_h, p.b_h))}
    return gru_mix(p, px, h_prev)


def gru_mix(p, px, h_prev):
    """Recurrent half of the step; px carries W x + b per gate."""
    r = ad.sigmoid(ad.add(px["r"], ad.linear(h_prev, p.U_r)))
    z = ad.sigmoid(ad.add(px["z"], ad.linear(h_prev, p.U_z)))
    rh = ad.mul(r, h_prev)
    hhat = ad.tanh(ad.add(px["h"], ad.linear(rh, p.U_h)))
    # (1 - z)*h_prev + z*hhat, written as h_prev + z*(hhat - h_prev)
    return ad.add(h_prev, ad.mul(z, ad.sub(hhat, h_prev)))


def matmul(a, b):
    """2-D matrix product as a tape node."""
    a, b = ad.constant(a), ad.constant(b)
    if a.value.ndim != 2 or b.value.ndim != 2 or a.value.shape[1] != b.value.shape[0]:
        raise ad.ShapeMismatch(f"matmul: shapes {a.value.shape} and {b.value.shape} "
                               f"are not aligned")

    def backward(g):
        if a.requires_grad:
            a.grad += g @ b.value.T
        if b.requires_grad:
            b.grad += a.value.T @ g

    return ad.Node(a.value @ b.value, (a, b), op="matmul", backward=backward)


def concat(nodes, axis=-1):
    """Concatenation along `axis` as a tape node."""
    nodes = [ad.constant(n) for n in nodes]
    value = np.concatenate([n.value for n in nodes], axis=axis)
    ax = axis % value.ndim
    offsets = np.cumsum([0] + [n.value.shape[ax] for n in nodes])

    def backward(g):
        sl = [slice(None)] * value.ndim
        for n, start, stop in zip(nodes, offsets[:-1], offsets[1:]):
            if n.requires_grad:
                sl[ax] = slice(start, stop)
                n.grad += g[tuple(sl)]

    return ad.Node(value, tuple(nodes), op="concat", backward=backward)


TAPE_OP_CASES = {
    "matmul": lambda r: (lambda lv: ad.sum_(matmul(lv[0], lv[1])),
                         [r.standard_normal((2, 3)), r.standard_normal((3, 2))]),
    "concat": lambda r: (lambda lv: ad.sum_(ad.mul(concat(lv, axis=-1), concat(lv, axis=-1))),
                         [r.standard_normal((2, 2)), r.standard_normal((2, 3))]),
}


@pytest.mark.parametrize("op", sorted(TAPE_OP_CASES))
def test_tape_op_gradients(op):
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        fn, point = TAPE_OP_CASES[op](rng)
        worst = max(worst, ad.grad_check(fn, point, h=1e-5))
    assert worst < 1e-4, f"{op}: worst relative error {worst}"


def tape_attention(p, z):
    """attention_pool as a tape of linear, tanh, matmul, softmax, mul and sum_."""
    B, T, w = z.value.shape
    proj = p.u_p.value.shape[0]
    u = ad.tanh(ad.linear(ad.reshape(z, (B * T, w)), p.W_A, p.b))
    alpha = ad.softmax(ad.reshape(matmul(u, ad.reshape(p.u_p, (proj, 1))), (B, T)))
    return ad.sum_(ad.mul(z, ad.reshape(alpha, (B, T, 1))), axis=1), alpha


def tape_gmu(p, o_a, o_l, o_v):
    """gmu_fuse as a tape of concat, linear, tanh, sigmoid, mul and add."""
    cat = concat([o_a, o_l, o_v], axis=-1)
    proj = {m: ad.tanh(ad.linear(o, w)) for m, o, w in
            zip(ly.GMU_ORDER, (o_a, o_l, o_v), (p.W_aproj, p.W_lproj, p.W_vproj))}
    gates = {m: ad.sigmoid(ad.linear(cat, w)) for m, w in
             zip(ly.GMU_ORDER, (p.W_agating, p.W_lgating, p.W_vgating))}
    contributions = {m: ad.mul(gates[m], proj[m]) for m in proj}
    o_mm = ad.add(ad.add(contributions["audio"], contributions["language"]),
                  contributions["video"])
    return o_mm, gates, contributions


def tape_and_fused_results(layer_pair, inputs, params, out_shape, rng):
    """Output, value-only outputs and gradients of a tape oracle and a fused
    layer, as bytes, under one loss whose upstream gradient has a zero last
    row when the batch has more than one."""
    weight = rng.standard_normal(out_shape)
    if out_shape[0] > 1:
        weight[-1] = -0.0
    grads = dict(params, **{f"in{i}": x for i, x in enumerate(inputs) if x.requires_grad})
    results = []
    for layer in layer_pair:
        ad.zero_grad(grads.values())
        out, *extra = layer(*inputs)
        loss = ad.add(ad.sum_(ad.mul(ad.tanh(out), ad.constant(weight))),
                      ly.l2_penalty(params, 1e-3))
        ad.backward(loss)
        values = [n.value.tobytes() for e in extra
                  for n in (e.values() if isinstance(e, dict) else [e])]
        results.append((out.value.tobytes(), values,
                        {k: v.grad.tobytes() for k, v in grads.items()}))
    return results


class TestDense:
    def test_zero_weights_bias_only(self):
        p = ly.DenseParams(ad.parameter(np.zeros((1, 4))), ad.parameter([0.3]), "identity")
        for x in (np.zeros(4), np.ones(4), rng_of(0).standard_normal(4)):
            assert np.allclose(ly.dense_forward(p, x[None]).value, [[0.3]])

    def test_identity_tanh_at_zero(self):
        p = ly.DenseParams(ad.parameter(np.eye(3)), ad.parameter(np.zeros(3)), "tanh")
        assert np.array_equal(ly.dense_forward(p, np.zeros((1, 3))).value, np.zeros((1, 3)))

    def test_random_layer_matches_hand_evaluation(self):
        rng = rng_of(1)
        p = layer_params(rng, ly.DenseParams, 3, 4, activation="tanh")
        x = rng.standard_normal(4)
        expected = np.tanh(p.W.value @ x + p.b.value)
        assert np.allclose(ly.dense_forward(p, x[None]).value, expected[None], atol=1e-14)

    def test_width_mismatch(self):
        p = layer_params(rng_of(0), ly.DenseParams, 3, 4)
        with pytest.raises(ad.ShapeMismatch, match="dense"):
            ly.dense_forward(p, np.zeros((1, 5)))

    def test_batched_equals_rowwise(self):
        rng = rng_of(2)
        p = layer_params(rng, ly.DenseParams, 3, 4, activation="sigmoid")
        xs = rng.standard_normal((5, 4))
        batched = ly.dense_forward(p, xs).value
        rows = np.concatenate([ly.dense_forward(p, x[None]).value for x in xs])
        assert np.allclose(batched, rows, atol=1e-15)


class TestGruStep:
    def test_all_zero_params_halve_hidden(self):
        p = layer_params(rng_of(0), ly.GruParams, 4, 3)
        for node in (p.W_r, p.W_z, p.W_h, p.U_r, p.U_z, p.U_h):
            node.value[...] = 0.0
        v = rng_of(1).standard_normal(4)
        out = gru_step(p, np.zeros((1, 3)), v[None])
        assert np.allclose(out.value, 0.5 * v[None], atol=1e-14)

    def test_saturated_update_gate_returns_candidate(self):
        rng = rng_of(3)
        p = layer_params(rng, ly.GruParams, 4, 3)
        p.b_z.value[...] = 50.0  # z ~= 1 so h_t ~= hhat
        x, h = rng.standard_normal(3), rng.standard_normal(4)
        out = gru_step(p, x[None], h[None]).value[0]
        r = 1.0 / (1.0 + np.exp(-(p.W_r.value @ x + p.U_r.value @ h + p.b_r.value)))
        hhat = np.tanh(p.W_h.value @ x + p.U_h.value @ (r * h) + p.b_h.value)
        assert np.abs(out - hhat).max() < 1e-10

    def test_matches_scalar_oracle(self):
        rng = rng_of(4)
        for seed in range(10):
            p = layer_params(rng_of(100 + seed), ly.GruParams, 5, 3)
            x, h = rng.standard_normal(3), rng.standard_normal(5)
            assert np.allclose(gru_step(p, x[None], h[None]).value[0],
                               scalar_gru_oracle(p, x, h), atol=1e-12)

    def test_bounded_hidden_state(self):
        rng = rng_of(5)
        for seed in range(20):
            p = layer_params(rng_of(200 + seed), ly.GruParams, 4, 3)
            x = 3 * rng.standard_normal(3)
            h = rng.uniform(-1, 1, 4)
            out = gru_step(p, x[None], h[None]).value
            assert (np.abs(out) <= 1.0 + 1e-12).all()

    def test_width_mismatch(self):
        p = layer_params(rng_of(0), ly.GruParams, 4, 3)
        with pytest.raises(ad.ShapeMismatch):
            gru_step(p, np.zeros((1, 7)), np.zeros((1, 4)))


class TestBigru:
    def test_single_step_sequence(self):
        rng = rng_of(6)
        fwd, bwd = gru_pair(rng, 3, 2)
        x = rng.standard_normal((1, 2))
        out = ly.bigru_encode(fwd, bwd, x[None]).value
        f = gru_step(fwd, x, np.zeros((1, 3))).value
        b = gru_step(bwd, x, np.zeros((1, 3))).value
        assert np.allclose(out, np.concatenate([f, b], axis=1)[None], atol=1e-14)

    def test_output_shape_total_width(self):
        rng = rng_of(7)
        fwd, bwd = gru_pair(rng, 8, 5)
        out = ly.bigru_encode(fwd, bwd, rng.standard_normal((20, 5))[None])
        assert out.value.shape == (1, 20, 16)

    def test_matches_stepwise_loop(self):
        rng = rng_of(8)
        fwd, bwd = gru_pair(rng, 4, 3)
        x = rng.standard_normal((6, 3))[None]
        out = ly.bigru_encode(fwd, bwd, x).value
        h = np.zeros((1, 4))
        f_states = []
        for t in range(6):
            h = gru_step(fwd, x[:, t], h).value
            f_states.append(h)
        h = np.zeros((1, 4))
        b_states = [None] * 6
        for t in range(5, -1, -1):
            h = gru_step(bwd, x[:, t], h).value
            b_states[t] = h
        expected = np.concatenate([np.stack(f_states, axis=1), np.stack(b_states, axis=1)],
                                  axis=2)
        assert np.allclose(out, expected, atol=1e-13)

    def test_reversal_symmetry_with_shared_params(self):
        rng = rng_of(9)
        p = layer_params(rng, ly.GruParams, 3, 2)
        x = rng.standard_normal((5, 2))[None]
        fwd_rev = ly.bigru_encode(p, p, x[:, ::-1].copy()).value
        enc = ly.bigru_encode(p, p, x).value
        swapped = np.concatenate([enc[..., 3:], enc[..., :3]], axis=2)[:, ::-1]
        assert np.allclose(fwd_rev, swapped, atol=1e-13)

    def test_empty_sequence_rejected(self):
        rng = rng_of(0)
        fwd, bwd = gru_pair(rng, 3, 2)
        with pytest.raises(ad.ShapeMismatch, match="empty"):
            ly.bigru_encode(fwd, bwd, np.zeros((1, 0, 2)))

    @pytest.mark.parametrize("B, T, d, h, x_grad",
                             [(5, 1, 3, 4, False), (5, 2, 3, 4, False), (5, 7, 3, 4, False),
                              (32, 25, 20, 8, False), (32, 12, 16, 8, False),
                              (32, 20, 12, 8, False), (32, 25, 20, 8, True),
                              (512, 25, 20, 8, False)],
                             ids=["1", "2", "7", "default-width", "language", "video",
                                  "input-grad", "inference-chunk"])
    def test_fused_recurrence_matches_stepwise_tape_bitwise(self, B, T, d, h, x_grad):
        # Saved models stay byte-identical only if every gradient buffer
        # receives the same terms in the same order as a tape built from
        # linear projections and one gru_mix step per time step.  The
        # default-width, language and video cases are the default model's
        # training batches: B=32 clips of its (T, d) per modality; the last
        # is audio's 512-clip inference chunk.
        rng = rng_of(20 + T)
        fwd, bwd = gru_pair(rng, h, d)
        x = (ad.parameter if x_grad else ad.constant)(rng.standard_normal((B, T, d)))
        weight = ad.constant(rng.standard_normal((B, T, 2 * h)))
        params = {f"{tag}.{k}": v for tag, p in (("f", fwd), ("b", bwd))
                  for k, v in vars(p).items()}
        grads = dict(params, x=x) if x_grad else params

        def tape_sequence(p, reverse):
            flat = ad.reshape(x, (B * T, d))
            proj = {g: ad.reshape(ad.linear(flat, getattr(p, f"W_{g}"), getattr(p, f"b_{g}")),
                                  (B, T, h)) for g in "rzh"}
            state, out = ad.constant(np.zeros((B, h))), [None] * T
            for t in (range(T - 1, -1, -1) if reverse else range(T)):
                step = {g: ad.slice_(proj[g], np.s_[:, t, :]) for g in "rzh"}
                state = out[t] = gru_mix(p, step, state)
            return out

        def tape_encode():
            rows = zip(tape_sequence(fwd, False), tape_sequence(bwd, True))
            flat = concat([concat([hf, hb], axis=-1) for hf, hb in rows], axis=-1)
            return ad.reshape(flat, (B, T, 2 * h))

        results = []
        for encode in (tape_encode, lambda: ly.bigru_encode(fwd, bwd, x)):
            ad.zero_grad(grads.values())
            out = encode()
            loss = ad.add(ad.sum_(ad.mul(ad.tanh(out), weight)), ly.l2_penalty(params, 1e-3))
            ad.backward(loss)
            results.append((out.value.tobytes(),
                            {k: v.grad.tobytes() for k, v in grads.items()}))
        assert results[0] == results[1]

    def test_one_tape_node_per_encoder(self):
        rng = rng_of(3)
        fwd, bwd = gru_pair(rng, 4, 3)
        out = ly.bigru_encode(fwd, bwd, rng.standard_normal((2, 6, 3)))
        assert out.op == "gru" and out.value.shape == (2, 6, 8)
        ops = sorted(n.op for n in ad.topo_order(out) if n.parents)
        assert ops == ["gru", "reshape"]


class TestAttention:
    def test_identical_rows_give_uniform_weights(self):
        rng = rng_of(10)
        p = layer_params(rng, ly.AttentionParams, 4, 3)
        v = rng.standard_normal(3)
        z = np.tile(v, (1, 6, 1))
        o, alpha = ly.attention_pool(p, z)
        assert np.allclose(alpha.value, 1.0 / 6, atol=1e-12)
        assert np.allclose(o.value, v, atol=1e-12)

    def test_saturated_score_selects_row(self):
        rng = rng_of(11)
        p = layer_params(rng, ly.AttentionParams, 4, 3)
        z = rng.standard_normal((5, 3))
        # craft u_p so row 2's score dominates by ~50
        u = np.tanh(z @ p.W_A.value.T + p.b.value)
        direction = u[2] / np.linalg.norm(u[2]) ** 2
        p.u_p.value[...] = 100 * direction
        scores = u @ p.u_p.value
        if (scores[2] - np.delete(scores, 2).max()) > 50:
            o, _ = ly.attention_pool(p, z[None])
            assert np.abs(o.value[0] - z[2]).max() < 1e-10

    def test_convex_combination_envelope(self):
        rng = rng_of(12)
        for seed in range(25):
            r = rng_of(300 + seed)
            p = layer_params(r, ly.AttentionParams, 4, 3)
            z = r.standard_normal((7, 3))
            o, alpha = ly.attention_pool(p, z[None])
            assert (alpha.value >= 0).all()
            assert abs(alpha.value.sum() - 1.0) < 1e-9
            assert (o.value >= z.min(axis=0) - 1e-12).all()
            assert (o.value <= z.max(axis=0) + 1e-12).all()

    @pytest.mark.parametrize("z_grad", [False, True], ids=["z-constant", "z-parameter"])
    @pytest.mark.parametrize("T", [1, 12, 20, 25])
    @pytest.mark.parametrize("B", [1, 25, 32, 512])
    def test_fused_attention_matches_tape_bitwise(self, B, T, z_grad):
        # B=25 is the last partial batch of 1,401 training clips, B=512 the
        # inference chunk; T=12, 25 and 20 are language, audio and video.
        rng = rng_of(40 + T)
        p = layer_params(rng, ly.AttentionParams, 30, 16)
        p.b.value[...] = rng.standard_normal(30)
        z = (ad.parameter if z_grad else ad.constant)(rng.standard_normal((B, T, 16)))
        params = {f"att.{k}": v for k, v in vars(p).items()}
        results = tape_and_fused_results(
            (lambda z: tape_attention(p, z), lambda z: ly.attention_pool(p, z)),
            [z], params, (B, 16), rng)
        assert results[0] == results[1]

    def test_one_tape_node_per_attention(self):
        rng = rng_of(3)
        p = layer_params(rng, ly.AttentionParams, 4, 3)
        z = ad.parameter(rng.standard_normal((2, 6, 3)))
        o, alpha = ly.attention_pool(p, z)
        assert o.op == "attention" and o.parents == (z, p.W_A, p.b, p.u_p)
        assert [n.op for n in ad.topo_order(o) if n.parents] == ["attention"]
        assert alpha.op == "leaf" and not alpha.requires_grad

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(1, 9), st.floats(0.1, 20))
    def test_weights_normalized_property(self, seed, t_len, scale):
        r = rng_of(seed)
        p = layer_params(r, ly.AttentionParams, 3, 2)
        z = scale * r.standard_normal((1, t_len, 2))
        _, alpha = ly.attention_pool(p, z)
        assert (alpha.value >= 0).all()
        assert abs(alpha.value.sum() - 1.0) < 1e-9


class TestGmu:
    def fused(self, seed, width=4):
        r = rng_of(seed)
        p = layer_params(r, ly.GmuParams, width)
        oa, ol, ov = (r.standard_normal((1, width)) for _ in range(3))
        return p, oa, ol, ov

    def test_zero_projections_give_zero(self):
        p, oa, ol, ov = self.fused(13)
        for node in (p.W_aproj, p.W_lproj, p.W_vproj):
            node.value[...] = 0.0
        o_mm, _, _ = ly.gmu_fuse(p, oa, ol, ov)
        assert np.array_equal(o_mm.value, np.zeros((1, 4)))

    def test_gate_saturation_selects_video(self):
        p, oa, ol, ov = self.fused(14)
        cat = np.concatenate([oa, ol, ov], axis=1)
        direction = cat / np.linalg.norm(cat) ** 2
        p.W_vgating.value[...] = 50 * direction
        p.W_agating.value[...] = -50 * direction
        p.W_lgating.value[...] = -50 * direction
        o_mm, gates, _ = ly.gmu_fuse(p, oa, ol, ov)
        expected = np.tanh(ov @ p.W_vproj.value.T)
        assert np.abs(o_mm.value - expected).max() < 1e-10

    def test_decomposition_and_bound(self):
        for seed in range(25):
            p, oa, ol, ov = self.fused(400 + seed)
            o_mm, gates, contributions = ly.gmu_fuse(p, oa, ol, ov)
            total = sum(c.value for c in contributions.values())
            assert np.abs(o_mm.value - total).max() < 1e-12
            assert np.abs(o_mm.value).max() <= 3.0
            for g in gates.values():
                assert 0.0 < g.value < 1.0

    @pytest.mark.parametrize("o_grad", [False, True], ids=["o-constant", "o-parameter"])
    @pytest.mark.parametrize("B", [1, 25, 32, 512])
    def test_fused_gmu_matches_tape_bitwise(self, B, o_grad):
        rng = rng_of(60 + B)
        p = layer_params(rng, ly.GmuParams, 16)
        os = [(ad.parameter if o_grad else ad.constant)(rng.standard_normal((B, 16)))
              for _ in range(3)]
        params = {f"gmu.{k}": v for k, v in vars(p).items()}
        results = tape_and_fused_results(
            (lambda *os: tape_gmu(p, *os), lambda *os: ly.gmu_fuse(p, *os)),
            os, params, (B, 16), rng)
        assert results[0] == results[1]

    def test_one_tape_node_per_gmu(self):
        p, oa, ol, ov = self.fused(16)
        os = [ad.parameter(o) for o in (oa, ol, ov)]
        o_mm, gates, contributions = ly.gmu_fuse(p, *os)
        assert o_mm.op == "gmu" and len(o_mm.parents) == 9
        assert [n.op for n in ad.topo_order(o_mm) if n.parents] == ["gmu"]
        for leaf in [*gates.values(), *contributions.values()]:
            assert leaf.op == "leaf" and not leaf.requires_grad

    def test_width_mismatch(self):
        p, oa, ol, ov = self.fused(15)
        with pytest.raises(ad.ShapeMismatch, match="gmu"):
            ly.gmu_fuse(p, oa[:, :2], ol, ov)


# each layer's former single-sample form, which only batches now replace
UNBATCHED_CALLS = {
    "dense_forward": lambda r: ly.dense_forward(layer_params(r, ly.DenseParams, 3, 4),
                                                r.standard_normal(4)),
    "gru_step": lambda r: gru_step(layer_params(r, ly.GruParams, 4, 3), r.standard_normal(3),
                                      r.standard_normal(4)),
    "bigru_encode": lambda r: ly.bigru_encode(*gru_pair(r, 3, 2),
                                              r.standard_normal((5, 2))),
    "attention_pool": lambda r: ly.attention_pool(layer_params(r, ly.AttentionParams, 4, 3),
                                                  r.standard_normal((6, 3))),
    "gmu_fuse": lambda r: ly.gmu_fuse(layer_params(r, ly.GmuParams, 4),
                                      *(r.standard_normal(4) for _ in range(3))),
}


@pytest.mark.parametrize("layer", sorted(UNBATCHED_CALLS))
def test_unbatched_input_rejected(layer):
    with pytest.raises(ad.ShapeMismatch, match=layer.split("_")[0]):
        UNBATCHED_CALLS[layer](rng_of(0))


class TestDropout:
    def test_rate_zero_identity(self):
        x = rng_of(16).standard_normal((3, 4))
        out = ly.dropout(ad.constant(x), 0.0, training=True, rng=rng_of(0))
        assert np.array_equal(out.value, x)

    def test_inference_identity(self):
        x = rng_of(17).standard_normal((3, 4))
        out = ly.dropout(ad.constant(x), 0.2, training=False)
        assert np.array_equal(out.value, x)

    def test_mean_preserved_at_scale(self):
        x = np.ones(100_000)
        out = ly.dropout(ad.constant(x), 0.2, training=True, rng=rng_of(18))
        assert abs(out.value.mean() - 1.0) < 0.01

    def test_rate_one_rejected(self):
        with pytest.raises(ValueError):
            ly.dropout(ad.constant(np.ones(3)), 1.0, training=True, rng=rng_of(0))


class TestClipGradients:
    def test_below_threshold_unchanged(self):
        grads = {"a": np.array([0.3, 0.4])}  # norm 0.5
        out = ly.clip_gradients(grads, 1.0)
        assert np.array_equal(out["a"], grads["a"])

    def test_three_four_five(self):
        out = ly.clip_gradients({"g": np.array([3.0, 4.0])}, 1.0)
        assert np.allclose(out["g"], [0.6, 0.8], atol=1e-15)

    def test_post_clip_norm(self):
        for seed in range(20):
            r = rng_of(500 + seed)
            grads = {f"p{i}": r.standard_normal((3, 2)) * r.uniform(0.1, 5)
                     for i in range(4)}
            pre = np.sqrt(sum((g ** 2).sum() for g in grads.values()))
            out = ly.clip_gradients(grads, 1.0)
            post = np.sqrt(sum((g ** 2).sum() for g in out.values()))
            assert post <= pre + 1e-12
            assert abs(post - min(pre, 1.0)) < 1e-12


class TestL2Penalty:
    def test_zero_coeff(self):
        params = {"W_1": ad.parameter(np.ones((2, 2)))}
        assert float(ly.l2_penalty(params, 0.0).value) == 0.0

    def test_single_weight(self):
        params = {"W_1": ad.parameter([[3.0]]), "b_1": ad.parameter([5.0])}
        assert abs(float(ly.l2_penalty(params, 1e-4).value) - 9e-4) < 1e-18

    def test_matches_direct_sum_excluding_biases(self):
        r = rng_of(19)
        params = {"enc.W_r": ad.parameter(r.standard_normal((3, 2))),
                  "enc.b_r": ad.parameter(r.standard_normal(3)),
                  "att.u_p": ad.parameter(r.standard_normal(4)),
                  "W_2": ad.parameter(r.standard_normal((2, 2))),
                  "b_2": ad.parameter(r.standard_normal(2))}
        expected = sum((p.value ** 2).sum() for n, p in params.items()
                       if not ly.is_bias(n)) * 1e-4
        assert abs(float(ly.l2_penalty(params, 1e-4).value) - expected) < 1e-15


def _dense_case(r):
    x = r.standard_normal((2, 3))
    fn = lambda lv: ad.sum_(ly.dense_forward(ly.DenseParams(lv[0], lv[1], "tanh"),
                                             ad.constant(x)))
    return fn, [r.standard_normal((2, 3)), r.standard_normal(2)]


def _gru_case(r):
    x, h = r.standard_normal((2, 2)), r.standard_normal((2, 3))
    fn = lambda lv: ad.sum_(gru_step(ly.GruParams(*lv),
                                        ad.constant(x), ad.constant(h)))
    point = ([r.standard_normal((3, 2)) for _ in range(3)]
             + [r.standard_normal((3, 3)) for _ in range(3)]
             + [r.standard_normal(3) for _ in range(3)])
    return fn, point


def _bigru_case(r):
    weight = r.standard_normal((2, 3, 6))

    def fn(lv):
        fwd, bwd = ly.GruParams(*lv[:9]), ly.GruParams(*lv[9:18])
        return ad.sum_(ad.mul(ly.bigru_encode(fwd, bwd, lv[18]), ad.constant(weight)))

    point = [r.standard_normal(shape) for _ in range(2)
             for shape in [(3, 2)] * 3 + [(3, 3)] * 3 + [(3,)] * 3]
    return fn, point + [r.standard_normal((2, 3, 2))]


def _attention_case(r):
    z = r.standard_normal((1, 3, 2))
    fn = lambda lv: ad.sum_(ly.attention_pool(ly.AttentionParams(*lv),
                                              ad.constant(z))[0])
    return fn, [r.standard_normal((3, 2)), r.standard_normal(3), r.standard_normal(3)]


def _gmu_case(r):
    os = [r.standard_normal((1, 2)) for _ in range(3)]
    fn = lambda lv: ad.sum_(ly.gmu_fuse(ly.GmuParams(*lv),
                                        *(ad.constant(o) for o in os))[0])
    point = ([r.standard_normal((2, 2)) for _ in range(3)]
             + [r.standard_normal((1, 6)) for _ in range(3)])
    return fn, point


def _attention_input_case(r):
    fn = lambda lv: ad.sum_(ly.attention_pool(ly.AttentionParams(*lv[:3]), lv[3])[0])
    return fn, [r.standard_normal((3, 2)), r.standard_normal(3), r.standard_normal(3),
                r.standard_normal((2, 3, 2))]


def _gmu_input_case(r):
    fn = lambda lv: ad.sum_(ly.gmu_fuse(ly.GmuParams(*lv[:6]), *lv[6:])[0])
    point = ([r.standard_normal((2, 2)) for _ in range(3)]
             + [r.standard_normal((1, 6)) for _ in range(3)]
             + [r.standard_normal((2, 2)) for _ in range(3)])
    return fn, point


LAYER_GRAD_CASES = {
    "dense": _dense_case,
    "gru_step": _gru_case,
    "bigru_encode": _bigru_case,
    "attention": _attention_case,
    "attention-input": _attention_input_case,
    "gmu": _gmu_case,
    "gmu-inputs": _gmu_input_case,
}


@pytest.mark.parametrize("layer", sorted(LAYER_GRAD_CASES))
def test_layer_gradients(layer):
    worst = 0.0
    for seed in range(30):
        rng = rng_of(700 + seed)
        fn, point = LAYER_GRAD_CASES[layer](rng)
        worst = max(worst, ad.grad_check(fn, point, h=1e-5))
    assert worst < 1e-5, f"{layer}: worst relative error {worst}"
