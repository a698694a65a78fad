import inspect
import re
import threading

import numpy as np
import pytest

from fairavi import autodiff as ad
from tests.test_layers import matmul


def triple_loop_matmul(a, b):
    n, k = a.shape
    k2, m = b.shape
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            for l in range(k):
                out[i, j] += a[i, l] * b[l, j]
    return out


class TestForwardOps:
    def test_tanh_of_zero_is_zero(self):
        out = ad.tanh(ad.constant(np.zeros((3, 2))))
        assert np.array_equal(out.value, np.zeros((3, 2)))

    def test_softmax_of_constant_vector(self):
        out = ad.softmax(ad.constant(np.full(5, 3.7)))
        assert np.allclose(out.value, 0.2, atol=1e-15)

    def test_matmul_matches_triple_loop(self):
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal((3, 4)), rng.standard_normal((4, 2))
        out = matmul(ad.constant(a), ad.constant(b))
        assert np.allclose(out.value, triple_loop_matmul(a, b), atol=1e-12)

    def test_matmul_shape_mismatch_names_op_and_shapes(self):
        with pytest.raises(ad.ShapeMismatch, match=r"matmul.*\(3, 4\).*\(5, 2\)"):
            matmul(ad.constant(np.zeros((3, 4))), ad.constant(np.zeros((5, 2))))

    def test_add_shape_mismatch(self):
        with pytest.raises(ad.ShapeMismatch, match="add"):
            ad.add(ad.constant(np.zeros((3, 4))), ad.constant(np.zeros((2, 5))))

    def test_softmax_rows_positive_and_normalized(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rng.standard_normal((4, 6)) * rng.uniform(0.1, 30)
            s = ad.softmax(ad.constant(x)).value
            assert (s > 0).all()
            assert np.abs(s.sum(axis=-1) - 1.0).max() < 1e-12


class TestGrl:
    def test_forward_bit_identity(self):
        x = ad.constant(np.array([1.2, -3.0]))
        for lam in (0.0, 0.5, 1.0, 2.0, 5.0, 10.0):
            out = ad.grl(x, lam)
            assert np.array_equal(out.value, x.value)

    def test_backward_scales_by_minus_lambda(self):
        x = ad.parameter(np.array([1.2, -3.0]))
        out = ad.grl(x, 2.0)
        ad.backward(ad.sum_(out))
        assert np.array_equal(x.grad, np.array([-2.0, -2.0]))

    def test_lambda_zero_decouples(self):
        x = ad.parameter(np.array([1.2, -3.0]))
        ad.backward(ad.sum_(ad.grl(x, 0.0)))
        assert np.array_equal(x.grad, np.zeros(2))

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            ad.grl(ad.constant([1.0]), -0.5)


class TestBackward:
    def test_square(self):
        x = ad.parameter(np.array(3.0))
        ad.backward(ad.mul(x, x))
        assert np.allclose(x.grad, 6.0)

    def test_tanh_at_zero(self):
        x = ad.parameter(np.array(0.0))
        ad.backward(ad.tanh(x))
        assert np.allclose(x.grad, 1.0)

    def test_non_scalar_loss_rejected(self):
        x = ad.parameter(np.ones(3))
        with pytest.raises(ValueError, match="scalar"):
            ad.backward(ad.mul(x, x))

    def test_accumulation_and_reset(self):
        x = ad.parameter(np.array(2.0))
        loss = ad.mul(x, x)
        ad.backward(loss)
        ad.backward(loss)
        assert np.allclose(x.grad, 8.0)  # two accumulated passes
        x.zero_grad()
        assert np.allclose(x.grad, 0.0)

    def test_two_layer_network_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((2, 3))

        def fn(leaves):
            w1, b1, w2, b2 = leaves
            h = ad.tanh(ad.linear(x, w1, b1))
            out = ad.sigmoid(ad.linear(h, w2, b2))
            return ad.mean(ad.mul(out, out))

        point = [rng.standard_normal((4, 3)), rng.standard_normal(4),
                 rng.standard_normal((1, 4)), rng.standard_normal(1)]
        assert ad.grad_check(fn, point, h=1e-5) < 1e-6

    def test_backward_linearity(self):
        rng = np.random.default_rng(3)
        v = rng.standard_normal(5)

        def grads_of(combine):
            x = ad.parameter(v.copy())
            l1 = ad.sum_(ad.mul(x, x))
            l2 = ad.mean(ad.tanh(x))
            ad.backward(combine(x, l1, l2))
            return x.grad.copy()

        joint = grads_of(lambda x, l1, l2: ad.add(l1, l2))

        x = ad.parameter(v.copy())
        ad.backward(ad.sum_(ad.mul(x, x)))
        ad.backward(ad.mean(ad.tanh(x)))
        assert np.abs(joint - x.grad).max() < 1e-12


class TestTape:
    def test_topological_order_parents_first(self):
        rng = np.random.default_rng(21)
        w = ad.parameter(rng.standard_normal((3, 3)))
        x = ad.constant(rng.standard_normal((2, 3)))
        h = ad.tanh(ad.linear(x, w))
        loss = ad.mean(ad.mul(h, h))
        order = ad.topo_order(loss)
        position = {id(n): i for i, n in enumerate(order)}
        assert position[id(loss)] == len(order) - 1
        for node in order:
            for parent in node.parents:
                assert position[id(parent)] < position[id(node)]

    def test_diamond_graph_visited_once(self):
        x = ad.parameter(np.array([1.0, 2.0]))
        y = ad.tanh(x)
        loss = ad.sum_(ad.mul(y, y))  # y feeds both operands
        order = ad.topo_order(loss)
        assert len([n for n in order if n is y]) == 1
        ad.backward(loss)
        expected = 2.0 * np.tanh(x.value) * (1.0 - np.tanh(x.value) ** 2)
        assert np.abs(x.grad - expected).max() < 1e-12


class TestGradCheckHarness:
    def test_affine_map_closed_form(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal(4)

        def fn(leaves):
            (w,) = leaves
            return ad.sum_(ad.linear(ad.reshape(ad.constant(x), (1, 4)), w))

        # linear map: no truncation error, so a larger step only reduces noise
        assert ad.grad_check(fn, [rng.standard_normal((2, 4))], h=1e-4) < 1e-9

    def test_nonfinite_reported_with_coordinate(self):
        def fn(leaves):
            (w,) = leaves
            return ad.sum_(ad.log(w))

        with pytest.raises(ad.GradCheckError, match="parameter 0"):
            ad.grad_check(fn, [np.array([1.0, 0.0])], h=1e-5)


# every differentiable op passes grad_check on random instances;
# grl is exercised separately above since its backward is a reversal by contract
OP_CASES = {
    "add": lambda r: (lambda lv: ad.sum_(ad.mul(ad.add(lv[0], lv[1]), lv[0])),
                      [r.standard_normal((3, 4)), r.standard_normal(4)]),
    "sub": lambda r: (lambda lv: ad.sum_(ad.mul(ad.sub(lv[0], lv[1]), lv[0])),
                      [r.standard_normal((3, 4)), r.standard_normal(4)]),
    "mul": lambda r: (lambda lv: ad.sum_(ad.mul(lv[0], lv[1])),
                      [r.standard_normal((2, 3)), r.standard_normal((2, 3))]),
    # with and without the bias, sharing x and W
    "linear": lambda r: (lambda lv: ad.sum_(ad.mul(ad.linear(lv[0], lv[1], lv[2]),
                                                   ad.linear(lv[0], lv[1]))),
                         [r.standard_normal((3, 4)), r.standard_normal((2, 4)),
                          r.standard_normal(2)]),
    "l2": lambda r: (lambda lv: ad.add(ad.l2(lv, 0.7), ad.sum_(ad.tanh(lv[0]))),
                     [r.standard_normal((2, 3)), r.standard_normal(4)]),
    "neg": lambda r: (lambda lv: ad.sum_(ad.mul(ad.neg(lv[0]), lv[0])),
                      [r.standard_normal(5)]),
    "tanh": lambda r: (lambda lv: ad.sum_(ad.tanh(lv[0])), [r.standard_normal(5)]),
    "sigmoid": lambda r: (lambda lv: ad.sum_(ad.sigmoid(lv[0])), [r.standard_normal(5)]),
    "log": lambda r: (lambda lv: ad.sum_(ad.log(lv[0])), [r.uniform(0.5, 2.0, 5)]),
    "clip": lambda r: (lambda lv: ad.sum_(ad.mul(ad.clip(lv[0], -10.0, 10.0), lv[0])),
                       [r.standard_normal(5)]),
    "softmax": lambda r: (lambda lv: ad.sum_(ad.mul(ad.softmax(lv[0]), lv[1])),
                          [r.standard_normal((2, 4)), r.standard_normal((2, 4))]),
    "reshape": lambda r: (lambda lv: ad.sum_(ad.mul(ad.reshape(lv[0], (6,)),
                                                    ad.reshape(lv[0], (6,)))),
                          [r.standard_normal((2, 3))]),
    "slice": lambda r: (lambda lv: ad.sum_(ad.mul(ad.slice_(lv[0], np.s_[:, 1:3]),
                                                  ad.slice_(lv[0], np.s_[:, 0:2]))),
                        [r.standard_normal((2, 4))]),
    "sum": lambda r: (lambda lv: ad.sum_(ad.mul(ad.sum_(lv[0], axis=0), lv[1])),
                      [r.standard_normal((3, 4)), r.standard_normal(4)]),
    "mean": lambda r: (lambda lv: ad.sum_(ad.mul(ad.mean(lv[0], axis=1), lv[1])),
                       [r.standard_normal((3, 4)), r.standard_normal(3)]),
}


@pytest.mark.parametrize("op", sorted(OP_CASES))
def test_registered_op_gradients(op):
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        fn, point = OP_CASES[op](rng)
        worst = max(worst, ad.grad_check(fn, point, h=1e-5))
    assert worst < 1e-4, f"{op}: worst relative error {worst}"


def test_every_registered_op_is_covered():
    # the engine's ops are the names its Node constructors are tagged with
    ops = set(re.findall(r'op="(\w+)"', inspect.getsource(ad))) - {"leaf"}
    assert "linear" in ops and "grl" in ops
    assert set(OP_CASES) | {"grl"} == ops


class TestFusedOps:
    """linear and l2 give the bytes of the op chains they replace."""

    @staticmethod
    def _run(build, leaves):
        for leaf in leaves:
            leaf.zero_grad()
        out = build()
        ad.backward(out)
        return out.value.tobytes(), [leaf.grad.tobytes() for leaf in leaves]

    @pytest.mark.parametrize("with_bias", [True, False])
    def test_linear_matches_matmul_transpose_add_bitwise(self, with_bias):
        rng = np.random.default_rng(41)
        x, W, b = (ad.parameter(rng.standard_normal(s)) for s in ((32, 20), (8, 20), (8,)))
        c = ad.constant(rng.standard_normal((32, 8)))

        def loss(y):
            return ad.sum_(ad.mul(ad.tanh(y), c))

        # W.T as a leaf of its own, whose gradient transposed is W's
        Wt = ad.parameter(W.value.T.copy())

        def chain():
            y = matmul(x, Wt)
            return loss(ad.add(y, b) if with_bias else y)

        fused = lambda: loss(ad.linear(x, W, b if with_bias else None))
        value, (g_x, _, g_b) = self._run(chain, [x, Wt, b])
        chained = value, [g_x, np.ascontiguousarray(Wt.grad.T).tobytes(), g_b]
        assert chained == self._run(fused, [x, W, b])

    def test_l2_matches_sum_of_squares_chain_bitwise(self):
        # W_a and W_c also feed the data term, so their buffers get three
        # terms whose order decides the bytes: the data term first, the two
        # L2 terms last; three weights also pin the order of the value's sum
        rng = np.random.default_rng(42)
        W_a, W_b, W_c = (ad.parameter(rng.standard_normal(s))
                         for s in ((8, 20), (30, 16), (5, 8)))
        x = ad.constant(rng.standard_normal((32, 20)))
        coeff = 0.37

        def chain():
            total = ad.constant(0.0)
            for w in (W_a, W_b, W_c):
                total = ad.add(total, ad.sum_(ad.mul(w, w)))
            return ad.mul(total, ad.constant(coeff))

        def loss(penalty):
            return ad.add(ad.sum_(ad.tanh(ad.linear(ad.tanh(ad.linear(x, W_a)), W_c))),
                          penalty())

        fused = lambda: ad.l2([W_a, W_b, W_c], coeff)
        leaves = [W_a, W_b, W_c]
        assert self._run(lambda: loss(chain), leaves) == self._run(lambda: loss(fused), leaves)

    def test_linear_rejects_misfit_shapes(self):
        with pytest.raises(ad.ShapeMismatch, match="linear"):
            ad.linear(np.zeros((2, 3)), np.zeros((4, 2)))
        with pytest.raises(ad.ShapeMismatch, match="bias"):
            ad.linear(np.zeros((2, 3)), np.zeros((4, 3)), np.zeros(3))


class TestNoTape:
    """Inside ad.no_tape() nodes keep values but record no tape."""

    @staticmethod
    def _loss(w, x):
        return ad.sum_(ad.tanh(ad.linear(x, w)))

    def test_node_built_inside_has_no_parents(self):
        rng = np.random.default_rng(51)
        w, x = ad.parameter(rng.standard_normal((4, 3))), ad.constant(rng.standard_normal((5, 3)))
        recorded = self._loss(w, x)
        with ad.no_tape():
            untaped = self._loss(w, x)
            leaf = ad.parameter(np.zeros(2))
        assert recorded.parents and recorded.requires_grad
        assert untaped.parents == () and untaped._backward is None
        assert not untaped.requires_grad
        assert untaped.value.tobytes() == recorded.value.tobytes()
        assert leaf.requires_grad       # a trainable leaf stays one

    def test_recording_resumes_after_the_block_and_after_an_exception(self):
        rng = np.random.default_rng(52)
        w, x = ad.parameter(rng.standard_normal((4, 3))), ad.constant(rng.standard_normal((5, 3)))
        ad.backward(self._loss(w, x))
        expected = w.grad.copy()
        with ad.no_tape():
            pass
        with pytest.raises(RuntimeError, match="inside"):
            with ad.no_tape():
                raise RuntimeError("inside")
        w.zero_grad()
        loss = self._loss(w, x)
        assert loss.parents
        ad.backward(loss)
        assert w.grad.tobytes() == expected.tobytes()

    def test_a_thread_that_trains_keeps_its_tape(self):
        rng = np.random.default_rng(53)
        w, x = ad.parameter(rng.standard_normal((4, 3))), ad.constant(rng.standard_normal((5, 3)))
        ad.backward(self._loss(w, x))
        expected = w.grad.copy()
        w.zero_grad()
        seen = {}

        def train():
            loss = self._loss(w, x)
            ad.backward(loss)
            seen["parents"] = loss.parents

        with ad.no_tape():
            worker = threading.Thread(target=train)
            worker.start()
            worker.join(timeout=30)
            assert not worker.is_alive()
            assert self._loss(w, x).parents == ()   # this thread still records nothing
        assert seen["parents"]
        assert w.grad.tobytes() == expected.tobytes()
