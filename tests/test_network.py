import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vecoff.rl.nets import Adam, Mlp

from conftest import fd_gradient_gap


class TestMlpBasics:
    def test_forward_shapes(self):
        net = Mlp([4, 8, 3], rng=np.random.default_rng(0))
        assert net.forward(np.zeros(4)).shape == (3,)
        assert net.forward(np.zeros((7, 4))).shape == (7, 3)

    def test_output_layer_is_linear(self):
        net = Mlp([2, 3], rng=np.random.default_rng(0))
        x = np.array([1.0, -2.0])
        expected = x @ net.weights[0] + net.biases[0]
        assert np.allclose(net.forward(x), expected)

    def test_from_weights_reproduces_forward(self):
        net = Mlp([5, 6, 2], rng=np.random.default_rng(3), activation="tanh")
        rebuilt = Mlp.from_weights(net.layers(), activation="tanh")
        x = np.random.default_rng(4).standard_normal((5, 5))
        assert np.array_equal(net.forward(x), rebuilt.forward(x))

    def test_clone_is_independent(self):
        net = Mlp([3, 4, 2], rng=np.random.default_rng(1))
        twin = net.clone()
        x = np.ones(3)
        before = net.forward(x).copy()
        twin.weights[0][:] = 0.0
        assert np.array_equal(net.forward(x), before)

    def test_params_are_live_views(self):
        net = Mlp([2, 2], rng=np.random.default_rng(2))
        x = np.ones(2)
        before = net.forward(x).copy()
        net.params()[0][:] += 1.0
        assert not np.array_equal(net.forward(x), before)

    def test_seed_fixes_initialization(self):
        a = Mlp([4, 8, 3], rng=np.random.default_rng(42))
        b = Mlp([4, 8, 3], rng=np.random.default_rng(42))
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_validation(self):
        with pytest.raises(ValueError):
            Mlp([4], rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            Mlp([4, 2], rng=np.random.default_rng(0), activation="sigmoid")
        with pytest.raises(ValueError):
            Mlp.from_weights([(np.zeros((3, 2)), np.zeros(5))])


class TestBackprop:
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gradients_match_finite_differences(self, activation, seed):
        rng = np.random.default_rng(seed)
        net = Mlp([6, 8, 5, 3], rng=rng, activation=activation)
        assert fd_gradient_gap(net, rng) < 1e-4

    def test_single_linear_layer_gradient(self):
        rng = np.random.default_rng(9)
        net = Mlp([4, 2], rng=rng)
        assert fd_gradient_gap(net, rng) < 1e-6

    def test_batch_gradients_sum_over_rows(self):
        # bias gradient of a linear layer under unit grad_out is the batch size
        net = Mlp([3, 2], rng=np.random.default_rng(5))
        x = np.random.default_rng(6).standard_normal((4, 3))
        _, cache = net.forward(x, want_cache=True)
        grads = net.backward(cache, np.ones((4, 2)))
        assert np.allclose(grads[1], 4.0)


    @given(
        sizes=st.lists(st.sampled_from([1, 3, 16, 66, 128]), min_size=2, max_size=4),
        batch=st.sampled_from([1, 5, 64]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_layers_and_weight_gradients_equal_fresh_products(self, sizes, batch, seed):
        # twice on one net, so the second call reuses the first call's buffers
        rng = np.random.default_rng(seed)
        net = Mlp(sizes, rng=rng)
        for _ in range(2):
            x = rng.standard_normal((batch, sizes[0]))
            _, cache = net.forward(x, want_cache=True)
            grad_out = rng.standard_normal((batch, sizes[-1]))
            grads = net.backward(cache, grad_out)
            pre, post, _ = cache
            g = grad_out
            for i in range(len(net.weights) - 1, -1, -1):
                assert np.array_equal(pre[i], post[i] @ net.weights[i] + net.biases[i])
                assert np.array_equal(grads[2 * i], post[i].T @ g)
                assert np.array_equal(grads[2 * i + 1], g.sum(axis=0))
                if i > 0:
                    g = (g @ net.weights[i].T) * (pre[i - 1] > 0.0).astype(np.float64)

    def test_backward_reuses_its_weight_gradient_buffers(self):
        rng = np.random.default_rng(7)
        net = Mlp([5, 8, 3], rng=rng)
        _, cache = net.forward(rng.standard_normal((4, 5)), want_cache=True)
        first = net.backward(cache, rng.standard_normal((4, 3)))
        second = net.backward(cache, rng.standard_normal((4, 3)))
        assert all(a is b for a, b in zip(first[0::2], second[0::2]))
        twin = net.clone()
        own = twin.backward(cache, rng.standard_normal((4, 3)))
        assert not any(a is b for a, b in zip(own[0::2], first[0::2]))


class TestForwardOne:
    @given(
        sizes=st.lists(
            st.sampled_from([1, 3, 16, 66, 128]) | st.integers(1, 140), min_size=2, max_size=4
        ),
        activation=st.sampled_from(["relu", "tanh"]),
        scale=st.sampled_from([1e-3, 1.0, 1e8]),
        zeros=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_forward_bit_for_bit(self, sizes, activation, scale, zeros, seed):
        # twice on one net, so the second call writes into the first's buffers
        rng = np.random.default_rng(seed)
        net = Mlp(sizes, rng=rng, activation=activation)
        for _ in range(2):
            x = rng.standard_normal(sizes[0]) * scale
            x[rng.random(sizes[0]) < zeros] = 0.0
            assert np.array_equal(net.forward_one(x), net.forward(x))

    def test_output_is_a_buffer_the_next_call_overwrites(self):
        rng = np.random.default_rng(3)
        net = Mlp([4, 8, 3], rng=rng)
        first = net.forward_one(rng.standard_normal(4))
        x = rng.standard_normal(4)
        assert net.forward_one(x) is first
        assert np.array_equal(first, net.forward(x))
        assert net.clone().forward_one(x) is not first


def _adam_by_expression(params, grad_steps, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """The Adam update as whole-array expressions with fresh temporaries."""
    ms = [np.zeros_like(p) for p in params]
    vs = [np.zeros_like(p) for p in params]
    for t, grads in enumerate(grad_steps, start=1):
        b1c = 1.0 - beta1**t
        b2c = 1.0 - beta2**t
        for p, g, m, v in zip(params, grads, ms, vs):
            m *= beta1
            m += (1.0 - beta1) * g
            v *= beta2
            v += (1.0 - beta2) * (g * g)
            p -= lr * (m / b1c) / (np.sqrt(v / b2c) + eps)
    return ms, vs


class TestAdam:
    @given(
        shapes=st.lists(
            st.sampled_from([(128, 128), (66, 128), (128, 16), (128,), (16,)])
            | st.tuples(st.integers(1, 9), st.integers(1, 9)),
            min_size=1,
            max_size=4,
        ),
        steps=st.integers(1, 5),
        lr=st.floats(1e-6, 0.5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_step_is_bit_identical_to_the_expression(self, shapes, steps, lr, seed):
        rng = np.random.default_rng(seed)
        start = [rng.standard_normal(s) for s in shapes]
        grad_steps = [[rng.standard_normal(s) for s in shapes] for _ in range(steps)]
        params = [p.copy() for p in start]
        opt = Adam(params, lr=lr)
        for grads in grad_steps:
            opt.step(grads)
        expected = [p.copy() for p in start]
        ms, vs = _adam_by_expression(expected, grad_steps, lr)
        for got, want in zip(params + opt.m + opt.v, expected + ms + vs):
            assert np.array_equal(got, want)

    def test_step_allocates_no_parameter_sized_array(self):
        rng = np.random.default_rng(0)
        params = Mlp([66, 128, 128, 16], rng=rng).params()
        grads = [rng.standard_normal(p.shape) for p in params]
        opt = Adam(params, lr=1e-3)
        opt.step(grads)  # warm-up
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            opt.step(grads)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - before < max(p.nbytes for p in params)

    def test_minimizes_a_quadratic(self):
        target = np.array([3.0, -2.0, 0.5])
        w = np.zeros(3)
        opt = Adam([w], lr=0.05)
        for _ in range(800):
            opt.step([2.0 * (w - target)])
        assert np.allclose(w, target, atol=1e-3)

    def test_updates_in_place(self):
        w = np.zeros(2)
        opt = Adam([w], lr=0.1)
        opt.step([np.ones(2)])
        assert w[0] != 0.0
        assert opt.params[0] is w

    def test_gradient_count_mismatch_rejected(self):
        opt = Adam([np.zeros(2)], lr=0.1)
        with pytest.raises(ValueError):
            opt.step([np.ones(2), np.ones(2)])
