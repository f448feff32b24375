import numpy as np
import pytest

from wirepinn import autodiff as ad
from wirepinn import fermi
from wirepinn.pinn import SolveOptions


def _fd_check(build, params_list, rng, n_probes=30, h=1e-6, tol=1e-5):
    """Compare backward grads against central differences of the scalar loss."""
    loss = build()
    ad.backward(loss)
    grads = [p.grad.copy() for p in params_list]
    worst = 0.0
    for _ in range(n_probes):
        li = int(rng.integers(len(params_list)))
        values = params_list[li].value
        idx = np.unravel_index(int(rng.integers(values.size)), values.shape)
        keep = values[idx]
        values[idx] = keep + h
        f_plus = float(ad._value(build()))
        values[idx] = keep - h
        f_minus = float(ad._value(build()))
        values[idx] = keep
        fd = (f_plus - f_minus) / (2 * h)
        an = grads[li][idx]
        worst = max(worst, abs(an - fd) / max(abs(an), abs(fd), 1e-12))
    assert worst <= tol, f"worst relative gradient error {worst}"


class TestPrimitives:
    def test_dense_gradients(self, rng):
        w = ad.Tensor(rng.standard_normal((5, 3)))
        b = ad.Tensor(rng.standard_normal(5))
        x = ad.Tensor(rng.standard_normal(3))
        _fd_check(lambda: ad.mse(ad.dense(x, w, b), 0.5), [x, w, b], rng)

    def test_elu_gradients(self, rng):
        x = ad.Tensor(rng.standard_normal(40))
        _fd_check(lambda: ad.mse(ad.elu(x), 0.1), [x], rng)

    def test_elu_values(self):
        out = ad.elu(np.array([-50.0, -1.0, 0.0, 2.0]))
        assert out[0] == pytest.approx(-1.0, abs=1e-12)
        assert out[2] == 0.0
        assert out[3] == 2.0
        # strictly above -1 in exact arithmetic; floats saturate at -1.0
        assert np.all(out >= -1.0)
        assert np.all(ad.elu(np.array([-5.0, -0.3, 4.0])) > -1.0)

    def test_fixed_affine_adjoint_is_transpose(self, rng):
        a = rng.standard_normal((6, 4))
        c = rng.standard_normal(6)
        x = ad.Tensor(rng.standard_normal(4))
        y = ad.fixed_affine(x, a, c)
        upstream = rng.standard_normal(6)
        loss = ad.mse(y, ad.Tensor(y.value - upstream))  # d(loss)/dy = 2/6 * upstream
        ad.backward(loss)
        assert np.allclose(x.grad, a.T @ (2.0 / 6.0 * upstream), rtol=1e-12)

    def test_log10_scale_shift_gather_gradients(self, rng):
        x = ad.Tensor(rng.uniform(0.5, 3.0, size=20))
        idx = np.array([1, 4, 7, 19])
        _fd_check(lambda: ad.mse(ad.gather(ad.log10(ad.scale_shift(x, 2.0, 1.0)), idx), 0.3),
                  [x], rng)

    def test_fermi_closure_gradients(self, params, rng):
        mask = np.ones(15, dtype=bool)
        mask[10:] = False
        phi = ad.Tensor(rng.uniform(0.0, 0.6, size=15))

        def build():
            n = ad.fermi_density(phi, params, mask)
            return ad.mse(ad.log10(ad.scale_shift(n, 1e-19, 1e-9)), -4.0)

        _fd_check(build, [phi], rng, tol=1e-4)

    def test_mse_gradient_zero_at_target(self):
        x = ad.Tensor(np.full(8, 0.25))
        loss = ad.mse(x, 0.25)
        ad.backward(loss)
        assert np.all(x.grad == 0.0)

    def test_mse_of_two_tensors(self, rng):
        a = ad.Tensor(rng.standard_normal(12))
        b = ad.Tensor(rng.standard_normal(12))
        _fd_check(lambda: ad.mse(a, b), [a, b], rng)

    def test_add_weighted(self, rng):
        a = ad.Tensor(rng.standard_normal(9))
        b = ad.Tensor(rng.standard_normal(9))
        _fd_check(lambda: ad.add_weighted(ad.mse(a, 0.0), 0.7, ad.mse(b, 1.0), 1.3), [a, b], rng)

    def test_backward_requires_scalar(self, rng):
        x = ad.Tensor(rng.standard_normal(4))
        with pytest.raises(ValueError, match="scalar"):
            ad.backward(ad.elu(x))

    def test_reused_node_accumulates(self, rng):
        x = ad.Tensor(np.array([2.0]))
        y = ad.scale_shift(x, 3.0, 0.0)
        loss = ad.add_weighted(ad.mse(y, 0.0), 1.0, ad.mse(y, 1.0), 1.0)
        ad.backward(loss)
        expected = 2 * 3.0 * (6.0 - 0.0) + 2 * 3.0 * (6.0 - 1.0)
        assert x.grad[0] == pytest.approx(expected)

    def test_dense_buffered_weight_grad_is_outer(self, rng):
        w = ad.Tensor(rng.standard_normal((7, 3)))
        b = ad.Tensor(np.zeros(7))
        x = rng.standard_normal(3)
        buf = np.empty((7, 3))
        ad.backward(ad.mse(ad.elu(ad.dense(x, w, b, buf)), 0.2))
        upstream = b.grad  # dL/dy, shared by the bias
        assert w.grad is buf
        assert np.array_equal(buf, np.outer(upstream, x))

    def test_dense_second_backward_overwrites_buffer(self, rng):
        w = ad.Tensor(rng.standard_normal((4, 2)))
        b = ad.Tensor(np.zeros(4))
        x = ad.Tensor(rng.standard_normal(2))
        buf = np.empty((4, 2))
        ad.backward(ad.mse(ad.dense(x, w, b, buf), 1.0))
        first = buf.copy()
        w.grad = b.grad = x.grad = None
        ad.backward(ad.mse(ad.dense(x, w, b, buf), -3.0))
        assert w.grad is buf
        assert not np.array_equal(buf, first)
        assert np.array_equal(buf, np.outer(b.grad, x.value))

    def test_raw_array_passthrough(self):
        out = ad.scale_shift(np.array([1.0, 2.0]), 2.0, 1.0)
        assert isinstance(out, np.ndarray)
        assert ad.mse(np.zeros(3), 0.0) == 0.0


class TestGeneratorNet:
    def test_output_shape_and_determinism(self):
        net = ad.GeneratorNet(n_out=2193, seed=42)
        out1 = net.forward(0.6).value
        out2 = net.forward(0.6).value
        assert out1.shape == (2193,)
        assert np.array_equal(out1, out2)

    def test_same_seed_same_params(self):
        a = ad.GeneratorNet(n_out=100, seed=42)
        b = ad.GeneratorNet(n_out=100, seed=42)
        assert all(np.array_equal(x.value, y.value) for x, y in zip(a.params, b.params))

    def test_different_seed_differs(self):
        a = ad.GeneratorNet(n_out=100, seed=42)
        b = ad.GeneratorNet(n_out=100, seed=43)
        assert any(not np.array_equal(x.value, y.value) for x, y in zip(a.params, b.params))

    def test_zeroed_final_layer_gives_zero_output(self):
        net = ad.GeneratorNet(n_out=50, hidden=(8, 16), seed=1)
        net.params[-2].value[:] = 0.0
        net.params[-1].value[:] = 0.0
        assert np.all(net.forward(0.3).value == 0.0)

    def test_output_above_elu_floor(self):
        net = ad.GeneratorNet(n_out=500, seed=3)
        assert np.all(net.forward(1.0).value > -1.0)

    def test_weight_grads_reuse_buffers(self):
        net = ad.GeneratorNet(n_out=30, hidden=(4, 8), seed=5)
        ad.backward(ad.mse(net.forward(0.5), 0.0))
        first = [p.grad for p in net.params[::2]]
        values = [g.copy() for g in first]
        net.zero_grad()
        ad.backward(ad.mse(net.forward(0.9), 0.0))
        assert all(p.grad is g for p, g in zip(net.params[::2], first))
        assert not any(np.array_equal(g, v) for g, v in zip(first, values))

    def test_unknown_arch_rejected(self):
        # the dense generator is the only architecture a solve can ask for
        assert SolveOptions(arch="dense").arch == "dense"
        for arch in ("conv", "transformer"):
            with pytest.raises(ValueError, match=rf"{arch!r}.*'dense'"):
                SolveOptions(arch=arch)


class TestAdam:
    def test_scalar_quadratic_convergence(self):
        w = ad.Tensor(np.array([0.0]))
        state = ad.AdamState([w], lr=1e-2)
        for _ in range(2000):
            ad.adam_step(state, [w], [2.0 * (w.value - 3.0)])
        assert abs(float(w.value[0]) - 3.0) <= 1e-3

    def test_zero_gradient_first_step_no_change(self):
        w = ad.Tensor(np.array([1.5, -2.0]))
        state = ad.AdamState([w])
        ad.adam_step(state, [w], [np.zeros(2)])
        assert np.array_equal(w.value, np.array([1.5, -2.0]))

    def test_sign_symmetry(self):
        wp = ad.Tensor(np.array([1.0]))
        wm = ad.Tensor(np.array([-1.0]))
        sp = ad.AdamState([wp])
        sm = ad.AdamState([wm])
        for _ in range(50):
            ad.adam_step(sp, [wp], [2.0 * wp.value])
            ad.adam_step(sm, [wm], [2.0 * wm.value])
        assert wp.value[0] == pytest.approx(-wm.value[0], rel=1e-15)

    def test_blocked_update_matches_textbook(self, rng):
        # larger than one block and not a multiple of it
        n = 70001
        assert n > ad._ADAM_BLOCK and n % ad._ADAM_BLOCK
        w = ad.Tensor(rng.standard_normal(n))
        state = ad.AdamState([w], lr=3e-3)
        p, m, v = w.value.copy(), np.zeros(n), np.zeros(n)
        b1, b2, eps = state.beta1, state.beta2, state.eps
        for t in range(1, 6):
            g = rng.standard_normal(n)
            ad.adam_step(state, [w], [g])
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * g * g
            p = p - (state.lr / (1.0 - b1**t)) * m / (np.sqrt(v * (1.0 / (1.0 - b2**t))) + eps)
            assert np.array_equal(state.m[0], m)
            assert np.array_equal(state.v[0], v)
            assert np.array_equal(w.value, p)

    def test_shape_mismatch_rejected(self):
        w = ad.Tensor(np.zeros(3))
        state = ad.AdamState([w])
        with pytest.raises(ValueError):
            ad.adam_step(state, [w], [np.zeros(4)])


class TestPlateauScheduler:
    def test_improving_stream_holds_lr(self):
        sched = ad.PlateauScheduler(lr=1e-3, patience=5)
        lr = 1e-3
        for k in range(100):
            lr = ad.scheduler_step(sched, 1.0 / (k + 1.0))
        assert lr == 1e-3

    def test_constant_stream_three_patience_windows(self):
        patience = 50
        sched = ad.PlateauScheduler(lr=1e-3, patience=patience)
        for _ in range(3 * patience):
            lr = ad.scheduler_step(sched, 1.0)
        assert lr == pytest.approx(2.5e-4)

    def test_floor_is_exact(self):
        sched = ad.PlateauScheduler(lr=1e-3, patience=3)
        for _ in range(500):
            lr = ad.scheduler_step(sched, 1.0)
        assert lr == 1e-5

    def test_never_increases(self):
        sched = ad.PlateauScheduler(lr=1e-3, patience=4)
        rng = np.random.default_rng(0)
        last = sched.lr
        for loss in rng.uniform(0.5, 1.5, size=300):
            lr = ad.scheduler_step(sched, float(loss))
            assert lr <= last
            last = lr
