import numpy as np
import pytest

from wirepinn import autodiff as ad
from wirepinn import fermi, surrogate
from wirepinn.pinn import PinnProblem, SolveOptions


def _weighted(problem, w_boundary, w_fd):
    return PinnProblem(mesh=problem.mesh, surrogate=problem.surrogate,
                       params=problem.params, w_boundary=w_boundary, w_fd=w_fd)


def _n_tilde(problem, seed=7):
    # a postprocessed generator output: raw in [-0.5, 1.5] plus 1 + 1e-9
    return np.random.default_rng(seed).uniform(0.5, 2.5, size=problem.mesh.n_nodes)


def _assert_density_gradient(problem, n_tilde, nodes, v_gate=0.5, h=1e-6):
    """build_losses's g against central differences of its total."""
    _, _, f0, g = problem.build_losses(n_tilde, v_gate)
    # central differences lose about eps * |f| / h to rounding
    atol = 1e-8 * abs(f0)
    for i in nodes:
        keep = n_tilde[i]
        n_tilde[i] = keep + h
        f_plus = problem.build_losses(n_tilde, v_gate)[2]
        n_tilde[i] = keep - h
        f_minus = problem.build_losses(n_tilde, v_gate)[2]
        n_tilde[i] = keep
        fd = (f_plus - f_minus) / (2 * h)
        assert abs(g[i] - fd) <= 1e-4 * max(abs(g[i]), abs(fd)) + atol, i
    return g


def _probe_nodes(problem, count=6, seed=3):
    """A few gate nodes, silicon nodes and oxide nodes."""
    rng = np.random.default_rng(seed)
    mask = problem.mesh.silicon_mask()
    picks = [problem.gate_nodes, np.flatnonzero(mask), np.flatnonzero(~mask)]
    return [int(i) for p in picks if len(p) for i in rng.choice(p, min(count, len(p)), replace=False)]


def _quadratic(net, v_scaled, target):
    """mean((output - target)^2) of the net and its gradient w.r.t. the output."""
    diff = net.forward(v_scaled) - target
    return float(np.mean(diff * diff)), (2.0 / diff.size) * diff


def _layer_inputs(net, v_scaled):
    """Each dense layer's input, recomputed from the parameters."""
    inputs = [np.array([v_scaled], dtype=net.params[0].value.dtype)]
    for w, b in zip(net.params[:-2:2], net.params[1:-2:2]):
        inputs.append(ad._elu(w.value @ inputs[-1] + b.value)[0])
    return inputs


def _assert_textbook_adam(rng, dtype):
    # larger than one block and not a multiple of it; the textbook
    # formulas in the parameter's dtype, Python floats as scalars
    n = 70001
    assert n > ad._ADAM_BLOCK and n % ad._ADAM_BLOCK
    w = ad.Tensor(rng.standard_normal(n).astype(dtype))
    state = ad.AdamState([w], lr=3e-3)
    p, m, v = w.value.copy(), np.zeros(n, dtype), np.zeros(n, dtype)
    b1, b2, eps = ad.ADAM_BETA1, ad.ADAM_BETA2, ad.ADAM_EPS
    for t in range(1, 6):
        g = rng.standard_normal(n).astype(dtype)
        ad.adam_step(state, [w], [g])
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g * g
        p = p - (state.lr / (1.0 - b1**t)) * m / (np.sqrt(v * (1.0 / (1.0 - b2**t))) + eps)
        assert np.array_equal(state.m[0], m)
        assert np.array_equal(state.v[0], v)
        assert np.array_equal(w.value, p)
    assert all(a.dtype == dtype for a in (w.value, state.m[0], state.v[0], *state._scratch))


class TestPrimitives:
    def test_dense_gradients(self, rng, float64_net):
        # GeneratorNet.backward against central differences, every W and b
        net = float64_net(ad.GeneratorNet(n_out=12, hidden=(5, 7), seed=3))
        net.backward(_quadratic(net, 0.4, 0.3)[1])
        grads = [p.grad.copy() for p in net.params]
        h = 1e-6
        worst = 0.0
        for p, g in zip(net.params, grads):
            for _ in range(5):
                idx = np.unravel_index(int(rng.integers(p.value.size)), p.value.shape)
                keep = p.value[idx]
                p.value[idx] = keep + h
                f_plus = _quadratic(net, 0.4, 0.3)[0]
                p.value[idx] = keep - h
                f_minus = _quadratic(net, 0.4, 0.3)[0]
                p.value[idx] = keep
                fd = (f_plus - f_minus) / (2 * h)
                worst = max(worst, abs(g[idx] - fd) / max(abs(g[idx]), abs(fd), 1e-12))
        assert worst <= 1e-5, f"worst relative gradient error {worst}"

    def test_elu_gradients(self, rng):
        x = rng.standard_normal(40)
        h = 1e-6
        fd = (ad._elu(x + h)[0] - ad._elu(x - h)[0]) / (2 * h)
        assert np.allclose(ad._elu(x)[1], fd, rtol=1e-6, atol=1e-9)

    def test_elu_values(self):
        out = ad._elu(np.array([-50.0, -1.0, 0.0, 2.0]))[0]
        assert out[0] == pytest.approx(-1.0, abs=1e-12)
        assert out[2] == 0.0
        assert out[3] == 2.0
        # strictly above -1 in exact arithmetic; floats saturate at -1.0
        assert np.all(out >= -1.0)
        assert np.all(ad._elu(np.array([-5.0, -0.3, 4.0]))[0] > -1.0)

    def test_dense_buffered_weight_grad_is_outer(self):
        net = ad.GeneratorNet(n_out=7, hidden=(3, 5), seed=2)
        net.backward(_quadratic(net, 0.8, 0.2)[1])
        for w, b, buf, x in zip(net.params[::2], net.params[1::2], net._grad_w,
                                _layer_inputs(net, 0.8)):
            assert w.grad is buf
            # dL/dz of the layer is its bias gradient
            assert np.array_equal(buf, np.outer(b.grad, x))

    def test_dense_second_backward_overwrites_buffer(self):
        net = ad.GeneratorNet(n_out=4, hidden=(2, 3), seed=4)
        net.backward(_quadratic(net, 0.5, 1.0)[1])
        first = [w.grad for w in net.params[::2]]
        values = [g.copy() for g in first]
        net.backward(_quadratic(net, 0.9, -3.0)[1])
        for w, b, g, v, x in zip(net.params[::2], net.params[1::2], first, values,
                                 _layer_inputs(net, 0.9)):
            assert w.grad is g
            assert not np.array_equal(g, v)
            assert np.array_equal(g, np.outer(b.grad, x))

    # The loss side of the training graph, written out in
    # PinnProblem.build_losses: each test probes d(total)/d(n_tilde).

    def test_log10_scale_shift_gather_gradients(self, small_problem):
        # boundary only: the gate-node gather behind the surrogate;
        # consistency only: both log10s and the normalization scale
        for w_boundary, w_fd in ((1.0, 0.0), (0.0, 1.0)):
            problem = _weighted(small_problem, w_boundary, w_fd)
            _assert_density_gradient(problem, _n_tilde(problem), _probe_nodes(problem))

    def test_fermi_closure_gradients(self, small_problem, params, rng):
        # the closure derivative, zero off silicon, against central differences
        mask = np.ones(15, dtype=bool)
        mask[10:] = False
        phi = rng.uniform(0.0, 0.6, size=15)
        h = 1e-7
        fd = (fermi.electron_density(phi + h, params, mask)
              - fermi.electron_density(phi - h, params, mask)) / (2 * h)
        d = fermi.electron_density_deriv(phi, params, mask)
        assert np.all(d[10:] == 0.0)
        assert np.allclose(d, fd, rtol=1e-5, atol=0.0)
        # and through the consistency loss of the training graph
        problem = _weighted(small_problem, 0.0, 1.0)
        _assert_density_gradient(problem, _n_tilde(problem, seed=8), _probe_nodes(problem, seed=4))

    def test_mse_of_two_tensors(self, small_problem):
        # the consistency residual has a differentiable term on both sides:
        # log10 of the closure at phi(n_tilde), and log10 of n_tilde itself
        problem = _weighted(small_problem, 0.0, 1.0)
        n_tilde = _n_tilde(problem, seed=9)
        l1, l2, total, _ = problem.build_losses(n_tilde, 0.5)
        phi = surrogate.predict_phi(problem.surrogate, n_tilde)
        n_fd = fermi.electron_density(phi, problem.params, problem.mesh.silicon_mask())
        r2 = np.log10((n_fd + surrogate.DENSITY_OFFSET) / surrogate.DENSITY_SCALE) - np.log10(n_tilde)
        assert l2 == np.mean(r2 * r2)
        assert total == l2 and l1 > 0.0
        g = _assert_density_gradient(problem, n_tilde, _probe_nodes(problem, seed=5))
        # the log10(n_tilde) side alone is not the whole gradient
        log_side = -(2.0 / r2.size) * r2 / (n_tilde * np.log(10.0))
        assert not np.allclose(g, log_side, rtol=1e-3, atol=0.0)

    def test_add_weighted(self, small_problem):
        n_tilde = _n_tilde(small_problem, seed=10)
        parts = [_weighted(small_problem, *w).build_losses(n_tilde, 0.5)
                 for w in ((1.0, 0.0), (0.0, 1.0))]
        problem = _weighted(small_problem, 0.7, 1.3)
        l1, l2, total, g = problem.build_losses(n_tilde, 0.5)
        assert (l1, l2) == (parts[0][0], parts[0][1])
        assert total == l1 * 0.7 + l2 * 1.3
        assert np.allclose(g, 0.7 * parts[0][3] + 1.3 * parts[1][3], rtol=1e-10, atol=1e-14)
        _assert_density_gradient(problem, n_tilde, _probe_nodes(problem, seed=6))

    def test_reused_node_accumulates(self, small_problem):
        # phi feeds the gate residual and the closure, n_tilde the surrogate
        # and the log: with both terms each sums two gradient paths
        n_tilde = _n_tilde(small_problem, seed=11)
        g_b, g_fd = (_weighted(small_problem, *w).build_losses(n_tilde, 0.5)[3]
                     for w in ((1.0, 0.0), (0.0, 1.0)))
        problem = _weighted(small_problem, 1.0, 1.0)
        g = _assert_density_gradient(problem, n_tilde, _probe_nodes(problem, seed=7))
        assert np.allclose(g, g_b + g_fd, rtol=1e-10, atol=1e-14)
        assert not np.allclose(g, g_b, rtol=1e-3, atol=0.0)
        assert not np.allclose(g, g_fd, rtol=1e-3, atol=0.0)


class TestGeneratorNet:
    def test_float32_parameters_float64_output(self):
        # the generator and its gradients are float32; the last ELU, and
        # so the output, float64.  Rounding the float64 draw keeps a seed's
        # meaning.
        net = ad.GeneratorNet(n_out=40, hidden=(4, 8), seed=42)
        rng = np.random.default_rng(42)
        for w, fan_in in zip(net.params[::2], (1, 4, 8)):
            bound = 1.0 / np.sqrt(fan_in)
            drawn = rng.uniform(-bound, bound, size=w.value.shape)
            assert np.array_equal(w.value, drawn.astype(np.float32))
        assert all(p.value.dtype == np.float32 for p in net.params)
        out = net.forward(0.7)
        assert out.dtype == np.float64
        net.backward(np.ones(40))
        assert all(p.grad.dtype == np.float32 for p in net.params)

    def test_output_shape_and_determinism(self):
        net = ad.GeneratorNet(n_out=2193, seed=42)
        out1 = net.forward(0.6)
        out2 = net.forward(0.6)
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
        assert np.all(net.forward(0.3) == 0.0)

    def test_output_above_elu_floor(self):
        net = ad.GeneratorNet(n_out=500, seed=3)
        assert np.all(net.forward(1.0) > -1.0)

    def test_weight_grads_reuse_buffers(self):
        net = ad.GeneratorNet(n_out=30, hidden=(4, 8), seed=5)
        net.backward(_quadratic(net, 0.5, 0.0)[1])
        first_w = [p.grad for p in net.params[::2]]
        first_b = [p.grad for p in net.params[1::2]]
        values = [g.copy() for g in first_w]
        net.backward(_quadratic(net, 0.9, 0.0)[1])
        assert all(p.grad is g for p, g in zip(net.params[::2], first_w))
        assert not any(np.array_equal(g, v) for g, v in zip(first_w, values))
        # bias gradients are fresh arrays, so earlier ones stay as they were
        assert not any(p.grad is g for p, g in zip(net.params[1::2], first_b))

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
        state = ad.AdamState([w], lr=1e-3)
        ad.adam_step(state, [w], [np.zeros(2)])
        assert np.array_equal(w.value, np.array([1.5, -2.0]))

    def test_sign_symmetry(self):
        wp = ad.Tensor(np.array([1.0]))
        wm = ad.Tensor(np.array([-1.0]))
        sp = ad.AdamState([wp], lr=1e-3)
        sm = ad.AdamState([wm], lr=1e-3)
        for _ in range(50):
            ad.adam_step(sp, [wp], [2.0 * wp.value])
            ad.adam_step(sm, [wm], [2.0 * wm.value])
        assert wp.value[0] == pytest.approx(-wm.value[0], rel=1e-15)

    def test_blocked_update_matches_textbook(self, rng):
        _assert_textbook_adam(rng, np.float64)

    def test_blocked_update_matches_textbook_float32(self, rng):
        _assert_textbook_adam(rng, np.float32)

    def test_float32_parameter_keeps_dtype(self):
        # a float32 Tensor stays float32, a float64 gradient is rounded to
        # it, and a whole-number value becomes float64
        w = ad.Tensor(np.array([0.5, -1.0], dtype=np.float32))
        state = ad.AdamState([w], lr=1e-3)
        ad.adam_step(state, [w], [np.array([0.25, -0.5])])
        assert w.value.dtype == state.m[0].dtype == state.v[0].dtype == np.float32
        assert ad.Tensor(np.array([1, 2])).value.dtype == np.float64
        assert ad.Tensor([0.5]).value.dtype == np.float64

    def test_shape_mismatch_rejected(self):
        w = ad.Tensor(np.zeros(3))
        state = ad.AdamState([w], lr=1e-3)
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
