import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    """Each dense layer's input, recomputed from the parameters in float64."""
    inputs = [np.array([v_scaled])]
    for w, b in zip(net.params[:-2:2], net.params[1:-2:2]):
        inputs.append(ad._elu(w.value.astype(float) @ inputs[-1] + b.value)[0])
    return inputs


# Worst error of adam_step against the float64 textbook update in
# _assert_textbook_adam, in units of the parameter dtype's eps, over
# seeds 0-29 and 10 steps: 10.8 (p, float64; 5.7 in float32), 2.7 (m)
# and 3.5 (v), and with the moments renormalized every step or so 2.9 (m)
# and 3.5 (v).  The bound leaves a 2.3x margin.  The update is the
# epsilon-hat form with scaled moments and BLAS rank-1 updates, so it
# rounds differently from the textbook formulas but agrees with them in
# real arithmetic.
ADAM_ULPS = 25


def _assert_textbook_adam(rng, dtype, steps=10, lr=3e-3):
    """adam_step on a weight's factor pair and on a 1-D gradient against
    Kingma & Ba's formulas in float64 on the dense gradient.  The 1-D
    gradients are ~1e-7, so eps is a tenth of the denominator.  p's error
    is taken relative to how far it moved."""
    w = ad.Tensor((1e-2 * rng.standard_normal((257, 65))).astype(dtype))
    b = ad.Tensor((1e-2 * rng.standard_normal(1001)).astype(dtype))
    state = ad.AdamState([w, b], lr=lr)
    ref = [[t.value.astype(np.float64), 0.0, 0.0] for t in (w, b)]
    start = [r[0].copy() for r in ref]
    b1, b2, eps = ad.ADAM_BETA1, ad.ADAM_BETA2, ad.ADAM_EPS
    for t in range(1, steps + 1):
        g, x = rng.standard_normal(257).astype(dtype), rng.standard_normal(65).astype(dtype)
        gb = (1e-7 * rng.standard_normal(1001)).astype(dtype)
        ad.adam_step(state, [w, b], [(g, x), gb])
        dense = (np.outer(g.astype(np.float64), x.astype(np.float64)), gb.astype(np.float64))
        for tensor, m, v, r, p0, grad in zip((w, b), state.m, state.v, ref, start, dense):
            r[1] = b1 * r[1] + (1.0 - b1) * grad
            r[2] = b2 * r[2] + (1.0 - b2) * grad * grad
            r[0] = r[0] - lr * (r[1] / (1.0 - b1**t)) / (np.sqrt(r[2] / (1.0 - b2**t)) + eps)
            # the stored moments are scaled; compare the true ones
            m, v = m * state.m_scale, v * state.v_scale
            for got, want, scale in ((tensor.value, r[0], r[0] - p0), (m, r[1], r[1]), (v, r[2], r[2])):
                err = np.max(np.abs(got - want)) / np.max(np.abs(scale))
                assert err <= ADAM_ULPS * np.finfo(dtype).eps, (t, got.shape, err)
    assert all(a.dtype == dtype for a in (w.value, b.value, *state.m, *state.v, state._scratch))
    return state


class TestPrimitives:
    def test_dense_gradients(self, rng, float64_net, dense_grads):
        # GeneratorNet.backward against central differences, every W and b
        net = float64_net(ad.GeneratorNet(n_out=12, hidden=(5, 7), seed=3))
        net.backward(_quadratic(net, 0.4, 0.3)[1])
        grads = dense_grads(net)
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

    def test_dense_weight_grad_is_outer_factors(self):
        # a weight's gradient is the pair (dL/dz, layer input), never formed
        net = ad.GeneratorNet(n_out=7, hidden=(3, 5), seed=2)
        net.backward(_quadratic(net, 0.8, 0.2)[1])
        for w, b, x in zip(net.params[::2], net.params[1::2], _layer_inputs(net, 0.8)):
            g_w, x_w = w.grad
            # dL/dz of the layer is its bias gradient
            assert g_w is b.grad
            assert (g_w.size, x_w.size) == w.value.shape
            # the forward's float32 activations: a few ulps from float64
            assert np.allclose(x_w, x, rtol=1e-6, atol=1e-7)

    def test_dense_second_backward_keeps_first_factors(self):
        # every gradient array is new, so one held from an earlier
        # backward keeps its values
        net = ad.GeneratorNet(n_out=4, hidden=(2, 3), seed=4)
        net.backward(_quadratic(net, 0.5, 1.0)[1])
        first = [p.grad for p in net.params]
        values = copy.deepcopy(first)
        net.backward(_quadratic(net, 0.9, -3.0)[1])
        for p, g, v in zip(net.params, first, values):
            assert p.grad is not g
            np.testing.assert_equal(g, v)
        assert not np.array_equal(net.params[-1].grad, values[-1])

    @settings(max_examples=25, deadline=None)
    @given(hidden=st.tuples(st.integers(1, 6), st.integers(1, 6)), n_out=st.integers(1, 8),
           seed=st.integers(0, 2**32 - 1), v_scaled=st.floats(-1.5, 1.5),
           target=st.floats(-1.0, 1.0))
    def test_backward_factors_match_central_differences(self, float64_net, dense_grads,
                                                        hidden, n_out, seed, v_scaled, target):
        # every entry of every parameter of a small float64 net; biases
        # are drawn too, so the hidden units do not all start at z = 0
        net = float64_net(ad.GeneratorNet(n_out=n_out, hidden=hidden, seed=seed))
        rng = np.random.default_rng(seed)
        for b in net.params[1::2]:
            b.value[:] = rng.uniform(-0.5, 0.5, b.value.size)
        f0, g_out = _quadratic(net, v_scaled, target)
        net.backward(g_out)
        h = 1e-6
        # central differences lose about eps * |f| / h to rounding
        atol = 1e-8 * abs(f0) + 1e-14
        for p, g in zip(net.params, dense_grads(net)):
            for idx in np.ndindex(p.value.shape):
                keep = p.value[idx]
                p.value[idx] = keep + h
                f_plus = _quadratic(net, v_scaled, target)[0]
                p.value[idx] = keep - h
                f_minus = _quadratic(net, v_scaled, target)[0]
                p.value[idx] = keep
                fd = (f_plus - f_minus) / (2 * h)
                assert abs(g[idx] - fd) <= 1e-4 * max(abs(g[idx]), abs(fd)) + atol, (p.value.shape, idx)

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
        fd = (fermi.electron_density(phi + h, params, mask)[0]
              - fermi.electron_density(phi - h, params, mask)[0]) / (2 * h)
        d = fermi.electron_density(phi, params, mask)[1]
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
        n_fd = fermi.electron_density(phi, problem.params, problem.mesh.silicon_mask())[0]
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
        assert all(a.dtype == np.float32 for w, b in zip(net.params[::2], net.params[1::2])
                   for a in (*w.grad, b.grad))

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

    def test_update_matches_textbook(self, rng):
        _assert_textbook_adam(rng, np.float64)

    def test_update_matches_textbook_float32(self, rng):
        _assert_textbook_adam(rng, np.float32)

    def test_float32_rank1_matches_float64_textbook(self):
        # the path training takes: a float32 weight updated from its
        # float32 factor pair, against float64 textbook Adam on the dense
        # gradient after 10 steps.  The error is at most 2.2e-7 of the
        # weight's move over seeds 0-199, a 4.6x margin (ADAM_ULPS would
        # allow about 3.0e-6 in float32); seed 3 reads 1.3e-7.
        rng = np.random.default_rng(3)
        w = ad.Tensor((1e-2 * rng.standard_normal((3, 4))).astype(np.float32))
        state = ad.AdamState([w], lr=1e-2)
        p = p0 = w.value.astype(np.float64)
        m = v = 0.0
        b1, b2 = ad.ADAM_BETA1, ad.ADAM_BETA2
        for t in range(1, 11):
            g, x = rng.standard_normal(3).astype(np.float32), rng.standard_normal(4).astype(np.float32)
            ad.adam_step(state, [w], [(g, x)])
            grad = np.outer(g, x.astype(np.float64))
            m, v = b1 * m + (1.0 - b1) * grad, b2 * v + (1.0 - b2) * grad * grad
            p = p - 1e-2 * (m / (1.0 - b1**t)) / (np.sqrt(v / (1.0 - b2**t)) + ad.ADAM_EPS)
        assert np.max(np.abs(w.value - p)) / np.max(np.abs(p - p0)) <= 1e-6

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_renormalized_moments_match_textbook(self, rng, monkeypatch, dtype):
        # at 0.995 m folds its scale back in from step 2 on and v at step 7
        monkeypatch.setattr(ad, "ADAM_MIN_SCALE", 0.995)
        state = _assert_textbook_adam(rng, dtype)
        assert state.m_scale == ad.ADAM_BETA1
        assert state.v_scale == pytest.approx(ad.ADAM_BETA2**4)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_blocked_passes_bit_equal(self, monkeypatch, dtype):
        # blocks of 1000 cut the 257x65 weight into 16 full blocks and a
        # 705-element rest, the 1001-element bias into one full block and
        # one element; blocks above every size leave each parameter whole
        def run(block):
            monkeypatch.setattr(ad, "ADAM_BLOCK", block)
            rng = np.random.default_rng(5)
            w = ad.Tensor((1e-2 * rng.standard_normal((257, 65))).astype(dtype))
            b = ad.Tensor((1e-2 * rng.standard_normal(1001)).astype(dtype))
            state = ad.AdamState([w, b], lr=3e-3)
            assert state._scratch.size == min(w.value.size, block)
            for _ in range(10):
                g, x = rng.standard_normal(257).astype(dtype), rng.standard_normal(65).astype(dtype)
                ad.adam_step(state, [w, b], [(g, x), rng.standard_normal(1001).astype(dtype)])
            return [w.value, b.value, *state.m, *state.v], (state.m_scale, state.v_scale)

        blocked, whole = run(1000), run(10**6)
        assert all(np.array_equal(a, c) for a, c in zip(blocked[0], whole[0]))
        assert blocked[1] == whole[1]

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
        m = ad.Tensor(np.zeros((3, 2)))
        state = ad.AdamState([m], lr=1e-3)
        for grad in ((np.ones(2), np.ones(3)), (np.ones(3), np.ones(3)), (np.ones((3, 2)), np.ones(1))):
            with pytest.raises(ValueError, match="factor pair"):
                ad.adam_step(state, [m], [grad])

    def test_dense_2d_gradient_rejected(self):
        # a weight's gradient is its factor pair; a formed one is refused
        w = ad.Tensor(np.zeros((3, 2), dtype=np.float32))
        state = ad.AdamState([w], lr=1e-3)
        with pytest.raises(ValueError, match="factor pair"):
            ad.adam_step(state, [w], [np.ones((3, 2), dtype=np.float32)])

    @pytest.mark.parametrize("which", ["parameter", "m", "v"])
    def test_non_contiguous_operand_raises(self, which):
        # BLAS would update a copy of it; no operand is touched before the check
        w = ad.Tensor(np.ones((4, 3), dtype=np.float32))
        b = ad.Tensor(np.ones(4, dtype=np.float32))
        state = ad.AdamState([w, b], lr=1e-3)
        strided = np.zeros((4, 6), dtype=np.float32)[:, ::2]
        if which == "parameter":
            b.value = np.ones(8, dtype=np.float32)[::2]
        else:
            getattr(state, which)[1] = strided[:, 0]
        with pytest.raises(ValueError, match="C-contiguous float32"):
            ad.adam_step(state, [w, b], [(np.ones(4), np.ones(3)), np.ones(4)])
        assert np.all(w.value == 1.0) and np.all(state.m[0] == 0.0) and state.step_count == 0

    def test_cast_parameter_raises(self):
        # the moments and routines keep the dtype the state was made with
        w = ad.Tensor(np.ones(3, dtype=np.float32))
        state = ad.AdamState([w], lr=1e-3)
        w.value = w.value.astype(np.float64)
        with pytest.raises(ValueError, match="float32"):
            ad.adam_step(state, [w], [np.ones(3)])


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
