# The training machinery on its own: the generator's hand-written
# gradient, Adam, the plateau schedule and seed determinism.

import numpy as np

from wirepinn import autodiff as ad

# a small generator and a quadratic loss on its output; its parameters
# are float32, as in training
net = ad.GeneratorNet(n_out=6, hidden=(4, 3), seed=0)
print("parameter dtype:", net.params[0].value.dtype)


def loss_and_grad(v_scaled):
    """mean((out - 0.5)^2) and its gradient with respect to the output."""
    diff = net.forward(v_scaled) - 0.5
    return float(np.mean(diff * diff)), (2.0 / diff.size) * diff


loss, g_out = loss_and_grad(0.4)
net.backward(g_out)
w = net.params[2]  # the second layer's weight (3, 4)
print("loss:", loss)
print("dL/db of the output layer:", net.params[-1].grad)

# check one coordinate against a central difference.  A step of 1e-6 is
# about 17 float32 ulps at 0.5, so cast the values up to float64 first:
# the passes follow the parameters' dtype.
for p in net.params:
    p.value = p.value.astype(np.float64)
net.backward(loss_and_grad(0.4)[1])
h = 1e-6
# a weight's gradient is the factor pair (dL/dz, layer input) of its
# rank-1 outer product; Adam takes the pair without forming it
analytic = np.outer(*w.grad)[2, 1]
keep = w.value[2, 1]
w.value[2, 1] = keep + h
f_plus = loss_and_grad(0.4)[0]
w.value[2, 1] = keep - h
f_minus = loss_and_grad(0.4)[0]
w.value[2, 1] = keep
fd = (f_plus - f_minus) / (2 * h)
print(f"dL/dw[2,1]: analytic {analytic:.10f} vs finite difference {fd:.10f}")

# Adam on a scalar quadratic
wopt = ad.Tensor(np.array([0.0]))
state = ad.AdamState([wopt], lr=1e-2)
for _ in range(2000):
    ad.adam_step(state, [wopt], [2.0 * (wopt.value - 3.0)])
print(f"\nAdam on (w-3)^2 from 0: w = {wopt.value[0]:.6f}")

# plateau schedule: halves on stagnation, floors at 1e-5
sched = ad.PlateauScheduler(lr=1e-3, patience=100)
lrs = [ad.scheduler_step(sched, 1.0) for _ in range(1200)]
marks = sorted(set(lrs), reverse=True)
print("lr ladder under a constant loss:", ", ".join(f"{v:g}" for v in marks))

# the generator network is deterministic in its seed
net_a = ad.GeneratorNet(n_out=16, hidden=(4, 8), seed=42)
net_b = ad.GeneratorNet(n_out=16, hidden=(4, 8), seed=42)
print("\nsame seed, identical outputs:",
      np.array_equal(net_a.forward(0.5), net_b.forward(0.5)))
print("layer sizes:", "-".join(map(str, (1, *net_a.hidden, net_a.n_out))))
