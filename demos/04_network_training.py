"""Scaled conjugate gradient, first on a plain quadratic, then on a network.

The optimizer needs only gradient evaluations; curvature along the search
direction comes from a finite difference of gradients.  On a quadratic bowl
that estimate is exact, so with the damping term frozen at zero the iterates
reproduce textbook conjugate gradients and reach the minimizer in at most n
steps.  The same routine then trains a small tanh network on a sine wave.
"""

import numpy as np

from forexkit import scg
from forexkit.data import Dataset

# --- exact CG behaviour on a quadratic -------------------------------------
rng = np.random.default_rng(0)
n = 6
M = rng.normal(size=(n, n))
A = M @ M.T + n * np.eye(n)
b = rng.normal(size=n)
expected = np.linalg.solve(A, b)

result = scg.scg_minimize(lambda w: 0.5 * w @ A @ w - b @ w,
                          lambda w: A @ w - b,
                          np.zeros(n), max_iterations=n + 2,
                          freeze_lambda=True)
print(f"quadratic in R^{n}: reached the minimizer to "
      f"{np.max(np.abs(result.w - expected)):.2e} "
      f"in {len(result.trace) - 1} iterations")

# --- network on a sine wave -------------------------------------------------
x = np.linspace(0.0, 2.0 * np.pi, 200)
train = Dataset(("x",), x[:, None], np.sin(x))

net = scg.init_network((1, 8, 1), seed=3)
net, errors = scg.scg_train(net, train, epochs=400)
rmse = np.sqrt(np.mean((scg.forward(net, train.features) - train.targets) ** 2))
print(f"sine fit: error {errors[0]:.3f} -> {errors[-1]:.6f} "
      f"over {len(errors) - 1} epochs, train RMSE {rmse:.4f}")
print(f"prediction at pi/2: {scg.forward(net, np.array([np.pi / 2])):.4f} "
      f"(target 1.0)")
