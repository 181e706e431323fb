"""Tour of the reverse-mode engine: tensors, backward, AdaGrad, a tiny fit.

Builds a scalar expression by hand and differentiates it, cross-checks one
gradient against a finite difference, then fits a two-layer network to a
noisy linear target with AdaGrad to show the optimizer loop end to end.
"""

import numpy as np

from ultrlab.autodiff import MLP, AdaGrad, Tensor, weighted_listwise_ce


def scalar_example():
    x = Tensor(np.array([[1.0, 2.0, 3.0]]), requires_grad=True)
    w = Tensor(np.array([[0.5], [-1.0], [0.25]]), requires_grad=True)
    y = x.matmul(w).elu().sum()
    y.backward()
    print("y =", float(y.data))
    print("dy/dx =", x.grad.reshape(-1))
    print("dy/dw =", w.grad.reshape(-1))

    h = 1e-6
    bumped = np.array([[1.0 + h, 2.0, 3.0]])
    y_plus = float(Tensor(bumped).matmul(Tensor(w.data)).elu().sum().data)
    bumped[0, 0] -= 2 * h
    y_minus = float(Tensor(bumped).matmul(Tensor(w.data)).elu().sum().data)
    print(f"finite difference for x[0]: {(y_plus - y_minus) / (2 * h):.8f} "
          f"(analytic {x.grad[0, 0]:.8f})")


def listwise_loss_example():
    scores = Tensor(np.array([[2.0, 0.0, -1.0]]), requires_grad=True)
    weights = np.array([[1.0, 0.0, 0.0]])
    loss = weighted_listwise_ce(scores, weights)
    loss.backward()
    print("\nlistwise cross-entropy with the first item as target:",
          float(loss.data))
    print("gradient rows sum to zero:", scores.grad.sum())


def fit_example():
    rng = np.random.default_rng(7)
    X = rng.uniform(-1.0, 1.0, size=(256, 4))
    target = X @ np.array([1.5, -2.0, 0.5, 0.0]) + 0.05 * rng.normal(size=256)

    net = MLP(4, (16,), 1, rng, "toy", dropout=0.0)
    opt = AdaGrad(net.parameters(), lr=0.2)
    print("\nfitting a 4-feature linear target with a small network")
    for step in range(1, 401):
        out = net(Tensor(X))
        err = out + Tensor(-target.reshape(-1, 1))
        loss = (err * err).sum() / len(X)
        opt.zero_grad()
        loss.backward()
        opt.step()
        if step % 100 == 0 or step == 1:
            print(f"  step {step:3d}: mse {float(loss.data):.5f}")


if __name__ == "__main__":
    scalar_example()
    listwise_loss_example()
    fit_example()
