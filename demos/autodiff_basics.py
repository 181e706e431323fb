"""Tour of the reverse-mode engine: tensors, backward, AdaGrad, a tiny fit.

Builds a scalar expression by hand and differentiates it into the leaves
it names, cross-checks one gradient against a finite difference, then fits a
two-layer network to per-list target distributions with the listwise loss and
AdaGrad to show the optimizer loop end to end.
"""

import numpy as np

from ultrlab.autodiff import MLP, AdaGrad, Tensor, weighted_listwise_ce


def scalar_example():
    x = Tensor(np.array([[1.0, 2.0, 3.0]]))
    w = Tensor(np.array([[0.5], [-1.0], [0.25]]))
    y = x.matmul(w).elu()
    y.backward([x, w])
    print("y =", y.data.item())
    print("dy/dx =", x.grad.reshape(-1))
    print("dy/dw =", w.grad.reshape(-1))

    h = 1e-6
    bumped = np.array([[1.0 + h, 2.0, 3.0]])
    y_plus = Tensor(bumped).matmul(Tensor(w.data)).elu().data.item()
    bumped[0, 0] -= 2 * h
    y_minus = Tensor(bumped).matmul(Tensor(w.data)).elu().data.item()
    print(f"finite difference for x[0]: {(y_plus - y_minus) / (2 * h):.8f} "
          f"(analytic {x.grad[0, 0]:.8f})")


def listwise_loss_example():
    scores = Tensor(np.array([[2.0, 0.0, -1.0]]))
    weights = np.array([[1.0, 0.0, 0.0]])
    loss = weighted_listwise_ce(scores, weights)
    loss.backward([scores])
    print("\nlistwise cross-entropy with the first item as target:",
          float(loss.data))
    print("gradient rows sum to zero:", scores.grad.sum())


def fit_example():
    rng = np.random.default_rng(7)
    lists, docs = 64, 8
    X = rng.uniform(-1.0, 1.0, size=(lists * docs, 4))
    target_scores = (X @ np.array([1.5, -2.0, 0.5, 0.0])).reshape(lists, docs)
    targets = np.exp(target_scores - target_scores.max(axis=1, keepdims=True))
    targets /= targets.sum(axis=1, keepdims=True)
    # The loss can fall no lower than the targets' mean entropy.
    floor = float(-(targets * np.log(targets)).sum() / lists)

    net = MLP(4, (16,), 1, rng, "toy", dropout=0.0)
    opt = AdaGrad(lr=0.2)
    print(f"\nfitting {lists} lists of {docs} documents to softmax targets "
          f"(entropy floor {floor:.5f})")
    for step in range(1, 401):
        loss = opt.minimize(weighted_listwise_ce(net(Tensor(X)).reshape(lists, docs), targets),
                            net.parameters())
        if step % 100 == 0 or step == 1:
            print(f"  step {step:3d}: loss {loss:.5f}, above floor {loss - floor:.5f}")


if __name__ == "__main__":
    scalar_example()
    listwise_loss_example()
    fit_example()
