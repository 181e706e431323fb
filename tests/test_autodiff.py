"""Autodiff engine: gradient oracles, optimizer arithmetic, subset steps."""

import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    GRADIENT_PRIMITIVES,
    check_gradients,
    check_parameter_gradients,
    gradient_case,
)
from ultrlab.autodiff import (
    MLP,
    AdaGrad,
    Linear,
    Parameter,
    Tensor,
    load_params,
    save_params,
    weighted_listwise_ce,
)


@pytest.mark.parametrize("name", GRADIENT_PRIMITIVES)
def test_primitive_gradients_match_finite_differences(name):
    for trial in range(3):
        rng = np.random.default_rng(1000 + trial)
        arrays, build = gradient_case(name, rng)
        check_gradients(build, arrays)


# Leaves reused on several paths; W mixes the result so every coordinate counts.
FAN_OUT_CASES = {
    "x_plus_x": (1, lambda t, W: ((t[0] + t[0]) * W).sum()),
    "a_plus_b": (2, lambda t, W: ((t[0] + t[1]) * W).sum()),
    "a_plus_b_times_a": (2, lambda t, W: ((t[0] + t[1]) * t[0] * W).sum()),
    "reshape_twice": (1, lambda t, W: (
        (t[0].reshape(12) + t[0].reshape(12).elu()).reshape(3, 4) * W).sum()),
    "w_times_w": (1, lambda t, W: ((t[0] * t[0] + t[0]) * W).sum()),
}


def _assert_own_writeable_grads(grads):
    for i, g in enumerate(grads):
        assert isinstance(g, np.ndarray) and g.flags.writeable
        for h in grads[i + 1:]:
            assert not np.shares_memory(g, h)


@pytest.mark.parametrize("name", FAN_OUT_CASES)
def test_fan_out_gradients_match_and_own_their_buffers(name):
    """Gradient buffers are handed on, not copied: a leaf reached twice must
    still get the right sum, in an array no other leaf holds."""
    n_leaves, build = FAN_OUT_CASES[name]
    for trial in range(3):
        rng = np.random.default_rng(2000 + trial)
        W = Tensor(rng.normal(size=(3, 4)))
        arrays = [rng.normal(size=(3, 4)) for _ in range(n_leaves)]
        leaves = check_gradients(lambda t: build(t, W), arrays)
        _assert_own_writeable_grads([t.grad for t in leaves])


def test_parameter_feeding_two_branches_of_an_equal_shape_add():
    """``m + p`` shape: both add operands have the output's shape, so the
    second one must not share the first one's buffer. Here the first
    branch is the product, whose backward reads that buffer after the
    reshape branch has handed it on to ``p``."""
    rng = np.random.default_rng(21)
    p = Parameter(rng.normal(size=(3, 4)), "p")
    q = Parameter(rng.normal(size=(3, 4)), "q")
    W = Tensor(rng.normal(size=(3, 4)))
    check_parameter_gradients(
        [p, q], lambda: ((p * q + p.reshape(12).reshape(3, 4)) * W).sum())
    _assert_own_writeable_grads([p.grad, q.grad])


def test_zero_dim_leaf_gets_an_ndarray_gradient():
    s = Tensor(np.array(2.0), requires_grad=True)
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    (s * x).sum().backward()
    assert s.grad == 15.0
    _assert_own_writeable_grads([s.grad, x.grad])


def test_elu_scalar_values():
    t = Tensor(np.array([2.0, -1.0])).elu()
    assert t.data[0] == 2.0
    assert t.data[1] == pytest.approx(math.exp(-1.0) - 1.0, abs=1e-12)


def test_elu_does_not_overflow_on_large_inputs():
    with np.errstate(over="raise"):
        t = Tensor(np.array([800.0, -1.0])).elu()
    assert np.array_equal(t.data, [800.0, np.expm1(-1.0)])


# The ranker (16 -> 64 -> 32 -> 16 -> 1) and the two LPP MLPs.
INFER_SHAPES = [(16, (64, 32, 16), 1), (16, (32,), 16), (16, (16, 64), 1)]


@pytest.mark.parametrize("in_dim,hidden,out_dim", INFER_SHAPES)
def test_mlp_infer_is_bit_identical_to_the_eval_forward(in_dim, hidden, out_dim):
    rng = np.random.default_rng(11)
    net = MLP(in_dim, hidden, out_dim, rng, "net", dropout=0.1)
    for p in net.parameters():
        p.data += 0.1 * rng.normal(size=p.data.shape)
    X = rng.normal(scale=3.0, size=(40, in_dim))
    X[:5] = 0.0
    X[5:10] = -np.abs(X[5:10])
    X[10, :4] = [711.0, 800.0, -750.0, 1e3]
    X_before = X.copy()
    out = net.infer(X)
    assert np.array_equal(out, net(Tensor(X), train=False).data)
    assert np.array_equal(X, X_before)
    assert not np.shares_memory(out, X)


def test_matmul_rejects_non_2d():
    with pytest.raises(ValueError):
        Tensor(np.ones(3)).matmul(Tensor(np.ones((3, 2))))


def test_division_by_tensor_rejected():
    with pytest.raises(TypeError):
        Tensor(np.ones(3)) / Tensor(np.ones(3))


def test_backward_requires_scalar_root():
    t = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ValueError):
        (t * 2.0).backward()


def test_square_loss_gradient():
    w = Tensor(np.array([3.0]), requires_grad=True)
    (w * w).sum().backward()
    assert w.grad[0] == pytest.approx(6.0, abs=1e-12)


def test_backward_consumes_the_graph_and_frees_it_without_the_cycle_collector():
    w = Tensor(np.array([[1.0, -2.0]]), requires_grad=True)
    hidden = w.matmul(Tensor(np.ones((2, 1)))).elu()
    loss = hidden.sum()
    loss.backward()
    with pytest.raises(RuntimeError):
        loss.backward()
    ref = weakref.ref(hidden)
    gc.disable()
    try:
        del hidden, loss
        assert ref() is None
    finally:
        gc.enable()
    # The leaf keeps its gradient and can start a new graph.
    assert w.grad[0, 0] == pytest.approx(math.exp(-1.0), abs=1e-12)
    (w * w).sum().backward()


def test_unconnected_parameter_gets_no_gradient_and_no_update():
    p = Parameter(np.array([1.5]), "loose")
    q = Parameter(np.array([2.0]), "used")
    opt = AdaGrad([p, q], lr=0.1)
    opt.zero_grad()
    (q * q).sum().backward()
    assert p.grad is None
    before = p.data.copy()
    opt.step()
    assert np.array_equal(p.data, before)
    assert q.data[0] != 2.0


def test_adagrad_single_step_magnitude():
    p = Parameter(np.array([0.0]), "p")
    opt = AdaGrad([p], lr=0.1)
    p.grad = np.array([1.0])
    opt.step()
    assert p.data[0] == pytest.approx(-0.1 / math.sqrt(1.0 + 1e-6), abs=1e-12)


def test_adagrad_zero_gradient_is_a_no_op():
    p = Parameter(np.array([4.0]), "p")
    opt = AdaGrad([p], lr=0.1)
    p.grad = np.array([0.0])
    opt.step()
    assert p.data[0] == 4.0
    assert opt.state[id(p)][0] == 0.0


def test_adagrad_second_step_shrinks_by_sqrt2():
    p = Parameter(np.array([0.0]), "p")
    opt = AdaGrad([p], lr=0.1)
    p.grad = np.array([1.0])
    opt.step()
    first = -p.data[0]
    p.grad = np.array([1.0])
    opt.step()
    second = -p.data[0] - first
    assert second == pytest.approx(0.1 / math.sqrt(2.0), abs=1e-6)
    assert second == pytest.approx(first / math.sqrt(2.0), rel=1e-5)


def test_adagrad_rejects_bad_lr():
    with pytest.raises(ValueError):
        AdaGrad([Parameter(np.zeros(1), "p")], lr=0.0)


def test_frozen_parameters_do_not_move():
    """A parameter left out of ``step(params)`` keeps its data and its accumulator."""
    rng = np.random.default_rng(5)
    params = [Parameter(rng.normal(size=(3,)), f"p{i}") for i in range(4)]
    opt = AdaGrad(params, lr=0.5)
    for p in params:
        p.grad = np.ones(3)
    before = [p.data.copy() for p in params]
    opt.step([])
    opt.step(params[2:])
    for p, b in zip(params[:2], before):
        assert np.array_equal(p.data, b)
        assert np.array_equal(opt.state[id(p)], np.zeros(3))
    for p, b in zip(params[2:], before[2:]):
        assert not np.array_equal(p.data, b)


def test_freeze_subset_over_many_steps():
    """Left out for 100 steps, a parameter's first full step is the step a
    fresh optimizer takes: its accumulator never grew."""
    rng = np.random.default_rng(6)
    held = [Parameter(rng.normal(size=(2, 2)), "a0"),
            Parameter(rng.normal(size=(2,)), "a1")]
    live = [Parameter(rng.normal(size=(2, 2)), "b0"),
            Parameter(rng.normal(size=(2,)), "b1")]
    opt = AdaGrad(held + live, lr=0.1)
    snap = [p.data.copy() for p in held]
    live_snap = [p.data.copy() for p in live]
    for step in range(100):
        for p in held + live:
            p.grad = rng.normal(size=p.data.shape)
        opt.step(live)
    for p, s in zip(held, snap):
        assert np.array_equal(p.data, s)
    for p, s in zip(live, live_snap):
        assert not np.array_equal(p.data, s)
    fresh = [Parameter(s.copy(), f"fresh{i}") for i, s in enumerate(snap)]
    for p in held + live + fresh:
        p.grad = np.ones(p.data.shape)
    opt.step()
    AdaGrad(fresh, lr=0.1).step()
    for p, f in zip(held, fresh):
        assert np.array_equal(p.data, f.data)


def test_freeze_none_behaves_as_plain_step():
    """``step()`` and ``step(all parameters)`` give the same bits."""
    rng = np.random.default_rng(9)
    a = [Parameter(rng.normal(size=(3,)), f"a{i}") for i in range(2)]
    b = [Parameter(p.data.copy(), f"b{i}") for i, p in enumerate(a)]
    opt_a, opt_b = AdaGrad(a, lr=0.1), AdaGrad(b, lr=0.1)
    for _ in range(3):
        for pa, pb in zip(a, b):
            pa.grad = rng.normal(size=3)
            pb.grad = pa.grad.copy()
        opt_a.step()
        opt_b.step(b)
    for pa, pb in zip(a, b):
        assert np.array_equal(pa.data, pb.data)


def test_zero_mlp_outputs_zero():
    rng = np.random.default_rng(7)
    net = MLP(4, (5, 3), 1, rng, "z")
    for p in net.parameters():
        p.data[:] = 0.0
    out = net(Tensor(rng.normal(size=(6, 4))))
    assert np.array_equal(out.data, np.zeros((6, 1)))


def test_dropout_zero_rate_train_equals_eval():
    rng = np.random.default_rng(8)
    net = MLP(4, (5,), 2, rng, "d", dropout=0.0)
    x = rng.normal(size=(3, 4))
    train_out = net(Tensor(x), train=True, rng=np.random.default_rng(0))
    eval_out = net(Tensor(x))
    assert np.array_equal(train_out.data, eval_out.data)


def test_dropout_requires_rng_or_mask():
    with pytest.raises(ValueError):
        Tensor(np.ones((2, 2))).dropout(0.5)
    with pytest.raises(ValueError):
        Tensor(np.ones((2, 2))).dropout(1.0, rng=np.random.default_rng(0))


def test_dropout_mask_scales_survivors():
    x = Tensor(np.ones((1, 4)))
    mask = np.array([[0.0, 2.0, 2.0, 0.0]])
    out = x.dropout(0.5, mask=mask)
    assert np.array_equal(out.data, mask)


def test_linear_bias_starts_at_zero():
    layer = Linear(3, 2, np.random.default_rng(9), "lin")
    assert np.array_equal(layer.b.data, np.zeros(2))
    assert layer.W.name == "lin.W" and layer.b.name == "lin.b"


def test_listwise_ce_uniform_over_two_is_ln2():
    logits = Tensor(np.zeros((1, 2)))
    loss = weighted_listwise_ce(logits, np.full((1, 2), 0.5))
    assert float(loss.data) == pytest.approx(math.log(2.0), abs=1e-12)


def test_listwise_ce_at_equality_is_entropy():
    logits = Tensor(np.zeros((1, 3)))
    weights = np.exp(np.zeros((1, 3))) / 3.0
    loss = weighted_listwise_ce(logits, weights)
    assert float(loss.data) == pytest.approx(math.log(3.0), abs=1e-12)


def test_listwise_ce_opposed_logits_value():
    t = [10.0, -10.0]
    p = [-10.0, 10.0]
    lse_t = max(t) + math.log(sum(math.exp(v - max(t)) for v in t))
    soft_t = [math.exp(v - lse_t) for v in t]
    lse_p = max(p) + math.log(sum(math.exp(v - max(p)) for v in p))
    reference = -sum(w * (v - lse_p) for w, v in zip(soft_t, p))
    loss = weighted_listwise_ce(Tensor(np.array([p])), np.array([soft_t]))
    assert float(loss.data) == pytest.approx(reference, abs=1e-10)
    assert reference == pytest.approx(20.0, abs=1e-6)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(-30, 30), min_size=2, max_size=6),
    st.floats(-50, 50),
    st.floats(-50, 50),
)
def test_listwise_ce_shift_invariance(logits, alpha, beta):
    z = np.array([logits])
    w = np.exp(np.array([logits]) + alpha)
    w /= w.sum()
    base = float(weighted_listwise_ce(Tensor(z), w).data)
    shifted = float(weighted_listwise_ce(Tensor(z + beta), w).data)
    assert shifted == pytest.approx(base, abs=1e-9)


def test_ce_never_beats_the_entropy_floor():
    rng = np.random.default_rng(10)
    for _ in range(50):
        w = rng.uniform(0.05, 1.0, size=(1, 5))
        w /= w.sum()
        entropy = -float((w * np.log(w)).sum())
        z = rng.normal(size=(1, 5))
        loss = float(weighted_listwise_ce(Tensor(z), w).data)
        assert loss >= entropy - 1e-12


def test_listwise_ce_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        weighted_listwise_ce(Tensor(np.zeros((2, 3))), np.zeros((3, 2)))


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    net = MLP(4, (5,), 2, rng, "snap")
    path = tmp_path / "params.npz"
    save_params(path, net.parameters())
    stored = [p.data.copy() for p in net.parameters()]
    for p in net.parameters():
        p.data[:] = -1.0
    load_params(path, net.parameters())
    for p, s in zip(net.parameters(), stored):
        assert np.array_equal(p.data, s)


def test_load_rejects_missing_and_misshapen(tmp_path):
    a = Parameter(np.zeros(3), "a")
    path = tmp_path / "one.npz"
    save_params(path, [a])
    with pytest.raises(KeyError):
        load_params(path, [Parameter(np.zeros(3), "b")])
    with pytest.raises(ValueError):
        load_params(path, [Parameter(np.zeros(4), "a")])


def test_save_rejects_duplicate_names(tmp_path):
    pair = [Parameter(np.zeros(1), "same"), Parameter(np.ones(1), "same")]
    with pytest.raises(ValueError):
        save_params(tmp_path / "dup.npz", pair)
