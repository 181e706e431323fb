"""Autodiff engine: gradient oracles, optimizer arithmetic, subset steps."""

import gc
import math
import re
import weakref
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    GRADIENT_PRIMITIVES,
    check_gradients,
    check_parameter_gradients,
    dropout,
    elu_four_pass,
    gradient_case,
    linear_readout,
    listwise_ce_op_by_op,
    mlp_op_by_op,
    ranker_gradient_case,
    take_rows_scatter_add_at,
)
from ultrlab.autodiff import (
    INFER_BLOCK_ROWS,
    MLP,
    AdaGrad,
    Parameter,
    Tensor,
    _elu,
    load_params,
    save_params,
    weighted_listwise_ce,
)
from ultrlab.propensity import LPPModel


@pytest.mark.parametrize("name", GRADIENT_PRIMITIVES)
def test_primitive_gradients_match_finite_differences(name):
    for trial in range(3):
        rng = np.random.default_rng(1000 + trial)
        arrays, build = gradient_case(name, rng)
        check_gradients(build, arrays)


# Leaves reused on several paths, as (leaf shapes, forward); "times" is matmul.
FAN_OUT_CASES = {
    "x_plus_x": ([(3, 4)], lambda t: t[0] + t[0]),
    "a_plus_b": ([(3, 4)] * 2, lambda t: t[0] + t[1]),
    "a_plus_b_times_a": ([(4, 4)] * 2, lambda t: (t[0] + t[1]).matmul(t[0])),
    "reshape_twice": ([(3, 4)], lambda t: (
        t[0].reshape(12) + t[0].reshape(12).elu()).reshape(3, 4)),
    "w_times_w": ([(4, 4)], lambda t: t[0].matmul(t[0]) + t[0]),
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
    shapes, forward = FAN_OUT_CASES[name]
    for trial in range(3):
        rng = np.random.default_rng(2000 + trial)
        arrays = [rng.normal(size=shape) for shape in shapes]
        # W mixes the result so every coordinate counts.
        W = rng.normal(size=forward([Tensor(a) for a in arrays]).data.shape)
        leaves = check_gradients(lambda t: linear_readout(forward(t), W), arrays)
        _assert_own_writeable_grads([t.grad for t in leaves])


def test_parameter_feeding_two_branches_of_an_equal_shape_add():
    """``m + p`` shape: both add operands have the output's shape, so the
    second one must not share the first one's buffer. Here the first
    branch is the matmul, whose backward reads that buffer after the
    reshape branch has handed it on to ``p``."""
    rng = np.random.default_rng(21)
    p = Parameter(rng.normal(size=(3, 4)), "p")
    q = Parameter(rng.normal(size=(4, 4)), "q")
    W = rng.normal(size=(3, 4))
    check_parameter_gradients(
        [p, q], lambda: linear_readout(p.matmul(q) + p.reshape(12).reshape(3, 4), W))
    _assert_own_writeable_grads([p.grad, q.grad])


def test_add_refuses_operands_of_unequal_shape():
    """``+`` adds equal shapes only, so it never broadcasts: a 0-d, row,
    column or transposed operand is refused on either side, naming both
    shapes. Two 0-d losses still add, each leaf getting its own ndarray."""
    x = Tensor(np.zeros((2, 3)))
    for shape in [(), (3,), (2, 1), (3, 2), (1, 2, 3)]:
        other = Tensor(np.zeros(shape))
        with pytest.raises(ValueError, match=re.escape(f"one shape, got (2, 3) and {shape}")):
            x + other
        with pytest.raises(ValueError, match=re.escape(f"one shape, got {shape} and (2, 3)")):
            other + x
    s, t = Tensor(np.array(2.0)), Tensor(np.array(-1.0))
    (s + t).backward([s, t])
    assert s.grad == 1.0 and t.grad == 1.0
    _assert_own_writeable_grads([s.grad, t.grad])


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
    assert np.array_equal(out, net(Tensor(X)).data)
    assert np.array_equal(X, X_before)
    assert not np.shares_memory(out, X)


# Block edges for INFER_BLOCK_ROWS = 512, and a split-sized input.
INFER_ROWS = [1, 511, 512, 513, 1025, 5000]


@settings(max_examples=40, deadline=None)
@given(shape=st.sampled_from(INFER_SHAPES),
       rows=st.one_of(st.sampled_from(INFER_ROWS), st.integers(1, 3 * INFER_BLOCK_ROWS + 2)),
       seed=st.integers(0, 2**32 - 1))
def test_blocked_infer_keeps_the_one_shot_bits(shape, rows, seed):
    """Inputs past one block are scored block by block, every row with the
    bits of the one-shot eval chain, and the input is left as it was."""
    in_dim, hidden, out_dim = shape
    rng = np.random.default_rng(seed)
    net = MLP(in_dim, hidden, out_dim, rng, "net", dropout=0.1)
    for p in net.parameters():
        p.data += 0.1 * rng.normal(size=p.data.shape)
    X = rng.normal(scale=3.0, size=(rows, in_dim))
    X_before = X.copy()
    out = net.infer(X)
    assert out.shape == (rows, out_dim) and out.dtype == np.float64
    assert out.tobytes() == mlp_op_by_op(net, Tensor(X)).data.tobytes()
    assert X.tobytes() == X_before.tobytes()


def test_mlp_call_is_one_tape_node():
    net = MLP(4, (5, 3), 2, np.random.default_rng(13), "one", dropout=0.2)
    x = Tensor(np.ones((3, 4)))
    for rng in (None, np.random.default_rng(0)):
        out = net(x, rng=rng)
        assert out._prev == (x, *net.parameters())


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_mlp_node_keeps_the_op_by_op_bits(data):
    """The one-node call against the primitive chain: the same output bits and
    the same gradient bits in every named leaf, with dropout on or off (0.1 is
    the reference ranker's rate) and x live or not, and the same next draw
    from the dropout rng after the call. A leaf left out keeps ``.grad is None``."""
    dims = data.draw(st.lists(st.integers(1, 6), min_size=2, max_size=5), label="dims")
    rows = data.draw(st.integers(1, 7), label="rows")
    p = data.draw(st.sampled_from([0.0, 0.1, 0.3, 0.7]), label="p")
    train = data.draw(st.booleans(), label="train")
    seed = data.draw(st.integers(0, 2**32 - 2), label="seed")
    rng = np.random.default_rng(seed)
    net = MLP(dims[0], dims[1:-1], dims[-1], rng, "net", dropout=p)
    for q in net.parameters():
        q.data += rng.normal(size=q.data.shape)
    X = rng.normal(scale=2.0, size=(rows, dims[0]))
    W = rng.normal(size=(rows, dims[-1]))
    named = data.draw(st.sets(st.sampled_from(["x"] + [q.name for q in net.parameters()])),
                      label="named")
    results = []
    for forward in (net.__call__, partial(mlp_op_by_op, net)):
        x = Tensor(X.copy())
        leaves = {"x": x, **{q.name: q for q in net.parameters()}}
        for q in net.parameters():
            q.grad = None
        drop_rng = np.random.default_rng(seed + 1) if train else None
        out = forward(x, drop_rng)
        linear_readout(out, W).backward([leaves[name] for name in named])
        grads = {name: None if t.grad is None else t.grad.tobytes()
                 for name, t in leaves.items()}
        next_draw = None if drop_rng is None else drop_rng.random()
        results.append((out.data.tobytes(), grads, next_draw))
    assert results[0] == results[1]
    for name, grad in results[0][1].items():
        assert (grad is None) == (name not in named), name


MLP_FD_LEAVES = {
    "x": lambda x, net: [x],
    "W": lambda x, net: [net.layers[0].W],
    "b": lambda x, net: [net.layers[len(net.layers) // 2].b],
    "all": lambda x, net: [x, *net.parameters()],
}


@pytest.mark.parametrize("leaves", MLP_FD_LEAVES)
@pytest.mark.parametrize("p", [0.0, 0.3])
@pytest.mark.parametrize("hidden", [(4,), (4, 3), (4, 3, 5)])
def test_mlp_node_gradients_match_finite_differences(hidden, p, leaves):
    """The one-node call's own backward against central differences, with the
    input, the first weight, a middle bias or every leaf named. Each call gets
    a freshly seeded rng, so dropout draws the same mask every time."""
    rng = np.random.default_rng(40 + len(hidden))
    net = MLP(3, hidden, 2, rng, "net", dropout=p)
    for q in net.parameters():
        q.data += 0.5 * rng.normal(size=q.data.shape)
    x = Parameter(rng.normal(size=(5, 3)), "x")
    W = rng.normal(size=(5, 2))
    check_parameter_gradients(
        MLP_FD_LEAVES[leaves](x, net),
        lambda: linear_readout(net(x, rng=np.random.default_rng(7)), W))


def _elu_sweep():
    """Random arrays from 1e-320 to 1e300, |x| < 2**-53, subnormals and specials."""
    rng = np.random.default_rng(14)
    scales = 10.0 ** np.arange(-320, 301, 5)
    spread = (rng.normal(size=(scales.size, 64)) * scales[:, None]).ravel()
    tiny = np.ldexp(rng.uniform(-1.0, 1.0, size=512), -53)
    subnormal = np.ldexp(rng.uniform(-1.0, 1.0, size=512), -1022)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
                        np.finfo(float).tiny, -np.finfo(float).tiny,
                        np.finfo(float).max, -np.finfo(float).max, -745.2, -709.8, 709.8])
    return np.concatenate([spread, tiny, subnormal, special])


_SCATTER_VALUES = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1e16, -1.0]),
                            st.floats(-1e6, 1e6))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_take_rows_scatter_keeps_the_add_at_bits(data):
    """The table gradient has the bits of np.add.at into zeros: repeated,
    unsorted and negative indices, -0.0 terms, rows no index reaches, a 1-row
    table."""
    n_rows, width = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 4))
    idx = np.array(data.draw(st.lists(st.integers(-n_rows, n_rows - 1), min_size=1,
                                      max_size=12)))
    grad = np.array(data.draw(st.lists(_SCATTER_VALUES, min_size=idx.size * width,
                                       max_size=idx.size * width))).reshape(idx.size, width)
    table = Tensor(np.ones((n_rows, width)))
    out = table.take_rows(idx)
    root = Tensor(0.0, (out,))
    root._backward = lambda live: out._accumulate(grad)
    root.backward([table])
    want = take_rows_scatter_add_at(table.data.shape, idx, grad)
    assert table.grad.shape == want.shape and table.grad.tobytes() == want.tobytes()


def test_elu_kernel_keeps_the_four_pass_bits():
    x = _elu_sweep()
    assert _elu(x.copy()).tobytes() == elu_four_pass(x.copy()).tobytes()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                min_size=1, max_size=16))
def test_elu_kernel_keeps_the_four_pass_bits_on_any_float(values):
    x = np.array(values, dtype=np.float64)
    assert _elu(x.copy()).tobytes() == elu_four_pass(x.copy()).tobytes()


def test_matmul_rejects_non_2d():
    with pytest.raises(ValueError):
        Tensor(np.ones(3)).matmul(Tensor(np.ones((3, 2))))


def test_division_by_tensor_rejected():
    """The tape has no elementwise product, negation or division: losses are
    built by ``weighted_listwise_ce`` and readouts by matmul."""
    a, b = Tensor(np.ones(3)), Tensor(np.ones(3))
    with pytest.raises(TypeError):
        a / b
    with pytest.raises(TypeError):
        a * b
    with pytest.raises(TypeError):
        -a
    assert not hasattr(Tensor, "sum") and not hasattr(Tensor, "_wrap")


def test_backward_requires_scalar_root():
    t = Tensor(np.ones((2, 2)))
    with pytest.raises(ValueError):
        t.elu().backward([t])


def test_square_loss_gradient():
    w = Tensor(np.array([[3.0]]))
    w.matmul(w).backward([w])
    assert w.grad[0, 0] == pytest.approx(6.0, abs=1e-12)


def test_backward_consumes_the_graph_and_frees_it_without_the_cycle_collector():
    w = Tensor(np.array([[1.0, -2.0]]))
    hidden = w.matmul(Tensor(np.ones((2, 1)))).elu()
    loss = hidden.reshape(())
    loss.backward([w])
    with pytest.raises(RuntimeError):
        loss.backward([w])
    ref = weakref.ref(hidden)
    gc.disable()
    try:
        del hidden, loss
        assert ref() is None
    finally:
        gc.enable()
    # The leaf keeps its gradient and can start a new graph.
    assert w.grad[0, 0] == pytest.approx(math.exp(-1.0), abs=1e-12)
    w.matmul(Tensor(np.ones((2, 1)))).backward([w])


def _lpp_view_case(view):
    """One LPP forward view under a listwise loss, with a nonzero position table."""
    rng = np.random.default_rng(31)
    model = LPPModel(4, 3, rng, embed_dim=5, encoder_hidden=(7,), ffn_hidden=(6, 4))
    model.position_table.data[:] = 0.3 * rng.normal(size=model.position_table.data.shape)
    X = rng.uniform(size=(6, 4))
    w = rng.uniform(0.2, 1.0, size=(2, 3))

    def loss_fn():
        if view == "confounder":
            out = model.forward_confounder(X)
        else:
            out = model.forward_joint(X, np.tile(np.arange(3), 2))
        return weighted_listwise_ce(out.reshape(2, 3), w)

    return model.parameters(), loss_fn


PRUNING_CASES = {
    "ranker": lambda: ranker_gradient_case(np.random.default_rng(30)),
    "lpp-confounder": lambda: _lpp_view_case("confounder"),
    "lpp-joint": lambda: _lpp_view_case("joint"),
}


@pytest.mark.parametrize("case, names", [
    ("ranker", ("ranker.l0.W",)),
    ("ranker", ("ranker.l2.W", "ranker.l2.b")),
    ("ranker", ("ranker.l0.b", "ranker.l1.W", "ranker.l2.b")),
    ("lpp-confounder", ("lpp.encoder_d.l0.W", "lpp.encoder_d.l1.b")),
    ("lpp-confounder", ("lpp.ffn.l0.W", "lpp.ffn.l0.b", "lpp.ffn.l2.W")),
    ("lpp-joint", ("lpp.encoder_p",)),
    ("lpp-joint", ("lpp.encoder_p", "lpp.ffn.l1.W", "lpp.ffn.l2.b")),
    ("lpp-joint", ("lpp.encoder_d.l0.W",)),
])
def test_backward_into_named_leaves_matches_the_full_pass(case, names):
    """Pruned backward hands the named leaves the full pass's gradient bits;
    the rest get no gradient, and an update leaves their data alone and
    makes them no AdaGrad accumulator."""
    params, loss_fn = PRUNING_CASES[case]()
    loss_fn().backward(params)
    full = {p.name: p.grad.tobytes() for p in params if p.name in names}
    named = [p for p in params if p.name in names]
    assert len(named) == len(names)
    for p in params:
        p.grad = None
    opt = AdaGrad(lr=0.1)
    before = [p.data.copy() for p in params]
    opt.minimize(loss_fn(), named)
    for p, b in zip(params, before):
        if p.name in names:
            assert p.grad.tobytes() == full[p.name], p.name
            # The output bias of a softmax loss gets an exact zero gradient.
            assert np.array_equal(p.data, b) == (not np.any(p.grad))
        else:
            assert p.grad is None, p.name
            assert np.array_equal(p.data, b)
            assert p not in opt.state, p.name


def test_minimize_refuses_a_parameter_the_loss_does_not_reach():
    """The refusal names the parameter and comes before any update: neither
    the loose parameter nor the reached one moves or gets an accumulator."""
    p = Parameter(np.array([1.5]), "loose")
    q = Parameter(np.array([[2.0, 0.0]]), "used")
    opt = AdaGrad(lr=0.1)

    def loss():
        return weighted_listwise_ce(q, np.array([[0.0, 1.0]]))

    with pytest.raises(ValueError, match="^loss does not reach parameter 'loose'$"):
        opt.minimize(loss(), [q, p])
    assert p.grad is None
    assert p.data[0] == 1.5 and np.array_equal(q.data, [[2.0, 0.0]])
    assert not opt.state
    opt.minimize(loss(), [q])
    assert q.data[0, 0] < 2.0 and q.data[0, 1] > 0.0


def test_adagrad_single_step_magnitude():
    p = Parameter(np.array([0.0]), "p")
    opt = AdaGrad(lr=0.1)
    p.grad = np.array([1.0])
    opt.step([p])
    assert p.data[0] == pytest.approx(-0.1 / math.sqrt(1.0 + 1e-6), abs=1e-12)


def test_adagrad_zero_gradient_is_a_no_op():
    p = Parameter(np.array([4.0]), "p")
    opt = AdaGrad(lr=0.1)
    assert p not in opt.state
    p.grad = np.array([0.0])
    opt.step([p])
    assert p.data[0] == 4.0
    assert opt.state[p][0] == 0.0


def test_adagrad_second_step_shrinks_by_sqrt2():
    p = Parameter(np.array([0.0]), "p")
    opt = AdaGrad(lr=0.1)
    p.grad = np.array([1.0])
    opt.step([p])
    first = -p.data[0]
    p.grad = np.array([1.0])
    opt.step([p])
    second = -p.data[0] - first
    assert second == pytest.approx(0.1 / math.sqrt(2.0), abs=1e-6)
    assert second == pytest.approx(first / math.sqrt(2.0), rel=1e-5)


def test_adagrad_rejects_bad_lr():
    with pytest.raises(ValueError):
        AdaGrad(lr=0.0)


def test_frozen_parameters_do_not_move():
    """A parameter left out of ``step(params)`` keeps its data and gets no accumulator."""
    rng = np.random.default_rng(5)
    params = [Parameter(rng.normal(size=(3,)), f"p{i}") for i in range(4)]
    opt = AdaGrad(lr=0.5)
    for p in params:
        p.grad = np.ones(3)
    before = [p.data.copy() for p in params]
    opt.step([])
    opt.step(params[2:])
    for p, b in zip(params[:2], before):
        assert np.array_equal(p.data, b)
        assert p not in opt.state
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
    opt = AdaGrad(lr=0.1)
    snap = [p.data.copy() for p in held]
    live_snap = [p.data.copy() for p in live]
    for step in range(100):
        for p in held + live:
            p.grad = rng.normal(size=p.data.shape)
        opt.step(live)
    for p, s in zip(held, snap):
        assert np.array_equal(p.data, s)
        assert p not in opt.state
    for p, s in zip(live, live_snap):
        assert not np.array_equal(p.data, s)
    fresh = [Parameter(s.copy(), f"fresh{i}") for i, s in enumerate(snap)]
    for p in held + live + fresh:
        p.grad = np.ones(p.data.shape)
    opt.step(held + live)
    AdaGrad(lr=0.1).step(fresh)
    for p, f in zip(held, fresh):
        assert np.array_equal(p.data, f.data)


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
    train_out = net(Tensor(x), rng=np.random.default_rng(0))
    eval_out = net(Tensor(x))
    assert np.array_equal(train_out.data, eval_out.data)


def test_dropout_requires_rng_and_a_rate_below_one():
    net = MLP(2, (3,), 1, np.random.default_rng(0), "r", dropout=1.0)
    with pytest.raises(ValueError, match="dropout rate"):
        net(Tensor(np.ones((2, 2))), rng=np.random.default_rng(0))
    assert net(Tensor(np.ones((2, 2)))).data.shape == (2, 1)


def test_dropout_mask_scales_survivors():
    """The reference node: each entry is zeroed or scaled by 1/(1-p), and a
    generator seeded afresh draws the same mask again."""
    x = Tensor(np.ones((4, 5)))
    out = dropout(x, 0.5, np.random.default_rng(3))
    assert set(np.unique(out.data)) == {0.0, 2.0}
    again = dropout(x, 0.5, np.random.default_rng(3))
    assert np.array_equal(again.data, out.data)


def test_mlp_dropout_mask_scales_survivors():
    """Inside the one-node call, each hidden unit is zeroed or scaled by
    1/(1-p), by the mask the reference node draws from the same generator,
    and a generator seeded afresh draws the same mask again."""
    net = MLP(3, (5,), 5, np.random.default_rng(4), "m", dropout=0.5)
    first, head = net.layers
    first.W.data[:] = 0.0
    first.b.data[:] = 1.0  # every hidden unit reads elu(1) = 1
    head.W.data[:] = np.eye(5)
    x = Tensor(np.ones((4, 3)))
    out = net(x, rng=np.random.default_rng(3))
    assert set(np.unique(out.data)) == {0.0, 2.0}
    again = net(x, rng=np.random.default_rng(3))
    assert np.array_equal(again.data, out.data)
    alone = dropout(Tensor(np.ones((4, 5))), 0.5, np.random.default_rng(3))
    assert np.array_equal(alone.data, out.data)


def test_mlp_names_its_layers_and_biases_start_at_zero():
    net = MLP(3, (4,), 2, np.random.default_rng(9), "m")
    assert [p.name for p in net.parameters()] == ["m.l0.W", "m.l0.b", "m.l1.W", "m.l1.b"]
    rng = np.random.default_rng(9)  # Glorot-uniform, first layer drawn first
    for layer, (fan_in, fan_out) in zip(net.layers, [(3, 4), (4, 2)]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        assert np.array_equal(layer.W.data, rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        assert np.array_equal(layer.b.data, np.zeros(fan_out))


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


def _assert_listwise_ce_bits(logits, weights):
    z = Tensor(logits.copy())
    loss = weighted_listwise_ce(z, weights)
    loss.backward([z])
    want_loss, want_grad = listwise_ce_op_by_op(logits, weights)
    assert loss.data.tobytes() == np.float64(want_loss).tobytes()
    assert z.grad.tobytes() == want_grad.tobytes()


def test_listwise_ce_keeps_the_op_by_op_bits():
    """Loss and logits gradient equal the numpy chain bit for bit, on one-row
    and (B, N) logits, with all-zero weight rows and weights from 1e-300 to 1e300."""
    rng = np.random.default_rng(12)
    for scale in 10.0 ** np.arange(-300, 301, 25):
        for shape in [(1, 7), (1, 5), (4, 6), (32, 10)]:
            logits = rng.normal(scale=3.0, size=shape)
            weights = rng.uniform(size=shape) * (rng.uniform(size=shape) < 0.5) * scale
            if shape != (1, 7):
                weights[0] = 0.0
            _assert_listwise_ce_bits(logits, weights)
    _assert_listwise_ce_bits(np.zeros((3, 4)), np.zeros((3, 4)))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_listwise_ce_keeps_the_op_by_op_bits_on_any_batch(data):
    rows = data.draw(st.sampled_from([1, 2, 5]))
    n = data.draw(st.integers(1, 8))
    shape = (rows, n)
    size = n * rows
    logits = np.array(data.draw(st.lists(st.floats(-50, 50), min_size=size, max_size=size)))
    weights = np.array(data.draw(st.lists(st.floats(0, 1), min_size=size, max_size=size)))
    logits = logits.reshape(shape) * 10.0 ** data.draw(st.integers(-3, 3))
    weights = weights.reshape(shape) * 10.0 ** data.draw(st.integers(-300, 300))
    zero = data.draw(st.lists(st.booleans(), min_size=rows, max_size=rows))
    weights[np.array(zero)] = 0.0
    _assert_listwise_ce_bits(logits, weights)


def test_listwise_ce_adds_two_tape_nodes():
    z = Tensor(np.log([[1.0, 2.0, 5.0], [3.0, 3.0, 4.0]]))
    loss = weighted_listwise_ce(z, np.ones((2, 3)))
    (log_p,) = loss._prev
    assert log_p._prev == (z,) and z._prev == ()
    assert np.allclose(log_p.data, np.log([[0.125, 0.25, 0.625], [0.3, 0.3, 0.4]]))


def test_listwise_ce_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        weighted_listwise_ce(Tensor(np.zeros((2, 3))), np.zeros((3, 2)))
    # One list is a (1, items) row; a 1-D vector is refused, not read as one.
    with pytest.raises(ValueError, match=r"\(rows, items\)"):
        weighted_listwise_ce(Tensor(np.zeros(3)), np.zeros(3))


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
    with pytest.raises(ValueError, match="missing parameter 'b'"):
        load_params(path, [Parameter(np.zeros(3), "b")])
    with pytest.raises(ValueError):
        load_params(path, [Parameter(np.zeros(4), "a")])
    for bad in (np.nan, np.inf, -np.inf):
        save_params(path, [Parameter(np.array([0.0, bad, 1.0]), "a")])
        with pytest.raises(ValueError, match="'a'"):
            load_params(path, [a])
        assert np.array_equal(a.data, np.zeros(3))


def test_save_rejects_duplicate_names(tmp_path):
    pair = [Parameter(np.zeros(1), "same"), Parameter(np.ones(1), "same")]
    with pytest.raises(ValueError):
        save_params(tmp_path / "dup.npz", pair)
