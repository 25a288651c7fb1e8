import numpy as np
import pytest

from msast import numerics as nx
from msast.errors import ConfigError, ShapeError
from msast.numerics import Parameter, Tensor, as_tensor, no_grad

from tests.oracles import finite_diff_check


def tensor_sum(t: Tensor) -> Tensor:
    """Scalar reduction built from matmuls so gradients flow through it."""
    col = nx.matmul(t, as_tensor(np.ones((t.data.shape[1], 1), dtype=t.data.dtype)))
    return nx.matmul(as_tensor(np.ones((1, col.data.shape[0]), dtype=t.data.dtype)), col)


# --- matmul -----------------------------------------------------------------

def test_matmul_identity():
    a = as_tensor(np.eye(2))
    b = as_tensor(np.array([[3.0, 4.0], [5.0, 6.0]]))
    assert np.array_equal(nx.matmul(a, b).data, b.data)


def test_matmul_direct_summation():
    # oracle: manual sum 1*3 + 2*4 = 11
    out = nx.matmul(as_tensor(np.array([[1.0, 2.0]])), as_tensor(np.array([[3.0], [4.0]])))
    assert out.data.shape == (1, 1)
    assert out.data[0, 0] == 11.0


def test_matmul_zero_case(rng):
    b = as_tensor(rng.normal(size=(3, 5)))
    out = nx.matmul(as_tensor(np.zeros((2, 3))), b)
    assert np.array_equal(out.data, np.zeros((2, 5)))


def test_matmul_shape_error():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
        nx.matmul(as_tensor(np.zeros((2, 3))), as_tensor(np.zeros((2, 3))))


def test_matmul_backward_formulas(rng):
    a = Parameter(rng.normal(size=(4, 3)), "a")
    b = Parameter(rng.normal(size=(3, 5)), "b")
    out = nx.matmul(a, b)
    g = rng.normal(size=out.data.shape)
    loss = nx.mul(out, as_tensor(g))
    tensor_sum(loss).backward()
    np.testing.assert_allclose(a.grad, g @ b.data.T, rtol=1e-12)
    np.testing.assert_allclose(b.grad, a.data.T @ g, rtol=1e-12)


# --- dilated conv -----------------------------------------------------------

def _conv_oracle(x, w, b, dilation, causal):
    """Direct summation over taps with explicit zero padding."""
    T, cin = x.shape
    K, _, cout = w.shape
    out = np.zeros((T, cout))
    for t in range(T):
        for k in range(K):
            src = t - (K - 1 - k) * dilation if causal else t + (k - K // 2) * dilation
            if 0 <= src < T:
                out[t] += x[src] @ w[k]
    return out + b


def test_conv_causal_example():
    x = as_tensor(np.array([[1.0], [2.0], [3.0], [4.0]]))
    w = as_tensor(np.ones((3, 1, 1)))
    b = as_tensor(np.zeros(1))
    out = nx.dilated_conv1d(x, w, b, 1, True)
    np.testing.assert_array_equal(out.data.ravel(), [1.0, 3.0, 6.0, 9.0])


def test_conv_symmetric_example():
    x = as_tensor(np.array([[1.0], [2.0], [3.0], [4.0]]))
    w = as_tensor(np.ones((3, 1, 1)))
    b = as_tensor(np.zeros(1))
    out = nx.dilated_conv1d(x, w, b, 1, False)
    np.testing.assert_array_equal(out.data.ravel(), [3.0, 6.0, 9.0, 7.0])


def test_conv_zero_input(rng):
    w = as_tensor(rng.normal(size=(5, 2, 3)))
    out = nx.dilated_conv1d(as_tensor(np.zeros((8, 2))), w, as_tensor(np.zeros(3)), 2, True)
    assert np.array_equal(out.data, np.zeros((8, 3)))


@pytest.mark.parametrize("causal", [True, False], ids=["causal", "symmetric"])
@pytest.mark.parametrize("dilation", [1, 2, 4, 8, 16])
def test_conv_matches_direct_summation(rng, causal, dilation):
    x = rng.normal(size=(13, 3))
    w = Parameter(rng.normal(size=(5, 3, 4)), "w")
    b = rng.normal(size=4)
    out = nx.dilated_conv1d(as_tensor(x), w, as_tensor(b), dilation, causal)
    np.testing.assert_allclose(out.data, _conv_oracle(x, w.data, b, dilation, causal), atol=1e-12)
    # a tap that reads only zero padding gets an exactly zero weight gradient
    tensor_sum(out).backward()
    for k in range(5):
        offset = (k - 4) * dilation if causal else (k - 2) * dilation
        assert np.array_equal(w.grad[k], np.zeros((3, 4))) == (abs(offset) >= 13), k


@pytest.mark.parametrize("causal", [True, False], ids=["causal", "symmetric"])
@pytest.mark.parametrize("dilation", [1, 4, 16])
def test_conv_last_rows_match_full_output(rng, causal, dilation):
    x = Parameter(rng.normal(size=(13, 3)), "x")
    w = rng.normal(size=(5, 3, 4))
    b = rng.normal(size=4)
    full = _conv_oracle(x.data, w, b, dilation, causal)
    for n in (1, 2, 7, 13):
        x.grad = None
        out = nx.dilated_conv1d(x, as_tensor(w), as_tensor(b), dilation, causal, rows=n)
        np.testing.assert_allclose(out.data, full[13 - n:], atol=1e-12, err_msg=f"n={n}")
        # only inputs some tap of the kept rows reads get a gradient
        tensor_sum(out).backward()
        offsets = [(k - 4) * dilation if causal else (k - 2) * dilation for k in range(5)]
        read = {t + s for t in range(13 - n, 13) for s in offsets if 0 <= t + s < 13}
        assert {int(i) for i in np.flatnonzero(np.abs(x.grad).sum(axis=1))} <= read
    with pytest.raises(ShapeError):
        nx.dilated_conv1d(x, as_tensor(w), as_tensor(b), dilation, causal, rows=14)


def test_conv_causal_never_sees_future(rng):
    x = rng.normal(size=(20, 2))
    w = rng.normal(size=(3, 2, 2))
    b = rng.normal(size=2)
    base = nx.dilated_conv1d(as_tensor(x), as_tensor(w), as_tensor(b), 4, True).data
    for t in (0, 5, 12):
        zeroed = x.copy()
        zeroed[t + 1:] = 0.0
        out = nx.dilated_conv1d(as_tensor(zeroed), as_tensor(w), as_tensor(b), 4, True).data
        assert np.array_equal(out[:t + 1], base[:t + 1])


def test_conv_config_errors():
    x = as_tensor(np.zeros((4, 1)))
    w = as_tensor(np.zeros((3, 1, 1)))
    b = as_tensor(np.zeros(1))
    with pytest.raises(ConfigError):
        nx.dilated_conv1d(x, w, b, 0, True)
    with pytest.raises(ConfigError):
        nx.dilated_conv1d(x, as_tensor(np.zeros((2, 1, 1))), b, 1, False)


# --- softmax ----------------------------------------------------------------

def test_softmax_symmetry():
    out = nx.softmax_rows(as_tensor(np.array([[0.0, 0.0]])))
    np.testing.assert_array_equal(out.data, [[0.5, 0.5]])


def test_softmax_large_logit_stable():
    out = nx.softmax_rows(as_tensor(np.array([[1000.0, 0.0]])))
    assert np.isfinite(out.data).all()
    assert out.data[0, 0] == pytest.approx(1.0)
    assert out.data[0, 1] == pytest.approx(0.0, abs=1e-12)


def test_softmax_closed_form():
    out = nx.softmax_rows(as_tensor(np.log(np.array([[1.0, 2.0, 3.0]]))))
    np.testing.assert_allclose(out.data, [[1 / 6, 2 / 6, 3 / 6]], atol=1e-5)


def test_softmax_rows_sum_to_one_and_shift_invariant(rng):
    for _ in range(100):
        x = rng.normal(size=(rng.integers(1, 12), rng.integers(1, 9))) * 10
        p = nx.softmax_rows(as_tensor(x)).data
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-6)
        shifted = nx.softmax_rows(as_tensor(x + rng.normal() * np.ones_like(x))).data
        np.testing.assert_allclose(p, shifted, atol=1e-6)


# --- relu / dropout ---------------------------------------------------------

def test_relu_example():
    out = nx.relu(as_tensor(np.array([[-1.0, 0.0, 2.0]])))
    np.testing.assert_array_equal(out.data, [[0.0, 0.0, 2.0]])


def test_dropout_rate_zero_identity(rng):
    x = as_tensor(rng.normal(size=(5, 4)))
    assert nx.dropout(x, 0.0, np.random.default_rng(7)) is x


def test_dropout_inference_identity(rng):
    x = as_tensor(rng.normal(size=(5, 4)))
    assert nx.dropout(x, 0.5, None) is x


def test_dropout_training_scales_survivors(rng):
    x = as_tensor(np.ones((200, 50)))
    out = nx.dropout(x, 0.5, np.random.default_rng(7))
    values = np.unique(out.data)
    assert set(values.tolist()) <= {0.0, 2.0}
    # survivor fraction close to 1 - rate
    assert abs((out.data != 0).mean() - 0.5) < 0.02
    keep = np.random.default_rng(7).random(x.data.shape) >= 0.5
    np.testing.assert_array_equal(out.data, x.data * keep / 0.5)


def test_dropout_rate_validation(rng):
    x = as_tensor(np.zeros((2, 2)))
    with pytest.raises(ConfigError):
        nx.dropout(x, 1.0, np.random.default_rng(0))


# --- temporal norm ----------------------------------------------------------

def test_temporal_norm_constant_channel():
    x = as_tensor(np.full((6, 3), 5.0))
    out = nx.temporal_norm(x, as_tensor(np.ones(3)), as_tensor(np.zeros(3)))
    np.testing.assert_allclose(out.data, 0.0, atol=1e-6)


def test_temporal_norm_unit_variance():
    x = as_tensor(np.array([[-1.0], [1.0]]))
    out = nx.temporal_norm(x, as_tensor(np.ones(1)), as_tensor(np.zeros(1)))
    np.testing.assert_allclose(out.data, [[-1.0], [1.0]], atol=1e-3)


def test_temporal_norm_zero_gain_is_bias(rng):
    x = as_tensor(rng.normal(size=(7, 4)))
    bias = rng.normal(size=4)
    out = nx.temporal_norm(x, as_tensor(np.zeros(4)), as_tensor(bias))
    np.testing.assert_array_equal(out.data, np.broadcast_to(bias, (7, 4)))


def test_temporal_norm_requires_two_frames():
    with pytest.raises(ShapeError):
        nx.temporal_norm(as_tensor(np.zeros((1, 3))), as_tensor(np.ones(3)), as_tensor(np.zeros(3)))


# --- finite difference harness ----------------------------------------------

def test_finite_diff_quadratic_closed_form():
    theta = Parameter(np.asarray([[3.0]]), "theta")

    def f():
        return nx.matmul(theta, theta)

    err = finite_diff_check(f, [theta])
    assert err < 1e-6
    theta.grad = None
    f().backward()
    assert theta.grad[0, 0] == pytest.approx(6.0)


def test_finite_diff_linear_exact(rng):
    w = Parameter(rng.normal(size=(4, 1)), "w")
    x = as_tensor(rng.normal(size=(1, 4)))

    def f():
        return nx.matmul(x, w)

    assert finite_diff_check(f, [w]) < 1e-9


def test_finite_diff_reports_non_finite_with_param_name():
    from msast.errors import NumericError

    # finite at the base point, overflows to inf under the +eps perturbation
    p = Parameter(np.asarray([[1.79769]]), "edge")
    c = as_tensor(np.asarray([[1e308]]))

    def f():
        return nx.mul(p, c)

    with np.errstate(over="ignore"), pytest.raises(NumericError, match="edge"):
        finite_diff_check(f, [p])


# --- primitive gradient sweep (100 trials, fixed seed) ------------------------

def _primitive_cases(rng):
    """One random gradient-check closure per draw, covering every primitive.

    Inputs are kept away from relu/clip kinks (|x| >= 1e-2) so the central
    difference measures the differentiable branch.
    """
    def away_from_zero(shape):
        x = rng.normal(size=shape)
        return np.where(np.abs(x) < 1e-2, np.sign(x) * 1e-2 + x, x)

    T = int(rng.integers(3, 9))
    cin = int(rng.integers(1, 5))
    cout = int(rng.integers(1, 5))
    kind = rng.integers(0, 7)
    if kind == 0:
        a = Parameter(rng.normal(size=(T, cin)), "a")
        b = Parameter(rng.normal(size=(cin, cout)), "b")
        return lambda: tensor_sum(nx.matmul(a, b)), [a, b]
    if kind == 1:
        x = Parameter(away_from_zero((T, cin)), "x")
        return lambda: tensor_sum(nx.relu(x)), [x]
    if kind == 2:
        x = Parameter(rng.normal(size=(T, cin)), "x")
        return lambda: tensor_sum(nx.softmax_rows(x)), [x]
    if kind == 3:
        x = Parameter(rng.normal(size=(T, cin)), "x")
        gain = Parameter(rng.normal(size=cin), "g")
        bias = Parameter(rng.normal(size=cin), "b")
        return lambda: tensor_sum(nx.temporal_norm(x, gain, bias)), [x, gain, bias]
    if kind == 4:
        K = int(rng.choice([1, 3, 5]))
        d = int(rng.integers(1, 5))
        causal = bool(rng.integers(0, 2))
        x = Parameter(rng.normal(size=(T, cin)), "x")
        w = Parameter(rng.normal(size=(K, cin, cout)), "w")
        b = Parameter(rng.normal(size=cout), "b")
        return lambda: tensor_sum(nx.dilated_conv1d(x, w, b, d, causal)), [x, w, b]
    if kind == 5:
        a = Parameter(rng.normal(size=(T, cin)), "a")
        b = Parameter(rng.normal(size=(T, cin)), "b")
        s = Parameter(np.asarray(rng.normal()), "s")
        return lambda: tensor_sum(nx.add(nx.mul(s, a), b)), [a, b, s]
    a = Parameter(rng.normal(size=(T, cin)), "a")
    b = Parameter(rng.normal(size=(T, cout)), "b")
    return lambda: tensor_sum(nx.concat_channels(a, b)), [a, b]


def test_primitive_gradients_100_trials():
    rng = np.random.default_rng(20240901)
    worst = 0.0
    for _ in range(100):
        f, params = _primitive_cases(rng)
        worst = max(worst, finite_diff_check(f, params))
    assert worst <= 1e-4, f"worst primitive gradient error {worst}"


@pytest.mark.parametrize("op", [nx.add, nx.mul], ids=["add", "mul"])
def test_gradients_over_a_size_one_broadcast_axis(rng, op):
    # a (T, 1) column broadcast over (T, C) gets its gradient summed back over
    # the broadcast axis, kept as a size-1 axis
    for column_first in (True, False):
        col = Parameter(rng.normal(size=(7, 1)), "col")
        full = Parameter(rng.normal(size=(7, 4)), "full")
        g = as_tensor(rng.normal(size=(7, 4)))
        a, b = (col, full) if column_first else (full, col)
        err = finite_diff_check(lambda: tensor_sum(nx.mul(op(a, b), g)), [col, full])
        assert err <= 1e-6, f"{op.__name__} column_first={column_first}: {err}"
        assert col.grad.shape == (7, 1) and full.grad.shape == (7, 4)


def test_forward_outputs_finite_on_finite_inputs(rng):
    x = as_tensor(rng.normal(size=(9, 5)) * 100)
    for out in (nx.relu(x), nx.softmax_rows(x),
                nx.temporal_norm(x, as_tensor(np.ones(5)), as_tensor(np.zeros(5)))):
        assert np.isfinite(out.data).all()


def test_no_grad_blocks_tape(rng):
    p = Parameter(rng.normal(size=(3, 3)), "p")
    with no_grad():
        out = nx.matmul(p, p)
    assert out._backward is None and not out.requires_grad
    assert out._node is None  # the untracked path makes no tape node
