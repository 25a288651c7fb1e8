import numpy as np
import pytest

from msast.attention import WindowSpec, sliding_window_attention, window_schedule
from msast.errors import ConfigError, ShapeError
from msast import numerics as nx
from msast.numerics import as_tensor

from tests.oracles import attention_mask, dense_masked_attention_backward, \
    dense_masked_attention_reference


def plain_attention(q, k, v, spec):
    """The attention output itself: the kernel's fusion term at a unit weight
    and alpha 1, products with 1 that change no bit."""
    return sliding_window_attention(q, k, v, spec, as_tensor(np.ones((), q.data.dtype)), 1.0)


# --- window schedule ----------------------------------------------------------

@pytest.mark.parametrize("kernel,layer,expected", [
    (3, 1, 1), (3, 10, 512),
    (5, 1, 1), (5, 2, 4), (5, 10, 1024),
    (17, 1, 1), (17, 2, 16), (17, 10, 4096),
    (9, 1, 1), (9, 2, 8), (9, 10, 2048),  # generalized rule
])
def test_window_schedule_values(kernel, layer, expected):
    assert window_schedule(kernel, layer) == expected


def test_window_schedule_doubles_per_layer():
    for kernel in (3, 5, 9, 17):
        for layer in range(2, 10):
            assert window_schedule(kernel, layer + 1) == 2 * window_schedule(kernel, layer)


def test_window_schedule_nondecreasing():
    for kernel in (3, 5, 9, 17):
        widths = [window_schedule(kernel, layer) for layer in range(1, 11)]
        assert widths == sorted(widths)


def test_window_schedule_errors():
    with pytest.raises(ConfigError):
        window_schedule(1, 3)
    with pytest.raises(ConfigError):
        window_schedule(3, 0)


def test_window_spec_schedule_consistency():
    WindowSpec(window_size=4, causal=True, kernel_size=5, layer_index=2)
    with pytest.raises(ConfigError):
        WindowSpec(window_size=5, causal=True, kernel_size=5, layer_index=2)
    with pytest.raises(ConfigError):
        WindowSpec(window_size=0, causal=False)


# --- mask ---------------------------------------------------------------------

def test_mask_causal_window5():
    mask = attention_mask(10, 5, causal=True)
    assert set(np.flatnonzero(mask[6]).tolist()) == {2, 3, 4, 5, 6}


def test_mask_window1_is_identity():
    for causal in (True, False):
        assert np.array_equal(attention_mask(7, 1, causal), np.eye(7, dtype=bool))


def test_mask_saturated_acausal_all_ones():
    assert attention_mask(5, 10, causal=False).all()


def test_mask_rows_nonempty():
    for causal in (True, False):
        for w in (1, 2, 3, 8):
            assert attention_mask(6, w, causal).any(axis=1).all()


def test_mask_causal_never_future():
    mask = attention_mask(12, 6, causal=True)
    assert not np.triu(mask, k=1).any()


# --- dense reference oracle -----------------------------------------------------

def test_reference_full_mask_hand_computed():
    q = np.array([[1.0, 0.0], [0.0, 1.0]])
    k = np.array([[1.0, 0.0], [0.0, 1.0]])
    v = np.array([[2.0, 0.0], [0.0, 4.0]])
    mask = np.ones((2, 2), dtype=bool)
    # logits row 0: [1,0]/sqrt(2) -> softmax [s, 1-s], s = e^r/(e^r+1), r=1/sqrt(2)
    r = 1 / np.sqrt(2)
    s = np.exp(r) / (np.exp(r) + 1)
    expected = np.array([[2 * s, 4 * (1 - s)], [2 * (1 - s), 4 * s]])
    np.testing.assert_allclose(dense_masked_attention_reference(q, k, v, mask), expected, atol=1e-12)


def test_reference_identity_mask_returns_v(rng):
    q, k, v = (rng.normal(size=(5, 3)) for _ in range(3))
    out = dense_masked_attention_reference(q, k, v, np.eye(5, dtype=bool))
    np.testing.assert_allclose(out, v, atol=1e-12)


def test_reference_zero_query_uniform_average(rng):
    k, v = rng.normal(size=(6, 4)), rng.normal(size=(6, 4))
    mask = attention_mask(6, 3, causal=True)
    out = dense_masked_attention_reference(np.zeros((6, 4)), k, v, mask)
    for t in range(6):
        rows = np.flatnonzero(mask[t])
        np.testing.assert_allclose(out[t], v[rows].mean(axis=0), atol=1e-12)


def test_reference_rejects_empty_row():
    mask = np.ones((3, 3), dtype=bool)
    mask[1] = False
    with pytest.raises(ValueError, match="row 1"):
        dense_masked_attention_reference(np.zeros((3, 2)), np.zeros((3, 2)), np.zeros((3, 2)), mask)


# --- sliding window attention ----------------------------------------------------

def test_window1_returns_v_exactly(rng):
    q, k, v = (as_tensor(rng.normal(size=(9, 4))) for _ in range(3))
    for causal in (True, False):
        out = plain_attention(q, k, v, WindowSpec(window_size=1, causal=causal))
        assert np.array_equal(out.data, v.data)


def test_window1_backward_is_identity_on_v(rng):
    from msast.numerics import Parameter
    from tests.test_numerics import tensor_sum

    for causal in (True, False):
        q, k, v = (Parameter(rng.normal(size=(9, 4)), name) for name in "qkv")
        out = plain_attention(q, k, v, WindowSpec(window_size=1, causal=causal))
        assert np.array_equal(out.data, v.data)
        g = rng.normal(size=(9, 4))
        tensor_sum(nx.mul(out, as_tensor(g))).backward()
        assert np.array_equal(v.grad, g)
        for p in (q, k):
            assert p.grad is None or not p.grad.any()


@pytest.mark.parametrize("causal", [True, False])
def test_last_rows_match_full_output(rng, causal):
    # queries for the last n rows only, against all T keys and values
    for T, w in [(10, 4), (150, 70), (200, 16), (65, 1)]:
        q, k, v = (rng.normal(size=(T, 5)) for _ in range(3))
        spec = WindowSpec(window_size=w, causal=causal)
        full = plain_attention(as_tensor(q), as_tensor(k), as_tensor(v), spec).data
        for n in (1, 3, 64, T):
            if n > T:
                continue
            got = plain_attention(as_tensor(q[T - n:]), as_tensor(k), as_tensor(v), spec)
            np.testing.assert_allclose(got.data, full[T - n:], atol=1e-12,
                                       err_msg=f"T={T} w={w} n={n}")


def test_saturated_window_equals_full_attention(rng):
    q, k, v = (rng.normal(size=(3, 4)) for _ in range(3))
    out = plain_attention(as_tensor(q), as_tensor(k), as_tensor(v),
                          WindowSpec(window_size=6, causal=False))
    ref = dense_masked_attention_reference(q, k, v, np.ones((3, 3), dtype=bool))
    np.testing.assert_allclose(out.data, ref, atol=1e-12)


def test_causal_rows_ignore_future_value_perturbation(rng):
    # T=150 spans three query chunks, and a width-70 window reaches past the previous chunk
    for T, w, times in [(10, 4, (0, 4, 8)), (150, 70, (0, 63, 64, 100, 148))]:
        q, k = (as_tensor(rng.normal(size=(T, 3))) for _ in range(2))
        v = rng.normal(size=(T, 3))
        spec = WindowSpec(window_size=w, causal=True)
        base = plain_attention(q, k, as_tensor(v), spec).data
        for t in times:
            bumped = v.copy()
            bumped[t + 1:] += 10.0
            out = plain_attention(q, k, as_tensor(bumped), spec).data
            assert np.array_equal(out[:t + 1], base[:t + 1])


def test_matches_dense_reference_100_random_cases():
    rng = np.random.default_rng(777)
    worst = 0.0
    for _ in range(100):
        T = int(rng.integers(2, 65))
        C = int(rng.integers(1, 17))
        w = int(rng.choice([1, 2, 5, 16]))
        causal = bool(rng.integers(0, 2))
        q, k, v = (rng.normal(size=(T, C)) for _ in range(3))
        ref = dense_masked_attention_reference(q, k, v, attention_mask(T, w, causal))
        got = plain_attention(as_tensor(q), as_tensor(k), as_tensor(v),
                              WindowSpec(window_size=w, causal=causal)).data
        worst = max(worst, float(np.abs(ref - got).max()))
    assert worst <= 1e-6, f"worst deviation from dense reference: {worst}"


def test_chunk_boundaries_match_reference(rng):
    # T > 64 splits the queries into chunks whose key slabs are clipped at
    # the sequence ends or by the window; T <= 64 is a single dense chunk
    for T in (8, 20, 63, 64, 65, 200):
        for w in (1, 2, 5, 16, 64, 129, 513):
            q, k, v = (rng.normal(size=(T, 6)) for _ in range(3))
            for causal in (True, False):
                ref = dense_masked_attention_reference(q, k, v, attention_mask(T, w, causal))
                got = plain_attention(as_tensor(q), as_tensor(k), as_tensor(v),
                                      WindowSpec(window_size=w, causal=causal)).data
                np.testing.assert_allclose(got, ref, atol=1e-9, err_msg=f"T={T} w={w} causal={causal}")


def test_chunk_gradients_match_dense_backward(rng):
    # backward recomputes each chunk's probabilities from its row max and sum,
    # on the same clipped, biased slabs the forward used
    from msast.numerics import Parameter
    from tests.test_numerics import tensor_sum

    for T in (8, 20, 63, 64, 65, 200):
        for w in (2, 5, 16, 64, 129, 513):
            for causal in (True, False):
                q, k, v = (Parameter(rng.normal(size=(T, 6)), name) for name in "qkv")
                g = rng.normal(size=(T, 6))
                out = plain_attention(q, k, v, WindowSpec(window_size=w, causal=causal))
                tensor_sum(nx.mul(out, as_tensor(g))).backward()
                ref = dense_masked_attention_backward(q.data, k.data, v.data,
                                                      attention_mask(T, w, causal), g)
                for p, want in zip((q, k, v), ref):
                    np.testing.assert_allclose(p.grad, want, rtol=0, atol=1e-9,
                                               err_msg=f"d{p.name} T={T} w={w} causal={causal}")

def test_output_rows_are_convex_combinations(rng):
    for _ in range(20):
        T = int(rng.integers(2, 30))
        C = int(rng.integers(1, 8))
        w = int(rng.choice([1, 2, 5, 16]))
        causal = bool(rng.integers(0, 2))
        q, k, v = (rng.normal(size=(T, C)) for _ in range(3))
        mask = attention_mask(T, w, causal)
        out = plain_attention(as_tensor(q), as_tensor(k), as_tensor(v),
                              WindowSpec(window_size=w, causal=causal)).data
        for t in range(T):
            rows = v[np.flatnonzero(mask[t])]
            assert (out[t] >= rows.min(axis=0) - 1e-6).all()
            assert (out[t] <= rows.max(axis=0) + 1e-6).all()


def test_shape_mismatch_rejected(rng):
    q = as_tensor(rng.normal(size=(5, 3)))
    bad = as_tensor(rng.normal(size=(5, 4)))
    with pytest.raises(ShapeError):
        plain_attention(q, bad, q, WindowSpec(window_size=2, causal=True))


def test_attention_gradients_match_finite_differences(rng):
    from msast.numerics import Parameter
    from tests.oracles import finite_diff_check
    from tests.test_numerics import tensor_sum

    for w, causal, T in [(2, True, 7), (5, False, 9), (16, True, 10), (3, False, 24),
                         (5, True, 150), (64, False, 150)]:
        q = Parameter(rng.normal(size=(T, 4)), "q")
        k = Parameter(rng.normal(size=(T, 4)), "k")
        v = Parameter(rng.normal(size=(T, 4)), "v")
        spec = WindowSpec(window_size=w, causal=causal)
        err = finite_diff_check(lambda: tensor_sum(plain_attention(q, k, v, spec)), [q, k, v])
        assert err <= 1e-4


# --- fusion weight and alpha ------------------------------------------------------

def test_weighted_call_matches_scaled_dense_reference():
    rng = np.random.default_rng(4343)
    worst = 0.0
    for trial in range(100):
        T = int(rng.integers(2, 150))
        C = int(rng.integers(1, 17))
        w = int(rng.choice([1, 2, 5, 16, 129]))
        causal = bool(rng.integers(0, 2))
        alpha = float(rng.choice([1.0, 0.5, 0.25]))
        dtype = np.float32 if trial % 2 else np.float64
        q, k, v = (rng.normal(size=(T, C)).astype(dtype) for _ in range(3))
        mix = np.asarray(rng.uniform(-1.0, 1.0), dtype=dtype)
        ref = alpha * mix * dense_masked_attention_reference(q, k, v, attention_mask(T, w, causal))
        got = sliding_window_attention(as_tensor(q), as_tensor(k), as_tensor(v),
                                       WindowSpec(window_size=w, causal=causal),
                                       as_tensor(mix), alpha).data
        assert got.dtype == dtype
        worst = max(worst, float(np.abs(ref - got).max()))
    assert worst <= 1e-6, f"worst deviation from the scaled dense reference: {worst}"


def test_weighted_gradients_match_finite_differences(rng):
    from msast.numerics import Parameter
    from tests.oracles import finite_diff_check
    from tests.test_numerics import tensor_sum

    for w, causal, T, alpha in [(1, True, 6, 0.5), (1, False, 6, 1.0), (2, True, 7, 0.25),
                                (5, False, 9, 1.0), (16, True, 70, 0.5), (64, False, 150, 0.25)]:
        q, k, v = (Parameter(rng.normal(size=(T, 4)), name) for name in "qkv")
        mix = Parameter(np.asarray(rng.uniform(0.5, 1.5)), "mix")
        g = as_tensor(rng.normal(size=(T, 4)))
        spec = WindowSpec(window_size=w, causal=causal)

        def loss():
            return tensor_sum(nx.mul(sliding_window_attention(q, k, v, spec, mix, alpha), g))

        err = finite_diff_check(loss, [q, k, v, mix])
        assert err <= 1e-4, f"w={w} causal={causal} T={T} alpha={alpha}: {err}"


def test_non_scalar_weight_rejected(rng):
    q = as_tensor(rng.normal(size=(5, 3)))
    for shape in [(1,), (5, 3)]:
        for w in (1, 2):
            with pytest.raises(ShapeError):
                sliding_window_attention(q, q, q, WindowSpec(window_size=w, causal=True),
                                         as_tensor(np.ones(shape)), 1.0)
