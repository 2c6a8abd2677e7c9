import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdbench import (
    InvalidArgumentError,
    ShapeError,
    Workspace,
    backward,
    cross_entropy,
    forward,
    init_mlp,
    make_optimizer,
    optimizer_step,
    softmax_t,
)
from cdbench.nn_core import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_CHUNK,
    ADAM_EPS,
    ForwardCache,
    Layer,
    MlpModel,
    log_softmax_t,
    row_max,
)

from conftest import finite_difference_logits, max_relative_error


def params(model):
    return [(l.weight.copy(), l.bias.copy()) for l in model.layers]


class TestInitMlp:
    def test_same_seed_is_bit_identical(self):
        a = init_mlp(7, [2, 4, 3])
        b = init_mlp(7, [2, 4, 3])
        for (wa, ba), (wb, bb) in zip(params(a), params(b)):
            assert np.array_equal(wa, wb) and np.array_equal(ba, bb)

    def test_biases_start_at_zero(self):
        model = init_mlp(7, [2, 4, 3])
        assert all(np.all(l.bias == 0.0) for l in model.layers)

    def test_fan_in_bound(self):
        model = init_mlp(3, [10, 6, 2])
        for fan_in, layer in zip([10, 6], model.layers):
            assert np.all(np.abs(layer.weight) <= np.sqrt(6.0 / fan_in))

    def test_single_entry_dims_rejected(self):
        with pytest.raises(InvalidArgumentError):
            init_mlp(0, [2])

    def test_nonpositive_dims_rejected(self):
        with pytest.raises(InvalidArgumentError):
            init_mlp(0, [2, 0, 3])


class TestForward:
    def test_identity_network(self):
        model = MlpModel([Layer(np.eye(2), np.zeros(2))])
        logits, _ = forward(model, np.array([[1.0, 2.0]]))
        assert np.array_equal(logits, [[1.0, 2.0]])

    def test_zero_weights_give_zero_logits(self):
        model = MlpModel([Layer(np.zeros((3, 2)), np.zeros(3))])
        logits, _ = forward(model, np.random.default_rng(0).normal(size=(5, 2)))
        assert np.all(logits == 0.0)

    def test_matches_scalar_by_scalar_evaluation(self):
        model = init_mlp(11, [3, 4, 2])
        x = np.random.default_rng(1).normal(size=3)
        logits, _ = forward(model, x[None, :])
        # independent elementwise evaluation of the same network
        h = np.zeros(4)
        w0, b0 = model.layers[0].weight, model.layers[0].bias
        for i in range(4):
            acc = b0[i]
            for j in range(3):
                acc += w0[i, j] * x[j]
            h[i] = max(acc, 0.0)
        out = np.zeros(2)
        w1, b1 = model.layers[1].weight, model.layers[1].bias
        for i in range(2):
            acc = b1[i]
            for j in range(4):
                acc += w1[i, j] * h[j]
            out[i] = acc
        assert np.max(np.abs(logits[0] - out)) < 1e-12

    def test_dimension_mismatch(self):
        model = init_mlp(0, [3, 2])
        with pytest.raises(ShapeError):
            forward(model, np.zeros((1, 4)))


class TestSoftmax:
    def test_uniform_row(self):
        probs = softmax_t(np.array([[0.0, 0.0, 0.0]]), 1.0)
        assert np.allclose(probs, 1.0 / 3.0)

    def test_temperature_scaling_identity(self):
        assert np.allclose(
            softmax_t(np.array([[2.0, 0.0]]), 2.0), softmax_t(np.array([[1.0, 0.0]]), 1.0)
        )

    def test_two_class_value(self):
        probs = softmax_t(np.array([[1.0, 0.0]]), 1.0)
        assert np.allclose(probs, [[0.73106, 0.26894]], atol=1e-4)

    def test_nonpositive_temperature(self):
        with pytest.raises(InvalidArgumentError):
            softmax_t(np.zeros((1, 2)), 0.0)

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(1, 5),
        st.integers(2, 6),
        st.floats(0.1, 20.0),
        st.integers(0, 2**31 - 1),
    )
    def test_rows_sum_to_one_and_shift_invariance(self, rows, cols, temp, seed):
        rng = np.random.default_rng(seed)
        z = rng.normal(0, 5, size=(rows, cols))
        probs = softmax_t(z, temp)
        assert np.all(np.abs(probs.sum(axis=1) - 1.0) <= 1e-9)
        # strictly inside (0, 1) mathematically; saturated rows may round to 1.0
        assert np.all((probs > 0) & (probs <= 1))
        shifted = softmax_t(z + rng.normal(size=(rows, 1)), temp)
        assert np.allclose(probs, shifted, atol=1e-9)
        assert np.allclose(probs, softmax_t(z / temp, 1.0), atol=1e-12)


class TestCrossEntropy:
    def test_uniform_two_class(self):
        loss, _ = cross_entropy(np.array([[0.0, 0.0]]), np.array([0]))
        assert abs(loss - np.log(2)) < 1e-12

    def test_confident_correct_prediction(self):
        loss, _ = cross_entropy(np.array([[1e3, 0.0, 0.0]]), np.array([0]))
        assert loss < 1e-6

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        logits = rng.normal(0, 2, size=(4, 3))
        labels = rng.integers(0, 3, size=4)
        _, analytic = cross_entropy(logits, labels)
        numeric = finite_difference_logits(lambda z: cross_entropy(z, labels)[0], logits)
        assert max_relative_error(analytic, numeric) < 1e-4

    def test_out_of_range_label(self):
        with pytest.raises(InvalidArgumentError):
            cross_entropy(np.zeros((2, 3)), np.array([0, 3]))


class TestBackward:
    def test_zero_dlogits_give_zero_grads(self):
        model = init_mlp(5, [3, 4, 2])
        x = np.random.default_rng(0).normal(size=(6, 3))
        _, cache = forward(model, x)
        grads = model.layer_views(backward(model, cache, np.zeros((6, 2))))
        assert all(np.all(dw == 0) and np.all(db == 0) for dw, db in grads)

    def test_linear_model_closed_form(self):
        model = MlpModel([Layer(np.random.default_rng(1).normal(size=(3, 4)), np.zeros(3))])
        x = np.random.default_rng(2).normal(size=(5, 4))
        _, cache = forward(model, x)
        dlogits = np.random.default_rng(3).normal(size=(5, 3))
        (dw, db), = model.layer_views(backward(model, cache, dlogits))
        assert np.allclose(dw, dlogits.T @ x, atol=1e-12)
        assert np.allclose(db, dlogits.sum(axis=0), atol=1e-12)

    def test_two_layer_finite_differences(self):
        rng = np.random.default_rng(4)
        model = init_mlp(9, [3, 5, 4])
        x = rng.normal(size=(4, 3))
        labels = rng.integers(0, 4, size=4)

        def loss_at(model_):
            logits, _ = forward(model_, x)
            return cross_entropy(logits, labels)[0]

        logits, cache = forward(model, x)
        _, dlogits = cross_entropy(logits, labels)
        grads = model.layer_views(backward(model, cache, dlogits))

        h = 1e-5
        for k, layer in enumerate(model.layers):
            for arr, grad in ((layer.weight, grads[k][0]), (layer.bias, grads[k][1])):
                it = np.nditer(arr, flags=["multi_index"])
                numeric = np.zeros_like(arr)
                for _ in it:
                    idx = it.multi_index
                    old = arr[idx]
                    arr[idx] = old + h
                    up = loss_at(model)
                    arr[idx] = old - h
                    down = loss_at(model)
                    arr[idx] = old
                    numeric[idx] = (up - down) / (2 * h)
                assert max_relative_error(grad, numeric) < 1e-4

    def test_shape_mismatch(self):
        model = init_mlp(5, [3, 4, 2])
        _, cache = forward(model, np.zeros((6, 3)))
        with pytest.raises(ShapeError):
            backward(model, cache, np.zeros((6, 3)))


class TestOptimizer:
    def test_sgd_direct_substitution(self):
        model = MlpModel([Layer(np.array([[1.0]]), np.zeros(1))])
        state = make_optimizer(model, "sgd", 0.1)
        optimizer_step(model, np.array([2.0, 0.0]), state)
        assert np.allclose(model.layers[0].weight, 0.8)

    def test_sgd_zero_gradient_is_noop(self):
        model = init_mlp(2, [3, 2])
        before = params(model)
        state = make_optimizer(model, "sgd", 0.5)
        optimizer_step(model, np.zeros(2 * 3 + 2), state)
        for (wb, bb), layer in zip(before, model.layers):
            assert np.array_equal(wb, layer.weight) and np.array_equal(bb, layer.bias)

    def test_adam_first_step_magnitude(self):
        # First Adam step with constant gradient g moves by ~lr regardless of |g|.
        for g in (1e-3, 1.0, 1e3):
            model = MlpModel([Layer(np.array([[0.0]]), np.zeros(1))])
            state = make_optimizer(model, "adam", 0.01)
            optimizer_step(model, np.array([g, 0.0]), state)
            assert abs(abs(model.layers[0].weight[0, 0]) - 0.01) < 1e-5
        assert state.step == 1

    def test_moments_exist_iff_adam(self):
        model = init_mlp(0, [2, 2])
        assert make_optimizer(model, "sgd", 0.1).moment1 is None
        assert make_optimizer(model, "adam", 0.1).moment1 is not None

    def test_unknown_kind(self):
        with pytest.raises(InvalidArgumentError):
            make_optimizer(init_mlp(0, [2, 2]), "rmsprop", 0.1)

    def test_gradient_shape_mismatch(self):
        model = init_mlp(0, [2, 2])
        state = make_optimizer(model, "sgd", 0.1)
        with pytest.raises(ShapeError):
            optimizer_step(model, np.zeros(3 * 2 + 3), state)


def reference_step(arrays, grads, moments, kind, lr, t):
    """SGD or Adam as a loop over per-layer arrays, each term written out."""
    for k, (p, g) in enumerate(zip(arrays, grads)):
        if kind == "sgd":
            p -= lr * g
            continue
        m1, m2 = moments[k]
        m1 *= ADAM_BETA1
        m1 += (1 - ADAM_BETA1) * g
        m2 *= ADAM_BETA2
        m2 += (1 - ADAM_BETA2) * g**2
        p -= lr * (m1 / (1.0 - ADAM_BETA1**t)) / (np.sqrt(m2 / (1.0 - ADAM_BETA2**t)) + ADAM_EPS)


class TestChunkedAdam:
    @pytest.mark.parametrize("size", [1, ADAM_CHUNK - 1, ADAM_CHUNK, 2 * ADAM_CHUNK + 3])
    def test_matches_the_one_pass_formula_bitwise(self, size):
        rng = np.random.default_rng(size)
        model = MlpModel([Layer(rng.normal(size=(1, size - 1)), rng.normal(size=1))])
        assert model.params.size == size
        state = make_optimizer(model, "adam", 1e-2)
        scratch = state.scratch
        assert scratch.size == min(size, ADAM_CHUNK)
        # The same steps with no scratch vector, so each chunk allocates its temporary.
        twin = model.copy()
        twin_state = make_optimizer(twin, "adam", 1e-2)
        twin_state.scratch = None
        # reference_step on the whole vector as one array is the one-pass formula.
        whole = [model.params.copy()]
        moments = [(np.zeros(size), np.zeros(size))]
        for t in range(1, 5):
            grads = rng.normal(size=size) * 10.0 ** rng.uniform(-4, 2, size=size)
            reference_step(whole, [grads.copy()], moments, "adam", 1e-2, t)
            optimizer_step(twin, grads.copy(), twin_state)
            tracemalloc.start()
            try:
                optimizer_step(model, grads, state)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4096  # no temporary as long as a chunk, let alone the model
            assert model.params.tobytes() == whole[0].tobytes()
            assert twin.params.tobytes() == whole[0].tobytes()
            assert state.moment1.tobytes() == moments[0][0].tobytes()
            assert state.moment2.tobytes() == moments[0][1].tobytes()
        assert state.scratch is scratch and scratch.size <= ADAM_CHUNK


class TestFlatLayout:
    @pytest.mark.parametrize("kind", ["adam", "sgd"])
    def test_step_matches_per_layer_reference_bitwise(self, kind):
        rng = np.random.default_rng(31)
        model = init_mlp(31, [8, 32, 32, 4])
        arrays = [a.copy() for layer in model.layers for a in (layer.weight, layer.bias)]
        moments = [(np.zeros_like(a), np.zeros_like(a)) for a in arrays]
        state = make_optimizer(model, kind, 1e-2)
        # The same steps with no scratch vector, so each allocates its temporary.
        twin = model.copy()
        twin_state = make_optimizer(twin, kind, 1e-2)
        twin_state.scratch = None
        for t in range(1, 51):
            grads = rng.normal(size=model.params.size) * 10.0 ** rng.uniform(-4, 2)
            per_layer = [a for pair in model.layer_views(grads) for a in pair]
            reference_step(arrays, per_layer, moments, kind, 1e-2, t)
            # A step overwrites the gradient it is given, so the twin gets a copy.
            optimizer_step(twin, grads.copy(), twin_state)
            stepped, same_state = optimizer_step(model, grads, state)
            assert stepped is model and same_state is state
            assert np.array_equal(model.params, np.concatenate([a.ravel() for a in arrays]))
            assert twin.params.tobytes() == model.params.tobytes()
        assert state.step == 50

    def test_backward_matches_per_layer_products_bitwise(self):
        rng = np.random.default_rng(32)
        model = init_mlp(32, [8, 32, 32, 4])
        batch = rng.normal(size=(64, 8))
        batch[1] = 0.0  # the biases are 0, so every pre-activation of this row is exactly 0
        _, cache = forward(model, batch)
        dlogits = rng.normal(size=(64, 4))
        grads = model.layer_views(backward(model, cache, dlogits))
        # The reference recomputes each hidden layer's pre-activations
        # z = a @ W.T + b and takes the rectifier's mask from z > 0.
        layer_inputs, pre = [batch], []
        for layer in model.layers[:-1]:
            pre.append(layer_inputs[-1] @ layer.weight.T + layer.bias)
            layer_inputs.append(np.maximum(pre[-1], 0.0))
        assert not any(z[1].any() for z in pre)
        delta = dlogits
        for k in range(len(model.layers) - 1, -1, -1):
            assert np.array_equal(grads[k][0], delta.T @ layer_inputs[k])
            assert np.array_equal(grads[k][1], delta.sum(0))
            if k > 0:
                delta = (delta @ model.layers[k].weight) * (pre[k - 1] > 0)

        # Rows of pre-activations that are exactly 0, -0.0 and NaN pass no
        # gradient. No forward pass yields -0.0 (its sums round to +0.0), so
        # this cache is built by hand, with forward's rectifier.
        shallow = init_mlp(38, [8, 32, 4])
        z = rng.normal(size=(6, 32))
        z[0], z[1], z[2] = 0.0, -0.0, np.nan
        assert np.signbit(z[1]).all()
        inputs, dlogits = rng.normal(size=(6, 8)), rng.normal(size=(6, 4))
        cache = ForwardCache(inputs, [np.maximum(z, 0.0)])
        (dw0, db0), _ = shallow.layer_views(backward(shallow, cache, dlogits))
        delta = (dlogits @ shallow.layers[1].weight) * (z > 0)
        assert not delta[:3].any()
        assert dw0.tobytes() == (delta.T @ inputs).tobytes()
        assert db0.tobytes() == delta.sum(0).tobytes()

        # One workspace through a full batch, a shorter one, a doubled one
        # (which grows it) and a full one again: every byte as allocated.
        ws, previous = Workspace(model), None
        for n in (64, 23, 128, 64):
            batch, dlogits = rng.normal(size=(n, 8)), rng.normal(size=(n, 4))
            logits, cache = forward(model, batch)
            ws_logits, ws_cache = forward(model, batch, ws=ws)
            assert ws_logits.tobytes() == logits.tobytes()
            for mine, fresh in zip(ws_cache.activations, cache.activations):
                assert mine.tobytes() == fresh.tobytes()
            ws_grads = backward(model, ws_cache, dlogits, ws=ws)
            assert ws_grads is ws.grads
            assert ws_grads.tobytes() == backward(model, cache, dlogits).tobytes()
            # Only the doubled batch outgrows the buffers of the call before.
            assert n == 128 or previous is None or np.shares_memory(ws_logits, previous)
            previous = ws_logits

    def test_workspace_of_another_model_rejected(self):
        ws = Workspace(init_mlp(36, [8, 32, 32, 4]))
        with pytest.raises(ShapeError):
            forward(init_mlp(36, [8, 16, 32, 4]), np.zeros((4, 8)), ws=ws)

    def test_training_steps_reuse_their_buffers(self):
        # Without a workspace and scratch vectors, 20 steps at this width
        # peak near 700 KB above their baseline.
        rng = np.random.default_rng(37)
        model = init_mlp(37, [8, 128, 128, 4])
        state = make_optimizer(model, "adam", 1e-3)
        ws = Workspace(model)
        batches = [(rng.normal(size=(64, 8)), rng.integers(0, 4, 64)) for _ in range(21)]

        def step(batch, labels):
            logits, cache = forward(model, batch, ws=ws)
            _, dlogits = cross_entropy(logits, labels)
            optimizer_step(model, backward(model, cache, dlogits, ws=ws), state)

        step(*batches[0])
        tracemalloc.start()
        try:
            baseline = tracemalloc.get_traced_memory()[0]
            for batch in batches[1:]:
                step(*batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - baseline <= 128 * 1024

    def test_layer_views_write_through(self):
        model = init_mlp(33, [3, 4, 2])
        model.layers[1].weight[1, 2] = 7.5
        model.layers[1].bias[0] = -2.5
        # Layer 0 takes 4 * 3 + 4 entries, then layer 1's weight is row-major.
        assert model.params[16 + 1 * 4 + 2] == 7.5
        assert model.params[16 + 2 * 4] == -2.5
        model.params[0] = 9.0
        assert model.layers[0].weight[0, 0] == 9.0

    def test_copy_shares_no_memory(self):
        model = init_mlp(34, [3, 4, 2])
        twin = model.copy()
        assert np.array_equal(twin.params, model.params)
        originals = [model.params] + [a for l in model.layers for a in (l.weight, l.bias)]
        for mine in [twin.params] + [a for l in twin.layers for a in (l.weight, l.bias)]:
            assert not any(np.shares_memory(mine, other) for other in originals)
        twin.params += 1.0
        assert np.array_equal(model.params, init_mlp(34, [3, 4, 2]).params)

    def test_bias_of_another_length_rejected(self):
        with pytest.raises(ShapeError):
            MlpModel([Layer(np.zeros((3, 2)), np.zeros(4))])

    def test_unpickled_model_keeps_views(self):
        original = init_mlp(35, [3, 4, 2])
        model = pickle.loads(pickle.dumps(original))
        assert model.params.tobytes() == original.params.tobytes()
        for layer in model.layers:
            assert np.shares_memory(layer.weight, model.params)
            assert np.shares_memory(layer.bias, model.params)
        model.layers[0].bias[1] = 4.0
        assert model.params[3 * 4 + 1] == 4.0
        # The last layer's 2 x 4 weight, then its bias, end params: with the
        # weight zeroed, the logits are the bias written there.
        model.params[-10:] = [0.0] * 8 + [5.0, -5.0]
        assert forward(model, np.ones((2, 3)))[0].tolist() == [[5.0, -5.0]] * 2


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(0, 70), st.integers(1, 10), st.booleans())
def test_row_max_softmaxes_match_the_row_reduction_to_the_bit(seed, b, c, special):
    rng = np.random.default_rng(seed)
    z = rng.normal(0, 3, size=(b, c))
    if special and b >= 3 and c >= 2:
        # a +0.0/-0.0 tie at the maximum, a NaN row and an infinite entry
        z[0] = -1.0
        z[0, :2] = [0.0, -0.0]
        z[1, 0] = np.nan
        z[2, -1] = np.inf
    assert np.array_equal(row_max(z), z.max(axis=1, keepdims=True), equal_nan=True)
    with np.errstate(invalid="ignore"):
        shifted = z - z.max(axis=1, keepdims=True)
        expected_log = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        expected = np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)
        assert log_softmax_t(z).tobytes() == expected_log.tobytes()
        assert softmax_t(z).tobytes() == expected.tobytes()


def test_log_softmax_consistency():
    z = np.random.default_rng(5).normal(0, 4, size=(3, 5))
    assert np.allclose(np.exp(log_softmax_t(z, 2.0)), softmax_t(z, 2.0), atol=1e-12)


def test_training_step_determinism():
    losses = []
    finals = []
    for _ in range(2):
        model = init_mlp(13, [4, 8, 3])
        state = make_optimizer(model, "adam", 1e-3)
        rng = np.random.default_rng(42)
        x = rng.normal(size=(16, 4))
        y = rng.integers(0, 3, size=16)
        run = []
        for _ in range(10):
            logits, cache = forward(model, x)
            loss, dlogits = cross_entropy(logits, y)
            run.append(loss)
            optimizer_step(model, backward(model, cache, dlogits), state)
        losses.append(run)
        finals.append(params(model))
    assert losses[0] == losses[1]
    for (wa, ba), (wb, bb) in zip(finals[0], finals[1]):
        assert np.array_equal(wa, wb) and np.array_equal(ba, bb)
