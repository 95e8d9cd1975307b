import dataclasses
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import _forward_batch, gradient, init_params_by_uniform, loss, primal_sgd_train
from ssmrecon import regressor, threads
from ssmrecon.errors import DataError, NumericalError
from ssmrecon.regressor import (
    MlpParams,
    TrainConfig,
    _backprop_from_pre,
    forward,
    init_params,
    load_weights,
    save_weights,
    train,
)
from ssmrecon.slicer import MaskStack


def toy_batch(seed, n, d=12, k=3):
    rng = np.random.default_rng(seed)
    return [
        (rng.integers(0, 2, size=d).astype(float), rng.normal(size=k)) for _ in range(n)
    ]


def params_with(w1, b1, w2, b2):
    return MlpParams(np.asarray(w1, float), np.asarray(b1, float), np.asarray(w2, float), np.asarray(b2, float))


# ---------------------------------------------------------------------------
# forward


def test_zero_weights_pass_output_bias():
    p = params_with(np.zeros((4, 6)), np.zeros(4), np.zeros((2, 4)), [1.5, -0.5])
    out = forward(p, np.ones(6))
    assert np.array_equal(out, [1.5, -0.5])


def test_hand_computed_single_hidden_unit():
    # x = (1, 0); z = 2*1 + (-1)*0 + 0.5 = 2.5; relu -> 2.5; y = 3*2.5 - 1 = 6.5
    p = params_with([[2.0, -1.0]], [0.5], [[3.0]], [-1.0])
    out = forward(p, np.array([1.0, 0.0]))
    assert out[0] == pytest.approx(6.5, abs=1e-12)
    # negative preactivation clamps to zero: x = (0, 1) -> z = -0.5 -> y = -1
    assert forward(p, np.array([0.0, 1.0]))[0] == pytest.approx(-1.0, abs=1e-12)


def test_all_off_input_with_zero_hidden_bias():
    p = init_params(8, 5, 3, seed=0)
    p = params_with(p.w1, np.zeros(5), p.w2, [0.3, 0.2, 0.1])
    assert np.allclose(forward(p, np.zeros(8)), [0.3, 0.2, 0.1])


def test_forward_of_a_stack_is_its_batch_row():
    """One stack goes through the gemv without a restack; the batch route gives the same bits."""
    rng = np.random.default_rng(4)
    masks = tuple((rng.random((16, 16)) < 0.4).astype(np.uint8) for _ in range(3))
    stack = MaskStack(masks)
    p = init_params(3 * 16 * 16, 8, 3, seed=5)
    p = params_with(p.w1, rng.normal(size=8), p.w2, rng.normal(size=3))
    assert forward(p, stack).tobytes() == _forward_batch(p, stack.flatten()[None])[1][0].tobytes()
    small = MaskStack(masks[:2])
    with pytest.raises(DataError, match=r"^input has 512 values, network expects 768$"):
        forward(p, small)


def test_dimension_mismatch_rejected():
    p = init_params(8, 4, 2, seed=0)
    with pytest.raises(DataError, match="expects"):
        forward(p, np.zeros(9))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["w1", "b1", "w2", "b2"])
def test_non_finite_parameter_rejected(name, bad):
    p = init_params(1000, 40, 2, seed=0)  # W1 large enough for the BLAS dot to split across threads
    size = getattr(p, name).size
    for pos in (0, size // 2, size - 1):
        arrays = {f.name: np.array(getattr(p, f.name)) for f in dataclasses.fields(p)}
        arrays[name].flat[pos] = bad
        with pytest.raises(DataError, match="finite"):
            MlpParams(**arrays)


def test_finite_parameters_with_overflowing_squares_accepted():
    # the squares of 1e200 overflow, so only the element-wise check can clear these
    p = params_with(np.full((3, 5), 1e200), [-1e300, 0.0, 1.0], np.full((2, 3), -1e200), [1e300, 1e-300])
    assert p.w1[0, 0] == 1e200 and p.b2[0] == 1e300


# ---------------------------------------------------------------------------
# loss


def test_loss_zero_on_exact_fit():
    p = params_with(np.zeros((2, 3)), np.zeros(2), np.zeros((2, 2)), [1.0, 2.0])
    batch = [(np.zeros(3), np.array([1.0, 2.0]))]
    assert loss(p, batch) == 0.0


def test_loss_hand_value():
    # prediction is b2, target offset by (3, 4): ||(3,4)||^2 / 2 = 12.5
    p = params_with(np.zeros((2, 3)), np.zeros(2), np.zeros((2, 2)), [3.0, 4.0])
    batch = [(np.zeros(3), np.array([0.0, 0.0]))]
    assert loss(p, batch) == pytest.approx(12.5, abs=1e-12)


@given(seed=st.integers(0, 5000))
@settings(max_examples=30, deadline=None)
def test_loss_nonnegative(seed):
    rng = np.random.default_rng(seed)
    p = init_params(6, 4, 2, seed=seed)
    batch = [(rng.integers(0, 2, 6).astype(float), rng.normal(size=2)) for _ in range(3)]
    assert loss(p, batch) >= 0.0


# ---------------------------------------------------------------------------
# gradient


def test_gradient_zero_at_zero_loss():
    p = params_with(np.zeros((2, 3)), np.zeros(2), np.zeros((2, 2)), [1.0, -1.0])
    batch = [(np.ones(3), np.array([1.0, -1.0]))]
    g = gradient(p, batch)
    for name in ("w1", "b1", "w2", "b2"):
        assert np.all(getattr(g, name) == 0.0)


def finite_difference(params, batch, name, index, h=1e-5):
    def loss_at(value):
        arrays = {n: getattr(params, n).copy() for n in ("w1", "b1", "w2", "b2")}
        arrays[name][index] = value
        return loss(MlpParams(**arrays), batch)

    x0 = getattr(params, name)[index]
    return (loss_at(x0 + h) - loss_at(x0 - h)) / (2 * h)


@pytest.mark.parametrize("trial", range(5))
def test_gradient_matches_finite_differences(trial):
    rng = np.random.default_rng(200 + trial)
    d, h, k = 10, 4, 3
    params = init_params(d, h, k, seed=trial)
    batch = [(rng.integers(0, 2, d).astype(float), rng.normal(size=k)) for _ in range(4)]
    g = gradient(params, batch)
    worst = 0.0
    for name in ("w1", "b1", "w2", "b2"):
        arr = getattr(params, name)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            fd = finite_difference(params, batch, name, idx)
            an = getattr(g, name)[idx]
            denom = max(abs(fd), abs(an), 1e-8)
            worst = max(worst, abs(fd - an) / denom)
    assert worst < 1e-5


def test_gradient_mean_convention():
    params = init_params(6, 3, 2, seed=9)
    batch = toy_batch(31, 2, d=6, k=2)
    g_both = gradient(params, batch)
    g0 = gradient(params, [batch[0]])
    g1 = gradient(params, [batch[1]])
    for name in ("w1", "b1", "w2", "b2"):
        combined = 0.5 * (getattr(g0, name) + getattr(g1, name))
        assert np.allclose(getattr(g_both, name), combined, atol=1e-12)


def test_full_batch_gradient_permutation_invariant():
    params = init_params(6, 3, 2, seed=10)
    batch = toy_batch(32, 5, d=6, k=2)
    g1 = gradient(params, batch)
    g2 = gradient(params, batch[::-1])
    for name in ("w1", "b1", "w2", "b2"):
        assert np.allclose(getattr(g1, name), getattr(g2, name), atol=1e-12)


@pytest.mark.parametrize("trial", range(3))
def test_dual_step_w1_gradient_matches_backprop(trial):
    # the training step's route: pre-activations from W1_0 and the Gram of the training rows
    rng = np.random.default_rng(300 + trial)
    d, h, k, n = 30, 6, 3, 9
    x_train = rng.integers(0, 2, size=(n, d)).astype(float)
    base = init_params(d, h, k, seed=trial)
    c = rng.normal(scale=0.1, size=(h, n))
    b1 = rng.normal(scale=0.1, size=h)
    params = MlpParams(base.w1 + c @ x_train, b1, base.w2, base.b2)
    idx = rng.permutation(n)[:4]
    batch = [(x_train[i], rng.normal(size=k)) for i in idx]
    y = np.stack([t for _, t in batch])
    pre = x_train[idx] @ base.w1.T + (x_train[idx] @ x_train.T) @ c.T + b1
    d_hidden, g_b1, g_w2, g_b2 = _backprop_from_pre(pre, y, base.w2, base.b2)
    g = gradient(params, batch)
    for dual, primal in ((d_hidden.T @ x_train[idx], g.w1), (g_b1, g.b1), (g_w2, g.w2), (g_b2, g.b2)):
        assert np.abs(primal).max() > 0
        assert np.abs(dual - primal).max() <= 1e-12 * np.abs(primal).max()


# ---------------------------------------------------------------------------
# train


@pytest.mark.parametrize(
    "seed, n, batch_size, validation_fraction, patience, epochs",
    [
        (21, 12, 3, 0.25, 3, 80),  # early stopping ends the run
        (22, 10, 5, 0.0, 0, 30),  # no validation split: the train loss decides
        (23, 13, 4, 0.2, 0, 60),  # 10 train rows: the last batch of each epoch has 2
    ],
)
def test_train_matches_primal_oracle(seed, n, batch_size, validation_fraction, patience, epochs, monkeypatch):
    monkeypatch.setattr(regressor, "_W1_BLOCK_ROWS", 3)  # the final W1 of 8 rows is built as 3 + 3 + 2
    data = toy_batch(seed, n, d=24, k=3)
    cfg = TrainConfig(
        learning_rate=0.05,
        epochs=epochs,
        batch_size=batch_size,
        validation_fraction=validation_fraction,
        patience=patience,
        seed=seed,
    )
    dual, log = train(data, dataclasses.replace(cfg, hidden=8))
    primal, ref = primal_sgd_train(data, dataclasses.replace(cfg, hidden=8))
    assert log.best_epoch == ref.best_epoch
    assert len(log.epochs) == len(ref.epochs)
    assert (log.n_train, log.n_val) == (ref.n_train, ref.n_val)
    if patience:
        assert len(log.epochs) < epochs
    for got, want in ((log.train_loss, ref.train_loss), (log.val_loss, ref.val_loss)):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
    for name in ("w1", "b1", "w2", "b2"):
        got, want = getattr(dual, name), getattr(primal, name)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_memorizes_toy_set():
    data = toy_batch(5, 8, d=40, k=4)
    cfg = TrainConfig(learning_rate=0.05, epochs=500, batch_size=4, validation_fraction=0.0, patience=0, seed=1)
    params, log = train(data, dataclasses.replace(cfg, hidden=32))
    assert log.train_loss[-1] < 1e-3


def test_training_deterministic():
    data = toy_batch(6, 8, d=20, k=3)
    cfg = TrainConfig(learning_rate=0.01, epochs=40, batch_size=4, validation_fraction=0.25, patience=10, seed=2)
    p1, log1 = train(data, dataclasses.replace(cfg, hidden=8))
    p2, log2 = train(data, dataclasses.replace(cfg, hidden=8))
    for name in ("w1", "b1", "w2", "b2"):
        assert np.array_equal(getattr(p1, name), getattr(p2, name))
    assert log1.train_loss == log2.train_loss


def test_validation_split_counts():
    data = toy_batch(7, 8, d=10, k=2)
    cfg = TrainConfig(epochs=1, batch_size=4, validation_fraction=0.25, seed=3)
    _, log = train(data, dataclasses.replace(cfg, hidden=4))
    # 8 samples at fraction 0.25: 6 train / 2 validation
    assert (log.n_train, log.n_val) == (6, 2)
    assert len(log.train_loss) == 1


def test_training_loss_improves_over_initialization():
    data = toy_batch(8, 12, d=16, k=3)
    cfg = TrainConfig(learning_rate=0.02, epochs=60, batch_size=4, validation_fraction=0.25, patience=0, seed=4)
    params, log = train(data, dataclasses.replace(cfg, hidden=8))
    assert log.train_loss[-1] < log.train_loss[0]
    best = loss(params, data)
    first = log.train_loss[0]
    assert best < first


def test_divergence_reported_with_epoch():
    data = toy_batch(9, 6, d=8, k=2)
    cfg = TrainConfig(learning_rate=1e18, epochs=10, batch_size=2, validation_fraction=0.0, patience=0, seed=5)
    with pytest.raises(NumericalError, match="epoch"):
        train(data, dataclasses.replace(cfg, hidden=4))


def test_divergence_at_epoch_loss_raises_without_warning():
    """The per-epoch loss overflows in the same errstate as the steps: the error alone reports it."""
    rng = np.random.default_rng(0)
    data = [(rng.integers(0, 2, size=(3, 8, 8)).astype(np.uint8), rng.normal(size=4)) for _ in range(12)]
    cfg = TrainConfig(learning_rate=30.0, epochs=50, batch_size=4, patience=0, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=r"diverged at epoch 45 \(non-finite loss\)"):
            train(data, dataclasses.replace(cfg, hidden=8))


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("learning_rate, seed", [(1e18, 5), (1e18, 6), (1e6, 5)])
def test_divergence_matches_primal_oracle(learning_rate, seed):
    # (1e18, 5) diverges inside an epoch's steps, the others at an epoch's loss
    data = toy_batch(9, 6, d=8, k=2)
    cfg = TrainConfig(
        learning_rate=learning_rate, epochs=10, batch_size=2, validation_fraction=0.0, patience=0, seed=seed
    )
    with pytest.raises(NumericalError) as want:
        primal_sgd_train(data, dataclasses.replace(cfg, hidden=4))
    with pytest.raises(NumericalError) as got:
        train(data, dataclasses.replace(cfg, hidden=4))
    assert str(got.value) == str(want.value)


def test_best_epoch_snapshot_survives_later_steps():
    data = toy_batch(12, 12, d=16, k=3)
    cfg = TrainConfig(learning_rate=0.02, epochs=60, batch_size=4, validation_fraction=0.25, patience=0, seed=6)
    best, log = train(data, dataclasses.replace(cfg, hidden=8))
    assert 1 < log.best_epoch < cfg.epochs
    # stopping at the best epoch replays the same steps; later steps must not touch the snapshot
    again, _ = train(data, dataclasses.replace(cfg, epochs=log.best_epoch, hidden=8))
    for name in ("w1", "b1", "w2", "b2"):
        assert getattr(best, name).tobytes() == getattr(again, name).tobytes()


def test_config_validation():
    with pytest.raises(DataError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(DataError):
        TrainConfig(validation_fraction=1.0)
    with pytest.raises(DataError, match=r"^train\.hidden must be >= 1$"):
        TrainConfig(hidden=0)


# ---------------------------------------------------------------------------
# initial weights


def _assert_params_bit_equal(got: MlpParams, want: MlpParams) -> None:
    for name in ("w1", "b1", "w2", "b2"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


class _CountingPool(ThreadPoolExecutor):
    """A thread pool that records the worker count each draw asks for."""

    workers: list = []

    def __init__(self, max_workers):
        self.workers.append(max_workers)
        super().__init__(max_workers=max_workers)


@pytest.mark.parametrize("cap", ["1", "2", "3"])
@pytest.mark.parametrize(
    "n_inputs, n_hidden, n_outputs, seed, parts_at_3",
    [
        (7, 3, 2, 1, 1),  # 21 values: under two parts' worth, so serial
        (9, 5, 3, 4, 2),  # 45 values: two parts
        (37, 5, 4, 11, 3),  # 185 values: three parts, each with a short last chunk
        (1001, 13, 3, 2**31 - 2, 3),
    ],
)
def test_init_params_bit_equal_to_one_uniform_call(
    monkeypatch, cap, n_inputs, n_hidden, n_outputs, seed, parts_at_3
):
    """Parts of at least 16 values, drawn 5 at a time, give the serial stream at every thread cap."""
    monkeypatch.setattr(regressor, "_DRAW_PART_MIN", 16)
    monkeypatch.setattr(regressor, "_DRAW_CHUNK", 5)
    monkeypatch.setattr(threads, "ThreadPoolExecutor", _CountingPool)
    monkeypatch.setattr(_CountingPool, "workers", [])
    monkeypatch.setenv("SSMRECON_THREADS", cap)
    got = init_params(n_inputs, n_hidden, n_outputs, seed)
    _assert_params_bit_equal(got, init_params_by_uniform(n_inputs, n_hidden, n_outputs, seed))
    parts = min(int(cap), parts_at_3)
    assert _CountingPool.workers == ([parts] if parts > 1 else [])


@pytest.mark.parametrize("cap", ["1", "2", "3"])
@pytest.mark.parametrize("n_inputs", [8191, 16385], ids=["one-part", "two-parts"])
def test_init_params_bit_equal_at_the_part_floor(monkeypatch, cap, n_inputs):
    """128 x 8,191 values, under 2^20, draw serially; 128 x 16,385 make two parts."""
    monkeypatch.setenv("SSMRECON_THREADS", cap)
    _assert_params_bit_equal(init_params(n_inputs, 128, 20, 5), init_params_by_uniform(n_inputs, 128, 20, 5))


# ---------------------------------------------------------------------------
# persistence


def test_weights_round_trip(tmp_path):
    params = init_params(20, 6, 4, seed=8)
    save_weights(params, tmp_path / "net")
    again = load_weights(tmp_path / "net")
    for name in ("w1", "b1", "w2", "b2"):
        assert np.array_equal(getattr(params, name), getattr(again, name))


def test_weights_manifest_mismatch(tmp_path):
    import json

    params = init_params(20, 6, 4, seed=8)
    save_weights(params, tmp_path / "net")
    manifest = tmp_path / "net.mlp.json"
    doc = json.loads(manifest.read_text())
    doc["n_hidden"] = 7
    manifest.write_text(json.dumps(doc))
    with pytest.raises(DataError, match="inconsistent"):
        load_weights(tmp_path / "net")


def test_weights_truncated_payload(tmp_path):
    params = init_params(20, 6, 4, seed=8)
    save_weights(params, tmp_path / "net")
    payload = tmp_path / "net.mlp.bin"
    payload.write_bytes(payload.read_bytes()[:-8])
    with pytest.raises(DataError, match="truncated"):
        load_weights(tmp_path / "net")
