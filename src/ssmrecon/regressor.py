"""Two-layer perceptron mapping flattened mask stacks to shape parameters.

The network is deliberately small: y = W2 @ relu(W1 @ x + b1) + b2 over a
{0,1} input vector. Targets are standardized scores, so mean squared error
and a unit-scale learning rate are well conditioned. Training is plain
seeded mini-batch gradient descent with early stopping on a held-out
validation split.

Training runs in the dual form of the first layer (Hastie, Tibshirani &
Friedman, *ESL* 2nd ed., section 18.3.5, shortcuts when p >> N). The
gradient of W1 for a batch is ``d_hidden.T @ x_batch``, a combination of
training rows, so every step keeps W1 = W1_0 + C @ X_train with C only
H x n_train. The pre-activation of any row x is then
``x @ W1_0.T + (x @ X_train.T) @ C.T + b1``; both products with x are
computed once, and a step updates the batch's columns of C. This is the
same sequence of SGD iterates in exact arithmetic (only the rounding
differs), and no step touches a D-wide array: W1 is built once, from the
best C.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import sidecar
from .errors import DataError, NumericalError
from .threads import parallel_map, thread_count

_W1_BLOCK_ROWS = 16  # rows of the final W1 built per product: 14 MB at 110,592 inputs
_DRAW_PART_MIN = 1 << 20  # fewest initial weights one thread draws: smaller draws stay serial
_DRAW_CHUNK = 1 << 15  # values drawn and scaled per pass: 256 kB, so the scaling reads cache, not memory


def _all_finite(arr: np.ndarray) -> bool:
    """Whether every value of ``arr`` is finite, at the cost of one BLAS dot.

    A NaN or an infinity makes the sum of squares NaN or infinite, so a
    finite sum clears the array. Only a non-finite sum (a bad value, or
    finite values whose squares overflow) needs the element-wise check.
    """
    v = arr.reshape(-1)
    with np.errstate(over="ignore", invalid="ignore"):
        return bool(np.isfinite(v @ v)) or bool(np.isfinite(v).all())


@dataclass(frozen=True)
class MlpParams:
    """Weights and biases; dimensions (D inputs, H hidden, K outputs)."""

    w1: np.ndarray  # (H, D)
    b1: np.ndarray  # (H,)
    w2: np.ndarray  # (K, H)
    b2: np.ndarray  # (K,)

    def __post_init__(self):
        w1 = np.asarray(self.w1, dtype=np.float64)
        b1 = np.asarray(self.b1, dtype=np.float64).ravel()
        w2 = np.asarray(self.w2, dtype=np.float64)
        b2 = np.asarray(self.b2, dtype=np.float64).ravel()
        if w1.ndim != 2 or w2.ndim != 2:
            raise DataError("weight matrices must be 2-D")
        if w1.shape[0] != b1.size or w2.shape[0] != b2.size or w2.shape[1] != w1.shape[0]:
            raise DataError(
                f"inconsistent dimensions: W1 {w1.shape}, b1 {b1.shape}, W2 {w2.shape}, b2 {b2.shape}"
            )
        if not all(map(_all_finite, (w1, b1, w2, b2))):
            raise DataError("parameters must be finite")
        object.__setattr__(self, "w1", w1)
        object.__setattr__(self, "b1", b1)
        object.__setattr__(self, "w2", w2)
        object.__setattr__(self, "b2", b2)

    @property
    def n_inputs(self) -> int:
        return self.w1.shape[1]

    @property
    def n_hidden(self) -> int:
        return self.w1.shape[0]

    @property
    def n_outputs(self) -> int:
        return self.w2.shape[0]


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    epochs: int = 300
    batch_size: int = 16
    validation_fraction: float = 0.15
    patience: int = 30
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise DataError("learning rate must be positive")
        if not (0.0 <= self.validation_fraction < 1.0):
            raise DataError("validation fraction must lie in [0, 1)")
        if self.epochs < 1 or self.batch_size < 1:
            raise DataError("epochs and batch size must be >= 1")


def _draw_uniform(bits: np.random.PCG64, out: np.ndarray, low: float, high: float) -> None:
    """Fill the flat ``out`` as ``Generator(bits).uniform(low, high, out.size)`` would, advancing ``bits`` as far.

    The values are drawn in parts of at least ``_DRAW_PART_MIN``, one per
    thread, up to `thread_count` threads. Each part reads a copy of ``bits``
    advanced to the part's first value, and `uniform` takes one 64-bit draw
    per value, so the result is bit for bit one `uniform` call at any thread
    count. A part is filled a cache-sized chunk at a time: `random`, then
    ``*= high - low`` and ``+= low``, the two roundings `uniform` makes.
    """
    n_parts = max(1, min(thread_count(), out.size // _DRAW_PART_MIN))
    bounds = [out.size * k // n_parts for k in range(n_parts + 1)]
    state = bits.state

    def fill(k: int) -> None:
        part_bits = np.random.PCG64()
        part_bits.state = state
        part_bits.advance(bounds[k])
        gen = np.random.Generator(part_bits)
        for start in range(bounds[k], bounds[k + 1], _DRAW_CHUNK):
            chunk = out[start : min(start + _DRAW_CHUNK, bounds[k + 1])]
            gen.random(out=chunk)
            chunk *= high - low
            chunk += low

    parallel_map(fill, range(n_parts))
    bits.advance(out.size)


def init_params(n_inputs: int, n_hidden: int, n_outputs: int, seed: int) -> MlpParams:
    """Seeded symmetric-uniform (Glorot) weights, zero biases.

    The values are those of ``default_rng(seed)`` drawing W1 and then W2 with
    `uniform`; W1 is drawn on threads by `_draw_uniform`.
    """
    bits = np.random.PCG64(seed)  # default_rng(seed) is Generator(PCG64(seed))
    lim1 = np.sqrt(6.0 / (n_inputs + n_hidden))
    lim2 = np.sqrt(6.0 / (n_hidden + n_outputs))
    w1 = np.empty((n_hidden, n_inputs))
    _draw_uniform(bits, w1.reshape(-1), -lim1, lim1)
    return MlpParams(
        w1,
        np.zeros(n_hidden),
        np.random.Generator(bits).uniform(-lim2, lim2, size=(n_outputs, n_hidden)),
        np.zeros(n_outputs),
    )


def _flat_input(x) -> np.ndarray:
    """Accept a MaskStack (anything with .flatten()) or a plain vector."""
    if not isinstance(x, np.ndarray) and hasattr(x, "flatten"):
        x = x.flatten()
    return np.asarray(x, dtype=np.float64).ravel()


def _checked_input(x, n_inputs: int) -> np.ndarray:
    """``_flat_input(x)``, which must hold ``n_inputs`` values."""
    v = _flat_input(x)
    if v.size != n_inputs:
        raise DataError(f"input has {v.size} values, network expects {n_inputs}")
    return v


def _as_input_matrix(inputs, n_inputs: int) -> np.ndarray:
    """Stack flattened {0,1} inputs into a (B, D) matrix."""
    return np.stack([_checked_input(x, n_inputs) for x in inputs])


def forward(params: MlpParams, stack) -> np.ndarray:
    """Predicted shape parameters for one mask stack (or flat {0,1} vector)."""
    x = _checked_input(stack, params.n_inputs)
    hidden = np.maximum(params.w1 @ x + params.b1, 0.0)
    return params.w2 @ hidden + params.b2


def _head(pre: np.ndarray, w2: np.ndarray, b2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hidden activations and predictions from first-layer pre-activations."""
    hidden = np.maximum(pre, 0.0)
    return hidden, hidden @ w2.T + b2


def _forward_batch(params: MlpParams, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return _head(x @ params.w1.T + params.b1, params.w2, params.b2)


def _as_batch(pairs, n_inputs: int) -> tuple[np.ndarray, np.ndarray]:
    """(B, D) inputs and (B, K) targets of non-empty (input, target) pairs."""
    if not pairs:
        raise DataError("batch must be non-empty")
    x = _as_input_matrix([p[0] for p in pairs], n_inputs)
    y = np.stack([np.asarray(p[1], dtype=np.float64).ravel() for p in pairs])
    return x, y


def _mse(pred: np.ndarray, y: np.ndarray) -> float:
    return float(((pred - y) ** 2).sum(axis=1).mean() / pred.shape[1])


def _backprop_from_pre(pre: np.ndarray, y: np.ndarray, w2: np.ndarray, b2: np.ndarray) -> tuple[np.ndarray, ...]:
    """(d_hidden, g_b1, g_w2, g_b2) of ``_mse`` at first-layer pre-activations ``pre``.

    d_hidden is the gradient with respect to ``pre``, so the W1 gradient of
    inputs ``x`` is ``d_hidden.T @ x``.
    """
    hidden, pred = _head(pre, w2, b2)
    d_pred = 2.0 * (pred - y) / (len(pre) * len(b2))
    d_hidden = (d_pred @ w2) * (hidden > 0.0)
    return d_hidden, d_hidden.sum(axis=0), d_pred.T @ hidden, d_pred.sum(axis=0)


def _backprop(params: MlpParams, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, ...]:
    """Fresh (g_w1, g_b1, g_w2, g_b2) arrays: the gradient of ``_mse``."""
    d_hidden, g_b1, g_w2, g_b2 = _backprop_from_pre(x @ params.w1.T + params.b1, y, params.w2, params.b2)
    return d_hidden.T @ x, g_b1, g_w2, g_b2


def loss(params: MlpParams, batch) -> float:
    """Mean over the batch of ||prediction - target||^2 / K."""
    x, y = _as_batch(batch, params.n_inputs)
    return _mse(_forward_batch(params, x)[1], y)


def gradient(params: MlpParams, batch) -> MlpParams:
    """Exact analytic gradient of ``loss`` with respect to every parameter."""
    return MlpParams(*_backprop(params, *_as_batch(batch, params.n_inputs)))


@dataclass
class TrainingLog:
    """Per-epoch train/validation losses; epoch numbers start at 1."""

    epochs: list
    train_loss: list
    val_loss: list
    best_epoch: int
    n_train: int = 0
    n_val: int = 0

    def rows(self):
        return zip(self.epochs, self.train_loss, self.val_loss)


def train(dataset, cfg: TrainConfig, n_hidden: int) -> tuple[MlpParams, TrainingLog]:
    """Fit the network on (input, target) pairs.

    Deterministic for a fixed config seed (initialisation, split and epoch
    shuffling all derive from it). Returns the parameters that achieved the
    best validation loss, plus the per-epoch log. With no validation split
    the best training loss decides instead.
    """
    if len(dataset) < 2:
        raise DataError("need at least 2 training samples")
    x_all, y_all = _as_batch(dataset, _flat_input(dataset[0][0]).size)
    n, k = y_all.shape

    rng = np.random.default_rng(cfg.seed)
    params = init_params(x_all.shape[1], n_hidden, k, seed=int(rng.integers(2**31 - 1)))

    n_val = int(round(n * cfg.validation_fraction))
    if cfg.validation_fraction > 0 and n_val == 0:
        n_val = 1
    if n - n_val < 1:
        raise DataError("validation split leaves no training samples")
    order = rng.permutation(n)
    val_idx, train_idx = order[:n_val], order[n_val:]
    x_train, y_train = x_all[train_idx], y_all[train_idx]
    x_val, y_val = x_all[val_idx], y_all[val_idx]

    log = TrainingLog([], [], [], best_epoch=0, n_train=len(train_idx), n_val=n_val)
    # dual form (see the module docstring): W1 = w1_0 + c @ x_train
    w1_0 = params.w1
    p0_train, p0_val = x_train @ w1_0.T, x_val @ w1_0.T
    gram_train, gram_val = x_train @ x_train.T, x_val @ x_train.T
    c = np.zeros((n_hidden, len(x_train)))
    b1, w2, b2 = (np.array(a) for a in (params.b1, params.w2, params.b2))

    def pre_activation(p0: np.ndarray, gram: np.ndarray) -> np.ndarray:
        """x @ W1.T + b1 of the rows whose x @ w1_0.T is p0 and x @ x_train.T is gram."""
        return p0 + gram @ c.T + b1

    def mse(p0: np.ndarray, gram: np.ndarray, y: np.ndarray) -> float:
        return _mse(_head(pre_activation(p0, gram), w2, b2)[1], y)

    best = None
    best_val = np.inf
    since_best = 0
    lr = cfg.learning_rate
    for epoch in range(1, cfg.epochs + 1):
        perm = rng.permutation(len(x_train))
        for start in range(0, len(perm), cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            with np.errstate(over="ignore", invalid="ignore"):  # divergence is caught here
                pre = pre_activation(p0_train[idx], gram_train[idx])
                d_hidden, g_b1, g_w2, g_b2 = _backprop_from_pre(pre, y_train[idx], w2, b2)
                c[:, idx] -= lr * d_hidden.T  # perm holds each row once, so idx has no repeats
                b1 -= lr * g_b1
                w2 -= lr * g_w2
                b2 -= lr * g_b2
            if not all(map(_all_finite, (c, b1, w2, b2))):
                raise NumericalError(f"training diverged at epoch {epoch}: parameters must be finite")
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite loss is caught below
            t_loss = mse(p0_train, gram_train, y_train)
            v_loss = mse(p0_val, gram_val, y_val) if n_val else t_loss
        if not np.isfinite(t_loss) or not np.isfinite(v_loss):
            raise NumericalError(f"training diverged at epoch {epoch} (non-finite loss)")
        log.epochs.append(epoch)
        log.train_loss.append(t_loss)
        log.val_loss.append(v_loss)
        if v_loss < best_val:
            best_val = v_loss
            best = tuple(a.copy() for a in (c, b1, w2, b2))
            log.best_epoch = epoch
            since_best = 0
        else:
            since_best += 1
            if cfg.patience and since_best >= cfg.patience:
                break
    c, b1, w2, b2 = best
    # W1 = w1_0 + c @ x_train, added into w1_0 (owned here) a block of rows at
    # a time, so no second D-wide (H, D) array is ever held
    for rows in range(0, n_hidden, _W1_BLOCK_ROWS):
        w1_0[rows : rows + _W1_BLOCK_ROWS] += c[rows : rows + _W1_BLOCK_ROWS] @ x_train
    return MlpParams(w1_0, b1, w2, b2), log


# ---------------------------------------------------------------------------
# Persistence, same manifest + binary sidecar scheme as shape spaces
# (<stem>.mlp.json / <stem>.mlp.bin; payload order W1, b1, W2, b2 row-major).


def save_weights(params: MlpParams, path) -> tuple[Path, Path]:
    header = {"n_inputs": params.n_inputs, "n_hidden": params.n_hidden, "n_outputs": params.n_outputs}
    arrays = [(name, getattr(params, name)) for name in ("w1", "b1", "w2", "b2")]
    return sidecar.save(path, "mlp", header, arrays)


def _weight_shapes(manifest: dict) -> dict:
    d, h, k = int(manifest["n_inputs"]), int(manifest["n_hidden"]), int(manifest["n_outputs"])
    return {"w1": (h, d), "b1": (h,), "w2": (k, h), "b2": (k,)}


def load_weights(path) -> MlpParams:
    """Weights as read-only views of the memory-mapped sidecar."""
    _, arrays = sidecar.load(path, "mlp", "weights", _weight_shapes)
    return MlpParams(**arrays)
