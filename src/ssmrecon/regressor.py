"""Two-layer perceptron mapping flattened mask stacks to shape parameters.

The network is deliberately small: y = W2 @ relu(W1 @ x + b1) + b2 over a
{0,1} input vector. Targets are standardized scores, so mean squared error
and a unit-scale learning rate are well conditioned. Training is plain
seeded mini-batch gradient descent with early stopping on a held-out
validation split.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import sidecar
from .errors import DataError, NumericalError


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


def init_params(n_inputs: int, n_hidden: int, n_outputs: int, seed: int) -> MlpParams:
    """Seeded symmetric-uniform (Glorot) weights, zero biases."""
    rng = np.random.default_rng(seed)
    lim1 = np.sqrt(6.0 / (n_inputs + n_hidden))
    lim2 = np.sqrt(6.0 / (n_hidden + n_outputs))
    return MlpParams(
        rng.uniform(-lim1, lim1, size=(n_hidden, n_inputs)),
        np.zeros(n_hidden),
        rng.uniform(-lim2, lim2, size=(n_outputs, n_hidden)),
        np.zeros(n_outputs),
    )


def _flat_input(x) -> np.ndarray:
    """Accept a MaskStack (anything with .flatten()) or a plain vector."""
    if not isinstance(x, np.ndarray) and hasattr(x, "flatten"):
        x = x.flatten()
    return np.asarray(x, dtype=np.float64).ravel()


def _as_input_matrix(inputs, n_inputs: int) -> np.ndarray:
    """Stack flattened {0,1} inputs into a (B, D) matrix."""
    rows = []
    for x in inputs:
        v = _flat_input(x)
        if v.size != n_inputs:
            raise DataError(f"input has {v.size} values, network expects {n_inputs}")
        rows.append(v)
    return np.stack(rows)


def forward(params: MlpParams, stack) -> np.ndarray:
    """Predicted shape parameters for one mask stack (or flat {0,1} vector)."""
    x = _as_input_matrix([stack], params.n_inputs)[0]
    hidden = np.maximum(params.w1 @ x + params.b1, 0.0)
    return params.w2 @ hidden + params.b2


def _forward_batch(params: MlpParams, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    pre = x @ params.w1.T + params.b1
    hidden = np.maximum(pre, 0.0)
    return hidden, hidden @ params.w2.T + params.b2


def _as_batch(pairs, n_inputs: int) -> tuple[np.ndarray, np.ndarray]:
    """(B, D) inputs and (B, K) targets of non-empty (input, target) pairs."""
    if not pairs:
        raise DataError("batch must be non-empty")
    x = _as_input_matrix([p[0] for p in pairs], n_inputs)
    y = np.stack([np.asarray(p[1], dtype=np.float64).ravel() for p in pairs])
    return x, y


def _mse(params: MlpParams, x: np.ndarray, y: np.ndarray) -> float:
    _, pred = _forward_batch(params, x)
    return float(((pred - y) ** 2).sum(axis=1).mean() / params.n_outputs)


def _backprop(params: MlpParams, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, ...]:
    """Fresh (g_w1, g_b1, g_w2, g_b2) arrays: the gradient of ``_mse``."""
    hidden, pred = _forward_batch(params, x)
    d_pred = 2.0 * (pred - y) / (len(x) * params.n_outputs)
    d_hidden = (d_pred @ params.w2) * (hidden > 0.0)
    return d_hidden.T @ x, d_hidden.sum(axis=0), d_pred.T @ hidden, d_pred.sum(axis=0)


def loss(params: MlpParams, batch) -> float:
    """Mean over the batch of ||prediction - target||^2 / K."""
    return _mse(params, *_as_batch(batch, params.n_inputs))


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


def train(dataset, cfg: TrainConfig, n_hidden: int = 256) -> tuple[MlpParams, TrainingLog]:
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
    best = params
    best_val = np.inf
    since_best = 0
    lr = cfg.learning_rate
    for epoch in range(1, cfg.epochs + 1):
        perm = rng.permutation(len(x_train))
        for start in range(0, len(perm), cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            try:
                with np.errstate(over="ignore", invalid="ignore"):  # divergence is caught here
                    grads = _backprop(params, x_train[idx], y_train[idx])
                    # in place: `p - lr * g` would allocate a W1-sized temporary, as grads still holds g
                    for p, g in zip((params.w1, params.b1, params.w2, params.b2), grads):
                        g *= lr
                        np.subtract(p, g, out=g)
                    params = MlpParams(*grads)
            except DataError as exc:
                raise NumericalError(f"training diverged at epoch {epoch}: {exc}") from exc
        t_loss = _mse(params, x_train, y_train)
        v_loss = _mse(params, x_val, y_val) if n_val else t_loss
        if not np.isfinite(t_loss) or not np.isfinite(v_loss):
            raise NumericalError(f"training diverged at epoch {epoch} (non-finite loss)")
        log.epochs.append(epoch)
        log.train_loss.append(t_loss)
        log.val_loss.append(v_loss)
        if v_loss < best_val:
            best_val = v_loss
            best = params
            log.best_epoch = epoch
            since_best = 0
        else:
            since_best += 1
            if cfg.patience and since_best >= cfg.patience:
                break
    return best, log


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
