"""The benchmark's own arithmetic, kept free of the pipeline so it can be tested alone.

A span is any object with ``id``, ``parent``, ``start`` and ``end`` attributes
(times in seconds); ``parent`` is another span's id or None.
"""
from __future__ import annotations

import math
from collections import defaultdict

MIN_BEYOND = 10  # samples that must lie beyond a reported percentile


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> dict:
    """Each span's duration minus the part of it that its child spans cover.

    Children may run on other threads and overlap each other; overlapping
    child time is counted once.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - covered_length(children.get(s.id, ()), s.start, s.end)
        for s in spans
    }


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-th percentile; refuses one with < MIN_BEYOND samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} of {n} samples has {n - rank} beyond it; need at least {MIN_BEYOND}"
        )
    return ordered[rank - 1]


def min_samples_for(q: float) -> int:
    """Fewest samples for which ``percentile(values, q)`` is reportable."""
    n = MIN_BEYOND + 1
    while n - max(1, math.ceil(q / 100.0 * n)) < MIN_BEYOND:
        n += 1
    return n


def efficiency(subject_busy_s: float, stage_wall_s: float, threads: int) -> float:
    """Summed per-subject busy time over the stage's wall time times its thread count."""
    if stage_wall_s <= 0 or threads < 1:
        raise ValueError("stage wall time must be positive and threads >= 1")
    return subject_busy_s / (stage_wall_s * threads)


def failed_ratio(failed: int, attempted: int) -> float:
    if attempted < 1 or not (0 <= failed <= attempted):
        raise ValueError(f"need 0 <= failed <= attempted and attempted >= 1, got {failed}/{attempted}")
    return failed / attempted


def train_flops(d: int, h: int, k: int, n_train: int, n_val: int, epochs: int, steps: int) -> int:
    """Floating-point operations of one ``regressor.train`` call, from its dimensions.

    Per training sample and epoch: forward 2DH + 2HK, backward 2HK (hidden
    error) + 2HD (W1 gradient) + 2HK (W2 gradient). Per step: one
    multiply-subtract per parameter. Per epoch: the train and validation loss
    forward passes.
    """
    params = h * d + h + k * h + k
    sgd = epochs * n_train * (4 * d * h + 6 * h * k) + steps * 2 * params
    evals = epochs * (n_train + n_val) * (2 * d * h + 2 * h * k)
    return sgd + evals
