"""Workload configurations and how the seed enters them.

Every workload is a full pipeline config document. ``ACCEPTANCE`` mirrors
``PIPELINE_DOC`` in tests/test_acceptance.py; the others override it.

Each workload has one fixed synthetic population. The benchmark's seed sets
``train.seed`` (weight initialisation, validation split, shuffling) and
``evaluate.seed`` (surface samples), and the order of reconstruct requests.
The population stays fixed because registration cost depends strongly on
the shapes: over five synth seeds, build-ssm of a 20-subject variant took
3.5-8.0 s, as the rigid initialisation of single subjects took from 2 to 60
rounds.
"""
from __future__ import annotations

import copy

import numpy as np

ACCEPTANCE = {
    "paths": {
        "population_dir": "population",
        "ssm": "out/model",
        "weights": "out/weights",
        "masks_dir": "out/masks",
        "output_dir": "out",
    },
    "synth": {
        "n": 60,
        "seed": 2024,
        "volume_range": [800, 1600],
        "jitter_levels": [3, 4],
        "mode_count": 6,
        "amplitude": 0.1,
    },
    "ssm": {"components": 20},
    "slicer": {"offsets": [0.35, 0.5, 0.65], "resolution": 192},
    "train": {
        "learning_rate": 0.001,
        "epochs": 200,
        "batch_size": 16,
        "validation_fraction": 0.15,
        "patience": 30,
        "seed": 0,
        "hidden": 256,
    },
    "split": {"train_fraction": 0.75, "seed": 11},
}

# name -> (config overrides, balanced): a balanced workload moves its synth
# seed to the first one with a representative tessellation mix.
WORKLOADS = {
    # The acceptance config (levels 3-4, 192-px masks) on 8 subjects, with
    # 128 hidden units (108 MB of weights) trained for a fixed 15 epochs.
    "acceptance-8": ({"synth": {"n": 8}, "train": {"epochs": 15, "patience": 0, "hidden": 128}}, True),
    # Fine meshes, small masks and a small network: mesh work dominates.
    "fine-mesh": (
        {
            "synth": {"n": 6, "jitter_levels": [4, 5]},
            "slicer": {"resolution": 64},
            "train": {"hidden": 32, "patience": 0},
            "ssm": {"components": 10},
        },
        True,
    ),
    # The acceptance suite's own config; too long for a timed run, kept to
    # reproduce the suite's numbers (seed 0: RMSE 105.064 / 213.011 cm^3).
    "acceptance-60": ({}, False),
}


def subject_level_index(synth_seed: int, index: int, n_levels: int) -> int:
    """Which of the jitter levels synth draws for subject ``index`` (its first draw)."""
    return int(np.random.default_rng(synth_seed + index).integers(n_levels))


def reference_index(n: int, train_fraction: float, split_seed: int) -> int:
    """Population index of the registration template: the first training id."""
    order = np.random.default_rng(split_seed).permutation(n)
    n_train = min(max(int(round(train_fraction * n)), 2), n - 1)
    return int(order[:n_train].min())


def balanced_synth_seed(doc: dict) -> int:
    """First synth seed from the configured one whose template has the lowest
    level and whose population has exactly half its subjects at the highest.

    The template is a 642- or a 2,562-vertex mesh (2,562 or 10,242 on
    fine-mesh) depending on the draw, and every fit costs about four times
    more with the larger one.
    """
    n = doc["synth"]["n"]
    n_levels = len(doc["synth"]["jitter_levels"])
    ref = reference_index(n, doc["split"]["train_fraction"], doc["split"]["seed"])
    s = doc["synth"]["seed"]
    while True:
        levels = [subject_level_index(s, i, n_levels) for i in range(n)]
        if levels[ref] == 0 and levels.count(n_levels - 1) == n // 2:
            return s
        s += 1


def config(name: str, seed: int) -> tuple[dict, bool]:
    """The workload's config document for ``seed``, and whether it is balanced."""
    overrides, balanced = WORKLOADS[name]
    doc = copy.deepcopy(ACCEPTANCE)
    for section, payload in overrides.items():
        doc[section].update(payload)
    if balanced:
        doc["synth"]["seed"] = balanced_synth_seed(doc)
    doc["train"]["seed"] = seed
    doc["evaluate"] = {"seed": seed}
    return doc, balanced
