#!/usr/bin/env python3
"""Sweep the pipeline knobs and tabulate volume RMSE per variant.

Covers mask resolution, number of slices, retained components and
population size, each varied against the benchmark's acceptance-60
configuration (``ACCEPTANCE`` in perfbench/workloads.py).

    python scripts/run_ablations.py --workdir runs/ablations
"""
import argparse
import json
import sys
import time
from pathlib import Path

from ssmrecon import pipeline
from ssmrecon.config import load_config

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))  # the repository root
from perfbench.workloads import ACCEPTANCE  # noqa: E402

VARIANTS = [
    ("resolution=192 (base)", {}),
    ("resolution=384", {"slicer": {"resolution": 384}}),
    ("slices=2", {"slicer": {"offsets": [0.40, 0.60]}}),
    ("components=10", {"ssm": {"components": 10}}),
    ("components=50", {"ssm": {"components": 50}}),
    ("subjects=40", {"synth": {"n": 40}}),
]


def run_variant(root: Path, overrides: dict) -> dict:
    doc = json.loads(json.dumps(ACCEPTANCE))
    for section, payload in overrides.items():
        doc.setdefault(section, {}).update(payload)
    root.mkdir(parents=True, exist_ok=True)
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(doc))
    cfg = load_config(cfg_path)
    pipeline.cmd_synth(cfg)
    pipeline.cmd_build_ssm(cfg)
    pipeline.cmd_slice(cfg)
    pipeline.cmd_train(cfg)
    json_path, _ = pipeline.cmd_evaluate(cfg)
    return json.loads(json_path.read_text())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", type=Path, default=Path("runs/ablations"))
    args = parser.parse_args()

    print(f"{'variant':<24} {'RMSE':>8} {'baseline':>9} {'time':>7}")
    for i, (label, overrides) in enumerate(VARIANTS):
        t0 = time.time()
        report = run_variant(args.workdir / f"v{i:02d}", overrides)
        agg = report["aggregate"]
        print(
            f"{label:<24} {agg['rmse_cm3']:>8.2f} {agg['rmse_baseline_cm3']:>9.2f} "
            f"{time.time() - t0:>6.0f}s",
            flush=True,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
