"""The benchmark's tracer still fits the pipeline.

``perfbench/tracer.py`` wraps every public function of the traced modules,
calls its counters with the wrapped function's positional arguments
(``load_mesh(result, path)``, ``SurfaceIndex.query(result, self, points)``,
``train(result, dataset, cfg)``, ``save_weights(result, params, path)``,
...) and replaces ``pipeline._parallel_map(fn, items)``. A change of
signature there breaks only traced benchmark runs, so this test makes one:
two batch passes and a reconstruct per test subject on a tiny config, in a
fresh interpreter with the tracer installed.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

TINY_DOC = {
    "synth": {"n": 6, "seed": 5, "volume_range": [900, 1500], "jitter_levels": [2, 3]},
    "ssm": {"components": 4},
    "slicer": {"offsets": [0.35, 0.5, 0.65], "resolution": 32},
    "train": {"epochs": 10, "batch_size": 4, "patience": 0, "seed": 3, "hidden": 8},
    "split": {"train_fraction": 0.6, "seed": 1},
    "evaluate": {"samples": 500, "seed": 2},
}

TRACED_RUN = r"""
import hashlib, json, sys, traceback
from pathlib import Path

root = Path(sys.argv[1])
import layers
import ssmrecon
from ssmrecon import pipeline
from ssmrecon.config import load_config
from tracer import Tracer

tracer = Tracer()
tracer.install(ssmrecon)
cfg = load_config(root / "config.json")
failed = []


def attempt(label, fn, *args, **kwargs):
    try:
        tracer.operation(label, fn, *args, **kwargs)
    except Exception:
        failed.append(f"{label}:\n{traceback.format_exc()}")


def tree():
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file() and p.name != "config.json"
    }


trees = []
for k in range(2):
    for stage in ("synth", "build_ssm", "slice", "train", "evaluate"):
        attempt(stage, getattr(pipeline, f"cmd_{stage}"), cfg)
    with tracer.paused():
        test_ids = pipeline.split_ids(cfg)[1]
    for sid in test_ids:
        attempt(f"request-{k}-{sid}", pipeline.cmd_reconstruct, cfg, subject=sid)
    trees.append(tree())
metrics = layers.layer_metrics(tracer.spans, tracer.counts, tracer.distinct, 2)
print(json.dumps({"failed": failed, "trees": trees, "metrics": metrics, "units": list(layers.UNITS)}))
"""


def test_traced_pipeline_runs_and_repeats_its_bytes(tmp_path):
    (tmp_path / "config.json").write_text(json.dumps(TINY_DOC))
    pythonpath = os.pathsep.join([str(REPO / "src"), str(REPO / "perfbench")])
    env = {**os.environ, "PYTHONPATH": pythonpath, "SSMRECON_THREADS": "2"}
    done = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(tmp_path)], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["failed"] == [], "\n".join(result["failed"])

    first, second = result["trees"]
    assert first == second
    assert any(name.startswith("out/recon/") for name in first)
    assert not [name for name in first if name.endswith(".tmp")]

    metrics = result["metrics"]
    assert set(metrics) == set(result["units"])
    for name in ("spatial.query_points", "register.fit_calls", "mesh.load_calls"):
        assert metrics[name] > 0, name
