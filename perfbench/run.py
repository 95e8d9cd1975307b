"""Benchmark of the ssmrecon pipeline and its reconstruct path.

Run from the repository root:

    python3 perfbench/run.py --workload acceptance-8 --seed 0 --seconds 5 --trace 0

One run sets up, then runs the five pipeline stages (synth, build-ssm,
slice, train, evaluate) as one batch job three times, each time followed by
a third of the ``cmd_reconstruct`` requests for the test split: a closed
loop with one client, for at least ``--seconds`` seconds of request time and
at least 100 requests. Every stage and request is checked. The last line of stdout is one JSON object: end-to-end metrics
with ``--trace 0``; per-layer metrics of a traced run with ``--trace 1``.
See perfbench/README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import arith
import layers
import workloads
from tracer import Tracer

STAGES = ("synth", "build_ssm", "slice", "train", "evaluate")
SETUP_REPEATS = 3
PASSES = 3  # stage times are medians over this many identical batch jobs
SETUP_SNIPPET = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "import ssmrecon.cli, ssmrecon.pipeline; "
    "from ssmrecon.config import load_config; load_config(sys.argv[2])"
)
END_TO_END_UNITS = {
    "setup_s": "s",
    "pipeline_s": "s",
    **{f"{stage}_s": "s" for stage in STAGES},
    "peak_rss_mb": "MB",
    "rmse_cm3": "cm3",
    "rmse_baseline_cm3": "cm3",
    "reconstruct_p50_ms": "ms",
    "reconstruct_p90_ms": "ms",
    "reconstruct_per_s": "1/s",
    "failed_ratio": "ratio",
}
# Printed in the report but not in the JSON line that BENCHMARK.json bounds:
# failed_ratio is 0 on a healthy run (the JSON carries attempted and failed);
# the RMSEs move with the training seed, and the digests guard the arithmetic;
# synth and slice take 0.6-2.5 s and drifted by up to a fifth (quartile
# distance over median) between ten runs on a shared 2-CPU machine, while
# the passes within one run agreed.
UNGATED = ("synth_s", "slice_s", "rmse_cm3", "rmse_baseline_cm3", "failed_ratio")
GATED = tuple(name for name in END_TO_END_UNITS if name not in UNGATED)
TRACED_UNITS = {"traced.pipeline_s": "s", "traced.reconstruct_p50_ms": "ms", **layers.UNITS}


class CheckFailed(Exception):
    pass


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def blas_threads() -> str:
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    import numpy as np

    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            try:
                fn = getattr(ctypes.CDLL(lib), symbol)
            except (OSError, AttributeError):
                continue
            fn.restype = ctypes.c_int
            fn.argtypes = []
            return str(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def stamp() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "SSMRECON_THREADS": os.environ["SSMRECON_THREADS"],
    }


def measure_setup(src: Path, cfg_path: Path) -> float:
    """Median wall time of a fresh interpreter importing the package and loading the config."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_SNIPPET, str(src), str(cfg_path)], check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# Output checks


def obj_vertex_count(path: Path) -> int:
    data = path.read_bytes()
    return data.count(b"\nv ") + data.startswith(b"v ")


def check_population(cfg, doc: dict, balanced: bool) -> None:
    from ssmrecon import synth

    manifest = synth.load_population_manifest(cfg.population_dir)
    n = doc["synth"]["n"]
    check(len(manifest["subjects"]) == n, f"population has {len(manifest['subjects'])} subjects, expected {n}")
    if not balanced:
        return
    # the tessellation mix that workloads.balanced_synth_seed aimed for
    levels = doc["synth"]["jitter_levels"]
    sizes = {10 * 4**level + 2: i for i, level in enumerate(levels)}  # icosphere vertex counts
    drawn = [sizes.get(obj_vertex_count(cfg.population_dir / f"{sid}.obj")) for sid in sorted(manifest["subjects"])]
    ref = workloads.reference_index(n, doc["split"]["train_fraction"], doc["split"]["seed"])
    check(drawn[ref] == 0, f"template subject has level index {drawn[ref]}, expected 0")
    check(drawn.count(len(levels) - 1) == n // 2, f"level mix {drawn} is not balanced")


def check_evaluation(path: Path, n_test: int) -> None:
    report = json.loads(path.read_text(encoding="utf-8"))
    check(report["n_test"] == n_test, f"n_test {report['n_test']} != test split size {n_test}")
    rows = report["subjects"]
    check(len(rows) == n_test, "evaluation rows do not cover the test split")
    for row in rows:
        for key, value in row.items():
            if key != "subject":
                check(math.isfinite(value), f"{row['subject']}: {key} = {value}")
    agg = report["aggregate"]
    for name, column in (("rmse_cm3", "volume_predicted_cm3"), ("rmse_baseline_cm3", "volume_baseline_cm3")):
        recomputed = math.sqrt(statistics.fmean((r[column] - r["volume_truth_cm3"]) ** 2 for r in rows))
        check(math.isclose(agg[name], recomputed, rel_tol=1e-12), f"{name} {agg[name]} != recomputed {recomputed}")


# ---------------------------------------------------------------------------
# One run


class Run:
    """Runs operations, times them, checks them and counts failures."""

    def __init__(self, tracer: Tracer | None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0

    def attempt(self, label: str, fn, *args, **kwargs):
        """Returns (result, seconds), or None if the operation raised."""
        self.attempted += 1
        try:
            t0 = time.perf_counter()
            if self.tracer:
                result = self.tracer.operation(label, fn, *args, **kwargs)
            else:
                result = fn(*args, **kwargs)
            return result, time.perf_counter() - t0
        except Exception:  # a failed operation is counted and the run reports it
            self.failed += 1
            print(f"{label} failed:\n{traceback.format_exc()}", file=sys.stderr)
            return None

    def quiet(self, fn, *args):
        """Call ``fn`` untimed and, in a traced run, unrecorded."""
        if not self.tracer:
            return fn(*args)
        with self.tracer.paused():
            return fn(*args)

    def verify(self, label: str, fn, *args) -> bool:
        try:
            self.quiet(fn, *args)
            return True
        except Exception:  # any error in a check fails the operation it checks
            self.failed += 1
            print(f"{label} check failed:\n{traceback.format_exc()}", file=sys.stderr)
            return False


def artifact_digests(cfg) -> dict:
    return {
        name: sha256(path)
        for name, path in (
            ("evaluation.json", cfg.output_dir / "evaluation.json"),
            ("weights.mlp.bin", cfg.weights_stem.with_name(cfg.weights_stem.name + ".mlp.bin")),
            ("model.ssm.bin", cfg.ssm_stem.with_name(cfg.ssm_stem.name + ".ssm.bin")),
        )
    }


def run_pass(run: Run, pipeline, cfg, doc: dict, balanced: bool) -> dict | None:
    """The batch job, five stages in order; their seconds, or None once one raised."""
    stage_s = {}
    for stage in STAGES:
        done = run.attempt(stage, getattr(pipeline, f"cmd_{stage}"), cfg)
        if done is None:
            return None
        result, stage_s[stage] = done
        if stage == "synth":
            run.verify(stage, check_population, cfg, doc, balanced)
        elif stage == "evaluate":
            run.verify(stage, lambda: check_evaluation(result[0], len(pipeline.split_ids(cfg)[1])))
        else:
            paths = result if isinstance(result, list) else [result]
            run.verify(stage, lambda: check(all(Path(p).is_file() for p in paths), f"{stage} output missing"))
    return stage_s


def run_workload(args, src: Path, work: Path) -> tuple[dict, dict, Run]:
    doc, balanced = workloads.config(args.workload, args.seed)
    root = work / "run"
    root.mkdir(parents=True)
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(doc, indent=1), encoding="utf-8")
    values = {}
    if not args.trace:
        values["setup_s"] = measure_setup(src, cfg_path)

    sys.path.insert(0, str(src))
    import ssmrecon
    from ssmrecon import mesh, pipeline
    from ssmrecon.config import load_config

    cfg = load_config(cfg_path)
    info = {"workload": args.workload, "seed": args.seed, "synth_seed": doc["synth"]["seed"], **stamp()}
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install(ssmrecon)
    run = Run(tracer)

    # the read path: one client, each request sent when the previous one returned
    latencies = []
    volumes = {}

    def check_request(sid, out_path, volume):
        check(volume == mesh.signed_volume(mesh.load_mesh(out_path)), f"{sid}: volume differs from the saved mesh")
        check(volumes.setdefault(sid, volume) == volume, f"{sid}: volume differs between requests")

    def serve(order, requests, seconds) -> bool:
        while len(latencies) < requests or (not tracer and sum(latencies) < seconds):
            sid = order[len(latencies) % len(order)]
            done = run.attempt(f"request-{len(latencies):04d}", pipeline.cmd_reconstruct, cfg, subject=sid)
            if done is None:
                return False
            (out_path, volume), request_s = done
            latencies.append(request_s)
            run.verify(f"request {sid}", check_request, sid, out_path, volume)
        return True

    # PASSES identical batch jobs, each followed by a share of the requests
    min_requests = arith.min_samples_for(90)
    passes = []
    for k in range(1, PASSES + 1):
        stage_s = run_pass(run, pipeline, cfg, doc, balanced)
        if stage_s is None:
            break
        passes.append(stage_s)
        digests = run.quiet(artifact_digests, cfg)
        run.verify(f"pass {k}", lambda: check(digests == info.setdefault("sha256", digests), "outputs differ between passes"))
        test_ids = run.quiet(pipeline.split_ids, cfg)[1]
        order = [test_ids[i] for i in random.Random(args.seed).sample(range(len(test_ids)), len(test_ids))]
        if not serve(order, math.ceil(min_requests * k / PASSES), args.seconds * k / PASSES):
            break
    if len(passes) == PASSES and len(latencies) >= min_requests:
        values["pipeline_s"] = statistics.median(sum(p.values()) for p in passes)
        values.update({f"{stage}_s": statistics.median(p[stage] for p in passes) for stage in STAGES})
        agg = json.loads((cfg.output_dir / "evaluation.json").read_text(encoding="utf-8"))["aggregate"]
        values["rmse_cm3"] = agg["rmse_cm3"]
        values["rmse_baseline_cm3"] = agg["rmse_baseline_cm3"]
        values["reconstruct_p50_ms"] = 1e3 * arith.percentile(latencies, 50)
        values["reconstruct_p90_ms"] = 1e3 * arith.percentile(latencies, 90)
        values["reconstruct_per_s"] = len(latencies) / sum(latencies)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    values["failed_ratio"] = arith.failed_ratio(run.failed, run.attempted)
    info["requests"] = len(latencies)
    info["passes"] = passes

    if tracer:
        traced = {f"traced.{name}": values[name] for name in ("pipeline_s", "reconstruct_p50_ms") if name in values}
        threads = int(os.environ["SSMRECON_THREADS"])
        values = {**traced, **layers.layer_metrics(tracer.spans, tracer.counts, tracer.distinct, threads)}
        tracer.dump(work / "spans.jsonl")
    return values, info, run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    src = Path.cwd() / "src"
    if not (src / "ssmrecon" / "pipeline.py").is_file():
        print("perfbench: run from the repository root; src/ssmrecon not found", file=sys.stderr)
        return 2
    os.environ["SSMRECON_THREADS"] = str(os.cpu_count() or 1)
    work = Path.cwd() / ".perfbench" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    values, info, run = run_workload(args, src, work)
    shutil.rmtree(work / "run")
    units = TRACED_UNITS if args.trace else END_TO_END_UNITS
    reported = tuple(TRACED_UNITS) if args.trace else GATED
    correct = run.failed == 0 and all(name in values for name in units)

    print(f"perfbench {args.workload}: trace={args.trace} " + " ".join(f"{k}={v}" for k, v in info.items() if k not in ("sha256", "passes")))
    for name, digest in info.get("sha256", {}).items():
        print(f"  sha256 {name} {digest}")
    print(f"  operations attempted {run.attempted}, failed {run.failed}")
    for name, unit in units.items():
        if name in values:
            print(f"  {name:<34} {values[name]:>16.6f} {unit}")
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in reported if name in values},
    }
    (work / "result.json").write_text(json.dumps({**result, "info": info}, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
