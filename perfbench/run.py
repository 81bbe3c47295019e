"""blockmix benchmark: one workload per invocation, from the checkout root.

    python3 perfbench/run.py --workload planted-150 --seed 1 --seconds 10 --trace 0

Writes the workload's inputs from ``--seed`` under ``.perfbench_work/``,
times ``import blockmix`` plus ``build_parser()`` in fresh interpreters
(``setup_s``), then runs the workload in a fresh worker process
(worker.py) until ``--seconds`` have passed.  Human-readable lines come
first; the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the ``end_to_end`` metrics of BENCHMARK.json
with ``--trace 0``, its ``per_layer`` metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

import numpy as np

import calibrate
import inputs
import workloads

DEADLINE_S = 170  # a run must end within 180 s
SETUP_RUNS = 7
SETUP_SNIPPET = (
    "import time; t = time.perf_counter(); import blockmix, blockmix.cli; "
    "blockmix.cli.build_parser(); t = time.perf_counter() - t; "
    "import calibrate, statistics; print(t, statistics.median(calibrate.loop_seconds() for _ in range(3)))"
)
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread: a helper thread that spins on the second core slowed the
# calibration loop up to threefold whenever that core was busy.
BLAS_THREADS = 1
GROUPS = ("stats", "generate", "fit_vem", "fit_switch", "fit_mcem", "eval")


def child_env(root: Path) -> dict[str, str]:
    """Serial restarts, capped BLAS threads, the checkout's src first on the path."""
    env = dict(os.environ)
    env.pop("BLOCKMIX_WORKERS", None)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(Path(__file__).resolve().parent)])
    env["PYTHONHASHSEED"] = "0"
    for var in BLAS_ENV:
        env[var] = str(BLAS_THREADS)
    return env


def machine(root: Path) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env, capture_output=True,
                                text=True, timeout=20).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    src_lines = sum(len(p.read_bytes().splitlines()) for p in sorted((root / "src").rglob("*.py")))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "git_commit": commit,
        "src_lines": src_lines,
    }


def setup_seconds(root: Path, env: dict[str, str], deadline: float) -> tuple[float, float]:
    """Median import + build_parser time of SETUP_RUNS fresh interpreters.

    Returns (scaled, wall): each interpreter also times the calibration
    loop after its imports, which scales its own sample.
    """
    scaled, wall = [], []
    for _ in range(SETUP_RUNS):
        done = subprocess.run([sys.executable, "-c", SETUP_SNIPPET], cwd=root, env=env,
                              capture_output=True, text=True, check=True,
                              timeout=max(1.0, deadline - monotonic()))
        seconds, loop = map(float, done.stdout.split())
        scaled.append(calibrate.scale(seconds, loop))
        wall.append(seconds)
    return statistics.median(scaled), statistics.median(wall)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = monotonic() + DEADLINE_S

    root = Path.cwd()
    if not (root / "src" / "blockmix" / "__init__.py").is_file():
        print("error: run from a blockmix checkout (src/blockmix is missing)", file=sys.stderr)
        return 2
    bench = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results = root / ".perfbench_work" / "results"
    workdir = root / ".perfbench_work" / f"{tag}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    results.mkdir(parents=True, exist_ok=True)
    try:
        w = workloads.WORKLOADS[args.workload](args.seed, workdir)
        digests = {p.name: inputs.sha256(p) for p in w.input_files()}
        env = child_env(root)
        info = machine(root)
        setup, setup_wall = (None, None) if args.trace else setup_seconds(root, env, deadline)

        spec = workdir / "spec.pickle"
        out = workdir / "worker.json"
        with spec.open("wb") as fh:
            pickle.dump({"workload": w, "seconds": args.seconds, "trace": bool(args.trace),
                         "spans": str(results / f"{tag}.spans.jsonl")}, fh)
        worker = Path(__file__).resolve().parent / "worker.py"
        done = subprocess.run([sys.executable, str(worker), str(spec), str(out)], cwd=root, env=env,
                              capture_output=True, text=True, timeout=max(1.0, deadline - monotonic()))
        if done.returncode != 0:
            print(f"error: worker exited with {done.returncode}\n{done.stderr[-2000:]}", file=sys.stderr)
            return 1
        record = json.loads(out.read_text(encoding="utf-8"))
    except subprocess.TimeoutExpired:
        print(f"error: the run did not finish within {DEADLINE_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rounds = record["rounds"]
    values = {"setup_s": setup, "peak_rss_mb": record["peak_rss_mb"]}
    # a command group or engine the workload does not run reads 0
    for key in ("workload_s", *GROUPS):
        values[key if key.endswith("_s") else f"{key}_s"] = calibrate.scaled_median(rounds, key)
    wall = {"setup_wall_s": setup_wall,
            "workload_wall_s": statistics.median(r["workload_s"] for r in rounds),
            "loop_s": statistics.median(x for r in rounds for x in r["loops"])}
    values.update({f"rand_{e}": record["rand"].get(f"rand_{e}", 0.0) for e in ("vem", "switch", "mcem")})
    failed = len(record["failures"])
    values["failed_ops"] = failed / record["attempted"]
    values.update(record.get("layers", {}))

    missing = [m["name"] for m in declared if values.get(m["name"]) is None]
    if missing:
        print(f"error: the run produced no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    record.update(workload=args.workload, seed=args.seed, trace=args.trace, machine=info,
                  input_sha256=digests, metrics=values, unscaled=wall)
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(rounds)} untraced round(s), {len(record.get('traced_rounds', []))} traced")
    print("machine " + json.dumps(info, sort_keys=True))
    for name, digest in {**digests, **record["result_sha256"]}.items():
        print(f"sha256 {digest}  {name}")
    for problem in record["failures"][:20]:
        print(f"FAILED {problem}")
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    for name, value in {**values, **wall}.items():
        if value is not None:
            print(f"{name:32s} {value:.6g} {units.get(name, 's')}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": failed == 0, "attempted": record["attempted"], "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
