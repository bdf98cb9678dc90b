"""Benchmark one proxops workload and print its metrics as JSON.

    python3 perfbench/run.py --workload standoff_rta --seed 0 --seconds 20 --trace 0

Run from the root of a repository checkout; the package is imported from
``src/``.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
alternates untraced and traced passes and prints the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; lines before it give
the machine facts, the output fingerprints and any failed operation.  The
full result, every pass and the trace spans go to
``.perfbench_out/<workload>-seed<seed>-trace<0|1>/``.

``setup_s``, ``adj_wall_s`` and ``adj_sim_steps_per_s`` are scaled by the
machine's speed, measured by timing a fixed slice of reference work during
each pass and after each set-up (see ``workloads.SpeedSampler``); the
unadjusted medians are printed too.

BLAS threads default to one (set ``OPENBLAS_NUM_THREADS`` and friends to
override): the workloads run in one process with no thread pools, and the
thread settings in effect are recorded with every result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("standoff_rta", "ring_rta", "train", "episodes")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_PROBES = 5
SETUP_SLICES = 5  # reference slices timed after each set-up probe

END_TO_END = (
    ("setup_s", "s"),
    ("adj_wall_s", "s"),
    ("adj_sim_steps_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)  # child process: time set-up once
    return parser.parse_args(argv)


def _import_workloads():
    """Import proxops from ``src/`` and the workload definitions."""
    sys.path.insert(0, str(SRC))
    import proxops
    if Path(proxops.__file__).resolve().parent != SRC / "proxops":
        raise ImportError(f"proxops imported from {proxops.__file__}, not {SRC}")
    import workloads
    return workloads


def probe_setup(workload: str, seed: int) -> tuple:
    """Time one set-up in a fresh interpreter: import, inputs, controllers.

    Returns the set-up seconds and the mean reference slice time measured in
    the same interpreter right after it.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--probe-setup",
           "--workload", workload, "--seed", str(seed)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=60, check=True)
    setup_s, ref_s = done.stdout.strip().splitlines()[-1].split()
    return float(setup_s), float(ref_s)


def machine_facts() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy without dict-mode build info
        blas = {}
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "openblas_config": blas.get("openblas configuration"),
            "threads_env": {v: os.environ.get(v) for v in THREAD_VARS}}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "proxops" / "__init__.py").is_file():
        print(f"error: no proxops sources under {SRC}; run from a repository "
              "checkout", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    out_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"

    t0 = time.perf_counter()
    wl = _import_workloads()
    sampler = wl.SpeedSampler()
    hooks = wl.Hooks(sampler.clock)
    workload = wl.WORKLOADS[args.workload](args.seed, str(out_dir), hooks)
    first_setup_s = time.perf_counter() - t0
    if args.probe_setup:
        ref_s = statistics.fmean(wl.reference_slice() for _ in range(SETUP_SLICES))
        print(repr(first_setup_s), repr(ref_s))
        return 0

    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    facts = machine_facts()
    result = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "machine": facts,
              "first_setup_s": first_setup_s}

    if args.trace:
        import tracer as tr
        tracer = tr.Tracer()
        untraced, traced = [], []
        start = time.perf_counter()
        with hooks.installed():
            # A warm-up pass is checked but not timed.  Then untraced and
            # traced passes alternate, so drift in the machine's speed
            # reaches both alike and their difference is the tracing overhead.
            warm_up = wl.measure(workload, 0.0)
            while True:
                t0 = time.perf_counter()
                index = len(warm_up) + len(untraced) + len(traced)
                untraced += wl.measure(workload, 0.0, index)
                with tracer.installed(tr.TARGETS):
                    traced += wl.measure(workload, 0.0, index + 1)
                now = time.perf_counter()
                if now - start + (now - t0) > args.seconds:
                    break
        passes = warm_up + untraced + traced
        metrics = tr.layer_metrics(
            tracer, len(traced), [p.wall_s for p in traced],
            [p.wall_s for p in untraced],
            statistics.fmean(p.artifact_bytes for p in traced))
        units = dict(tr.PER_LAYER)
        tracer.save(out_dir / "spans.npz")
        result["unwrapped"] = sorted(tracer.unwrapped)
        result["unobserved"] = sorted(tracer.unobserved)
        if tracer.unwrapped or tracer.unobserved:
            print("untraced: " + ", ".join(sorted(tracer.unwrapped))
                  + "; unobserved: " + ", ".join(sorted(tracer.unobserved)))
    else:
        probes = [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
        with hooks.installed(), sampler.running():
            passes = wl.measure(workload, args.seconds, sampler=sampler)
        metrics = {
            "setup_s": statistics.median(setup_s * wl.REFERENCE_NOMINAL_S / ref_s
                                         for setup_s, ref_s in probes),
            "adj_wall_s": statistics.median(p.wall_s * p.speed_factor for p in passes),
            "adj_sim_steps_per_s": statistics.median(p.steps_per_s / p.speed_factor
                                                     for p in passes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = dict(END_TO_END)
        result["setup_probes"] = probes
        result["unadjusted"] = {
            "setup_s": statistics.median(setup_s for setup_s, _ in probes),
            "wall_s": statistics.median(p.wall_s for p in passes),
            "sim_steps_per_s": statistics.median(p.steps_per_s for p in passes),
            "reference_slice_s": statistics.median(p.ref_s for p in passes)}

    attempted, failures = wl.tally(passes)
    reported = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    result.update(passes=[vars(p) for p in passes], attempted=attempted,
                  failed=len(failures), failed_frac=len(failures) / attempted,
                  metrics=reported)
    with open(out_dir / "result.json", "w") as fh:
        json.dump(result, fh, indent=1, default=str)

    print("machine " + json.dumps(facts, sort_keys=True))
    print("fingerprint " + json.dumps(passes[0].fingerprint, sort_keys=True))
    for i, op, why in failures[:20]:
        print(f"FAILED pass {i} {op}: {'; '.join(why)}")
    if "unadjusted" in result:
        print("unadjusted " + json.dumps(result["unadjusted"], sort_keys=True))
    print(f"passes {len(passes)}, operations {attempted}, failed {len(failures)}, "
          f"failed_frac {len(failures) / attempted}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
