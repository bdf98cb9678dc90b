"""Run every workload, traced and untraced, and print each metric with its unit.

    python3 perfbench/report.py --seed 0 --seconds 20

Each run is its own ``run.py`` process, so memory and set-up are measured
per workload.  Exits non-zero if any run fails or reports a failed output.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ok = True
    machine_shown = False
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                cwd=HERE.parent, capture_output=True, text=True)
            if done.returncode != 0:
                print(f"{workload} trace={trace}: exit {done.returncode}\n{done.stderr}")
                ok = False
                continue
            lines = done.stdout.strip().splitlines()
            last = json.loads(lines[-1])
            ok = ok and last["correct"]
            print(f"== {workload} ({'per-layer' if trace else 'end-to-end'}): "
                  f"correct={last['correct']} failed {last['failed']}"
                  f"/{last['attempted']}")
            for line in lines[:-1]:
                if not line.startswith("machine ") or not machine_shown:
                    print("   " + line)
                machine_shown = True
            for name, m in last["metrics"].items():
                print(f"   {name:34s} {m['value']:>16.6g} {m['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
