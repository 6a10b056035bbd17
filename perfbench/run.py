#!/usr/bin/env python3
"""Build and run the PowerViz end-to-end benchmark.

    python3 perfbench/run.py --workload sweep_cold --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the root of a PowerViz checkout.  The first call configures and
builds the benchmark package (perfbench/CMakeLists.txt, which compiles
PowerViz itself from ../src) into .bench_build, or into
$CARGO_TARGET_DIR when that is set; later calls rebuild only what
changed.  Build output goes to stderr, so the last line on stdout is the
benchmark's JSON result.  The benchmark runs in its own process group,
and a run that overstays its deadline is killed with everything it
spawned.  `--workload all` runs every workload in turn and exits
non-zero when any of them fails.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("sweep_cold", "advisor_hot", "advisor_mixed")
# A run may take its --seconds twice over (advisor set-ups, sweep_cold's
# last repetition and in-process reference) plus this much start-up.
SETUP_ALLOWANCE_S = 100


def source_id(root: Path) -> str:
    """The git commit when there is one, else a digest of the sources."""
    if (root / ".git").exists():
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        if out.returncode == 0:
            return out.stdout.strip()
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "perfbench"):
        base = root / top
        files = [base] if base.is_file() else sorted(p for p in base.rglob("*") if p.is_file())
        for path in files:
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return "tree-" + digest.hexdigest()[:16]


def build(root: Path, build_dir: Path) -> bool:
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs,
                  "--target", "perfbench"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          check=False).returncode != 0:
            return False
    return True


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "service" / "server.h").is_file():
        print("perfbench: no PowerViz sources beside perfbench/", file=sys.stderr)
        return 2
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_dir.is_absolute():
        build_dir = Path.cwd() / build_dir
    if not build(root, build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 2

    commit = source_id(root)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    status = 0
    for workload in workloads:
        command = [str(build_dir / "perfbench"),
                   "--workload", workload, "--seed", str(args.seed),
                   "--seconds", repr(args.seconds), "--trace", args.trace,
                   "--serve", str(build_dir / "tools" / "powerviz_serve"),
                   "--out", str(build_dir / "perfbench-out"),
                   "--commit", commit]
        status = max(status, run_one(command, SETUP_ALLOWANCE_S + 2 * args.seconds))
    return status


def run_one(command, deadline_s: float) -> int:
    """Run one workload in its own process group; kill the group late."""
    with subprocess.Popen(command, start_new_session=True) as proc:
        try:
            return proc.wait(timeout=deadline_s)
        except subprocess.TimeoutExpired:
            print("perfbench: run overstayed its deadline", file=sys.stderr)
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            return 3


if __name__ == "__main__":
    sys.exit(main())
