#!/usr/bin/env python3
"""Build and run the simulator benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of the repository. The benchmark is a cargo package of
its own (perfbench/Cargo.toml) that builds against the repository's crates
by path, into $CARGO_TARGET_DIR (default: .bench_build). Build output goes
to stderr; the benchmark's report goes to stdout, and its last line is one
JSON object with the keys correct, attempted, failed and metrics. Traces
and failure dumps are written under <target dir>/perfbench/.

Workloads: paper_dense_200, city_2000, hostile_mix_150 (see
perfbench/README.md). The exit code is 0 only when the build and the run
both succeed.
"""

import argparse
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")


def source_revision(target_dir):
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, check=True,
        )
        toplevel, commit = out.stdout.split()
        if os.path.realpath(toplevel) == os.path.realpath(ROOT):
            return commit
    except (OSError, ValueError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    skip = {os.path.abspath(target_dir), os.path.join(ROOT, "target")}
    for top in ("Cargo.toml", "Cargo.lock", "crates", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else []
        for base, dirs, names in os.walk(path):
            dirs[:] = sorted(d for d in dirs if os.path.join(base, d) not in skip)
            files.extend(os.path.join(base, n) for n in sorted(names))
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    env = dict(os.environ)
    target_dir = os.path.abspath(env.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env["CARGO_TARGET_DIR"] = target_dir
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1

    rustc = subprocess.run(["rustc", "-V"], capture_output=True, text=True, env=env)
    env["PERFBENCH_RUSTC"] = rustc.stdout.strip() or "unknown"
    env["PERFBENCH_COMMIT"] = source_revision(target_dir)
    exe = os.path.join(target_dir, "release", "perfbench")
    run = subprocess.run(
        [exe,
         "--workload", args.workload,
         "--seed", str(args.seed),
         "--seconds", str(args.seconds),
         "--trace", str(args.trace),
         "--out", os.path.join(target_dir, "perfbench")],
        env=env,
    )
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
