#!/usr/bin/env python3
"""Build and run the fqos benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload read_burst --seed 1 --seconds 10 --trace 0

Builds `perfbench/` (a package of its own that depends on the
repository's crates by path) in release mode into `$CARGO_TARGET_DIR`
(default `.bench_build`), runs it, and relays its output. The last line
of standard output is the result object. Scratch files (the WAL of
`durable_eft`) live under the build directory and are removed on exit.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import os
import pathlib
import shutil
import subprocess
import sys

# The benchmark binary must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def command_output(argv, cwd):
    try:
        out = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest(root):
    """SHA-256 over the sources the benchmark builds, for provenance when
    the checkout is not a git repository."""
    h = hashlib.sha256()
    files = []
    for top in ("crates", "perfbench"):
        for path in sorted((root / top).rglob("*")):
            if "target" in path.parts or not path.is_file():
                continue
            if path.suffix in (".rs", ".toml", ".lock"):
                files.append(path)
    for path in files:
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=("0", "1"), required=True)
    args = ap.parse_args()

    root = pathlib.Path.cwd()
    manifest = root / "perfbench" / "Cargo.toml"
    if not manifest.is_file() or not (root / "crates" / "server" / "Cargo.toml").is_file():
        fail("run from the root of a source checkout (perfbench/ and crates/ are needed)")

    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = root / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(manifest)],
        cwd=root,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail("build failed")

    rustc = command_output(["rustc", "--version"], root) or "unknown"
    git_rev = None
    if (root / ".git").exists():
        git_rev = command_output(["git", "rev-parse", "HEAD"], root)
    git_rev = git_rev or "not a git checkout"
    scratch = target / f"perfbench-scratch-{os.getpid()}"
    argv = [
        str(target / "release" / "fqos-perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", args.trace,
        "--scratch", str(scratch),
        "--rustc", rustc,
        "--git-rev", git_rev,
        "--source-digest", source_digest(root),
    ]
    try:
        run = subprocess.run(argv, cwd=root, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
