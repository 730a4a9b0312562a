#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the release `mgd` daemon and the
benchmark crate (`perfbench/`) offline into $CARGO_TARGET_DIR (default
`.bench_build`), prints the host context, then runs one workload. The
last line of stdout is the JSON result. Exits non-zero without a result
when the build or the run fails.
"""

import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("paper-sweep", "mobile-sweep", "journal-serve")
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def parse(argv):
    opts = {"--workload": None, "--seed": "1", "--seconds": "10", "--trace": "0"}
    it = iter(argv)
    for flag in it:
        value = next(it, None)
        if value is None:
            fail(f"{flag} requires a value", 2)
        if flag not in opts:
            fail(f"unrecognized argument: {flag}", 2)
        opts[flag] = value
    if opts["--workload"] not in WORKLOADS:
        fail(f"--workload must be one of {', '.join(WORKLOADS)}", 2)
    return opts


def cargo(env, *args):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", *args]
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        fail("build failed: " + " ".join(cmd))


def output(cmd):
    try:
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
        return r.stdout.strip() if r.returncode == 0 else "none"
    except OSError:
        return "none"


def main():
    opts = parse(sys.argv[1:])
    env = {k: v for k, v in os.environ.items() if not k.startswith("MG_")}
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    target = os.path.join(ROOT, target)

    cargo(env, "--manifest-path", "Cargo.toml", "-p", "mg-serve", "--bin", "mgd")
    cargo(env, "--manifest-path", os.path.join("perfbench", "Cargo.toml"))

    nproc = len(os.sched_getaffinity(0))
    print(f"host     : nproc {nproc}, {output(['rustc', '--version'])}")
    print(f"revision : git {output(['git', 'rev-parse', 'HEAD'])}")
    sys.stdout.flush()

    tmp = os.path.join(ROOT, ".bench_tmp", str(os.getpid()))
    cmd = [
        os.path.join(target, "release", "mg-perfbench"),
        "--workload", opts["--workload"],
        "--seed", opts["--seed"],
        "--seconds", opts["--seconds"],
        "--trace", opts["--trace"],
        "--mgd", os.path.join(target, "release", "mgd"),
        "--tmp", tmp,
    ]
    # Own process group, so a timeout also stops the mgd it spawned.
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    finally:
        try:
            os.removedirs(os.path.dirname(tmp))
        except OSError:
            pass
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines[-1].startswith('{"correct"'):
        sys.stdout.write(out if proc.returncode == 0 else "")
        fail(f"benchmark exited with {proc.returncode} and no result")
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
