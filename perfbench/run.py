#!/usr/bin/env python3
"""Build the nfs_gather benchmark from source and run one workload.

    python3 perfbench/run.py --workload write_copy|sfs_mix|boot_storm \
        --seed N --seconds S --trace 0|1

Run it from the root of a source tree. It builds perfbench/main.exe with
dune (build output goes to stderr) and runs it with the same arguments;
the last line of standard output is the benchmark's JSON result. It exits
non-zero, without a result, when the tree holds no nfs_gather sources.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not (os.path.isfile(os.path.join(root, "dune-project")) and os.path.isdir(os.path.join(root, "lib"))):
        print("perfbench: no nfs_gather sources next to perfbench/", file=sys.stderr)
        return 2
    build = subprocess.run(
        ["dune", "build", "--root", root, "--cache=disabled", "--display=quiet", "./perfbench/main.exe"],
        cwd=root,
        stdout=sys.stderr,
        timeout=BUILD_TIMEOUT_S,
    )
    if build.returncode != 0:
        return build.returncode
    exe = os.path.join(root, "_build", "default", "perfbench", "main.exe")
    return subprocess.run([exe] + sys.argv[1:], cwd=root, timeout=RUN_TIMEOUT_S).returncode


if __name__ == "__main__":
    sys.exit(main())
