#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload bulk-fields --seed 1 --seconds 25 --trace 0

Builds perfbench/ and cmd/pfpl with the local Go toolchain into
.bench_build/ (build cache included, so nothing is written outside the
checkout), then runs the benchmark binary with the same arguments. The last
line of output is the JSON result. Exits non-zero, without a result, when
the checkout lacks the sources to build.
"""

import argparse
import os
import subprocess
import sys

BUILD = ".bench_build"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    build = os.path.join(root, BUILD)
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOMODCACHE": os.path.join(build, "gopath", "pkg", "mod"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "XDG_CACHE_HOME": os.path.join(build, "cache"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOSUMDB": "off",
        "GOFLAGS": "",
        "CGO_ENABLED": "0",
    })
    bench = os.path.join(build, "perfbench")
    pfpl = os.path.join(build, "pfpl")
    for cwd, target, out in (("perfbench", ".", bench), (".", "./cmd/pfpl", pfpl)):
        r = subprocess.run(["go", "build", "-o", out, target], cwd=os.path.join(root, cwd), env=env)
        if r.returncode != 0:
            print("perfbench: build of %s failed" % os.path.join(cwd, target), file=sys.stderr)
            return 1

    trace_out = os.path.join(build, "trace-%s-%d.json" % (args.workload, args.seed))
    cmd = [bench, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", repr(args.seconds), "-trace", str(args.trace),
           "-pfpl", pfpl, "-trace-out", trace_out]
    return subprocess.run(cmd, cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
