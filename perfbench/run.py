"""Run one workload of the vecoff benchmark and print its metrics.

    python3 perfbench/run.py --workload study --seed 1 --seconds 10 --trace 0

Workloads: study, charged, train (see perfbench/README.md). The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. Lines before it
that start with ``#`` carry machine facts and check failures. A traced
run also writes its spans to ``perfbench/out/``.

The package is imported from ``src/`` next to this directory and from
nowhere else; without it the run fails before doing any work.
"""

import json
import os
import sys
import time

# Both are read when numpy loads. One OpenBLAS thread: measured in
# README.md. No transparent huge pages for numpy's large arrays.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")


def fix_mmap_threshold() -> None:
    """Keep glibc's mmap threshold at its 128 KiB default.

    glibc raises the threshold when a large block is freed. A later
    buffer of that size, such as the next DQN replay buffer, then comes
    from reused heap memory that calloc has to clear, so the same train
    run peaked at 54 MB or at 102 MB. Setting the threshold switches the
    adjustment off.
    """
    import ctypes

    # the symbols the interpreter already links, libc's among them
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
        mallopt(-3, 128 * 1024)  # M_MMAP_THRESHOLD


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("study", "charged", "train"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # one set-up, timed, in this fresh interpreter; the run starts these
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not os.path.isfile(os.path.join(SRC, "vecoff", "__init__.py")):
        print(f"error: no vecoff package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    fix_mmap_threshold()

    t0 = time.perf_counter()
    import numpy  # noqa: F401  (timed: part of set-up)
    import bench

    if args.setup_only:
        bench.set_up_only(args.workload, args.seed, args.seconds)
        print(repr(time.perf_counter() - t0))
        return 0
    result = bench.run(args.workload, args.seed, args.seconds, bool(args.trace), OUT)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
