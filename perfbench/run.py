"""Launcher: python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Pins BLAS to one thread before
numpy is imported and the process to one CPU, puts the checkout's ``src``
on the import path, and hands over to ``bench.main``.  The last line of
standard output is the JSON result.
"""

import time

START = time.perf_counter()  # set-up time counts from here

import os  # noqa: E402
import sys  # noqa: E402


def launch():
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    if not os.path.isfile(os.path.join(src, "simulbench", "__init__.py")):
        sys.exit(f"error: no simulbench sources at {src}; run from the root "
                 "of a source checkout")
    sys.path[:0] = [src, here]
    import bench  # imports numpy and simulbench
    return bench.main(sys.argv[1:], import_s=time.perf_counter() - START)


if __name__ == "__main__":
    sys.exit(launch())
