"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload pinn_ad --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  See bench/README.md.
"""

import os
import sys
import time

_START = time.perf_counter()

# BLAS threads are read when numpy is first imported, so pin them here,
# before anything imports numpy.  The harness refuses to report if the
# BLAS libraries do not show one thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_ROOT, "src"))

import harness  # noqa: E402  (must follow the pinning above)

if __name__ == "__main__":
    sys.exit(harness.main(sys.argv[1:], time.perf_counter() - _START, _ROOT))
