"""Time one wavepax set-up in a fresh interpreter and print the seconds.

Usage: python3 setup_probe.py WORKLOAD SEED [--small]
wavepax must be importable (the benchmark puts ``src`` on PYTHONPATH).
"""

import sys
import time
import warnings

import workloads


def main(argv):
    workload, seed = argv[0], int(argv[1])
    inputs = workloads.make_inputs(workload, seed, small="--small" in argv)
    warnings.simplefilter("ignore")
    start = time.perf_counter()
    workloads.set_up(workload, inputs)
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main(sys.argv[1:])
