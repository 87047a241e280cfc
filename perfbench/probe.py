"""Set-up probe: one fresh interpreter pays what a user pays before the
first command can run (importing quotavia, parsing and validating the
workload's inputs).

It prints the system-wide monotonic clock when it was ready, the seconds it
spent before that on reference samples (not part of the set-up), and the
reference samples taken just before and just after the set-up.  The
samples are taken here, not in the parent, because this process may run on
another CPU than the parent, at another speed.

Usage: python3 perfbench/probe.py ROOT WORKLOAD SEED
"""

import os
import sys
import time


def main() -> None:
    started = time.clock_gettime(time.CLOCK_MONOTONIC)
    root, workload, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
    import reference
    reference.sample(2)  # warm-up
    before = reference.sample()
    sampling = time.clock_gettime(time.CLOCK_MONOTONIC) - started
    sys.path.insert(0, os.path.join(root, "src"))
    import quotavia.cli  # noqa: F401  (the entry point and all it imports)
    from workloads import WORKLOADS
    WORKLOADS[workload](root, seed, out_dir=os.devnull).setup()
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    after = reference.sample()
    print(repr(ready), repr(sampling), repr(before), repr(after))


if __name__ == "__main__":
    main()
