"""Time one set-up in a fresh interpreter and print it in reference
seconds (see calibrate.py).

    python3 perfbench/setup_probe.py --workload W --seed N

Set-up is importing ahilb.cli, which pulls in every layer, then parsing
the workload's group specifications and building their lattice contexts.
The workload's inputs are generated, and the host's speed probed, before
the clock starts; more probes follow the set-up.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from time import perf_counter

from calibrate import probe_s, speed
from workloads import WORKLOADS, specs_for

# Speed probes before and after the set-up (see calibrate.py).
PROBES = 10


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    specs = specs_for(args.workload, args.seed)
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

    probes = [probe_s() for _ in range(PROBES + 2)][2:]  # two to warm
    start = perf_counter()
    import ahilb.cli as cli

    for spec in specs:
        cli.lattice_context(cli.parse_group_spec(spec))
    wall = perf_counter() - start
    probes += [probe_s() for _ in range(PROBES)]
    print(repr(wall * speed(probes)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
