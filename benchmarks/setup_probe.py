"""Set-up probe: a fresh interpreter that gets one workload ready to time.

    python3 benchmarks/setup_probe.py <workload> <seed> <workdir>

It imports sidonlab, generates the pass-0 inputs and writes the set files,
then exits; `run.py` times it from spawn to exit as `setup_s`.
"""

import sys
from pathlib import Path

import run


def main(argv) -> int:
    workload, seed, workdir = argv
    run.bootstrap()
    run.make_workload(workload).setup(int(seed), Path(workdir))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
