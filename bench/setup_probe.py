"""Time one workload's set-up in a fresh interpreter and print the seconds.

Set-up is importing ``semrd``, building the workload's problem or config from
its seed, and being ready for the first solve. ``run.py`` starts this script
once per sample with the checkout root as working directory:

    python3 bench/setup_probe.py <workload> <seed> <out_dir>
"""

import time

_T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> None:
    name, seed, out_dir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    sys.path.insert(0, str(Path.cwd() / "src"))
    import workloads

    wl = workloads.WORKLOADS[name]
    wl.prepare(wl.generate(seed), out_dir)
    print(repr(time.perf_counter() - _T0))


if __name__ == "__main__":
    main()
