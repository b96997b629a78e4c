"""Set-up time of one workload in a fresh interpreter.

Prints the seconds from before ``import spectral_stokes`` (numpy and scipy
included, as every CLI invocation pays them) until the workload's seeded
inputs exist.  Run by ``run.py``, which scales it by the host's slowdown
timed around the probe (see ``calibration.py``); by hand:

    python3 perfbench/setup_probe.py --workload exact --seed 0
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402

import benchenv  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    benchenv.prepare()
    import workloads
    workloads.WORKLOADS[args.workload].make_inputs(args.seed)
    print(f"{time.perf_counter() - T0!r}")


if __name__ == "__main__":
    main()
