#!/usr/bin/env python3
"""Quickstart: calibrate the SymBIST windows, test a good and a defective IP.

This is the smallest end-to-end use of the library:

1. run the design-time Monte Carlo calibration (``delta = k * sigma``),
2. run the SymBIST test on a defect-free instance of the SAR ADC IP,
3. inject one manufacturing defect and show how an invariance catches it.

Run with::

    python examples/quickstart.py [--monte-carlo 40] [--k 5]

``calibrate_windows`` is a plain serial loop.  The same calibration,
sharded across processes or replayed from a cache, is the canned
``calibrate`` study: ``repro-campaign run calibrate --set
calibrate.n_monte_carlo=40 --set windows.k=5 --set seed=0 --workers 4``
gives bit-identical windows (see ``docs/cli.md``).
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.adc import SarAdc
from repro.core import calibrate_windows, run_symbist, summarize_symbist_result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--monte-carlo", type=int, default=40,
                        help="Monte Carlo samples for the window calibration")
    parser.add_argument("--k", type=float, default=5.0,
                        help="window multiplier delta = k * sigma")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    print("== 1. Window calibration (design time) ==")
    calibration = calibrate_windows(k=args.k, n_monte_carlo=args.monte_carlo,
                                    rng=np.random.default_rng(args.seed))
    for name, delta in calibration.deltas.items():
        sigma = calibration.sigmas[name]
        print(f"  {name:<10s} sigma = {sigma * 1e3:7.3f} mV   "
              f"delta = {delta * 1e3:7.2f} mV")

    print("\n== 2. SymBIST on a defect-free IP ==")
    adc = SarAdc()
    result = run_symbist(adc, calibration.deltas)
    print(summarize_symbist_result(result))

    print("\n== 3. SymBIST on a defective IP ==")
    # Short one segment of the reference ladder: the complementary sub-DAC
    # outputs no longer sum to VREF[32] (paper Eq. (2)).
    device = adc.reference_buffer.netlist.device("rlad_10")
    device.defect.shorted_terminals = ("p", "n")
    print(f"injected defect: 10-ohm short across {device.name} "
          f"in {adc.reference_buffer.block_path}")
    result = run_symbist(adc, calibration.deltas, stop_on_detection=True)
    print(summarize_symbist_result(result))
    adc.clear_defects()

    print("\nDone: the defect-free IP passes, the defective IP is caught by "
          "the symmetry invariances.")


if __name__ == "__main__":
    main()
