#!/usr/bin/env python
"""Validate SimPoint/PinPoints region selection with ELFies (§IV-A).

The traditional way to validate region selection is to simulate the
whole program — which is exactly what region selection exists to avoid.
The paper's alternative runs the whole program and each region's ELFie
*natively* with hardware counters, turning weeks of simulation into an
hour of measurement.

This example runs both flows on one SPEC-like benchmark and compares
their prediction errors and wall-clock costs.

Run:  python examples/validate_region_selection.py [app-name]
"""

import sys
import time

from repro.analysis import format_table
from repro.simpoint import (
    run_pinpoints,
    validate_with_elfies,
    validate_with_simulator,
)
from repro.simulators import CoreSim, CoreSimConfig
from repro.workloads import get_app


def main() -> None:
    app_name = sys.argv[1] if len(sys.argv) > 1 else "531.deepsjeng_r"
    app = get_app(app_name)
    print("benchmark: %s (train input)" % app.name)
    image = app.build("train")

    print("== PinPoints: profile, cluster, capture, convert")
    started = time.time()
    pinpoints = run_pinpoints(image, app.name, slice_size=20_000,
                              warmup=40_000, max_k=30, max_alternates=2)
    print("   %d slices, k=%d, %d ELFies, %.1fs"
          % (pinpoints.profile.num_slices, pinpoints.selection.k,
             len(pinpoints.elfies), time.time() - started))

    print("== ELFie-based validation (native runs + HW counters)")
    started = time.time()
    native = validate_with_elfies(pinpoints, trials=3)
    native_seconds = time.time() - started

    print("== Traditional validation (whole-program detailed simulation)")
    simulator = CoreSim(CoreSimConfig(frontend="sde"))
    started = time.time()

    def whole_cpi() -> float:
        return simulator.simulate_program(image).user_cpi

    def region_cpi(artifact, region):
        result = simulator.simulate_elfie(artifact.image,
                                          roi_budget=region.length)
        return result.user_cpi if result.instructions_ring3 else None

    simulated = validate_with_simulator(pinpoints, whole_cpi, region_cpi)
    simulated_seconds = time.time() - started

    rows = [
        ("ELFie-based (native)", "%.4f" % native.whole_program_cpi,
         "%.4f" % native.predicted_cpi, "%.2f%%" % native.abs_error_percent,
         "%.0f%%" % (100 * native.covered_weight), "%.1fs" % native_seconds),
        ("simulation-based", "%.4f" % simulated.whole_program_cpi,
         "%.4f" % simulated.predicted_cpi,
         "%.2f%%" % simulated.abs_error_percent,
         "%.0f%%" % (100 * simulated.covered_weight),
         "%.1fs" % simulated_seconds),
    ]
    print()
    print(format_table(
        "validation of %s region selection" % app.name,
        ["method", "true CPI", "predicted CPI", "|error|", "coverage",
         "wall clock"],
        rows,
    ))
    print()
    print("speedup of ELFie-based validation: %.1fx"
          % (simulated_seconds / max(native_seconds, 1e-9)))
    print("(the paper reports weeks -> one hour on real workloads)")


if __name__ == "__main__":
    main()
