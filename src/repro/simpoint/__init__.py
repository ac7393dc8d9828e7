"""Simulation region selection: BBV profiling, SimPoint, PinPoints.

The paper validates PinPoints-selected regions with ELFies (§IV-A).
This package provides the full selection pipeline:

- :mod:`repro.simpoint.bbv` -- basic-block-vector profiling in fixed
  instruction slices (the SimPoint feature extractor),
- :mod:`repro.simpoint.kmeans` -- random projection + k-means with
  BIC model selection (maxK),
- :mod:`repro.simpoint.simpoint` -- representative and alternate slice
  selection with weights,
- :mod:`repro.simpoint.pinpoints` -- the BBV-SimPoint selector of the
  shared region pipeline (:mod:`repro.pipeline`: profile, cluster,
  capture a fat pinball per representative, convert), run directly or
  as a parallel, store-memoized farm campaign,
- :mod:`repro.simpoint.validation` -- prediction-error computation,
  ELFie-based and simulation-based validation, coverage with
  alternates.
"""

from repro.simpoint.bbv import BBVProfile, collect_bbv
from repro.simpoint.kmeans import KMeansResult, cluster_points, cluster_vectors
from repro.simpoint.simpoint import SimPointResult, select_simpoints
from repro.simpoint.pinpoints import (
    BBV_SIMPOINT,
    FarmAppOutcome,
    FarmValidation,
    elfie_validation,
    fidelity_validation,
    run_pinpoints,
    run_pinpoints_campaign,
    run_pinpoints_farm,
)
from repro.simpoint.validation import (
    RegionMeasurement,
    ValidationResult,
    prediction_error,
    validate_regions,
    validate_with_elfies,
    validate_with_simulator,
)

__all__ = [
    "BBVProfile",
    "collect_bbv",
    "KMeansResult",
    "cluster_points",
    "cluster_vectors",
    "SimPointResult",
    "select_simpoints",
    "BBV_SIMPOINT",
    "FarmAppOutcome",
    "FarmValidation",
    "elfie_validation",
    "fidelity_validation",
    "run_pinpoints",
    "run_pinpoints_campaign",
    "run_pinpoints_farm",
    "RegionMeasurement",
    "ValidationResult",
    "prediction_error",
    "validate_regions",
    "validate_with_elfies",
    "validate_with_simulator",
]
