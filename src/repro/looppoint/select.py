"""LoopPoint region selection: PCA projection + k-means over marker
vectors.

The clustering machinery is shared with SimPoint
(:func:`repro.simpoint.kmeans.cluster_points`); what differs is the
feature pipeline (PCA instead of random projection — marker vectors are
much lower-dimensional than BBVs, so the principal components are both
cheap and informative) and the weighting: marker-delimited slices have
*variable* instruction counts, so a cluster's weight is the fraction of
retired instructions its members cover, not the fraction of slices.

Every selected region carries two coordinate systems:

- the **marker window** — (module+offset, crossing count) boundary
  pair, the load-address-independent LoopPoint identity; and
- the **realized icount window** — where those crossings landed under
  the profiling seed's deterministic schedule, which is what the
  existing icount-driven logger uses to capture the region.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.looppoint.markers import MarkerPoint
from repro.looppoint.profile import LoopPointProfile, LoopSlice
from repro.pinplay.regions import RegionSpec
from repro.simpoint.kmeans import KMeansResult, cluster_points
from repro.simpoint.simpoint import MAX_CANDIDATES, SimPointCluster

#: Default PCA dimensionality (marker vectors are small; a handful of
#: components captures the phase structure).
PCA_DIM = 8


def pca_project(vectors: Sequence[Dict[int, int]],
                dim: int = PCA_DIM) -> np.ndarray:
    """L1-normalize sparse marker vectors and PCA-project to *dim*.

    Deterministic by construction: the dense layout is the sorted key
    set, the decomposition is an SVD of the centered matrix, and each
    component's sign is fixed so its largest-magnitude coordinate is
    positive (SVD sign ambiguity would otherwise vary across LAPACK
    builds).
    """
    keys = sorted({key for vector in vectors for key in vector})
    dense = np.zeros((len(vectors), max(len(keys), 1)))
    index = {key: i for i, key in enumerate(keys)}
    for row, vector in enumerate(vectors):
        total = sum(vector.values())
        if total == 0:
            continue
        for key, count in vector.items():
            dense[row, index[key]] = count / total
    centered = dense - dense.mean(axis=0)
    rank = min(dim, centered.shape[0], centered.shape[1])
    if rank == 0:
        return np.zeros((len(vectors), 1))
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    components = vt[:rank]
    signs = np.sign(components[np.arange(rank),
                               np.argmax(np.abs(components), axis=1)])
    signs[signs == 0] = 1.0
    components = components * signs[:, None]
    return centered @ components.T


@dataclass
class LoopPointResult:
    """Selected marker-delimited regions for one program."""

    profile: LoopPointProfile
    clusters: List[SimPointCluster]
    kmeans: KMeansResult
    #: region name -> slice index (primaries and alternates).
    slice_of: Dict[str, int] = field(default_factory=dict)
    #: region name -> warmup depth in whole marker slices.
    warmup_slices_of: Dict[str, int] = field(default_factory=dict)

    @property
    def k(self) -> int:
        return len(self.clusters)

    def regions(self, warmup_slices: int = 1, name_prefix: str = "L",
                max_alternates: int = 0) -> List[RegionSpec]:
        """RegionSpecs (realized icount windows) for representatives
        and alternates; alternates get an ``.altN`` name suffix and
        their primary's weight, mirroring SimPoint.

        Warmup is *marker-denominated*: ``warmup_slices`` whole
        preceding slices (clipped at program start).  That keeps every
        boundary of the captured window — warmup start, region start,
        region end — on an exact work-marker crossing count, so a
        replay can locate the region by counting crossings no matter
        how the schedule (and therefore every icount) shifts.  The
        RegionSpec's ``warmup`` field carries the *realized* icount of
        those slices under the profiling schedule, which is what the
        icount-driven logger consumes.
        """
        specs: List[RegionSpec] = []
        self.slice_of.clear()
        self.warmup_slices_of.clear()
        slices = self.profile.slices
        for cluster in self.clusters:
            for rank in range(max_alternates + 1):
                slice_index = cluster.alternate(rank)
                if slice_index is None:
                    continue
                chunk = slices[slice_index]
                depth = min(warmup_slices, slice_index)
                warmup_icount = (chunk.start_icount
                                 - slices[slice_index - depth].start_icount)
                suffix = "" if rank == 0 else ".alt%d" % rank
                name = "%s%d%s" % (name_prefix, cluster.cluster_id, suffix)
                specs.append(RegionSpec(
                    start=chunk.start_icount,
                    length=chunk.icount,
                    warmup=warmup_icount,
                    name=name,
                    weight=cluster.weight,
                ))
                self.slice_of[name] = slice_index
                self.warmup_slices_of[name] = depth
        return specs

    def measure_crossings(self, name: str) -> Tuple[int, int]:
        """(skip, measure) work-marker crossing counts for replaying a
        named region: skip that many crossings after the ROI marker
        (the warmup slices), then measure over the next ``measure``
        crossings — the region itself, count-for-count."""
        slice_index = self.slice_of[name]
        skip = self.warmup_slices_of[name] * self.profile.slice_markers
        measure = sum(self.profile.slices[slice_index].vector.values())
        return skip, measure

    def marker_window(self, name: str) -> Tuple[Optional[MarkerPoint],
                                                Optional[MarkerPoint]]:
        """The marker-pair boundary of a named region (None at program
        start/end, where no marker crossing delimits the slice)."""
        chunk = self.slice_at(name)
        return chunk.start_marker, chunk.end_marker

    def slice_at(self, name: str) -> LoopSlice:
        return self.profile.slices[self.slice_of[name]]


def select_loop_regions(profile: LoopPointProfile,
                        max_k: int = 50,
                        seed: int = 42) -> LoopPointResult:
    """Cluster a LoopPoint profile and pick weighted representatives.

    Weights are *work-crossing* fractions, not instruction-count
    fractions: the whole-program extrapolation multiplies each
    representative's per-crossing rates (cycles and instructions per
    work crossing) by its cluster's share of total work, and the total
    work count — unlike the total icount — is invariant under scheduler
    perturbations, which is what makes the prediction robust when the
    measurement schedule differs from the profiling schedule.
    """
    if not profile.slices:
        raise ValueError(
            "profile has no marker-delimited slices (no work-loop "
            "markers crossed — is the workload loop-free?)")
    points = pca_project(profile.vectors)
    kmeans = cluster_points(points, max_k=max_k, seed=seed)
    crossings = [sum(s.vector.values()) for s in profile.slices]
    total_crossings = sum(crossings) or 1
    clusters: List[SimPointCluster] = []
    for cluster_id in range(kmeans.k):
        members = kmeans.members(cluster_id)
        if len(members) == 0:
            continue
        distances = kmeans.distances_to_centroid(cluster_id)
        order = np.argsort(distances, kind="stable")
        candidates = [int(members[i]) for i in order[:MAX_CANDIDATES]]
        weight = sum(crossings[int(m)] for m in members) / total_crossings
        clusters.append(SimPointCluster(
            cluster_id=cluster_id,
            weight=min(weight, 1.0),
            candidates=candidates,
        ))
    return LoopPointResult(profile=profile, clusters=clusters,
                           kmeans=kmeans)
