"""SimPoint region selection: representatives, alternates, weights.

For each cluster, the slice closest to the centroid is the
*representative* (the simulation point); the next-closest slices are
*alternates*, which the paper uses to recover coverage when an ELFie
for the primary representative fails to execute correctly (§I-B:
"alternate region selection ... to increase coverage up to 90%+").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.pinplay.regions import RegionSpec
from repro.simpoint.bbv import BBVProfile
from repro.simpoint.kmeans import KMeansResult, cluster_vectors

#: Candidate slices kept per cluster, nearest the centroid first: the
#: representative and the alternates behind it.
MAX_CANDIDATES = 4


@dataclass
class SimPointCluster:
    """One phase cluster and its candidate slices."""

    cluster_id: int
    weight: float
    #: Slice indices ordered by distance to the centroid (best first).
    candidates: List[int]

    @property
    def representative(self) -> int:
        return self.candidates[0]

    def alternate(self, rank: int) -> Optional[int]:
        """The rank-th best representative (0 = primary)."""
        if rank < len(self.candidates):
            return self.candidates[rank]
        return None


@dataclass
class SimPointResult:
    """Selected simulation points for one program."""

    slice_size: int
    clusters: List[SimPointCluster]
    kmeans: KMeansResult

    @property
    def k(self) -> int:
        return len(self.clusters)

    def regions(self, warmup: int = 0, name_prefix: str = "r",
                max_alternates: int = 0) -> List[RegionSpec]:
        """RegionSpecs for representatives (rank 0) and alternates.

        Alternates carry the same weight as their primary and a name
        suffix ``.altN``.
        """
        specs: List[RegionSpec] = []
        for cluster in self.clusters:
            for rank in range(max_alternates + 1):
                slice_index = cluster.alternate(rank)
                if slice_index is None:
                    continue
                suffix = "" if rank == 0 else ".alt%d" % rank
                specs.append(
                    RegionSpec(
                        start=slice_index * self.slice_size,
                        length=self.slice_size,
                        warmup=warmup,
                        name="%s%d%s" % (name_prefix, cluster.cluster_id,
                                         suffix),
                        weight=cluster.weight,
                    )
                )
        return specs


def select_simpoints(profile: BBVProfile, max_k: int = 50,
                     seed: int = 42) -> SimPointResult:
    """Cluster a BBV profile and pick representatives + alternates."""
    kmeans = cluster_vectors(profile.vectors, max_k=max_k, seed=seed)
    total = len(profile.vectors)
    clusters: List[SimPointCluster] = []
    for cluster_id in range(kmeans.k):
        members = kmeans.members(cluster_id)
        if len(members) == 0:
            continue
        distances = kmeans.distances_to_centroid(cluster_id)
        order = np.argsort(distances, kind="stable")
        candidates = [int(members[i]) for i in order[:MAX_CANDIDATES]]
        clusters.append(
            SimPointCluster(
                cluster_id=cluster_id,
                weight=len(members) / total,
                candidates=candidates,
            )
        )
    return SimPointResult(slice_size=profile.slice_size, clusters=clusters,
                          kmeans=kmeans)
