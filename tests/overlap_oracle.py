"""Reference overlap structure: the ``Rectangle`` formulation, kept as the test oracle.

``repro.coordinator.overlaps.FsaOverlapStructure`` stores each region as four
floats and intersects on them inline.  This module keeps the formulation it
replaced, verbatim: every stored region is a :class:`Rectangle`, ``add`` tests
a new FSA against each one through ``Rectangle.intersection`` (a validated
``Rectangle`` and two ``Point`` objects per touching region) and drops it with
``is_degenerate``, and the two scalar query loops walk the stored rectangles
and build an :class:`OverlapRegion` per improvement.  The differential in
``tests/test_overlap_properties.py`` drives both structures with the same
calls and compares them by ``repr``, so the semantics of the scalar build are
defined by the code below, not by prose.

The batched queries are the single queries mapped over their inputs, which is
what the columnar table's batched forms must equal.

:meth:`ReferenceFsaOverlapStructure.build_per_component` is the epoch's
``R_all`` under the region cap's rule — each component's ``R_all`` is capped
at ``max_regions`` in its own insertion order, a component being the
epoch's states joined, directly or through others, by FSAs that share a
point — transcribed literally: one sequential build of the whole epoch whose
``add`` counts, against the cap, only the stored regions of the added FSA's
own component, found by :func:`overlap_components`, a plain scan of every
pair of states.  The shipped stage, which splits the epoch and builds each
component alone, must equal it region for region, in order, pool by pool.

Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.core.geometry import Point, Rectangle
from repro.coordinator.overlaps import OverlapRegion, SerializedRegion

__all__ = ["ReferenceFsaOverlapStructure"]


def overlap_components(reports: Sequence[Tuple[int, Rectangle]]) -> Dict[int, int]:
    """``object_id ->`` the first submission position of its component: the
    epoch's ``(object_id, FSA)`` reports joined, directly or through others,
    by closed FSAs that share a point (an edge or a corner will do).  An
    object that reports twice is in the component of its later FSA, the one
    its ``R_all`` entry holds."""
    component = list(range(len(reports)))
    for i in range(len(reports)):
        for j in range(i + 1, len(reports)):
            if not reports[i][1].intersects(reports[j][1]):
                continue
            kept, dropped = sorted((component[i], component[j]))
            component = [kept if label == dropped else label for label in component]
    return {object_id: label for (object_id, _fsa), label in zip(reports, component)}


class ReferenceFsaOverlapStructure:
    """The ``R_all`` structure of Algorithm 2: FSAs and their overlaps with counts."""

    def __init__(
        self, max_regions: int = 10000, components: Optional[Mapping[int, int]] = None
    ) -> None:
        self._max_regions = max_regions
        self._regions: Dict[FrozenSet[int], Rectangle] = {}
        # ``object_id -> component`` when the cap counts per component, or
        # ``None`` when it counts every stored region.
        self._components = components

    @classmethod
    def build(
        cls, fsas: Mapping[int, Rectangle], max_regions: int = 10000
    ) -> "ReferenceFsaOverlapStructure":
        """Build the structure from ``object_id -> FSA`` of all reporting objects."""
        structure = cls(max_regions)
        for object_id, fsa in fsas.items():
            structure.add(object_id, fsa)
        return structure

    @classmethod
    def build_per_component(
        cls,
        reports: Union[Mapping[int, Rectangle], Sequence[Tuple[int, Rectangle]]],
        max_regions: int = 10000,
    ) -> "ReferenceFsaOverlapStructure":
        """The epoch's ``R_all`` from its ``(object_id, FSA)`` reports in
        submission order (or a map, one report per object): each object at
        its first position with its later FSA, and each component's
        ``R_all`` capped at ``max_regions`` in its own insertion order."""
        if isinstance(reports, Mapping):
            reports = list(reports.items())
        structure = cls(max_regions, overlap_components(reports))
        for object_id, fsa in dict(reports).items():
            structure.add(object_id, fsa)
        return structure

    def _stored(self, object_id: int) -> int:
        """The stored regions the cap counts when ``object_id`` is added."""
        if self._components is None:
            return len(self._regions)
        component = self._components[object_id]
        return sum(
            self._components[next(iter(members))] == component for members in self._regions
        )

    def add(self, object_id: int, fsa: Rectangle) -> None:
        """Insert one object's FSA, deriving intersections with existing regions."""
        singleton = frozenset([object_id])
        new_regions: Dict[FrozenSet[int], Rectangle] = {singleton: fsa}
        stored = self._stored(object_id)
        for members, rectangle in self._regions.items():
            if stored + len(new_regions) >= self._max_regions:
                break
            if object_id in members:
                continue
            # The (4-comparison) intersection comes first; the combined
            # member set is built only for real overlaps.
            intersection = rectangle.intersection(fsa)
            if intersection is None or intersection.is_degenerate():
                continue
            combined = members | singleton
            existing = new_regions.get(combined)
            if existing is None or intersection.area < existing.area:
                new_regions[combined] = intersection
        for members, rectangle in new_regions.items():
            current = self._regions.get(members)
            if current is not None:
                if rectangle.area < current.area:
                    self._regions[members] = rectangle
            elif stored < self._max_regions:
                self._regions[members] = rectangle
                stored += 1

    def serialized(self) -> List[SerializedRegion]:
        return [
            (tuple(sorted(members)), rect.low.x, rect.low.y, rect.high.x, rect.high.y)
            for members, rect in self._regions.items()
        ]

    def __len__(self) -> int:
        return len(self._regions)

    def regions(self) -> Iterable[OverlapRegion]:
        return (
            OverlapRegion(rectangle, members) for members, rectangle in self._regions.items()
        )

    def smallest_region_containing(self, point: Point) -> Optional[OverlapRegion]:
        best: Optional[OverlapRegion] = None
        for members, rectangle in self._regions.items():
            if not rectangle.contains_point(point):
                continue
            if best is None or rectangle.area < best.rectangle.area or (
                rectangle.area == best.rectangle.area and len(members) > best.count
            ):
                best = OverlapRegion(rectangle, members)
        return best

    def hottest_region_intersecting(self, fsa: Rectangle) -> Optional[OverlapRegion]:
        best: Optional[OverlapRegion] = None
        for members, rectangle in self._regions.items():
            if not rectangle.intersects(fsa):
                continue
            candidate = OverlapRegion(rectangle, members)
            if best is None:
                best = candidate
                continue
            if candidate.count > best.count or (
                candidate.count == best.count
                and candidate.rectangle.area < best.rectangle.area
            ):
                best = candidate
        return best

    def candidate_vertex_for(self, fsa: Rectangle) -> Optional[Tuple[Point, int]]:
        region = self.hottest_region_intersecting(fsa)
        if region is None:
            return None
        return (region.rectangle.center, region.count)

    def containing_counts(self, points: Sequence[Point]) -> List[int]:
        regions = [self.smallest_region_containing(point) for point in points]
        return [region.count if region is not None else 0 for region in regions]

    def candidate_vertices_for(
        self, fsas: Sequence[Rectangle]
    ) -> List[Optional[Tuple[Point, int]]]:
        return [self.candidate_vertex_for(fsa) for fsa in fsas]
