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

Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.core.geometry import Point, Rectangle
from repro.coordinator.overlaps import OverlapRegion, SerializedRegion

__all__ = ["ReferenceFsaOverlapStructure"]


class ReferenceFsaOverlapStructure:
    """The ``R_all`` structure of Algorithm 2: FSAs and their overlaps with counts."""

    def __init__(self, max_regions: int = 10000) -> None:
        self._max_regions = max_regions
        self._regions: Dict[FrozenSet[int], Rectangle] = {}

    @classmethod
    def build(
        cls, fsas: Mapping[int, Rectangle], max_regions: int = 10000
    ) -> "ReferenceFsaOverlapStructure":
        """Build the structure from ``object_id -> FSA`` of all reporting objects."""
        structure = cls(max_regions)
        for object_id, fsa in fsas.items():
            structure.add(object_id, fsa)
        return structure

    def add(self, object_id: int, fsa: Rectangle) -> None:
        """Insert one object's FSA, deriving intersections with existing regions."""
        singleton = frozenset([object_id])
        new_regions: Dict[FrozenSet[int], Rectangle] = {singleton: fsa}
        for members, rectangle in self._regions.items():
            if len(self._regions) + len(new_regions) >= self._max_regions:
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
            elif len(self._regions) < self._max_regions:
                self._regions[members] = rectangle

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
