"""The pipeline of one group as a single object whose stages are computed
on first use and kept: corner fans and cyclic word -> leftmost game ->
partition and its crossings -> fan -> census, invariant ratios and
cluster systems.  Each cone's dual basis is read inside its chart's
call and not kept.  The stage functions take their inputs explicitly,
and the records they return are plain named tuples; this object is
where they are wired together and the one place a stage is kept."""

from __future__ import annotations

from functools import cached_property

from .clusters import ClusterSystem, cluster_system
from .corners import (
    CornerFan,
    CyclicWord,
    JuniorHulls,
    corner_chain,
    cyclic_word,
    newton_polygon,
)
from .fan import Fan, SurfaceClass, build_fan, surface_census
from .lattice import LatticeContext, junior_points
from .mmp import MMPTrace, run_mmp
from .monomials import TriangleRatios, dual_basis, triangle_ratios
from .partition import Line, Partition, RatPoint, build_partition, crossings


class Resolution:
    """Every stage of the resolution of one group, each computed at most
    once; ``system`` reads one cone's chart alone, without keeping it.
    A stage that raises is not kept, so reading it again raises again."""

    def __init__(self, ctx: LatticeContext):
        self.ctx = ctx

    @cached_property
    def hulls(self) -> JuniorHulls:
        """The junior points' hulls and counts; only ``verify`` reads them."""
        return newton_polygon(self.ctx, junior_points(self.ctx))

    @cached_property
    def fans(self) -> dict[int, CornerFan]:
        return {i: corner_chain(self.ctx, i) for i in (1, 2, 3)}

    @cached_property
    def word(self) -> CyclicWord:
        return cyclic_word(self.fans)

    @cached_property
    def game(self) -> MMPTrace:
        """The leftmost run of the contraction game on the word."""
        return run_mmp(self.word)

    @cached_property
    def partition(self) -> Partition:
        return build_partition(self.ctx, self.game)

    @cached_property
    def crossings(self) -> list[tuple[Line, Line, RatPoint]]:
        """The partition's interior line crossings, read by the knock-out
        report and the exponent-rule check."""
        return crossings(self.partition)

    @cached_property
    def fan(self) -> Fan:
        return build_fan(self.partition)

    @cached_property
    def census(self) -> list[SurfaceClass]:
        return surface_census(self.fan)

    @cached_property
    def ratios(self) -> list[TriangleRatios]:
        """Normal form of every partition triangle, by triangle index."""
        return [triangle_ratios(self.ctx, tri)
                for tri in self.partition.triangles]

    def system(self, idx: int) -> ClusterSystem:
        """Cluster system of fan cone idx, read off the cone's dual basis,
        which ``dual_basis`` checks against its closed form, and off the
        normal form of the cone's own triangle alone (neither kept)."""
        cell = self.fan.cones[idx]
        parent = triangle_ratios(self.ctx, self.partition.triangles[cell.parent])
        return cluster_system(self.ctx, cell.kind,
                              dual_basis(self.ctx, parent, cell))

    @cached_property
    def systems(self) -> list[ClusterSystem]:
        """``system`` of every fan cone, in order, off the kept ``ratios``."""
        ratios = self.ratios
        return [cluster_system(self.ctx, cell.kind,
                               dual_basis(self.ctx, ratios[cell.parent], cell))
                for cell in self.fan.cones]
