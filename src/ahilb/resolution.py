"""The pipeline of one group as a single object whose stages are computed
on first use and kept: corner fans and cyclic word -> leftmost game ->
partition and its crossings -> fan -> census, invariant ratios and
cluster systems.  The charts are read one (triangle, kind) at a time,
and no dual basis is kept.  The stage functions take their inputs explicitly,
and the records they return are plain named tuples; this object is
where they are wired together and the one place a stage is kept."""

from __future__ import annotations

from functools import cached_property
from itertools import groupby
from operator import itemgetter

from .clusters import ClusterSystem, cluster_system
from .corners import (
    CornerFan,
    CyclicWord,
    JuniorHulls,
    corner_chain,
    cyclic_word,
    newton_polygon,
)
from .fan import BasicTriangle, Fan, SurfaceClass, build_fan, surface_census
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
        """Cluster system of fan cone idx, read off the normal form of the
        cone's own triangle and the charts of its own kind (neither kept)."""
        cell = self.fan.cones[idx]
        parent = triangle_ratios(self.ctx, self.partition.triangles[cell.parent])
        cells = [c for c in self.fan.cones if c[:2] == cell[:2]]
        return kind_charts(self.ctx, parent, cells)(cell)

    @cached_property
    def systems(self) -> list[ClusterSystem]:
        """``system`` of every fan cone, in order, off the kept ``ratios``;
        the fan keeps each (triangle, kind)'s cells together."""
        out = []
        for (t, _), group in groupby(self.fan.cones, key=itemgetter(0, 1)):
            cells = list(group)
            out += map(kind_charts(self.ctx, self.ratios[t], cells), cells)
        return out


def kind_charts(ctx: LatticeContext, parent: TriangleRatios,
                cells: list[BasicTriangle]):
    """The chart reader of one (triangle, kind)'s cells.  Up to three take
    the per-cone route each, ``dual_basis`` then ``cluster_system``.  More
    take it at the corner cells, one step d above the other two, both lo
    (0 up, 1 down); the rest add up the affine map through the corners,
    which is the route's system on every cell:
    1. A cell is a translate V + T of a corner cell, (1,1,1).T = 0, and
       its solved rows are D_s - (D_s.T/n)(1,1,1), as (1,1,1).V_t = n: the
       solve is affine in the cell, as is ``formula_dual``, so agreeing at
       three affinely independent cells they agree on all.  The vertex-to-
       role map is fixed in a kind; integer rows move by whole multiples
       of (1,1,1) per step, so the steps divide.
    2. A Laurent vector is a row, (1,1,1) minus one, or (1,1,1): it moves
       by multiples of the invariant (1,1,1), keeping its character.  The
       count relations are affine, and i+j+k is fixed: they hold too.
    3. An affine function on the cells is least at a corner, so the
       corners' sign test covers all; shifts by (1,1,1) keep where a row
       is largest and least, so each cell has the corners' sign pattern."""
    if len(cells) <= 3:
        return lambda cell: cluster_system(ctx, cell.kind,
                                           dual_basis(ctx, parent, cell))
    kind = cells[0].kind
    lo = int(kind == "down")
    d = sum(cells[0].steps) - 3 * lo
    at = {cell.steps: cell for cell in cells}
    corners = [cluster_system(ctx, kind, dual_basis(ctx, parent, at[s]))
               for s in ((lo + d, lo, lo), (lo, lo + d, lo), (lo, lo, lo + d))]
    terms = [(z - lo * (x + y - 2 * z) // d, (x - z) // d, (y - z) // d)
             for x, y, z in zip(*(c.exponents() for c in corners))]

    def chart(cell: BasicTriangle) -> ClusterSystem:
        i, j, _ = cell.steps
        return ClusterSystem(kind, *[b + i * x + j * y for b, x, y in terms])
    return chart
