"""2-D mesh topology with dimension-order routing.

Only hop *counts* matter for timing (the paper models contention at the
endpoints of a message, not at intermediate switches), but the full
dimension-order route is exposed for tests and for the optional
per-switch traffic census used by the network-utilization report.
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from typing import Iterator, Sequence, Tuple

from repro.config import SystemConfig


@lru_cache(maxsize=None)
def hop_table(width: int, height: int) -> Sequence[int]:
    """Row-major ``n x n`` hop counts of a ``width x height`` mesh.

    Built once per mesh shape (a process runs few shapes) and shared by
    every machine of that shape — a 1024-node table has a million
    entries.  The table is immutable: ``bytes``, unless the mesh is so
    elongated that a route exceeds 255 hops, then a tuple.
    """
    code = "B" if width + height - 2 < 256 else "I"
    # shifted[sx][k]: hops from column sx to every column of a row k
    # rows away; a source's table row is one such run per row.
    shifted = [
        [array(code, [abs(sx - dx) + k for dx in range(width)])
         for k in range(height)]
        for sx in range(width)
    ]
    table = array(code)
    for sy in range(height):
        for sx in range(width):
            runs = shifted[sx]
            for dy in range(height):
                table += runs[abs(sy - dy)]
    return table.tobytes() if code == "B" else tuple(table)


class Mesh:
    """A ``w x h`` mesh of nodes numbered row-major."""

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        self.width, self.height = config.mesh_dims
        self.n = config.n_procs
        if self.width * self.height != self.n:
            raise ValueError("mesh dimensions do not cover all nodes")
        # The full hop-count matrix is read on every message send, so a
        # flat table lookup beats recomputing Manhattan distance.  The
        # fabric indexes it directly: ``hop_table[src * n + dst]``.
        self.hop_table = hop_table(self.width, self.height)

    def coords(self, node: int) -> Tuple[int, int]:
        return node % self.width, node // self.width

    def node_at(self, x: int, y: int) -> int:
        return y * self.width + x

    def hops(self, src: int, dst: int) -> int:
        return self.hop_table[src * self.n + dst]

    def route(self, src: int, dst: int) -> Iterator[int]:
        """Dimension-order (X then Y) route, yielding intermediate nodes.

        Yields every node on the path from ``src`` to ``dst`` inclusive.
        """
        x, y = self.coords(src)
        dx, dy = self.coords(dst)
        yield src
        while x != dx:
            x += 1 if dx > x else -1
            yield self.node_at(x, y)
        while y != dy:
            y += 1 if dy > y else -1
            yield self.node_at(x, y)

    def average_distance(self) -> float:
        """Mean hop count over all ordered pairs of distinct nodes."""
        if self.n == 1:
            return 0.0
        total = sum(self.hop_table)
        return total / (self.n * (self.n - 1))
