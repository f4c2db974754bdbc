"""Ordered structures of the Eunomia service: the run-aware
:class:`RunBuffer` every stabilizer holds (it exploits Algorithm 3's
per-origin monotonicity, and takes a frame's accepted suffix as one run
extension), the uplink's pending :class:`OpRunBuilder`, and the red–black
tree the paper's implementation is built on (§6) with the
:class:`TreeOpBuffer` over it — kept as the reference the run buffer is
tested and benchmarked against."""

from .opblock import OpRunBuilder
from .rbtree import RedBlackTree, TreeOpBuffer
from .runbuffer import RunBuffer

__all__ = [
    "RedBlackTree",
    "OpRunBuilder",
    "TreeOpBuffer",
    "RunBuffer",
]
