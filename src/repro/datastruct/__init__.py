"""Ordered structures of the Eunomia service: the run-aware
:class:`RunBuffer` every stabilizer holds (it exploits Algorithm 3's
per-origin monotonicity), the columnar :class:`OpBlock` batch record feeding
its bulk ingestion, and the red–black tree the paper's implementation is
built on (§6) with the :class:`TreeOpBuffer` over it — kept as the reference
the run buffer is tested and benchmarked against."""

from .opblock import OpBlock
from .rbtree import RedBlackTree, TreeOpBuffer
from .runbuffer import RunBuffer

__all__ = [
    "RedBlackTree",
    "OpBlock",
    "TreeOpBuffer",
    "RunBuffer",
]
