"""Ordered structures: :class:`RunBuffer`, per-origin monotone runs (the
one deferral structure behind the stabilizer's unstable set, the GST
deferred set and the receiver's queues), the uplink's pending
:class:`OpRunBuilder`, and the red–black tree the paper's implementation
is built on (§6) with the :class:`TreeOpBuffer` over it — kept as the
reference the run buffer is tested and benchmarked against."""

from .opblock import OpRunBuilder
from .rbtree import RedBlackTree, TreeOpBuffer
from .runbuffer import RunBuffer

__all__ = [
    "RedBlackTree",
    "OpRunBuilder",
    "TreeOpBuffer",
    "RunBuffer",
]
