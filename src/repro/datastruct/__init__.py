"""Ordered structures used by the Eunomia service: the red–black tree the
paper's implementation is built on (§6), the run-aware :class:`RunBuffer` exploiting Algorithm 3's
per-origin monotonicity, the columnar :class:`OpBlock` batch record feeding
bulk ingestion, and the :func:`OpBuffer` strategy facade composing them into
the timestamp-ordered unstable-operation buffer."""

from .opblock import OpBlock
from .opbuffer import (
    BUFFER_BACKENDS,
    DEFAULT_BACKEND,
    OpBuffer,
    TreeOpBuffer,
)
from .rbtree import RedBlackTree
from .runbuffer import RunBuffer

__all__ = [
    "RedBlackTree",
    "OpBlock",
    "OpBuffer",
    "TreeOpBuffer",
    "RunBuffer",
    "BUFFER_BACKENDS",
    "DEFAULT_BACKEND",
]
