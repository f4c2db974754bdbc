"""Ordered structures: :class:`RunBuffer`, per-origin monotone runs (the
one deferral structure behind the stabilizer's unstable set, the GST
deferred set and the receiver's queues), and the uplink's pending
:class:`OpRunBuilder`.  The red–black tree the paper's implementation is
built on (§6) and the ``TreeOpBuffer`` over it live in ``tests/rbtree.py``,
the reference the run buffer is tested and benchmarked against."""

from .opblock import OpRunBuilder
from .runbuffer import RunBuffer

__all__ = [
    "OpRunBuilder",
    "RunBuffer",
]
