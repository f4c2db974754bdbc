"""Reads of an op buffer that only the tests make.

:class:`repro.datastruct.RunBuffer` ships the drains its gates call and
nothing else; these two reads compare it with its §6 tree reference
(``TreeOpBuffer`` in ``rbtree.py``, which has both as methods) and
inspect a stabilizer's buffer.  A tree buffer answers for itself.
"""

from repro.datastruct import RunBuffer

__all__ = ["contains", "min_ts"]


def min_ts(buffer):
    """Key of the oldest entry, or None when empty: a min over the run
    heads, each run's minimum."""
    if not isinstance(buffer, RunBuffer):
        return buffer.min_ts()
    heads = [run[0][0] for run in buffer._runs.values() if run]
    return min(heads) if heads else None


def contains(buffer, ts, origin, seq) -> bool:
    """Is the entry keyed ``(ts, origin, seq)`` buffered?"""
    if not isinstance(buffer, RunBuffer):
        return buffer.contains(ts, origin, seq)
    return any(entry[:3] == (ts, origin, seq)
               for entry in buffer._runs.get(origin, ()))
