"""The loop's heap has one door, and this scan keeps it that way.

docs/ARCHITECTURE.md, "Simulator hot path", states the rule: outside
``sim/loop.py`` every entry reaches ``EventLoop``'s heap through the
``schedule_at`` or ``every`` attribute, looked up at call time
(``perf/trace.py`` patches ``schedule_at``, which ``every`` calls for a
period Fifo's head); only the loop's own module, where a ``Fifo`` moves
its parked entries or fires them in place, touches the heap, the seq
counter, the timer table or ``run``'s bound.  A cached bound
``schedule_at`` would escape the tracer, a ``heappush`` with a fresh
``seq`` would reorder same-instant entries, an entry parked by hand in a
period's Fifo could precede its head, and a moved bound would let a Fifo
fire past ``run(until=...)``.

The scan reads ``src/repro`` as syntax, not by running it:

* no module but ``sim/loop.py`` touches a loop's ``_heap``, ``_seq``,
  ``_periods`` or ``_until``, or imports ``heappush``;
* no module but ``sim/loop.py`` calls ``heappush(...)``;
* nothing in ``src/repro`` holds ``schedule_at`` or ``every`` without
  calling it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: the module that owns the heap, its seq counter and ``Fifo``
LOOP = Path("sim") / "loop.py"

#: loop attributes only ``sim/loop.py`` may touch: the timer table and
#: ``run``'s bound (``_heap`` and the loop's ``_seq`` are checked apart)
LOOP_PRIVATE = ("_periods", "_until")

#: the loop's scheduling doors, called where they are looked up
DOORS = ("schedule_at", "every")

#: direct ``heappush(...)`` calls in ``sim/`` beside ``loop.py``; never
#: raise it.
HEAPPUSH_SITES = 0


def _modules() -> list[tuple[Path, ast.AST]]:
    return [(path.relative_to(SRC),
             ast.parse(path.read_text(encoding="utf-8"), str(path)))
            for path in sorted(SRC.rglob("*.py"))]


def _is_loop(node: ast.AST) -> bool:
    """``loop``, ``_loop``, ``self._loop``, ``env.loop`` …"""
    name = (node.id if isinstance(node, ast.Name)
            else node.attr if isinstance(node, ast.Attribute) else "")
    return name in ("loop", "_loop")


def _door_violations(rel: Path, tree: ast.AST) -> list[str]:
    """Where a module other than the loop's reaches past ``schedule_at``."""
    if rel == LOOP:
        return []
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and (
                node.attr == "_heap"
                or node.attr == "_seq" and _is_loop(node.value)
                or node.attr in LOOP_PRIVATE
                or node.attr == "heappush"):
            found.append(f"{rel}:{node.lineno}: .{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "heapq" \
                and any(alias.name == "heappush" for alias in node.names):
            found.append(f"{rel}:{node.lineno}: imports heappush")
    return found


def _heappush_calls(tree: ast.AST) -> list[int]:
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and (isinstance(node.func, ast.Name) and node.func.id == "heappush"
                 or isinstance(node.func, ast.Attribute)
                 and node.func.attr == "heappush")]


def _held_schedule_at(rel: Path, tree: ast.AST) -> list[str]:
    """``schedule_at`` or ``every`` read as a value instead of called on
    the spot."""
    called = {id(node.func) for node in ast.walk(tree)
              if isinstance(node, ast.Call)}
    return [f"{rel}:{node.lineno}: {node.attr} held, not called"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in DOORS
            and id(node) not in called]


def test_no_module_outside_sim_touches_the_heap_or_the_loop_seq():
    """Nor does any module inside ``sim/`` but the loop's own."""
    found = [hit for rel, tree in _modules()
             for hit in _door_violations(rel, tree)]
    assert found == []


def test_direct_heappush_sites_in_sim_do_not_grow():
    sites = {f"{rel}:{line}" for rel, tree in _modules()
             if rel.parts[0] == "sim" and rel != LOOP
             for line in _heappush_calls(tree)}
    assert len(sites) <= HEAPPUSH_SITES, sorted(sites)


def test_schedule_at_is_called_where_it_is_looked_up():
    found = [hit for rel, tree in _modules()
             for hit in _held_schedule_at(rel, tree)]
    assert found == []


def test_the_scan_flags_each_kind_of_third_door():
    """The scan has teeth: each way round the door is reported."""
    rel = Path("core") / "door.py"
    doors = {
        "heap": "self.host._loop._heap.append(entry)",
        "seq": "seq = env.loop._seq",
        "import": "from heapq import heappop, heappush",
        "module": "heapq.heappush(self._loop._heap, entry)",
        "periods": "lane = host._loop._periods[step]",
        "until": "late = when > self._loop._until",
    }
    for kind, source in doors.items():
        assert _door_violations(rel, ast.parse(source)), kind
    # a process's own ``_seq`` counter is not the loop's
    assert _door_violations(
        rel, ast.parse("self._seq = seq = self._seq + 1")) == []
    # inside ``sim/`` only the loop's own module may read the counter
    read = ast.parse("seq = self._loop._seq")
    assert _door_violations(Path("sim") / "process.py", read)
    assert _door_violations(LOOP, read) == []
    assert _held_schedule_at(
        rel, ast.parse("arm = loop.schedule_at\narm(1.0, fn)"))
    assert _held_schedule_at(
        rel, ast.parse("loop.schedule_at(loop._now + step, fn)")) == []
    assert _held_schedule_at(
        rel, ast.parse("self._rearm = host._loop.every"))
    assert _held_schedule_at(
        rel, ast.parse("host._loop.every(step, self._tick, a, b)")) == []
    assert _heappush_calls(ast.parse("heappush(heap, e)\nq.heappush(h, e)")) \
        == [1, 2]
