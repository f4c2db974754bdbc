"""Geo-replication placement maps: which partitions each DC stores.

Real multi-region stores need not keep every partition at every
datacenter: each DC may hold a *subset* of the key space and forward
operations on the rest.  Xiang & Vaidya's *Global Stabilization for
Causally Consistent Partial Replication* (PAPERS.md) generalizes the
paper's deferred-stabilization scheme to exactly this setting, and a
:class:`PlacementMap` is the declarative input: for each DC, the set of
partition indices it stores.  Full replication is the special case
:meth:`PlacementMap.full`, and it takes the same path as every other map
— the spine has no second, placement-free wiring.

The map is consumed in three places:

* **wiring** (:mod:`repro.geo.system` / :mod:`repro.geo.datacenter`):
  every DC constructs all N partitions in index order (so the per-DC
  clock RNG streams — and hence the goldens — do not depend on the
  placement) but starts and links only the ones it stores; sibling links
  and propagator → receiver edges exist only between DCs whose resident
  sets overlap, and each client's routing table points every index at
  its nearest resident DC (itself when resident: read/write forwarding);
* **the stable cut**: Eunomia stabilizers min their ``PartitionTime`` over
  resident partitions only, receivers queue only overlapping origins and
  skip stream entries for partitions they do not store, and the GST/GSV
  summaries in :mod:`repro.baselines.gst` are computed over *tracked*
  origins only — so a DC that stores no partition from some origin never
  stalls on it;
* **checking**: convergence is per-partition across that partition's
  resident DCs, and :meth:`repro.checker.causal.CausalChecker.
  check_placement_routing` asserts every operation was served by a
  resident DC.

``PLACEMENT_POLICIES`` names the spec-string forms accepted by
:meth:`PlacementMap.from_spec`; explicit per-DC maps (``"dc0=0,1;..."``
or a dict) cover everything else.
"""

from __future__ import annotations

from typing import Optional, Union

__all__ = ["PlacementMap", "PLACEMENT_POLICIES"]

#: spec-string policies understood by :meth:`PlacementMap.from_spec`
PLACEMENT_POLICIES = ("full", "stride")


class PlacementMap:
    """Which partition indices each datacenter stores.

    Invariants enforced at construction: indices are in range, every
    partition is resident at ≥ 1 DC (otherwise its keys are unservable),
    and every DC stores ≥ 1 partition (a storage-less DC has no site
    clock consumers and would degenerate to a pure client region, which
    the spine does not model).
    """

    __slots__ = ("n_dcs", "n_partitions", "_resident", "_sets", "_homes")

    def __init__(self, n_dcs: int, n_partitions: int,
                 resident: dict[int, "list[int] | tuple[int, ...]"]):
        if n_dcs < 1 or n_partitions < 1:
            raise ValueError("placement needs at least one DC and partition")
        table = []
        for dc in range(n_dcs):
            indices = sorted(set(resident.get(dc, ())))
            if not indices:
                raise ValueError(f"placement leaves dc{dc} storing nothing")
            if indices[0] < 0 or indices[-1] >= n_partitions:
                raise ValueError(
                    f"placement for dc{dc} names partition indices outside "
                    f"0..{n_partitions - 1}: {indices}")
            table.append(tuple(indices))
        extra = set(resident) - set(range(n_dcs))
        if extra:
            raise ValueError(f"placement names unknown DCs {sorted(extra)}")
        homes = []
        for p in range(n_partitions):
            dcs = tuple(dc for dc in range(n_dcs) if p in table[dc])
            if not dcs:
                raise ValueError(f"partition {p} is resident nowhere")
            homes.append(dcs)
        self.n_dcs = n_dcs
        self.n_partitions = n_partitions
        self._resident = tuple(table)
        self._sets = tuple(frozenset(t) for t in table)
        self._homes = tuple(homes)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def full(cls, n_dcs: int, n_partitions: int) -> "PlacementMap":
        """Every DC stores everything — today's (and the goldens') shape."""
        allp = tuple(range(n_partitions))
        return cls(n_dcs, n_partitions, {dc: allp for dc in range(n_dcs)})

    @classmethod
    def stride(cls, n_dcs: int, n_partitions: int,
               copies: int) -> "PlacementMap":
        """Partition ``p`` resident at the ``copies`` DCs ``(p + j) % M``.

        ``copies == n_dcs`` reduces to :meth:`full`; ``copies == 1`` is
        single-copy placement (maximum locality, no geo-redundancy).
        """
        if not 1 <= copies <= n_dcs:
            raise ValueError(
                f"stride placement needs 1 <= copies <= {n_dcs}, "
                f"got {copies}")
        resident: dict[int, list[int]] = {dc: [] for dc in range(n_dcs)}
        for p in range(n_partitions):
            for j in range(copies):
                resident[(p + j) % n_dcs].append(p)
        return cls(n_dcs, n_partitions, resident)

    @classmethod
    def from_spec(cls, n_dcs: int, n_partitions: int,
                  spec: Union[None, str, dict, "PlacementMap"]
                  ) -> "PlacementMap":
        """Build from the ``GeoSystemSpec.placement`` knob.

        Accepts ``None``/``"full"``, ``"stride:K"`` (K copies per
        partition), an explicit string ``"dc0=0,1;dc1=2,3;..."``, an
        explicit ``{dc: indices}`` dict, or an existing map (validated
        against the deployment shape).
        """
        if spec is None or spec == "full":
            return cls.full(n_dcs, n_partitions)
        if isinstance(spec, PlacementMap):
            if (spec.n_dcs, spec.n_partitions) != (n_dcs, n_partitions):
                raise ValueError(
                    f"placement map is for {spec.n_dcs} DCs x "
                    f"{spec.n_partitions} partitions, deployment has "
                    f"{n_dcs} x {n_partitions}")
            return spec
        if isinstance(spec, dict):
            return cls(n_dcs, n_partitions, spec)
        if isinstance(spec, str):
            if spec.startswith("stride:"):
                return cls.stride(n_dcs, n_partitions, int(spec[7:]))
            if "=" in spec:
                resident: dict[int, list[int]] = {}
                for part in spec.split(";"):
                    part = part.strip()
                    if not part:
                        continue
                    name, _, body = part.partition("=")
                    dc = int(name.strip().removeprefix("dc"))
                    resident[dc] = [int(tok) for tok in body.split(",")
                                    if tok.strip()]
                return cls(n_dcs, n_partitions, resident)
        raise ValueError(f"cannot parse placement spec {spec!r} "
                         f"(policies: {', '.join(PLACEMENT_POLICIES)}, "
                         f"or an explicit 'dc0=0,1;...' map)")

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def is_resident(self, dc: int, index: int) -> bool:
        return index in self._sets[dc]

    def resident_partitions(self, dc: int) -> tuple[int, ...]:
        """Ascending partition indices stored at ``dc``."""
        return self._resident[dc]

    def residents(self, index: int) -> tuple[int, ...]:
        """Ascending DC ids storing partition ``index``."""
        return self._homes[index]

    def overlaps(self, a: int, b: int) -> bool:
        """Do DCs ``a`` and ``b`` store any partition in common?

        This is exactly the condition under which a metadata/data stream
        flows between them: ``a``'s stable stream matters to ``b`` iff
        some partition is resident at both.
        """
        return not self._sets[a].isdisjoint(self._sets[b])

    def nearest_resident(self, dc: int, index: int, rtt=None) -> int:
        """The DC that serves ``(dc, index)``: itself when resident, else
        the resident DC with the smallest one-way delay (ties broken by
        DC id; without an ``rtt`` model, the lowest resident DC id)."""
        if index in self._sets[dc]:
            return dc
        homes = self._homes[index]
        if rtt is None:
            return homes[0]
        return min(homes, key=lambda d: (rtt.one_way_s(dc, d), d))

    def island_dcs(self) -> tuple[int, ...]:
        """DCs sharing no partition with any other DC.

        An island exchanges no replication traffic at all, so a
        whole-region outage there cannot lose inter-DC messages — the
        shape the chaos matrix's ``region_outage`` fault requires.
        """
        return tuple(
            m for m in range(self.n_dcs)
            if not any(self.overlaps(m, k)
                       for k in range(self.n_dcs) if k != m))

    def describe(self) -> str:
        """Canonical explicit spec string (parsable by :meth:`from_spec`)."""
        return ";".join(
            f"dc{dc}=" + ",".join(str(p) for p in self._resident[dc])
            for dc in range(self.n_dcs))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PlacementMap({self.describe()!r})"

    def __eq__(self, other) -> bool:
        return (isinstance(other, PlacementMap)
                and self._resident == other._resident)

    def __hash__(self) -> int:
        return hash(self._resident)
