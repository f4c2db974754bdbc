#!/usr/bin/env python3
"""Why causality matters: a geo-replicated social feed.

The classic three-datacenter anomaly (COPS' motivating example):

* **Alice** (dc2) posts.
* **Bob** (dc1) sees the post ~40 ms later and replies.
* **Carol** (dc3) is 100 ms from Alice but only 40 ms from Bob — so under
  eventual consistency Bob's *reply* arrives at Carol's datacenter tens of
  milliseconds **before** the post it answers.  Carol sees an orphaned
  comment.

EunomiaKV's receiver (Alg. 5) holds Bob's comment until its causal
dependency — Alice's post, named in the comment's vector timestamp — has
been applied locally, so the anomaly is impossible by construction.

This script drives both systems through the same scenario and counts
orphaned comments Carol actually observes.

Run:
    python examples/social_network.py
"""

from repro import GeoSystemSpec, WorkloadSpec, build_geo_system
from repro.core.messages import ClientRead, ClientUpdate
from repro.sim.latency import RttMatrix
from repro.sim.process import Process

#: dc1<->dc2 and dc1<->dc3 are 80 ms apart; dc2<->dc3 is a slow 200 ms path.
TRIANGLE = RttMatrix([[0.0, 80.0, 80.0],
                      [80.0, 0.0, 200.0],
                      [80.0, 200.0, 0.0]])

ALICE_DC, BOB_DC, CAROL_DC = 1, 0, 2
PAIR_INTERVAL = 0.15  # a new post every 150 ms


class Session(Process):
    """Minimal causal client session shared by the three actors."""

    def __init__(self, env, name, dc, partitions, ring, width):
        super().__init__(env, name, site=dc)
        self.partitions = partitions
        self.ring = ring
        self.vclock = (0,) * width
        self._req = 0

    def read(self, key):
        self._req += 1
        self.send(self.partitions[self.ring.partition_for(key)],
                  ClientRead(key, request_id=self._req))

    def write(self, key, value):
        self._req += 1
        self.send(self.partitions[self.ring.partition_for(key)],
                  ClientUpdate(key, value, self.vclock,
                               request_id=self._req))

    def merge(self, vts):
        if vts:
            self.vclock = tuple(max(a, b) for a, b in zip(self.vclock, vts))

    def on_client_update_reply(self, msg, src):
        self.merge(msg.vts)
        self.after(0.0, self.on_write_done)

    def on_client_read_reply(self, msg, src):
        self.merge(msg.vts)
        self.on_value(msg.key, msg.value)

    def on_write_done(self):  # pragma: no cover - overridden
        pass

    def on_value(self, key, value):  # pragma: no cover - overridden
        pass


class Alice(Session):
    """Posts every PAIR_INTERVAL seconds."""

    def __init__(self, *args):
        super().__init__(*args)
        self.pair = 0

    def start(self):
        self.write(f"post:{self.pair}", f"alice's post #{self.pair}")

    def on_write_done(self):
        self.pair += 1
        self.after(PAIR_INTERVAL, self.start)


class Bob(Session):
    """Replies to each post the moment he sees it."""

    def __init__(self, *args):
        super().__init__(*args)
        self.pair = 0

    def start(self):
        self.read(f"post:{self.pair}")

    def on_value(self, key, value):
        if value is None:
            self.after(0.005, self.start)  # not replicated yet, poll again
        else:
            # The read merged the post's vector into Bob's session clock,
            # so the comment causally depends on the post.
            self.write(f"comment:{self.pair}", f"bob replies to #{self.pair}")

    def on_write_done(self):
        self.pair += 1
        self.start()


class Carol(Session):
    """Checks: whenever a comment is visible, its post must be too."""

    def __init__(self, *args):
        super().__init__(*args)
        self.pair = 0
        self.checked = 0
        self.orphans = 0
        self._stage = "comment"

    def start(self):
        self._stage = "comment"
        self.read(f"comment:{self.pair}")

    def on_value(self, key, value):
        if self._stage == "comment":
            if value is None:
                self.after(0.002, self.start)
                return
            self._stage = "post"
            self.read(f"post:{self.pair}")
        else:
            self.checked += 1
            if value is None:
                self.orphans += 1  # comment without its post!
            self.pair += 1
            self.after(0.0, self.start)


def run_scenario(protocol: str) -> tuple[int, int]:
    spec = GeoSystemSpec(n_dcs=3, partitions_per_dc=4, clients_per_dc=1,
                         seed=7, rtt=TRIANGLE)
    system = build_geo_system(protocol, spec, WorkloadSpec(read_ratio=1.0))
    for client in system.clients:
        client.stop()  # the actors below replace the generic workload
    ring = system.clients[0].ring
    width = len(system.clients[0].vclock)

    def actor(cls, name, dc):
        return cls(system.env, name, dc,
                   system.datacenters[dc].partitions, ring, width)

    alice = actor(Alice, "alice", ALICE_DC)
    bob = actor(Bob, "bob", BOB_DC)
    carol = actor(Carol, "carol", CAROL_DC)
    system.start()
    alice.start()
    bob.start()
    carol.start()
    system.env.run(until=30.0)
    return carol.checked, carol.orphans


def main() -> None:
    print(__doc__.split("Run:")[0])
    for protocol in ("eventual", "eunomia"):
        checked, orphans = run_scenario(protocol)
        verdict = ("CAUSALITY VIOLATED" if orphans
                   else "no anomalies")
        print(f"{protocol:>9}: Carol checked {checked:3d} comment/post "
              f"pairs, {orphans:3d} orphaned comments -> {verdict}")


if __name__ == "__main__":
    main()
