"""Deterministic generator of scaled nfmigsim scenario documents.

The document is a pure function of its parameters and the seed: the same
arguments give the same text byte for byte.  The seed only shuffles details
whose cost is the same for every seed (driver mix, host capacities, link
latencies, hosts within the starting hall, trigger halls, dirty rates), so
generated scenarios of one size cost about the same host time whatever the
seed.

Shape: ``halls`` halls of ``hosts_per_hall`` hosts.  Host 0 of each hall is
the hall's hub: every other host of the hall links to it, and the hubs form
a ring across halls.  Every fifth host uses the overlay driver, the only
driver with the high isolation the AUSF needs.  ``nfs_per_kind`` functions
of each of the six kinds in ``KINDS`` start in the UE's hall, like the
bundled drone scenario, and each of ``triggers`` mobility triggers moves
every one of them to a hall they are not in, rotating the objective through
downtime, migration time and bytes.

Functions start in one hall on purpose: a trigger into a hall where a
function already runs can pick the host it is on, and when that host is
full ``run_scenario`` raises ``InsufficientCapacityError`` from the replica
capacity check (the same-host move of ROADMAP item 4).
"""

from __future__ import annotations

import json
import random

KINDS = ("upf", "smf", "amf", "ausf", "udr", "nrf")
STATEFUL_KINDS = frozenset(KINDS) - {"upf"}
OBJECTIVES = ("downtime", "migration-time", "bytes")
NON_OVERLAY_DRIVERS = ("host", "bridge", "macvlan", "ipvlan-l2", "ipvlan-l3")
L2_DRIVERS = frozenset({"host", "bridge", "macvlan"})
PAGE_SIZE = 4096
TRIGGER_SPACING_US = 250_000
LINK_BANDWIDTH = 100_000_000


def generate(
    seed: int,
    halls: int = 4,
    hosts_per_hall: int = 25,
    nfs_per_kind: int = 15,
    triggers: int = 40,
    num_pages: int = 256,
    dirty_model: str = "constant-rate",
) -> dict:
    """A scenario document (a plain dict) for the given size and seed.

    ``dirty_model`` is ``"constant-rate"`` (40 to 60 pages/s per function)
    or ``"bernoulli"`` (a per-page probability of 1e-4 to 2e-4 per ms).
    """
    if halls < 2:
        raise ValueError(f"need at least 2 halls to move between, got {halls}")
    if hosts_per_hall < 5:
        raise ValueError(f"need at least 5 hosts per hall, got {hosts_per_hall}")
    if dirty_model not in ("constant-rate", "bernoulli"):
        raise ValueError(f"unknown dirty model '{dirty_model}'")
    rng = random.Random(seed)
    hall_names = [f"hall-{h}" for h in range(halls)]

    hosts = []
    links = []
    overlay_hosts: dict[str, list[str]] = {}
    l2_hosts: dict[str, list[str]] = {}
    other_hosts: dict[str, list[str]] = {}
    for h, hall in enumerate(hall_names):
        hub = f"h{h}-00"
        for k in range(hosts_per_hall):
            host_id = f"h{h}-{k:02d}"
            driver = "overlay" if k % 5 == 4 else rng.choice(NON_OVERLAY_DRIVERS)
            hosts.append(
                {
                    "id": host_id,
                    "hall": hall,
                    "cpu_capacity": rng.choice((6, 8)),
                    "driver": driver,
                }
            )
            if driver == "overlay":
                overlay_hosts.setdefault(hall, []).append(host_id)
            else:
                other_hosts.setdefault(hall, []).append(host_id)
                if driver in L2_DRIVERS:
                    l2_hosts.setdefault(hall, []).append(host_id)
            if k:
                links.append(
                    {
                        "a": hub,
                        "b": host_id,
                        "bandwidth_bps": LINK_BANDWIDTH,
                        "extra_latency_us": rng.randrange(0, 21),
                    }
                )
        links.append(
            {
                "a": hub,
                "b": f"h{(h + 1) % halls}-00",
                "bandwidth_bps": LINK_BANDWIDTH,
                "extra_latency_us": rng.randrange(100, 301),
            }
        )
    if halls == 2:
        links.pop()  # the ring of two halls is a single link

    start = hall_names[0]
    nfs = []
    for kind in KINDS:
        for i in range(nfs_per_kind):
            nf_id = f"{kind}-{i:02d}"
            if kind == "ausf":
                pool = overlay_hosts[start]
            elif nf_id == "upf-00" and start in l2_hosts:
                pool = l2_hosts[start]  # it anchors the Ethernet session
            else:
                pool = other_hosts[start]
            nf = {"id": nf_id, "kind": kind, "host": rng.choice(pool)}
            if kind in STATEFUL_KINDS:
                if dirty_model == "constant-rate":
                    model = {"kind": "constant-rate", "rate_pages_per_s": rng.randrange(40, 61)}
                else:
                    model = {
                        "kind": "bernoulli",
                        "p_per_page_per_ms": rng.randrange(10, 21) / 100_000,
                    }
                nf["memory"] = {
                    "num_pages": num_pages,
                    "page_size": PAGE_SIZE,
                    "working_set_fraction": 0.2,
                    "dirty_model": model,
                }
            nfs.append(nf)

    trigger_list = []
    zone = start
    for t in range(triggers):
        zone = rng.choice([hall for hall in hall_names if hall != zone])
        trigger_list.append(
            {
                "time_us": (t + 1) * TRIGGER_SPACING_US,
                "ue_id": "ue-1",
                "new_zone": zone,
                "affected_kinds": list(KINDS),
                "objective": OBJECTIVES[t % len(OBJECTIVES)],
            }
        )

    sessions = [{"id": "pdu-0", "type": "ethernet", "ue_id": "ue-1", "anchor_upf": "upf-00"}]
    sessions += [
        {"id": f"pdu-{i}", "type": "ip", "ue_id": "ue-1", "anchor_upf": f"upf-{i:02d}"}
        for i in range(1, min(nfs_per_kind, 4))
    ]
    return {
        "name": f"fleet-{halls}x{hosts_per_hall}-n{nfs_per_kind}-t{triggers}-s{seed}",
        "seed": seed,
        "duration_us": (triggers + 2) * TRIGGER_SPACING_US,
        "rtt_sample_interval_us": 100_000,
        "topology": {"hosts": hosts, "links": links},
        "ue": {"id": "ue-1", "zone": start},
        "nfs": nfs,
        "sessions": sessions,
        "triggers": trigger_list,
    }


def dumps(document: dict) -> str:
    """The canonical text of a scenario document."""
    return json.dumps(document, indent=1, sort_keys=True) + "\n"


def expected_migrations(document: dict) -> int:
    """Migration reports a run of ``document`` produces: one per affected function per trigger."""
    kinds = [nf["kind"] for nf in document["nfs"]]
    return sum(
        sum(kinds.count(kind) for kind in trigger["affected_kinds"])
        for trigger in document["triggers"]
    )
