"""The benchmark's named workloads and their seed document.

Every workload serves the paper's update dataset, Hamlet (6,636 nodes,
``build_hamlet()``), under the paper's scheme (``V-CDBS-Containment``)
with the ``ServiceConfig`` defaults: group commit with
``max_batch=32``, one fsync per batch, and the engine's checkpoint
policy of 64 commits or 256 KiB.  Requests arrive in an open loop at a
fixed offered rate; a closed-loop saturation phase then measures write
capacity.  ``README.md`` says why the rates are what they are.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.datasets.shakespeare import build_hamlet
from repro.xmltree import serialize_document

__all__ = [
    "OPEN_SHARE",
    "SCHEME",
    "SCRIPT_RATE",
    "WINDOW",
    "WORKLOADS",
    "Workload",
    "seed_xml",
]

SCHEME = "V-CDBS-Containment"
#: Share of a run's seconds spent in the open loop; the rest is the
#: saturation phase.
OPEN_SHARE = 0.7
#: Writes the saturation phase keeps in flight (under the service's
#: max_queue_depth of 256, so none is refused).
WINDOW = 64
#: Writes/s the op script is sized for in the saturation phase (twice
#: the seed's capacity); the phase ends early, with its capacity still
#: measured, if the script runs out.
SCRIPT_RATE = 320.0


@dataclass(frozen=True)
class Workload:
    """One traffic mix against the seed document.

    ``rate`` is the offered open-loop rate in requests per second, of
    which ``read_share`` are reads, spread over ``threads`` generator
    threads.  During the saturation phase, a workload with reads keeps
    ``threads`` readers busy alongside the writes in flight.
    """

    name: str
    rate: float
    read_share: float
    threads: int


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="hamlet-edit",
            rate=60.0,
            read_share=0.0,
            threads=1,
        ),
        Workload(
            name="hamlet-read",
            rate=120.0,
            read_share=0.5,
            threads=2,
        ),
    )
}


def seed_xml() -> str:
    """The serialized seed document every workload starts from."""
    return serialize_document(build_hamlet())
