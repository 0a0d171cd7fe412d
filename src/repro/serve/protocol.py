"""Request/response framing for the sorting/routing service.

The service speaks three request kinds, one per Section IV application
of the adaptive binary sorters:

* ``sort`` — a 0/1 row to sort (the fabric's native primitive);
* ``concentrate`` — a 0/1 request mask; the answer is the mask with all
  requesters concentrated to the *top* outputs plus the granted count
  (the paper's 0-tag trick: concentration of binary requests *is*
  binary sorting);
* ``route`` — a destination permutation for the Fig. 10 radix permuter;
  the fabric binary-sorts each of the ``lg n`` destination bit-planes
  (one fabric lane per plane) and the service assembles the resulting
  output-port → source-index map.

The framing follows the zamlet NoC switch exemplar: each request is a
*header* (kind + width + tag) ahead of a payload, it expands to a known
number of fabric **lanes** before admission — credits are taken per
lane, never per request, so a route request cannot sneak ``lg n`` lanes
past a one-credit gate — and every response carries explicit flow-
control state (``status="shed"`` with a ``retry_after_s`` hint is the
NACK-with-backpressure path, never an exception).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from ..errors import BuildError

__all__ = [
    "KINDS",
    "ServeRequest",
    "ServeResponse",
    "concentrate_request",
    "lanes_for",
    "route_request",
    "sort_request",
]

#: Request kinds the service accepts.
KINDS = ("sort", "concentrate", "route")

#: Response statuses.  ``ok`` carries a verified answer; ``shed`` is the
#: admission-control NACK (no credits — retry after ``retry_after_s``);
#: ``error`` reports a malformed or unservable request.
STATUSES = ("ok", "shed", "error")


@dataclass(frozen=True)
class ServeRequest:
    """One service request: a kind header plus its payload row(s).

    Build these with :func:`sort_request` / :func:`concentrate_request`
    / :func:`route_request`, which validate the payload against the
    kind's contract.
    """

    kind: str  #: one of :data:`KINDS`
    payload: np.ndarray  #: 0/1 row (sort/concentrate) or permutation (route)
    tag: str = ""  #: caller label, echoed in the response and metrics

    @property
    def n(self) -> int:
        """Payload width (bits or permutation points)."""
        return int(self.payload.size)


@dataclass
class ServeResponse:
    """What the service returns for one request.

    ``status="ok"`` responses carry the verified answer; ``shed``
    responses carry no answer but a ``retry_after_s`` backoff hint and
    the credit state that caused the shed, so a well-behaved client can
    implement the credit loop without extra round trips.
    """

    status: str  #: one of :data:`STATUSES`
    kind: str
    tag: str = ""
    result: Optional[np.ndarray] = None  #: sorted row / concentrated mask / route map
    granted: Optional[int] = None  #: concentrate only: number of requesters
    queued_s: float = 0.0  #: admission -> batch dispatch
    service_s: float = 0.0  #: batch execution wall-clock share
    total_s: float = 0.0  #: submit -> response
    batch_lanes: int = 0  #: lanes in the batch that served this request
    recovered: bool = False  #: any lane needed behavioral recovery
    detections: Tuple[str, ...] = ()  #: alarm names fired on this request's lanes
    retry_after_s: float = 0.0  #: shed only: suggested client backoff
    credits_left: int = 0  #: gate credits remaining at response time
    error: str = ""  #: error only: what was wrong

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def shed(self) -> bool:
        return self.status == "shed"


def _as_bits(payload, what: str) -> np.ndarray:
    arr = np.asarray(payload, dtype=np.uint8).ravel()
    if arr.size < 1:
        raise BuildError(f"{what} payload must be non-empty")
    if arr.size and arr.max() > 1:
        raise BuildError(f"{what} payload must be a 0/1 sequence")
    return arr


def sort_request(bits, tag: str = "") -> ServeRequest:
    """A ``sort`` request: any-length 0/1 row (padded internally)."""
    return ServeRequest("sort", _as_bits(bits, "sort"), tag)


def concentrate_request(mask, tag: str = "") -> ServeRequest:
    """A ``concentrate`` request: 0/1 request mask, 1 = "wants an output"."""
    return ServeRequest("concentrate", _as_bits(mask, "concentrate"), tag)


def route_request(perm, tag: str = "") -> ServeRequest:
    """A ``route`` request: a destination permutation on ``n = 2**m`` points.

    ``perm[i]`` is the output port input ``i`` must reach; the response's
    ``result[j]`` is the source index routed to output ``j``.
    """
    arr = np.asarray(perm, dtype=np.int64).ravel()
    n = arr.size
    if n < 2 or n & (n - 1):
        raise BuildError(f"route needs a power-of-two permutation, got {n} points")
    if not np.array_equal(np.sort(arr), np.arange(n)):
        raise BuildError("route payload must be a permutation of range(n)")
    return ServeRequest("route", arr, tag)


def lanes_for(request: ServeRequest) -> int:
    """Fabric lanes this request occupies (what admission charges).

    ``sort``/``concentrate`` are one lane; ``route`` needs one binary
    sort per destination bit-plane, i.e. ``lg n`` lanes.
    """
    if request.kind == "route":
        return max(1, int(request.n).bit_length() - 1)
    return 1
