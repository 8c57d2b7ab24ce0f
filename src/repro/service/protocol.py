"""Wire protocol of the reliability query service.

The service speaks newline-delimited JSON over a stream: every request
is one JSON object on one line, every response one JSON object on one
line carrying the request's ``id``.  The protocol is deliberately
boring -- any language with sockets and a JSON parser is a client.

Request (``op: "query"``)::

    {"op": "query", "id": 1, "width": 16, "kind": "column",
     "years": [0.0, 10.0], "num_patterns": 2000, "seed": 1,
     "cycle_ns": 6.5, "deadline_ms": 250}

Other ops: ``ping`` (liveness), ``stats`` (service counters),
``shutdown`` (stop serving; used by CI and the bench harness).

Response statuses form the degradation matrix (DESIGN.md section 13):

* ``ok`` -- fresh results, one record per requested year;
* ``degraded`` -- the backend missed the deadline or crashed, but a
  previously computed (possibly different-year) result was available:
  ``results`` carries that stale data and ``degraded`` says why;
* ``error`` -- a typed error record (no stale data available, or the
  request itself was invalid).  The connection always survives.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ServiceError

#: Protocol tag + version stamped into every response.
PROTOCOL = "repro-reliability"
PROTOCOL_VERSION = 1

#: Operations a request may carry.
OPS = ("query", "ping", "stats", "shutdown")

#: Designs the service accepts (mirrors the experiment registry).
KNOWN_KINDS = ("am", "column", "row")

#: Degradation reasons a ``degraded``/``error`` response may carry.
REASONS = ("deadline", "backend-crash", "backend-error")


def encode(message: Dict) -> bytes:
    """One canonical JSON line (sorted keys, compact separators)."""
    return (
        json.dumps(message, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode("utf-8")


def decode(line: bytes) -> Dict:
    """Parse one request line; malformed input raises ServiceError."""
    try:
        message = json.loads(line.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ServiceError("request is not valid JSON: %s" % exc) from None
    if not isinstance(message, dict):
        raise ServiceError("request must be a JSON object")
    return message


@dataclasses.dataclass(frozen=True)
class QuerySpec:
    """A validated reliability query (the service's cache unit is one
    ``(spec, year)`` pair; one spec may ask for many years so a single
    batched arrival replay prices them together).

    Attributes:
        width: Multiplier operand width.
        kind: Design kind (``am`` / ``column`` / ``row``).
        years: Aging points to price (ascending not required).
        num_patterns: Operand-stream length.
        seed: Operand-stream seed.
        cycle_ns: Optional clock budget; enables the error-rate stat.
    """

    width: int
    kind: str
    years: Tuple[float, ...]
    num_patterns: int
    seed: int
    cycle_ns: Optional[float]

    @classmethod
    def from_request(cls, request: Dict) -> "QuerySpec":
        width = request.get("width")
        if not isinstance(width, int) or not 2 <= width <= 64:
            raise ServiceError(
                "query width must be an int in [2, 64], got %r" % (width,)
            )
        kind = request.get("kind")
        if kind not in KNOWN_KINDS:
            raise ServiceError(
                "query kind must be one of %s, got %r"
                % (list(KNOWN_KINDS), kind)
            )
        years = request.get("years", 0.0)
        if isinstance(years, (int, float)):
            years = [years]
        if (
            not isinstance(years, list)
            or not years
            or not all(
                isinstance(y, (int, float)) and 0 <= y <= 100
                for y in years
            )
        ):
            raise ServiceError(
                "query years must be a number or non-empty list of"
                " numbers in [0, 100], got %r" % (years,)
            )
        num_patterns = request.get("num_patterns", 1000)
        if not isinstance(num_patterns, int) or not (
            1 <= num_patterns <= 1_000_000
        ):
            raise ServiceError(
                "query num_patterns must be an int in [1, 1e6], got %r"
                % (num_patterns,)
            )
        seed = request.get("seed", 1)
        if not isinstance(seed, int):
            raise ServiceError("query seed must be an int")
        cycle_ns = request.get("cycle_ns")
        if cycle_ns is not None and (
            not isinstance(cycle_ns, (int, float)) or cycle_ns <= 0
        ):
            raise ServiceError("query cycle_ns must be a positive number")
        return cls(
            width=width,
            kind=str(kind),
            years=tuple(float(y) for y in years),
            num_patterns=num_patterns,
            seed=seed,
            cycle_ns=None if cycle_ns is None else float(cycle_ns),
        )

    def group_key(self) -> Tuple:
        """Everything but the year -- queries sharing a group fold into
        one batched replay."""
        return (
            self.width,
            self.kind,
            self.num_patterns,
            self.seed,
            self.cycle_ns,
        )

    def cache_key(self, year: float) -> Tuple:
        return self.group_key() + (float(year),)

    def with_years(self, years: Sequence[float]) -> "QuerySpec":
        return dataclasses.replace(self, years=tuple(years))

    def to_payload(self) -> Dict:
        """The JSON dict a backend ``query`` job carries."""
        return {
            "width": self.width,
            "kind": self.kind,
            "years": list(self.years),
            "num_patterns": self.num_patterns,
            "seed": self.seed,
            "cycle_ns": self.cycle_ns,
        }


def ok_response(
    request_id, results: List[Dict], source: str, elapsed_ms: float
) -> Dict:
    return {
        "protocol": PROTOCOL,
        "version": PROTOCOL_VERSION,
        "id": request_id,
        "status": "ok",
        "source": source,
        "elapsed_ms": round(elapsed_ms, 3),
        "results": results,
    }


def degraded_response(
    request_id,
    reason: str,
    results: List[Dict],
    stale_years: List[float],
    elapsed_ms: float,
) -> Dict:
    """Stale-if-available degradation: ``results`` holds the freshest
    previously computed records (their true years in ``stale_years``)."""
    return {
        "protocol": PROTOCOL,
        "version": PROTOCOL_VERSION,
        "id": request_id,
        "status": "degraded",
        "degraded": {
            "reason": reason,
            "stale": True,
            "stale_years": stale_years,
        },
        "elapsed_ms": round(elapsed_ms, 3),
        "results": results,
    }


def error_response(
    request_id, reason: str, error_type: str, message: str,
    elapsed_ms: float = 0.0,
) -> Dict:
    return {
        "protocol": PROTOCOL,
        "version": PROTOCOL_VERSION,
        "id": request_id,
        "status": "error",
        "error": {
            "reason": reason,
            "type": error_type,
            "message": message,
        },
        "elapsed_ms": round(elapsed_ms, 3),
        "results": [],
    }
