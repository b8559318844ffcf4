"""Declarative query specifications and result envelopes.

Every request the TSUBASA reproduction can answer — correlation matrices and
networks over arbitrary windows, top-k / most-anticorrelated pairs, node
neighborhoods, correlation-band scans, degree profiles, and diff-networks
between two windows — is described by one frozen, validated, serializable
:class:`QuerySpec`. The spec is *what* is being asked; *how* it is answered
(which sketch backend, serial vs parallel execution, cache state) is decided
by :class:`~repro.api.client.TsubasaClient` and reported back in the
:class:`QueryResult` envelope's :class:`Provenance`.

A spec round-trips through plain dictionaries and JSON (``to_dict`` /
``from_dict``, ``to_json`` / ``from_json``), which is what the wire
protocol (:mod:`repro.api.protocol`) carries as a request frame's ``spec``.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Any

from repro.exceptions import DataError

if TYPE_CHECKING:
    from repro.core.segmentation import BasicWindowPlan, QueryWindow

__all__ = ["WindowSpec", "QuerySpec", "Provenance", "QueryResult", "OPS"]

#: Supported query operations. All but ``subscribe`` are request/response
#: ops answerable by any client; ``subscribe`` (op family: network_updates)
#: is a *streaming* op — it registers a standing network-update subscription
#: and is only meaningful on push-capable transports (the WebSocket server,
#: :class:`~repro.streams.hub.SnapshotHub`).
OPS = (
    "matrix",
    "network",
    "top_k",
    "anticorrelated",
    "neighbors",
    "pairs_in_range",
    "degree",
    "diff_network",
    "subscribe",
)

#: Supported execution engines.
ENGINES = ("exact", "approx")

#: Approximate combination methods (Algorithm 4 dispatch).
APPROX_METHODS = ("eq5", "average", "auto")


@dataclass(frozen=True)
class WindowSpec:
    """A declarative time-window selection, in one of three forms.

    * ``(end, length)`` — the paper's query window ``w = (e, l)``: the ``l``
      points ending at offset ``e`` inclusive.
    * ``(start, stop)`` — an arbitrary half-open ``[start, stop)`` span of
      raw points.
    * ``(first_window, n_windows)`` — an aligned range of basic windows,
      resolved against the backend's segmentation plan.

    Exactly one form must be given; the three are interchangeable where they
    describe the same points (and coalesce in the service layer when they
    do). All offsets are integer positions from the start of the sketched
    data.
    """

    end: int | None = None
    length: int | None = None
    start: int | None = None
    stop: int | None = None
    first_window: int | None = None
    n_windows: int | None = None

    def __post_init__(self) -> None:
        forms = {
            "end/length": (self.end, self.length),
            "start/stop": (self.start, self.stop),
            "first_window/n_windows": (self.first_window, self.n_windows),
        }
        given = [name for name, pair in forms.items()
                 if any(v is not None for v in pair)]
        if len(given) != 1:
            raise DataError(
                "window must use exactly one of end/length, start/stop, or "
                f"first_window/n_windows; got {given or 'nothing'}"
            )
        name = given[0]
        pair = forms[name]
        if any(v is None for v in pair):
            raise DataError(f"window form {name} needs both fields")
        for field_name in name.split("/"):
            value = getattr(self, field_name)
            # Accept any integral type (numpy ints included — window ends
            # routinely come out of array arithmetic) but normalize to a
            # plain int so specs hash/serialize uniformly.
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise DataError(
                    f"window field values must be integers, got {value!r}"
                )
            object.__setattr__(self, field_name, int(value))
        if name == "start/stop":
            assert self.start is not None and self.stop is not None
            if not 0 <= self.start < self.stop:
                raise DataError(
                    f"window span [{self.start}, {self.stop}) is empty or "
                    f"negative"
                )

    def resolve(self, plan: "BasicWindowPlan") -> "QueryWindow":
        """The concrete :class:`QueryWindow` this spec selects under ``plan``.

        Raises :class:`~repro.exceptions.SegmentationError` when the window
        falls outside the sketched range.
        """
        from repro.core.segmentation import QueryWindow

        # __post_init__ guarantees the chosen form's fields come in pairs;
        # the asserts surface that invariant to type checkers.
        if self.end is not None:
            assert self.length is not None
            return QueryWindow(end=self.end, length=self.length)
        if self.start is not None:
            assert self.stop is not None
            return QueryWindow(end=self.stop - 1, length=self.stop - self.start)
        assert self.first_window is not None and self.n_windows is not None
        return plan.aligned_query(self.first_window, self.n_windows)

    def to_dict(self) -> dict[str, int]:
        """Plain-dict form holding only the fields of the chosen variant."""
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if getattr(self, f.name) is not None
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "WindowSpec":
        """Parse a window from its dictionary form (strict: no unknown keys)."""
        if not isinstance(payload, dict):
            raise DataError(f"window must be an object, got {payload!r}")
        known = {f.name for f in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise DataError(f"unknown window fields: {sorted(unknown)}")
        return cls(**payload)


# Which optional QuerySpec fields each operation requires/accepts. Strictness
# is the point of a declarative surface: a spec carrying irrelevant knobs is
# more likely a caller bug than an intentional no-op.
_REQUIRED: dict[str, tuple[str, ...]] = {
    "matrix": (),
    "network": ("theta",),
    "top_k": ("k",),
    "anticorrelated": ("k",),
    "neighbors": ("node", "theta"),
    "pairs_in_range": ("low", "high"),
    "degree": ("theta",),
    "diff_network": ("baseline", "theta"),
    # A subscription's window is the standing query window the realtime
    # engine maintains; theta is the subscription's network threshold.
    "subscribe": ("theta",),
}

# Optional fields an operation additionally *accepts* (beyond the required
# set and the universal deadline_ms).
_OPTIONAL: dict[str, tuple[str, ...]] = {
    "subscribe": ("resume_from",),
}


@dataclass(frozen=True)
class QuerySpec:
    """A complete, validated description of one query.

    Attributes:
        op: The operation, one of :data:`OPS`.
        window: The time window the query is over. For ``subscribe`` it
            describes the *standing* query window (only its length is
            meaningful; the window slides with the stream).
        theta: Correlation threshold (``network``, ``neighbors``, ``degree``,
            ``diff_network``, ``subscribe``).
        k: Result count (``top_k``, ``anticorrelated``).
        node: Anchor series name (``neighbors``).
        low: Lower correlation bound, inclusive (``pairs_in_range``).
        high: Upper correlation bound, inclusive (``pairs_in_range``).
        baseline: The *previous* window of a ``diff_network`` query; edges
            are reported as appearing/disappearing going ``baseline`` →
            ``window``.
        engine: ``"exact"`` (Lemma 1, the default) or ``"approx"`` (the
            DFT-based competitor; aligned windows only).
        method: Approximate combination method (``engine="approx"`` only):
            ``"eq5"``, ``"average"``, or ``"auto"``.
        deadline_ms: Remaining time budget in milliseconds (any op). A
            *relative* budget, not a wall-clock timestamp, so it is immune
            to client/server clock skew; the receiving service anchors it
            to its own monotonic clock and sheds the request with
            :class:`~repro.exceptions.DeadlineExceeded` once spent.
            Excluded from coalescing/cache identity — it describes the
            caller's patience, not the answer.
        resume_from: Last stream sequence number already seen
            (``subscribe`` only). The hub replays newer snapshots from its
            bounded ring, or opens the stream with an explicit ``gap``
            event when they have aged out.
    """

    op: str
    window: WindowSpec
    theta: float | None = None
    k: int | None = None
    node: str | None = None
    low: float | None = None
    high: float | None = None
    baseline: WindowSpec | None = None
    engine: str = "exact"
    method: str | None = None
    deadline_ms: int | None = None
    resume_from: int | None = None

    def __post_init__(self) -> None:
        if self.op not in OPS:
            raise DataError(f"unknown query op {self.op!r}; expected one of {OPS}")
        if not isinstance(self.window, WindowSpec):
            raise DataError(f"window must be a WindowSpec, got {self.window!r}")
        if self.engine not in ENGINES:
            raise DataError(
                f"unknown engine {self.engine!r}; expected one of {ENGINES}"
            )
        if self.method is not None:
            if self.engine != "approx":
                raise DataError("method is only meaningful with engine='approx'")
            if self.method not in APPROX_METHODS:
                raise DataError(
                    f"unknown approx method {self.method!r}; expected one of "
                    f"{APPROX_METHODS}"
                )
        required = _REQUIRED[self.op]
        for name in required:
            if getattr(self, name) is None:
                raise DataError(f"op {self.op!r} requires {name}")
        accepted = required + _OPTIONAL.get(self.op, ())
        for name in (
            "theta", "k", "node", "low", "high", "baseline", "resume_from"
        ):
            if getattr(self, name) is not None and name not in accepted:
                raise DataError(f"op {self.op!r} does not accept {name}")
        if self.theta is not None:
            if not isinstance(self.theta, numbers.Real) or isinstance(
                self.theta, bool
            ):
                raise DataError(f"theta must be a number, got {self.theta!r}")
            object.__setattr__(self, "theta", float(self.theta))
            # Out-of-[-1, 1] thresholds are legal (they yield empty or
            # complete networks — threshold sweeps rely on that, and the
            # classic engine paths accepted them); only non-finite values
            # are nonsense.
            if not math.isfinite(self.theta):
                raise DataError(f"theta must be finite, got {self.theta}")
        if self.k is not None:
            if (
                not isinstance(self.k, numbers.Integral)
                or isinstance(self.k, bool)
                or self.k <= 0
            ):
                raise DataError(f"k must be a positive integer, got {self.k!r}")
            object.__setattr__(self, "k", int(self.k))
        if self.node is not None and not isinstance(self.node, str):
            raise DataError(f"node must be a series name, got {self.node!r}")
        if self.low is not None:
            for name in ("low", "high"):
                value = getattr(self, name)
                if not isinstance(value, numbers.Real) or isinstance(value, bool):
                    raise DataError(f"{name} must be a number, got {value!r}")
                object.__setattr__(self, name, float(value))
            assert self.high is not None  # op validation pairs low/high
            if self.low > self.high:
                raise DataError(f"empty range [{self.low}, {self.high}]")
        if self.baseline is not None and not isinstance(self.baseline, WindowSpec):
            raise DataError(
                f"baseline must be a WindowSpec, got {self.baseline!r}"
            )
        if self.deadline_ms is not None:
            if (
                not isinstance(self.deadline_ms, numbers.Integral)
                or isinstance(self.deadline_ms, bool)
                or self.deadline_ms <= 0
            ):
                raise DataError(
                    "deadline_ms must be a positive integer of milliseconds, "
                    f"got {self.deadline_ms!r}"
                )
            object.__setattr__(self, "deadline_ms", int(self.deadline_ms))
        if self.resume_from is not None:
            if (
                not isinstance(self.resume_from, numbers.Integral)
                or isinstance(self.resume_from, bool)
                or self.resume_from < 0
            ):
                raise DataError(
                    "resume_from must be a sequence number >= 0, got "
                    f"{self.resume_from!r}"
                )
            object.__setattr__(self, "resume_from", int(self.resume_from))

    @property
    def windows(self) -> tuple[WindowSpec, ...]:
        """Every window this spec needs a correlation matrix over."""
        if self.baseline is not None:
            return (self.window, self.baseline)
        return (self.window,)

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form (JSON-compatible, ``None`` fields omitted)."""
        payload: dict[str, Any] = {"op": self.op, "window": self.window.to_dict()}
        for name in ("theta", "k", "node", "low", "high", "deadline_ms",
                     "resume_from"):
            value = getattr(self, name)
            if value is not None:
                payload[name] = value
        if self.baseline is not None:
            payload["baseline"] = self.baseline.to_dict()
        if self.engine != "exact":
            payload["engine"] = self.engine
        if self.method is not None:
            payload["method"] = self.method
        return payload

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "QuerySpec":
        """Parse and validate a spec from its dictionary form (strict)."""
        if not isinstance(payload, dict):
            raise DataError(f"query spec must be an object, got {payload!r}")
        known = {f.name for f in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise DataError(f"unknown query spec fields: {sorted(unknown)}")
        if "op" not in payload or "window" not in payload:
            raise DataError("query spec requires 'op' and 'window'")
        kwargs = dict(payload)
        kwargs["window"] = WindowSpec.from_dict(kwargs["window"])
        if kwargs.get("baseline") is not None:
            kwargs["baseline"] = WindowSpec.from_dict(kwargs["baseline"])
        return cls(**kwargs)

    def to_json(self) -> str:
        """One-line JSON form (a request frame's ``spec``)."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "QuerySpec":
        """Parse a spec from JSON, validating strictly."""
        try:
            payload = json.loads(text)
        except ValueError as exc:
            raise DataError(f"invalid query spec JSON: {exc}") from exc
        return cls.from_dict(payload)


@dataclass(frozen=True)
class Provenance:
    """How a query was actually answered.

    Attributes:
        backend: Sketch backend identifier (``"memory"``, ``"mmap"``,
            ``"chunked"``, ...).
        engine: ``"exact"`` or ``"approx"``.
        execution: Always ``"serial"``: every matrix is computed
            in-process. Kept, with ``n_workers``, ``cache_hits`` and
            ``cache_misses``, so v1 and v2 response bytes stay stable.
        path: Combination strategy: ``"prefix"`` when the matrix came from
            prefix-aggregate tables (:mod:`repro.core.prefix`, O(n^2) per
            query), ``"direct"`` for the streaming Lemma 1 reduction over
            the selected windows.
        n_workers: Always 1.
        coalesced: Whether this request shared an in-flight matrix
            computation instead of running its own (service layer).
        cache: Whether the matrix was served from the service's bounded
            result cache instead of being computed at all.
        cache_hits: Always 0 (no provider keeps a record cache).
        cache_misses: Always 0.
    """

    backend: str
    engine: str = "exact"
    execution: str = "serial"
    path: str = "direct"
    n_workers: int = 1
    coalesced: bool = False
    cache: bool = False
    cache_hits: int = 0
    cache_misses: int = 0

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form for the wire protocol."""
        return {
            "backend": self.backend,
            "engine": self.engine,
            "execution": self.execution,
            "path": self.path,
            "n_workers": self.n_workers,
            "coalesced": self.coalesced,
            "cache": self.cache,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
        }


@dataclass(frozen=True)
class QueryResult:
    """Envelope around a query's answer.

    Attributes:
        spec: The spec that was executed.
        value: The operation's natural Python value — a
            :class:`~repro.core.matrix.CorrelationMatrix` (``matrix``), a
            :class:`~repro.core.network.ClimateNetwork` (``network``), pair
            lists, a degree dict, or an ``(appeared, disappeared)`` edge-set
            tuple (``diff_network``).
        timings: Wall-clock breakdown in seconds: ``total``, ``matrix``
            (correlation computation, including any coalesced wait), and
            ``post`` (operator post-processing).
        provenance: How the answer was produced.
    """

    spec: QuerySpec
    value: Any
    timings: dict[str, float] = field(default_factory=dict)
    provenance: Provenance | None = None

    def payload(self) -> dict[str, Any]:
        """JSON-compatible form of :attr:`value` for the wire protocols."""
        op = self.spec.op
        value = self.value
        if op == "matrix":
            return {"names": list(value.names), "values": value.values.tolist()}
        if op == "network":
            edges = sorted(value.edge_set())
            return {
                "names": list(value.names),
                "n_nodes": value.n_nodes,
                "n_edges": value.n_edges,
                "theta": value.threshold,
                "edges": [
                    [a, b, value.edge_weight(a, b)] for a, b in edges
                ],
            }
        if op in ("top_k", "anticorrelated", "pairs_in_range"):
            return {"pairs": [[a, b, corr] for a, b, corr in value]}
        if op == "neighbors":
            return {"neighbors": [[name, corr] for name, corr in value]}
        if op == "degree":
            return {"degree": dict(value)}
        if op == "diff_network":
            appeared, disappeared = value
            return {
                "appeared": [list(edge) for edge in sorted(appeared)],
                "disappeared": [list(edge) for edge in sorted(disappeared)],
            }
        raise DataError(f"no payload form for op {op!r}")
