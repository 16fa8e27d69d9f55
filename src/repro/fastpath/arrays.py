"""Array compilation: origin servers and request streams as flat arrays.

The reference simulator walks a graph of Python objects per request —
``Cache`` → ``CacheEntry``, ``OriginServer`` → ``ObjectHistory`` →
``ModificationSchedule`` — paying an attribute lookup or a method call
for every hop.  The fast path compiles that graph *once* per server
into parallel arrays indexed by a dense object index:

* population arrays (:class:`CompiledServer`) — sizes, cacheability,
  creation times, Expires lifetimes, and every modification schedule
  flattened into one sorted ``mod_times`` array with per-object
  ``[mod_lo, mod_lo + mod_count)`` slices, so "version at time t" is
  a single bounded :func:`bisect.bisect_right`;
* request columns (:class:`RequestColumns`) — the request stream as
  parallel times / object-index / version lists.  The version of the
  requested object at the request's time depends on neither the
  protocol nor its parameters, so it is bisected once here and every
  run over the same stream reads it instead;
* cache-state arrays (:class:`CacheState`) — the mutable per-entry
  fields the protocols consult (``validated_at``, ``last_modified``,
  ``valid``, generation, Expires stamps), replacing ``CacheEntry``;
* the invalidation feed as a pair of parallel arrays, merged with the
  request stream by one cursor instead of per-request tuple peeks.

Compilation is cached per server instance (weak-keyed, so a dropped
server frees its arrays): a 21-point sweep over one workload compiles
once and reuses the arrays for every grid point.  A workload's request
columns are cached on the workload itself
(:meth:`repro.workload.base.Workload.columns`), and the preloaded
start state per ``(compiled server, start_time)`` on the compiled
server, so each run starts from list copies.

Equivalence note (docs/FASTPATH.md): the compiled feed is the server's
own :meth:`~repro.core.server.OriginServer.invalidation_feed` mapped to
object indices — same tuple, same ``(time, id)`` sort — and request
encoding replays the reference simulator's own validation, raising the
identical ``ValueError`` for out-of-order streams and
:class:`~repro.core.server.UnknownObjectError` for unknown ids (the
fast path raises before any event is observed; the reference raises
mid-stream — see the contract's error-parity clause).
"""

from __future__ import annotations

import weakref
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.core.server import OriginServer, UnknownObjectError


@dataclass(frozen=True)
class CompiledServer:
    """One origin server flattened into parallel arrays.

    All lists are indexed by the dense object index assigned in the
    server's insertion order (the order :meth:`Cache.preload_from`
    walks), so preload-time behaviour needs no id lookups at all.
    """

    ids: list[str]
    index: dict[str, int]
    sizes: list[int]
    cacheable: list[bool]
    created: list[float]
    #: Expires lifetime per object; meaningful only where ``has_expires``.
    expires_after: list[float]
    has_expires: list[bool]
    #: Every modification schedule, flattened; object ``i`` owns the
    #: ascending slice ``mod_times[mod_lo[i] : mod_lo[i] + mod_count[i]]``.
    mod_times: list[float]
    mod_lo: list[int]
    mod_count: list[int]
    #: The invalidation feed (modification events time-ordered with the
    #: reference's ``(time, id)`` tie-break), as parallel arrays.
    feed_times: list[float]
    feed_obj: list[int]
    #: Preloaded start states by start time (see :func:`initial_state`).
    preloaded: dict[float, "CacheState"] = field(
        default_factory=dict, compare=False, repr=False
    )


_COMPILED: "weakref.WeakKeyDictionary[OriginServer, CompiledServer]" = (
    weakref.WeakKeyDictionary()
)


def compile_server(server: OriginServer) -> CompiledServer:
    """Compile (or fetch the cached compilation of) ``server``."""
    compiled = _COMPILED.get(server)
    if compiled is None:
        compiled = _compile(server)
        _COMPILED[server] = compiled
    return compiled


def _compile(server: OriginServer) -> CompiledServer:
    ids: list[str] = []
    index: dict[str, int] = {}
    sizes: list[int] = []
    cacheable: list[bool] = []
    created: list[float] = []
    expires_after: list[float] = []
    has_expires: list[bool] = []
    mod_times: list[float] = []
    mod_lo: list[int] = []
    mod_count: list[int] = []
    for oid, history in server.histories().items():
        obj = history.obj
        index[oid] = len(ids)
        ids.append(oid)
        sizes.append(obj.size)
        cacheable.append(obj.cacheable)
        created.append(history.schedule.created)
        if obj.expires_after is not None:
            expires_after.append(obj.expires_after)
            has_expires.append(True)
        else:
            expires_after.append(0.0)
            has_expires.append(False)
        times = history.schedule.times
        mod_lo.append(len(mod_times))
        mod_count.append(len(times))
        mod_times.extend(times)
    feed_times: list[float] = []
    feed_obj: list[int] = []
    for t, oid in server.invalidation_feed():
        feed_times.append(t)
        feed_obj.append(index[oid])
    return CompiledServer(
        ids=ids,
        index=index,
        sizes=sizes,
        cacheable=cacheable,
        created=created,
        expires_after=expires_after,
        has_expires=has_expires,
        mod_times=mod_times,
        mod_lo=mod_lo,
        mod_count=mod_count,
        feed_times=feed_times,
        feed_obj=feed_obj,
    )


class CacheState:
    """The proxy cache as parallel arrays (one slot per server object).

    Mirrors exactly the :class:`~repro.core.cache.CacheEntry` fields the
    supported protocols and the simulator consult.  ``expires_at`` is
    the CERN policy's store-time stamp; other protocols ignore it.
    """

    __slots__ = (
        "resident",
        "valid",
        "version",
        "validated_at",
        "last_modified",
        "has_server_expires",
        "server_expires",
        "expires_at",
    )

    def __init__(self, count: int) -> None:
        self.resident = [False] * count
        self.valid = [False] * count
        self.version = [0] * count
        self.validated_at = [0.0] * count
        self.last_modified = [0.0] * count
        self.has_server_expires = [False] * count
        self.server_expires = [0.0] * count
        self.expires_at = [0.0] * count

    def copy(self) -> "CacheState":
        """An independent state with every array copied."""
        clone = CacheState(0)
        for name in self.__slots__:
            setattr(clone, name, getattr(self, name)[:])
        return clone


#: Start times whose preloaded state one compiled server keeps.
_PRELOADED_SLOTS = 4


def initial_state(
    compiled: CompiledServer, start_time: float, preload: bool
) -> CacheState:
    """Cache-state arrays as of ``start_time``.

    With ``preload`` (the paper's configuration) every cacheable object
    enters resident and valid, stamped validated at ``start_time`` with
    the origin's Last-Modified at that instant — exactly what
    :meth:`Cache.preload_from` builds.  That state depends only on the
    server and ``start_time``, so it is built once per pair and each
    run gets a copy.  CERN's store-time expiry stamp is applied by the
    kernel (it depends on protocol parameters).
    """
    if not preload:
        return CacheState(len(compiled.ids))
    template = compiled.preloaded.get(start_time)
    if template is None:
        if len(compiled.preloaded) >= _PRELOADED_SLOTS:
            compiled.preloaded.clear()
        template = _preloaded(compiled, start_time)
        compiled.preloaded[start_time] = template
    return template.copy()


def _preloaded(compiled: CompiledServer, start_time: float) -> CacheState:
    count = len(compiled.ids)
    state = CacheState(count)
    mod_times = compiled.mod_times
    for i in range(count):
        if not compiled.cacheable[i]:
            continue
        lo = compiled.mod_lo[i]
        version = bisect_right(
            mod_times, start_time, lo, lo + compiled.mod_count[i]
        ) - lo
        state.resident[i] = True
        state.valid[i] = True
        state.version[i] = version
        state.validated_at[i] = start_time
        state.last_modified[i] = (
            compiled.created[i] if version == 0 else mod_times[lo + version - 1]
        )
        if compiled.has_expires[i]:
            state.has_server_expires[i] = True
            state.server_expires[i] = start_time + compiled.expires_after[i]
    return state


@dataclass(frozen=True, eq=False, repr=False)
class RequestColumns:
    """A request stream compiled against one :class:`CompiledServer`.

    Three parallel lists: ``times``, ``objs`` (the dense object index)
    and ``versions`` — the requested object's version at the request's
    time, ``bisect_right(mod_times, t, lo, lo + count) - lo``.  They
    hold the stream's own float objects and the index's own int
    objects.

    Iterating yields the original ``(time, object_id)`` pairs, so the
    reference engine, the spec model and every fallback consume the
    same object unchanged.  The columns are a snapshot: they stay valid
    only while the source list is not mutated.
    """

    compiled: CompiledServer
    pairs: list[tuple[float, str]]
    times: list[float]
    objs: list[int]
    versions: list[int]

    def __iter__(self) -> Iterator[tuple[float, str]]:
        return iter(self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)


def order_error(t: float, now: float) -> ValueError:
    """The reference simulator's out-of-order error, byte for byte."""
    return ValueError(
        f"request at {t!r} precedes current time {now!r}; "
        "request streams must be time-ordered"
    )


def encode_requests(
    compiled: CompiledServer,
    requests: Iterable[tuple[float, str]],
    start_time: float,
) -> RequestColumns:
    """The request stream as :class:`RequestColumns`.

    Validation replays the reference :meth:`Simulation.step` checks with
    identical exception types and messages.

    Raises:
        ValueError: when the stream is not time-ordered (the reference
            simulator's message, byte for byte).
        UnknownObjectError: when a request names an object the server
            does not hold.
    """
    pairs = requests if isinstance(requests, list) else list(requests)
    times: list[float] = []
    objs: list[int] = []
    versions: list[int] = []
    index = compiled.index
    mod_times = compiled.mod_times
    mod_lo = compiled.mod_lo
    mod_count = compiled.mod_count
    br = bisect_right
    now: float = float(start_time)
    for t, oid in pairs:
        if t < now:
            raise order_error(t, now)
        now = t
        obj = index.get(oid)
        if obj is None:
            raise UnknownObjectError(oid)
        times.append(t)
        objs.append(obj)
        count = mod_count[obj]
        if count:
            lo = mod_lo[obj]
            versions.append(br(mod_times, t, lo, lo + count) - lo)
        else:
            versions.append(0)
    return RequestColumns(compiled, pairs, times, objs, versions)
