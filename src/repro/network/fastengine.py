"""Drop-in fast engine: identical protocol behaviour, far fewer cycles.

``FastEngine`` is the default engine (``SimConfig.engine == "fast"``);
the reference :class:`Engine` stays as the readable oracle it is held
to.  It produces *flit-for-flit identical* runs — same events, same
reports, same RNG draw sequence — by running the exact same per-cycle
phase functions as the reference engine, but only where work can
exist:

* **Batched credit processing.**  Channels built as
  :class:`LedgerChannel` register every scheduled credit return in a
  shared :class:`CreditLedger` bucketed by due cycle, so each cycle
  ticks only the channels with a credit maturing *now* instead of
  sweeping every channel in the network.  The ledger also maintains a
  struct-of-arrays mirror (per-channel pending counts and earliest due
  cycles, numpy-backed when available) used by the differential
  equivalence snapshots and the benchmarks; numpy is imported only
  there, so building and running an engine never loads it.

* **Activity sets.**  Receivers, injectors, and switch stages are only
  visited for nodes that can actually do something (staged arrivals,
  queued or streaming messages, live output claims).  Inactive
  components are exactly the ones whose reference-phase calls are
  no-ops that draw no randomness, so pruning them cannot change the
  run.

* **Precomputed routing relations.**  :class:`RoutingTable` memoises
  ``routing.candidates`` under keys that capture every message-state
  input of the relation (destination, DOR lane/dateline state,
  exhausted misroute budgets), falling back to live calls for
  relations that read live network state.  The cached tiers are the
  real function's own output, frozen to tuples and shared between
  entries that agree, so there is no re-implementation to drift.

* **Event skipping.**  When the network is quiescent — no arrivals
  staged, no kill wavefronts, no worms in flight, every queued message
  parked behind a retransmission gap — the clock jumps directly to the
  next cycle where anything can happen: the earliest retransmission,
  trace arrival, scheduled fault, sampler/checker boundary, or the
  watchdog horizon.  While a stochastic generator is active the engine
  instead runs a *paced* loop that performs only the generator draws
  (exactly the reference RNG sequence) until a message is admitted.

Configurations the fast path cannot accelerate faithfully — PCS probe
circuits, the software-retry reliability layer, or networks built
without :class:`LedgerChannel` — transparently fall back to the
reference ``Engine.step`` per cycle, so the fast engine is a safe
default for every configuration.
"""

from __future__ import annotations

from time import perf_counter_ns
from typing import (
    TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple,
)

from ..core.kill import KillManager
from ..core.protocol import KillCause, ProtocolMode
from ..faults.cascading import LoadDependentFaults
from ..faults.model import CompositeFaultModel, FaultModel
from ..faults.permanent import PermanentFaultSchedule
from ..routing.base import Candidate
from ..routing.dor import DimensionOrder
from ..routing.minimal_adaptive import MinimalAdaptive
from ..routing.misrouting import MisroutingAdaptive
from ..traffic.generator import TrafficGenerator
from ..traffic.trace import TraceReplayGenerator
from .channel import Channel
from .engine import Engine, _LIVE_PHASES
from .flit import Flit, FlitKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.node import Node
    from ..network.buffer import VCBuffer
    from ..network.message import Message
    from ..network.router import Router

_INF = float("inf")
#: a memoised routing answer: candidate tiers, most preferred first.
Tiers = Tuple[Tuple[Candidate, ...], ...]
_HEAD = FlitKind.HEAD
_BODY = FlitKind.BODY
_PAD = FlitKind.PAD


def _numpy():
    """numpy if importable, else None; only the snapshot paths call this.

    Deferred so that ``import repro`` (every CLI call and fabric worker)
    does not pay numpy's import time and memory.
    """
    try:
        import numpy
    except ImportError:  # pragma: no cover - numpy-less fallback
        return None
    return numpy


class LedgerChannel(Channel):
    """A channel that reports scheduled credit returns to a ledger.

    Behaviourally identical to :class:`Channel`; the only addition is
    that ``return_credit`` registers the due cycle with the engine's
    :class:`CreditLedger` so the fast path can tick exactly the
    channels with credits maturing on a given cycle.
    """

    __slots__ = ("ledger",)

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.ledger: Optional["CreditLedger"] = None

    def return_credit(self, vc: int, now: int) -> None:
        due = now + self.latency
        self._pending.append((due, vc))
        if self.ledger is not None:
            self.ledger.register(due, self)


class CreditLedger:
    """Credit returns bucketed by due cycle.

    ``drain(now)`` ticks only the channels holding a credit due at
    ``now`` — the engine never sweeps the full channel list.
    ``drain_range(upto)`` settles a skipped span in one call;
    ``forget(upto)`` discards buckets already settled by a reference
    full-sweep step (fallback mode) so they cannot accumulate.

    The hot path keeps nothing but the buckets; the struct-of-arrays
    view (:meth:`soa`) is materialised on demand for snapshots and
    benchmarks, never per credit.
    """

    def __init__(self, channels: List[Channel]) -> None:
        self.channels = list(channels)
        self._buckets: Dict[int, List[Channel]] = {}

    def register(self, due: int, channel: Channel) -> None:
        bucket = self._buckets.get(due)
        if bucket is None:
            self._buckets[due] = [channel]
        else:
            bucket.append(channel)

    def drain(self, now: int) -> None:
        """Release the credits due exactly at ``now``."""
        bucket = self._buckets.pop(now, None)
        if not bucket:
            return
        if len(bucket) > 1:
            bucket = dict.fromkeys(bucket)
        for channel in bucket:
            pending = channel._pending
            if pending and pending[-1][0] <= now:
                # Due cycles are appended in nondecreasing order, so a
                # due last entry means the whole list is due: bulk-
                # release without rebuilding (what tick() would leave).
                credits = channel.credits
                for _, vc in pending:
                    credits[vc] += 1
                pending.clear()
            else:
                channel.tick(now)

    def drain_range(self, upto: int) -> None:
        """Release every credit due at or before ``upto`` (skip close)."""
        due_cycles = [due for due in self._buckets if due <= upto]
        if not due_cycles:
            return
        touched: Dict[int, Channel] = {}
        for due in due_cycles:
            for channel in self._buckets.pop(due):
                touched[id(channel)] = channel
        for channel in touched.values():
            channel.tick(upto)

    def forget(self, upto: int) -> None:
        """Drop buckets settled elsewhere (reference full-sweep steps)."""
        for due in [due for due in self._buckets if due <= upto]:
            del self._buckets[due]

    def soa(self):
        """Per-channel (pending_count, earliest_due) arrays, on demand.

        numpy int64 arrays when numpy is importable, plain lists
        otherwise; ``earliest_due`` is -1 for channels with no credit
        in flight.
        """
        counts = [len(ch._pending) for ch in self.channels]
        earliest = [
            min(due for due, _ in ch._pending) if ch._pending else -1
            for ch in self.channels
        ]
        np = _numpy()
        if np is not None:
            return (
                np.array(counts, dtype=np.int64),
                np.array(earliest, dtype=np.int64),
            )
        return counts, earliest


def channel_state(engine: Engine):
    """A struct-of-arrays snapshot of all channel state for an engine.

    Returns ``{"credits", "flits_carried", "pending"}``; each value is
    a numpy array when numpy is available (credits as an
    ``(n_channels, max_vcs)`` matrix padded with -1), otherwise nested
    lists.  Two runs are channel-state identical iff the snapshots
    compare equal — the flat form the differential tests diff without
    walking object graphs.
    """
    channels = engine._all_channels
    n = len(channels)
    max_vcs = max(ch.num_vcs for ch in channels) if channels else 0
    credits_rows = [
        list(ch.credits) + [-1] * (max_vcs - ch.num_vcs) for ch in channels
    ]
    carried = [ch.flits_carried for ch in channels]
    pending = [len(ch._pending) for ch in channels]
    np = _numpy()
    if np is not None:
        return {
            "credits": np.array(credits_rows, dtype=np.int64).reshape(
                n, max_vcs
            ),
            "flits_carried": np.array(carried, dtype=np.int64),
            "pending": np.array(pending, dtype=np.int64),
        }
    return {
        "credits": credits_rows,
        "flits_carried": carried,
        "pending": pending,
    }


class RoutingTable:
    """Memoised routing relation lookups for the known-pure relations.

    Caches the *actual output* of ``routing.candidates`` under keys
    that capture every message-dependent input of the relation:

    * minimal adaptive (and its naive twin): ``(node, dst)``;
    * dimension-order: ``(node, dst, lane)`` plus the dateline state
      when dateline VCs are in play;
    * misrouting-adaptive with an exhausted budget: ``(node, dst)``
      (the relation then reduces to minimal); with budget remaining it
      reads live channel-death state, so those calls stay live.

    Any other relation — or a routing object whose ``candidates`` has
    been instance-patched (the mutation harness does this) — is called
    live every time.  Kind detection is deferred to the first lookup so
    patches applied after construction are honoured.

    Cached entries are frozen to a tuple of tuples and interned: the
    many keys whose relation yields equal tiers (every destination in
    the same quadrant, say) share one object instead of each holding
    fresh lists of fresh ``Candidate`` objects.
    """

    __slots__ = ("routing", "_kind", "_resolved", "_cache", "_shared")

    def __init__(self, routing) -> None:
        self.routing = routing
        self._kind = "live"
        self._resolved = False
        self._cache: Dict[tuple, Tiers] = {}
        self._shared: Dict[Tiers, Tiers] = {}

    def _resolve(self) -> None:
        routing = self.routing
        kind = "live"
        if "candidates" not in vars(routing):
            impl = type(routing).candidates
            if impl is MisroutingAdaptive.candidates:
                kind = "misroute"
            elif impl is MinimalAdaptive.candidates:
                kind = "minimal"
            elif impl is DimensionOrder.candidates:
                kind = "dor"
        self._kind = kind
        self._resolved = True

    def candidates(
        self, router: "Router", message: "Message"
    ) -> Sequence[Sequence[Candidate]]:
        if not self._resolved:
            self._resolve()
        kind = self._kind
        routing = self.routing
        if kind == "minimal":
            key = (router.node_id, message.dst)
        elif kind == "dor":
            lane = message.lane % routing.num_lanes(router.num_vcs)
            if routing.vc_classes == 2:
                key = (
                    router.node_id,
                    message.dst,
                    lane,
                    message.dor_dim,
                    message.dateline_bit,
                )
            else:
                key = (router.node_id, message.dst, lane)
        elif kind == "misroute":
            if message.misroutes_used < message.misroute_budget:
                # Budget remaining: the detour tier depends on live
                # channel-death state, so ask the relation directly.
                return routing.candidates(router, message)
            key = (router.node_id, message.dst)
        else:
            return routing.candidates(router, message)
        tiers = self._cache.get(key)
        if tiers is None:
            tiers = tuple(
                tuple(tier) for tier in routing.candidates(router, message)
            )
            tiers = self._shared.setdefault(tiers, tiers)
            self._cache[key] = tiers
        return tiers


class _FastKillManager(KillManager):
    """KillManager that re-activates a node when a retry is requeued.

    A completed kill wavefront appends the message back onto its source
    node's queue without going through ``Engine.admit``, which is the
    fast engine's only other wake-up point for injection activity.
    """

    def _complete(self, message: "Message", now: int) -> None:
        super()._complete(message, now)
        self.engine._active_inj.add(message.src)


class FastEngine(Engine):
    """Event-skipping engine, flit-for-flit identical to :class:`Engine`.

    All protocol components (injectors, receivers, kill manager,
    routers, channels) are the reference implementations; this class
    only reorganises *when* their per-cycle hooks run.  See the module
    docstring for the mechanisms and their exactness arguments.
    """

    def __init__(self, network, **kwargs) -> None:
        super().__init__(network, **kwargs)
        # Same construction-time state, plus a kill manager that wakes
        # the source node when a killed message is requeued.
        self.kills = _FastKillManager(self)
        self._table = RoutingTable(self.routing)
        self._eject_cache: Dict[int, Tiers] = {}
        self.credit_ledger = CreditLedger(self._all_channels)
        fast_ok = True
        for chan in self._all_channels:
            if isinstance(chan, LedgerChannel):
                chan.ledger = self.credit_ledger
            else:
                fast_ok = False
        #: True when every channel reports credits to the ledger; the
        #: fast per-cycle path and event skipping require it.
        self._fast_ok = fast_ok
        # Direct handles on the ledger buckets and the OrderedSet
        # backing dicts for the inlined transfer/injection pipelines.
        self._credit_buckets = self.credit_ledger._buckets
        self._arrival_items = self._arrival_buffers._items
        self._route_items = self.route_pending._items
        self._in_run = False
        self._active_recv: Set[int] = set()
        self._active_inj: Set[int] = set()
        self._active_switch: Set[int] = set()
        #: cycles elided by event skipping (diagnostics / benchmarks).
        self.cycles_skipped = 0

    # ------------------------------------------------------------------
    # Activity bookkeeping
    # ------------------------------------------------------------------

    def _seed_active(self) -> None:
        """Rescan engine state into the activity sets.

        Called on entry to ``run``/``run_until_drained`` and before any
        externally driven ``step()``, so state planted between runs
        (tests enqueue messages by hand) is picked up.
        """
        self._active_recv = {
            node.node_id for node in self.nodes if node.receiver.staging
        }
        self._active_switch = {
            router.node_id for router in self.routers if router.claims
        }
        active_inj = set()
        for node in self.nodes:
            if node.queue or any(
                injector.current is not None for injector in node.injectors
            ):
                active_inj.add(node.node_id)
        self._active_inj = active_inj

    def admit(self, message: "Message") -> bool:
        admitted = Engine.admit(self, message)
        if admitted:
            self._active_inj.add(message.src)
        return admitted

    def _transfer(self, router, port: int, vc: int, buffer, now: int) -> None:
        Engine._transfer(self, router, port, vc, buffer, now)
        if router.out_channels[port].is_ejection:
            self._active_recv.add(router.node_id)

    # ------------------------------------------------------------------
    # Arrivals: inlined single-flit merge (the overwhelmingly common
    # case with unit channel latency)
    # ------------------------------------------------------------------

    def _merge_arrivals(self, now: int) -> None:
        buffers = self._arrival_buffers
        if not buffers:
            return
        fcr = self.protocol.mode is ProtocolMode.FCR
        route_items = self._route_items
        done = []
        for buffer in buffers:
            incoming = buffer.incoming
            if len(incoming) == 1:
                # The overwhelmingly common case with unit latency:
                # one flit, due now, head handling fully specialised.
                due, flit = incoming[0]
                if due > now:
                    continue
                del incoming[0]
                buffer.fifo.append(flit)
                self.last_progress = now
                if flit.kind is _HEAD:
                    message = flit.message
                    if message.phase in _LIVE_PHASES:
                        if fcr and flit.corrupted:
                            self.kills.initiate(
                                message,
                                KillCause.HEADER_FAULT,
                                backward=True,
                                now=now,
                            )
                        else:
                            route_items[buffer] = None
                done.append(buffer)
                continue
            arrived = buffer.merge_incoming(now)
            if arrived:
                self.last_progress = now
                for flit in arrived:
                    if flit.kind is not _HEAD:
                        continue
                    message = flit.message
                    if message.phase not in _LIVE_PHASES:
                        continue
                    if fcr and flit.corrupted:
                        self.kills.initiate(
                            message,
                            KillCause.HEADER_FAULT,
                            backward=True,
                            now=now,
                        )
                    else:
                        route_items[buffer] = None
            if not buffer.incoming:
                done.append(buffer)
        items = self._arrival_items
        for buffer in done:
            del items[buffer]

    # ------------------------------------------------------------------
    # Routing: memoised relation, same grant logic
    # ------------------------------------------------------------------

    def _route_headers(self, now: int) -> None:
        # Reference body with the head()/is_head calls and OrderedSet
        # discards inlined; the shuffle draw is unchanged.
        route_items = self._route_items
        if not route_items:
            return
        pending = list(route_items)
        if len(pending) > 1:
            self.rng.shuffle(pending)
        pop = route_items.pop
        for buffer in pending:
            fifo = buffer.fifo
            head = fifo[0] if fifo else None
            if head is None or head.kind is not _HEAD:
                pop(buffer, None)
                continue
            if buffer.routed:
                # Already holds an output (a PCS probe reserved it, or
                # a stale queue entry): nothing to allocate.
                pop(buffer, None)
                continue
            message = head.message
            if message.phase not in _LIVE_PHASES:
                pop(buffer, None)
                continue
            if self._grant(buffer, message):
                buffer.route_stall_since = None
                pop(buffer, None)
            elif buffer.route_stall_since is None:
                buffer.route_stall_since = now

    def _grant(self, buffer: "VCBuffer", message: "Message") -> bool:
        router = buffer.router
        if router.node_id == message.dst:
            tiers = self._eject_cache.get(router.node_id)
            if tiers is None:
                tiers = (
                    tuple(Candidate(port, 0) for port in router.eject_ports),
                )
                self._eject_cache[router.node_id] = tiers
        else:
            tiers = self._table.candidates(router, message)
        out_owner = router.out_owner
        out_channels = router.out_channels
        for tier in tiers:
            free = [
                cand
                for cand in tier
                if (cand.port, cand.vc) not in out_owner
                and not out_channels[cand.port].dead
            ]
            if not free:
                continue
            choice = self.selection.pick(free, router, message, self.rng)
            router.claim_output(choice.port, choice.vc, buffer, message)
            self._active_switch.add(router.node_id)
            if choice.is_escape:
                message.escape_hops += 1
                message.used_escape = True
                self.stats.on_escape_grant(message)
            if choice.is_misroute:
                message.misroutes_used += 1
                self.stats.counters["misroute_hops"] += 1
            return True
        return False

    # ------------------------------------------------------------------
    # Switch: only routers holding claims
    # ------------------------------------------------------------------

    def _switch(self, now: int) -> None:
        if self.pcs is not None:
            # PCS probes create claims outside _grant; the activity set
            # cannot see them, so run the reference full sweep.
            Engine._switch(self, now)
            return
        active = self._active_switch
        if not active:
            return
        # The inlined transfer pipeline is legal only while _transfer
        # has not been instance-patched (the mutation harness wraps it
        # to plant credit bugs) and every channel reports to the ledger.
        inline = self._fast_ok and "_transfer" not in vars(self)
        transfer = self._transfer_fast if inline else self._transfer
        routers = self.routers
        # Ascending node id matches the reference router order; routers
        # outside the set hold no claims, so the reference loop skips
        # them with zero side effects.
        for node_id in sorted(active):
            router = routers[node_id]
            claims = router.claims
            if not claims:
                active.discard(node_id)
                continue
            out_channels = router.out_channels
            rr = router._rr
            if len(claims) == 1:
                # One claim: arbitration is trivial, skip the grouping
                # machinery (the round-robin pointer still advances
                # exactly as the reference's rotate(port, 1) would).
                ((port, vc), buffer), = claims.items()
                if not buffer.fifo:
                    continue
                owner = buffer.owner
                if owner is None or owner.phase not in _LIVE_PHASES:
                    continue
                channel = out_channels[port]
                if channel.dead or channel.credits[vc] <= 0:
                    continue
                rr[port] = 1  # rotate(port, 1): index 0, pointer -> 1
                transfer(router, port, vc, buffer, now)
                continue
            # Claims are keyed (port, vc) and an output VC is claimed
            # by at most one input, so sorting the items gives exactly
            # the reference's per-port arbitration order: ports
            # ascending, and within a port the entries already sorted
            # by the deterministic (vc, in_port, in_vc) tie-break (vc
            # alone is unique per port).  One pass with a flush on
            # port change replaces the by_port dict + per-port sort;
            # each port's winner lands in used_inputs before the next
            # port's entries are filtered, as in the reference.
            used_inputs: Set[int] = set()
            entries: List = []
            cur_port = -1
            for (port, vc), buffer in sorted(claims.items()):
                if port != cur_port:
                    if entries:
                        count = len(entries)
                        idx = rr.get(cur_port, 0) % count
                        rr[cur_port] = idx + 1
                        won_vc, won = entries[idx]
                        used_inputs.add(won.port)
                        transfer(router, cur_port, won_vc, won, now)
                        entries = []
                    cur_port = port
                if not buffer.fifo:
                    continue
                owner = buffer.owner
                if owner is None or owner.phase not in _LIVE_PHASES:
                    continue
                channel = out_channels[port]
                if channel.dead or channel.credits[vc] <= 0:
                    continue
                if buffer.port in used_inputs:
                    continue
                entries.append((vc, buffer))
            if entries:
                count = len(entries)
                idx = rr.get(cur_port, 0) % count
                rr[cur_port] = idx + 1
                won_vc, won = entries[idx]
                transfer(router, cur_port, won_vc, won, now)

    def _transfer_fast(
        self, router, port: int, vc: int, buffer, now: int
    ) -> None:
        """Inlined ``Engine._transfer`` + ``VCBuffer.pop`` + ``Channel.send``.

        Flattens the per-flit call chain (pop → return_credit → send →
        stage → note_arrival → mark_progress) into one frame.  Used
        only when ``_transfer`` is unpatched and PCS is off; every
        branch below mirrors the reference methods line for line, so
        the two paths are observationally identical.
        """
        # VCBuffer.pop
        flit = buffer.fifo.popleft()
        buffer.last_advance = now
        feeder = buffer.feeder
        if feeder is not None:
            # LedgerChannel.return_credit
            due = now + feeder.latency
            feeder._pending.append((due, buffer.vc))
            buckets = self._credit_buckets
            bucket = buckets.get(due)
            if bucket is None:
                buckets[due] = [feeder]
            else:
                bucket.append(feeder)
        message = flit.message
        channel = router.out_channels[port]
        is_ejection = channel.is_ejection
        fault_model = self.fault_model
        if (
            fault_model is not None
            and not is_ejection
            and not channel.is_injection
            and fault_model.corrupt(flit, channel, self.rng)
        ):
            flit.corrupted = True
            self.stats.on_fault_injected()
            if self.bus is not None:
                from ..obs.events import FaultActivated

                self.bus.emit(FaultActivated(
                    now, "transient", channel.src_node, channel.dst_node,
                    uid=message.uid,
                ))
        # Channel.send (credits checked by can_send in _switch)
        channel.credits[vc] -= 1
        channel.flits_carried += 1
        if is_ejection:
            self.nodes[router.node_id].receiver.stage(
                flit, now + channel.latency, channel
            )
            self._active_recv.add(router.node_id)
        else:
            sink = channel.sinks[vc]
            # VCBuffer.stage + Engine.note_arrival
            sink.incoming.append((now + channel.latency, flit))
            self._arrival_items[sink] = None
            if flit.kind is _HEAD:
                self.routing.on_header_hop(message, channel)
                sink.acquire(message, now)
                message.segments.append(sink)
        if flit.is_tail:
            buffer.release()
            if feeder is not None and not feeder.is_injection:
                self.routers[feeder.src_node].release_output_if(
                    feeder.src_port, buffer.vc, message
                )
            message.tail_seg += 1
            if is_ejection:
                router.release_output(port, vc)
            else:
                router.retire_claim(port, vc)
        self.last_progress = now

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------

    def step(self) -> None:
        if not self._in_run:
            self._seed_active()
        self._step_once()

    def _step_once(self) -> None:
        fallback = (
            not self._fast_ok
            or self.pcs is not None
            or self.reliability is not None
        )
        if self.profiler is not None:
            if fallback:
                Engine._step_profiled(self)
                self.credit_ledger.forget(self.now - 1)
            else:
                self._fast_step_profiled()
            return
        if fallback:
            Engine.step(self)
            self.credit_ledger.forget(self.now - 1)
            return
        self._fast_step()

    def _step_injectors(self, now: int) -> None:
        active = self._active_inj
        if not active:
            return
        stats = self.stats
        arrival_items = self._arrival_items
        # Ascending node id matches the reference node order; inactive
        # nodes (empty queue, idle injectors) step to a no-op there and
        # draw no randomness.
        for node_id in sorted(active):
            node = self.nodes[node_id]
            busy = False
            for injector in node.injectors:
                if injector.current is None:
                    injector._try_start(now)
                message = injector.current
                if message is None:
                    continue
                if "_try_send" in injector.__dict__:
                    # Instance-patched send (test harnesses): dispatch
                    # through the patch, exactly like Injector.step.
                    injector._try_send(now)
                    if injector.current is not None:
                        busy = True
                    continue
                # Inlined Injector._try_send, non-PCS streaming path
                # (_step_injectors only runs when self.pcs is None).
                channel = injector.channel
                vc = injector.vc
                if channel.dead or channel.credits[vc] <= 0:
                    injector.stall += 1
                    stats.on_injection_stall()
                    if injector.stall == 1 and self.bus is not None:
                        from ..obs.events import InjectionStalled

                        self.bus.emit(
                            InjectionStalled(now, message.uid, message.src)
                        )
                    injector._check_timeout(message, now)
                    if injector.current is not None:
                        busy = True
                    continue
                index = injector.next_index
                if index == 0:
                    kind = _HEAD
                elif index < message.payload_length:
                    kind = _BODY
                else:
                    kind = _PAD
                is_tail = index == message.wire_length - 1
                flit = Flit(message, kind, index, is_tail=is_tail)
                # Channel.send (can_send just checked above)
                channel.credits[vc] -= 1
                channel.flits_carried += 1
                sink = channel.sinks[vc]
                sink.incoming.append((now + channel.latency, flit))
                arrival_items[sink] = None  # Engine.note_arrival
                if index == 0:
                    sink.acquire(message, now)
                    message.segments.append(sink)
                if kind is _PAD:
                    message.pad_flits_sent += 1
                    stats.on_flit_injected(True)
                else:
                    stats.on_flit_injected(False)
                message.flits_injected += 1
                self.last_progress = now
                injector.stall = 0
                injector.next_index = index + 1
                if is_tail:
                    injector._commit(message, now)
                else:
                    busy = True
            if not busy and not node.queue:
                active.discard(node_id)

    def _process_receivers(self, now: int) -> None:
        recv = self._active_recv
        if not recv:
            return
        stats = self.stats
        checker = self.checker
        buckets = self._credit_buckets
        for node_id in sorted(recv):
            receiver = self.nodes[node_id].receiver
            if "process" in receiver.__dict__:
                # Instance-patched process (the mutation harness plants
                # ejection bugs here): dispatch through the patch.
                receiver.process(now)
                if not receiver.staging:
                    recv.discard(node_id)
                continue
            # Inlined Receiver.process.  Arrival stamps are appended in
            # nondecreasing order, so the common all-ready case is a
            # whole-list take with no rebuild.
            staging = receiver.staging
            if staging and staging[0][0] <= now:
                if staging[-1][0] <= now:
                    ready = staging
                    receiver.staging = []
                else:
                    ready = [e for e in staging if e[0] <= now]
                    receiver.staging = [e for e in staging if e[0] > now]
                stats.on_flits_ejected(len(ready))
                for _, flit, channel in ready:
                    # LedgerChannel.return_credit(0, now); _fast_ok
                    # guarantees every channel reports to the ledger.
                    due = now + channel.latency
                    channel._pending.append((due, 0))
                    bucket = buckets.get(due)
                    if bucket is None:
                        buckets[due] = [channel]
                    else:
                        bucket.append(channel)
                    # _consume is a no-op for an uncorrupted non-head
                    # non-tail flit of a live message (the bulk of a
                    # worm) — skip the call for exactly that case.
                    if (
                        flit.is_tail
                        or flit.corrupted
                        or flit.kind is _HEAD
                        or flit.message.phase not in _LIVE_PHASES
                    ):
                        receiver._consume(flit, now)
                if checker is not None:
                    checker.on_flits_consumed(len(ready))
                self.last_progress = now
            if not receiver.staging:
                recv.discard(node_id)

    def _fast_step(self) -> None:
        now = self.now
        self.credit_ledger.drain(now)
        if self.fault_model is not None:
            self.fault_model.on_cycle(now, self.network)
        self._merge_arrivals(now)
        self._process_receivers(now)
        self.kills.advance(now)
        if self.generator is not None:
            self.generator.tick(self, now)
        self._step_injectors(now)
        self._route_headers(now)
        self._switch(now)
        self._path_wide_monitor(now)
        self._drop_at_block_monitor(now)
        self._watchdog_check(now)
        if self.sampler is not None:
            self.sampler.on_cycle(now)
        if self.checker is not None:
            self.checker.on_cycle_end(now)
        self.now = now + 1

    def _fast_step_profiled(self) -> None:
        # Timed copy of _fast_step (mirrors Engine._step_profiled's
        # discipline: identical order and side effects, phases
        # bracketed with perf_counter_ns).
        clock = perf_counter_ns
        phases = self.profiler.phases
        now = self.now
        step_start = clock()

        t0 = clock()
        self.credit_ledger.drain(now)
        phases["credit"].record(clock() - t0)

        if self.fault_model is not None:
            t0 = clock()
            self.fault_model.on_cycle(now, self.network)
            phases["fault"].record(clock() - t0)

        t0 = clock()
        self._merge_arrivals(now)
        phases["arrival"].record(clock() - t0)

        t0 = clock()
        self._process_receivers(now)
        phases["ejection"].record(clock() - t0)

        t0 = clock()
        self.kills.advance(now)
        phases["kill"].record(clock() - t0)

        if self.generator is not None:
            t0 = clock()
            self.generator.tick(self, now)
            phases["traffic"].record(clock() - t0)

        t0 = clock()
        self._step_injectors(now)
        phases["injection"].record(clock() - t0)

        t0 = clock()
        self._route_headers(now)
        phases["routing"].record(clock() - t0)

        t0 = clock()
        self._switch(now)
        phases["switch"].record(clock() - t0)

        t0 = clock()
        self._path_wide_monitor(now)
        self._drop_at_block_monitor(now)
        self._watchdog_check(now)
        phases["monitor"].record(clock() - t0)

        if self.sampler is not None:
            t0 = clock()
            self.sampler.on_cycle(now)
            phases["sampler"].record(clock() - t0)

        if self.checker is not None:
            t0 = clock()
            self.checker.on_cycle_end(now)
            phases["checker"].record(clock() - t0)

        self.now = now + 1
        self.profiler.on_step_end(now, clock() - step_start)

    # ------------------------------------------------------------------
    # Main loops with event skipping
    # ------------------------------------------------------------------

    def run(self, cycles: int) -> None:
        self._seed_active()
        self._in_run = True
        try:
            remaining = cycles
            while remaining > 0:
                skipped = self._try_skip(remaining)
                if skipped:
                    remaining -= skipped
                    continue
                self._step_once()
                remaining -= 1
        finally:
            self._in_run = False

    def run_until_drained(self, max_cycles: int) -> bool:
        generator = self.generator
        replaying = getattr(generator, "exhausted", None) is False
        if not replaying:
            self.generator = None
        self._seed_active()
        self._in_run = True
        try:
            remaining = max_cycles
            while remaining > 0:
                if self._drained():
                    return True
                skipped = self._try_skip(remaining)
                if skipped:
                    remaining -= skipped
                    continue
                self._step_once()
                remaining -= 1
            return self._drained()
        finally:
            self._in_run = False
            self.generator = generator

    # ------------------------------------------------------------------
    # Event skipping
    # ------------------------------------------------------------------

    def _try_skip(self, limit: int) -> int:
        """Skip to the next cycle where anything can happen.

        Returns the number of cycles elided (0 when the network is not
        quiescent, a cap lands on the current cycle, or the
        configuration requires the reference fallback).  Every phase of
        a skipped reference cycle is provably a no-op that draws no
        randomness; see the individual conditions.
        """
        if (
            not self._fast_ok
            or self.pcs is not None
            or self.reliability is not None
        ):
            return 0
        if (
            self.kills.dying
            or self._arrival_buffers
            or self.route_pending
            or self.in_flight
            or self.injecting
        ):
            return 0
        # Receivers: any staged flit (even a future arrival) keeps the
        # per-cycle loop running.
        recv = self._active_recv
        if recv:
            for node_id in sorted(recv):
                if self.nodes[node_id].receiver.staging:
                    return 0
                recv.discard(node_id)
        # Switch: a surviving output claim means a worm still owns
        # resources somewhere.
        switch = self._active_switch
        if switch:
            for node_id in sorted(switch):
                if self.routers[node_id].claims:
                    return 0
                switch.discard(node_id)
        now = self.now
        # Injection: every active node must be parked — no streaming
        # injector, nothing startable before a known wake cycle.
        wake = _INF
        inj = self._active_inj
        if inj:
            for node_id in sorted(inj):
                node = self.nodes[node_id]
                if any(
                    injector.current is not None
                    for injector in node.injectors
                ):
                    return 0
                if not node.queue:
                    inj.discard(node_id)
                    continue
                node_wake = self._node_wake(node, now)
                if node_wake <= now:
                    return 0
                if node_wake < wake:
                    wake = node_wake
        # Traffic generation.
        paced = False
        trace_next = _INF
        generator = self.generator
        if generator is not None:
            kind = type(generator)
            if kind is TrafficGenerator:
                if generator.message_rate > 0.0 and (
                    generator.stop_at is None or now < generator.stop_at
                ):
                    paced = True
            elif kind is TraceReplayGenerator:
                if generator._pending:
                    return 0
                entries = generator.trace.entries
                if generator._cursor < len(entries):
                    trace_next = entries[generator._cursor].cycle
            else:
                skip_state = getattr(generator, "skip_state", None)
                if skip_state is None:
                    # Unknown generator: assume it may act on any cycle.
                    return 0
                # Workload protocol: the generator classifies this
                # cycle itself (see WorkloadGenerator.skip_state).
                state, cycle = skip_state(now)
                if state == "busy":
                    return 0
                if state == "paced":
                    paced = True
                elif cycle < trace_next:
                    trace_next = cycle
        fault_next = self._fault_next_event(self.fault_model)
        if fault_next is None:
            return 0
        # The skip target: the earliest cycle any actor, monitor, or
        # periodic hook must observe.  That cycle itself is stepped.
        target = now + limit
        if wake < target:
            target = int(wake)
        if trace_next < target:
            target = int(trace_next)
        if fault_next < target:
            target = int(fault_next)
        if self.live:
            horizon = self.last_progress + self.watchdog + 1
            if horizon < target:
                target = horizon
        sampler = self.sampler
        if sampler is not None:
            boundary = sampler._start + sampler.interval - 1
            if boundary < target:
                target = boundary
        checker = self.checker
        if checker is not None:
            sweep = checker._last_check + checker.config.check_interval
            if sweep < target:
                target = sweep
        if paced:
            if self.profiler is not None:
                # Profiled runs keep per-cycle generator phases timed.
                return 0
            return self._paced_skip(target)
        count = target - now
        if count <= 0:
            return 0
        if self.profiler is not None:
            t0 = perf_counter_ns()
            self._finish_skip(target)
            self.profiler.on_idle(count, perf_counter_ns() - t0)
        else:
            self._finish_skip(target)
        self.cycles_skipped += count
        return count

    def _finish_skip(self, target: int) -> None:
        # Credits maturing inside the span are unobservable (nothing
        # sends, so nobody reads credit counts) — settle them at the
        # last skipped cycle so the target cycle's drain sees only its
        # own bucket.
        self.credit_ledger.drain_range(target - 1)
        if not self.live:
            # The reference watchdog refreshes last_progress on every
            # live-free cycle; mirror its value at the last skipped one.
            self.last_progress = target - 1
        self.now = target

    def _paced_skip(self, target: int) -> int:
        """Advance cycle-by-cycle running only the generator draws.

        Used while a Bernoulli generator is active and the rest of the
        network is quiescent: every other reference phase is a no-op
        (the caps in ``_try_skip`` bound the span), but the generator's
        per-node RNG draws must happen each cycle to keep the stream
        identical.  The first cycle that admits a message finishes as a
        full reference cycle.
        """
        generator = self.generator
        ledger = self.credit_ledger
        count = 0
        cycle = self.now
        while cycle < target:
            self.now = cycle  # admit() stamps stats/events with now
            ledger.drain(cycle)
            before = generator.generated
            generator.tick(self, cycle)
            if generator.generated != before:
                self._post_traffic(cycle)
                self.now = cycle + 1
                self.cycles_skipped += count
                return count + 1
            if not self.live:
                self.last_progress = cycle
            cycle += 1
            count += 1
        self.now = cycle
        self.cycles_skipped += count
        return count

    def _post_traffic(self, now: int) -> None:
        """The reference phases that follow traffic generation."""
        self._step_injectors(now)
        self._route_headers(now)
        self._switch(now)
        self._path_wide_monitor(now)
        self._drop_at_block_monitor(now)
        self._watchdog_check(now)
        if self.sampler is not None:
            self.sampler.on_cycle(now)
        if self.checker is not None:
            self.checker.on_cycle_end(now)

    def _node_wake(self, node: "Node", now: int):
        """When this parked node could next start a message.

        Mirrors ``Injector._try_start``'s scan exactly (window, order
        gate, retransmission gap, lane availability): returns ``now``
        when something could start immediately, the earliest
        retransmission deadline among messages the scan would reach, or
        infinity when only external activity can unblock the node.
        """
        window = self.protocol.injection_scan_window
        gate = node.gate
        wake = _INF
        seen_dsts: Set[int] = set()
        lane_free: Optional[bool] = None
        for index, message in enumerate(node.queue):
            if index >= window:
                break
            if gate.enabled:
                if message.dst in seen_dsts:
                    continue
                seen_dsts.add(message.dst)
            retransmit_at = message.retransmit_at
            if retransmit_at is not None and retransmit_at > now:
                if retransmit_at < wake:
                    wake = retransmit_at
                continue
            if not gate.may_start(message):
                continue
            if lane_free is None:
                lane_free = self._any_free_injection_vc(node)
            if lane_free:
                return now
            # No free injection lane: the reference scan stops here.
            break
        return wake

    @staticmethod
    def _any_free_injection_vc(node: "Node") -> bool:
        for injector in node.injectors:
            for sink in injector.channel.sinks:
                if sink is not None and sink.owner is None:
                    return True
        return False

    def _fault_next_event(self, model: Optional[FaultModel]):
        """Next cycle the fault model acts, inf if never, None if unknown."""
        if model is None:
            return _INF
        cls = type(model)
        if cls.on_cycle is FaultModel.on_cycle:
            # Base no-op hook (NoFaults, TransientFaults, ...): the
            # model only acts per-transfer, and nothing transfers
            # during a skip.
            return _INF
        if cls is PermanentFaultSchedule:
            pending = model.pending
            return pending[0].cycle if pending else _INF
        if cls is CompositeFaultModel:
            nxt = _INF
            for child in model.models:
                child_next = self._fault_next_event(child)
                if child_next is None:
                    return None
                if child_next < nxt:
                    nxt = child_next
            return nxt
        if cls is LoadDependentFaults:
            # Acts only on check_interval boundaries; off-boundary
            # cycles are provable no-ops (see repro.faults.cascading).
            return model.next_event(self.now)
        # Unknown on_cycle override: its hook may act any cycle, so
        # event skipping is off (the fast per-cycle path still runs it).
        return None
