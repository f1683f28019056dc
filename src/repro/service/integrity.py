"""Result integrity: trust nothing a volunteer returns, verify it.

The chaos layer's transport faults (loss/corrupt/duplicate/reorder) are
all caught below the service: checksums, retries and dedup make them
loud.  The
compute faults in :mod:`repro.faults.compute` are different — a saboteur
wraps a *wrong answer* in a perfectly valid message, and no liveness
machinery (heartbeats, timeouts, redispatch) will ever notice, because
the peer is alive, fast and lying.  The classic volunteer-computing
defence (SETI@home, BOINC; task-level replication in Yu & Buyya's FT
taxonomy) is to stop trusting single results.  A verdict is a quorum
of the peers asked, or the controller's own recompute; a result from a
peer the iteration was not shipped to is no vote.

* :class:`ReplicationVoting` (``verification="replicate-k"``) — every
  iteration is executed on ``k`` distinct peers; results are reduced to
  the SHA-256 of their canonical wire encoding (:func:`canonical_digest`)
  and the first digest to reach a majority quorum wins.  Disagreement
  without a quorum drafts a *fresh* peer as a tie-breaker — fresh
  because a consistent saboteur re-ships the same wrong answer from its
  result cache, so re-asking it proves nothing.  With no fresh peer
  left, the controller settles the iteration itself (``local_settles``).
* :class:`SpotCheck` (``verification="spot-p"``) — a deterministic
  fraction ``p`` of iterations are quiz iterations the controller
  recomputes locally and compares against the returned digest.  Cheaper
  than replication (no extra worker executions) but probabilistic.
  Chain-shaped groups (the ``p2p`` pipeline) always verify this way:
  their placement is the topology, so there is no disjoint replica set
  to vote over — the quiz happens at the stage boundary where the final
  stage reports back.

Both recomputes are one procedure on one mirror engine: a quiz is its
one-voter case, an exhausted ballot its n-voter case.  Every voter that
disagrees with the controller, like every outvoted one, is *convicted*
through the :class:`ReputationLedger`, which drives the
:class:`~repro.service.detector.HeartbeatFailureDetector` health score:
convictions drain it, draining quarantines, repeated quarantines
blacklist.  The ``reputation_weighted`` dispatch policy
(:mod:`repro.service.placement`) steers new work toward peers never
caught.

Everything here talks to the run through
:class:`~repro.service.policies.base.DispatchContext` — strategies see
policy-agnostic dispatch/result hooks, never controller internals, so
all three stock policies (and third-party ones) verify for free.

Both strategies compare digests, and a digest is the wire's payload
checksum, so the canonical form of a result is decided in one place,
:mod:`repro.transport.wire`.  An output the wire refuses to encode
cannot be verified: digesting it raises
:class:`~repro.transport.wire.WireError` rather than hashing something
weaker than the value.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Optional

from ..core.engine import LocalEngine
from ..core.units import Unit
from ..core.xml_io import graph_from_string, graph_to_string
from ..transport.wire import result_checksum
from .errors import SchedulingError

__all__ = [
    "canonical_digest",
    "VerificationStrategy",
    "ReplicationVoting",
    "SpotCheck",
    "ReputationLedger",
    "make_verifier",
    "verification_names",
]


# -- canonical result digests -------------------------------------------------------


def canonical_digest(outputs: list[Any]) -> str:
    """SHA-256 of one iteration's outputs in the wire's canonical form.

    This is :func:`~repro.transport.wire.result_checksum` of the list:
    two honest executions of the same deterministic unit produce the
    same digest on any peer, any tampering with a value changes it, and
    a value the wire cannot encode raises
    :class:`~repro.transport.wire.WireError` instead of being hashed
    blind.
    """
    return result_checksum(list(outputs))


# -- reputation ---------------------------------------------------------------------

#: health score a conviction drains from the convicted peer
CONVICTION_PENALTY = 0.5


class ReputationLedger:
    """Conviction bookkeeping wired into the failure detector's scores.

    One ledger per controller (convictions outlive any single group run):
    each conviction applies ``CONVICTION_PENALTY`` to the peer's health
    score with an explanatory reason, so quarantine deadlines and
    blacklist reasons in the detector snapshot point back at integrity,
    not liveness.
    """

    def __init__(self, detector):
        self.detector = detector
        #: peer id → number of convictions
        self.convictions: dict[str, int] = {}
        self._seen: set[tuple[str, int]] = set()

    def convict(self, ctx, worker: str, iteration: int, reason: str) -> None:
        """Penalise ``worker`` for a provably wrong result.

        Idempotent per (worker, iteration) — a saboteur's cached re-ship
        of the same wrong answer must not drain the score twice.
        """
        if (worker, iteration) in self._seen:
            return
        self._seen.add((worker, iteration))
        self.convictions[worker] = self.convictions.get(worker, 0) + 1
        self.detector.penalise(
            worker, ctx.sim.now, CONVICTION_PENALTY,
            reason=f"integrity:{reason}",
        )
        ctx.sim.tracer.instant(
            "integrity.convict", category="service", track=ctx.peer.peer_id,
            worker=worker, iteration=iteration, reason=reason,
            convictions=self.convictions[worker],
        )
        ctx.notify("convict", worker=worker, iteration=iteration, reason=reason)

    def summary(self) -> dict[str, Any]:
        return {
            "convicted": dict(sorted(self.convictions.items())),
            "total": sum(self.convictions.values()),
        }


# -- strategies ---------------------------------------------------------------------


class VerificationStrategy:
    """Hook surface one group run drives through its DispatchContext.

    A run without verification has no strategy at all (``make_verifier``
    returns ``None``): every result settles as it arrives.  A strategy
    implements the three hooks below.
    """

    #: registry name; also the CLI spelling (possibly parameterised)
    name: str = ""

    def __init__(self):
        self.ledger: Optional[ReputationLedger] = None
        self.stats: dict[str, int] = dict.fromkeys((
            "replicas_issued", "votes", "quorum_accepts", "local_settles",
            "tie_breaks", "overturned", "spot_checks", "spot_mismatches",
        ), 0)
        #: iteration → accepted digest (audits late results against it)
        self.accepted: dict[int, str] = {}

    # -- lifecycle ----------------------------------------------------------
    def start(self, ctx) -> None:
        """Called once per group run, after the policy's own ``start``."""
        raise NotImplementedError

    # -- dispatch-side hooks -----------------------------------------------
    def on_dispatch(self, ctx, worker, deployment_id, items) -> None:
        """``(iteration, inputs)`` items were shipped to ``worker`` in one
        message (first send or re-send)."""
        raise NotImplementedError

    # -- result-side hooks --------------------------------------------------
    def on_result(self, ctx, iteration, worker, outputs) -> None:
        """A result arrived for an unsettled iteration; settle when sure."""
        raise NotImplementedError

    def on_late_result(self, ctx, iteration, worker, outputs) -> None:
        """A result arrived after the iteration settled: audit it.

        Losers of redispatch/speculation races still reveal their
        honesty — a late result disagreeing with the accepted digest is
        a conviction the voting itself never needed.
        """
        digest = self.accepted.get(iteration)
        if digest is not None and canonical_digest(outputs) != digest:
            if self.ledger is not None:
                self.ledger.convict(ctx, worker, iteration, "late-mismatch")

    # -- reporting ----------------------------------------------------------
    def report(self) -> dict[str, Any]:
        stats = self.stats
        return {"strategy": self.name, **stats,
                "wasted_executions": stats["replicas_issued"] + stats["tie_breaks"]}


class SpotCheck(VerificationStrategy):
    """Recompute a deterministic fraction of iterations at the controller.

    Quiz iterations are drawn once per group run from the
    ``verify-spotcheck`` RNG stream, so identical seeds quiz identical
    iterations.  The controller mirrors the group's engine locally
    (built from the same XML round-trip the worker uses), feeds it the
    dispatched inputs, and charges modelled CPU time for each recompute
    under a ``verify.recompute`` span.  A digest mismatch convicts the
    shipper and settles the iteration with the locally recomputed truth
    — spot-checks don't just *detect* lies, they repair the ones they
    catch.
    """

    name = "spot"

    def __init__(self, fraction: float = 0.1):
        super().__init__()
        if not 0.0 < fraction <= 1.0:
            raise SchedulingError("spot-check fraction must be in (0, 1]")
        self.fraction = fraction
        self.name = f"spot-{fraction:g}"
        self.quiz: set[int] = set()
        #: iteration → first dispatched inputs, while a recompute may need them
        self._inputs: dict[int, list] = {}
        #: the mirror engine, and whether it is stateless
        self._mirror_of: Optional[tuple[LocalEngine, bool]] = None
        #: a stateful mirror's replayed rows: iteration → (flops, outputs)
        self._rows: dict[int, tuple[float, list]] = {}
        self._next = 0

    def start(self, ctx) -> None:
        rng = ctx.rng("verify-spotcheck")
        self.quiz = {
            it for it in range(ctx.iterations)
            if float(rng.random()) < self.fraction
        }

    # -- dispatch side ------------------------------------------------------
    def on_dispatch(self, ctx, worker, deployment_id, items) -> None:
        for iteration, inputs in items:
            self._inputs.setdefault(iteration, list(inputs))

    # -- result side --------------------------------------------------------
    def on_result(self, ctx, iteration, worker, outputs) -> None:
        if iteration not in self.quiz:
            self._settle(ctx, iteration, outputs, worker)
            return
        row = self._ensure(ctx, iteration)
        ctx.spawn(self._quiz_proc(ctx, iteration, worker, outputs, row),
                  name=f"verify-quiz-{iteration}")

    def _quiz_proc(self, ctx, iteration: int, worker: str, outputs, row):
        remote = canonical_digest(outputs)
        local = yield from self._recompute(
            ctx, iteration, row, {worker: remote}, {remote: outputs}, "spot-check"
        )
        self.stats["spot_checks"] += 1
        if local != remote:
            self.stats["spot_mismatches"] += 1
            self.stats["overturned"] += 1

    def _recompute(self, ctx, iteration: int, row, votes: dict, payloads: dict,
                   reason: str):
        """Settle ``iteration`` by the controller's recompute ``row``;
        a generator returning the controller's digest.

        ``votes`` (voter → digest, in arrival order) and ``payloads``
        (digest → outputs) are read once the modelled recompute time has
        passed, so a vote cast meanwhile is judged with the rest.  Every
        voter that disagrees is convicted; the first that agrees ships
        the outputs, and failing one the controller's own do.
        """
        span = ctx.sim.tracer.begin(
            "verify.recompute", category="service", track=ctx.peer.peer_id,
            iteration=iteration, worker=next(iter(votes)),
        )
        flops, local_outputs = row
        speed = ctx.profile(ctx.peer.peer_id).cpu_flops
        yield ctx.sim.timeout(flops / speed if speed > 0 else 0.0)
        digest = canonical_digest(local_outputs)
        self.accepted[iteration] = digest
        liars = [voter for voter, vote in votes.items() if vote != digest]
        span.end(outcome="mismatch" if liars else "match")
        if self.ledger is not None:
            for voter in liars:
                self.ledger.convict(ctx, voter, iteration, reason)
        winner = next((v for v, d in votes.items() if d == digest), ctx.peer.peer_id)
        self._settle(ctx, iteration, payloads.get(digest, local_outputs), winner)
        return digest

    def _settle(self, ctx, iteration: int, outputs, worker: str) -> None:
        """Settle ``iteration`` and drop what no recompute needs any more:
        its row, and its inputs unless a stateful mirror has yet to
        replay them."""
        self._rows.pop(iteration, None)
        _engine, stateless = self._mirror(ctx)
        if stateless or iteration < self._next:
            self._inputs.pop(iteration, None)
        ctx.settle(iteration, outputs, worker)

    def _mirror(self, ctx) -> tuple[LocalEngine, bool]:
        """The group's engine, built once through the XML round-trip the
        worker deploys through, and whether it is stateless (overriding
        ``reset`` is what marks a unit stateful)."""
        if self._mirror_of is None:
            group = ctx.group
            engine = LocalEngine(
                graph_from_string(graph_to_string(group.graph),
                                  registry=group.graph.registry),
                external_inputs=tuple(group.input_map),
            )
            self._mirror_of = (engine, all(
                type(unit).reset is Unit.reset for unit in engine.units.values()
            ))
        return self._mirror_of

    def _ensure(self, ctx, iteration: int) -> tuple[float, list]:
        """The controller's ``(modelled flops, outputs)`` for ``iteration``.

        A stateless mirror computes it from its own inputs.  A stateful
        one replays every iteration before it, in order, and keeps each
        row until its iteration settles: ballots settle out of order.
        Synchronous — no sim yields — so recomputes cannot interleave.
        """
        engine, stateless = self._mirror(ctx)
        group = ctx.group

        def step(i: int) -> tuple[float, list]:
            before = engine.stats.modelled_flops
            outputs_map = engine.step(dict(zip(group.input_map, self._inputs[i])))
            return (engine.stats.modelled_flops - before,
                    [outputs_map[t][n] for t, n in group.output_map])

        if stateless:
            return step(iteration)
        while self._next <= iteration:
            self._rows[self._next] = step(self._next)
            self._next += 1
        return self._rows[iteration]


class _Ballot:
    """Voting state for one iteration under replication."""

    __slots__ = (
        "asked", "targets", "votes", "payloads", "first_digest", "tie_breaks",
        "decided", "span",
    )

    def __init__(self):
        #: peers this iteration was shipped to: the only eligible voters
        self.asked: set[str] = set()
        #: asked peers, less silent ones that went offline
        self.targets: set[str] = set()
        #: peer → digest of the result it shipped (arrival order preserved)
        self.votes: dict[str, str] = {}
        #: digest → first outputs payload carrying it
        self.payloads: dict[str, list] = {}
        self.first_digest: str = ""
        self.tie_breaks = 0
        #: a quorum accepted, or the controller's recompute is under way
        self.decided = False
        self.span: Any = None

    def ask(self, host: str) -> None:
        self.asked.add(host)
        self.targets.add(host)


class ReplicationVoting(SpotCheck):
    """Execute each iteration on ``k`` peers; a quorum of them decides.

    The fan-out piggybacks on the policy's own dispatch: the first send
    of an iteration triggers ``k - 1`` replica sends to *distinct* peers
    (batched sends replicate batch-wise, so the chunked farm keeps its
    envelope economics; tie-breaks travel as singles — a disagreeing
    batch is re-split).  Accepting at first quorum keeps the honest-fleet
    fast path cheap: with ``k = 3`` the second matching digest settles
    the iteration without waiting for the third.  A ballot every asked
    peer has answered without a quorum drafts a fresh peer; when none is
    left, the controller settles it by its own recompute on the
    spot-check mirror.

    Chain-shaped groups (a ``chained`` policy) spot-check instead: a
    pipeline's placement *is* its topology, so there is no disjoint
    replica set to vote over.
    """

    name = "replicate"
    #: quiz fraction used when a chain-shaped group forces spot-checking
    CHAIN_SPOT_FRACTION = 0.25

    def __init__(self, k: int = 3):
        super().__init__(self.CHAIN_SPOT_FRACTION)
        if k < 2:
            raise SchedulingError("replication factor must be >= 2")
        self.k = k
        self.quorum = k // 2 + 1
        self.name = f"replicate-{k}"
        self.ballots: dict[int, _Ballot] = {}
        self._dep_of_host: dict[str, str] = {}
        self._host_order: list[str] = []

    def start(self, ctx) -> None:
        if ctx.policy.chained:
            super().start(ctx)
            return
        hosts = len(set(ctx.replica_hosts))
        if hosts < self.quorum:
            raise SchedulingError(
                f"{self.name} needs a quorum of {self.quorum} matching votes "
                f"from distinct hosts, but the group runs on {hosts}"
            )
        self._host_order = list(ctx.replica_hosts)
        self._dep_of_host = dict(zip(ctx.replica_hosts, ctx.dep_ids))

    # -- dispatch side ------------------------------------------------------
    def on_dispatch(self, ctx, worker, deployment_id, items) -> None:
        super().on_dispatch(ctx, worker, deployment_id, items)
        if ctx.policy.chained:
            return
        fresh: list[tuple[int, list]] = []
        for iteration, inputs in items:
            ballot = self.ballots.get(iteration)
            if ballot is None:
                ballot = self.ballots[iteration] = _Ballot()
                fresh.append((iteration, inputs))
            # A ballot already open means a recovery redispatch or a
            # speculation: one more eligible voter.
            ballot.ask(worker)
        if not fresh:
            return
        # The fresh items replicate as one message: a single stays a
        # single, and ``chunked`` keeps its envelope amortisation.
        for host in self._extra_hosts(ctx, worker, self.k - 1):
            for iteration, _inputs in fresh:
                self.ballots[iteration].ask(host)
            self._replicate_send(ctx, host, fresh)

    def _extra_hosts(self, ctx, primary: str, count: int) -> list[str]:
        """Up to ``count`` distinct replica hosts, primary excluded.

        Deterministic rotation from the primary's slot; dispatchable
        peers first, merely-online ones as a fallback so a heavily
        quarantined fleet still gets its replicas.
        """
        hosts = self._host_order
        anchor = hosts.index(primary) if primary in hosts else 0
        ordered = [hosts[(anchor + off) % len(hosts)] for off in range(1, len(hosts))]
        online = [h for h in ordered if h != primary and ctx.is_online(h)]
        preferred = [h for h in online if ctx.detector.is_dispatchable(h, ctx.sim.now)]
        fallback = [h for h in online if h not in preferred]
        return list(dict.fromkeys(preferred + fallback))[:count]

    def _replicate_send(self, ctx, host: str, items) -> None:
        self.stats["replicas_issued"] += len(items)
        ctx.send_exec(host, self._dep_of_host[host], items, verify=False)
        tracer = ctx.sim.tracer
        if tracer.enabled:
            batched = {"batched": len(items)} if len(items) > 1 else {}
            tracer.instant(
                "verify.replicate", category="service", track=ctx.peer.peer_id,
                worker=host, iteration=items[0][0], **batched,
            )

    # -- result side --------------------------------------------------------
    def on_result(self, ctx, iteration, worker, outputs) -> None:
        if ctx.policy.chained:
            super().on_result(ctx, iteration, worker, outputs)
            return
        ballot = self.ballots.get(iteration)
        if ballot is None or worker not in ballot.asked:
            # Only a peer the iteration was shipped to votes; anything
            # else is audited like a late result.
            self.on_late_result(ctx, iteration, worker, outputs)
            return
        digest = canonical_digest(outputs)
        previous = ballot.votes.get(worker)
        if previous == digest:
            # The worker's result cache re-shipped the vote we hold
            # (recovery redispatch often lands on a peer that already
            # answered).  Drop silent targets that went offline — their
            # vote is never coming — and re-evaluate: a ballot with every
            # answer in escalates to a fresh peer or a local settle.
            ballot.targets = {
                t for t in ballot.targets
                if t in ballot.votes or ctx.is_online(t)
            }
        else:
            if previous is None:
                tracer = ctx.sim.tracer
                if not ballot.votes:
                    ballot.first_digest = digest
                    if tracer.enabled:
                        ballot.span = tracer.begin(
                            "verify.wait", category="service",
                            track=ctx.peer.peer_id, iteration=iteration,
                        )
                self.stats["votes"] += 1
                if tracer.enabled:
                    tracer.instant(
                        "verify.vote", category="service", track=ctx.peer.peer_id,
                        worker=worker, iteration=iteration, digest=digest[:12],
                    )
            # A flaky peer that changed its answer keeps only the newer vote.
            ballot.votes[worker] = digest
            ballot.payloads.setdefault(digest, list(outputs))
        if not ballot.decided:
            # A vote cast while the controller recomputes is judged when
            # the recompute ends.
            self._maybe_decide(ctx, ballot, iteration)

    def _maybe_decide(self, ctx, ballot: _Ballot, iteration: int) -> None:
        # At most one digest holds a quorum: the ballot is decided the
        # moment the first one reaches it.
        ((leader, count),) = Counter(ballot.votes.values()).most_common(1)
        if count >= self.quorum:
            self._accept(ctx, ballot, iteration, leader)
        elif len(ballot.votes) >= len(ballot.targets) and not self._tie_break(
            ctx, ballot, iteration
        ):
            # Everyone asked has answered, nobody has a quorum and no
            # fresh peer is left: the controller recomputes it.
            ballot.decided = True
            row = self._ensure(ctx, iteration)
            ctx.spawn(self._settle_locally(ctx, ballot, iteration, row),
                      name=f"verify-settle-{iteration}")

    def _tie_break(self, ctx, ballot: _Ballot, iteration: int) -> bool:
        extra = [
            h for h in self._extra_hosts(ctx, "", len(self._host_order))
            if h not in ballot.targets
        ]
        if not extra:
            return False
        host = extra[ballot.tie_breaks % len(extra)]
        ballot.tie_breaks += 1
        ballot.ask(host)
        self.stats["tie_breaks"] += 1
        ctx.send_exec(
            host, self._dep_of_host[host], [(iteration, self._inputs[iteration])],
            verify=False,
        )
        ctx.notify("tie-break", iteration=iteration, worker=host)
        ctx.sim.tracer.instant(
            "verify.tie_break", category="service", track=ctx.peer.peer_id,
            worker=host, iteration=iteration,
        )
        return True

    def _accept(self, ctx, ballot: _Ballot, iteration: int, digest: str) -> None:
        ballot.decided = True
        self.accepted[iteration] = digest
        winner = next(w for w, d in ballot.votes.items() if d == digest)
        outputs = ballot.payloads[digest]
        self._close(ballot, digest, "quorum_accepts")
        if self.ledger is not None:
            for voter, vote in ballot.votes.items():
                if vote != digest:
                    self.ledger.convict(ctx, voter, iteration, "outvoted")
        self._settle(ctx, iteration, outputs, winner)

    def _settle_locally(self, ctx, ballot: _Ballot, iteration: int, row):
        digest = yield from self._recompute(
            ctx, iteration, row, ballot.votes, ballot.payloads, "local-settle"
        )
        self._close(ballot, digest, "local_settles")

    def _close(self, ballot: _Ballot, digest: str, how: str) -> None:
        """Count the verdict ``how`` and release the ballot's payloads."""
        self.stats[how] += 1
        ballot.payloads.clear()
        if digest != ballot.first_digest:
            # The unverified controller would have accepted the first
            # arrival; the verdict overturned it.
            self.stats["overturned"] += 1
        if ballot.span is not None:
            ballot.span.end(
                outcome=how, votes=len(ballot.votes), tie_breaks=ballot.tie_breaks
            )
            ballot.span = None


# -- factory ------------------------------------------------------------------------


def verification_names() -> tuple[str, ...]:
    """The spellings ``make_verifier`` accepts (shown by the CLI)."""
    return ("none", "replicate-<k>", "spot-<fraction>")


def make_verifier(
    spec: Optional[str], ledger: Optional[ReputationLedger] = None
) -> Optional[VerificationStrategy]:
    """Parse a verification spec into a fresh strategy (or ``None``).

    ``"none"``/``None`` → no verifier; ``"replicate-3"`` → triple
    execution with quorum 2; ``"spot-0.2"`` → quiz 20% of iterations.
    """
    if spec is None or spec == "" or spec == "none":
        return None
    kind, _, arg = spec.partition("-")
    try:
        if kind == "replicate":
            strategy: VerificationStrategy = ReplicationVoting(int(arg or 3))
        elif kind == "spot":
            strategy = SpotCheck(float(arg or 0.1))
        else:
            raise ValueError(kind)
    except (ValueError, TypeError):
        raise SchedulingError(
            f"unknown verification spec {spec!r}; "
            f"valid: {', '.join(verification_names())}"
        ) from None
    strategy.ledger = ledger
    return strategy
