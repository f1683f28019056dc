"""Result integrity: trust nothing a volunteer returns, verify it.

The chaos layer's transport faults (corrupt/duplicate/reorder) are all
caught below the service: checksums and dedup make them loud.  The
compute faults in :mod:`repro.faults.compute` are different — a saboteur
wraps a *wrong answer* in a perfectly valid message, and no liveness
machinery (heartbeats, timeouts, redispatch) will ever notice, because
the peer is alive, fast and lying.  The classic volunteer-computing
defence (SETI@home, BOINC; task-level replication in Yu & Buyya's FT
taxonomy) is to stop trusting single results:

* :class:`ReplicationVoting` (``verification="replicate-k"``) — every
  iteration is executed on ``k`` distinct peers; results are reduced to
  the SHA-256 of their canonical wire encoding (:func:`canonical_digest`)
  and the first digest to reach a majority quorum wins.  Disagreement
  without a quorum drafts a *fresh* peer as a tie-breaker — fresh
  because a consistent saboteur re-ships the same wrong answer from its
  result cache, so re-asking it proves nothing.
* :class:`SpotCheck` (``verification="spot-p"``) — a deterministic
  fraction ``p`` of iterations are quiz iterations the controller
  recomputes locally and compares against the returned digest.  Cheaper
  than replication (no extra worker executions) but probabilistic.
  Chain-shaped groups (the ``p2p`` pipeline) always verify this way:
  their placement is the topology, so there is no disjoint replica set
  to vote over — the quiz happens at the stage boundary where the final
  stage reports back.

Outvoted or quiz-failed peers are *convicted* through the
:class:`ReputationLedger`, which drives the existing
:class:`~repro.service.detector.HeartbeatFailureDetector` health-score
machinery: convictions drain the score, draining quarantines, repeated
quarantines blacklist — extending the detector's judgement from
*liveness* to *trustworthiness*.  The ``reputation_weighted`` dispatch
policy (:mod:`repro.service.placement`) closes the loop by steering new
work toward peers that have never been caught.

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

from typing import Any, Optional

from ..core.engine import LocalEngine
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

    The default implementation verifies nothing: every result settles
    immediately, which is byte-for-byte the unverified code path.
    """

    #: registry name; also the CLI spelling (possibly parameterised)
    name: str = ""

    def __init__(self):
        self.ledger: Optional[ReputationLedger] = None
        self.stats: dict[str, int] = {
            "replicas_issued": 0,
            "votes": 0,
            "quorum_accepts": 0,
            "plurality_accepts": 0,
            "tie_breaks": 0,
            "overturned": 0,
            "spot_checks": 0,
            "spot_mismatches": 0,
        }
        #: iteration → accepted digest (audits late results against it)
        self.accepted: dict[int, str] = {}

    # -- lifecycle ----------------------------------------------------------
    def start(self, ctx) -> None:
        """Called once per group run, after the policy's own ``start``."""

    def finalize(self, ctx) -> None:
        """The group's iterations are all settled; close open state."""

    # -- dispatch-side hooks -----------------------------------------------
    def on_dispatch(self, ctx, worker, deployment_id, items) -> None:
        """``(iteration, inputs)`` items were shipped to ``worker`` in one
        message (first send or re-send)."""

    # -- result-side hooks --------------------------------------------------
    def on_result(self, ctx, iteration, worker, outputs) -> None:
        """A result arrived for an unsettled iteration; settle when sure."""
        ctx.settle(iteration, outputs, worker)

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
        out: dict[str, Any] = {"strategy": self.name}
        out.update(self.stats)
        out["wasted_executions"] = (
            self.stats["replicas_issued"] + self.stats["tie_breaks"]
        )
        return out


class _Ballot:
    """Voting state for one iteration under replication."""

    __slots__ = (
        "targets", "votes", "payloads", "first_digest", "tie_breaks",
        "decided", "span",
    )

    def __init__(self):
        #: peers this iteration was shipped to (eligible voters)
        self.targets: set[str] = set()
        #: peer → digest of the result it shipped (arrival order preserved)
        self.votes: dict[str, str] = {}
        #: digest → first outputs payload carrying it
        self.payloads: dict[str, list] = {}
        self.first_digest: str = ""
        self.tie_breaks = 0
        self.decided = False
        self.span: Any = None


class ReplicationVoting(VerificationStrategy):
    """Execute each iteration on ``k`` peers; majority digest wins.

    The fan-out piggybacks on the policy's own dispatch: the first send
    of an iteration triggers ``k - 1`` replica sends to *distinct* peers
    (batched sends replicate batch-wise, so the chunked farm keeps its
    envelope economics; tie-breaks travel as singles — a disagreeing
    batch is re-split).  Accepting at first quorum keeps the honest-fleet
    fast path cheap: with ``k = 3`` the second matching digest settles
    the iteration without waiting for the third.

    Chain-shaped groups (``ctx.chain``) delegate to :class:`SpotCheck`:
    a pipeline's placement *is* its topology, so there is no disjoint
    replica set to vote over.
    """

    name = "replicate"
    #: quiz fraction used when a chain-shaped group forces spot-checking
    CHAIN_SPOT_FRACTION = 0.25

    def __init__(self, k: int = 3):
        super().__init__()
        if k < 2:
            raise SchedulingError("replication factor must be >= 2")
        self.k = k
        self.quorum = k // 2 + 1
        self.name = f"replicate-{k}"
        self.ballots: dict[int, _Ballot] = {}
        self._dep_of_host: dict[str, str] = {}
        self._host_order: list[str] = []
        self._delegate: Optional["SpotCheck"] = None

    def start(self, ctx) -> None:
        if ctx.chain:
            delegate = SpotCheck(self.CHAIN_SPOT_FRACTION)
            delegate.ledger = self.ledger
            delegate.stats = self.stats  # shared: one report per group
            delegate.accepted = self.accepted
            delegate.start(ctx)
            self._delegate = delegate
            return
        self._host_order = list(ctx.replica_hosts)
        self._dep_of_host = dict(zip(ctx.replica_hosts, ctx.dep_ids))

    def finalize(self, ctx) -> None:
        if self._delegate is not None:
            self._delegate.finalize(ctx)
            return
        for iteration in sorted(self.ballots):
            ballot = self.ballots[iteration]
            if ballot.span is not None and not ballot.decided:
                ballot.span.end(outcome="abandoned")
                ballot.span = None

    # -- dispatch side ------------------------------------------------------
    def on_dispatch(self, ctx, worker, deployment_id, items) -> None:
        if self._delegate is not None:
            self._delegate.on_dispatch(ctx, worker, deployment_id, items)
            return
        fresh: list[tuple[int, list]] = []
        for iteration, inputs in items:
            ballot = self.ballots.get(iteration)
            if ballot is None:
                ballot = self.ballots[iteration] = _Ballot()
                fresh.append((iteration, inputs))
            # A ballot already open means a recovery redispatch or a
            # speculation: one more eligible voter.
            ballot.targets.add(worker)
        if not fresh:
            return
        # The fresh items replicate as one message: a single stays a
        # single, and ``chunked`` keeps its envelope amortisation.
        for host in self._extra_hosts(ctx, worker, self.k - 1):
            for iteration, _inputs in fresh:
                self.ballots[iteration].targets.add(host)
            self._replicate_send(ctx, host, fresh)

    def _extra_hosts(self, ctx, primary: str, count: int) -> list[str]:
        """Up to ``count`` distinct replica hosts, primary excluded.

        Deterministic rotation from the primary's slot; dispatchable
        peers first, merely-online ones as a fallback so a heavily
        quarantined fleet still gets its replicas.
        """
        hosts = self._host_order
        if primary in hosts:
            anchor = hosts.index(primary)
        else:
            anchor = 0
        ordered = [hosts[(anchor + off) % len(hosts)] for off in range(1, len(hosts))]
        ordered = [h for h in ordered if h != primary]
        now = ctx.sim.now
        preferred = [
            h for h in ordered
            if ctx.is_online(h) and ctx.detector.is_dispatchable(h, now)
        ]
        fallback = [h for h in ordered if h not in preferred and ctx.is_online(h)]
        chosen: list[str] = []
        for host in preferred + fallback:
            if host not in chosen:
                chosen.append(host)
            if len(chosen) >= count:
                break
        return chosen

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
        if self._delegate is not None:
            self._delegate.on_result(ctx, iteration, worker, outputs)
            return
        ballot = self.ballots.get(iteration)
        if ballot is None:
            # No ballot means we never saw a dispatch (shouldn't happen);
            # fail open rather than wedge the run.
            ctx.settle(iteration, outputs, worker)
            return
        digest = canonical_digest(outputs)
        previous = ballot.votes.get(worker)
        if previous is not None:
            if previous == digest:
                # The worker's idempotent result cache re-shipped the
                # vote we already hold — asking *it* again can never
                # break a tie, but the re-ship itself is harmless while
                # other voters are still due (recovery redispatch
                # routinely lands on a peer that already answered).
                # Drop silent targets that have gone offline (their
                # vote is never coming), then re-evaluate: a ballot
                # with every answer in escalates to a fresh peer or,
                # failing that, plurality.
                ballot.targets = {
                    t for t in ballot.targets
                    if t in ballot.votes or ctx.is_online(t)
                }
                self._maybe_decide(ctx, ballot, iteration)
            else:
                # A flaky peer changed its answer: keep the newer vote.
                ballot.votes[worker] = digest
                ballot.payloads.setdefault(digest, list(outputs))
                self._maybe_decide(ctx, ballot, iteration)
            return
        if not ballot.votes:
            ballot.first_digest = digest
            tracer = ctx.sim.tracer
            if tracer.enabled:
                ballot.span = tracer.begin(
                    "verify.wait", category="service", track=ctx.peer.peer_id,
                    iteration=iteration,
                )
        ballot.votes[worker] = digest
        ballot.payloads.setdefault(digest, list(outputs))
        self.stats["votes"] += 1
        tracer = ctx.sim.tracer
        if tracer.enabled:
            tracer.instant(
                "verify.vote", category="service", track=ctx.peer.peer_id,
                worker=worker, iteration=iteration, digest=digest[:12],
            )
        self._maybe_decide(ctx, ballot, iteration)

    def _maybe_decide(self, ctx, ballot: _Ballot, iteration: int) -> None:
        counts: dict[str, int] = {}
        for digest in ballot.votes.values():
            counts[digest] = counts.get(digest, 0) + 1
        # Deterministic plurality: most votes, digest as tie-break.
        leader = min(counts, key=lambda d: (-counts[d], d))
        if counts[leader] >= self.quorum:
            self._accept(ctx, ballot, iteration, leader, "quorum_accepts")
            return
        if len(ballot.votes) >= len(ballot.targets):
            # Everyone asked has answered and nobody has a majority:
            # draft a fresh tie-breaker, or accept the plurality when
            # the fleet is exhausted (liveness over paranoia).
            if not self._tie_break(ctx, ballot, iteration):
                self._accept(ctx, ballot, iteration, leader, "plurality_accepts")

    def _tie_break(self, ctx, ballot: _Ballot, iteration: int) -> bool:
        if ballot.decided:
            return True
        extra = [
            h for h in self._extra_hosts(ctx, "", len(self._host_order))
            if h not in ballot.targets
        ]
        if not extra:
            return False
        host = extra[ballot.tie_breaks % len(extra)]
        ballot.tie_breaks += 1
        ballot.targets.add(host)
        self.stats["tie_breaks"] += 1
        inputs = None
        # The controller no longer holds the inputs — but the farm's
        # Outstanding record does, via the context's live payload store.
        inputs = ctx.iteration_inputs.get(iteration)
        if inputs is None:
            return False
        ctx.send_exec(
            host, self._dep_of_host[host], [(iteration, inputs)], verify=False
        )
        ctx.notify("tie-break", iteration=iteration, worker=host)
        ctx.sim.tracer.instant(
            "verify.tie_break", category="service", track=ctx.peer.peer_id,
            worker=host, iteration=iteration,
        )
        return True

    def _accept(
        self, ctx, ballot: _Ballot, iteration: int, digest: str, how: str
    ) -> None:
        ballot.decided = True
        self.stats[how] += 1
        if digest != ballot.first_digest:
            # The unverified controller would have accepted the first
            # arrival; voting overturned it.
            self.stats["overturned"] += 1
        self.accepted[iteration] = digest
        if ballot.span is not None:
            ballot.span.end(
                outcome=how, votes=len(ballot.votes), tie_breaks=ballot.tie_breaks
            )
            ballot.span = None
        winner = next(w for w, d in ballot.votes.items() if d == digest)
        if self.ledger is not None:
            for voter, vote in ballot.votes.items():
                if vote != digest:
                    self.ledger.convict(ctx, voter, iteration, "outvoted")
        outputs = ballot.payloads[digest]
        ballot.payloads.clear()
        ctx.settle(iteration, outputs, winner)


class SpotCheck(VerificationStrategy):
    """Recompute a deterministic fraction of iterations at the controller.

    Quiz iterations are drawn once per group run from the
    ``verify-spotcheck`` RNG stream, so identical seeds quiz identical
    iterations.  The controller mirrors the group's engine locally
    (built from the same XML round-trip the worker uses), advances it
    with the dispatched inputs, and charges modelled CPU time for each
    quiz recompute under a ``verify.recompute`` span.  A digest mismatch
    convicts the shipper and settles the iteration with the locally
    recomputed truth — spot-checks don't just *detect* lies, they repair
    the ones they catch.
    """

    name = "spot"

    def __init__(self, fraction: float = 0.1):
        super().__init__()
        if not 0.0 < fraction <= 1.0:
            raise SchedulingError("spot-check fraction must be in (0, 1]")
        self.fraction = fraction
        self.name = f"spot-{fraction:g}"
        self.quiz: set[int] = set()
        self._inputs: dict[int, list] = {}
        self._engine: Optional[LocalEngine] = None
        self._ext: tuple = ()
        self._out_spec: tuple = ()
        self._next = 0
        #: quiz iteration → (local digest, modelled flops, local outputs)
        self._cache: dict[int, tuple[str, float, list]] = {}

    def start(self, ctx) -> None:
        rng = ctx.rng("verify-spotcheck")
        self.quiz = {
            it for it in range(ctx.iterations)
            if float(rng.random()) < self.fraction
        }
        group = ctx.group
        self._ext = tuple(group.input_map)
        self._out_spec = tuple(group.output_map)
        # Same XML round-trip the worker deploys through, for fidelity.
        self._engine = LocalEngine(
            graph_from_string(graph_to_string(group.graph),
                              registry=group.graph.registry),
            external_inputs=self._ext,
        )

    # -- dispatch side ------------------------------------------------------
    def on_dispatch(self, ctx, worker, deployment_id, items) -> None:
        # First dispatch wins: re-dispatches carry identical inputs.
        for iteration, inputs in items:
            self._inputs.setdefault(iteration, list(inputs))

    # -- result side --------------------------------------------------------
    def on_result(self, ctx, iteration, worker, outputs) -> None:
        if iteration not in self.quiz:
            ctx.settle(iteration, outputs, worker)
            return
        ctx.spawn(
            self._quiz_proc(ctx, iteration, worker, outputs),
            name=f"verify-quiz-{iteration}",
        )

    def _quiz_proc(self, ctx, iteration: int, worker: str, outputs):
        tracer = ctx.sim.tracer
        span = tracer.begin(
            "verify.recompute", category="service", track=ctx.peer.peer_id,
            iteration=iteration, worker=worker,
        )
        local_digest, flops, local_outputs = self._ensure(iteration)
        speed = ctx.profile(ctx.peer.peer_id).cpu_flops
        yield ctx.sim.timeout(flops / speed if speed > 0 else 0.0)
        self.stats["spot_checks"] += 1
        remote_digest = canonical_digest(outputs)
        ok = remote_digest == local_digest
        span.end(outcome="match" if ok else "mismatch")
        tracer.instant(
            "verify.vote", category="service", track=ctx.peer.peer_id,
            worker=worker, iteration=iteration, digest=remote_digest[:12],
            quiz=True, match=ok,
        )
        self.accepted[iteration] = local_digest
        if ok:
            ctx.settle(iteration, outputs, worker)
            return
        self.stats["spot_mismatches"] += 1
        self.stats["overturned"] += 1
        if self.ledger is not None:
            self.ledger.convict(ctx, worker, iteration, "spot-check")
        ctx.settle(iteration, local_outputs, ctx.peer.peer_id)

    def _ensure(self, iteration: int) -> tuple[str, float, list]:
        """Advance the mirror engine up to ``iteration``; cache quiz rows.

        The engine is stateful, so iterations are replayed strictly in
        order from the recorded dispatch inputs; only quiz iterations
        pay modelled recompute time (the mirror state for the rest is
        bookkeeping the controller carries anyway).  Synchronous — no
        sim yields — so concurrent quiz processes cannot interleave an
        advance.
        """
        engine = self._engine
        assert engine is not None
        while self._next <= iteration:
            i = self._next
            inputs = self._inputs[i]
            external = dict(zip(self._ext, inputs))
            before = engine.stats.modelled_flops
            outputs_map = engine.step(external)
            flops = engine.stats.modelled_flops - before
            if i in self.quiz:
                outs = [outputs_map[t][n] for t, n in self._out_spec]
                self._cache[i] = (canonical_digest(outs), flops, outs)
            self._next += 1
        return self._cache[iteration]


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
