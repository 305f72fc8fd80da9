"""Deterministic in-memory execution of one full aggregation run.

Spawns n client state machines and one server, carries every message through
the bit-exact wire encoding (`Carrier.carry`, over the table of the five
stages), injects dropouts at configured round boundaries, records every
message in a transcript, and measures per-phase time and bytes. Identical
configs (including the seed) produce byte-identical transcripts.

A run holds the inputs, one wire copy of each message (the transcript), the
report, and the working set of the party acting. Clients act one at a time
unless `parallel` is set; a message the run has carried lives on only as its
wire, and each round's decoded inbox goes when the round returns.
"""

from __future__ import annotations

import enum
import json
import random
from collections.abc import Mapping
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import messages
from .errors import ClientAborted, InvalidArgument, RoundAborted
from .protocol import Client, Params, Server, as_int, plan_parameters


# The five stages, in the order their messages go on the wire: the message
# type each carries, and the roster the server admits a client's message to,
# or None for a stage the server sends.
STAGE_TABLE = {
    "round0": (messages.ClientHello, "u1"),
    "broadcast": (messages.KeyBroadcast, None),
    "round1": (messages.ShareUpload, "u2"),
    "delivery": (messages.ShareDelivery, None),
    "round2": (messages.SumShares, "u3"),
}
STAGES = tuple(STAGE_TABLE)


class DropPoint(enum.Enum):
    """Where a scheduled client leaves the run; a client not in the schedule stays."""

    AFTER_ROUND0 = "after_round0"           # advertised a key, never uploads shares
    AFTER_ROUND1_SEND = "after_round1_send" # uploaded shares, never sees the delivery
    AFTER_ROUND1_RECEIVE = "after_round1_receive"  # got the delivery, never sends sums


@dataclass
class SimConfig:
    n: int
    m: int
    rho: float = 0.0
    gamma: float = 0.0
    B: int = 2**16
    seed: int = 0
    dropout_schedule: dict = field(default_factory=dict)  # client index -> DropPoint
    inputs: list | None = None  # fixed input vectors keyed by order 1..n; None = random
    parallel: bool = False

    def plan(self) -> Params:
        return plan_parameters(self.n, self.m, B=self.B, rho=self.rho, gamma=self.gamma)

    def validate(self):
        """Refuse a malformed seed, schedule or `parallel`. A schedule of any size runs:
        whether too few clients remain is the server's call, reported in `failure`."""
        if as_int(self.seed, "seed") < 0:
            raise InvalidArgument(f"seed must be non-negative, got {self.seed}")
        if not isinstance(self.parallel, bool):
            raise InvalidArgument(f"parallel must be a bool, got {self.parallel!r}")
        if not isinstance(self.dropout_schedule, Mapping):
            raise InvalidArgument(
                f"dropout schedule must map client indices to DropPoints, got "
                f"{type(self.dropout_schedule).__name__}"
            )
        for u, point in self.dropout_schedule.items():
            if not isinstance(point, DropPoint):
                raise InvalidArgument(f"drop point {point!r} for client {u} is not a DropPoint")
            if not 1 <= as_int(u, "client index") <= self.n:
                raise InvalidArgument(f"client index {u} outside [1, {self.n}]")


@dataclass
class SimReport:
    params: Params
    aggregate: list | None
    rosters: dict                  # {"u1", "u2", "u3"} -> the server's sorted roster of each round
    expected_sum_over_u2: list | None
    client_phase_ns: dict          # u -> {"keygen", "share", "agree", "encrypt", "sum"} in ns
    server_phase_ns: dict          # {"route", "precompute", "reconstruct"} in ns
    transcript: list               # (stage, sender, recipient, payload bytes)
    aborted: dict                  # u -> the reason client u aborted, in client order
    excluded: dict                 # {"u1", "u2", "u3"} -> {v: why the server left v's message out}
    failure: str | None            # the server's reason for aborting the run, or None

    @property
    def status(self) -> str:
        return "ok" if self.aggregate is not None else "aggregation_failed"

    @property
    def roster_sizes(self) -> dict:
        return {k: len(r) for k, r in self.rosters.items()}

    def _tally(self, end: int, size) -> dict:
        """u -> size(payload) summed over the messages u sent (end 1) or received (end 2).

        The server is the other end of every message, so its totals are sums of these.
        """
        out: dict = {}
        for message in self.transcript:
            u = message[end]
            if u != "server":
                out[u] = out.get(u, 0) + size(message[3])
        return out

    @property
    def bytes_sent(self) -> dict:
        """u -> total bytes this client put on the wire."""
        return self._tally(1, len)

    @property
    def server_bytes_sent(self) -> int:
        return sum(self.bytes_received.values())

    @property
    def bytes_received(self) -> dict:
        """u -> total bytes the server put on the wire for this client."""
        return self._tally(2, len)

    @property
    def server_bytes_received(self) -> int:
        return sum(self.bytes_sent.values())

    def sent_counts(self) -> dict:
        return self._tally(1, lambda payload: 1)

    def received_counts(self) -> dict:
        return self._tally(2, lambda payload: 1)

    def stage_bytes(self) -> dict:
        """Stage -> total payload bytes of its messages, for each of the five stages in order."""
        out = dict.fromkeys(STAGES, 0)
        for stage, _, _, payload in self.transcript:
            out[stage] += len(payload)
        return out

    def to_json(self) -> str:
        params = self.params
        doc = {
            "status": self.status,
            "aggregate": self.aggregate,
            "n": params.n,
            "m": params.m,
            "t": params.t,
            "d": params.d,
            "q": params.fp.q,
            "chunk_count": params.chunk_count,
            "rosters": {k: list(r) for k, r in self.rosters.items()},
            "roster_sizes": self.roster_sizes,
            "aborted": {str(u): why for u, why in self.aborted.items()},
            "excluded": {
                r: {str(v): why for v, why in e.items()} for r, e in self.excluded.items()
            },
            "failure": self.failure,
            "expected_sum_over_u2": self.expected_sum_over_u2,
            "client_phase_ns": {str(k): v for k, v in self.client_phase_ns.items()},
            "server_phase_ns": self.server_phase_ns,
            "bytes_sent": {str(k): v for k, v in self.bytes_sent.items()},
            "server_bytes_sent": self.server_bytes_sent,
            "bytes_received": {str(k): v for k, v in self.bytes_received.items()},
            "server_bytes_received": self.server_bytes_received,
            "stage_bytes": self.stage_bytes(),
            "transcript": [
                {"stage": st, "from": s, "to": r, "payload": p.hex()}
                for st, s, r, p in self.transcript
            ],
        }
        return json.dumps(doc, indent=2, sort_keys=True)


def apply_dropout_schedule(schedule: dict, boundary: DropPoint, live_set: set) -> set:
    """Remove exactly the clients scheduled to drop at this boundary."""
    return {u for u in live_set if schedule.get(u) is not boundary}


class Carrier:
    """Carries every message of one run and keeps the run's transcript.

    `carry` serializes a message, appends its wire to the transcript, decodes
    the wire as the type its stage carries, and returns the decoded message
    for its recipient. The caller drops the message it passed, and the
    recipient the decoded copy once it has acted on it, so the wire in the
    transcript is the one copy of a message that outlives its use. A server
    message sent to many recipients is serialized once: the carrier keeps the
    last server message with its wire.
    """

    def __init__(self, params: Params, excluded: dict, live: set):
        self.params = params
        self.excluded = excluded  # the server's: roster -> {v: why it left v's message out}
        self.live = live          # the clients still in the run
        self.aborted: dict = {}   # u -> why client u left the run
        self._entries = {stage: [] for stage in STAGES}
        self._last_sent = (None, b"")

    @property
    def transcript(self) -> list:
        """(stage, sender, recipient, wire) of every message, in wire order."""
        return [entry for stage in STAGES for entry in self._entries[stage]]

    def leave(self, u, why: str):
        """Client u leaves the run, for the reason `why`."""
        self.aborted[u] = why
        self.live.discard(u)

    def carry(self, stage: str, sender, recipient, msg):
        """`msg` as its recipient decodes it, or None if the recipient gets nothing.

        A client message that does not encode, does not decode, or decodes
        to another type than its stage's is left out, with the reason in the
        server's `excluded` under the stage's roster. A server message that
        fails the same way makes its recipient leave the run, with the reason
        in `aborted`. A client that has already left gets the wire on the
        transcript and nothing else.
        """
        expected, roster = STAGE_TABLE[stage]
        try:
            if roster is not None:
                wire = messages.serialize(msg, self.params)
            elif msg is self._last_sent[0]:
                wire = self._last_sent[1]
            else:
                wire = messages.serialize(msg, self.params)
                self._last_sent = (msg, wire)
        except InvalidArgument as e:
            return self._refuse(stage, sender, recipient, f"does not encode: {e}")
        self._entries[stage].append((stage, sender, recipient, wire))
        if roster is None and recipient not in self.live:
            return None
        try:
            return messages.deserialize(wire, self.params, expected)
        except InvalidArgument as e:
            return self._refuse(stage, sender, recipient, f"does not decode: {e}")

    def _refuse(self, stage: str, sender, recipient, why: str):
        roster = STAGE_TABLE[stage][1]
        if roster is None:
            self.leave(recipient, f"client {recipient}: {stage} {why}")
        else:
            self.excluded[roster][sender] = f"message {why}"
        return None


def run_simulation(cfg: SimConfig) -> SimReport:
    """One deterministic aggregation run under the configured fault schedule.

    Too many dropouts is a legitimate outcome: the report comes back with
    status "aggregation_failed" and the server's reason in `failure` rather
    than an exception. A client that aborts, or that receives a broadcast
    or delivery that does not decode as one, leaves the run, and its reason
    goes into `aborted`; a message the server leaves out, or one that does
    not encode or decode as its stage's type, goes into `excluded` under the
    roster of its round.
    """
    params = cfg.plan()
    cfg.validate()
    rng = random.Random(int(cfg.seed))  # Random refuses numpy integers

    # Row u-1 is client u's input vector. Fixed inputs are converted once:
    # at the wide shape one conversion of the rows takes a fifth of a second.
    if cfg.inputs is not None:
        try:
            inputs = np.asarray(cfg.inputs)
        except ValueError:  # rows of different lengths
            inputs = None
        if inputs is None or inputs.shape != (cfg.n, cfg.m):
            raise InvalidArgument("fixed inputs must be n vectors of length m")
        if inputs.dtype.kind not in "iu":
            raise InvalidArgument(
                f"fixed inputs must be integers that fit int64, got {inputs.dtype} entries"
            )
    else:
        # Drawn into their rows: stacking n drawn vectors would hold the inputs twice.
        gen = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(1)[0])
        inputs = np.empty((cfg.n, cfg.m), dtype=np.int64)
        for row in inputs:
            row[:] = gen.integers(0, cfg.B, size=cfg.m)

    clients = {u: Client(u, params) for u in range(1, cfg.n + 1)}
    server = Server(params)
    carrier = Carrier(params, server.excluded, set(clients))
    carry = carrier.carry
    schedule = cfg.dropout_schedule
    aggregate = expected = failure = None

    def attempt(u, step, *args):
        """step(*args), or None with client u out of the run if it aborts."""
        try:
            return step(*args)
        except ClientAborted as e:
            carrier.leave(u, str(e))
            return None

    def drop(point: DropPoint):
        carrier.live = apply_dropout_schedule(schedule, point, carrier.live)

    def inbox(stage, sent):
        """The server's decoded messages of a stage, from (client, message or None) pairs.

        Each round takes its inbox as an argument, so the decoded copies go
        when the round returns."""
        return [got for u, msg in sent
                if msg is not None and (got := carry(stage, u, "server", msg)) is not None]

    # A round the server aborts (too few keys, uploads or sums) ends the run
    # with no aggregate; the report still holds the rosters the server kept.
    try:
        # Round 0: every live client advertises a key.
        order = sorted(carrier.live)
        broadcast = server.round0(inbox("round0", ((u, clients[u].round0(rng)) for u in order)))
        drop(DropPoint.AFTER_ROUND0)

        # Round 1: the broadcast goes to every client that advertised, and
        # those still in the run chunk, share, and encrypt.
        def share(u, got):
            return None if got is None else attempt(u, clients[u].round1, got, inputs[u - 1])

        if cfg.parallel:
            got = [carry("broadcast", "server", u, broadcast) for u in order]
            with ThreadPoolExecutor() as pool:
                uploads = list(pool.map(share, order, got))
        else:  # one client at a time, so the run holds one client's upload
            uploads = (share(u, carry("broadcast", "server", u, broadcast)) for u in order)
        deliveries = server.round1(inbox("round1", zip(order, uploads)))
        del uploads

        # Round 2: deliveries go out, survivors respond with summed shares.
        drop(DropPoint.AFTER_ROUND1_SEND)
        deliveries = {u: deliveries[u] for u in sorted(carrier.live & deliveries.keys())}
        drop(DropPoint.AFTER_ROUND1_RECEIVE)

        def respond(u):
            got = carry("delivery", "server", u, deliveries.pop(u))
            return None if got is None else attempt(u, clients[u].round2, got)

        aggregate = server.round2(inbox("round2", ((u, respond(u)) for u in list(deliveries))))
        # Every U2 input passed chunk_vector's [0, B) check, and n(B-1) < q < 2^32
        # under the kernel's range, so the int64 sum is exact. The mask sums
        # U2's rows where they lie; indexing them would copy them.
        in_u2 = np.zeros((cfg.n, 1), dtype=bool)
        in_u2[np.array(server.u2) - 1] = True
        expected = (inputs.sum(axis=0, where=in_u2) % params.fp.q).tolist()
    except RoundAborted as e:
        failure = str(e)

    return SimReport(
        params=params,
        aggregate=aggregate,
        rosters={"u1": server.u1, "u2": server.u2, "u3": server.u3},
        expected_sum_over_u2=expected,
        client_phase_ns={u: dict(c.phase_ns) for u, c in clients.items() if c.phase_ns},
        server_phase_ns=dict(server.phase_ns),
        transcript=carrier.transcript,
        aborted=dict(sorted(carrier.aborted.items())),
        excluded={r: dict(sorted(e.items())) for r, e in server.excluded.items()},
        failure=failure,
    )
