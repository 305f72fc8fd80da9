"""Deterministic in-memory execution of one full aggregation run.

Spawns n client state machines and one server, carries every message through
the bit-exact wire encoding, injects dropouts at configured round boundaries,
records corrupted parties' received traffic, and measures per-phase time and
bytes. Identical configs (including the seed) produce byte-identical
transcripts.
"""

from __future__ import annotations

import enum
import json
import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import yaml

from . import messages
from .errors import ClientAborted, InvalidArgument, RoundAborted
from .protocol import Client, Params, Server, plan_parameters


class DropPoint(enum.Enum):
    NEVER = "never"
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
    corrupted: frozenset = frozenset()
    inputs: list | None = None  # fixed input vectors keyed by order 1..n; None = random
    parallel: bool = False

    def plan(self) -> Params:
        return plan_parameters(self.n, self.m, B=self.B, rho=self.rho, gamma=self.gamma)

    def validate(self, params: Params):
        for u, point in self.dropout_schedule.items():
            if not isinstance(point, DropPoint):
                raise InvalidArgument(f"drop point {point!r} for client {u} is not a DropPoint")
        dropping = {u for u, p in self.dropout_schedule.items() if p is not DropPoint.NEVER}
        if len(dropping) > self.n - params.t:
            raise InvalidArgument(
                f"{len(dropping)} scheduled dropouts exceed the budget {self.n - params.t}"
            )
        if len(self.corrupted) > params.k:
            raise InvalidArgument(
                f"{len(self.corrupted)} corrupted clients exceed the budget {params.k}"
            )
        for u in list(self.dropout_schedule) + list(self.corrupted):
            if not 1 <= u <= self.n:
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
    corrupted: frozenset           # the clients whose received payloads are their views
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

    @property
    def corrupted_views(self) -> dict:
        """u -> the payloads each corrupted client received, in order."""
        views: dict = {u: [] for u in self.corrupted}
        for _, _, recipient, payload in self.transcript:
            if recipient in views:
                views[recipient].append(payload)
        return views

    def sent_counts(self) -> dict:
        return self._tally(1, lambda payload: 1)

    def received_counts(self) -> dict:
        return self._tally(2, lambda payload: 1)

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
            "transcript": [
                {"stage": st, "from": s, "to": r, "payload": p.hex()}
                for st, s, r, p in self.transcript
            ],
            "corrupted_views": {
                str(u): [p.hex() for p in views] for u, views in self.corrupted_views.items()
            },
        }
        return json.dumps(doc, indent=2, sort_keys=True)


def apply_dropout_schedule(schedule: dict, boundary: DropPoint, live_set: set) -> set:
    """Remove exactly the clients scheduled to drop at this boundary."""
    return {u for u in live_set if schedule.get(u, DropPoint.NEVER) is not boundary}


def run_simulation(cfg: SimConfig) -> SimReport:
    """One deterministic aggregation run under the configured fault schedule.

    Too many dropouts is a legitimate outcome: the report comes back with
    status "aggregation_failed" and the server's reason in `failure` rather
    than an exception. A client that aborts leaves the run, and its reason
    goes into `aborted`; a message the server leaves out, or one that does
    not decode, goes into `excluded` under the roster of its round.
    """
    params = cfg.plan()
    cfg.validate(params)
    fp = params.fp
    rng = random.Random(cfg.seed)

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
        gen = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(1)[0])
        inputs = np.stack([gen.integers(0, cfg.B, size=cfg.m) for _ in range(cfg.n)])

    clients = {u: Client(u, params) for u in range(1, cfg.n + 1)}
    server = Server(params)
    transcript: list = []
    schedule = cfg.dropout_schedule
    aggregate = expected = failure = None
    live = set(clients)
    aborted: dict = {}

    def attempt(u, step):
        """step(u), or None with the reason recorded if client u aborts."""
        try:
            return step(u)
        except ClientAborted as e:
            aborted[u] = str(e)
            return None

    roster_of = {"round0": "u1", "round1": "u2", "round2": "u3"}

    def post(stage, sender, msg, inbox):
        """Carry one client message to the server: its decoded copy goes into
        `inbox`, or the reason it does not encode or decode into `excluded`."""
        try:
            wire = messages.serialize(msg, fp)
        except InvalidArgument as e:
            server.excluded[roster_of[stage]][sender] = f"message does not encode: {e}"
            return
        transcript.append((stage, sender, "server", wire))
        try:
            inbox.append(messages.deserialize(wire, fp))
        except InvalidArgument as e:
            server.excluded[roster_of[stage]][sender] = f"message does not decode: {e}"

    # A round the server aborts (too few keys, uploads or sums) ends the run
    # with no aggregate; the report still holds the rosters the server kept.
    try:
        # Round 0: every live client advertises a key.
        hellos = []
        for u in sorted(live):
            post("round0", u, clients[u].round0(rng), hellos)
        broadcast_wire = messages.serialize(server.round0(hellos), fp)
        for u in sorted(live):
            transcript.append(("broadcast", "server", u, broadcast_wire))

        live = apply_dropout_schedule(schedule, DropPoint.AFTER_ROUND0, live)

        # Round 1: surviving clients chunk, share, and encrypt.
        def do_round1(u):
            return clients[u].round1(messages.deserialize(broadcast_wire, fp), inputs[u - 1])

        order = sorted(live)
        if cfg.parallel:
            with ThreadPoolExecutor() as pool:
                results = list(pool.map(lambda u: attempt(u, do_round1), order))
        else:
            results = [attempt(u, do_round1) for u in order]
        uploads = []
        for u, res in zip(order, results):
            if res is None:
                live.discard(u)
            else:
                post("round1", u, res, uploads)

        deliveries = server.round1(uploads)

        live = apply_dropout_schedule(schedule, DropPoint.AFTER_ROUND1_SEND, live)

        # Round 2: deliveries go out, survivors respond with summed shares.
        delivery_wires = {}
        for u in sorted(live & deliveries.keys()):
            delivery_wires[u] = messages.serialize(deliveries[u], fp)
            transcript.append(("delivery", "server", u, delivery_wires[u]))
        live = apply_dropout_schedule(schedule, DropPoint.AFTER_ROUND1_RECEIVE, live)

        def do_round2(u):
            return clients[u].round2(messages.deserialize(delivery_wires[u], fp))

        sums = []
        for u in sorted(live & delivery_wires.keys()):
            msg = attempt(u, do_round2)
            if msg is not None:
                post("round2", u, msg, sums)

        aggregate = server.round2(sums)
        # Every U2 input passed chunk_vector's [0, B) check, and n(B-1) < q < 2^32
        # under the kernel's range, so the int64 sum is exact.
        expected = (inputs[[u - 1 for u in server.u2]].sum(axis=0) % fp.q).tolist()
    except RoundAborted as e:
        failure = str(e)

    return SimReport(
        params=params,
        aggregate=aggregate,
        rosters={"u1": server.u1, "u2": server.u2, "u3": server.u3},
        expected_sum_over_u2=expected,
        client_phase_ns={u: dict(c.phase_ns) for u, c in clients.items() if c.phase_ns},
        server_phase_ns=dict(server.phase_ns),
        transcript=transcript,
        corrupted=frozenset(cfg.corrupted),
        aborted=dict(sorted(aborted.items())),
        excluded={r: dict(sorted(e.items())) for r, e in server.excluded.items()},
        failure=failure,
    )


def _integer(v) -> int:
    if isinstance(v, int) and not isinstance(v, bool):
        return v
    if isinstance(v, float) and v.is_integer():
        return int(v)
    raise ValueError("expected an integer")


def _number(v) -> float:
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        return float(v)
    raise ValueError("expected a number")


def _boolean(v) -> bool:
    if not isinstance(v, bool):
        raise ValueError("expected true or false")
    return v


# SimConfig field -> the converter its YAML value goes through.
_CONVERTERS = {
    "n": _integer,
    "m": _integer,
    "rho": _number,
    "gamma": _number,
    "B": _integer,
    "seed": _integer,
    "dropout_schedule": lambda s: {_integer(u): DropPoint(p) for u, p in (s or {}).items()},
    "corrupted": lambda c: frozenset(_integer(u) for u in c),
    "inputs": lambda rows: [[_integer(x) for x in r] for r in rows],
    "parallel": _boolean,
}


def load_sim_config(path) -> SimConfig:
    """Read a SimConfig from a YAML key-value file.

    A key that is not a field, a missing `n` or `m`, or a value that does not
    convert to its field's type raises InvalidArgument naming the key. An
    integer field or input entry takes a YAML integer (or an integral float),
    a rate takes a YAML number and a flag takes only a YAML boolean; a bool, a
    string or a fraction is refused, not converted. An absent key takes
    SimConfig's default.
    """
    with open(path) as f:
        doc = yaml.safe_load(f) or {}
    if not isinstance(doc, dict):
        raise InvalidArgument(f"not a mapping of keys to values in {path}: {doc!r}")
    unknown = sorted(set(map(str, doc)) - _CONVERTERS.keys())
    if unknown:
        raise InvalidArgument(f"unknown key(s) in {path}: {', '.join(unknown)}")
    missing = [k for k in ("n", "m") if k not in doc]
    if missing:
        raise InvalidArgument(f"missing key(s) in {path}: {', '.join(missing)}")
    converted = {}
    for key, convert in _CONVERTERS.items():
        if key in doc:
            try:
                converted[key] = convert(doc[key])
            except (AttributeError, TypeError, ValueError) as e:
                raise InvalidArgument(f"bad value for {key} in {path}: {doc[key]!r} ({e})") from e
    return SimConfig(**converted)
