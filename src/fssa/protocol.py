"""Client and server state machines for the 3-round aggregation protocol.

Round 0: every client advertises a fresh public key; the server broadcasts
the roster U1. Round 1: every client u splits its input into length-d
chunks and ramp-shares each chunk to U1. The shares of the t-d designated
peers D_u (`designated_peers`) are drawn from the pair keys, and the
sharing polynomials are solved to take them; u uploads one authenticated
ciphertext per other peer, holding all of that peer's chunk shares, and
nothing for D_u. The server routes them. Round 2: every client derives the
shares of the senders that designate it, decrypts the others, sums them
with its own per chunk and sends the sums; the server reconstructs each
chunk and concatenates the results. In every round the server leaves out a
faulty message, as if its sender had dropped, and aborts only if fewer than
t remain.
"""

from __future__ import annotations

import bisect
import enum
import math
import numbers
import operator
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .aead import TAG_LEN, ae_dec, ae_enc, derive_elems
from .errors import (
    ClientAborted,
    InvalidArgument,
    MalformedPlaintext,
    ProtocolOrderViolation,
    Rejected,
    RoundAborted,
)
from .field import build_recon_matrix, find_field_modulus, mod_matmul
from .keyagree import decode_public, ka_agree, ka_gen
from .messages import (
    ClientHello,
    KeyBroadcast,
    ShareDelivery,
    ShareUpload,
    SumShares,
    block_size,
    decode_share_plaintext,
    encode_share_plaintext,
    share_ad,
)
from .ramp import RampParams, rss_share_batch

_EPS = 1e-9


@dataclass(frozen=True)
class Params(RampParams):
    """Public protocol parameters: the sharing's RampParams, the input bound B and length m."""

    B: int
    m: int

    def __post_init__(self):
        super().__post_init__()
        if self.n * (self.B - 1) + 1 > self.fp.q:
            raise InvalidArgument("modulus too small: sums could wrap")

    @property
    def chunk_count(self) -> int:
        """How many length-d chunks a length-m input splits into."""
        return math.ceil(self.m / self.d)


def as_int(value, what: str) -> int:
    """value as a Python int: numpy integers convert; bools, floats and strings are refused."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise InvalidArgument(f"{what} must be an integer, got {value!r}")


def as_rate(value, what: str) -> float:
    """value as a float: real numbers convert; bools, strings and None are refused."""
    if isinstance(value, numbers.Real) and not isinstance(value, (bool, np.bool_)):
        return float(value)
    raise InvalidArgument(f"{what} must be a real number, got {value!r}")


def plan_parameters(
    n: int, m: int, B: int = 2**16, rho: float = 0.0, gamma: float = 0.0
) -> Params:
    """Derive (t, d, q) from the dropout rate rho and corruption rate gamma.

    t = n - floor(rho*n) so up to floor(rho*n) dropouts are tolerated;
    d = min(t - ceil(gamma*n), t - 1) so ceil(gamma*n) colluders see at most
    t-d shares and t - d >= 1 random coefficients remain even at gamma = 0;
    q = find_field_modulus(n, B), the smallest prime with no wrap of n sums.
    """
    n, m, B = as_int(n, "n"), as_int(m, "m"), as_int(B, "B")
    rho, gamma = as_rate(rho, "rho"), as_rate(gamma, "gamma")
    if n < 2 or m < 1:
        raise InvalidArgument("need n >= 2 and m >= 1")
    if not (0 <= rho < 1 and 0 <= gamma < 1 and rho + gamma < 1):
        raise InvalidArgument("rates must satisfy 0 <= rho, gamma and rho + gamma < 1")
    t = n - math.floor(rho * n + _EPS)
    d = min(t - math.ceil(gamma * n - _EPS), t - 1)
    if d <= 0:
        raise InvalidArgument("rates too aggressive: secret length would be zero")
    return Params(n=n, t=t, d=d, B=B, m=m, fp=find_field_modulus(n, B))


def designated_peers(u: int, roster, k: int) -> tuple:
    """D_u: the k members of the sorted roster U1 that follow u, cyclically.

    A public function of u and U1, so u, the server and every peer compute
    the same set: u derives these peers' shares from the pair keys and sends
    them nothing.
    """
    i = bisect.bisect_right(roster, u)
    return tuple(roster[i : i + k]) + tuple(roster[: max(0, i + k - len(roster))])


def chunk_vector(x, d: int, B: int) -> np.ndarray:
    """Split an input vector into a (ceil(m/d), d) int64 array, zero-padding the last chunk."""
    if d < 1:
        raise InvalidArgument("chunk length must be positive")
    try:
        a = np.asarray(x)
    except (OverflowError, TypeError, ValueError) as e:
        raise InvalidArgument(f"input entries must be integers that fit int64: {e}") from e
    if a.ndim != 1:
        raise InvalidArgument("input must be a one-dimensional vector")
    if a.size < 1:
        raise InvalidArgument("empty input vector")
    # A float, bool or string entry is refused, not truncated or converted.
    if a.dtype.kind not in "iu":
        raise InvalidArgument(f"input entries must be integers that fit int64, got {a.dtype}")
    # numpy gives [True, 2] an integer dtype, so a sequence is scanned for bools.
    if not isinstance(x, np.ndarray) and {bool, np.bool_} & set(map(type, x)):
        raise InvalidArgument("input entries must be integers, got a bool")
    if a.min() < 0 or a.max() >= B:
        bad = a[(a < 0) | (a >= B)][0]
        raise InvalidArgument(f"entry {bad} outside [0, {B})")
    chunks = np.zeros((-(-a.size // d), d), dtype=np.int64)
    chunks.reshape(-1)[: a.size] = a
    return chunks


class Round(enum.Enum):
    FRESH = "fresh"
    ADVERTISED = "advertised"
    SHARED = "shared"
    DONE = "done"
    ABORTED = "aborted"


class Client:
    """One client's sequential state machine.

    Rounds must be driven in order; a failed protocol check moves the state
    to ABORTED and raises ClientAborted. `phase_ns` records wall time spent
    in each computational phase for the measurement harness.
    """

    def __init__(self, u: int, params: Params):
        u = as_int(u, "client index")
        if not 1 <= u <= params.n:
            raise InvalidArgument(f"client index {u} outside [1, {params.n}]")
        self.u = u
        self.params = params
        self.round = Round.FRESH
        self.keypair = None
        self.u1 = ()              # the Round-0 roster, ascending
        self.pair_keys = {}       # v -> 32-byte symmetric key, for each other roster member
        self.own_shares = None    # this client's own share of each chunk (int64 array)
        self.phase_ns = {}

    def _abort(self, why: str):
        self.round = Round.ABORTED
        raise ClientAborted(f"client {self.u}: {why}")

    def round0(self, rng=None) -> ClientHello:
        if self.round is not Round.FRESH:
            raise ProtocolOrderViolation(f"round0 called in state {self.round}")
        t0 = time.perf_counter_ns()
        self.keypair = ka_gen(rng)
        self.phase_ns["keygen"] = time.perf_counter_ns() - t0
        self.round = Round.ADVERTISED
        return ClientHello(u=self.u, public_key=self.keypair.public)

    def round1(self, broadcast: KeyBroadcast, x) -> ShareUpload:
        """Share the input vector to the Round-0 roster U1.

        The shares of the designated peers D_u are drawn from the pair keys
        (`derive_elems` under share_ad(u, v)); they are the sharing
        polynomials' only randomness, so this round draws none. Every other
        peer gets one ciphertext.
        """
        if self.round is not Round.ADVERTISED:
            raise ProtocolOrderViolation(f"round1 called in state {self.round}")
        p = self.params
        repeated = [v for v, k in Counter(v for v, _ in broadcast.keys).items() if k > 1]
        if repeated:
            self._abort(f"broadcast repeats index {repeated[0]}")
        roster = dict(broadcast.keys)
        if len(roster) < p.t:
            self._abort(f"roster size {len(roster)} below threshold {p.t}")
        outside = [v for v in sorted(roster) if not 1 <= v <= p.n]
        if outside:
            self._abort(f"roster index {outside[0]} outside [1, {p.n}]")
        if len({pk for pk in roster.values()}) != len(roster):
            self._abort("duplicate public keys in broadcast")
        if roster.get(self.u) != self.keypair.public:
            self._abort("own public key missing or mismatched in broadcast")
        if len(x) != p.m:
            raise InvalidArgument(f"input vector length {len(x)} != m = {p.m}")
        self.u1 = tuple(sorted(roster))

        t0 = time.perf_counter_ns()
        for v in self.u1:
            if v == self.u:
                continue
            try:
                self.pair_keys[v] = ka_agree(self.keypair, roster[v])
            except InvalidArgument as e:
                self._abort(f"malformed public key for peer {v}: {e}")
        self.phase_ns["agree"] = time.perf_counter_ns() - t0

        t0 = time.perf_counter_ns()
        chunks = chunk_vector(x, p.d, p.B)
        designated = designated_peers(self.u, self.u1, p.k)
        values = derive_elems(
            [(self.pair_keys[v], share_ad(self.u, v)) for v in designated], p.chunk_count, p.fp.q
        )
        skip = set(designated)
        points = [v for v in self.u1 if v not in skip]
        share_matrix = rss_share_batch(p, chunks, points, designated, values.T)
        self.phase_ns["share"] = time.perf_counter_ns() - t0
        self.own_shares = share_matrix[:, points.index(self.u)].copy()

        t0 = time.perf_counter_ns()
        cts = []
        # Encoding every column in one pass (own column included, then
        # skipped) is cheaper than first gathering the peers' columns.
        plaintexts = encode_share_plaintext(share_matrix, p.fp)
        for v, pt in zip(points, plaintexts):
            if v != self.u:
                cts.append((v, ae_enc(self.pair_keys[v], pt, share_ad(self.u, v))))
        self.phase_ns["encrypt"] = time.perf_counter_ns() - t0

        self.round = Round.SHARED
        return ShareUpload(u=self.u, ciphertexts=tuple(cts))

    def round2(self, delivery: ShareDelivery) -> SumShares:
        """Recover peers' shares and sum them per chunk.

        A sender that designates this client sends an empty entry and its
        shares are derived from the pair key; any other sender's ciphertext
        is opened with (sender, self) as AEAD data. The opened plaintexts are
        decoded together into one (senders, chunks) block, and both blocks
        are summed down their columns and dropped.
        """
        if self.round is not Round.SHARED:
            raise ProtocolOrderViolation(f"round2 called in state {self.round}")
        p = self.params
        senders = [v for v, _ in delivery.ciphertexts]
        repeated = [v for v, k in Counter(senders).items() if k > 1]
        if repeated:
            self._abort(f"delivery repeats sender {repeated[0]}")
        u2 = set(senders) | {self.u}
        if len(u2) < p.t:
            self._abort(f"|U2| = {len(u2)} below threshold {p.t}")

        t0 = time.perf_counter_ns()
        # v designates this client when it is among the t-d members before
        # it, cyclically: exactly when it is not among the others after it.
        not_designating = set(designated_peers(self.u, self.u1, len(self.u1) - 1 - p.k))
        plaintexts, sealed, streams = [], [], []
        for v, ct_bytes in delivery.ciphertexts:
            if v not in self.pair_keys:
                self._abort(f"delivery names unexpected sender {v}")
            if v not in not_designating:
                if ct_bytes:
                    self._abort(f"sender {v} designates this client but sent a ciphertext")
                streams.append((self.pair_keys[v], share_ad(v, self.u)))
                continue
            if not ct_bytes:
                self._abort(f"empty payload from {v}, which does not designate this client")
            try:
                plaintexts.append(ae_dec(self.pair_keys[v], ct_bytes, share_ad(v, self.u)))
            except Rejected:
                self._abort(f"ciphertext from {v} failed authentication")
            except InvalidArgument as e:
                self._abort(f"malformed share payload from {v}: {e}")
            sealed.append(v)
        try:
            shares = decode_share_plaintext(plaintexts, p.chunk_count, p.fp)
        except MalformedPlaintext as e:
            self._abort(f"malformed share payload from {sealed[e.index]}: {e}")
        derived = derive_elems(streams, p.chunk_count, p.fp.q)
        # At most n <= q-1 addends below q each, and FieldParams keeps
        # (q-1)^2 < 2^63, so one reduction at the end is exact.
        sums = (self.own_shares + shares.sum(axis=0) + derived.sum(axis=0)) % p.fp.q
        self.phase_ns["sum"] = time.perf_counter_ns() - t0

        self.round = Round.DONE
        return SumShares(u=self.u, sums=sums)


# Per roster: the round that fills it, one of its messages, and what it collects.
_ROUNDS = {
    "u1": ("Round 0", "hello", "keys"),
    "u2": ("Round 1", "upload", "uploads"),
    "u3": ("Round 2", "sum-share message", "sum-share messages"),
}


class Server:
    """The aggregation server: collects, routes, and reconstructs."""

    def __init__(self, params: Params):
        self.params = params
        self.round = 0
        self.u1: tuple = ()
        self.u2: tuple = ()
        self.u3: tuple = ()
        self.excluded: dict = {r: {} for r in _ROUNDS}  # roster -> {v: why v was left out}
        self.phase_ns = {}

    def _admit(self, roster: str, msgs, allowed, where: str, check):
        """One round's admission rule: the messages kept, by index, which form `roster`.

        A message is left out if its index is shared (it cannot be pinned on
        one sender) or not in `allowed`, or if check(msg) gives a reason.
        Reasons go into excluded[roster]; one already there (a message that
        did not decode) counts as received. Fewer than t kept abort the round.
        """
        label, noun, kept_noun = _ROUNDS[roster]
        left_out = self.excluded[roster]
        received = len(msgs) + len(left_out)
        for u, k in Counter(msg.u for msg in msgs).items():
            if k > 1:
                left_out[u] = f"{k} {noun}s under index {u}"
            elif u not in allowed:
                left_out[u] = f"{noun} from client {u} outside {where}"
        for msg in msgs:
            if msg.u not in left_out and (why := check(msg)):
                left_out[msg.u] = why
        kept = {msg.u: msg for msg in msgs if msg.u not in left_out}
        setattr(self, roster, tuple(sorted(kept)))
        if len(kept) < self.params.t:
            dropped = f" ({received - len(kept)} left out)" if received > len(kept) else ""
            raise RoundAborted(
                f"{label}: only {len(kept)} {kept_noun} collected{dropped}, need {self.params.t}"
            )
        return kept

    def round0(self, hellos) -> KeyBroadcast:
        """Broadcast the keys of U1, the senders whose hellos `_admit` keeps.

        A hello is faulty if its index is outside [1, n], if its key does not
        decode (every peer would refuse it), or if another hello with an
        index in [1, n] carries the same key: like a shared index, a shared
        key cannot be pinned on one sender, and either holder could open
        the ciphertexts sealed for the other.
        """
        if self.round != 0:
            raise ProtocolOrderViolation("round0 already closed")
        n = self.params.n
        keys = Counter(h.public_key for h in hellos if 1 <= h.u <= n)

        def faulty(h):
            try:
                decode_public(h.public_key)
            except InvalidArgument as e:
                return f"client {h.u} sent a key no peer accepts: {e}"
            if keys[h.public_key] > 1:
                return f"client {h.u} sent a key another hello also carries"

        kept = self._admit("u1", hellos, range(1, n + 1), f"[1, {n}]", faulty)
        self.round = 1
        return KeyBroadcast(keys=tuple((u, kept[u].public_key) for u in self.u1))

    def round1(self, uploads) -> dict:
        """Route the uploads of U2, the senders in U1 whose uploads `_admit` keeps.

        An upload from v is faulty unless it addresses exactly U1 - D_v - {v},
        the peers `Client.round1` seals for, each once, with ciphertexts of
        block_size(chunk_count) + TAG_LEN bytes, the length a share plaintext
        seals to; so every delivery's sealed entries share one size. The
        server cannot open them: a ciphertext of that length holding other
        bytes passes here, and its recipient refuses it at authentication.
        A delivery to u carries (v, b"") for each v in U2 that designates u.
        """
        if self.round != 1:
            raise ProtocolOrderViolation("round1 out of order")
        p = self.params
        t0 = time.perf_counter_ns()
        u1set = set(self.u1)
        ct_len = block_size(p.chunk_count, p.fp) + TAG_LEN

        def faulty(up):
            v = up.u
            counts = Counter(w for w, _ in up.ciphertexts)
            if repeated := [w for w, k in counts.items() if k > 1]:
                return f"client {v} sent {counts[repeated[0]]} ciphertexts to {repeated[0]}"
            recipients = set(counts)
            sealed_for = u1set - {v} - set(designated_peers(v, self.u1, p.k))
            if missing := sealed_for - recipients:
                return f"client {v} sent no ciphertext for {min(missing)}"
            if stray := recipients - sealed_for:
                return f"client {v} sent a ciphertext to {min(stray)}, which it does not seal for"
            if wrong := [(w, ct) for w, ct in up.ciphertexts if len(ct) != ct_len]:
                w, ct = wrong[0]
                return f"client {v} sent a {len(ct)}-byte ciphertext to {w}, not {ct_len}"

        kept = self._admit("u2", uploads, u1set, "the roster", faulty)
        by_sender = {v: dict(up.ciphertexts) for v, up in kept.items()}
        deliveries = {
            u: ShareDelivery(
                ciphertexts=tuple((v, by_sender[v].get(u, b"")) for v in self.u2 if v != u)
            )
            for u in self.u2
        }
        self.phase_ns["route"] = time.perf_counter_ns() - t0
        self.round = 2
        return deliveries

    def round2(self, sums) -> list[int]:
        """Reconstruct the aggregate from the sums of U3, the senders in U2 that `_admit` keeps.

        A message is faulty if it holds the wrong number of chunks or an entry
        outside [0, q), since the same residues shifted by a multiple of q
        would reconstruct a wrong aggregate.
        """
        if self.round != 2:
            raise ProtocolOrderViolation("round2 out of order")
        p = self.params

        def faulty(s):
            if len(s.sums) != p.chunk_count:
                return f"client {s.u} sent {len(s.sums)} sum shares, not {p.chunk_count}"
            if s.sums.min() < 0 or s.sums.max() >= p.fp.q:
                return f"sum shares from client {s.u} outside [0, {p.fp.q})"

        kept = self._admit("u3", sums, set(self.u2), "U2", faulty)
        pts = self.u3[: p.t]
        t0 = time.perf_counter_ns()
        matrix = build_recon_matrix(pts, p.d, p.fp)
        self.phase_ns["precompute"] = time.perf_counter_ns() - t0

        # The reconstruct phase times only the reconstruction computation:
        # applying the precomputed matrix to the summed shares. Unpacking the
        # received share vectors into matrix form and converting the result
        # back to Python ints are message marshaling, not reconstruction.
        sum_matrix = np.stack([kept[u].sums for u in pts])
        t0 = time.perf_counter_ns()
        # One product over all chunks: matrix (d x t) @ sums (t x chunks).
        coeff = mod_matmul(matrix, sum_matrix, p.fp.q)
        self.phase_ns["reconstruct"] = time.perf_counter_ns() - t0
        self.round = 3
        return coeff.T.reshape(-1)[: p.m].tolist()
