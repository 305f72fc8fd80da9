"""Client and server state machines for the 3-round aggregation protocol.

Round 0: every client advertises a fresh public key; the server broadcasts
the roster. Round 1: every client splits its input into length-d chunks,
ramp-shares each chunk to the roster, and uploads one authenticated
ciphertext per peer holding all of that peer's chunk shares; the server
routes them. Round 2: every client sums its own and the decrypted shares
per chunk and sends the sums; the server reconstructs each chunk and
concatenates the results.
"""

from __future__ import annotations

import enum
import math
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .aead import ae_dec, ae_enc
from .errors import (
    ClientAborted,
    InsufficientShares,
    InvalidArgument,
    MalformedPlaintext,
    ProtocolOrderViolation,
    Rejected,
    RoundAborted,
)
from .field import FieldParams, build_recon_matrix, find_field_modulus, mod_matmul, split_bit
from .keyagree import ka_agree, ka_gen
from .messages import (
    ClientHello,
    KeyBroadcast,
    ShareDelivery,
    ShareUpload,
    SumShares,
    decode_share_plaintext,  # noqa: F401  (looked up here by perfbench/tracing.py)
    decode_share_plaintexts,
    encode_share_plaintext,  # noqa: F401  (looked up here by perfbench/tracing.py)
    encode_share_plaintexts,
    share_ad,
)
from .ramp import RampParams, rss_share_batch

_EPS = 1e-9


@dataclass(frozen=True)
class Params:
    """Public protocol parameters shared by every party."""

    n: int
    t: int
    d: int
    B: int
    m: int
    fp: FieldParams

    def __post_init__(self):
        self.ramp()  # RampParams checks 0 < d < t <= n <= q-1
        if self.n * (self.B - 1) + 1 > self.fp.q:
            raise InvalidArgument("modulus too small: sums could wrap")
        # Reconstruction is an inner-length-t product mod q.
        split_bit(self.t, self.fp.q)

    @property
    def chunk_count(self) -> int:
        """How many length-d chunks a length-m input splits into."""
        return math.ceil(self.m / self.d)

    def ramp(self) -> RampParams:
        return RampParams(t=self.t, d=self.d, n=self.n, fp=self.fp)


def plan_parameters(
    n: int, m: int, B: int = 2**16, rho: float = 0.0, gamma: float = 0.0
) -> Params:
    """Derive (t, d, q) from the dropout rate rho and corruption rate gamma.

    t = n - floor(rho*n) so up to floor(rho*n) dropouts are tolerated;
    d = min(t - ceil(gamma*n), t - 1) so ceil(gamma*n) colluders see at most
    t-d shares and t - d >= 1 random coefficients remain even at gamma = 0;
    q = find_field_modulus(n, B), the smallest prime with no wrap of n sums.
    """
    if n < 2 or m < 1:
        raise InvalidArgument("need n >= 2 and m >= 1")
    if not (0 <= rho < 1 and 0 <= gamma < 1 and rho + gamma < 1):
        raise InvalidArgument("rates must satisfy 0 <= rho, gamma and rho + gamma < 1")
    t = n - math.floor(rho * n + _EPS)
    d = min(t - math.ceil(gamma * n - _EPS), t - 1)
    if d <= 0:
        raise InvalidArgument("rates too aggressive: secret length would be zero")
    return Params(n=n, t=t, d=d, B=B, m=m, fp=find_field_modulus(n, B))


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
        if not 1 <= u <= params.n:
            raise InvalidArgument(f"client index {u} outside [1, {params.n}]")
        self.u = u
        self.params = params
        self.round = Round.FRESH
        self.keypair = None
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

    def round1(self, broadcast: KeyBroadcast, x, rng=None, np_rng=None) -> ShareUpload:
        """Share the input vector to the Round-0 roster.

        The random sharing coefficients come from the numpy generator
        `np_rng`; without one, a generator is seeded with 256 bits drawn
        from `rng` (or from the system when `rng` is None). That seed is the
        only use of `rng`: the AEAD nonces are derived, not drawn.
        """
        if self.round is not Round.ADVERTISED:
            raise ProtocolOrderViolation(f"round1 called in state {self.round}")
        p = self.params
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
        points = sorted(roster)

        t0 = time.perf_counter_ns()
        chunks = chunk_vector(x, p.d, p.B)
        if np_rng is None:
            seed = rng.getrandbits(256) if rng is not None else None
            np_rng = np.random.default_rng(seed)
        share_matrix = rss_share_batch(p.ramp(), chunks, points, np_rng)
        self.phase_ns["share"] = time.perf_counter_ns() - t0

        self.own_shares = share_matrix[:, points.index(self.u)].copy()
        others = [v for v in points if v != self.u]

        t0 = time.perf_counter_ns()
        for v in others:
            try:
                self.pair_keys[v] = ka_agree(self.keypair, roster[v])
            except InvalidArgument as e:
                self._abort(f"malformed public key for peer {v}: {e}")
        self.phase_ns["agree"] = time.perf_counter_ns() - t0

        t0 = time.perf_counter_ns()
        cts = []
        # Encoding the whole roster in one pass (own column included, then
        # skipped) is cheaper than first gathering the peers' columns.
        plaintexts = encode_share_plaintexts(share_matrix, p.fp)
        for v, pt in zip(points, plaintexts):
            if v != self.u:
                cts.append((v, ae_enc(self.pair_keys[v], pt, share_ad(self.u, v))))
        self.phase_ns["encrypt"] = time.perf_counter_ns() - t0

        self.round = Round.SHARED
        return ShareUpload(u=self.u, ciphertexts=tuple(cts))

    def round2(self, delivery: ShareDelivery) -> SumShares:
        """Decrypt peers' shares, each bound to (sender, self) as AEAD data, and sum per chunk.

        The plaintexts are decoded together into one (senders, chunks) block,
        summed down its columns and dropped.
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
        plaintexts = []
        for v, ct_bytes in delivery.ciphertexts:
            if v not in self.pair_keys:
                self._abort(f"delivery names unexpected sender {v}")
            try:
                plaintexts.append(ae_dec(self.pair_keys[v], ct_bytes, share_ad(v, self.u)))
            except Rejected:
                self._abort(f"ciphertext from {v} failed authentication")
            except InvalidArgument as e:
                self._abort(f"malformed share payload from {v}: {e}")
        try:
            shares = decode_share_plaintexts(plaintexts, p.chunk_count, p.fp)
        except MalformedPlaintext as e:
            self._abort(f"malformed share payload from {senders[e.index]}: {e}")
        # At most n <= q-1 addends below q each, and FieldParams keeps
        # (q-1)^2 < 2^63, so one reduction at the end is exact.
        sums = (self.own_shares + shares.sum(axis=0)) % p.fp.q
        self.phase_ns["sum"] = time.perf_counter_ns() - t0

        self.round = Round.DONE
        return SumShares(u=self.u, sums=sums)


class Server:
    """The aggregation server: collects, routes, and reconstructs."""

    def __init__(self, params: Params):
        self.params = params
        self.round = 0
        self.u1: tuple = ()
        self.u2: tuple = ()
        self.u3: tuple = ()
        self.excluded: dict = {}  # v -> why client v's upload was left out of U2
        self.phase_ns = {}

    def round0(self, hellos) -> KeyBroadcast:
        if self.round != 0:
            raise ProtocolOrderViolation("round0 already closed")
        p = self.params
        indices = [h.u for h in hellos]
        if len(set(indices)) != len(indices):
            raise InvalidArgument("duplicate client index in Round 0")
        for h in hellos:
            if not 1 <= h.u <= p.n:
                raise InvalidArgument(f"unknown client index {h.u}")
        if len(indices) < p.t:
            raise RoundAborted(f"Round 0: only {len(indices)} keys collected, need {p.t}")
        self.u1 = tuple(sorted(indices))
        public_keys = {h.u: h.public_key for h in hellos}
        self.round = 1
        return KeyBroadcast(keys=tuple((u, public_keys[u]) for u in self.u1))

    def round1(self, uploads) -> dict:
        """Route the uploads; a faulty upload is left out of U2, not fatal.

        An upload is faulty if it addresses a ciphertext to itself or to a
        client outside U1, or lacks one for another uploader. Its sender is
        treated as dropped before uploading, with the reason in `excluded`.
        """
        if self.round != 1:
            raise ProtocolOrderViolation("round1 out of order")
        p = self.params
        t0 = time.perf_counter_ns()
        senders = [up.u for up in uploads]
        if len(set(senders)) != len(senders):
            raise InvalidArgument("duplicate upload in Round 1")
        u1set = set(self.u1)
        for up in uploads:
            if up.u not in u1set:
                raise InvalidArgument(f"upload from client {up.u} outside the roster")
        by_sender = {up.u: dict(up.ciphertexts) for up in uploads}
        for v, cts in by_sender.items():
            stray = sorted(cts.keys() - (u1set - {v}))
            missing = sorted(by_sender.keys() - cts.keys() - {v})
            if stray:
                self.excluded[v] = f"ciphertext addressed to unknown recipient {stray[0]}"
            elif missing:
                self.excluded[v] = f"client {v} sent no ciphertext for {missing[0]}"
        # Leaving a sender out only removes recipients, so every upload kept
        # here still covers all of U2: one pass is already stable.
        self.u2 = tuple(sorted(by_sender.keys() - self.excluded.keys()))
        if len(self.u2) < p.t:
            left_out = f" ({len(self.excluded)} left out)" if self.excluded else ""
            raise RoundAborted(
                f"Round 1: only {len(self.u2)} uploads collected{left_out}, need {p.t}"
            )
        deliveries = {
            u: ShareDelivery(ciphertexts=tuple((v, by_sender[v][u]) for v in self.u2 if v != u))
            for u in self.u2
        }
        self.phase_ns["route"] = time.perf_counter_ns() - t0
        self.round = 2
        return deliveries

    def round2(self, sums) -> list[int]:
        if self.round != 2:
            raise ProtocolOrderViolation("round2 out of order")
        p = self.params
        senders = [s.u for s in sums]
        if len(set(senders)) != len(senders):
            raise InvalidArgument("duplicate sum-share message in Round 2")
        u2set = set(self.u2)
        for s in sums:
            if s.u not in u2set:
                raise InvalidArgument(f"sum shares from client {s.u} outside U2")
            if len(s.sums) != p.chunk_count:
                raise InvalidArgument("sum-share vector has wrong chunk count")
            if s.sums.min() < 0 or s.sums.max() >= p.fp.q:
                raise InvalidArgument(f"sum shares from client {s.u} outside [0, {p.fp.q})")
        if len(senders) < p.t:
            raise InsufficientShares(
                f"Round 2: only {len(senders)} sum-share messages collected, need {p.t}"
            )
        self.u3 = tuple(sorted(senders))

        pts = self.u3[: p.t]
        t0 = time.perf_counter_ns()
        matrix = build_recon_matrix(pts, p.d, p.fp)
        self.phase_ns["precompute"] = time.perf_counter_ns() - t0

        # The reconstruct phase times only the reconstruction computation:
        # applying the precomputed matrix to the summed shares. Unpacking the
        # received share vectors into matrix form and converting the result
        # back to Python ints are message marshaling, not reconstruction.
        by_u = {s.u: s.sums for s in sums}
        sum_matrix = np.stack([by_u[u] for u in pts])
        t0 = time.perf_counter_ns()
        # One product over all chunks: matrix (d x t) @ sums (t x chunks).
        coeff = mod_matmul(matrix, sum_matrix, p.fp.q)
        self.phase_ns["reconstruct"] = time.perf_counter_ns() - t0
        self.round = 3
        return coeff.T.reshape(-1)[: p.m].tolist()
