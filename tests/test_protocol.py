import contextlib
import math
import random
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import fssa.messages
import fssa.protocol
from fssa.aead import ae_enc
from fssa.errors import (
    ClientAborted,
    InvalidArgument,
    ProtocolOrderViolation,
    RoundAborted,
)
from fssa.field import FieldParams
from fssa.keyagree import ka_gen
from fssa.messages import (
    ClientHello,
    KeyBroadcast,
    ShareDelivery,
    ShareUpload,
    SumShares,
    share_ad,
)
from fssa.protocol import (
    Client,
    Params,
    Round,
    Server,
    chunk_vector,
    designated_peers,
    plan_parameters,
)
from fssa.sim import DropPoint, SimConfig, run_simulation

from _oracles import pack_bits, poly_eval


def pinned_designated(values):
    """Stands in for derive_elems: (sender, recipient) draws values[sender, recipient].

    Sender and recipient both look the values up by the stream's associated
    data, so the pinned shares reach both ends as the keystream's would.
    """
    by_ad = {share_ad(u, v): row for (u, v), row in values.items()}

    def derive(streams, count, q):
        rows = [by_ad[ad] for _, ad in streams]
        return np.array(rows, dtype=np.int64).reshape(len(rows), count)

    return derive


def run_full(params, inputs, seed=0, drop_after_round1=(), designated=None):
    """Drive the state machines directly; returns (aggregate, sums, server).

    `sums` maps each Round-2 client to its SumShares message. `designated`,
    if given, pins the chunk shares of every (sender, designated peer) pair.
    """
    rng = random.Random(seed)
    clients = {u: Client(u, params) for u in range(1, params.n + 1)}
    server = Server(params)
    with contextlib.ExitStack() as stack:
        if designated is not None:
            stack.enter_context(
                mock.patch.object(fssa.protocol, "derive_elems", pinned_designated(designated))
            )
        broadcast = server.round0([c.round0(rng) for c in clients.values()])
        uploads = [c.round1(broadcast, inputs[c.u - 1]) for c in clients.values()]
        deliveries = server.round1(uploads)
        sums = {
            u: clients[u].round2(dv)
            for u, dv in deliveries.items()
            if u not in drop_after_round1
        }
    return server.round2(list(sums.values())), sums, server


class TestPlanParameters:
    def test_reference_rates(self):
        p = plan_parameters(100, 1000, rho=0.3, gamma=0.3)
        assert (p.t, p.d) == (70, 40)

    def test_no_dropout_no_corruption(self):
        p = plan_parameters(100, 10, rho=0.0, gamma=0.0)
        assert (p.t, p.d) == (100, 99)  # d is always at most t-1

    def test_modulus_bound(self):
        p = plan_parameters(500, 10, B=2**16)
        assert p.fp.q >= 500 * (2**16 - 1) + 1

    def test_chunk_count(self):
        p = plan_parameters(100, 100000, rho=0.3, gamma=0.3)
        assert p.chunk_count == math.ceil(100000 / 40) == 2500

    def test_infeasible_rates(self):
        with pytest.raises(InvalidArgument):
            plan_parameters(100, 10, rho=0.6, gamma=0.6)
        with pytest.raises(InvalidArgument):
            plan_parameters(100, 10, rho=1.0)

    @pytest.mark.parametrize("n, m", [(1, 4), (5, 0)], ids=["one-client", "empty-vector"])
    def test_degenerate_shape_refused(self, n, m):
        with pytest.raises(InvalidArgument, match="need n >= 2 and m >= 1"):
            plan_parameters(n, m)

    def test_rates_near_float_boundaries(self):
        # 0.3 * 10 must round as exactly 3, not 2.999...
        p = plan_parameters(10, 5, rho=0.3, gamma=0.3)
        assert (p.t, p.d) == (7, 4)

    def test_supplied_modulus_too_small(self):
        with pytest.raises(InvalidArgument, match="sums could wrap"):
            Params(n=100, t=100, d=99, B=2**16, m=10, fp=FieldParams(101))

    def test_kernel_range_limit(self):
        # At B = 2^16 and rho = 0 (t = n), n = 2047 is the largest cohort
        # whose inner-length-t products mod q the exact kernel accepts.
        assert plan_parameters(2047, 10, B=2**16).t == 2047
        with pytest.raises(InvalidArgument, match="no exact mod-q matmul"):
            plan_parameters(2048, 10, B=2**16)

    def test_largest_cohort_refused(self):
        # t = n = 2^20 at q = 1048583: 3*bits(q-1) + 2*bits(t) = 105 > 104.
        with pytest.raises(InvalidArgument, match="no exact mod-q matmul"):
            plan_parameters(2**20, 1, B=2, gamma=0.5)

    @pytest.mark.parametrize("args, kw, name", [
        ((10, 2.5), {}, "m"),
        ((10, True), {}, "m"),
        ((2.5, 10), {}, "n"),
        ((10, 10), {"B": 2.5}, "B"),
        ((10, 10), {"B": "16"}, "B"),
    ], ids=["fractional-m", "bool-m", "fractional-n", "fractional-B", "string-B"])
    def test_non_integer_shape_refused(self, args, kw, name):
        with pytest.raises(InvalidArgument, match=f"{name} must be an integer"):
            plan_parameters(*args, **kw)

    @pytest.mark.parametrize("kw, name", [
        ({"rho": "0.1"}, "rho"),
        ({"gamma": None}, "gamma"),
        ({"rho": False}, "rho"),
        ({"gamma": np.bool_(True)}, "gamma"),
    ], ids=["string-rho", "none-gamma", "bool-rho", "numpy-bool-gamma"])
    def test_non_numeric_rate_refused(self, kw, name):
        with pytest.raises(InvalidArgument, match=f"{name} must be a real number"):
            plan_parameters(10, 10, **kw)

    def test_numpy_integers_planned_as_ints(self):
        p = plan_parameters(np.int64(10), np.int64(10), B=np.int64(16))
        assert p == plan_parameters(10, 10, B=16)
        assert {type(p.n), type(p.m), type(p.B)} == {int}

    def test_params_invariants(self):
        p = plan_parameters(5, 4)
        with pytest.raises(InvalidArgument):
            Params(n=p.n, t=p.t, d=p.t + 1, B=p.B, m=p.m, fp=p.fp)
        with pytest.raises(InvalidArgument, match="no random coefficient"):
            Params(n=p.n, t=p.t, d=p.t, B=p.B, m=p.m, fp=p.fp)


_RATES = st.sampled_from([0.0, 0.05, 0.1, 0.2, 0.25, 0.3, 0.5, 0.7, 0.9])


@settings(max_examples=300, deadline=None)
@given(n=st.integers(2, 300), rho=_RATES, gamma=_RATES, B=st.sampled_from([2, 16, 2**16]))
def test_plan_parameters_property(n, rho, gamma, B):
    # The one planning policy, checked against exact rational arithmetic:
    # every plan either is refused or keeps 0 < d < t <= n with at least
    # max(1, ceil(gamma*n)) random coefficients over the smallest no-wrap prime.
    try:
        p = plan_parameters(n, 3, B=B, rho=rho, gamma=gamma)
    except InvalidArgument:
        return
    assert 0 < p.d < p.t <= n
    assert p.t == n - math.floor(Fraction(str(rho)) * n)
    assert p.t - p.d >= max(1, math.ceil(Fraction(str(gamma)) * n))
    assert p.fp.q == sympy.nextprime(n * (B - 1))  # the smallest prime >= n(B-1)+1


class TestChunkVector:
    def test_exact_multiple(self):
        assert chunk_vector([1, 2, 3, 4], 2, 10).tolist() == [[1, 2], [3, 4]]

    def test_zero_padding(self):
        assert chunk_vector([1, 2, 3], 2, 10).tolist() == [[1, 2], [3, 0]]

    def test_single_chunk(self):
        assert chunk_vector([5], 3, 10).tolist() == [[5, 0, 0]]

    def test_out_of_range_entry(self):
        with pytest.raises(InvalidArgument):
            chunk_vector([10], 2, 10)
        with pytest.raises(InvalidArgument):
            chunk_vector([-1], 2, 10)

    def test_empty_rejected(self):
        with pytest.raises(InvalidArgument, match="empty input vector"):
            chunk_vector([], 2, 10)

    @pytest.mark.parametrize(
        "x", [[1.7, 2], [True, False], ["3", "2"], [True, 2], [1, [2, 3]]],
        ids=["float", "bool", "str", "mixed-bool", "ragged"],
    )
    def test_non_integer_entries_rejected(self, x):
        with pytest.raises(InvalidArgument, match="must be integers"):
            chunk_vector(x, 2, 10)

    def test_two_dimensional_rejected(self):
        with pytest.raises(InvalidArgument, match="one-dimensional"):
            chunk_vector([[1, 2]], 2, 10)

    def test_zero_chunk_length_rejected(self):
        with pytest.raises(InvalidArgument, match="chunk length must be positive"):
            chunk_vector([1, 2], 0, 10)


class TestDesignatedPeers:
    def test_follow_cyclically(self):
        roster = (2, 3, 5, 8, 9)
        assert designated_peers(3, roster, 2) == (5, 8)
        assert designated_peers(8, roster, 3) == (9, 2, 3)
        assert designated_peers(9, roster, 4) == (2, 3, 5, 8)

    def test_every_member_designated_k_times(self):
        # Each member is designated by exactly the k members before it.
        roster = tuple(range(1, 11))
        for k in range(1, 10):
            seen = [w for u in roster for w in designated_peers(u, roster, k)]
            assert all(u not in designated_peers(u, roster, k) for u in roster)
            assert sorted(seen) == sorted(roster * k)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(1, 40), min_size=2, max_size=12, unique=True))
    def test_recipient_side_matches_sender_side(self, members):
        # Client.round2 finds the senders that seal for u as the
        # |U1| - 1 - k members after it; they must be exactly the v with
        # u outside D_v, the peers Server.round1 expects v to seal for.
        roster = tuple(sorted(members))
        for k in range(1, len(roster)):
            for u in roster:
                sealing = designated_peers(u, roster, len(roster) - 1 - k)
                for v in roster:
                    if v != u:
                        assert (v in sealing) == (u not in designated_peers(v, roster, k))


class TestEndToEnd:
    def test_exact_aggregate_no_dropout(self):
        p = plan_parameters(5, 7, B=16, rho=0.2, gamma=0.2)
        inputs = [[(u * 3 + j) % 16 for j in range(7)] for u in range(5)]
        agg, _, server = run_full(p, inputs)
        assert agg == [sum(col) for col in zip(*inputs)]
        assert server.u3 == (1, 2, 3, 4, 5)

    def test_exact_aggregate_with_round2_dropout(self):
        # Clients dropping after Round 1 still have their input included.
        p = plan_parameters(5, 4, B=16, rho=0.2)
        inputs = [[u + 1, 0, 3, u] for u in range(5)]
        agg, _, server = run_full(p, inputs, drop_after_round1={2})
        assert agg == [sum(col) for col in zip(*inputs)]
        assert server.u3 == (1, 3, 4, 5)

    def test_hand_trace_three_clients(self):
        # n=3, t=2, d=1, q=11, B=4: inputs 1, 2, 3, every designated share
        # pinned. Client u uses f_u(x) = x_u + u*x, fixed by its value at the
        # one peer it designates: f_1(2) = 3, f_2(3) = 8, f_3(1) = 6.
        p = Params(n=3, t=2, d=1, B=4, m=1, fp=FieldParams(11))
        assert p.chunk_count == 1
        assert [designated_peers(u, (1, 2, 3), 1) for u in (1, 2, 3)] == [(2,), (3,), (1,)]
        designated = {(1, 2): [3], (2, 3): [8], (3, 1): [6]}
        agg, sums, _ = run_full(p, [[1], [2], [3]], designated=designated)
        assert agg == [6]
        # Each client's Round-2 sum is F(u) for F(x) = 6 + 6x (the sum poly).
        for u in (1, 2, 3):
            assert sums[u].sums.tolist() == [poly_eval([6, 6], u, p.fp)]

    def test_too_many_dropouts_fails(self):
        p = plan_parameters(5, 3, B=16, rho=0.2)
        inputs = [[1, 2, 3]] * 5
        with pytest.raises(RoundAborted, match="only 3 sum-share messages collected, need 4"):
            run_full(p, inputs, drop_after_round1={1, 4})  # only 3 < t=4 remain


class TestClientAborts:
    def _setup(self, n=4):
        p = plan_parameters(n, 2, B=16, rho=0.25)
        rng = random.Random(1)
        clients = {u: Client(u, p) for u in range(1, n + 1)}
        server = Server(p)
        broadcast = server.round0([c.round0(rng) for c in clients.values()])
        return p, rng, clients, server, broadcast

    @pytest.mark.parametrize("u", [0, 5])
    def test_index_outside_cohort_refused(self, u):
        p = plan_parameters(4, 2, B=16, rho=0.25)
        with pytest.raises(InvalidArgument, match=r"client index .* outside \[1, 4\]"):
            Client(u, p)

    @pytest.mark.parametrize(
        "u", ["1", True, np.bool_(True), 1.0, 2.5, None],
        ids=["str", "bool", "np-bool", "float", "fraction", "None"],
    )
    def test_non_integer_index_refused(self, u):
        # A bool would go on the wire as index 1, a float would construct and
        # then fail to encode its hello: both are refused at construction.
        p = plan_parameters(4, 2, B=16, rho=0.25)
        with pytest.raises(InvalidArgument, match="client index must be an integer"):
            Client(u, p)

    def test_numpy_integer_index_is_a_python_int(self):
        client = Client(np.int64(2), plan_parameters(4, 2, B=16, rho=0.25))
        assert type(client.u) is int and client.u == 2
        assert client.round0(random.Random(1)).u == 2

    def test_input_of_wrong_length_refused(self):
        p, rng, clients, _, broadcast = self._setup()
        with pytest.raises(InvalidArgument, match="input vector length 3 != m = 2"):
            clients[1].round1(broadcast, [1, 2, 3])

    def test_small_roster_aborts(self):
        p, rng, clients, _, broadcast = self._setup()
        short = KeyBroadcast(keys=broadcast.keys[: p.t - 1])
        with pytest.raises(ClientAborted):
            clients[1].round1(short, [1, 2])
        assert clients[1].round is Round.ABORTED

    def test_duplicate_public_keys_abort(self):
        p, rng, clients, _, broadcast = self._setup()
        keys = list(broadcast.keys)
        keys[1] = (keys[1][0], keys[0][1])  # clone client 1's key onto client 2
        with pytest.raises(ClientAborted):
            clients[1].round1(KeyBroadcast(keys=tuple(keys)), [1, 2])

    def test_own_key_mismatch_aborts(self):
        p, rng, clients, _, broadcast = self._setup()
        keys = [(u, pk if u != 1 else b"\x07") for u, pk in broadcast.keys]
        with pytest.raises(ClientAborted):
            clients[1].round1(KeyBroadcast(keys=tuple(keys)), [1, 2])

    def test_malformed_peer_key_aborts(self):
        p, rng, clients, _, broadcast = self._setup()
        # u = 0 is a low-order point: its shared secret is all zero.
        keys = [(u, pk if u != 3 else bytes(32)) for u, pk in broadcast.keys]
        with pytest.raises(ClientAborted, match="peer 3"):
            clients[1].round1(KeyBroadcast(keys=tuple(keys)), [1, 2])
        assert clients[1].round is Round.ABORTED

    def test_aliased_peer_key_aborts(self):
        # Client 2 advertises client 1's key with the top bit set, which
        # passes the duplicate check byte-wise but names the same point.
        p, rng, clients, _, broadcast = self._setup()
        keys = dict(broadcast.keys)
        keys[2] = keys[1][:-1] + bytes([keys[1][-1] | 0x80])
        assert keys[2] != keys[1]
        with pytest.raises(ClientAborted, match="peer 2"):
            clients[1].round1(KeyBroadcast(keys=tuple(keys.items())), [1, 2])
        assert clients[1].round is Round.ABORTED

    def test_repeated_roster_index_aborts(self):
        # A second entry for 5 under a foreign key would make client 1 derive
        # client 5's designated share from that key: client 5 would then blame
        # client 1, and the server would reconstruct a wrong sum from U3 = 1..4.
        p = plan_parameters(5, 4, B=16, rho=0.2)
        assert (p.t, p.d) == (4, 3)
        clients = {u: Client(u, p) for u in range(1, 6)}
        server = Server(p)
        broadcast = server.round0([c.round0(random.Random(u)) for u, c in clients.items()])
        inputs = {u: [u, 2 * u, 3, 4] for u in clients}
        forged = KeyBroadcast(keys=broadcast.keys + ((5, ka_gen(random.Random(99)).public),))
        with pytest.raises(ClientAborted, match="client 1: broadcast repeats index 5"):
            clients[1].round1(forged, inputs[1])
        # The others run on; the aggregate is the exact sum over U2 = 2..5.
        deliveries = server.round1([clients[u].round1(broadcast, inputs[u]) for u in range(2, 6)])
        aggregate = server.round2([clients[u].round2(dv) for u, dv in deliveries.items()])
        assert server.u2 == (2, 3, 4, 5)
        assert aggregate == [14, 28, 12, 16]

    @pytest.mark.parametrize("index", [0, 9])
    def test_roster_index_outside_range_aborts(self, index):
        # A server-held key at an index no client has would receive a share.
        p, rng, clients, _, broadcast = self._setup()
        extra = (index, ka_gen(random.Random(5)).public)
        with pytest.raises(ClientAborted, match=f"roster index {index}"):
            clients[1].round1(KeyBroadcast(keys=broadcast.keys + (extra,)), [1, 2])
        assert clients[1].round is Round.ABORTED

    def test_round1_draws_no_randomness(self):
        # The pair keys are the sharing's only randomness: from the same
        # Round-0 keys and input, Round 1 uploads the same bytes, and it
        # takes no random source at all.
        uploads = []
        for _ in range(2):
            p, rng, clients, _, broadcast = self._setup()
            uploads.append(clients[1].round1(broadcast, [1, 2]))
        assert uploads[0] == uploads[1]
        p, rng, clients, _, broadcast = self._setup()
        with pytest.raises(TypeError):
            clients[1].round1(broadcast, [1, 2], rng=rng)

    def test_tampered_ciphertext_aborts(self):
        p, rng, clients, server, broadcast = self._setup()
        uploads = [c.round1(broadcast, [1, 2]) for c in clients.values()]
        deliveries = server.round1(uploads)
        dv = deliveries[1]
        v, ct = dv.ciphertexts[0]
        bad = bytes([ct[0] ^ 1]) + ct[1:]
        tampered = ShareDelivery(ciphertexts=((v, bad),) + dv.ciphertexts[1:])
        with pytest.raises(ClientAborted, match="authentication"):
            clients[1].round2(tampered)
        assert clients[1].round is Round.ABORTED

    def test_swapped_ciphertext_header_mismatch(self):
        # Deliver client 3's ciphertext labeled as coming from client 2:
        # client 1 opens it under the key it shares with 2, so the tag fails.
        p, rng, clients, server, broadcast = self._setup()
        uploads = [c.round1(broadcast, [1, 2]) for c in clients.values()]
        deliveries = server.round1(uploads)
        dv = deliveries[1]
        cts = dict(dv.ciphertexts)
        forged = ShareDelivery(
            ciphertexts=tuple(
                (v, cts[3] if v == 2 else ct) for v, ct in dv.ciphertexts
            )
        )
        with pytest.raises(ClientAborted, match="from 2 failed authentication"):
            clients[1].round2(forged)

    def test_misrouted_own_ciphertext_header_mismatch(self):
        # A ciphertext client 2 made for client 4, delivered to client 1 under
        # the correct sender label: it was sealed under the key of 2 and 4 with
        # share_ad(2, 4), so it fails authentication on both counts.
        p, rng, clients, server, broadcast = self._setup()
        uploads = {up.u: up for up in (c.round1(broadcast, [1, 2])
                                       for c in clients.values())}
        for_four = dict(uploads[2].ciphertexts)[4]
        dv = server.round1(list(uploads.values()))[1]
        forged = ShareDelivery(
            ciphertexts=tuple(
                (v, for_four if v == 2 else ct) for v, ct in dv.ciphertexts
            )
        )
        with pytest.raises(ClientAborted, match="from 2 failed authentication"):
            clients[1].round2(forged)

    def test_reflected_own_ciphertext_aborts(self):
        # Client 1's own ciphertext for client 3, delivered back to client 1
        # labeled as from 3. The pairwise key is symmetric, so only the
        # direction bound into the ciphertext tells it apart from 3's.
        p, rng, clients, server, broadcast = self._setup()
        uploads = {up.u: up for up in (c.round1(broadcast, [1, 2])
                                       for c in clients.values())}
        reflected = dict(uploads[1].ciphertexts)[3]
        dv = server.round1(list(uploads.values()))[1]
        forged = ShareDelivery(
            ciphertexts=tuple(
                (v, reflected if v == 3 else ct) for v, ct in dv.ciphertexts
            )
        )
        with pytest.raises(ClientAborted, match="from 3"):
            clients[1].round2(forged)
        assert clients[1].round is Round.ABORTED

    @pytest.mark.parametrize("payload, why", [
        (b"\x01\x01", "wrong length"),  # one chunk at q = 61: 6 bits in one byte
        (b"\x3f", "out of range"),  # 63 >= q
        (b"\x40", "nonzero pad bits"),
    ], ids=["length", "range", "pad"])
    def test_malformed_plaintext_names_sender(self, payload, why):
        # A plaintext sealed correctly under the pair key of 1 and 3 but not
        # holding chunk_count elements below q; the batched decode names 3.
        p, rng, clients, server, broadcast = self._setup()
        uploads = [c.round1(broadcast, [1, 2]) for c in clients.values()]
        dv = server.round1(uploads)[1]
        bad = ae_enc(clients[1].pair_keys[3], payload, share_ad(3, 1))
        forged = ShareDelivery(
            ciphertexts=tuple((v, bad if v == 3 else ct) for v, ct in dv.ciphertexts)
        )
        assert [v for v, _ in forged.ciphertexts] == [2, 3, 4]
        with pytest.raises(ClientAborted, match=f"malformed share payload from 3: .*{why}"):
            clients[1].round2(forged)
        assert clients[1].round is Round.ABORTED

    def test_delivery_marks_designating_senders(self):
        # n=4, t-d=1: client 4 designates client 1, so 1's delivery carries
        # an empty entry for 4 and ciphertexts from 2 and 3.
        p, rng, clients, server, broadcast = self._setup()
        assert designated_peers(4, (1, 2, 3, 4), p.t - p.d) == (1,)
        uploads = [c.round1(broadcast, [1, 2]) for c in clients.values()]
        assert all(len(up.ciphertexts) == 2 for up in uploads)
        dv = server.round1(uploads)[1]
        assert [(v, len(ct) > 0) for v, ct in dv.ciphertexts] == [(2, True), (3, True), (4, False)]

    def test_ciphertext_from_designating_sender_aborts(self):
        # Client 4 designates client 1: a ciphertext in its place, even one
        # that opens, would replace the share client 1 derives itself.
        p, rng, clients, server, broadcast = self._setup()
        uploads = [c.round1(broadcast, [1, 2]) for c in clients.values()]
        dv = server.round1(uploads)[1]
        sealed = ae_enc(clients[1].pair_keys[4], pack_bits([0], p.fp.bit_width), share_ad(4, 1))
        forged = ShareDelivery(
            ciphertexts=tuple((v, sealed if v == 4 else ct) for v, ct in dv.ciphertexts)
        )
        with pytest.raises(ClientAborted, match="sender 4 designates this client"):
            clients[1].round2(forged)
        assert clients[1].round is Round.ABORTED

    def test_empty_entry_from_other_sender_aborts(self):
        # Client 2 does not designate client 1, so its entry must hold a ciphertext.
        p, rng, clients, server, broadcast = self._setup()
        uploads = [c.round1(broadcast, [1, 2]) for c in clients.values()]
        dv = server.round1(uploads)[1]
        forged = ShareDelivery(
            ciphertexts=tuple((v, b"" if v == 2 else ct) for v, ct in dv.ciphertexts)
        )
        with pytest.raises(ClientAborted, match="empty payload from 2"):
            clients[1].round2(forged)
        assert clients[1].round is Round.ABORTED

    @pytest.mark.parametrize("fault, why", [
        ("unexpected-sender", "delivery names unexpected sender 99"),
        ("short-ciphertext", "malformed share payload from 2: ciphertext too short"),
    ])
    def test_faulty_delivery_entry_aborts(self, fault, why):
        # An entry from outside U1, or a ciphertext shorter than its tag.
        p, rng, clients, server, broadcast = self._setup()
        uploads = [c.round1(broadcast, [1, 2]) for c in clients.values()]
        cts = server.round1(uploads)[1].ciphertexts
        forged = ShareDelivery(ciphertexts={
            "unexpected-sender": cts + ((99, b"x" * 32),),
            "short-ciphertext": tuple((v, ct[:15] if v == 2 else ct) for v, ct in cts),
        }[fault])
        with pytest.raises(ClientAborted, match=f"client 1: {why}$"):
            clients[1].round2(forged)
        assert clients[1].round is Round.ABORTED

    def test_repeated_sender_aborts(self):
        # Summing one sender's shares twice would make the aggregate wrong.
        p, rng, clients, server, broadcast = self._setup()
        uploads = [c.round1(broadcast, [1, 2]) for c in clients.values()]
        dv = server.round1(uploads)[1]
        doubled = ShareDelivery(ciphertexts=dv.ciphertexts + dv.ciphertexts[:1])
        with pytest.raises(ClientAborted, match=f"repeats sender {dv.ciphertexts[0][0]}"):
            clients[1].round2(doubled)
        assert clients[1].round is Round.ABORTED

    def test_small_delivery_aborts(self):
        p, rng, clients, server, broadcast = self._setup()
        uploads = [c.round1(broadcast, [1, 2]) for c in clients.values()]
        dv = server.round1(uploads)[1]
        short = ShareDelivery(ciphertexts=dv.ciphertexts[: p.t - 2])
        with pytest.raises(ClientAborted):
            clients[1].round2(short)

    def test_round_order_enforced(self):
        p, rng, clients, _, broadcast = self._setup()
        c = clients[1]
        with pytest.raises(ProtocolOrderViolation):
            c.round0(rng)  # already advertised
        fresh = Client(1, p)
        with pytest.raises(ProtocolOrderViolation):
            fresh.round1(broadcast, [1, 2])
        with pytest.raises(ProtocolOrderViolation):
            fresh.round2(ShareDelivery(ciphertexts=()))

    def test_aborted_client_stays_aborted(self):
        p, rng, clients, _, broadcast = self._setup()
        short = KeyBroadcast(keys=broadcast.keys[: p.t - 1])
        with pytest.raises(ClientAborted):
            clients[1].round1(short, [1, 2])
        with pytest.raises(ProtocolOrderViolation):
            clients[1].round1(broadcast, [1, 2])


class TestServerChecks:
    def _hellos(self, p, rng, n=None):
        clients = {u: Client(u, p) for u in range(1, (n or p.n) + 1)}
        return clients, [c.round0(rng) for c in clients.values()]

    def test_round0_below_threshold(self):
        p = plan_parameters(4, 2, B=16)
        clients, hellos = self._hellos(p, random.Random(0))
        with pytest.raises(RoundAborted):
            Server(p).round0(hellos[: p.t - 1])

    def test_round0_duplicate_index(self):
        # Two hellos under one index cannot be pinned on one sender: both go.
        p = plan_parameters(5, 2, B=16, rho=0.2)
        _, hellos = self._hellos(p, random.Random(0))
        server = Server(p)
        broadcast = server.round0(hellos + [hellos[0]])
        assert server.excluded == {"u1": {1: "2 hellos under index 1"}, "u2": {}, "u3": {}}
        assert server.u1 == (2, 3, 4, 5) and [u for u, _ in broadcast.keys] == [2, 3, 4, 5]
        server = Server(p)
        with pytest.raises(RoundAborted, match=r"only 3 keys collected \(2 left out\), need 4"):
            server.round0(hellos[1:] + [hellos[1]])
        assert server.u1 == (3, 4, 5)

    def test_round0_unknown_index(self):
        p = plan_parameters(4, 2, B=16, rho=0.25)
        _, hellos = self._hellos(p, random.Random(0))
        bad = type(hellos[0])(u=99, public_key=hellos[0].public_key)
        server = Server(p)
        broadcast = server.round0(hellos[:-1] + [bad])
        assert server.excluded["u1"] == {99: "hello from client 99 outside [1, 4]"}
        assert server.u1 == (1, 2, 3) and [u for u, _ in broadcast.keys] == [1, 2, 3]

    def test_round1_below_threshold(self):
        p = plan_parameters(4, 2, B=16, rho=0.25)
        rng = random.Random(0)
        clients, hellos = self._hellos(p, rng)
        server = Server(p)
        broadcast = server.round0(hellos)
        uploads = [c.round1(broadcast, [1, 2]) for c in clients.values()]
        with pytest.raises(RoundAborted):
            server.round1(uploads[: p.t - 1])

    @pytest.mark.parametrize(
        "fault", ["to-self", "outside-roster", "missing", "to-designated", "repeated"]
    )
    def test_round1_faulty_upload_left_out(self, fault):
        p = plan_parameters(5, 2, B=16, rho=0.2)
        rng = random.Random(0)
        clients, hellos = self._hellos(p, rng)
        server = Server(p)
        broadcast = server.round0(hellos)
        uploads = [c.round1(broadcast, [1, 2]) for c in clients.values()]
        # Client 3's, for 1, 2 and 5: it designates 4 and sends it nothing.
        cts = uploads[2].ciphertexts
        assert [v for v, _ in cts] == [1, 2, 5]
        cts, why = {
            "to-self": (cts + ((3, b"x" * 16),), "to 3, which it does not seal for"),
            "outside-roster": (cts + ((9, b"x" * 16),), "to 9, which it does not seal for"),
            "missing": (cts[1:], "client 3 sent no ciphertext for 1"),
            "to-designated": (cts + ((4, b"x" * 16),), "to 4, which it does not seal for"),
            "repeated": (cts + ((1, b"x" * 16),), "client 3 sent 2 ciphertexts to 1"),
        }[fault]
        uploads[2] = ShareUpload(u=3, ciphertexts=cts)
        deliveries = server.round1(uploads)
        assert server.u2 == (1, 2, 4, 5) and sorted(deliveries) == [1, 2, 4, 5]
        assert list(server.excluded["u2"]) == [3] and why in server.excluded["u2"][3]
        assert all(3 not in dict(dv.ciphertexts) for dv in deliveries.values())
        sums = [clients[u].round2(dv) for u, dv in deliveries.items()]
        assert server.round2(sums) == [4, 8]

    def test_round1_upload_missing_a_silent_member_left_out(self):
        # n=6, t=4, k=1: client 6 is in U1 but never uploads, and client 3
        # (which designates 4) omits its ciphertext for 6. The rule is what
        # the sender follows, one ciphertext for each of U1 - D_3 - {3},
        # whoever else uploads, so 3's upload is left out.
        p = plan_parameters(6, 2, B=16, rho=0.34)
        assert (p.t, p.k) == (4, 1)
        rng = random.Random(0)
        clients, hellos = self._hellos(p, rng)
        server = Server(p)
        broadcast = server.round0(hellos)
        uploads = [clients[u].round1(broadcast, [1, 2]) for u in range(1, 6)]
        cts = uploads[2].ciphertexts
        assert [v for v, _ in cts] == [1, 2, 5, 6]
        uploads[2] = ShareUpload(u=3, ciphertexts=cts[:-1])
        deliveries = server.round1(uploads)
        assert server.excluded["u2"] == {3: "client 3 sent no ciphertext for 6"}
        assert server.u2 == (1, 2, 4, 5)
        sums = [clients[u].round2(dv) for u, dv in deliveries.items()]
        assert server.round2(sums) == [4, 8]

    @pytest.mark.parametrize("delta", [-1, 1], ids=["short", "long"])
    def test_round1_ciphertext_of_wrong_length_left_out(self, delta):
        # A share ciphertext is block_size(chunk_count) + 16 bytes; client 3's
        # for 2 is a byte off, so the server leaves 3's upload out, and
        # every delivery's sealed list keeps one entry size.
        p = plan_parameters(5, 2, B=16, rho=0.2)
        rng = random.Random(0)
        clients, hellos = self._hellos(p, rng)
        server = Server(p)
        broadcast = server.round0(hellos)
        uploads = [c.round1(broadcast, [1, 2]) for c in clients.values()]
        (v1, ct1), (v2, ct2), *rest = uploads[2].ciphertexts
        size = len(ct2)
        bad = ct2[:-1] if delta < 0 else ct2 + b"\0"
        uploads[2] = ShareUpload(u=3, ciphertexts=((v1, ct1), (v2, bad), *rest))
        deliveries = server.round1(uploads)
        why = f"client 3 sent a {size + delta}-byte ciphertext to 2, not {size}"
        assert server.excluded == {"u1": {}, "u2": {3: why}, "u3": {}}
        assert server.u2 == (1, 2, 4, 5)
        sums = [clients[u].round2(dv) for u, dv in deliveries.items()]
        assert server.round2(sums) == [4, 8]

    @pytest.mark.parametrize("fault", ["duplicate", "outside-roster"])
    def test_round1_misindexed_upload_left_out(self, fault):
        # Client 2 uploads under index 3 (or 9): a duplicate cannot be pinned
        # on one sender, so both uploads under 3 go; an index outside U1 goes.
        p = plan_parameters(6, 2, B=16, rho=0.34)
        rng = random.Random(0)
        clients, hellos = self._hellos(p, rng)
        server = Server(p)
        broadcast = server.round0(hellos)
        uploads = [c.round1(broadcast, [1, 2]) for c in clients.values()]
        index, why, u2 = {
            "duplicate": (3, "2 uploads under index 3", (1, 4, 5, 6)),
            "outside-roster": (9, "upload from client 9 outside the roster", (1, 3, 4, 5, 6)),
        }[fault]
        uploads[1] = ShareUpload(u=index, ciphertexts=uploads[1].ciphertexts)
        deliveries = server.round1(uploads)
        assert server.excluded == {"u1": {}, "u2": {index: why}, "u3": {}}
        assert server.u2 == u2 and tuple(deliveries) == u2
        sums = [clients[u].round2(dv) for u, dv in deliveries.items()]
        assert server.round2(sums) == [len(u2), 2 * len(u2)]

    def test_round1_too_few_after_leaving_out(self):
        p = plan_parameters(4, 2, B=16, rho=0.25)
        rng = random.Random(0)
        clients, hellos = self._hellos(p, rng)
        server = Server(p)
        broadcast = server.round0(hellos)
        uploads = [c.round1(broadcast, [1, 2]) for c in clients.values()]
        for i in (0, 1):
            up = uploads[i]
            uploads[i] = ShareUpload(u=up.u, ciphertexts=up.ciphertexts[1:])
        with pytest.raises(RoundAborted, match=r"only 2 uploads collected \(2 left out\), need 3"):
            server.round1(uploads)

    def test_misindexed_hello_and_upload_recorded_per_round(self):
        # Client 2's hello under index 3 leaves 3 out of U1; an upload under 3
        # is then outside the roster. Each reason stays under its own round.
        p = plan_parameters(6, 2, B=16, rho=0.34)
        rng = random.Random(0)
        clients, hellos = self._hellos(p, rng)
        hellos[1] = ClientHello(u=3, public_key=hellos[1].public_key)
        server = Server(p)
        broadcast = server.round0(hellos)
        assert server.u1 == (1, 4, 5, 6)
        uploads = [clients[u].round1(broadcast, [1, 2]) for u in server.u1]
        server.round1(uploads + [ShareUpload(u=3, ciphertexts=())])
        assert server.excluded["u1"][3] == "2 hellos under index 3"
        assert server.excluded["u2"][3] == "upload from client 3 outside the roster"
        assert server.u2 == (1, 4, 5, 6)

    def test_round2_below_threshold(self):
        p = plan_parameters(4, 2, B=16, rho=0.25)
        rng = random.Random(0)
        clients, hellos = self._hellos(p, rng)
        server = Server(p)
        broadcast = server.round0(hellos)
        deliveries = server.round1(
            [c.round1(broadcast, [1, 2]) for c in clients.values()]
        )
        sums = [clients[u].round2(dv) for u, dv in deliveries.items()]
        with pytest.raises(RoundAborted, match="only 2 sum-share messages collected, need 3"):
            server.round2(sums[: p.t - 1])
        assert server.u3 == (1, 2)

    @pytest.mark.parametrize("enough", [True, False], ids=["kept-t", "below-t"])
    @pytest.mark.parametrize(
        "fault",
        ["duplicate", "outside-u2", "chunk-count", "two-dimensional", "above-q", "below-zero"],
    )
    def test_round2_faulty_sums_left_out(self, fault, enough):
        # Client 1's message is faulty. Under index 2 it cannot be pinned on
        # one sender, so both messages under 2 go. The same residues shifted
        # by a multiple of q would reconstruct a wrong aggregate, so an entry
        # outside [0, q) is refused like the other faults.
        p = plan_parameters(10, 20, rho=0.3)
        rng = random.Random(0)
        clients, hellos = self._hellos(p, rng)
        server = Server(p)
        broadcast = server.round0(hellos)
        deliveries = server.round1(
            [c.round1(broadcast, [1] * p.m) for c in clients.values()]
        )
        sums = [clients[u].round2(dv) for u, dv in deliveries.items()]
        first, q, c = sums[0].sums, p.fp.q, p.chunk_count
        if fault == "two-dimensional":
            # Sums that are not one per chunk never make a message to admit.
            with pytest.raises(InvalidArgument, match=rf"one per chunk, got shape \({c}, 2\)"):
                SumShares(u=1, sums=np.stack([first, first], axis=1))
            return
        out_of_range = f"sum shares from client 1 outside [0, {q})"
        sums[0], index, why = {
            "duplicate": (SumShares(u=2, sums=first), 2, "2 sum-share messages under index 2"),
            "outside-u2": (
                SumShares(u=11, sums=first), 11, "sum-share message from client 11 outside U2"
            ),
            "chunk-count": (
                SumShares(u=1, sums=first[:-1]), 1, f"client 1 sent {c - 1} sum shares, not {c}"
            ),
            "above-q": (SumShares(u=1, sums=first + (q << 30)), 1, out_of_range),
            "below-zero": (SumShares(u=1, sums=first - q), 1, out_of_range),
        }[fault]
        left_out = 2 if fault == "duplicate" else 1
        if enough:
            assert server.round2(sums) == [p.n] * p.m
            assert len(server.u3) == p.n - left_out
        else:
            kept = p.t - left_out
            collected = rf"{kept} sum-share messages collected \({left_out} left out\)"
            with pytest.raises(RoundAborted, match=rf"Round 2: only {collected}, need {p.t}"):
                server.round2(sums[: p.t])
        assert server.excluded == {"u1": {}, "u2": {}, "u3": {index: why}}

    def test_round2_numpy_indices(self):
        # Sum shares under numpy-integer indices reconstruct the same
        # aggregate: the reconstruction bounds are computed on Python ints.
        p = plan_parameters(50, 40, rho=0.3, gamma=0.3)
        rng = random.Random(0)
        clients, hellos = self._hellos(p, rng)
        server = Server(p)
        broadcast = server.round0(hellos)
        inputs = {u: [(u * j) % p.B for j in range(p.m)] for u in clients}
        deliveries = server.round1([c.round1(broadcast, inputs[c.u]) for c in clients.values()])
        sums = [clients[u].round2(dv) for u, dv in deliveries.items()]
        aggregate = server.round2([SumShares(u=np.int64(s.u), sums=s.sums) for s in sums])
        assert aggregate == [sum(col) % p.fp.q for col in zip(*inputs.values())]

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
    def test_round2_wrong_share_in_range_not_silent(self):
        # Client 1's sum shares are off by one mod q, so they pass admission,
        # and client 1 is among the first t members of U3 that reconstruct.
        # The aggregate must be exact (client 1 may be left out), or the
        # round refused naming client 1.
        p = plan_parameters(10, 20, rho=0.3)
        assert p.t == 7
        rng = random.Random(0)
        clients, hellos = self._hellos(p, rng)
        server = Server(p)
        broadcast = server.round0(hellos)
        deliveries = server.round1(
            [c.round1(broadcast, [1] * p.m) for c in clients.values()]
        )
        sums = [clients[u].round2(dv) for u, dv in deliveries.items()]
        sums[0] = SumShares(u=1, sums=(sums[0].sums + 1) % p.fp.q)
        try:
            aggregate = server.round2(sums)
        except RoundAborted as e:
            assert "client 1" in str(e)
        else:
            assert aggregate == [p.n] * p.m

    def _five_clients(self):
        """n=5, m=4, B=16, rho=0.2 (t=4, D_1 = (2,)); keys from Random(u), inputs [u, 2u, 3, 4]."""
        p = plan_parameters(5, 4, B=16, rho=0.2)
        assert p.t == 4
        clients = {u: Client(u, p) for u in range(1, p.n + 1)}
        hellos = [c.round0(random.Random(u)) for u, c in clients.items()]
        inputs = {u: [u, 2 * u, 3, 4] for u in clients}
        return p, clients, hellos, inputs

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 7")
    def test_round2_substituted_designated_key_not_silent(self):
        # Client 1's broadcast carries another valid key for client 2, the
        # peer it designates. No ciphertext passes from 1 to 2, so no tag
        # catches the mismatch, and client 1's shares are in every other
        # sum when it aborts in Round 2. The aggregate over U2 = 1..5 must
        # be exact, or the run refused.
        p, clients, hellos, inputs = self._five_clients()
        server = Server(p)
        broadcast = server.round0(hellos)
        assert designated_peers(1, server.u1, p.k) == (2,)
        substitute = ka_gen(random.Random(99)).public
        forged = KeyBroadcast(
            keys=tuple((v, substitute if v == 2 else pk) for v, pk in broadcast.keys)
        )
        deliveries = server.round1(
            [c.round1(forged if u == 1 else broadcast, inputs[u]) for u, c in clients.items()]
        )
        sums = []
        for u, dv in deliveries.items():
            with contextlib.suppress(ClientAborted):
                sums.append(clients[u].round2(dv))
        try:
            aggregate = server.round2(sums)
        except RoundAborted:
            return
        assert aggregate == [15, 30, 15, 20]

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
    def test_round2_omitted_delivery_entry_not_silent(self):
        # A faulty server leaves sender 5 out of client 3's delivery, so
        # client 3's sums miss 5's shares. All five send sums: |U3| = 5 > t,
        # so the spare share can expose the wrong one. The aggregate must be
        # exact, or the run refused.
        p, clients, hellos, inputs = self._five_clients()
        server = Server(p)
        broadcast = server.round0(hellos)
        deliveries = server.round1(
            [c.round1(broadcast, inputs[u]) for u, c in clients.items()]
        )
        deliveries[3] = ShareDelivery(
            ciphertexts=tuple(entry for entry in deliveries[3].ciphertexts if entry[0] != 5)
        )
        sums = [clients[u].round2(dv) for u, dv in deliveries.items()]
        try:
            aggregate = server.round2(sums)
        except RoundAborted:
            return
        assert aggregate == [15, 30, 15, 20]

    def test_round0_runs_once(self):
        p = plan_parameters(4, 2, B=16)
        _, hellos = self._hellos(p, random.Random(0))
        server = Server(p)
        server.round0(hellos)
        with pytest.raises(ProtocolOrderViolation, match="round0 already closed"):
            server.round0(hellos)

    def test_round_order_enforced(self):
        p = plan_parameters(4, 2, B=16)
        server = Server(p)
        with pytest.raises(ProtocolOrderViolation):
            server.round1([])
        with pytest.raises(ProtocolOrderViolation):
            server.round2([])


def test_rounds_call_the_traced_codec_names(monkeypatch):
    # The benchmark times the share-plaintext codec by wrapping these two
    # names in fssa.protocol, so the rounds must call them there.
    calls = Counter()
    for name in ("encode_share_plaintext", "decode_share_plaintext"):
        fn = getattr(fssa.protocol, name)
        assert fn is getattr(fssa.messages, name)

        def counted(*args, _fn=fn, _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(fssa.protocol, name, counted)
    schedule = {2: DropPoint.AFTER_ROUND0, 5: DropPoint.AFTER_ROUND1_SEND}
    report = run_simulation(SimConfig(n=10, m=30, rho=0.3, seed=2, dropout_schedule=schedule))
    assert report.status == "ok" and report.aggregate == report.expected_sum_over_u2
    assert calls == {
        "encode_share_plaintext": len(report.rosters["u2"]),
        "decode_share_plaintext": len(report.rosters["u3"]),
    }
    assert (len(report.rosters["u2"]), len(report.rosters["u3"])) == (9, 8)
