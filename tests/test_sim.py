import hashlib
import json
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fssa.messages
import fssa.protocol
from fssa.aead import _nonce
from fssa.errors import InvalidArgument
from fssa.keyagree import ka_gen
from fssa.messages import (
    ClientHello,
    KeyBroadcast,
    ShareDelivery,
    ShareUpload,
    SumShares,
    block_size,
    deserialize,
    serialize,
)
from fssa.sim import (
    STAGE_TABLE,
    STAGES,
    Carrier,
    DropPoint,
    SimConfig,
    apply_dropout_schedule,
    run_simulation,
)

from _oracles import pack_bits


def cfg(**kw):
    base = dict(n=5, m=4, rho=0.2, B=16, seed=7)
    base.update(kw)
    return SimConfig(**base)


def expected_wire_bytes(report):
    """Closed-form per-message byte counts for the fixed wire layout.

    A list is a ceil(n/8)-byte bitmap, a u32 entry size and its entries. A
    sender seals for every other member of U1 but its t-d designated peers.
    The delivery size assumes every member of U1 uploaded: its sealed list
    holds |U1|-1-(t-d) ciphertexts and its designating list t-d empty entries.
    """
    params = report.params
    block = (params.chunk_count * (params.fp.q - 1).bit_length() + 7) // 8
    k = params.t - params.d
    ct_len = block + 16  # shares + tag; the nonce is derived, not sent
    sealed = report.roster_sizes["u1"] - 1 - k
    head = (params.n + 7) // 8 + 4
    hello = 1 + 4 + 32
    broadcast = 1 + head + 32 * report.roster_sizes["u1"]
    upload = 1 + 4 + head + sealed * ct_len
    delivery = 1 + head + sealed * ct_len + head
    sums = 1 + 4 + 4 + block
    return hello, broadcast, upload, delivery, sums


# A well-formed message of the wrong type for a server-to-client stage.
_SUM_SHARES_WIRE = serialize(SumShares(u=1, sums=[]), cfg().plan())


class TestBasicRuns:
    def test_exact_aggregate(self):
        inputs = [[u, 0, 3, 15] for u in range(1, 6)]
        report = run_simulation(cfg(inputs=inputs))
        assert report.status == "ok"
        assert report.aggregate == [sum(col) for col in zip(*inputs)]
        assert report.aggregate == report.expected_sum_over_u2
        assert report.roster_sizes == {"u1": 5, "u2": 5, "u3": 5}

    @pytest.mark.parametrize("inputs, why", [
        ([[u, 1.7 if u == 1 else 0, 3, 15] for u in range(1, 6)], "integers .* float64 entries"),
        ([1, 2, 3, 4, 5], "n vectors of length m"),
        (np.arange(5), "n vectors of length m"),
        ([[u, 0, 3] for u in range(1, 6)], "n vectors of length m"),
        ([[u, 0, 3, 15] for u in range(1, 5)] + [[5, 0, 3]], "n vectors of length m"),
    ], ids=["fractional", "flat-list", "flat-array", "short-rows", "ragged"])
    def test_fractional_inputs_refused(self, inputs, why):
        with pytest.raises(InvalidArgument, match=why):
            run_simulation(cfg(inputs=inputs))

    def test_random_inputs_match_expectation(self):
        report = run_simulation(cfg(seed=13))
        assert report.status == "ok"
        assert report.aggregate == report.expected_sum_over_u2

    def test_dropout_after_round0_excludes_input(self):
        inputs = [[u] for u in range(1, 6)]
        report = run_simulation(
            cfg(m=1, inputs=inputs, dropout_schedule={2: DropPoint.AFTER_ROUND0})
        )
        assert report.status == "ok"
        assert report.aggregate == [1 + 3 + 4 + 5]
        assert report.roster_sizes == {"u1": 5, "u2": 4, "u3": 4}

    def test_dropout_after_round1_send_includes_input(self):
        inputs = [[u] for u in range(1, 6)]
        report = run_simulation(
            cfg(m=1, inputs=inputs, dropout_schedule={2: DropPoint.AFTER_ROUND1_SEND})
        )
        assert report.status == "ok"
        assert report.aggregate == [1 + 2 + 3 + 4 + 5]
        assert report.roster_sizes == {"u1": 5, "u2": 5, "u3": 4}

    def test_dropout_after_round1_receive_includes_input(self):
        inputs = [[u] for u in range(1, 6)]
        report = run_simulation(
            cfg(m=1, inputs=inputs, dropout_schedule={3: DropPoint.AFTER_ROUND1_RECEIVE})
        )
        assert report.status == "ok"
        assert report.aggregate == [15]
        assert report.roster_sizes["u3"] == 4

    def test_rosters_at_every_drop_point(self):
        report = run_simulation(SimConfig(n=10, m=2, rho=0.3, B=16, seed=4, dropout_schedule={
            2: DropPoint.AFTER_ROUND0,
            5: DropPoint.AFTER_ROUND1_SEND,
            9: DropPoint.AFTER_ROUND1_RECEIVE,
        }))
        assert report.status == "ok"
        assert report.rosters == {
            "u1": (1, 2, 3, 4, 5, 6, 7, 8, 9, 10),
            "u2": (1, 3, 4, 5, 6, 7, 8, 9, 10),
            "u3": (1, 3, 4, 6, 7, 8, 10),
        }
        assert report.roster_sizes == {"u1": 10, "u2": 9, "u3": 7}
        doc = json.loads(report.to_json())
        assert doc["rosters"] == {k: list(r) for k, r in report.rosters.items()}
        assert doc["roster_sizes"] == report.roster_sizes


class TestDeterminism:
    def test_identical_transcripts(self):
        a = run_simulation(cfg(seed=5))
        b = run_simulation(cfg(seed=5))
        assert a.transcript == b.transcript
        assert a.aggregate == b.aggregate

    def test_parallel_matches_serial(self):
        a = run_simulation(cfg(seed=5))
        b = run_simulation(cfg(seed=5, parallel=True))
        assert a.transcript == b.transcript

    def test_different_seeds_differ(self):
        a = run_simulation(cfg(seed=5))
        b = run_simulation(cfg(seed=6))
        assert a.transcript != b.transcript

    def test_pinned_transcript_digest(self):
        # SHA-256 over every message of one seeded production-group run with
        # two dropouts at each DropPoint; any change to the wire bytes,
        # the shares or the order of random draws changes it. q = 1310719
        # packs elements at 21 bits.
        report = _pinned_run()
        assert report.params.fp.q == 1310719
        assert _digest(report) == (
            "09db016fda8c2d74d5a4a68491b7b0611febd747538ec882eaf07467d8cf688b"
        )

    def test_pinned_transcript_digest_24_bit(self):
        # At a 24-bit q the bit packing is the 3-byte little-endian layout,
        # so this digest is the one the byte-width codec gave.
        report = _pinned_run(B=500_000)
        assert report.params.fp.q == 9999991
        assert _digest(report) == (
            "41b830cdb23fd5cfdb02f1a56fc750104c229e2d5839435625be50e87f2a5f96"
        )


def _pinned_run(**kw):
    schedule = {
        3: DropPoint.AFTER_ROUND0, 8: DropPoint.AFTER_ROUND0,
        5: DropPoint.AFTER_ROUND1_SEND, 12: DropPoint.AFTER_ROUND1_SEND,
        17: DropPoint.AFTER_ROUND1_RECEIVE, 20: DropPoint.AFTER_ROUND1_RECEIVE,
    }
    report = run_simulation(SimConfig(
        n=20, m=500, rho=0.3, gamma=0.3, seed=11, dropout_schedule=schedule, **kw,
    ))
    assert report.status == "ok"
    assert report.roster_sizes == {"u1": 20, "u2": 18, "u3": 14}
    return report


def _digest(report) -> str:
    h = hashlib.sha256()
    for stage, sender, recipient, payload in report.transcript:
        h.update(f"{stage}:{sender}:{recipient}:{len(payload)}:".encode())
        h.update(payload)
    return h.hexdigest()


class TestScheduleValidation:
    def test_unknown_client_rejected(self):
        with pytest.raises(InvalidArgument):
            run_simulation(cfg(dropout_schedule={9: DropPoint.AFTER_ROUND0}))

    def test_drop_point_must_be_a_drop_point(self):
        # A string is neither honoured nor ignored: it names no DropPoint.
        with pytest.raises(InvalidArgument, match="'after_round0' for client 2"):
            run_simulation(cfg(dropout_schedule={2: "after_round0"}))

    @pytest.mark.parametrize(
        "seed", [1.5, -1, True, "7"], ids=["fractional", "negative", "bool", "string"]
    )
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(InvalidArgument, match="seed"):
            run_simulation(cfg(seed=seed))

    @pytest.mark.parametrize("u", [2.0, True, "2"], ids=["float", "bool", "string"])
    def test_schedule_key_must_be_an_integer(self, u):
        with pytest.raises(InvalidArgument, match="client index must be an integer"):
            run_simulation(cfg(dropout_schedule={u: DropPoint.AFTER_ROUND0}))

    def test_numpy_integers_run_as_ints(self):
        # numpy integers are integers: they run exactly as the Python ints they equal.
        plain = run_simulation(cfg(dropout_schedule={2: DropPoint.AFTER_ROUND0}))
        numpy = run_simulation(cfg(
            n=np.int64(5), m=np.int64(4), B=np.int64(16), seed=np.int64(7),
            dropout_schedule={np.int64(2): DropPoint.AFTER_ROUND0},
        ))
        assert numpy.transcript == plain.transcript
        assert numpy.aggregate == plain.aggregate

    @pytest.mark.parametrize("schedule", [[(1, DropPoint.AFTER_ROUND0)], None],
                             ids=["list-of-pairs", "none"])
    def test_schedule_must_be_a_mapping(self, schedule):
        with pytest.raises(InvalidArgument, match="dropout schedule must map"):
            run_simulation(cfg(dropout_schedule=schedule))

    @pytest.mark.parametrize("parallel", ["no", 1, None], ids=["string", "int", "none"])
    def test_parallel_must_be_a_bool(self, parallel):
        # A non-empty string is true: "no" would run Round 1 in the thread pool.
        with pytest.raises(InvalidArgument, match="parallel must be a bool"):
            run_simulation(cfg(parallel=parallel))

    def test_apply_dropout_schedule(self):
        sched = {1: DropPoint.AFTER_ROUND0, 2: DropPoint.AFTER_ROUND1_SEND}
        live = {1, 2, 3}
        assert apply_dropout_schedule(sched, DropPoint.AFTER_ROUND0, live) == {2, 3}
        assert apply_dropout_schedule(sched, DropPoint.AFTER_ROUND1_SEND, live) == {1, 3}


class TestMemory:
    def test_run_holds_each_message_once(self):
        # A run holds its inputs, one wire copy of each message (the
        # transcript) and the working set of one client at a time: the peak
        # reads 1.36 times the inputs and transcript. A run that also kept
        # the messages clients return, the server's decoded uploads and a
        # copy of U2's inputs read 2.27.
        n, m = 20, 20_000
        schedule = {2: DropPoint.AFTER_ROUND0, 5: DropPoint.AFTER_ROUND1_SEND,
                    9: DropPoint.AFTER_ROUND1_RECEIVE}
        run_simulation(cfg())  # lazy imports are not the run's
        tracemalloc.start()
        try:
            report = run_simulation(SimConfig(
                n=n, m=m, rho=0.3, gamma=0.3, seed=3, dropout_schedule=schedule,
            ))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.status == "ok"
        assert report.roster_sizes == {"u1": 20, "u2": 19, "u3": 17}
        held = sum(len(p) for *_, p in report.transcript) + n * m * 8
        assert peak <= 1.7 * held


class TestNonces:
    def test_no_key_and_nonce_seals_twice(self, monkeypatch):
        # Every ciphertext of a run is sealed under its own (pair key,
        # nonce), although a pair key seals up to one message per direction.
        # Each sender seals for 7 - (t-d) = 6 peers; every pair still seals
        # at least once, since t-d = 1 designates only the next client.
        sealed = []
        seal = fssa.protocol.ae_enc

        def recording(key, plaintext, ad):
            sealed.append((key, _nonce(ad)))
            return seal(key, plaintext, ad)

        monkeypatch.setattr(fssa.protocol, "ae_enc", recording)
        report = run_simulation(SimConfig(
            n=8, m=30, rho=0.25, seed=3, dropout_schedule={4: DropPoint.AFTER_ROUND1_SEND},
        ))
        assert report.status == "ok"
        assert report.params.t - report.params.d == 1
        assert len(sealed) == 8 * 6
        assert len(set(sealed)) == len(sealed)
        assert len({key for key, _ in sealed}) == 8 * 7 // 2


class TestByteAccounting:
    def test_closed_form_message_sizes(self):
        report = run_simulation(cfg(seed=3))
        hello, broadcast, upload, delivery, sums = expected_wire_bytes(report)
        by_stage = {}
        for stage, sender, recipient, payload in report.transcript:
            by_stage.setdefault(stage, []).append(len(payload))
        assert set(by_stage["round0"]) == {hello}
        assert set(by_stage["broadcast"]) == {broadcast}
        assert set(by_stage["round1"]) == {upload}
        assert set(by_stage["delivery"]) == {delivery}
        assert set(by_stage["round2"]) == {sums}
        # per-client totals match the transcript
        for u, total in report.bytes_sent.items():
            assert total == sum(
                len(p) for _, s, _, p in report.transcript if s == u
            )
        for u, total in report.bytes_received.items():
            assert total == sum(
                len(p) for _, _, r, p in report.transcript if r == u
            )
        assert report.server_bytes_received == sum(report.bytes_sent.values())
        assert sum(report.bytes_received.values()) == report.server_bytes_sent

    def test_element_blocks_packed_at_bit_width(self):
        # With dropouts at every DropPoint, every share ciphertext is one
        # element block plus the 16-byte tag and every SumShares body is one
        # block, ceil(chunk_count * bits(q-1) / 8) bytes; 63 chunks at 21
        # bits leave 5 pad bits.
        report = _pinned_run()
        p = report.params
        bits = p.chunk_count * (p.fp.q - 1).bit_length()
        assert (p.chunk_count, bits % 8) == (63, 3)
        block = -(-bits // 8)
        cts, bodies = [], []
        for stage, sender, recipient, payload in report.transcript:
            msg = deserialize(payload, p)
            if isinstance(msg, (ShareUpload, ShareDelivery)):
                cts += [ct for _, ct in msg.ciphertexts if ct]
            elif isinstance(msg, SumShares):
                bodies.append(len(payload) - 9)  # tag, index, count
        assert len(bodies) == 14
        assert {len(ct) for ct in cts} == {block + 16}
        assert bodies == [block] * 14

    def test_stage_bytes(self):
        report = run_simulation(cfg(seed=3, dropout_schedule={2: DropPoint.AFTER_ROUND1_SEND}))
        stages = report.stage_bytes()
        assert tuple(stages) == STAGES
        for stage, total in stages.items():
            assert total == sum(len(p) for st, *_, p in report.transcript if st == stage)
        assert sum(stages.values()) == report.server_bytes_received + report.server_bytes_sent
        hello, broadcast, upload, delivery, sums = expected_wire_bytes(report)
        assert stages == {
            "round0": 5 * hello, "broadcast": 5 * broadcast, "round1": 5 * upload,
            "delivery": 4 * delivery, "round2": 4 * sums,
        }
        assert json.loads(report.to_json())["stage_bytes"] == stages

    def test_message_counts_full_run(self):
        report = run_simulation(cfg(seed=1))
        # every client sends hello, upload, sums; receives broadcast + delivery
        assert report.sent_counts() == {u: 3 for u in range(1, 6)}
        assert report.received_counts() == {u: 2 for u in range(1, 6)}

    def test_every_message_goes_through_the_codec(self, monkeypatch):
        # Every message travels through Carrier.carry, which looks serialize
        # and deserialize up on fssa.messages at each call, so a wrapper
        # installed there (as the benchmark's tracer does) sees every message.
        serialize, deserialize = fssa.messages.serialize, fssa.messages.deserialize
        carry = Carrier.carry
        encoded, decoded, carried = [], [], []

        def counting_serialize(msg, params):
            encoded.append(serialize(msg, params))
            return encoded[-1]

        def counting_deserialize(wire, params, expected):
            decoded.append(wire)
            return deserialize(wire, params, expected)

        def recording_carry(self, stage, sender, recipient, msg):
            got = carry(self, stage, sender, recipient, msg)
            carried.append((stage, sender, recipient, got))
            return got

        monkeypatch.setattr(fssa.messages, "serialize", counting_serialize)
        monkeypatch.setattr(fssa.messages, "deserialize", counting_deserialize)
        monkeypatch.setattr(Carrier, "carry", recording_carry)
        report = run_simulation(cfg(seed=1))
        # One carry per transcript entry; each hands its recipient the type
        # its stage carries.
        assert sorted(entry[:3] for entry in report.transcript) == sorted(
            entry[:3] for entry in carried
        )
        assert all(type(got) is STAGE_TABLE[stage][0] for stage, _, _, got in carried)
        assert set(encoded) == set(decoded) == {p for *_, p in report.transcript}
        # Each message is decoded once where it lands; the broadcast is
        # encoded once for all five clients.
        assert len(decoded) == len(report.transcript)
        assert len(encoded) == len(report.transcript) - (5 - 1)


class TestFailureReporting:
    def test_too_many_natural_dropouts(self):
        # n=4, rho=0.25 gives t=3: n - t + 1 = 2 clients that drop after
        # Round 0 leave too few uploads, and the server ends the run.
        report = run_simulation(
            SimConfig(n=4, m=2, rho=0.25, B=16, seed=0,
                      dropout_schedule={1: DropPoint.AFTER_ROUND0, 2: DropPoint.AFTER_ROUND0})
        )
        assert report.params.t == 3
        assert report.status == "aggregation_failed"
        assert report.aggregate is None and report.expected_sum_over_u2 is None
        assert report.failure == "Round 1: only 2 uploads collected, need 3"

    @pytest.mark.parametrize("point, failure, u2, u3", [
        (DropPoint.AFTER_ROUND0, "Round 1: only 3 uploads collected, need 4", (3, 4, 5), ()),
        (DropPoint.AFTER_ROUND1_SEND, "Round 2: only 3 sum-share messages collected, need 4",
         (1, 2, 3, 4, 5), (3, 4, 5)),
        (DropPoint.AFTER_ROUND1_RECEIVE, "Round 2: only 3 sum-share messages collected, need 4",
         (1, 2, 3, 4, 5), (3, 4, 5)),
    ], ids=["after_round0", "after_round1_send", "after_round1_receive"])
    def test_over_budget_schedule_reported(self, point, failure, u2, u3):
        # t=4 tolerates one dropout; a schedule of two runs, and the server
        # alone decides there are too few clients to finish.
        report = run_simulation(cfg(dropout_schedule={1: point, 2: point}))
        assert report.status == "aggregation_failed"
        assert report.failure == failure
        assert report.rosters == {"u1": (1, 2, 3, 4, 5), "u2": u2, "u3": u3}
        assert report.aborted == {}
        assert report.excluded == {"u1": {}, "u2": {}, "u3": {}}

    def test_key_collision_reported_not_raised(self, monkeypatch):
        # Every client advertises the same X25519 key, so the server leaves
        # every hello out of U1 and Round 0 fails gracefully.
        same = ka_gen(random.Random(0))
        monkeypatch.setattr(fssa.protocol, "ka_gen", lambda rng=None: same)
        report = run_simulation(cfg(seed=2))
        assert report.status == "aggregation_failed"
        assert report.aggregate is None
        assert report.rosters == {"u1": (), "u2": (), "u3": ()}
        assert report.roster_sizes == {"u1": 0, "u2": 0, "u3": 0}
        assert report.excluded["u1"] == {
            u: f"client {u} sent a key another hello also carries" for u in range(1, 6)
        }
        assert report.aborted == {}
        assert report.failure == "Round 0: only 0 keys collected (5 left out), need 4"
        doc = json.loads(report.to_json())
        assert doc["aborted"] == {}
        assert doc["failure"] == report.failure
        assert doc["rosters"] == {"u1": [], "u2": [], "u3": []}

    def test_faulty_upload_excluded(self, monkeypatch):
        # Client 2 omits its ciphertext for client 1. The server leaves 2's
        # upload out of U2, as if 2 had dropped before uploading, and the
        # other four still reconstruct their exact sum.
        share = fssa.protocol.Client.round1

        def omitting(self, *args, **kwargs):
            upload = share(self, *args, **kwargs)
            if self.u == 2:
                upload = ShareUpload(u=2, ciphertexts=upload.ciphertexts[1:])
            return upload

        monkeypatch.setattr(fssa.protocol.Client, "round1", omitting)
        inputs = [[u, 1, 2, 3] for u in range(1, 6)]
        report = run_simulation(cfg(inputs=inputs))
        assert report.status == "ok"
        assert report.aggregate == [1 + 3 + 4 + 5, 4, 8, 12]
        assert report.aggregate == report.expected_sum_over_u2
        why = "client 2 sent no ciphertext for 1"
        assert report.excluded == {"u1": {}, "u2": {2: why}, "u3": {}}
        assert report.rosters == {
            "u1": (1, 2, 3, 4, 5), "u2": (1, 3, 4, 5), "u3": (1, 3, 4, 5),
        }
        assert (report.aborted, report.failure) == ({}, None)
        assert json.loads(report.to_json())["excluded"]["u2"] == {"2": why}

    def test_duplicate_upload_index_reported(self, monkeypatch):
        # Client 2 uploads under index 3. A duplicate cannot be pinned on
        # one sender, so both uploads under 3 are left out; with 1, 4 and 5
        # left, fewer than t = 4, the run fails with a report saying why.
        share = fssa.protocol.Client.round1

        def misindexed(self, *args, **kwargs):
            upload = share(self, *args, **kwargs)
            return ShareUpload(u=3, ciphertexts=upload.ciphertexts) if self.u == 2 else upload

        monkeypatch.setattr(fssa.protocol.Client, "round1", misindexed)
        report = run_simulation(cfg(seed=4))
        assert report.status == "aggregation_failed"
        assert report.excluded == {"u1": {}, "u2": {3: "2 uploads under index 3"}, "u3": {}}
        assert report.failure == "Round 1: only 3 uploads collected (2 left out), need 4"
        assert report.rosters == {"u1": (1, 2, 3, 4, 5), "u2": (1, 4, 5), "u3": ()}
        doc = json.loads(report.to_json())
        assert doc["excluded"] == {"u1": {}, "u2": {"3": "2 uploads under index 3"}, "u3": {}}
        assert doc["failure"] == report.failure

    @pytest.mark.parametrize("n, rho, status", [(6, 0.34, "ok"), (5, 0.2, "aggregation_failed")])
    def test_misindexed_hello_excluded(self, monkeypatch, n, rho, status):
        # Client 2 advertises under index 3. Both hellos under 3 are left out
        # of U1, so clients 2 and 3 find their keys missing and abort; the
        # rest aggregate if t of them remain.
        advertise = fssa.protocol.Client.round0

        def misindexed(self, *args, **kwargs):
            hello = advertise(self, *args, **kwargs)
            return ClientHello(u=3, public_key=hello.public_key) if self.u == 2 else hello

        monkeypatch.setattr(fssa.protocol.Client, "round0", misindexed)
        report = run_simulation(cfg(n=n, rho=rho, inputs=[[u, 1, 2, 3] for u in range(1, n + 1)]))
        assert report.status == status
        assert report.excluded == {"u1": {3: "2 hellos under index 3"}, "u2": {}, "u3": {}}
        doc = json.loads(report.to_json())
        assert doc["excluded"] == {"u1": {"3": "2 hellos under index 3"}, "u2": {}, "u3": {}}
        if status == "ok":
            assert report.rosters == {"u1": (1, 4, 5, 6), "u2": (1, 4, 5, 6), "u3": (1, 4, 5, 6)}
            assert report.aborted == {
                u: f"client {u}: own public key missing or mismatched in broadcast" for u in (2, 3)
            }
            assert report.aggregate == report.expected_sum_over_u2 == [16, 4, 8, 12]
        else:
            assert report.failure == "Round 0: only 3 keys collected (2 left out), need 4"
            assert report.rosters == {"u1": (1, 4, 5), "u2": (), "u3": ()}

    def test_hello_of_wrong_type_excluded(self, monkeypatch):
        # Client 2 advertises, then sends a SumShares where its hello goes.
        # It does not decode as a hello, so 2 is left out of U1 and leaves
        # at the broadcast; the other four aggregate.
        advertise = fssa.protocol.Client.round0

        def wrong_type(self, *args, **kwargs):
            hello = advertise(self, *args, **kwargs)
            return SumShares(u=2, sums=[]) if self.u == 2 else hello

        monkeypatch.setattr(fssa.protocol.Client, "round0", wrong_type)
        report = run_simulation(cfg(seed=2, inputs=[[u, 1, 2, 3] for u in range(1, 6)]))
        why = "message does not decode: SumShares where ClientHello was expected"
        assert report.excluded == {"u1": {2: why}, "u2": {}, "u3": {}}
        assert report.aborted == {2: "client 2: own public key missing or mismatched in broadcast"}
        assert report.status == "ok"
        assert report.rosters["u1"] == report.rosters["u3"] == (1, 3, 4, 5)
        assert report.aggregate == report.expected_sum_over_u2 == [13, 4, 8, 12]

    @pytest.mark.parametrize("fault, left_out, why", [
        ("copied", {1, 2}, "client {u} sent a key another hello also carries"),
        ("short", {2},
         "message does not encode: ClientHello does not fit the wire layout: 31-byte key, not 32"),
        ("low-order", {2}, "client {u} sent a key no peer accepts: low-order X25519 public key"),
    ], ids=["copied", "short", "low-order"])
    def test_faulty_key_hello_excluded(self, monkeypatch, fault, left_out, why):
        # Client 2 advertises client 1's key, a 31-byte key or the low-order
        # point u = 1. Every peer would refuse the broadcast (or, for a copied
        # key, two peers would hold each other's pair key), so the server
        # leaves the hello out of U1; the others aggregate without it. The
        # wire carries 32-byte keys only, so the short one does not encode.
        advertise = fssa.protocol.Client.round0
        keys = {}

        def faulty(self, *args, **kwargs):
            hello = advertise(self, *args, **kwargs)
            keys[self.u] = hello.public_key
            if self.u != 2:
                return hello
            key = {
                "copied": keys[1],
                "short": hello.public_key[:-1],
                "low-order": (1).to_bytes(32, "little"),
            }[fault]
            return ClientHello(u=2, public_key=key)

        monkeypatch.setattr(fssa.protocol.Client, "round0", faulty)
        inputs = [[u, 1, 2, 3] for u in range(1, 11)]
        report = run_simulation(cfg(n=10, rho=0.3, gamma=0.1, seed=1, inputs=inputs))
        assert report.status == "ok"
        assert report.excluded == {
            "u1": {u: why.format(u=u) for u in sorted(left_out)}, "u2": {}, "u3": {},
        }
        others = tuple(u for u in range(1, 11) if u not in left_out)
        assert report.rosters == {"u1": others, "u2": others, "u3": others}
        assert report.aborted == {
            u: f"client {u}: own public key missing or mismatched in broadcast" for u in left_out
        }
        assert report.aggregate == report.expected_sum_over_u2 == [
            sum(others), len(others), 2 * len(others), 3 * len(others),
        ]

    def test_undecodable_sum_shares_excluded(self, monkeypatch):
        # Client 2's sum shares are shifted by q, so the codec refuses to
        # encode them. That leaves 2 out of U3, as if it had dropped before
        # sending; its input is in U2, and the other nine reconstruct it.
        summing = fssa.protocol.Client.round2

        def shifted(self, delivery):
            msg = summing(self, delivery)
            return SumShares(u=2, sums=msg.sums + self.params.fp.q) if self.u == 2 else msg

        monkeypatch.setattr(fssa.protocol.Client, "round2", shifted)
        report = run_simulation(cfg(n=10, rho=0.3, B=2**16, seed=5))
        assert report.status == "ok"
        assert report.aggregate == report.expected_sum_over_u2
        assert report.rosters["u2"] == tuple(range(1, 11))
        assert report.rosters["u3"] == (1, *range(3, 11))
        q = report.params.fp.q
        why = f"message does not encode: field element outside [0, {q})"
        assert report.excluded == {"u1": {}, "u2": {}, "u3": {2: why}}
        assert json.loads(report.to_json())["excluded"]["u3"] == {"2": why}
        assert all(m[1] != 2 for m in report.transcript if m[0] == "round2")

    def test_sum_shares_index_outside_u32_excluded(self, monkeypatch):
        # Client 2 sends its sums under index 2**32, which the u32 header
        # cannot carry: the codec refuses it, and 2 is left out of U3
        # instead of the run ending with a struct.error.
        summing = fssa.protocol.Client.round2

        def misindexed(self, delivery):
            msg = summing(self, delivery)
            return SumShares(u=2**32, sums=msg.sums) if self.u == 2 else msg

        monkeypatch.setattr(fssa.protocol.Client, "round2", misindexed)
        report = run_simulation(cfg(n=10, rho=0.3, B=2**16, seed=5))
        assert report.status == "ok"
        assert report.aggregate == report.expected_sum_over_u2
        assert report.rosters["u3"] == (1, *range(3, 11))
        assert list(report.excluded["u3"]) == [2]
        why = report.excluded["u3"][2]
        assert why.startswith("message does not encode: SumShares does not fit the wire layout")
        assert (report.excluded["u1"], report.excluded["u2"], report.aborted) == ({}, {}, {})

    def test_forged_sum_share_bytes_excluded(self, monkeypatch):
        # Every sum share of client 2 arrives encoded as q, so its message
        # fails to decode at the server; the bytes are forged after encoding.
        # 2 is left out of U3 and the other nine reconstruct the sum over U2.
        encode = fssa.messages.serialize

        def forged(msg, params):
            wire = encode(msg, params)
            if not (isinstance(msg, SumShares) and msg.u == 2):
                return wire
            fp = params.fp
            block = pack_bits([fp.q] * len(msg.sums), fp.bit_width)
            return wire[: len(wire) - len(block)] + block

        monkeypatch.setattr(fssa.messages, "serialize", forged)
        report = run_simulation(cfg(n=10, rho=0.3, B=2**16, seed=5))
        assert report.status == "ok"
        assert report.aggregate == report.expected_sum_over_u2
        assert report.rosters["u3"] == (1, *range(3, 11))
        why = "message does not decode: element encoding out of range"
        assert report.excluded == {"u1": {}, "u2": {}, "u3": {2: why}}

    @pytest.mark.parametrize("bad, status", [({2}, "ok"), ({2, 4}, "aggregation_failed")])
    def test_undecodable_hello_excluded(self, monkeypatch, bad, status):
        # A trailing byte on a client's hello fails its decode: the hello is
        # left out of U1, and counts among the messages left out when fewer
        # than t keys remain.
        encode = fssa.messages.serialize

        def padded(msg, fp):
            wire = encode(msg, fp)
            return wire + b"\0" if isinstance(msg, ClientHello) and msg.u in bad else wire

        monkeypatch.setattr(fssa.messages, "serialize", padded)
        report = run_simulation(cfg(inputs=[[u, 1, 2, 3] for u in range(1, 6)]))
        why = "message does not decode: trailing bytes after message"
        assert report.status == status
        assert report.excluded == {"u1": {u: why for u in sorted(bad)}, "u2": {}, "u3": {}}
        assert report.rosters["u1"] == tuple(u for u in range(1, 6) if u not in bad)
        if status == "ok":
            assert report.aborted == {
                2: "client 2: own public key missing or mismatched in broadcast"
            }
            assert report.aggregate == report.expected_sum_over_u2 == [13, 4, 8, 12]
        else:
            assert report.failure == "Round 0: only 3 keys collected (2 left out), need 4"

    def test_short_ciphertexts_upload_excluded(self, monkeypatch):
        # Every ciphertext of client 1 is a byte short. The server cannot
        # open them but knows their length, so it leaves 1's upload out of
        # U2 instead of routing ciphertexts no recipient can authenticate.
        share = fssa.protocol.Client.round1

        def shortened(self, *args, **kwargs):
            upload = share(self, *args, **kwargs)
            if self.u == 1:
                upload = ShareUpload(u=1, ciphertexts=tuple(
                    (v, ct[:-1]) for v, ct in upload.ciphertexts
                ))
            return upload

        monkeypatch.setattr(fssa.protocol.Client, "round1", shortened)
        report = run_simulation(cfg(n=6, rho=0.34, seed=1))
        p = report.params
        size = block_size(p.chunk_count, p.fp) + 16
        # Client 1 designates 2 and seals for 3 first.
        why = f"client 1 sent a {size - 1}-byte ciphertext to 3, not {size}"
        assert report.excluded == {"u1": {}, "u2": {1: why}, "u3": {}}
        assert report.status == "ok"
        assert report.rosters["u2"] == report.rosters["u3"] == (2, 3, 4, 5, 6)
        assert report.aggregate == report.expected_sum_over_u2
        assert (report.aborted, report.failure) == ({}, None)

    @pytest.mark.parametrize("change, why", [
        (lambda w: w[:-1], "truncated message"),
        (lambda w: w + b"\0", "trailing bytes after message"),
        (lambda w: _SUM_SHARES_WIRE, "SumShares where KeyBroadcast was expected"),
    ], ids=["truncated", "extended", "wrong-type"])
    def test_undecodable_broadcast_aborts_its_recipients(self, monkeypatch, change, why):
        # The one broadcast wire goes to every client; none can decode it as
        # a broadcast, so each leaves the run and Round 1 collects no upload.
        encode = fssa.messages.serialize

        def faulty(msg, params):
            wire = encode(msg, params)
            return change(wire) if isinstance(msg, KeyBroadcast) else wire

        monkeypatch.setattr(fssa.messages, "serialize", faulty)
        report = run_simulation(cfg(seed=2))
        assert report.aborted == {
            u: f"client {u}: broadcast does not decode: {why}" for u in range(1, 6)
        }
        assert report.failure == "Round 1: only 0 uploads collected, need 4"

    @pytest.mark.parametrize("change, why", [
        (lambda w: w[:-1], "truncated message"),
        (lambda w: w + b"\0", "trailing bytes after message"),
        (lambda w: _SUM_SHARES_WIRE, "SumShares where ShareDelivery was expected"),
    ], ids=["truncated", "extended", "wrong-type"])
    def test_undecodable_delivery_aborts_its_recipient(self, monkeypatch, change, why):
        # Client 3's delivery does not decode as one: 3 leaves the run, and
        # the other four still reconstruct the sum over U2.
        encode = fssa.messages.serialize
        deliveries = iter(range(1, 6))

        def faulty(msg, params):
            wire = encode(msg, params)
            if isinstance(msg, ShareDelivery) and next(deliveries) == 3:
                return change(wire)
            return wire

        monkeypatch.setattr(fssa.messages, "serialize", faulty)
        report = run_simulation(cfg(seed=2, inputs=[[u, 1, 2, 3] for u in range(1, 6)]))
        assert report.aborted == {3: f"client 3: delivery does not decode: {why}"}
        assert report.status == "ok"
        assert report.rosters["u3"] == (1, 2, 4, 5)
        assert report.aggregate == report.expected_sum_over_u2 == [15, 5, 10, 15]

    def test_round2_abort_reported(self, monkeypatch):
        # The server flips one tag bit of client 2's ciphertext for client 1:
        # client 1 aborts in Round 2 and the other four still reconstruct.
        route = fssa.protocol.Server.round1

        def tampered(self, uploads):
            deliveries = route(self, uploads)
            (v, ct), *rest = deliveries[1].ciphertexts
            bad = ct[:-1] + bytes([ct[-1] ^ 1])
            deliveries[1] = ShareDelivery(ciphertexts=((v, bad), *rest))
            return deliveries

        monkeypatch.setattr(fssa.protocol.Server, "round1", tampered)
        report = run_simulation(cfg(seed=3, inputs=[[u, 1, 2, 3] for u in range(5)]))
        assert report.status == "ok"
        assert report.aggregate == [10, 5, 10, 15]
        assert report.rosters == {
            "u1": (1, 2, 3, 4, 5), "u2": (1, 2, 3, 4, 5), "u3": (2, 3, 4, 5),
        }
        assert report.aborted == {1: "client 1: ciphertext from 2 failed authentication"}
        assert report.failure is None

    def test_report_serializes(self):
        report = run_simulation(cfg(seed=12, dropout_schedule={2: DropPoint.AFTER_ROUND0}))
        doc = json.loads(report.to_json())
        assert doc["status"] == "ok"
        assert doc["aggregate"] == report.aggregate
        assert (doc["aborted"], doc["failure"]) == ({}, None)
        assert len(doc["transcript"]) == len(report.transcript)
        assert (doc["n"], doc["m"], doc["t"], doc["d"]) == (5, 4, 4, 3)
        assert doc["q"] == report.params.fp.q
        assert doc["chunk_count"] == 2
        sent, server_sent = {}, 0
        for _, s, _, p in report.transcript:
            if s == "server":
                server_sent += len(p)
            else:
                sent[str(s)] = sent.get(str(s), 0) + len(p)
        assert doc["bytes_sent"] == sent
        assert doc["server_bytes_sent"] == server_sent
        received = {}
        for _, _, r, p in report.transcript:
            if r != "server":
                received[str(r)] = received.get(str(r), 0) + len(p)
        assert doc["bytes_received"] == received
        assert doc["server_bytes_received"] == sum(sent.values())
        assert doc["excluded"] == {"u1": {}, "u2": {}, "u3": {}}
        # Client 3's view is what the transcript holds for it: the broadcast
        # and its delivery.
        received = [p.hex() for _, _, r, p in report.transcript if r == 3]
        assert [m["payload"] for m in doc["transcript"] if m["to"] == 3] == received
        assert len(received) == 2


# The stage each message type travels in, and the roster a client message
# is admitted to.
_STAGE_OF = {
    ClientHello: "round0", KeyBroadcast: "broadcast", ShareUpload: "round1",
    ShareDelivery: "delivery", SumShares: "round2",
}
_ROSTER_OF = {"round0": "u1", "round1": "u2", "round2": "u3"}


class TestWireLengthFaults:
    """One drawn message a byte short or long, in a small seeded run with
    dropouts at every DropPoint: the run reports it and goes on."""

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(n=st.integers(8, 10), rho=st.sampled_from([0.34, 0.5]), seed=st.integers(0, 2**16),
           stage=st.sampled_from(STAGES), nth=st.integers(0, 8), extend=st.booleans(),
           data=st.data())
    def test_fault_is_reported_not_raised(self, n, rho, seed, stage, nth, extend, data):
        dropped = data.draw(st.permutations(range(1, n + 1)))[:3]
        if stage == "broadcast":
            nth = 0  # one broadcast wire goes to every client
        schedule = dict(zip(dropped, DropPoint))
        encode = fssa.messages.serialize
        seen, faulted = [], []

        def faulty(msg, params):
            wire = encode(msg, params)
            if _STAGE_OF[type(msg)] != stage:
                return wire
            seen.append(msg)
            if len(seen) - 1 != nth:
                return wire
            faulted.append(msg)
            return wire + b"\0" if extend else wire[:-1]

        with mock.patch.object(fssa.messages, "serialize", faulty):
            report = run_simulation(SimConfig(
                n=n, m=3, rho=rho, B=16, seed=seed, dropout_schedule=schedule,
            ))

        for roster, left_out in report.excluded.items():
            assert all(1 <= v and why for v, why in left_out.items()), (roster, left_out)
        for u, why in report.aborted.items():
            assert why.startswith(f"client {u}: ") and why != f"client {u}: "
        if report.aggregate is not None:
            assert report.aggregate == report.expected_sum_over_u2
        else:
            assert report.failure
        if not faulted:
            return
        msg = faulted[0]
        why = "trailing bytes after message" if extend else "truncated message"
        if stage in _ROSTER_OF:
            assert report.excluded[_ROSTER_OF[stage]][msg.u] == f"message does not decode: {why}"
        elif stage == "broadcast":
            stayed = [u for u in range(1, n + 1) if schedule.get(u) is not DropPoint.AFTER_ROUND0]
            assert report.aborted == {
                u: f"client {u}: broadcast does not decode: {why}" for u in stayed
            }
        else:
            # Deliveries go out in ascending order to U2 minus those that dropped after sending.
            u = [v for v in report.rosters["u2"]
                 if schedule.get(v) is not DropPoint.AFTER_ROUND1_SEND][nth]
            if schedule.get(u) is not DropPoint.AFTER_ROUND1_RECEIVE:
                assert report.aborted[u] == f"client {u}: delivery does not decode: {why}"
