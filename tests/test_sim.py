import hashlib
import json
import random

import pytest

import fssa.protocol
from fssa.aead import _nonce
from fssa.errors import InvalidArgument
from fssa.keyagree import ka_gen
from fssa.messages import ShareDelivery, ShareUpload
from fssa.sim import (
    DropPoint,
    SimConfig,
    apply_dropout_schedule,
    load_sim_config,
    run_simulation,
)


def cfg(**kw):
    base = dict(n=5, m=4, rho=0.2, B=16, seed=7)
    base.update(kw)
    return SimConfig(**base)


def expected_wire_bytes(report, pk_len):
    """Closed-form per-message byte counts for the fixed wire layout.

    A sender seals for every other member of U1 but its t-d designated
    peers. The delivery size assumes every member of U1 uploaded: it holds
    |U1|-1-(t-d) ciphertexts and t-d empty 8-byte entries.
    """
    params = report.params
    bw = (params.fp.q.bit_length() + 7) // 8
    k = params.t - params.d
    ct_len = params.chunk_count * bw + 16  # shares + tag; the nonce is derived, not sent
    sealed = report.roster_sizes["u1"] - 1 - k
    hello = 1 + 4 + 4 + pk_len
    upload = 1 + 4 + 4 + sealed * (4 + 4 + ct_len)
    delivery = 1 + 4 + sealed * (4 + 4 + ct_len) + k * (4 + 4)
    sums = 1 + 4 + 4 + params.chunk_count * bw
    return hello, upload, delivery, sums


class TestBasicRuns:
    def test_exact_aggregate(self):
        inputs = [[u, 0, 3, 15] for u in range(1, 6)]
        report = run_simulation(cfg(inputs=inputs))
        assert report.status == "ok"
        assert report.aggregate == [sum(col) for col in zip(*inputs)]
        assert report.aggregate == report.expected_sum_over_u2
        assert report.roster_sizes == {"u1": 5, "u2": 5, "u3": 5}

    def test_fractional_inputs_refused(self):
        inputs = [[u, 0, 3, 15] for u in range(1, 6)]
        inputs[0][1] = 1.7
        with pytest.raises(InvalidArgument, match="integers .* float64 entries"):
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
        # the shares or the order of random draws changes it.
        schedule = {
            3: DropPoint.AFTER_ROUND0, 8: DropPoint.AFTER_ROUND0,
            5: DropPoint.AFTER_ROUND1_SEND, 12: DropPoint.AFTER_ROUND1_SEND,
            17: DropPoint.AFTER_ROUND1_RECEIVE, 20: DropPoint.AFTER_ROUND1_RECEIVE,
        }
        report = run_simulation(SimConfig(
            n=20, m=500, rho=0.3, gamma=0.3, seed=11, dropout_schedule=schedule,
        ))
        assert report.status == "ok"
        assert report.roster_sizes == {"u1": 20, "u2": 18, "u3": 14}
        h = hashlib.sha256()
        for stage, sender, recipient, payload in report.transcript:
            h.update(f"{stage}:{sender}:{recipient}:{len(payload)}:".encode())
            h.update(payload)
        assert h.hexdigest() == (
            "9b51ed16dacea05ac084883c5159dfb0cfd85088e32542037289b9eada515e9b"
        )


class TestScheduleValidation:
    def test_budget_enforced(self):
        with pytest.raises(InvalidArgument):
            run_simulation(
                cfg(dropout_schedule={1: DropPoint.AFTER_ROUND0, 2: DropPoint.AFTER_ROUND0})
            )  # rho=0.2, n=5 tolerates only 1

    def test_never_entries_are_free(self):
        report = run_simulation(
            cfg(dropout_schedule={1: DropPoint.NEVER, 2: DropPoint.AFTER_ROUND0})
        )
        assert report.status == "ok"

    def test_unknown_client_rejected(self):
        with pytest.raises(InvalidArgument):
            run_simulation(cfg(dropout_schedule={9: DropPoint.AFTER_ROUND0}))

    def test_drop_point_must_be_a_drop_point(self):
        # A string is neither honoured nor ignored: it names no DropPoint.
        with pytest.raises(InvalidArgument, match="'after_round0' for client 2"):
            run_simulation(cfg(dropout_schedule={2: "after_round0"}))

    def test_corruption_budget(self):
        # t=4, d=3 at these rates: at most one corrupted client.
        with pytest.raises(InvalidArgument):
            run_simulation(cfg(corrupted=frozenset({1, 2})))

    def test_apply_dropout_schedule(self):
        sched = {1: DropPoint.AFTER_ROUND0, 2: DropPoint.AFTER_ROUND1_SEND}
        live = {1, 2, 3}
        assert apply_dropout_schedule(sched, DropPoint.AFTER_ROUND0, live) == {2, 3}
        assert apply_dropout_schedule(sched, DropPoint.AFTER_ROUND1_SEND, live) == {1, 3}


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
        pk_len = len(
            next(p for st, s, r, p in report.transcript if st == "round0")
        ) - 9  # strip tag, index, length prefix
        hello, upload, delivery, sums = expected_wire_bytes(report, pk_len)
        by_stage = {}
        for stage, sender, recipient, payload in report.transcript:
            by_stage.setdefault(stage, []).append(len(payload))
        assert set(by_stage["round0"]) == {hello}
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

    def test_message_counts_full_run(self):
        report = run_simulation(cfg(seed=1))
        # every client sends hello, upload, sums; receives broadcast + delivery
        assert report.sent_counts() == {u: 3 for u in range(1, 6)}
        assert report.received_counts() == {u: 2 for u in range(1, 6)}


class TestCorruptedViews:
    def test_views_recorded(self):
        report = run_simulation(cfg(corrupted=frozenset({2})))
        views = report.corrupted_views[2]
        received = [p for _, s, r, p in report.transcript if r == 2]
        assert views == received
        assert len(views) == 2  # broadcast + delivery


class TestFailureReporting:
    def test_too_many_natural_dropouts(self):
        # rho=0 -> t=n; any dropout fails aggregation, but scheduling one is
        # blocked by the budget, so force failure via budget-exact rho and two
        # boundaries: use n=5, rho=0.2 (t=4) and drop 1 at round0 plus an abort.
        report = run_simulation(
            SimConfig(n=4, m=2, rho=0.25, B=16, seed=0,
                      dropout_schedule={1: DropPoint.AFTER_ROUND1_SEND,
                                        2: DropPoint.NEVER})
        )
        assert report.status == "ok"  # one dropout is within budget

    def test_key_collision_reported_not_raised(self, monkeypatch):
        # Every client advertises the same X25519 key, so each one finds
        # duplicate keys in the broadcast and aborts; the run fails gracefully.
        same = ka_gen(random.Random(0))
        monkeypatch.setattr(fssa.protocol, "ka_gen", lambda rng=None: same)
        report = run_simulation(cfg(seed=2))
        assert report.status == "aggregation_failed"
        assert report.aggregate is None
        assert report.rosters == {"u1": (1, 2, 3, 4, 5), "u2": (), "u3": ()}
        assert report.roster_sizes == {"u1": 5, "u2": 0, "u3": 0}
        assert report.aborted == {
            u: f"client {u}: duplicate public keys in broadcast" for u in range(1, 6)
        }
        assert report.failure == "Round 1: only 0 uploads collected, need 4"
        doc = json.loads(report.to_json())
        assert doc["aborted"] == {str(u): why for u, why in report.aborted.items()}
        assert doc["failure"] == report.failure
        assert doc["rosters"] == {"u1": [1, 2, 3, 4, 5], "u2": [], "u3": []}

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
        assert report.excluded == {2: "client 2 sent no ciphertext for 1"}
        assert report.rosters == {
            "u1": (1, 2, 3, 4, 5), "u2": (1, 3, 4, 5), "u3": (1, 3, 4, 5),
        }
        assert (report.aborted, report.failure) == ({}, None)
        assert json.loads(report.to_json())["excluded"] == {"2": report.excluded[2]}

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
        assert report.excluded == {3: "2 uploads under index 3"}
        assert report.failure == "Round 1: only 3 uploads collected (2 left out), need 4"
        assert report.rosters == {"u1": (1, 2, 3, 4, 5), "u2": (1, 4, 5), "u3": ()}
        doc = json.loads(report.to_json())
        assert (doc["excluded"], doc["failure"]) == ({"3": report.excluded[3]}, report.failure)

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
        report = run_simulation(cfg(
            seed=12, corrupted=frozenset({3}), dropout_schedule={2: DropPoint.AFTER_ROUND0}
        ))
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
        assert doc["excluded"] == {}
        # Client 3 received the broadcast and its delivery.
        received = [p.hex() for _, _, r, p in report.transcript if r == 3]
        assert doc["corrupted_views"] == {"3": received}
        assert len(received) == 2


class TestConfigFile:
    def test_yaml_roundtrip(self, tmp_path):
        path = tmp_path / "sim.yaml"
        path.write_text(
            "n: 5\n"
            "m: 2\n"
            "rho: 0.2\n"
            "B: 16\n"
            "seed: 3\n"
            "dropout_schedule:\n"
            "  2: after_round0\n"
            "corrupted: [4]\n"
            "inputs:\n"
            "  - [1, 2]\n"
            "  - [3, 4]\n"
            "  - [5, 6]\n"
            "  - [7, 8]\n"
            "  - [9, 10]\n"
        )
        config = load_sim_config(path)
        assert config.dropout_schedule == {2: DropPoint.AFTER_ROUND0}
        assert config.corrupted == frozenset({4})
        report = run_simulation(config)
        assert report.status == "ok"
        assert report.aggregate == [1 + 5 + 7 + 9, 2 + 6 + 8 + 10]

    def test_minimal_yaml(self, tmp_path):
        path = tmp_path / "sim.yaml"
        path.write_text("n: 3\nm: 1\nB: 4\nrho: 0.34\n")
        config = load_sim_config(path)
        assert (config.n, config.m, config.seed) == (3, 1, 0)
        assert run_simulation(config).status == "ok"

    @pytest.mark.parametrize("text, pattern", [
        ("m: 1\n", r"missing key\(s\) in .*: n$"),
        ("n: 3\nm: 1\ndropout_schedule:\n  2: after_round9\n",
         r"bad value for dropout_schedule in .*: \{2: 'after_round9'\}"),
        ("n: 3\nm: 1\ncorrupted: 2\n", r"bad value for corrupted in .*: 2 \("),
        ("n: 3\nm: 1\ndegenerate_privacy_ok: true\n",
         r"unknown key\(s\) in .*: degenerate_privacy_ok$"),
        ('n: 3\nm: 1\nparallel: "no"\n',
         r"bad value for parallel in .*: 'no' \(expected true or false\)"),
        ("n: 3\nm: 1\nseed: 2.9\n", r"bad value for seed in .*: 2.9 \(expected an integer\)"),
        ("n: 3\nm: true\n", r"bad value for m in .*: True \(expected an integer\)"),
        ("n: 3\nm: 2\nB: 4\ninputs: [[true, 2], [1, 1], [0, 3]]\n",
         r"bad value for inputs in .*: \[\[True, 2\], .* \(expected an integer\)"),
        ("n: 3\nm: 2\nB: 4\ninputs: [[1, 2.9], [1, 1], [0, 3]]\n",
         r"bad value for inputs in .*: \[\[1, 2.9\], .* \(expected an integer\)"),
        ('n: 3\nm: 1\nrho: "0.34"\n', r"bad value for rho in .*: '0.34' \(expected a number\)"),
    ], ids=["missing-n", "unknown-drop-point", "scalar-corrupted", "degenerate-flag",
            "string-parallel", "fractional-seed", "bool-m", "bool-input",
            "fractional-input", "string-rho"])
    def test_bad_value_refused(self, tmp_path, text, pattern):
        path = tmp_path / "sim.yaml"
        path.write_text(text)
        with pytest.raises(InvalidArgument, match=pattern):
            load_sim_config(path)

    def test_unknown_key_refused(self, tmp_path):
        path = tmp_path / "sim.yaml"
        path.write_text("n: 3\nm: 1\ndropout_schedul:\n  2: after_round0\n")
        with pytest.raises(InvalidArgument, match="dropout_schedul"):
            load_sim_config(path)
