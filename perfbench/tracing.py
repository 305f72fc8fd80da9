"""Spans around calls into fssa's public functions, installed from outside.

The benchmark does not edit the package. It replaces the names the callers
look up (a class attribute for the round methods, the importing module's
global for a function) with a wrapper that records one span per call, and
puts the originals back afterwards. Each target is checked to be the very
function its home module exports, so a refactor that moves a call site makes
the benchmark fail loudly instead of losing a layer.

A span is (aggregation id, span id, parent span id, name, start ns, end ns,
work count). The work count is filled in at the boundary from the call's
arguments or result: bytes sealed or opened, multiply-adds of a kernel.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict

from fssa import aead, field, keyagree, messages, protocol, ramp, sim

_NS = time.perf_counter_ns


def _share_mul_adds(args, result):
    # Horner evaluation: t multiply-adds per (chunk, roster point).
    rp, secrets, points = args[0], args[1], args[2]
    return secrets.shape[0] * rp.t * len(points)


def _recon_mul_adds(args, result):
    # One d x t matrix applied to every chunk's t sum shares.
    p = args[0].params
    return p.d * p.t * p.chunk_count if result is not None else 0


# (span name, object the caller looks the name up on, attribute, home, work count)
ROUND_METHODS = [
    ("protocol.Client.round0", protocol.Client, "round0", protocol.Client, None),
    ("protocol.Client.round1", protocol.Client, "round1", protocol.Client, None),
    ("protocol.Client.round2", protocol.Client, "round2", protocol.Client, None),
    ("protocol.Server.round0", protocol.Server, "round0", protocol.Server, None),
    ("protocol.Server.round1", protocol.Server, "round1", protocol.Server, None),
    ("protocol.Server.round2", protocol.Server, "round2", protocol.Server, _recon_mul_adds),
]

LAYER_FUNCTIONS = [
    ("keyagree.ka_gen", protocol, "ka_gen", keyagree, None),
    ("keyagree.ka_agree", protocol, "ka_agree", keyagree, None),
    ("protocol.chunk_vector", protocol, "chunk_vector", protocol, None),
    ("ramp.rss_share_batch", protocol, "rss_share_batch", ramp, _share_mul_adds),
    ("field.build_recon_matrix", protocol, "build_recon_matrix", field, None),
    ("aead.ae_enc", protocol, "ae_enc", aead, lambda args, res: len(args[1])),
    ("aead.ae_dec", protocol, "ae_dec", aead, lambda args, res: len(res) if res else 0),
    ("messages.encode_share_plaintext", protocol, "encode_share_plaintext", messages, None),
    ("messages.decode_share_plaintext", protocol, "decode_share_plaintext", messages, None),
    ("messages.serialize", messages, "serialize", messages, None),
    ("messages.deserialize", messages, "deserialize", messages, None),
]

ROOT_NAME = "sim.run_simulation"


class Tracer:
    """Records spans for the targets it is given while installed."""

    def __init__(self, targets):
        for name, owner, attr, home, _ in targets:
            if getattr(owner, attr) is not getattr(home, attr):
                raise RuntimeError(f"{name}: the call site no longer uses the public function")
        self.targets = targets
        self.spans: list = []
        self.agg = 0
        self._stack: list = []

    def wrap(self, name, fn, work=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(sid)
            result = None
            t0 = _NS()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = _NS()
                stack.pop()
                size = work(args, result) if work is not None else 0
                spans[sid] = (self.agg, sid, parent, name, t0, t1, size)

        return traced

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for name, owner, attr, _, work in self.targets:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, work))
            yield self.wrap(ROOT_NAME, sim.run_simulation)
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def of(self, agg):
        return [s for s in self.spans if s[0] == agg]


def totals(spans) -> dict:
    """Per span name: calls, total ns, self ns (total minus child spans), work."""
    child_ns: dict = defaultdict(int)
    for _, _, parent, _, t0, t1, _ in spans:
        if parent >= 0:
            child_ns[parent] += t1 - t0
    out: dict = defaultdict(lambda: {"calls": 0, "ns": 0, "self_ns": 0, "work": 0})
    for _, sid, _, name, t0, t1, size in spans:
        row = out[name]
        row["calls"] += 1
        row["ns"] += t1 - t0
        row["self_ns"] += t1 - t0 - child_ns[sid]
        row["work"] += size
    return out
