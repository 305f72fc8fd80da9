"""fssa: a 3-round dropout-tolerant secure aggregation protocol.

A single untrusted server learns the sum of n clients' private integer
vectors and nothing else, tolerating up to n - t dropouts and up to t - d
colluding honest-but-curious clients. Built from ramp secret sharing over a
prime field, Diffie-Hellman key agreement, and authenticated encryption.
"""

from .aead import ae_dec, ae_enc
from .errors import (
    ClientAborted,
    FssaError,
    InsufficientShares,
    InvalidArgument,
    ProtocolOrderViolation,
    Rejected,
    RoundAborted,
)
from .field import (
    FieldParams,
    build_recon_matrix,
    fe_inv,
    find_field_modulus,
    poly_eval,
)
from .keyagree import KeyPair, ka_agree, ka_gen
from .messages import (
    ClientHello,
    KeyBroadcast,
    ShareDelivery,
    ShareUpload,
    SumShares,
    deserialize,
    serialize,
)
from .protocol import Client, Params, Server, chunk_vector, plan_parameters
from .ramp import (
    RampParams,
    ShareBundle,
    naive_aggregate_oracle,
    rss_recon,
    rss_share,
    share_sum,
    share_view_histogram,
)
from .sim import DropPoint, SimConfig, SimReport, load_sim_config, run_simulation

__version__ = "0.1.0"

__all__ = [
    "ae_dec", "ae_enc",
    "ClientAborted", "FssaError", "InsufficientShares", "InvalidArgument",
    "ProtocolOrderViolation", "Rejected", "RoundAborted",
    "FieldParams", "build_recon_matrix", "fe_inv", "find_field_modulus", "poly_eval",
    "KeyPair", "ka_agree", "ka_gen",
    "ClientHello", "KeyBroadcast", "ShareDelivery", "ShareUpload", "SumShares",
    "deserialize", "serialize",
    "Client", "Params", "Server", "chunk_vector", "plan_parameters",
    "RampParams", "ShareBundle", "naive_aggregate_oracle", "rss_recon",
    "rss_share", "share_sum", "share_view_histogram",
    "DropPoint", "SimConfig", "SimReport", "load_sim_config", "run_simulation",
]
