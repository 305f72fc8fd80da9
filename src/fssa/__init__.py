"""fssa: a 3-round dropout-tolerant secure aggregation protocol.

A single untrusted server learns the sum of n clients' private integer
vectors and nothing else, tolerating up to n - t dropouts and up to t - d
colluding honest-but-curious clients. Built from ramp secret sharing over a
prime field, Diffie-Hellman key agreement, and authenticated encryption.
The top level holds the two roles and their parameters; every other name is
imported from its module (`fssa.sim`, `fssa.messages`, ...).
"""

from .protocol import Client, Params, Server, plan_parameters

__all__ = ["Client", "Params", "Server", "plan_parameters"]
