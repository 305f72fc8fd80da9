"""The package's public surface."""

import fssa


def test_every_export_resolves():
    # A name left in __all__ after its definition is deleted breaks
    # `from fssa import *`; this catches it in the ordinary test run.
    for name in fssa.__all__:
        getattr(fssa, name)
    assert len(set(fssa.__all__)) == len(fssa.__all__)
