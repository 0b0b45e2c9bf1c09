"""The package's public surface: ``nld.__all__`` names each export once."""

import nld


def test_all_names_resolve_once():
    assert len(nld.__all__) == len(set(nld.__all__))
    assert [name for name in nld.__all__ if not hasattr(nld, name)] == []
    namespace = {}
    exec("from nld import *", namespace)
    assert set(nld.__all__) <= namespace.keys()
