"""The package's public names."""

import datamarket


def test_every_exported_name_resolves_and_star_import_works():
    assert len(set(datamarket.__all__)) == len(datamarket.__all__)
    assert [name for name in datamarket.__all__ if not hasattr(datamarket, name)] == []
    namespace = {}
    exec("from datamarket import *", namespace)
    assert set(datamarket.__all__) <= set(namespace)
