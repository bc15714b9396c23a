"""The package's public names."""

import seesawqec


def test_every_public_name_resolves():
    missing = [name for name in seesawqec.__all__ if not hasattr(seesawqec, name)]
    assert not missing
    assert len(set(seesawqec.__all__)) == len(seesawqec.__all__)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from seesawqec import *", namespace)
    assert set(seesawqec.__all__) <= set(namespace)
