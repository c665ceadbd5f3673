import ldfm


def test_every_public_name_resolves():
    assert len(set(ldfm.__all__)) == len(ldfm.__all__)
    missing = [name for name in ldfm.__all__ if not hasattr(ldfm, name)]
    assert missing == []


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from ldfm import *", namespace)
    assert set(ldfm.__all__) <= namespace.keys()
