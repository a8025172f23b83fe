import qgrnn


def test_every_exported_name_resolves():
    for name in qgrnn.__all__:
        assert getattr(qgrnn, name) is not None, name


def test_star_import():
    namespace = {}
    exec("from qgrnn import *", namespace)
    assert set(qgrnn.__all__) <= set(namespace)
