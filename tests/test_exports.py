import rovermotion


def test_every_export_resolves_by_attribute():
    for name in rovermotion.__all__:
        assert getattr(rovermotion, name) is not None, name


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from rovermotion import *", namespace)
    assert set(rovermotion.__all__) <= set(namespace)
