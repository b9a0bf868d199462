import localgrad


def test_exports_resolve_once_and_star_import():
    names = localgrad.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(localgrad, name)] == []
    namespace = {}
    exec("from localgrad import *", namespace)  # raises on a stale export
    assert set(names) <= set(namespace)
