import proxops


def test_every_export_resolves():
    # A name left in __all__ after its definition goes breaks star imports.
    assert [name for name in proxops.__all__ if not hasattr(proxops, name)] == []
    assert len(set(proxops.__all__)) == len(proxops.__all__)
    namespace = {}
    exec("from proxops import *", namespace)
    assert set(proxops.__all__) <= set(namespace)
