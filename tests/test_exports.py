import aggmfg


def test_every_exported_name_resolves():
    assert [name for name in aggmfg.__all__ if not hasattr(aggmfg, name)] == []
