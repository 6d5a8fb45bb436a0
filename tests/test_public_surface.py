import emocons


def test_every_exported_name_resolves():
    assert [name for name in emocons.__all__ if not hasattr(emocons, name)] == []


def test_exports_are_unique():
    assert len(set(emocons.__all__)) == len(emocons.__all__)
