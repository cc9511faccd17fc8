import vandercomplex


def test_exports_resolve_without_duplicates():
    names = vandercomplex.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(vandercomplex, name)]
    assert missing == []
