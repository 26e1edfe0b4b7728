import ptwell


def test_exports_resolve():
    # a name left in __all__ after its definition is deleted fails here
    missing = [name for name in ptwell.__all__ if not hasattr(ptwell, name)]
    assert not missing
    assert len(set(ptwell.__all__)) == len(ptwell.__all__)
