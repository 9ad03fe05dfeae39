import mczcut


def test_every_export_resolves_once():
    assert len(mczcut.__all__) == len(set(mczcut.__all__))
    missing = [name for name in mczcut.__all__ if not hasattr(mczcut, name)]
    assert missing == []
