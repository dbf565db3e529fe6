import dqcalib


def test_every_export_resolves_once():
    names = dqcalib.__all__
    assert sorted(set(names)) == sorted(names)
    assert [name for name in names if not hasattr(dqcalib, name)] == []
