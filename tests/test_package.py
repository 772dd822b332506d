"""The package's export list."""

import poif


def test_every_exported_name_resolves_and_the_object_apis_are_gone():
    assert [name for name in poif.__all__ if not hasattr(poif, name)] == []
    assert len(set(poif.__all__)) == len(poif.__all__)
    for gone in ("Modality", "ScoreSample"):
        assert gone not in poif.__all__ and not hasattr(poif, gone)
