"""The package's export list."""

import poif
from poif import losses, optim, records, synthgen, training


def test_every_exported_name_resolves_and_the_object_apis_are_gone():
    assert [name for name in poif.__all__ if not hasattr(poif, name)] == []
    assert len(set(poif.__all__)) == len(poif.__all__)
    for gone in ("Modality", "ScoreSample", "LossReport", "TrainStep"):
        assert gone not in poif.__all__ and not hasattr(poif, gone)
    # loss rows and training logs are arrays
    assert not hasattr(losses, "LossReport") and not hasattr(training, "TrainStep")
    # a run's resumable state is one TrainState
    assert not hasattr(optim, "OptimState")
    # the benchmark's fakes are built as columns, without a per-fake spec
    for gone in ("ManipulationSpec", "apply_manipulation"):
        assert gone not in poif.__all__ and not hasattr(poif, gone)
        assert not hasattr(synthgen, gone)
    assert not hasattr(records, "flags_for_group")
