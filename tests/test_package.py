"""The package root holds a docstring and a version; every name lives in its module."""

import importlib
import inspect
import pkgutil

import poif

MODULES = [importlib.import_module(f"poif.{info.name}")
           for info in pkgutil.iter_modules(poif.__path__)]


def test_the_package_root_binds_no_function_class_or_constant():
    bound = [name for name, value in vars(poif).items()
             if not name.startswith("__") and not inspect.ismodule(value)]
    assert bound == []
    assert not hasattr(poif, "__all__")
    assert isinstance(poif.__version__, str)


def test_the_retired_object_apis_stay_gone():
    # loss rows and training logs are arrays; a run's resumable state is one
    # TrainState; the benchmark's fakes are built as columns, without a
    # per-fake spec; score_video gives statistics and a score table is
    # judged in one comparison against a float threshold; every caller
    # passes its own Generator
    retired = ("Modality", "ScoreSample", "LossReport", "TrainStep", "OptimState",
               "ManipulationSpec", "apply_manipulation", "flags_for_group",
               "DecisionPolicy", "StackVerdict", "as_rng")
    assert {"losses", "optim", "records", "scoring", "synthgen", "training"} <= {
        module.__name__.removeprefix("poif.") for module in MODULES}
    assert [f"{module.__name__}.{name}" for module in MODULES for name in retired
            if hasattr(module, name)] == []
