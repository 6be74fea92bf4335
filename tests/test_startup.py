"""Start-up: each subcommand loads only the modules it runs, and the package
namespace resolves its exports lazily."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import rankone2d

SUBMODULES = {"cli", "criteria", "energy", "errors", "expr", "kernels", "oracle",
              "scalar_inf", "scan", "stress"}

# subcommand -> (argv, modules it must load, modules it must not load);
# "fractions" is the standard-library module only the oracle needs,
# "numpy.ma" is what np.unique without return_inverse would import, and
# "numpy.random" is numpy's generator package, which the oracle's seeded
# refinement does without
SUBCOMMANDS = {
    "check": (["check", "--catalog", "example1"],
              {"errors", "expr", "energy", "scalar_inf", "criteria"},
              {"oracle", "kernels", "scan", "stress", "fractions", "numpy.ma"}),
    "classify": (["classify", "--catalog", "example1"],
                 {"errors", "expr", "energy", "scalar_inf", "criteria"},
                 {"oracle", "kernels", "scan", "stress", "fractions", "numpy.ma"}),
    "oracle": (["oracle", "--catalog", "example1", "--grid", "3", "--samples", "10"],
               {"errors", "expr", "energy", "kernels", "oracle"},
               {"criteria", "scalar_inf", "scan", "stress", "numpy.ma",
                "numpy.random"}),
    "scan": (["scan", "--catalog", "example1", "--grid", "8"],
             {"errors", "expr", "energy", "scan"},
             {"criteria", "scalar_inf", "oracle", "kernels", "stress", "fractions",
              "numpy.ma"}),
    "stress": (["stress", "--catalog", "example1"],
               {"stress"},
               {"criteria", "scalar_inf", "oracle", "kernels", "scan", "numpy.ma"}),
}

RUN_PROBE = """
import contextlib, io, json, sys
from rankone2d import cli
with contextlib.redirect_stdout(io.StringIO()):
    try:
        cli.main({argv!r}, standalone_mode=False)
    except SystemExit:
        pass
print(json.dumps(sorted(sys.modules)))
"""


def _probe(code: str):
    """What a fresh interpreter prints as JSON after running ``code``."""
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(rankone2d.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


def _loaded(modules: list) -> set:
    """Module names, rankone2d submodules without the package prefix."""
    return {m.removeprefix("rankone2d.") for m in modules}


@pytest.mark.parametrize("sub", sorted(SUBCOMMANDS))
def test_subcommand_loads_only_its_modules(sub):
    argv, loads, skips = SUBCOMMANDS[sub]
    loaded = _loaded(_probe(RUN_PROBE.format(argv=argv)))
    assert loads <= loaded
    assert not skips & loaded


def test_package_import_loads_no_submodule():
    modules, names = _probe("import json, sys, rankone2d\n"
                            "print(json.dumps([sorted(sys.modules), dir(rankone2d)]))")
    loaded = _loaded(modules)
    assert "rankone2d" in loaded and "numpy" in loaded
    assert not SUBMODULES & loaded
    # dir() lists the exports before any of them is resolved
    assert set(rankone2d.__all__) | {"__version__"} <= set(names)


def test_submodule_import_through_the_package():
    loaded = _loaded(_probe("import json, sys\n"
                            "from rankone2d import criteria\n"
                            "assert criteria is sys.modules['rankone2d.criteria']\n"
                            "print(json.dumps(sorted(sys.modules)))"))
    assert {"criteria", "energy", "scalar_inf"} <= loaded
    assert not {"oracle", "kernels", "scan", "stress"} & loaded


class TestLazySurface:
    def test_exports_are_the_submodules_objects(self):
        assert len(set(rankone2d.__all__)) == len(rankone2d.__all__) == 46
        for name in rankone2d.__all__:
            obj = getattr(rankone2d, name)
            assert obj.__module__.startswith("rankone2d.")
            assert getattr(importlib.import_module(obj.__module__), name) is obj

    def test_star_import_binds_every_export(self):
        namespace = {}
        exec("from rankone2d import *", namespace)
        for name in rankone2d.__all__:
            assert namespace[name] is getattr(rankone2d, name)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="BACKEND"):
            rankone2d.BACKEND
        assert getattr(rankone2d, "BACKEND", None) is None

    def test_submodule_attribute(self):
        from rankone2d import criteria

        assert criteria.ks_check is rankone2d.ks_check
        assert rankone2d.__version__ == "0.1.0"
