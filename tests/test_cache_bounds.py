"""No module of the package holds an unbounded cache: every module-level
lru_cache has a finite maxsize, and no module-level dict or set grows while
the package runs."""

import copy
import functools
import importlib
import pkgutil

import maassdensity
from maassdensity.besseltransform import dj_residue_sum
from maassdensity.kuznetsov import geometric_side, total_mass, weight_gaussian
from maassdensity.weights import make_weight_family

MODULES = [
    importlib.import_module(f"maassdensity.{info.name}")
    for info in pkgutil.iter_modules(maassdensity.__path__)
]


def _module_globals():
    for mod in MODULES:
        for name, obj in vars(mod).items():
            if not name.startswith("__"):
                yield f"{mod.__name__}.{name}", obj


def test_every_module_lru_cache_is_bounded():
    cached = {
        name: obj.cache_parameters()["maxsize"]
        for name, obj in _module_globals()
        if isinstance(obj, functools._lru_cache_wrapper)
    }
    assert "maassdensity.besseltransform._ensure_calibrated" in cached
    assert "maassdensity.kuznetsov._smooth_grid" in cached
    assert {name for name, size in cached.items() if size is None} == set()


def test_no_module_dict_or_set_is_a_cache():
    tables = {
        name: copy.copy(obj)
        for name, obj in _module_globals()
        if isinstance(obj, (dict, set))
    }
    # what is left are constant tables, named as constants
    assert all(name.rsplit(".", 1)[1].lstrip("_").isupper() for name in tables)
    total_mass(5, c_max=20)
    total_mass(5, c_max=20, family=make_weight_family(12))
    dj_residue_sum(1.0, 5)
    geometric_side(2, 1, weight_gaussian(3.0, 1.0), c_max=20)
    assert {
        name: obj for name, obj in _module_globals() if name in tables
    } == tables
