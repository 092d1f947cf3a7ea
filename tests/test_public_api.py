"""The package namespace exports exactly the names pinned here.

A change to the public surface is then an edit of this list.
"""

import importlib
import pkgutil
import threading
import types
import weakref

import compactrepair

PUBLIC = [
    "BoundsReport",
    "CosetFamily",
    "DesignBundle",
    "FieldCtx",
    "HelperPayload",
    "HittingResult",
    "OrbitReport",
    "SeedScheme",
    "SimReport",
    "Subspace",
    "bandwidth_comparison",
    "base_counts",
    "bounds",
    "bounds_for_seed",
    "coset_family",
    "count_with_base",
    "design_multi_seed",
    "design_single_seed",
    "dilate_translate",
    "enumerate_subspaces",
    "field_new",
    "gaussian_coefficient",
    "helper_payload",
    "load_bundle",
    "min_hitting_set",
    "mobius",
    "orbit_count_formula",
    "orbit_decomposition",
    "recover_symbol",
    "search_seed_scheme",
    "simulate_failures",
    "span",
    "subspace_polynomial",
    "verify_reference_example",
]


def test_all_is_the_pinned_sorted_list():
    assert PUBLIC == sorted(PUBLIC)
    assert compactrepair.__all__ == PUBLIC


def test_namespace_binds_no_other_public_name():
    # submodules (compactrepair.gf, ...) are bound once imported, and are not exports
    bound = {
        name
        for name, value in vars(compactrepair).items()
        if not name.startswith("_")
        and not (isinstance(value, types.ModuleType) and value.__name__ == f"compactrepair.{name}")
    }
    assert bound == set(PUBLIC)


def test_field_new_cache_is_the_one_locked_module_level_store():
    # per-field data live in their FieldCtx; field_new's cache, under
    # gf._FIELDS_LOCK, is the one process-wide store that needs a lock
    lock_types = (type(threading.Lock()), type(threading.RLock()))
    locks, weak_stores = [], []
    for info in pkgutil.iter_modules(compactrepair.__path__):
        module = importlib.import_module(f"compactrepair.{info.name}")
        for name, value in vars(module).items():
            if isinstance(value, lock_types):
                locks.append(f"{info.name}.{name}")
            if isinstance(value, weakref.WeakKeyDictionary):
                weak_stores.append(f"{info.name}.{name}")
    assert locks == ["gf._FIELDS_LOCK"]
    assert weak_stores == []


def test_package_defines_three_exception_classes():
    # bad input raises ValueError; a class of its own means something else
    defined = set()
    for info in pkgutil.iter_modules(compactrepair.__path__):
        module = importlib.import_module(f"compactrepair.{info.name}")
        for value in vars(module).values():
            if isinstance(value, type) and issubclass(value, Exception):
                if value.__module__ == module.__name__:
                    defined.add(value.__name__)
    assert defined == {"BudgetExceededError", "CompactRepairError", "InvariantError"}
