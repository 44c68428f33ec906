import doctest
import importlib
import pkgutil

import wreathcells


def test_docstring_examples_pass():
    found = pkgutil.iter_modules(wreathcells.__path__, "wreathcells.")
    results = {}
    for module in [wreathcells, *(importlib.import_module(m.name) for m in found)]:
        # ELLIPSIS, as pytest's --doctest-modules runs them
        results[module.__name__] = doctest.testmod(module, optionflags=doctest.ELLIPSIS)
    assert {name: r.failed for name, r in results.items() if r.failed} == {}
    assert {name: r.attempted for name, r in results.items() if r.attempted} == {
        "wreathcells.combinatorics": 3,
        "wreathcells.fock": 2,
        "wreathcells.gd12": 8,
        "wreathcells.laurent": 2,
    }
