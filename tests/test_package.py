import types

import polyarith


def test_all_entries_resolve_and_are_not_modules():
    assert len(set(polyarith.__all__)) == len(polyarith.__all__)
    for name in polyarith.__all__:
        value = getattr(polyarith, name)
        assert not isinstance(value, types.ModuleType), name


def test_all_lists_every_public_import():
    public = {
        name
        for name, value in vars(polyarith).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(polyarith.__all__)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from polyarith import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(polyarith.__all__)
