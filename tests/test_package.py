"""The package namespace: every public name, read on first use."""

import sys

import pytest

import untwist


def test_every_exported_name_is_the_object_of_its_home_module():
    for name in untwist.__all__:
        obj = getattr(untwist, name)
        home = sys.modules[obj.__module__]
        assert home.__name__.startswith("untwist.")
        assert getattr(home, name) is obj
    assert set(untwist.__all__) <= set(dir(untwist))


def test_unknown_package_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        untwist.no_such_name
    with pytest.raises(ImportError):
        from untwist import no_such_name  # noqa: F401
