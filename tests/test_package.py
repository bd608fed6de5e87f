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
    # Z has one model, IntegerLattice(1), and no name is an alias of another.
    # The agreement radius of a pair is a test oracle (tests/homoclinic.py).
    for name in ("no_such_name", "InfiniteCyclic", "cyclic_group",
                 "background_configuration", "homoclinic_agreement_radius"):
        with pytest.raises(AttributeError, match=name):
            getattr(untwist, name)
        with pytest.raises(ImportError):
            exec(f"from untwist import {name}", {})
