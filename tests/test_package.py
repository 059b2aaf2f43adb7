"""The package namespace: each exported name is read from its home module."""
import importlib

import pytest

import meroimm


def test_every_export_is_its_home_modules_object():
    listing = dir(meroimm)
    for name in meroimm.__all__:
        home = importlib.import_module(f"meroimm.{meroimm._HOME[name]}")
        assert getattr(meroimm, name) is vars(home)[name], name
        assert name in listing


def test_a_name_replaced_in_its_module_is_seen_through_the_package(monkeypatch):
    import meroimm.poly

    replacement = object()
    monkeypatch.setattr(meroimm.poly, "roots", replacement)
    assert meroimm.roots is replacement
    monkeypatch.undo()
    assert meroimm.roots is meroimm.poly.roots


def test_submodules_resolve_and_unknown_names_do_not():
    assert meroimm.cli is importlib.import_module("meroimm.cli")
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        meroimm.no_such_name
    assert not hasattr(meroimm, "_certify")


def test_star_import_binds_every_export():
    namespace = {}
    exec("from meroimm import *", namespace)
    for name in meroimm.__all__:
        assert namespace[name] is getattr(meroimm, name), name
