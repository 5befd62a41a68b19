"""The package root: the names that load their submodule on first use are that submodule's objects."""

import pytest

import ellfusion
from ellfusion import littlewood, oracles, verification

DEFERRED = {
    littlewood: ("expand_in_P", "lr_coefficients", "multiply_monomial"),
    oracles: (
        "OracleReport",
        "classical_fusion",
        "kac_peterson_smatrix",
        "macdonald_lr_p0",
        "macdonald_pieri_p0",
        "schur_eval",
        "schur_in_elementary",
    ),
    verification: ("run_suite",),
}


@pytest.mark.parametrize("module,name", [(module, name) for module, names in DEFERRED.items() for name in names])
def test_a_deferred_name_is_its_submodules_object(module, name):
    assert getattr(ellfusion, name) is getattr(module, name)
    assert name in dir(ellfusion)


def test_deferred_names_import_from_the_root():
    from ellfusion import lr_coefficients, run_suite

    assert run_suite is verification.run_suite
    assert lr_coefficients is littlewood.lr_coefficients


def test_star_import_binds_every_deferred_name():
    namespace = {}
    exec("from ellfusion import *", namespace)
    for module, names in DEFERRED.items():
        assert namespace[module.__name__.rpartition(".")[2]] is module
        assert all(namespace[name] is getattr(module, name) for name in names)
    assert namespace["s_matrix"] is ellfusion.s_matrix


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        ellfusion.no_such_name
    assert not hasattr(ellfusion, "no_such_name")


def test_the_suite_names_are_read_by_verification():
    assert verification.SUITES is ellfusion.SUITES == ("limits", "ring", "spectrum")
