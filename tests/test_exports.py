import importlib
import pkgutil

import pytest

import kummer


def test_every_public_name_resolves():
    """Each entry of each module's ``__all__`` is defined, so a deletion
    cannot leave a stale name behind."""
    missing = []
    for info in pkgutil.iter_modules(kummer.__path__):
        if info.name == "__main__":
            continue
        mod = importlib.import_module(f"kummer.{info.name}")
        missing += [f"{info.name}.{name}" for name in getattr(mod, "__all__", ())
                    if not hasattr(mod, name)]
    assert missing == []


# The package's public names; removing one is a deliberate change here.
PACKAGE_NAMES = (
    "CaseOneEvidence", "CaseTwoEvidence", "ChrisReport", "CoKummerTower",
    "ColimitElement", "ColimitTower", "CrtGlue", "CyclicGroupModule", "EvidenceError",
    "FgAbGroup", "GModuleMap", "GModuleSequence", "GlueError", "GroupElement",
    "HeightProbe", "Homomorphism", "INFINITE", "InputError", "IntMatrix", "KummerError",
    "KummerTower", "LevelMaps", "LimitSplitResult", "MatrixEquationSystem",
    "NoSectionCertificate", "NotExactError", "PurityCertificate", "PurityError",
    "Section", "ShortExactSequence", "SigmaModel", "SmithDecomposition", "Subquotient",
    "TateGroups", "TowerInvalidError", "TowerReport", "UnsupportedError",
    "character_pairing", "check_exact", "chris_verify", "cokernel", "colimit_height",
    "common_exponent", "counterexample_tower", "crt_split", "direct_limit_split",
    "direct_sum", "divisible_tower", "double_dual_inverse", "double_dual_iso",
    "dual_tower", "dual_tower_split", "dualize_sequence", "equivariant_section_exists",
    "hermite_column_form", "hom_from_images", "image", "invert_isomorphism", "is_pure",
    "kernel", "kernel_lattice", "les_multiplication_by_p", "limit_no_section_certificate",
    "limit_purity_witness", "pontryagin_dual", "pure_witness", "rank_m", "reduce_mod_p",
    "regular_extension_fixture", "regular_module", "retraction_from_section",
    "section_compatibility_solvable", "section_exists", "section_from_purity",
    "section_from_retraction", "sigma_kummer_tower", "smith_normal_form",
    "solve_congruences", "solve_integer_system", "split_sequence", "stabilizing_tower",
    "subgroup_generated", "tate_cohomology", "tate_model", "tower_split",
    "validate_tower",
)


def test_package_names_resolve_to_their_module_objects():
    assert sorted(kummer.__all__) == sorted(PACKAGE_NAMES)
    for name in PACKAGE_NAMES:
        value = getattr(kummer, name)
        home = importlib.import_module(f"kummer.{kummer._MODULE_OF[name]}")
        assert value is getattr(home, name), name
        assert name in dir(kummer)


def test_star_import_binds_every_package_name():
    namespace = {}
    exec("from kummer import *", namespace)
    assert set(PACKAGE_NAMES) <= namespace.keys()


def test_an_unknown_package_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        kummer.no_such_name
