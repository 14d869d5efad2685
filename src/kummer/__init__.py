"""Finitely generated abelian groups, pure exact sequences, and their splittings.

The public names below are imported from their module on first use
(PEP 562), so ``import kummer`` loads no layer and a command-line verb
loads only the layers it runs.
"""

import importlib

_EXPORTS = {
    "errors": (
        "EvidenceError",
        "GlueError",
        "InputError",
        "KummerError",
        "NotExactError",
        "PurityError",
        "TowerInvalidError",
        "UnsupportedError",
    ),
    "matrices": (
        "IntMatrix",
        "MatrixEquationSystem",
        "SmithDecomposition",
        "hermite_column_form",
        "kernel_lattice",
        "smith_normal_form",
        "solve_integer_system",
    ),
    "groups": (
        "INFINITE",
        "FgAbGroup",
        "GroupElement",
        "Homomorphism",
        "cokernel",
        "common_exponent",
        "direct_sum",
        "hom_from_images",
        "image",
        "invert_isomorphism",
        "kernel",
        "solve_congruences",
        "subgroup_generated",
    ),
    "sequences": (
        "PurityCertificate",
        "Section",
        "ShortExactSequence",
        "check_exact",
        "character_pairing",
        "double_dual_inverse",
        "double_dual_iso",
        "dualize_sequence",
        "is_pure",
        "pontryagin_dual",
        "pure_witness",
        "rank_m",
        "retraction_from_section",
        "section_exists",
        "section_from_purity",
        "section_from_retraction",
        "split_sequence",
    ),
    "towers": (
        "CoKummerTower",
        "CrtGlue",
        "KummerTower",
        "LevelMaps",
        "SigmaModel",
        "TowerReport",
        "crt_split",
        "dual_tower",
        "dual_tower_split",
        "sigma_kummer_tower",
        "tower_split",
        "validate_tower",
    ),
    "colimits": (
        "CaseOneEvidence",
        "CaseTwoEvidence",
        "ColimitElement",
        "ColimitTower",
        "HeightProbe",
        "LimitSplitResult",
        "NoSectionCertificate",
        "colimit_height",
        "counterexample_tower",
        "direct_limit_split",
        "divisible_tower",
        "limit_no_section_certificate",
        "limit_purity_witness",
        "section_compatibility_solvable",
        "stabilizing_tower",
    ),
    "cohomology": (
        "ChrisReport",
        "CyclicGroupModule",
        "GModuleMap",
        "GModuleSequence",
        "Subquotient",
        "TateGroups",
        "chris_verify",
        "equivariant_section_exists",
        "les_multiplication_by_p",
        "reduce_mod_p",
        "regular_extension_fixture",
        "regular_module",
        "tate_cohomology",
        "tate_model",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
