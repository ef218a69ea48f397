"""Exact combinatorics of minimal-parabolic orbit families.

Root systems and Weyl groups in simple-root coordinates, orbit data with
six raise-cell kinds and lattice compatibility rules, the induced action
of simple reflections with braid and stabilizer checks, a mod-2 Hecke
module, and a finite-field brute-force oracle that infers orbit data
from point counts over several primes.
"""

from .action import (
    BraidObstruction,
    BraidViolation,
    GeneratorTheoremResult,
    SubgroupDescription,
    act_word,
    action_table,
    braid_check,
    check_generator_theorem,
    orbit_of_open,
    stabilizer_open,
)
from .bundled import DATUM_NAMES, ORACLE_SPEC_NAMES, bundled_datum, oracle_spec_text
from .coxeter import (
    DEFAULT_GROUP_CAP,
    CapExceeded,
    RootSystem,
    RootSystemError,
    WeylElement,
    braid_order,
    build_root_system,
    canonical_word,
    enumerate_group,
    reflections,
    subgroup_closure,
    word_name,
)
from .datum import (
    KINDS,
    DatumFormatError,
    Orbit,
    OrbitDatum,
    RaiseCell,
    ValidationReport,
    Violation,
    check_lattices,
    datum_from_obj,
    datum_to_obj,
    dumps,
    export_dot,
    generate_flag_datum,
    load_path,
    loads,
    validate,
)
from .hecke import (
    HeckeBraidViolation,
    HeckeError,
    HeckeModule,
    RegularRepReport,
    apply_word,
    braid_check_module,
    build_module,
    leading_term,
    verify_regular_representation,
)
from .oracle import (
    DEFAULT_Q_LIST,
    CompareReport,
    InferredDatum,
    MatGroupSpec,
    OracleError,
    OracleReport,
    OrbitInfo,
    align_reports,
    compare,
    enumerate_orbits,
    fit_monomial,
    infer_datum,
    load_spec,
    spec_from_obj,
)

__version__ = "0.1.0"

__all__ = [
    "BraidObstruction", "BraidViolation", "GeneratorTheoremResult",
    "SubgroupDescription", "act_word", "action_table", "braid_check",
    "check_generator_theorem", "orbit_of_open", "stabilizer_open",
    "DATUM_NAMES", "ORACLE_SPEC_NAMES", "bundled_datum", "oracle_spec_text",
    "DEFAULT_GROUP_CAP", "CapExceeded", "RootSystem", "RootSystemError",
    "WeylElement", "braid_order", "build_root_system", "canonical_word",
    "enumerate_group", "reflections", "subgroup_closure", "word_name",
    "KINDS", "DatumFormatError", "Orbit", "OrbitDatum", "RaiseCell",
    "ValidationReport", "Violation", "check_lattices", "datum_from_obj",
    "datum_to_obj", "dumps", "export_dot", "generate_flag_datum",
    "load_path", "loads", "validate",
    "HeckeBraidViolation", "HeckeError", "HeckeModule", "RegularRepReport",
    "apply_word", "braid_check_module", "build_module", "leading_term",
    "verify_regular_representation",
    "DEFAULT_Q_LIST", "CompareReport", "InferredDatum", "MatGroupSpec",
    "OracleError", "OracleReport", "OrbitInfo", "align_reports", "compare",
    "enumerate_orbits", "fit_monomial", "infer_datum", "load_spec",
    "spec_from_obj",
    "__version__",
]
