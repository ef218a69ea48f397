"""Value semantics of the record types against frozen-dataclass references.

The records are ``typing.NamedTuple`` classes, and ``RootSystem``,
``WeylElement``, ``OrbitDatum`` and ``HeckeModule`` are plain classes.
Each reference below is the dataclass definition it replaces, cut down to
its fields and the members that decide equality and hashing.  On
hypothesis-drawn field values every type must agree with its reference
on ``==``, ``!=`` and ``hash``, and refuse attribute assignment and
deletion wherever the reference was frozen.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylorb.action import BraidViolation, GeneratorTheoremResult, SubgroupDescription
from weylorb.bundled import DATUM_NAMES, bundled_datum
from weylorb.coxeter import RootSystem, WeylElement, build_root_system, weyl_group
from weylorb.datum import Orbit, OrbitDatum, RaiseCell, ValidationReport, Violation
from weylorb.hecke import HeckeModule, RegularRepReport, build_module
from weylorb.oracle import (
    CompareReport,
    InferredDatum,
    MatGroupSpec,
    OracleReport,
    OrbitInfo,
)

from references import element_matrix, simple_element

# -- references: the frozen dataclasses as they were -------------------------


@dataclass(frozen=True, eq=False)
class RefRootSystem:
    family: str
    rank: int
    cartan: tuple
    positive_roots: tuple
    positive_lines: tuple
    raise_dims: tuple
    gram: tuple

    @property
    def key(self) -> tuple:
        return (self.family, self.rank, self.raise_dims)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RefRootSystem) and self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)


@dataclass(frozen=True, eq=False)
class RefWeylElement:
    """The element compared by its id, which stands for the matrix the
    dataclass compared: ids and matrices are in bijection."""
    system: RootSystem
    id: int
    word: tuple

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, RefWeylElement)
                and self.system == other.system
                and self.id == other.id)

    def __hash__(self) -> int:
        return hash((self.system.key, self.id))


@dataclass(frozen=True)
class RefOrbit:
    id: str
    dim: int
    c: int
    rk: int
    s: int
    open: bool = False
    lattice: tuple | None = None


@dataclass(frozen=True)
class RefRaiseCell:
    kind: str
    members: tuple


@dataclass(frozen=True)
class RefViolation:
    code: str
    where: str
    message: str


@dataclass(frozen=True)
class RefValidationReport:
    violations: tuple


@dataclass
class RefOrbitDatum:
    root_system: RootSystem
    orbits: tuple
    cells: dict
    notes: tuple = ()

    def __post_init__(self) -> None:
        self.orbits = tuple(sorted(self.orbits, key=lambda o: (o.dim, o.id)))
        self.cells = {a: tuple(sorted(cs, key=lambda c: c.y))
                      for a, cs in sorted(self.cells.items())}

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, RefOrbitDatum)
                and self.root_system == other.root_system
                and self.orbits == other.orbits
                and self.cells == other.cells
                and self.notes == other.notes)


@dataclass(frozen=True)
class RefBraidViolation:
    alpha: int
    beta: int
    order: int
    witness: str


@dataclass(frozen=True)
class RefSubgroupDescription:
    ids: frozenset
    words: frozenset


@dataclass(frozen=True)
class RefGeneratorTheoremResult:
    holds: bool
    generating_set: tuple
    stabilizer: SubgroupDescription
    generated_order: int


@dataclass(frozen=True)
class RefHeckeModule:
    datum: OrbitDatum
    columns: dict
    basis: tuple = dataclasses.field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "basis", self.datum.orbit_ids())


@dataclass(frozen=True)
class RefRegularRepReport:
    ok: bool
    group_order: int
    distinct_images: int
    span_dimension: int
    braid_violations: tuple


@dataclass(frozen=True)
class RefMatGroupSpec:
    name: str
    root_system: str
    q: int
    dimension: int
    g_gens: tuple
    b_gens: tuple
    h_gens: tuple
    parabolics: dict


@dataclass(frozen=True)
class RefOrbitInfo:
    representative: str
    size: int


@dataclass(frozen=True)
class RefOracleReport:
    spec_name: str
    root_system: str
    q: int
    group_order: int
    subgroup_order: int
    point_count: int
    orbits: tuple
    merges: dict


@dataclass(frozen=True)
class RefInferredDatum:
    datum: OrbitDatum | None
    notes: tuple
    point_counts: tuple
    fits: tuple


@dataclass(frozen=True)
class RefCompareReport:
    match: bool
    lines: tuple


# -- field strategies, over small domains so that equal draws are common -----

SYSTEMS = [build_root_system(t) for t in ("A1", "A2", "B2")] + [
    build_root_system("A2", raise_dims=[2, 2])]
RS_FIELDS = [f.name for f in dataclasses.fields(RefRootSystem)]
DATA = [bundled_datum(n) for n in ("rank1_u", "rank1_rt", "product_a1a1")]

small = st.integers(0, 2)
name = st.sampled_from("yzw")
names = st.lists(name, max_size=2).map(tuple)
flag = st.booleans()
matrices = st.sampled_from([((1, 0), (0, 1)), ((0, 1), (1, 0)), ((1, 1), (0, 1))])
gens = st.lists(matrices, min_size=1, max_size=2).map(tuple)


@st.composite
def root_system_fields(draw):
    """A built system's fields, with its gram matrix sometimes replaced:
    equality must still follow (family, rank, raise_dims) alone."""
    values = [getattr(draw(st.sampled_from(SYSTEMS)), f) for f in RS_FIELDS]
    if draw(flag):
        values[RS_FIELDS.index("gram")] = ((0,),)
    return tuple(values)


@st.composite
def weyl_elements(draw):
    rs = draw(st.sampled_from(SYSTEMS))
    w = draw(st.integers(0, len(weyl_group(rs)) - 1))
    word = tuple(draw(st.lists(st.integers(0, rs.rank - 1), max_size=2)))
    return rs, w, word  # the word is unrelated to the id on purpose


elements = weyl_elements().map(lambda args: WeylElement(*args))
orbits = st.tuples(name, small, small, small, small, flag,
                   st.none() | st.just(((1, 0),)) | st.just(((0, 1),)))
cells = st.tuples(st.sampled_from(["U", "A", "TU"]),
                  st.lists(name, min_size=1, max_size=3).map(tuple))
violations = st.tuples(st.sampled_from(["open-orbit", "cell-U-dim"]), name, name)
braid_violations = st.tuples(small, small, st.sampled_from([2, 3]), name)
datum_fields = st.sampled_from(DATA).flatmap(lambda d: st.tuples(
    st.just(d.root_system), st.just(d.orbits), st.just(d.cells),
    st.sampled_from([(), ("note",)])))
words = st.lists(small, max_size=2).map(tuple)
subgroups = st.tuples(st.frozensets(small, max_size=2),
                      st.frozensets(words, max_size=2))


@st.composite
def module_fields(draw):
    module = build_module(draw(st.sampled_from(DATA)))
    columns = module.columns
    if draw(flag):
        columns = {a: tuple(reversed(col)) for a, col in columns.items()}
    return module.datum, columns


CASES = {
    "RootSystem": (RootSystem, RefRootSystem, root_system_fields()),
    "WeylElement": (WeylElement, RefWeylElement, weyl_elements()),
    "Orbit": (Orbit, RefOrbit, orbits),
    "RaiseCell": (RaiseCell, RefRaiseCell, cells),
    "Violation": (Violation, RefViolation, violations),
    "ValidationReport": (ValidationReport, RefValidationReport, st.tuples(
        st.lists(violations.map(lambda v: Violation(*v)), max_size=2).map(tuple))),
    "OrbitDatum": (OrbitDatum, RefOrbitDatum, datum_fields),
    "BraidViolation": (BraidViolation, RefBraidViolation, braid_violations),
    "SubgroupDescription": (SubgroupDescription, RefSubgroupDescription, subgroups),
    "GeneratorTheoremResult": (GeneratorTheoremResult, RefGeneratorTheoremResult, st.tuples(
        flag, st.lists(words, max_size=2).map(tuple),
        subgroups.map(lambda s: SubgroupDescription(*s)), small)),
    "HeckeModule": (HeckeModule, RefHeckeModule, module_fields()),
    "RegularRepReport": (RegularRepReport, RefRegularRepReport, st.tuples(
        flag, small, small, small,
        st.lists(braid_violations.map(lambda v: BraidViolation(*v)), max_size=1).map(tuple))),
    "MatGroupSpec": (MatGroupSpec, RefMatGroupSpec, st.tuples(
        name, st.sampled_from(["A1", "A2"]), st.sampled_from([5, 7]), st.just(2),
        gens, gens, gens, st.sampled_from([{}, {1: (((1, 0), (0, 1)),)}]))),
    "OrbitInfo": (OrbitInfo, RefOrbitInfo, st.tuples(name, small)),
    "OracleReport": (OracleReport, RefOracleReport, st.tuples(
        name, st.just("A1"), st.sampled_from([5, 7]), small, small, small,
        st.lists(st.tuples(name, small).map(lambda o: OrbitInfo(*o)), max_size=2).map(tuple),
        st.sampled_from([{}, {1: ((0, 1),)}, {1: ((0,), (1,))}]))),
    "InferredDatum": (InferredDatum, RefInferredDatum, st.tuples(
        st.none() | st.sampled_from(DATA), names,
        st.sampled_from([(), (("o1", ((5, 20), (7, 42))),)]),
        st.sampled_from([(), (("o1", (1, 1, Fraction(1))),)]))),
    "CompareReport": (CompareReport, RefCompareReport, st.tuples(flag, names)),
}


def _hash(x):
    try:
        return hash(x)
    except TypeError:
        return TypeError


@pytest.mark.parametrize("type_name", sorted(CASES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_value_semantics_match_the_dataclass_reference(type_name, data):
    new, ref, fields = CASES[type_name]
    a, b = data.draw(fields), data.draw(fields)
    for x, y in ((a, b), (a, a), (b, a)):
        assert (new(*x) == new(*y)) == (ref(*x) == ref(*y))
        assert (new(*x) != new(*y)) == (ref(*x) != ref(*y))
        assert _hash(new(*x)) == _hash(ref(*x))
    obj, reference = new(*a), ref(*a)
    names_ = [field.name for field in dataclasses.fields(ref)]
    assert [getattr(obj, n) for n in names_] == [getattr(reference, n) for n in names_]
    if not ref.__dataclass_params__.frozen:  # OrbitDatum was and stays mutable
        obj.notes = reference.notes = ("changed",)
        return
    for n in names_:
        with pytest.raises(AttributeError):
            setattr(obj, n, getattr(obj, n))
        with pytest.raises(AttributeError):
            delattr(obj, n)
    with pytest.raises(AttributeError):
        obj.extra = 1


def test_root_system_and_weyl_element_compare_by_key_and_matrix():
    rs = build_root_system("B2")
    fields = [getattr(rs, f) for f in RS_FIELDS]
    assert RootSystem(*fields) == rs and hash(RootSystem(*fields)) == hash(rs)
    assert rs != build_root_system("B2", raise_dims=[2, 1])
    s = simple_element(rs, 0)
    assert WeylElement(rs, s.id, (0, 0, 0)) == s
    assert hash(WeylElement(rs, s.id, ())) == hash(s)
    # the two systems share one group, so the same id is not the same element
    other = build_root_system("B2", raise_dims=[2, 1])
    assert WeylElement(other, s.id, (0,)) != s
    assert simple_element(other, 0) != s and WeylElement(other, 0, ()) != WeylElement(rs, 0, ())
    # handles are equal exactly when their matrices are
    elements = [WeylElement(rs, w, ()) for w in range(len(weyl_group(rs)))]
    assert all((a == b) == (element_matrix(a) == element_matrix(b))
               for a in elements for b in elements)


def test_records_are_named_tuples_with_replace():
    orbit = Orbit("y", 1, 0, 0, 0, open=True)
    assert orbit == ("y", 1, 0, 0, 0, True, None)  # a NamedTuple equals its plain tuple
    assert orbit._replace(dim=2).dim == 2 and orbit.dim == 1
    cell = RaiseCell("U", ("y", "z"))
    assert cell._replace(members=("y", "w")).members == ("y", "w") and cell.y == "y"
    for name_ in DATUM_NAMES:
        d = bundled_datum(name_)
        copy = OrbitDatum(d.root_system, tuple(o._replace() for o in d.orbits), d.cells, d.notes)
        assert copy == d and build_module(copy) == build_module(d)
