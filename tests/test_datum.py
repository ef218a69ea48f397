"""Datum layer: flag generation, validation, lattices, serialization, DOT."""

from __future__ import annotations

import copy
import functools
import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylorb.bundled import (
    DATUM_NAMES,
    ORACLE_SPEC_NAMES,
    bundled_datum,
    datum_text,
    oracle_spec_text,
)
from weylorb.coxeter import build_root_system, enumerate_group, word_name
from weylorb.datum import (
    KINDS,
    DatumFormatError,
    Orbit,
    OrbitDatum,
    RaiseCell,
    check_lattices,
    datum_from_obj,
    datum_to_obj,
    dumps,
    export_dot,
    generate_flag_datum,
    lattice_rank,
    loads,
    validate,
)
from weylorb.action import braid_check
from weylorb.hecke import build_module, check_module

from references import (
    DEFECTIVE_CASES,
    FLAG_TOKENS,
    LEGACY_ROLES,
    element_matrix,
    legacy_cell,
    legacy_export_dot,
    line_raises,
    mat_apply,
    overlapping_cells,
    packed_columns,
    reference_check_lattices,
    reference_columns,
    reference_datum_from_obj,
    reference_involutions,
    reference_validate,
)


def rank1_datum(kind: str, with_lattices: bool = False) -> OrbitDatum:
    """A hand-built valid rank-1 datum of the requested cell kind."""
    rs = build_root_system("A", 1)
    latt = {
        "y": ((1,),) if with_lattices else None,
        "z": ((0,),) if with_lattices else None,
    }
    if kind == "U":
        orbits = (Orbit("y", 2, 0, 1, 0, open=True,
                        lattice=((1,),) if with_lattices else None),
                  Orbit("z", 1, 0, 1, 0,
                        lattice=((1,),) if with_lattices else None))
        cells = {1: (RaiseCell("U", ("y", "z")),)}
    elif kind == "TU":
        orbits = (Orbit("y", 3, 0, 1, 0, open=True, lattice=latt["y"]),
                  Orbit("z1", 2, 0, 0, 0, lattice=latt["z"]),
                  Orbit("z2", 1, 0, 0, 0, lattice=latt["z"]))
        cells = {1: (RaiseCell("TU", ("y", "z1", "z2")),)}
    elif kind == "A":
        orbits = (Orbit("y", 2, 0, 0, 1, open=True, lattice=None),)
        cells = {1: (RaiseCell("A", ("y",)),)}
    elif kind == "RT":
        orbits = (Orbit("y", 2, 0, 1, 0, open=True, lattice=latt["y"]),
                  Orbit("z1", 1, 0, 0, 0, lattice=latt["z"]),
                  Orbit("z2", 1, 0, 0, 0, lattice=latt["z"]))
        cells = {1: (RaiseCell("RT", ("y", "z1", "z2")),)}
    elif kind in ("RI", "N"):
        orbits = (Orbit("y", 2, 0, 1, 0, open=True, lattice=latt["y"]),
                  Orbit("z", 1, 0, 0, 0, lattice=latt["z"]))
        cells = {1: (RaiseCell(kind, ("y", "z")),)}
    else:
        raise AssertionError(kind)
    return OrbitDatum(root_system=rs, orbits=orbits, cells=cells)


def with_orbit(d: OrbitDatum, orbit_id: str, **changes) -> OrbitDatum:
    orbits = tuple(o._replace(**changes) if o.id == orbit_id else o
                   for o in d.orbits)
    return OrbitDatum(d.root_system, orbits, dict(d.cells), d.notes)


# -- flag data ---------------------------------------------------------------

def test_flag_a2_shape():
    d = generate_flag_datum(build_root_system("A", 2))
    assert len(d.orbits) == 6
    assert sorted(o.dim for o in d.orbits) == [0, 1, 1, 2, 2, 3]
    assert d.open_orbit().dim == 3
    for alpha in (1, 2):
        cells = d.cells[alpha]
        assert len(cells) == 3
        assert all(c.kind == "U" for c in cells)
    assert validate(d).ok


def test_flag_a1_raise_dim_three():
    d = generate_flag_datum(build_root_system("A", 1, raise_dims=[3]))
    assert sorted(o.dim for o in d.orbits) == [0, 3]
    assert validate(d).ok


def test_flag_bc2():
    d = generate_flag_datum(build_root_system("BC", 2))
    assert len(d.orbits) == 8
    assert d.open_orbit().dim == 4
    assert validate(d).ok


def test_flag_orbit_count_matches_group():
    for token in ("A1", "A2", "A3", "B2", "BC2", "G2", "A1xA1"):
        d = generate_flag_datum(build_root_system(token))
        expected = {"A1": 2, "A2": 6, "A3": 24, "B2": 8, "BC2": 8,
                    "G2": 12, "A1xA1": 4}[token]
        assert len(d.orbits) == expected
        assert validate(d).ok


def test_rank6_flag_data_are_reachable():
    # |W(B6)| = 2^6 6! and |W(D6)| = 2^5 6!; the open orbit is the longest
    # element, whose dim with unit raise dims is the 36 positive roots of B6
    b6 = generate_flag_datum(build_root_system("B6"))
    assert len(b6.orbits) == 46080
    assert [o.dim for o in b6.orbits if o.open] == [36]
    d6 = generate_flag_datum(build_root_system("D6"))
    assert len(d6.orbits) == 23040
    assert validate(d6).ok


def inversion_line_dims(rs) -> dict[str, int]:
    """dim(w) as the sum of raise dims over the positive lines w negates."""
    raises = line_raises(rs)
    mats = {word_name(w.word): element_matrix(w) for w in enumerate_group(rs)}
    return {name: sum(raises[line] for line in rs.positive_lines
                      if all(x <= 0 for x in mat_apply(m, line)))
            for name, m in mats.items()}


def seeded_dims(classes: list[list[int]], seed: int) -> list[int]:
    """One random raise dim per class of conjugate simple roots (1-based)."""
    rng = random.Random(seed)
    dims = [0] * sum(len(c) for c in classes)
    for cls in classes:
        n = rng.randint(1, 9)
        for i in cls:
            dims[i - 1] = n
    return dims


@pytest.mark.parametrize("token,dims", [
    *[(t, None) for t in ("A1", "A2", "A3", "B2", "BC2", "G2", "A1xA1")],
    ("BC3", seeded_dims([[1, 2], [3]], 1)),
    ("G2", seeded_dims([[1], [2]], 2)),
    ("F4", seeded_dims([[1, 2], [3, 4]], 3)),
    ("B2xG2", seeded_dims([[1], [2], [3], [4]], 4)),
], ids=str)
def test_flag_dims_are_inversion_line_sums(token, dims):
    rs = build_root_system(token, raise_dims=dims)
    d = generate_flag_datum(rs)
    assert {o.id: o.dim for o in d.orbits} == inversion_line_dims(rs)


def test_flag_ids_are_canonical_words():
    d = generate_flag_datum(build_root_system("A", 2))
    ids = set(d.orbit_ids())
    assert "e" in ids
    assert {"1", "2"} <= ids
    assert d.orbit("e").dim == 0


# -- sigma -------------------------------------------------------------------

def test_sigma_table():
    assert rank1_datum("U").sigma(1, "y") == "z"
    assert rank1_datum("U").sigma(1, "z") == "y"
    tu = rank1_datum("TU")
    assert tu.sigma(1, "y") == "y"
    assert tu.sigma(1, "z1") == "z2"
    assert tu.sigma(1, "z2") == "z1"
    assert rank1_datum("A").sigma(1, "y") == "y"
    rt = rank1_datum("RT")
    assert rt.sigma(1, "y") == "y"
    assert rt.sigma(1, "z1") == "z2"
    for kind in ("RI", "N"):
        d = rank1_datum(kind)
        assert d.sigma(1, "y") == "y"
        assert d.sigma(1, "z") == "z"


def test_sigma_is_involution_and_preserves_invariants():
    for kind in ("U", "TU", "A", "RT", "RI", "N"):
        d = rank1_datum(kind)
        for o in d.orbits:
            image = d.sigma(1, o.id)
            assert d.sigma(1, image) == o.id
            im = d.orbit(image)
            assert im.rk == o.rk
            assert im.c == o.c
            assert im.s == o.s


def test_sigma_unknown_orbit():
    with pytest.raises(DatumFormatError):
        rank1_datum("U").sigma(1, "nope")


# -- sigma's cell rule: one statement, three readers -------------------------


def assert_sigma_rule_matches_reference(d: OrbitDatum) -> None:
    """sigma and the Hecke columns agree with the per-kind branches of
    tests/references.py, refusals included: where the alpha-cells do not
    partition the orbits both refuse, naming one orbit with one text.  The
    lattice checks, which read each cell on its own, agree on every datum."""
    assert outcome(getattr, d, "involutions") == outcome(reference_involutions, d)
    assert (outcome(lambda: packed_columns(build_module(d)))
            == outcome(reference_columns, d))
    assert outcome(check_lattices, d) == outcome(reference_check_lattices, d)


SIGMA_RULE_CASES = ([bundled_datum(name) for name in DATUM_NAMES] + DEFECTIVE_CASES
                    + [generate_flag_datum(build_root_system(token, raise_dims=dims))
                       for token, dims in [*((t, None) for t in FLAG_TOKENS),
                                           ("BC2", [2, 1]), ("G2", [1, 3])]])


@pytest.mark.parametrize("d", SIGMA_RULE_CASES, ids=lambda d: d.root_system.to_text())
def test_sigma_rule_matches_reference(d):
    assert_sigma_rule_matches_reference(d)


@settings(max_examples=300, deadline=None)
@given(overlapping_cells())
def test_sigma_rule_matches_reference_on_overlapping_cells(d):
    assert_sigma_rule_matches_reference(d)


@settings(max_examples=300, deadline=None)
@given(overlapping_cells())
def test_sigma_readers_refuse_exactly_the_partition_defects(d):
    """d.involutions, braid_check and check_module refuse exactly when
    validate reports a partition-defect, and name an orbit that the
    violation for that simple root lists."""
    listed = {(v.where, oid) for v in validate(d).violations if v.code == "partition-defect"
              for oid in v.message.split(": ", 1)[1].split(", ")}
    for read in (functools.partial(getattr, d, "involutions"), functools.partial(braid_check, d),
                 functools.partial(check_module, d)):
        try:
            read()
        except DatumFormatError as exc:
            m = re.fullmatch(r"orbit '(\w)' is (?:not covered by any cell|named [2-9] times "
                             r"by the cells) for alpha (\d)", str(exc))
            assert m and (f"alpha {m[2]}", m[1]) in listed, str(exc)
        else:
            assert not listed


@pytest.mark.parametrize("cell,refusal,checks", [
    # y is also z1: the cell's image reads ids and sends q to r, so the
    # lattice check of q is (q, r) and no (q, q) check is made
    (RaiseCell("TU", ("q", "q", "r")), "orbit 'q' is named 2 times by the cells for alpha 1",
     ["q", "r"]),
    # z1 is z2: the cell's image fixes q, which is checked once
    (RaiseCell("RT", ("t", "q", "q")), "orbit 'r' is not covered by any cell for alpha 1",
     ["q", "q"]),
    (RaiseCell("N", ("q", "q")), "orbit 'r' is not covered by any cell for alpha 1",
     ["q", "q"]),
], ids=["TU-y-is-z1", "RT-z1-is-z2", "N-y-is-z"])
def test_cell_naming_an_orbit_twice_follows_sigma(cell, refusal, checks):
    """A cell naming one orbit in two roles is a partition defect: sigma
    and the Hecke module refuse it, naming the first orbit that the cells
    do not name once.  Its lattice checks follow the cell's own image,
    which reads ids: each pair (m, image(m)) is checked once."""
    lattice = {"q": ((0, 1),), "r": ((1, 0),), "t": ((1, 0),)}
    d = OrbitDatum(build_root_system("A2"), tuple(
        Orbit(oid, dim, 0, 0, 0, open=oid == "t", lattice=lattice[oid])
        for oid, dim in (("q", 2), ("r", 1), ("t", 3))), {1: (cell,)})
    for read in (functools.partial(d.sigma, 1, "t"), functools.partial(build_module, d)):
        with pytest.raises(DatumFormatError) as err:
            read()
        assert str(err.value) == refusal
    src, dst = checks
    assert [v.message for v in check_lattices(d).violations] == [
        f"s_alpha * span(Lambda({src})) != span(Lambda({dst}))"]


# -- validator ---------------------------------------------------------------

@pytest.mark.parametrize("kind", ["U", "TU", "A", "RT", "RI", "N"])
def test_rank1_data_valid(kind):
    assert validate(rank1_datum(kind)).ok
    assert check_lattices(rank1_datum(kind, with_lattices=True)).ok


def test_validate_two_open_orbits():
    d = with_orbit(rank1_datum("U"), "z", open=True)
    codes = {v.code for v in validate(d).violations}
    assert "open-orbit" in codes


def test_validate_open_not_strictly_max():
    d = with_orbit(rank1_datum("U"), "z", dim=2)
    codes = {v.code for v in validate(d).violations}
    assert "open-orbit" in codes or "cell-y-not-max" in codes


def test_validate_u_rank_mismatch():
    d = with_orbit(rank1_datum("U"), "z", rk=0)
    codes = {v.code for v in validate(d).violations}
    assert "cell-U-rank" in codes


def test_validate_u_s_mismatch():
    d = with_orbit(rank1_datum("U"), "z", s=1)
    codes = {v.code for v in validate(d).violations}
    assert "cell-U-s" in codes


def test_validate_u_dim_step():
    d = with_orbit(rank1_datum("U"), "z", dim=0)
    codes = {v.code for v in validate(d).violations}
    assert "cell-U-dim" in codes


def test_validate_tu_constraints():
    base = rank1_datum("TU")
    assert "cell-TU-rank" in {v.code for v in
                              validate(with_orbit(base, "z1", rk=1)).violations}
    assert "cell-TU-s" in {v.code for v in
                           validate(with_orbit(base, "z1", s=2)).violations}
    bad_dim = with_orbit(base, "z2", dim=2)
    assert "cell-TU-dim" in {v.code for v in validate(bad_dim).violations}


def test_validate_rt_constraints():
    base = rank1_datum("RT")
    assert "cell-RT-rank" in {v.code for v in
                              validate(with_orbit(base, "z2", rk=1)).violations}
    assert "cell-RT-dim" in {v.code for v in
                             validate(with_orbit(base, "z2", dim=0)).violations}


@pytest.mark.parametrize("kind", ["RI", "N"])
def test_validate_ri_n_rank_drop(kind):
    base = rank1_datum(kind)
    bad = with_orbit(base, "z", rk=1)
    assert f"cell-{kind}-rank" in {v.code for v in validate(bad).violations}


def test_validate_partition_defect():
    d = rank1_datum("U")
    broken = OrbitDatum(d.root_system, d.orbits,
                        {1: (RaiseCell("A", ("y",)),)})
    codes = {v.code for v in validate(broken).violations}
    assert "partition-defect" in codes
    double = OrbitDatum(d.root_system, d.orbits,
                        {1: (RaiseCell("U", ("y", "z")),
                             RaiseCell("A", ("z",)))})
    assert "partition-defect" in {v.code for v in validate(double).violations}


def test_validate_lex_dominance():
    d = with_orbit(rank1_datum("RT"), "z1", rk=2, s=0)
    codes = {v.code for v in validate(d).violations}
    assert "lex-dominance" in codes


def test_validate_complexity_bound():
    d = with_orbit(rank1_datum("RT"), "z1", c=1)
    codes = {v.code for v in validate(d).violations}
    assert "complexity" in codes
    assert "lex-dominance" in codes


def test_validate_lattice_rank():
    d = with_orbit(rank1_datum("U"), "y", lattice=((0,),))
    codes = {v.code for v in validate(d).violations}
    assert "lattice-rank" in codes


def test_validate_lattice_ambient():
    """validate never sees a lattice row of the wrong length: the datum
    refuses it at construction, naming the first such orbit in (dim, id)
    order."""
    for lattice in (((1, 0),), ((1,), ())):
        with pytest.raises(DatumFormatError, match=r"^orbit y: lattice ambient "
                                                   r"dimension differs from rank 1$"):
            with_orbit(rank1_datum("U"), "y", lattice=lattice)
    d = rank1_datum("U")
    with pytest.raises(DatumFormatError, match=r"^orbit z: "):  # dim 1, before y
        OrbitDatum(d.root_system, tuple(o._replace(lattice=((1, 0),)) for o in d.orbits),
                   d.cells)


def test_orbit_datum_refuses_a_cell_key_outside_the_rank():
    d = rank1_datum("U")
    for alpha in (0, 2):
        with pytest.raises(DatumFormatError, match=rf"^cells: simple root index {alpha} "
                                                   r"out of range 1\.\.1$"):
            OrbitDatum(d.root_system, d.orbits,
                       {**d.cells, alpha: (RaiseCell("A", ("y",)),)})


def test_orbit_datum_refuses_a_repeated_orbit_id():
    d = rank1_datum("U")  # y at dim 2, z at dim 1
    with pytest.raises(DatumFormatError, match=r"^duplicate orbit id 'z'$"):
        OrbitDatum(d.root_system, d.orbits + d.orbits[:1], d.cells)
    # the witness is the first orbit in (dim, id) order whose id an earlier
    # orbit has: y at dim 0 comes first, but z at dim 1 repeats first
    with pytest.raises(DatumFormatError, match=r"^duplicate orbit id 'z'$"):
        OrbitDatum(d.root_system, d.orbits * 2 + (d.orbits[-1]._replace(dim=0),), d.cells)


def test_orbit_datum_refuses_an_unknown_cell_member():
    d = rank1_datum("TU")
    with pytest.raises(DatumFormatError,
                       match=r"^alpha 1 cell y=y: unknown orbit id 'ghost'$"):
        OrbitDatum(d.root_system, d.orbits,
                   {1: (RaiseCell("TU", ("y", "z1", "ghost")),)})
    # a role left empty names no orbit either
    with pytest.raises(DatumFormatError, match=r"^alpha 1 cell y=y: unknown orbit id None$"):
        OrbitDatum(d.root_system, d.orbits, {1: (RaiseCell("U", ("y", None)),)})


@pytest.mark.parametrize("cell", [RaiseCell("U", ("y",)), RaiseCell("A", ()),
                                  RaiseCell("TU", ("y", "z1")), RaiseCell("Q", ("y", "z"))],
                         ids=["U-short", "A-empty", "TU-short", "unknown-kind"])
def test_orbit_datum_refuses_a_cell_that_does_not_fill_its_kind(cell):
    """A cell built in code with a member per role missing, or of a kind
    KINDS does not have, is refused before any layer reads it, naming the
    cell, and before every other structural rule."""
    d = rank1_datum("TU")
    message = rf"^alpha 2: {re.escape(repr(cell))} does not fill the roles of a kind in KINDS$"
    with pytest.raises(DatumFormatError, match=message):
        OrbitDatum(d.root_system, d.orbits * 2, {**d.cells, 2: (RaiseCell("A", ("y",)), cell)})


def test_lattice_rank_exact():
    assert lattice_rank(((1, 0), (0, 1))) == 2
    assert lattice_rank(((2, 4), (1, 2))) == 1
    assert lattice_rank(((0, 0),)) == 0


# -- lattice compatibility ---------------------------------------------------

def test_check_lattices_u_full_line_passes():
    d = with_orbit(with_orbit(rank1_datum("U"), "y", lattice=((1,),)),
                   "z", lattice=((1,),))
    assert check_lattices(d).ok


def test_check_lattices_u_span_mismatch_fails():
    rs = build_root_system("A1xA1")
    orbits = (Orbit("y", 3, 0, 1, 0, open=True, lattice=((1, 1),)),
              Orbit("z", 2, 0, 1, 0, lattice=((1, 1),)))
    cells = {1: (RaiseCell("U", ("y", "z")),),
             2: (RaiseCell("U", ("y", "z")),)}
    d = OrbitDatum(rs, orbits, cells)
    report = check_lattices(d)
    assert not report.ok
    assert {v.code for v in report.violations} == {"lattice-span-U"}
    # with the reflected line on z both cells pass
    good = with_orbit(d, "z", lattice=((1, -1),))
    assert check_lattices(good).ok


def test_check_lattices_ri_span_alpha_passes():
    rs = build_root_system("A", 1)
    orbits = (Orbit("y", 2, 0, 1, 0, open=True, lattice=((1,),)),
              Orbit("z", 1, 0, 1, 0, lattice=((1,),)))
    cells = {1: (RaiseCell("RI", ("y", "z")),)}
    report = check_lattices(OrbitDatum(rs, orbits, cells))
    assert report.ok  # spans only; validate would flag the rank rule


def test_check_lattices_partial_data_reported():
    d = with_orbit(rank1_datum("U", with_lattices=True), "z", lattice=None)
    report = check_lattices(d)
    assert "lattice-partial" in {v.code for v in report.violations}


def test_check_lattices_ambient_error():
    """check_lattices never sees a lattice row of the wrong length either:
    loads refuses it, naming the orbit."""
    obj = json.loads(dumps(rank1_datum("U")))
    obj["orbits"][0]["lattice"] = [[1, 2]]
    with pytest.raises(DatumFormatError, match=r"^orbit z: lattice ambient "
                                               r"dimension differs from rank 1$"):
        loads(json.dumps(obj))


def test_check_lattices_tu_swap_rule():
    rs = build_root_system("A1xA1")
    orbits = (Orbit("y", 3, 0, 1, 0, open=True, lattice=((1, 1),)),
              Orbit("z1", 2, 0, 0, 0, lattice=((1, 0),)),
              Orbit("z2", 1, 0, 0, 0, lattice=((-1, 0),)))
    cells = {1: (RaiseCell("TU", ("y", "z1", "z2")),),
             2: (RaiseCell("A", ("y",)), RaiseCell("A", ("z1",)),
                 RaiseCell("A", ("z2",)))}
    d = OrbitDatum(rs, orbits, cells)
    report = check_lattices(d)
    # s_1 fixes span(1,1)? s_1(1,1) = (-1,1): not the same line -> y rule fails
    assert "lattice-span-TU" in {v.code for v in report.violations}
    fixed = with_orbit(d, "y", lattice=((0, 1),))
    # s_1 fixes the beta line; z spans: s_1(1,0) = (-1,0), same line as z2
    assert check_lattices(fixed).ok


# -- serialization -----------------------------------------------------------

def test_round_trip_flag():
    d = generate_flag_datum(build_root_system("A", 2))
    assert loads(dumps(d)) == d


def test_round_trip_with_lattice_and_notes():
    d = rank1_datum("RT", with_lattices=True)
    d = OrbitDatum(d.root_system, d.orbits, dict(d.cells),
                   notes=("hand built", "for tests"))
    text = dumps(d)
    again = loads(text)
    assert again == d
    assert dumps(again) == text


def test_serialization_deterministic():
    d1 = generate_flag_datum(build_root_system("B", 2))
    d2 = generate_flag_datum(build_root_system("B", 2))
    assert dumps(d1) == dumps(d2)


def test_unknown_fields_rejected():
    d = rank1_datum("U")
    obj = json.loads(dumps(d))
    obj["extra"] = 1
    with pytest.raises(DatumFormatError, match="unknown field"):
        loads(json.dumps(obj))
    obj = json.loads(dumps(d))
    obj["orbits"][0]["color"] = "red"
    with pytest.raises(DatumFormatError, match="unknown field"):
        loads(json.dumps(obj))
    obj = json.loads(dumps(d))
    obj["cells"]["1"][0]["weight"] = 2
    with pytest.raises(DatumFormatError, match="unknown field"):
        loads(json.dumps(obj))


def test_repeated_simple_root_key_is_refused():
    obj = json.loads(dumps(rank1_datum("U")))
    one = obj["cells"]["1"]
    obj["cells"] = {"1": [{"kind": "U", "y": "y", "z": "y"}], "01": one}
    with pytest.raises(DatumFormatError,
                       match="cells: keys '1' and '01' both name simple root 1"):
        loads(json.dumps(obj))
    obj["cells"] = {"1": one, " 1": one}
    with pytest.raises(DatumFormatError, match="keys '1' and ' 1'"):
        loads(json.dumps(obj))
    obj["cells"] = {"01": one}  # one non-canonical key still loads
    assert loads(json.dumps(obj)) == rank1_datum("U")


def test_parse_errors():
    d = rank1_datum("U")
    obj = json.loads(dumps(d))
    obj["cells"]["1"][0]["z"] = "missing"
    with pytest.raises(DatumFormatError, match="unknown orbit id"):
        loads(json.dumps(obj))

    obj = json.loads(dumps(d))
    obj["orbits"][0]["dim"] = -1
    with pytest.raises(DatumFormatError, match="integer"):
        loads(json.dumps(obj))

    obj = json.loads(dumps(d))
    obj["orbits"].append(dict(obj["orbits"][0]))
    with pytest.raises(DatumFormatError, match="duplicate"):
        loads(json.dumps(obj))

    obj = json.loads(dumps(d))
    obj["cells"]["1"][0].pop("z")
    with pytest.raises(DatumFormatError, match="missing role"):
        loads(json.dumps(obj))

    obj = json.loads(dumps(d))
    obj["cells"]["1"][0]["kind"] = "Q"
    with pytest.raises(DatumFormatError, match="unknown kind"):
        loads(json.dumps(obj))

    obj = json.loads(dumps(d))
    obj["cells"]["7"] = obj["cells"].pop("1")
    with pytest.raises(DatumFormatError, match="out of range"):
        loads(json.dumps(obj))

    with pytest.raises(DatumFormatError, match="JSON"):
        loads("not json {")


def reference_dumps(d: OrbitDatum) -> str:
    """The layout dumps writes from templates, by the json module."""
    return json.dumps(datum_to_obj(d), indent=2, sort_keys=True) + "\n"


# ids and notes with quotes, backslashes, control and non-ASCII characters
_TEXT = st.text(st.sampled_from('ab1.e"\\\n\x7fé€😀'), min_size=1, max_size=5)
_INT = st.integers(0, 10**6)
#: Lattices of ``rank``-long rows, the only length a datum accepts.
_lattice = functools.cache(lambda rank: st.none() | st.lists(
    st.lists(st.integers(-9, 9), min_size=rank, max_size=rank), max_size=3))


@st.composite
def _data(draw) -> OrbitDatum:
    rank = draw(st.sampled_from((1, 2, 10, 11)))
    ids = draw(st.lists(_TEXT, min_size=1, max_size=6, unique=True))
    orbits = [Orbit(oid, draw(_INT), draw(_INT), draw(_INT), draw(_INT),
                    open=draw(st.booleans()),
                    lattice=None if (lat := draw(_lattice(rank))) is None
                    else tuple(map(tuple, lat)))
              for oid in ids]
    cells = {}
    for alpha in draw(st.sets(st.integers(1, rank), max_size=4)):
        kinds = draw(st.lists(st.sampled_from(tuple(KINDS)), max_size=3))
        cells[alpha] = tuple(
            RaiseCell(kind, tuple(draw(st.sampled_from(ids)) for _ in KINDS[kind].roles))
            for kind in kinds)
    notes = tuple(draw(st.lists(_TEXT, max_size=2)))
    return OrbitDatum(_rank_a(rank), tuple(orbits), cells, notes)


_rank_a = functools.cache(lambda rank: build_root_system("A", rank))


@settings(max_examples=200, deadline=None)
@given(_data())
def test_dumps_matches_json_module(d):
    assert dumps(d) == reference_dumps(d)


def test_dumps_matches_json_module_on_every_producer():
    from weylorb.oracle import enumerate_orbits, infer_datum, spec_from_obj

    produced = [generate_flag_datum(build_root_system(token, raise_dims=dims))
                for token, dims in [("A1", None), ("A3", None), ("BC2", [2, 1]),
                                    ("G2", None), ("F4", None), ("B3xG2", None),
                                    ("B5", [2, 2, 2, 2, 3])]]
    produced += [bundled_datum(name) for name in DATUM_NAMES]
    runs = [(("torus", "torus"), "A1"), (("torus_normalizer",) * 2, "A1"),
            (("horospherical",) * 2, "A1"),
            (("product_diag_q5", "product_diag_q7"), "A1xA1")]
    assert {name for names, _ in runs for name in names} == set(ORACLE_SPEC_NAMES)
    for names, token in runs:
        reports = [enumerate_orbits(spec_from_obj(json.loads(oracle_spec_text(name)), q))
                   for name, q in zip(names, (5, 7))]
        produced.append(infer_datum(reports, build_root_system(token)).datum)
    assert all(d is not None for d in produced)
    for d in produced:
        assert dumps(d) == reference_dumps(d)


# -- DOT ---------------------------------------------------------------------

def test_export_dot_a2_counts():
    d = generate_flag_datum(build_root_system("A", 2))
    dot = export_dot(d)
    assert dot.count("[label=") == 6 + 6  # 6 nodes, 6 typed edges
    assert dot.count("->") == 6
    assert export_dot(d) == dot  # deterministic


def test_export_dot_kinds():
    rt = export_dot(rank1_datum("RT"))
    assert rt.count("->") == 2
    ri = export_dot(rank1_datum("RI"))
    assert "style=dotted" in ri
    a = export_dot(rank1_datum("A"))
    assert "// a1 A {y}" in a
    tu = export_dot(rank1_datum("TU"))
    assert '"y" -> "z1"' in tu and '"z1" -> "z2"' in tu


#: Cells of every kind over the ids y, z and w, an id repeated or not.
_CELLS = st.sampled_from(tuple(KINDS)).flatmap(lambda kind: st.builds(
    RaiseCell, st.just(kind), st.lists(st.sampled_from("yzw"), min_size=len(LEGACY_ROLES[kind]),
                                       max_size=len(LEGACY_ROLES[kind])).map(tuple)))


def assert_cell_matches_legacy(cell: RaiseCell) -> None:
    """The table-driven record against the per-role record and its kind
    branches: the members in role order and the sigma image of each."""
    legacy = legacy_cell(cell)
    assert KINDS[cell.kind].roles == LEGACY_ROLES[cell.kind]
    assert cell.members == legacy.members()
    assert [cell.image(m) for m in cell.members] == [legacy.image(m) for m in cell.members]


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=50, deadline=None)
@given(members=st.lists(st.sampled_from("yzw"), min_size=3, max_size=3))
def test_members_match_roles_reference(kind, members):
    assert_cell_matches_legacy(RaiseCell(kind, tuple(members[:len(KINDS[kind].roles)])))


_KIND_CASES = ([bundled_datum(name) for name in DATUM_NAMES]
               + [generate_flag_datum(build_root_system(t)) for t in ("A2", "B3", "G2")])


@pytest.mark.parametrize("d", _KIND_CASES, ids=lambda d: d.root_system.to_text())
def test_cells_and_dot_match_the_kind_branches(d):
    for cells in d.cells.values():
        for cell in cells:
            assert_cell_matches_legacy(cell)
    assert export_dot(d) == legacy_export_dot(d)


@settings(max_examples=200, deadline=None)
@given(st.lists(_CELLS, max_size=6), st.lists(_CELLS, max_size=6))
def test_cells_and_dot_match_the_kind_branches_on_drawn_cells(first, second):
    orbits = tuple(Orbit(oid, dim, 0, 0, 0, open=dim == 2)
                   for oid, dim in (("y", 2), ("z", 1), ("w", 0)))
    d = OrbitDatum(build_root_system("A2"), orbits, {1: tuple(first), 2: tuple(second)})
    for cell in first + second:
        assert_cell_matches_legacy(cell)
    assert export_dot(d) == legacy_export_dot(d)


def test_simple_roots_come_only_from_the_cell_keys():
    """A cell carries no simple root: the key it is filed under is its
    root, for sigma, validation, serialization and DOT alike."""
    assert RaiseCell._fields == ("kind", "members")
    d = bundled_datum("sl3_so12")
    swapped = OrbitDatum(d.root_system, d.orbits, {1: d.cells[2], 2: d.cells[1]})
    assert [swapped.involutions[a] for a in (1, 2)] == [d.involutions[a] for a in (2, 1)]
    obj = datum_to_obj(swapped)
    assert obj["cells"] == {"1": datum_to_obj(d)["cells"]["2"],
                            "2": datum_to_obj(d)["cells"]["1"]}
    assert loads(dumps(swapped)) == swapped
    assert "a1 " + d.cells[2][0].kind in export_dot(swapped)
    # the A1 datum of one U cell: the cell filed under 1 is sigma_1's, and
    # no other key can name a root of rank 1
    u = rank1_datum("U")
    assert u.sigma(1, "y") == "z" and datum_to_obj(u)["cells"].keys() == {"1"}
    with pytest.raises(DatumFormatError, match=r"^cells: simple root index 7 "):
        OrbitDatum(u.root_system, u.orbits, {7: u.cells[1]})


# -- malformed root systems --------------------------------------------------

@pytest.mark.parametrize("field,value,message", [
    ("raise_dims", [1.9], "raise_dims must be a list of integers >= 1"),
    ("raise_dims", [True], "raise_dims must be a list of integers >= 1"),
    ("raise_dims", 1, "raise_dims must be a list of integers >= 1"),
    ("raise_dims", "1", "raise_dims must be a list of integers >= 1"),
    ("rank", True, "rank must be an integer"),
    ("rank", 1.0, "rank must be an integer"),
    ("rank", "1", "rank must be an integer"),
    ("family", 5, "family must be a non-empty string"),
    ("family", None, "family must be a non-empty string"),
    # well typed but out of range: the root-system builder's own refusals
    ("raise_dims", [0], "raise dims must be >= 1"),
    ("family", "", "unknown family ''"),
])
def test_malformed_root_system_is_refused(field, value, message):
    obj = json.loads(dumps(rank1_datum("U")))
    obj["root_system"][field] = value
    with pytest.raises(DatumFormatError) as err:
        datum_from_obj(obj)
    assert str(err.value) == f"root_system: {message}"


def test_root_system_defaults_still_apply():
    obj = json.loads(dumps(rank1_datum("U")))
    del obj["root_system"]["raise_dims"]
    obj["root_system"].update(family="A1", rank=None)
    assert datum_from_obj(obj) == rank1_datum("U")


# -- the one-pass loader and validator against their per-field references ----

def outcome(f, *args, **kwargs):
    """f(*args, **kwargs), or the text of the DatumFormatError it raises."""
    try:
        return f(*args, **kwargs)
    except DatumFormatError as exc:
        return f"DatumFormatError: {exc}"


BUNDLED_OBJS = [json.loads(datum_text(name)) for name in DATUM_NAMES]
FLAG_OBJS = [datum_to_obj(generate_flag_datum(build_root_system(token, raise_dims=dims)))
             for token, dims in [*((t, None) for t in FLAG_TOKENS), ("BC2", [2, 1]),
                                 ("G2", [1, 3]), ("F4", [2, 2, 1, 1])]]


@pytest.mark.parametrize("obj", BUNDLED_OBJS + FLAG_OBJS,
                         ids=lambda obj: json.dumps(obj["root_system"]))
def test_loader_matches_reference(obj):
    got = datum_from_obj(obj)
    assert got == reference_datum_from_obj(obj)
    for o in got.orbits:
        assert type(o) is Orbit and o == Orbit(*o)
    for cells in got.cells.values():
        for c in cells:
            assert type(c) is RaiseCell and c == RaiseCell(*c) and c.members is c[1]


#: Values of every JSON type, ids of the rank-1 and flag data, and kinds.
_ODD = st.sampled_from([-1, 0, 1, 2, 1.5, True, False, None, "", "y", "z", "e", "1",
                        "U", "TU", "A", "RT", [], [1], [[1]], [[1.5]], [[True]],
                        {}, {"kind": "A"}])
_KEYS = st.sampled_from(["id", "dim", "c", "rk", "s", "open", "lattice", "kind", "y",
                         "z", "z1", "z2", "color"])


@st.composite
def mutated_records(draw):
    """A bundled or small flag datum object with one to three records
    mutated; root_system fields keep their JSON types."""
    def fresh(strategy):  # a drawn list or dict is shared by every example that draws it
        return copy.deepcopy(draw(strategy))

    obj = fresh(st.sampled_from(BUNDLED_OBJS + FLAG_OBJS[:7]))
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["orbit", "orbit-drop", "cell", "cell-drop", "record",
                                   "cells", "top", "root_system"]))
        orbits, cells = obj.get("orbits"), obj.get("cells")
        if op.startswith("orbit") and isinstance(orbits, list) and orbits:
            entry = orbits[draw(st.integers(0, len(orbits) - 1))]
            if not isinstance(entry, dict):
                continue
            if op == "orbit":
                entry[draw(_KEYS)] = fresh(_ODD)
            elif entry:
                entry.pop(draw(st.sampled_from(sorted(entry))))
        elif op in ("cell", "cell-drop") and isinstance(cells, dict) and cells:
            row = cells[draw(st.sampled_from(sorted(cells)))]
            if not isinstance(row, list) or not row:
                continue
            cell = row[draw(st.integers(0, len(row) - 1))]
            if not isinstance(cell, dict):
                continue
            if op == "cell":
                cell[draw(_KEYS)] = fresh(_ODD)
            elif cell:
                cell.pop(draw(st.sampled_from(sorted(cell))))
        elif op == "record" and isinstance(orbits, list) and isinstance(cells, dict):
            if draw(st.booleans()) or not cells:
                orbits.append(fresh(_ODD | st.sampled_from(orbits)) if orbits else fresh(_ODD))
            else:
                row = cells[draw(st.sampled_from(sorted(cells)))]
                if isinstance(row, list):
                    row.insert(draw(st.integers(0, len(row))), fresh(_ODD))
        elif op == "cells" and isinstance(cells, dict):
            cells[draw(st.sampled_from(["0", "1", "01", "2", "9", "x"]))] = fresh(
                _ODD | st.just([{"kind": "A", "y": "y"}]))
        elif op == "top":
            key = draw(st.sampled_from(["root_system", "orbits", "cells", "notes", "extra"]))
            if draw(st.booleans()):
                obj.pop(key, None)
            else:
                obj[key] = fresh(_ODD | st.just(["a note"]))
        elif op == "root_system" and isinstance(obj.get("root_system"), dict):
            field, value = fresh(st.sampled_from([
                ("family", "A"), ("family", "A2"), ("family", "Q"), ("family", ""),
                ("rank", 1), ("rank", 2), ("rank", 0), ("raise_dims", []),
                ("raise_dims", [1, 1]), ("raise_dims", [0]), ("raise_dims", [2]),
                ("extra", 1)]))
            obj["root_system"][field] = value
    return obj


@settings(max_examples=500, deadline=None)
@given(mutated_records())
def test_loader_matches_reference_on_mutated_records(obj):
    assert outcome(datum_from_obj, obj) == outcome(reference_datum_from_obj, obj)


def with_extra_cell(d: OrbitDatum) -> OrbitDatum:
    """d with one more alpha-1 cell, a U cell from its last orbit to its
    first, so that alpha 1 covers both orbits once more."""
    cells = dict(d.cells)
    cells[1] = cells.get(1, ()) + (RaiseCell("U", (d.orbits[-1].id, d.orbits[0].id)),)
    return OrbitDatum(d.root_system, d.orbits, cells, d.notes)


VALIDATE_CASES = ([bundled_datum(name) for name in DATUM_NAMES]
                  + [datum_from_obj(obj) for obj in FLAG_OBJS] + DEFECTIVE_CASES
                  + [rank1_datum(kind, with_lattices=True) for kind in KINDS]
                  + [with_orbit(rank1_datum("TU"), "z1", rk=1, s=2, dim=0),
                     with_orbit(rank1_datum("RT", with_lattices=True), "z2", rk=1, dim=0),
                     with_orbit(rank1_datum("U", with_lattices=True), "z", lattice=None),
                     with_orbit(rank1_datum("U", with_lattices=True), "y", lattice=((0,),)),
                     with_extra_cell(rank1_datum("N")),
                     with_extra_cell(generate_flag_datum(build_root_system("A2")))])


def assert_validators_match_reference(d: OrbitDatum) -> None:
    assert validate(d) == reference_validate(d)
    assert outcome(check_lattices, d) == outcome(reference_check_lattices, d)


@pytest.mark.parametrize("d", VALIDATE_CASES, ids=lambda d: d.root_system.to_text())
def test_validators_match_reference(d):
    assert_validators_match_reference(d)


@settings(max_examples=300, deadline=None)
@given(_data(), st.booleans())
def test_validators_match_reference_on_random_data(d, extra):
    assert_validators_match_reference(with_extra_cell(d) if extra else d)
