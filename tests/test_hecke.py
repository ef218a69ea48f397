"""Mod-2 Hecke module: involutivity, braid relations, leading terms."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylorb.bundled import DATUM_NAMES, bundled_datum
from weylorb.coxeter import build_root_system, enumerate_group
from weylorb.datum import (
    DatumFormatError,
    Orbit,
    OrbitDatum,
    RaiseCell,
    generate_flag_datum,
)
from weylorb.hecke import (
    HeckeError,
    HeckeModule,
    _image,
    _span_dimension,
    apply,
    braid_check_module,
    build_module,
    check_module,
    leading_term,
    verify_regular_representation,
)

from references import (
    DEFECTIVE_CASES,
    FLAG_TOKENS,
    apply_word,
    braid_breaker,
    overlapping_cells,
    packed,
    packed_columns,
    packed_image,
    packed_leading_position,
    packed_regular_representation,
    packed_span_dimension,
    packed_step_braid_violations,
    packed_terms,
    reference_check_module,
    reference_hecke_json,
    reference_hecke_text,
)

ALL_DATA = [bundled_datum(name) for name in DATUM_NAMES]


def every_datum():
    out = list(ALL_DATA)
    out.extend(generate_flag_datum(build_root_system(t)) for t in FLAG_TOKENS)
    return out


@pytest.mark.parametrize("d", every_datum(), ids=lambda d: d.root_system.to_text())
def test_operators_are_involutions(d):
    m = build_module(d)
    for alpha in m.columns:
        for oid in m.basis:
            v = m.unit(oid)
            assert apply(m, alpha, apply(m, alpha, v)) == v


@pytest.mark.parametrize("d", every_datum(), ids=lambda d: d.root_system.to_text())
def test_module_braid_relations_hold(d):
    assert braid_check_module(build_module(d)) == []


@pytest.mark.parametrize("d", every_datum(), ids=lambda d: d.root_system.to_text())
def test_leading_term_is_sigma(d):
    m = build_module(d)
    for alpha in m.columns:
        for oid in m.basis:
            assert leading_term(m, alpha, oid) == d.sigma(alpha, oid)


def test_columns_have_at_most_three_terms():
    for d in every_datum():
        m = build_module(d)
        for alpha in m.columns:
            for col in m.columns[alpha]:
                assert 1 <= len(col) <= 3


def test_tu_column_shape():
    d = bundled_datum("rank1_tu")
    m = build_module(d)
    assert m.terms(apply(m, 1, m.unit("y"))) == ["y"]
    assert sorted(m.terms(apply(m, 1, m.unit("z1")))) == ["y", "z2"]
    assert sorted(m.terms(apply(m, 1, m.unit("z2")))) == ["y", "z1"]


def test_u_column_swaps():
    d = bundled_datum("rank1_u")
    m = build_module(d)
    assert m.terms(apply(m, 1, m.unit("y"))) == ["z"]
    assert m.terms(apply(m, 1, m.unit("z"))) == ["y"]


def test_identity_kinds_give_identity_columns():
    for name in ("rank1_a", "rank1_ri", "rank1_n"):
        m = build_module(bundled_datum(name))
        for oid in m.basis:
            assert apply(m, 1, m.unit(oid)) == m.unit(oid)


def test_apply_word_composes_rightmost_first():
    d = bundled_datum("sl3_so12")
    m = build_module(d)
    v = m.unit("z")
    lhs = apply_word(m, (1, 2), v)
    rhs = apply(m, 1, apply(m, 2, v))
    assert lhs == rhs


def test_apply_is_linear():
    d = bundled_datum("sl3_so12")
    m = build_module(d)
    v = m.unit("x") ^ m.unit("z")
    assert apply(m, 1, v) == apply(m, 1, m.unit("x")) ^ apply(m, 1, m.unit("z"))


def test_leading_term_tie_raises():
    rs = build_root_system("A", 1)
    orbits = (Orbit("y", 2, 0, 1, 0, open=True),
              Orbit("z1", 1, 0, 0, 0),
              Orbit("z2", 1, 0, 0, 0))
    cells = {1: (RaiseCell("TU", ("y", "z1", "z2")),)}
    d = OrbitDatum(rs, orbits, cells)
    m = build_module(d)
    # column of z1 is [y] + [z2] with dim y == 2 > dim z2: fine
    assert leading_term(m, 1, "z1") == "z2"
    # corrupt: pull y down to the z level so the two terms tie
    bad = OrbitDatum(rs, (Orbit("y", 1, 0, 1, 0, open=True),
                          Orbit("z1", 1, 0, 0, 0),
                          Orbit("z2", 1, 0, 0, 0)), cells)
    mbad = build_module(bad)
    with pytest.raises(HeckeError, match="leading-term tie"):
        leading_term(mbad, 1, "z1")


@pytest.mark.parametrize("token,order", [("A1", 2), ("A2", 6), ("A3", 24),
                                         ("B2", 8), ("BC2", 8), ("G2", 12),
                                         ("A1xA1", 4), ("F4", 1152), ("B4", 384)])
def test_flag_regular_representation(token, order):
    d = generate_flag_datum(build_root_system(token))
    report = verify_regular_representation(build_module(d))
    assert report.ok
    assert report.group_order == order
    assert report.distinct_images == order
    assert report.span_dimension == order
    assert report.braid_violations == ()


def test_regular_rep_images_are_basis_vectors():
    rs = build_root_system("A", 2)
    d = generate_flag_datum(rs)
    m = build_module(d)
    seen = set()
    for w in enumerate_group(rs):
        vec = apply_word(m, tuple(a + 1 for a in w.word), m.unit("e"))
        assert len(vec) == 1
        seen.add(vec)
    assert len(seen) == 6


def test_regular_rep_requires_identity_orbit():
    with pytest.raises(HeckeError, match="identity orbit"):
        verify_regular_representation(build_module(bundled_datum("sl3_so12")))


def test_non_regular_module_reported():
    # sl3 has 4 orbits but |W| = 6, so a span check on a relabeled datum
    # with an "e" orbit must come out not regular
    d = bundled_datum("sl3_so12")
    relabel = {"x": "e", "y1": "y1", "y2": "y2", "z": "z"}
    orbits = tuple(Orbit(relabel[o.id], o.dim, o.c, o.rk, o.s, open=o.open,
                         lattice=o.lattice) for o in d.orbits)

    def fix(cell):
        return RaiseCell(cell.kind, tuple(relabel[m] for m in cell.members))

    cells = {a: tuple(fix(c) for c in cs) for a, cs in d.cells.items()}
    d2 = OrbitDatum(d.root_system, orbits, cells)
    report = verify_regular_representation(build_module(d2))
    assert not report.ok
    assert report.group_order == 6
    assert report.span_dimension <= 4
    # weylorb hecke's report carries it and prints the verdict
    full = check_module(d2)
    assert full.regular == report
    assert "NOT regular" in "".join(full.render_text())


def test_hecke_braid_violation_has_witness():
    rs = build_root_system("A1xA1")
    orbits = (Orbit("p", 3, 0, 0, 0, open=True),
              Orbit("q", 2, 0, 0, 0),
              Orbit("r", 1, 0, 0, 0))
    cells = {1: (RaiseCell("U", ("p", "q")), RaiseCell("A", ("r",))),
             2: (RaiseCell("U", ("q", "r")), RaiseCell("A", ("p",)))}
    m = build_module(OrbitDatum(rs, orbits, cells))
    violations = braid_check_module(m)
    assert len(violations) == 1
    assert (violations[0].alpha, violations[0].beta) == (1, 2)
    assert "hecke-braid" in violations[0].line()


# -- the kernels against packed-int references --------------------------------

def apply_reference(columns, alpha, vec):
    """T_alpha on packed ints by shifting the vector one bit at a time."""
    out = 0
    i = 0
    while vec:
        if vec & 1:
            out ^= columns[alpha][i]
        vec >>= 1
        i += 1
    return out


def terms_reference(module, vec):
    return [oid for i, oid in enumerate(module.basis) if vec >> i & 1]


def span_dimension_reference(vectors):
    """F2 rank of packed vectors by reducing each against every pivot in turn."""
    pivots = []
    for v in vectors:
        for p in pivots:
            v = min(v, v ^ p)
        if v:
            pivots.append(v)
    return len(pivots)


RANDOM_MODULE_BASES = {t: build_module(generate_flag_datum(build_root_system(t)))
                       for t in ("A1", "A3", "B3", "F4")}


def random_vector(rng, n):
    """About half of the n basis positions."""
    bits = rng.getrandbits(n)
    return frozenset(i for i in range(n) if bits >> i & 1)


@st.composite
def random_module_and_vector(draw):
    """A flag module and a vector that includes positions near the top of
    the basis; the columns at the vector's positions are random and dense,
    the rest are the identity's."""
    m = RANDOM_MODULE_BASES[draw(st.sampled_from(sorted(RANDOM_MODULE_BASES)))]
    n = len(m.basis)
    low = draw(st.sets(st.integers(0, n - 1), max_size=12))
    high = draw(st.sets(st.integers(max(0, n - 3), n - 1), max_size=3))
    vec = frozenset(low | high)
    rng = random.Random(draw(st.integers(0, 2**32)))
    m = HeckeModule(m.datum, {
        a: tuple(random_vector(rng, n) if i in vec else frozenset((i,)) for i in range(n))
        for a in m.columns})
    return m, vec


@settings(max_examples=120, deadline=None)
@given(random_module_and_vector())
def test_apply_and_terms_match_bitwise_reference(case):
    m, vec = case
    columns = packed_columns(m)
    assert m.terms(vec) == terms_reference(m, packed(vec)) == packed_terms(m.basis, packed(vec))
    for alpha in m.columns:
        image = packed(apply(m, alpha, vec))
        assert image == apply_reference(columns, alpha, packed(vec))
        assert image == packed_image(columns[alpha], packed(vec))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.lists(st.frozensets(st.integers(0, n - 1)), min_size=n, max_size=n),
    st.frozensets(st.integers(0, n - 1), max_size=1) | st.frozensets(st.integers(0, n - 1)))))
def test_image_is_the_xor_fold_of_its_columns(case):
    """The one-position path returns the column itself: the fold's vector."""
    col, vec = case
    fold = frozenset()
    for i in vec:
        fold = fold ^ col[i]
    assert _image(col, vec) == fold


def test_index_and_unit_follow_basis_order():
    m = RANDOM_MODULE_BASES["B3"]
    for i, oid in enumerate(m.basis):
        assert m.index(oid) == i
        assert packed(m.unit(oid)) == 1 << i
        assert m.terms(m.unit(oid)) == [oid]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 90), st.lists(st.integers(0, 2**90), max_size=40),
       st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39)), max_size=10))
def test_span_dimension_matches_reference(size, bits, pairs):
    vectors = [frozenset(i for i in range(size) if b >> i & 1) for b in bits]
    # append sums of earlier vectors so that dependent inputs occur
    for i, j in pairs:
        if i < len(vectors) and j < len(vectors):
            vectors.append(vectors[i] ^ vectors[j])
    vectors.append(frozenset((size - 1,)))
    ints = list(map(packed, vectors))
    assert _span_dimension(vectors) == span_dimension_reference(ints)
    assert _span_dimension(vectors) == packed_span_dimension(ints)


# -- the table paths against the step-by-step and per-word references -------

def reference_braid_check_module(module):
    return packed_step_braid_violations(module.datum.root_system, module.basis,
                                        packed_columns(module))


def reference_regular_representation(module):
    return packed_regular_representation(module.datum.root_system, module.basis,
                                         packed_columns(module))


def reference_leading_term(module, columns, dims, alpha, i):
    return module.basis[packed_leading_position(module.basis, dims, alpha, columns[alpha], i)]


def leading_outcome(f, *args):
    try:
        return f(*args)
    except HeckeError as exc:
        return str(exc)


def with_identity(d: OrbitDatum, oid: str) -> OrbitDatum:
    """d with orbit oid renamed "e", so the regular-representation check runs."""
    def name(x):
        return "e" if x == oid else x
    cells = {a: tuple(c._replace(members=tuple(map(name, c.members))) for c in cs)
             for a, cs in d.cells.items()}
    return OrbitDatum(d.root_system, tuple(o._replace(id=name(o.id)) for o in d.orbits),
                      cells)


def dense_modules():
    """Flag modules with random dense columns: neither involutions nor braided."""
    rng = random.Random(5)
    return [HeckeModule(m.datum, {a: tuple(random_vector(rng, len(m.basis)) for _ in m.basis)
                                  for a in m.columns})
            for t, m in sorted(RANDOM_MODULE_BASES.items()) if t != "F4"]


def table_module(d: OrbitDatum) -> HeckeModule:
    """build_module(d); on data whose cells do not partition the orbits,
    which it refuses, random dense columns over d's basis."""
    try:
        return build_module(d)
    except DatumFormatError:
        rng = random.Random(6)
        return HeckeModule(d, {alpha: tuple(random_vector(rng, len(d.orbits)) for _ in d.orbits)
                               for alpha in range(1, d.root_system.rank + 1)})


TABLE_CASES = ([table_module(d) for d in every_datum() + DEFECTIVE_CASES]
               + [build_module(generate_flag_datum(build_root_system("F4")))]
               + [build_module(with_identity(braid_breaker(), "r"))] + dense_modules())


@pytest.mark.parametrize("module", TABLE_CASES, ids=lambda m: m.datum.root_system.to_text())
def test_module_braid_check_matches_step_reference(module):
    assert braid_check_module(module) == reference_braid_check_module(module)


@pytest.mark.parametrize("module", [m for m in TABLE_CASES if "e" in m.basis],
                         ids=lambda m: m.datum.root_system.to_text())
def test_regular_representation_matches_per_word_reference(module):
    report = verify_regular_representation(module)
    assert report == reference_regular_representation(module)


def test_braid_violating_module_is_not_regular():
    report = verify_regular_representation(build_module(with_identity(braid_breaker(), "r")))
    assert report.braid_violations and not report.ok


@pytest.mark.parametrize("module", TABLE_CASES, ids=lambda m: m.datum.root_system.to_text())
def test_leading_term_matches_reference(module):
    columns = packed_columns(module)
    dims = [module.datum.orbit(oid).dim for oid in module.basis]
    for alpha in module.columns:
        for i, oid in enumerate(module.basis):
            assert (leading_outcome(leading_term, module, alpha, oid)
                    == leading_outcome(reference_leading_term, module, columns, dims,
                                       alpha, i))


# -- weylorb hecke's report against the packed-int module ---------------------

def check_module_outcome(f, d):
    """The report's text and JSON, or the type and text of what it raised."""
    try:
        report = f(d)
    except (DatumFormatError, HeckeError) as exc:
        return type(exc), str(exc)
    return report, "".join(report.render_text()), "".join(report.render_json())


@pytest.mark.parametrize("d", every_datum() + DEFECTIVE_CASES,
                         ids=lambda d: d.root_system.to_text())
def test_check_module_matches_packed_reference(d):
    assert (check_module_outcome(check_module, d)
            == check_module_outcome(reference_check_module, d))


@settings(max_examples=200, deadline=None)
@given(overlapping_cells())
def test_check_module_matches_packed_reference_on_overlapping_cells(d):
    assert (check_module_outcome(check_module, d)
            == check_module_outcome(reference_check_module, d))


@settings(max_examples=200, deadline=None)
@given(overlapping_cells())
def test_accepted_cells_give_involutive_columns_led_by_sigma(d):
    """The facts check_module takes from involutions: on cells that it
    accepts, T_alpha^2 = 1 on every column, and a one-term column is
    [sigma_alpha(i)]."""
    try:
        sigma = d.involutions
    except DatumFormatError:
        return
    m = build_module(d)
    for alpha, col in m.columns.items():
        for i, v in enumerate(col):
            assert apply(m, alpha, v) == {i}
            assert len(v) == 2 or v == {sigma[alpha][i]}


def assert_report_renders_as_the_reference(d):
    """render_text() and render_json() render the columns as they walk them, with
    the bytes of the report built whole and passed to json.dumps."""
    try:
        report = check_module(d)
    except (DatumFormatError, HeckeError):  # the cells are no partition: no report
        return
    assert "".join(report.render_text()) == reference_hecke_text(report)
    assert "".join(report.render_json()) == reference_hecke_json(report)


@pytest.mark.parametrize("d", every_datum() + DEFECTIVE_CASES + [
    # rank 10: json.dumps sorts the column keys as strings, "10" before "2"
    generate_flag_datum(build_root_system("x".join(["A1"] * 10)))],
                         ids=lambda d: d.root_system.to_text())
def test_report_renders_as_the_reference(d):
    assert_report_renders_as_the_reference(d)


@settings(max_examples=200, deadline=None)
@given(overlapping_cells())
def test_report_renders_as_the_reference_on_overlapping_cells(d):
    assert_report_renders_as_the_reference(d)
