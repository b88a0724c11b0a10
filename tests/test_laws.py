"""Property-based checks of the algebra laws."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from antiassoc import (
    AaaElement,
    AlgebraContext,
    InvalidSymbolError,
    KeySelector,
    add,
    double,
    from_symbols,
    extract,
    extract_matrix,
    make_element,
    mul,
    neg,
    parse,
    scalar_mul,
    serialize,
    single,
    sub,
    triple,
    zero,
)
from antiassoc._oracle import naive_mul
from antiassoc.access import d1, d2, dc, s1, sc, t1, t2, t3, tc

SYMS = st.sampled_from(["a", "b", "c", "d", "foo"])
coeffs = st.one_of(
    st.integers(min_value=-6, max_value=6),
    st.fractions(min_value=-3, max_value=3, max_denominator=8),
)


def _key(width):
    return st.tuples(*([SYMS] * width))


elements = st.builds(
    AaaElement,
    st.dictionaries(_key(1), coeffs, max_size=4),
    st.dictionaries(_key(2), coeffs, max_size=4),
    st.dictionaries(_key(3), coeffs, max_size=4),
)

contexts = st.sampled_from(
    [
        AlgebraContext(),
        AlgebraContext(1),
        AlgebraContext(2),
        AlgebraContext(Fraction(-3, 2)),
        AlgebraContext(0),
    ]
)


@given(elements, elements, elements, contexts)
def test_distributivity_both_sides(u, v, w, ctx):
    assert mul(ctx, u, add(v, w)) == add(mul(ctx, u, v), mul(ctx, u, w))
    assert mul(ctx, add(u, v), w) == add(mul(ctx, u, w), mul(ctx, v, w))


@given(coeffs, coeffs, elements, elements, contexts)
def test_bilinear_compatibility(a, b, u, v, ctx):
    lhs = mul(ctx, scalar_mul(a, u), scalar_mul(b, v))
    assert lhs == scalar_mul(Fraction(a) * Fraction(b), mul(ctx, u, v))


@given(elements, elements, elements)
def test_antiassociativity_at_default_k(u, v, w):
    assert u * (v * w) == neg((u * v) * w)


@given(elements, elements, elements, contexts)
def test_generalized_triple_product_law(u, v, w, ctx):
    assert mul(ctx, u, mul(ctx, v, w)) == scalar_mul(ctx.k, mul(ctx, mul(ctx, u, v), w))


@given(elements, elements, elements, elements, contexts)
def test_nilpotency_of_degree_four_products(a, b, c, d, ctx):
    assert mul(ctx, mul(ctx, mul(ctx, a, b), c), d) == zero()
    assert mul(ctx, mul(ctx, a, b), mul(ctx, c, d)) == zero()


@given(elements, elements, elements)
def test_collapse_identity(a, b, x):
    assert (a + a * x) * (b + x * b) == a * b


@given(elements, elements, contexts)
def test_mul_never_produces_singles(u, v, ctx):
    assert not mul(ctx, u, v).singles


@given(elements, elements)
def test_linear_ops_preserve_degrees(u, v):
    for result in (add(u, v), sub(u, v), neg(u), scalar_mul(3, u)):
        assert set(result.singles) <= set(u.singles) | set(v.singles)
        assert set(result.doubles) <= set(u.doubles) | set(v.doubles)
        assert set(result.triples) <= set(u.triples) | set(v.triples)


@given(elements, elements, contexts)
def test_no_zero_coefficients_survive(u, v, ctx):
    for result in (add(u, v), sub(u, v), mul(ctx, u, v), scalar_mul(2, u)):
        for maps in (result.singles, result.doubles, result.triples):
            assert all(maps.values())


@given(elements)
def test_degree_split_reassembles(e):
    assert single(e) + double(e) + triple(e) == e


@given(elements)
def test_column_views_rebuild_element(e):
    rebuilt = make_element(
        s1=s1(e), sc=sc(e), d1=d1(e), d2=d2(e), dc=dc(e),
        t1=t1(e), t2=t2(e), t3=t3(e), tc=tc(e),
    )
    assert rebuilt == e


@given(elements)
def test_round_trip_through_text(e):
    assert parse(serialize(e)) == e


@given(st.text())
def test_every_accepted_symbol_round_trips(name):
    try:
        e = from_symbols([name])
    except InvalidSymbolError:
        return
    assert parse(serialize(e)) == e


@given(elements)
def test_serialize_after_parse_is_fixed_point(e):
    text = serialize(e)
    assert serialize(parse(text)) == text


@given(elements, st.lists(_key(2), max_size=5))
def test_keyed_and_matrix_selection_agree(e, rows):
    sel = KeySelector(d1=[r[0] for r in rows], d2=[r[1] for r in rows])
    assert extract(e, sel) == extract_matrix(e, rows)


@settings(max_examples=50)
@given(elements, elements, contexts)
def test_structured_product_matches_tree_rewriting(u, v, ctx):
    assert mul(ctx, u, v) == naive_mul(ctx.k, u, v)
