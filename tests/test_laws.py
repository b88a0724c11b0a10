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
    raaa,
    replace,
    replace_matrix,
    scalar_mul,
    serialize,
    set_double,
    set_single,
    set_triple,
    single,
    sub,
    triple,
    zero,
)
from antiassoc._oracle import Leaf, Node, naive_mul, normalize
from antiassoc.access import d1, d2, dc, s1, sc, t1, t2, t3, tc
from antiassoc.checks import random_rational_element

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


NAMES = st.one_of(SYMS, st.text(max_size=3))


@given(
    st.dictionaries(st.tuples(NAMES), coeffs, max_size=3),
    st.dictionaries(st.tuples(NAMES, NAMES), coeffs, max_size=3),
    st.dictionaries(st.tuples(NAMES, NAMES, NAMES), coeffs, max_size=3),
)
def test_every_directly_constructed_element_round_trips(singles, doubles, triples):
    try:
        e = AaaElement(singles, doubles, triples)
    except InvalidSymbolError:
        return
    assert parse(serialize(e)) == e


def _assert_clean(r):
    """``r`` holds the invariants that the checked constructor establishes."""
    assert AaaElement(r.singles, r.doubles, r.triples) == r
    for degree, m in enumerate((r.singles, r.doubles, r.triples), 1):
        for key, c in m.items():
            assert type(key) is tuple and len(key) == degree
            assert c != 0
            assert type(c) is int or (type(c) is Fraction and c.denominator != 1)


mixed_elements = st.one_of(elements, st.integers(0, 2**64 - 1).map(random_rational_element))
trusted_contexts = st.sampled_from(
    [AlgebraContext(k) for k in (-1, 0, 1, 2, Fraction(1, 2))]
)


@given(mixed_elements, mixed_elements, coeffs, trusted_contexts, st.lists(_key(2), max_size=4))
def test_internal_results_hold_the_invariants(u, v, c, ctx, rows):
    sel = KeySelector(s1=["a", "foo"], d1=[r[0] for r in rows], d2=[r[1] for r in rows])
    results = [
        add(u, v), sub(u, v), sub(u, u), neg(u), scalar_mul(c, u), mul(ctx, u, v),
        single(u), double(u), triple(u),
        set_single(u, single(v)), set_double(u, double(v)), set_triple(u, 0),
        extract(u, sel), replace(u, sel, c), replace(u, sel, 0),
        extract_matrix(u, rows), replace_matrix(u, rows, c),
        parse(serialize(u)), zero(),
    ]
    for r in results:
        _assert_clean(r)


@given(st.integers(0, 2**64 - 1))
def test_raaa_results_hold_the_invariants(seed):
    _assert_clean(raaa(seed))
    _assert_clean(raaa(seed, n1=20, n2=20, n3=20, coeff_range=(1, 1)))


def test_integral_results_are_ints():
    a, two_a = from_symbols(["a"]), parse("+2a")
    cases = [
        (scalar_mul(Fraction(1, 2), two_a), ("a",)),
        (add(parse("+1/2a"), parse("+1/2a")), ("a",)),
        (parse("+4/2a"), ("a",)),
        (mul(AlgebraContext(Fraction(1, 2)), a, parse("+2b.c")), ("a", "b", "c")),
        (mul(AlgebraContext(), parse("+3/2a"), parse("+2/3b")), ("a", "b")),
        (naive_mul(Fraction(1, 2), a, parse("+2b.c")), ("a", "b", "c")),
    ]
    for r, key in cases:
        _assert_clean(r)
        assert type(r.terms()[0][1]) is int and r.terms()[0][0] == key


# Each entry (key, c, n) gives a key two nonzero coefficients, c and n - c, whose sum n is an int.
split_terms = st.lists(
    st.tuples(_key(2), coeffs.filter(bool), st.integers(-2, 2)).filter(lambda t: t[1] != t[2]),
    max_size=6,
)


@given(mixed_elements, mixed_elements, trusted_contexts, split_terms)
def test_fraction_arithmetic_yields_clean_coefficients(u, v, ctx, terms):
    pairs = [(key, c) for key, c, n in terms] + [(key, n - c) for key, c, n in terms]
    text = " ".join(serialize(make_element(d1=[i], d2=[j], dc=[c])) for (i, j), c in pairs)
    results = [
        naive_mul(ctx.k, u, v),
        scalar_mul(2, u),
        make_element(
            d1=[i for (i, _), _ in pairs], d2=[j for (_, j), _ in pairs], dc=[c for _, c in pairs]
        ),
        parse(text) if text else zero(),
    ]
    for r in results:
        _assert_clean(r)


def test_integral_sums_and_literals_are_ints():
    cases = [
        parse("+1/2a +1/2a"),
        parse("+4/2a"),
        make_element(s1=["a", "a"], sc=["1/2", "1/2"]),
        normalize(Fraction(1, 2), Node(Leaf("a"), Node(Leaf("b"), Leaf("c"))), 2),
    ]
    for r in cases:
        _assert_clean(r)
        assert type(r.terms()[0][1]) is int


def _render_term_by_term(e):
    """Reference rendering: each term's sign, then ``n`` or ``n/d``, then its key."""
    out = []
    for key, coeff in e.terms():
        sign = "-" if coeff < 0 else "+"
        mag = abs(coeff)
        num, den = mag.numerator, mag.denominator
        magnitude = str(num) if den == 1 else f"{num}/{den}"
        if len(key) == 1:
            rendered_key = key[0]
        elif len(key) == 2:
            rendered_key = f"{key[0]}.{key[1]}"
        else:
            rendered_key = f"({key[0]}.{key[1]}){key[2]}"
        out.append(f"{sign}{magnitude}{rendered_key}")
    return " ".join(out) if out else "0"


@given(mixed_elements, coeffs, st.fractions())
def test_serialize_matches_term_by_term_rendering(e, c, big):
    for x in (e, scalar_mul(c, e), scalar_mul(big, e)):
        assert serialize(x) == _render_term_by_term(x)


# Symbols where one begins another, so '.' and ')' in a key's text meet symbol characters.
PREFIX_SYMS = st.sampled_from(["a", "aa", "a_", "a0", "a9", "A", "Z", "_", "_a", "b"])
prefix_elements = st.builds(
    AaaElement,
    *(st.dictionaries(st.tuples(*[PREFIX_SYMS] * w), coeffs, max_size=12) for w in (1, 2, 3)),
)


@given(prefix_elements)
def test_text_order_is_tuple_order_on_prefix_heavy_symbols(e):
    assert serialize(e) == _render_term_by_term(e)
    assert parse(serialize(e)) == e
