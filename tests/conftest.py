"""Shared fixtures: the worked-example elements used across test modules."""

import gc

import pytest

from antiassoc import from_symbols, make_element, parse

# Canonical strings for the worked examples exercised throughout the suite.
X_TEXT = "+1p +1q +1r"
X1_TEXT = "-1p +5r +6x"
Y_TEXT = "+1a.foo +2b.bar +3c.baz"
Z_TEXT = "+5(bar.q)foo +6(bar.r)foo +7(bar.s)bar"
X_PLUS_X1_TEXT = "+1q +6r +6x"
PRODUCT_TEXT = (
    "-1p.p +5p.r +6p.x -1q.p +5q.r +6q.x -1r.p +5r.r +6r.x "
    "-1(p.a)foo -2(p.b)bar -3(p.c)baz -1(q.a)foo -2(q.b)bar -3(q.c)baz "
    "-1(r.a)foo -2(r.b)bar -3(r.c)baz"
)

SPLIT_TEXT = "+4a +2b +2a.a +2c.c +2d.d +2(b.d)d +1(c.d)a +4(d.b)c"
SPLIT_SINGLE = "+4a +2b"
SPLIT_DOUBLE = "+2a.a +2c.c +2d.d"
SPLIT_TRIPLE = "+2(b.d)d +1(c.d)a +4(d.b)c"
SPLIT_NO_SINGLE = "+2a.a +2c.c +2d.d +2(b.d)d +1(c.d)a +4(d.b)c"
B_DOUBLE_TEXT = "+1b.d +2c.b +2c.d"
SPLIT_SWAPPED_DOUBLE = "+1000b.d +2000c.b +2000c.d +2(b.d)d +1(c.d)a +4(d.b)c"

KEYED_EXTRACT_SRC = (
    "+4a +3b +6c +3b.c +1b.d +2c.c +3d.a +2d.c "
    "+2(a.d)d +3(b.a)a +4(b.b)c +1(c.d)d +3(d.c)b"
)
KEYED_EXTRACT_OUT = "+6c +1(c.d)d"
KEYED_REPLACE_SRC = (
    "+8a +2b +2c +1a.b +4a.c +3b.c +4c.c "
    "+2(a.c)c +4(b.c)a +4(b.c)d +1(c.d)d +3(d.c)a"
)
KEYED_REPLACE_OUT = (
    "+888a +2b +2c +1a.b +4a.c +3b.c +4c.c +888c.d +888w.w "
    "+2(a.c)c +4(b.c)a +4(b.c)d +1(c.d)d +3(d.c)a"
)

MATRIX_SRC = "+1a +2b +3c +3a.c +2b.b +1c.a +1(a.a)c +2(b.b)b +3(c.c)a"
MATRIX_EXTRACT_OUT = "+2b.b"
MATRIX_REPLACE_OUT = (
    "+1a +2b +3c +3a.c +2b.b +1c.a +1(a.a)c +88(a.c)c +88(b.b)b +88(c.a)a +3(c.c)a"
)

COLUMNS_TEXT = "+3b +4c +1d +3a.c +2a.d +4d.a +1(a.a)d +1(a.b)d +3(d.d)a"

SAMPLE_RANDOM_TEXT = "+1a +3b +2d +3a.b +1c.b +1c.c +1(a.b)a +1(b.b)c +1(b.c)a"

CANONICAL_FIXTURES = [
    X_TEXT,
    X1_TEXT,
    Y_TEXT,
    Z_TEXT,
    X_PLUS_X1_TEXT,
    PRODUCT_TEXT,
    SPLIT_TEXT,
    SPLIT_SINGLE,
    SPLIT_DOUBLE,
    SPLIT_TRIPLE,
    SPLIT_NO_SINGLE,
    B_DOUBLE_TEXT,
    SPLIT_SWAPPED_DOUBLE,
    KEYED_EXTRACT_SRC,
    KEYED_EXTRACT_OUT,
    KEYED_REPLACE_SRC,
    KEYED_REPLACE_OUT,
    MATRIX_SRC,
    MATRIX_EXTRACT_OUT,
    MATRIX_REPLACE_OUT,
    COLUMNS_TEXT,
    SAMPLE_RANDOM_TEXT,
    "0",
    "+1/2a -7/3b.b +2(a.b)foo",
]


def build_x():
    return from_symbols(["p", "q", "r"])


def build_x1():
    return make_element(s1=["p", "r", "x"], sc=[-1, 5, 6])


def build_y():
    return make_element(d1=["a", "b", "c"], d2=["foo", "bar", "baz"], dc=[1, 2, 3])


def build_z():
    return make_element(
        t1=["bar", "bar", "bar"],
        t2=["q", "r", "s"],
        t3=["foo", "foo", "bar"],
        tc=[5, 6, 7],
    )


@pytest.fixture
def x():
    return build_x()


@pytest.fixture
def x1():
    return build_x1()


@pytest.fixture
def y():
    return build_y()


@pytest.fixture
def z():
    return build_z()


@pytest.fixture
def split_element():
    return parse(SPLIT_TEXT)


@pytest.fixture(autouse=True)
def collector_left_on():
    """Fail a test that ends with the cyclic garbage collector off.

    ``cli.main`` turns it off while a command runs; a broken restore would
    otherwise run the rest of the suite without it.
    """
    yield
    if not gc.isenabled():
        gc.enable()
        pytest.fail("the test left the cyclic garbage collector off")
