from fractions import Fraction

import pytest

from antiassoc import (
    DEFAULT_CONTEXT,
    AlgebraContext,
    InvalidSymbolError,
    mul,
    parse,
    serialize,
    zero,
)
from antiassoc._oracle import Leaf, Node, degree, naive_mul, normalize
from antiassoc.rng import SplitMix64, raaa
from conftest import PRODUCT_TEXT, build_x, build_x1, build_y


def leaves(*names):
    return [Leaf(n) for n in names]


class TestNormalize:
    def test_leaf(self):
        assert serialize(normalize(-1, Leaf("a"))) == "+1a"

    def test_pair(self):
        a, b = leaves("a", "b")
        assert serialize(normalize(-1, Node(a, b))) == "+1a.b"

    def test_right_comb_rewrites_with_sign(self):
        a, b, c = leaves("a", "b", "c")
        assert serialize(normalize(-1, Node(a, Node(b, c)))) == "-1(a.b)c"
        assert serialize(normalize(2, Node(a, Node(b, c)))) == "+2(a.b)c"

    def test_left_comb_unchanged(self):
        a, b, c = leaves("a", "b", "c")
        assert serialize(normalize(-1, Node(Node(a, b), c))) == "+1(a.b)c"

    def test_degree_four_vanishes(self):
        a, b, c, d = leaves("a", "b", "c", "d")
        assert normalize(-1, Node(Node(a, b), Node(c, d))) == zero()
        assert normalize(1, Node(Node(Node(a, b), c), d)) == zero()

    def test_carried_coefficient(self):
        a, b, c = leaves("a", "b", "c")
        out = normalize(-1, Node(a, Node(b, c)), coeff=Fraction(3, 2))
        assert serialize(out) == "-3/2(a.b)c"

    def test_bad_leaf_name_rejected(self):
        with pytest.raises(InvalidSymbolError):
            normalize(-1, Node(Leaf("a.b"), Leaf("c")))


def _all_trees(names):
    if len(names) == 1:
        return [Leaf(names[0])]
    out = []
    for i in range(1, len(names)):
        for left in _all_trees(names[:i]):
            for right in _all_trees(names[i:]):
                out.append(Node(left, right))
    return out


def _single_steps(tree):
    """Every tree reachable by one application of x(yz) -> (xy)z."""
    if isinstance(tree, Leaf):
        return []
    out = []
    if isinstance(tree.right, Node):
        out.append(Node(Node(tree.left, tree.right.left), tree.right.right))
    out.extend(Node(sub, tree.right) for sub in _single_steps(tree.left))
    out.extend(Node(tree.left, sub) for sub in _single_steps(tree.right))
    return out


class TestConfluence:
    @pytest.mark.parametrize("k", [-1, 1, 2, Fraction(-3, 2)])
    @pytest.mark.parametrize("size", [1, 2, 3, 4, 5])
    def test_rewrite_order_is_irrelevant(self, k, size):
        names = list("abcde")[:size]
        for tree in _all_trees(names):
            # explore every complete rewrite sequence; each step costs one k
            results = set()
            stack = [(tree, 0)]
            while stack:
                current, power = stack.pop()
                steps = _single_steps(current)
                if not steps:
                    value = normalize(k, current, coeff=Fraction(k) ** power)
                    results.add(serialize(value))
                else:
                    stack.extend((nxt, power + 1) for nxt in steps)
            assert len(results) == 1
            assert results == {serialize(normalize(k, tree))}


class TestNaiveMul:
    def test_worked_product(self):
        x, x1, y = build_x(), build_x1(), build_y()
        assert serialize(naive_mul(-1, x, x1 + y)) == PRODUCT_TEXT

    def test_zero_absorbs(self):
        u = raaa(5)
        assert naive_mul(-1, u, zero()) == zero()
        assert naive_mul(-1, zero(), u) == zero()

    @pytest.mark.parametrize("k", [-1, 1, 2, Fraction(-3, 2), 0])
    def test_matches_structured_product(self, k):
        ctx = AlgebraContext(k)
        seeds = SplitMix64(2024)
        for _ in range(200):
            u = raaa(seeds.next_u64())
            v = raaa(seeds.next_u64())
            assert naive_mul(k, u, v) == mul(ctx, u, v)

    def test_degree_counts(self):
        tree = Node(Node(Leaf("a"), Leaf("b")), Node(Leaf("c"), Leaf("d")))
        assert degree(tree) == 4

    def test_generator_triple_against_mul(self):
        a, b, c = (parse(f"+1{n}") for n in "abc")
        assert naive_mul(-1, a, mul(DEFAULT_CONTEXT, b, c)) == mul(
            DEFAULT_CONTEXT, a, mul(DEFAULT_CONTEXT, b, c)
        )
