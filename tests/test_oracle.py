from fractions import Fraction

import pytest

from antiassoc import (
    DEFAULT_CONTEXT,
    AaaElement,
    AlgebraContext,
    InvalidSymbolError,
    mul,
    parse,
    serialize,
    zero,
)
from antiassoc._oracle import Leaf, Node, naive_mul, normalize
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

    def test_trees_of_four_or_five_leaves_vanish(self):
        four = _all_trees(list("abcd"))
        assert len(four) == 5
        five = Node(Leaf("e"), Node(Node(Leaf("a"), Leaf("b")), Node(Leaf("c"), Leaf("d"))))
        for tree in four + [five]:
            assert normalize(-1, tree) == zero()

    def test_generator_triple_against_mul(self):
        a, b, c = (parse(f"+1{n}") for n in "abc")
        assert naive_mul(-1, a, mul(DEFAULT_CONTEXT, b, c)) == mul(
            DEFAULT_CONTEXT, a, mul(DEFAULT_CONTEXT, b, c)
        )


def _restricted_growth_strings(n):
    """Every set partition of n positions, each as its restricted growth string."""
    strings = [()]
    for _ in range(n):
        strings = [s + (b,) for s in strings for b in range(max(s, default=-1) + 2)]
    return strings


def _basis(key):
    """The basis term with this key and coefficient 1."""
    return AaaElement(*({key: 1} if len(key) == degree else {} for degree in (1, 2, 3)))


class TestBasisProducts:
    def test_mul_matches_oracle_on_every_basis_pair(self):
        """``mul`` agrees with the oracle on every pair of basis terms, up to renaming.

        Both products are bilinear, so agreeing on every pair of basis terms
        is agreeing on every pair of elements.  Neither looks at a symbol
        except to compare it with another, so a pair of keys of degrees p and
        q needs checking once per equality pattern among its p+q symbols: a
        set partition, named here by a restricted growth string.  That gives
        the sum of Bell(p+q) over p, q in {1, 2, 3}: 364 pairs.  Each basis
        product is c*K**e with e in {0, 1}, so two values of K already settle
        every rational K; five also catch a product of degree up to 4 in K.
        Sums, and cancellation between their terms, are still covered by the
        sampled suites.
        """
        pairs = 0
        for p in (1, 2, 3):
            for q in (1, 2, 3):
                for rgs in _restricted_growth_strings(p + q):
                    names = tuple("abcdef"[i] for i in rgs)
                    u, v = _basis(names[:p]), _basis(names[p:])
                    for k in (-1, 0, 1, 2, Fraction(1, 2)):
                        assert mul(AlgebraContext(k), u, v) == naive_mul(k, u, v), (k, names)
                    pairs += 1
        assert pairs == 364
