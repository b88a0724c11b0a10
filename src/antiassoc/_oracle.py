"""Brute-force multiplication by tree rewriting. Verification only.

Products of basis terms are kept literally as binary trees of symbols.
:func:`normalize` left-combs a tree with the rewrite ``x(yz) -> K*(xy)z``
and sends anything of degree four or more to zero; :func:`naive_mul`
multiplies two elements term pair by term pair this way.  It is the
slow, structurally independent cross-check for the product in
:mod:`antiassoc.core` and is not part of the public API.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Union

from .core import AaaElement, TermKey, _build, as_coeff, check_symbol, zero

__all__ = ["Leaf", "Node", "Tree", "normalize", "naive_mul"]


class Leaf(NamedTuple):
    name: str


class Node(NamedTuple):
    left: "Tree"
    right: "Tree"


Tree = Union[Leaf, Node]


def _combed(tree: Tree) -> tuple[Optional[TermKey], int]:
    """Left-comb a tree.

    Returns (key, n) where n is the number of rewrite applications the
    combing needed (each contributes one factor of K), or (None, 0) for
    trees of degree four or more, which vanish.  The trees of one to
    three leaves are the four shapes x, xy, (xy)z and x(yz).
    """
    if isinstance(tree, Leaf):
        return (tree.name,), 0
    left, right = tree
    if isinstance(left, Leaf):
        if isinstance(right, Leaf):
            return (left.name, right.name), 0
        if isinstance(right.left, Leaf) and isinstance(right.right, Leaf):
            return (left.name, right.left.name, right.right.name), 1
    elif isinstance(right, Leaf) and isinstance(left.left, Leaf) and isinstance(left.right, Leaf):
        return (left.left.name, left.right.name, right.name), 0
    return None, 0


def normalize(k: object, tree: Tree, coeff: object = 1) -> AaaElement:
    """The element a signed tree denotes under associativity constant ``k``."""
    key, power = _combed(tree)
    if key is None:
        return zero()
    key = tuple(map(check_symbol, key))
    return _build([(key, as_coeff(as_coeff(coeff) * as_coeff(k) ** power))])


def _term_tree(key: TermKey) -> Tree:
    tree = Leaf(key[0])
    for name in key[1:]:  # a basis key is left-combed: x, xy or (xy)z
        tree = Node(tree, Leaf(name))
    return tree


def naive_mul(k: object, a: AaaElement, b: AaaElement) -> AaaElement:
    """Product computed term pair by term pair through tree rewriting."""
    k = as_coeff(k)
    a_trees = [(_term_tree(key), len(key), coeff) for key, coeff in a.terms()]
    b_trees = [(_term_tree(key), len(key), coeff) for key, coeff in b.terms()]
    # A pair whose degrees sum to 4 or more is one that _combed sends to zero: skip it.
    pairs = ((ta, tb, ca * cb) for ta, da, ca in a_trees for tb, db, cb in b_trees if da + db < 4)
    combed = ((_combed(Node(ta, tb)), c) for ta, tb, c in pairs)
    return _build((key, as_coeff(c * k**power)) for (key, power), c in combed if key is not None)
