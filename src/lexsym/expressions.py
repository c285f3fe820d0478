"""Symbolic group expressions over graph-symmetry leaves.

Expression trees combine quantum leaves with free wreath and free product
operators.  Serialization is canonical (prefix notation, deterministic
child order), so expression strings can be used as golden values in
reports and tests.  A tree also prints as its classical shadow, the same
tree read term by term as S(n), Aut(g) and the wreath product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

from .graphs import Graph
from .formats import content_hash, write_graph
from .groups import aut_order

GroupExpr = Union["SPlus", "QutLeaf", "FreeWreath", "FreeProd", "Indeterminate"]


@dataclass(frozen=True)
class SPlus:
    """The quantum symmetric group on n points."""
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("SPlus needs n >= 1")


@dataclass(frozen=True)
class QutLeaf:
    graph: Graph


@dataclass(frozen=True)
class FreeWreath:
    """Free wreath product: `inner` wreathed by `outer`."""
    inner: GroupExpr
    outer: GroupExpr


@dataclass(frozen=True)
class FreeProd:
    children: tuple[GroupExpr, ...]

    def __post_init__(self) -> None:
        if len(self.children) < 2:
            raise ValueError("FreeProd needs at least two children")


@dataclass(frozen=True)
class Indeterminate:
    reason: str


def serialize(e: GroupExpr) -> str:
    if isinstance(e, SPlus):
        return f"S+({e.n})"
    if isinstance(e, QutLeaf):
        return f"Qut(#{content_hash(e.graph)})"
    if isinstance(e, FreeWreath):
        return f"FreeWreath({serialize(e.inner)},{serialize(e.outer)})"
    if isinstance(e, FreeProd):
        return "FreeProd(" + ",".join(serialize(c) for c in e.children) + ")"
    if isinstance(e, Indeterminate):
        return f"Indeterminate({e.reason})"
    raise TypeError(f"not a group expression: {e!r}")


def to_tree(e: GroupExpr) -> dict:
    """JSON-friendly tree; graph leaves are embedded by hash and text."""
    if isinstance(e, SPlus):
        return {"kind": "SPlus", "n": e.n}
    if isinstance(e, QutLeaf):
        return {"kind": "QutLeaf",
                "graph": {"hash": content_hash(e.graph),
                          "text": write_graph(e.graph)}}
    if isinstance(e, FreeWreath):
        return {"kind": "FreeWreath",
                "inner": to_tree(e.inner), "outer": to_tree(e.outer)}
    if isinstance(e, FreeProd):
        return {"kind": "FreeProd", "children": [to_tree(c) for c in e.children]}
    if isinstance(e, Indeterminate):
        return {"kind": "Indeterminate", "reason": e.reason}
    raise TypeError(f"not a group expression: {e!r}")


def simplify(e: GroupExpr) -> GroupExpr:
    """Normalise an expression to a fixed point.

    Wreathing with a trivial inner or outer factor is dropped.  Nothing else
    is rewritten: graph leaves stay leaves (the structural walk in
    `decompose` decides what expression a graph gets), and free products
    keep their S+(1) children, which are points (isolated vertices,
    singleton modules).
    """
    if isinstance(e, FreeWreath):
        inner, outer = simplify(e.inner), simplify(e.outer)
        if outer == SPlus(1):
            return inner
        if inner == SPlus(1):
            return outer
        return FreeWreath(inner, outer)
    if isinstance(e, FreeProd):
        return FreeProd(tuple(simplify(c) for c in e.children))
    return e


def degree(e: GroupExpr) -> int:
    """Number of points the expression acts on."""
    if isinstance(e, SPlus):
        return e.n
    if isinstance(e, QutLeaf):
        return e.graph.n
    if isinstance(e, FreeWreath):
        return degree(e.inner) * degree(e.outer)
    if isinstance(e, FreeProd):
        return sum(degree(c) for c in e.children)
    raise ValueError("indeterminate expressions have no degree")


def classical_order(e: GroupExpr) -> int:
    """Order of the classical shadow of the expression.

    S+(n) counts n!, as its shadow S(n) does, free wreath counts like
    wreath, and free product counts like the direct product of the factors
    acting on disjoint point sets.  Graph leaves use the automorphism oracle.
    """
    if isinstance(e, SPlus):
        return math.factorial(e.n)
    if isinstance(e, QutLeaf):
        return aut_order(e.graph)
    if isinstance(e, FreeWreath):
        return classical_order(e.inner) ** degree(e.outer) * classical_order(e.outer)
    if isinstance(e, FreeProd):
        out = 1
        for c in e.children:
            out *= classical_order(c)
        return out
    raise ValueError("indeterminate expressions have no order")


def serialize_classical(e: GroupExpr) -> str:
    """`serialize` of the classical shadow: S+(n), Qut(g) and the free wreath
    read as S(n), Aut(g) and the wreath.  The renamed tokens occur in
    `serialize`'s output only as operator and leaf names (leaf hashes are
    hex, and no indeterminate reason contains them), so the rename is exact.
    """
    return (serialize(e).replace("FreeWreath(", "Wreath(")
            .replace("S+(", "S(").replace("Qut(", "Aut("))
