"""Symbolic group expressions over graph-symmetry leaves.

Expression trees combine quantum and classical leaves with wreath, free
wreath, and free product operators.  Serialization is canonical (prefix
notation, deterministic child order), so expression strings can be used
as golden values in reports and tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

from .graphs import Graph
from .formats import content_hash, write_graph
from .groups import aut_order

GroupExpr = Union["SPlus", "S", "QutLeaf", "AutLeaf",
                  "FreeWreath", "Wreath", "FreeProd", "Indeterminate"]


@dataclass(frozen=True)
class SPlus:
    """The quantum symmetric group on n points."""
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("SPlus needs n >= 1")


@dataclass(frozen=True)
class S:
    """The symmetric group on n points."""
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("S needs n >= 1")


@dataclass(frozen=True)
class QutLeaf:
    graph: Graph


@dataclass(frozen=True)
class AutLeaf:
    graph: Graph


@dataclass(frozen=True)
class FreeWreath:
    """Free wreath product: `inner` wreathed by `outer`."""
    inner: GroupExpr
    outer: GroupExpr


@dataclass(frozen=True)
class Wreath:
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
    if isinstance(e, S):
        return f"S({e.n})"
    if isinstance(e, QutLeaf):
        return f"Qut(#{content_hash(e.graph)})"
    if isinstance(e, AutLeaf):
        return f"Aut(#{content_hash(e.graph)})"
    if isinstance(e, FreeWreath):
        return f"FreeWreath({serialize(e.inner)},{serialize(e.outer)})"
    if isinstance(e, Wreath):
        return f"Wreath({serialize(e.inner)},{serialize(e.outer)})"
    if isinstance(e, FreeProd):
        return "FreeProd(" + ",".join(serialize(c) for c in e.children) + ")"
    if isinstance(e, Indeterminate):
        return f"Indeterminate({e.reason})"
    raise TypeError(f"not a group expression: {e!r}")


def to_tree(e: GroupExpr) -> dict:
    """JSON-friendly tree; graph leaves are embedded by hash and text."""
    if isinstance(e, (SPlus, S)):
        return {"kind": type(e).__name__, "n": e.n}
    if isinstance(e, (QutLeaf, AutLeaf)):
        return {"kind": type(e).__name__,
                "graph": {"hash": content_hash(e.graph),
                          "text": write_graph(e.graph)}}
    if isinstance(e, (FreeWreath, Wreath)):
        return {"kind": type(e).__name__,
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
    if isinstance(e, (SPlus, S)):
        return e.n
    if isinstance(e, (QutLeaf, AutLeaf)):
        return e.graph.n
    if isinstance(e, (FreeWreath, Wreath)):
        return degree(e.inner) * degree(e.outer)
    if isinstance(e, FreeProd):
        return sum(degree(c) for c in e.children)
    raise ValueError("indeterminate expressions have no degree")


def classical_order(e: GroupExpr) -> int:
    """Order of the classical shadow of the expression.

    S+(n) and S(n) both count n!, free wreath counts like wreath, and free
    product counts like the direct product of the factors acting on
    disjoint point sets.  Graph leaves use the automorphism oracle.
    """
    if isinstance(e, (SPlus, S)):
        return math.factorial(e.n)
    if isinstance(e, (QutLeaf, AutLeaf)):
        return aut_order(e.graph)
    if isinstance(e, (FreeWreath, Wreath)):
        return classical_order(e.inner) ** degree(e.outer) * classical_order(e.outer)
    if isinstance(e, FreeProd):
        out = 1
        for c in e.children:
            out *= classical_order(c)
        return out
    raise ValueError("indeterminate expressions have no order")


def quantum_to_classical(e: GroupExpr) -> GroupExpr:
    """Map quantum operators and leaves to their classical counterparts."""
    if isinstance(e, SPlus):
        return S(e.n)
    if isinstance(e, QutLeaf):
        return AutLeaf(e.graph)
    if isinstance(e, FreeWreath):
        return Wreath(quantum_to_classical(e.inner), quantum_to_classical(e.outer))
    if isinstance(e, FreeProd):
        return FreeProd(tuple(quantum_to_classical(c) for c in e.children))
    return e
