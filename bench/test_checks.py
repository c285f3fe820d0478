"""The reference checks must flag wrong outputs, not only pass right ones.

Run from the root of the repository: python3 -m pytest bench/test_checks.py
"""

import networkx as nx

import checks

C5_TEXT = "5\n0 1\n1 2\n2 3\n3 4\n0 4\n"


def star_tree(n):
    return {"kind": "SPlus", "n": n}


def test_aut_flags_a_wrong_order():
    q = checks.QueryChecks({"c5": C5_TEXT})
    right = {"order": 10, "orbits": [[0, 1, 2, 3, 4]], "orbitals_count": 3}
    assert q.aut(right, "c5", 10) == []
    assert q.aut(dict(right, order=12), "c5", 10)
    assert q.aut(dict(right, orbitals_count=4), "c5", 10)


def test_analyze_flags_a_wrong_order_and_verdict():
    c5 = {"c5": C5_TEXT}
    q = checks.QueryChecks(c5)
    order = checks.cycle_lex_order(5, 5)
    right = {"verdict": "wreath",
             "classical": {"aut_order": order, "wreath_order": 10 ** 5 * 10}}
    assert q.analyze(right, "c5", "c5", order) == []
    wrong_order = {"verdict": "wreath",
                   "classical": {"aut_order": order * 2, "wreath_order": 10 ** 5 * 10}}
    assert q.analyze(wrong_order, "c5", "c5", order)
    assert q.analyze(dict(right, verdict="indeterminate"), "c5", "c5", order)


def survey_output(**changes):
    """analyze_product(K1,3, K2) and qut of the product, as the worker records
    them: the star rule turns Qut(K1,3) into S+(3), so the degree is 6 on 8
    vertices and the shadow 48 against an order of 96."""
    out = {"wreath_holds": True, "verdict": "wreath", "aut_order": 96, "wreath_order": 96,
           "analyze_tree": {"kind": "FreeWreath", "inner": star_tree(2),
                            "outer": star_tree(3)},
           "qut_tree": {"kind": "Indeterminate", "reason": "no certified pathway applies"}}
    out.update(changes)
    return out


def survey_item(out):
    return checks.survey_item(out, nx.star_graph(3), nx.complete_graph(2), 6, 2,
                              leaf_order=None)


def test_survey_counts_the_simplify_fault_as_a_failure():
    problems, failure = survey_item(survey_output())
    assert problems == []
    assert failure == "analyze degree 6 != 8"


def test_survey_flags_a_wrong_verdict_and_order():
    problems, _ = survey_item(survey_output(verdict="indeterminate"))
    assert any("verdict" in p for p in problems)
    problems, _ = survey_item(survey_output(aut_order=192))
    assert any("aut_order" in p for p in problems)
    problems, _ = survey_item(survey_output(wreath_holds=False))
    assert any("wreath_holds" in p for p in problems)


def test_expression_checks():
    tree = {"kind": "FreeWreath", "inner": star_tree(2), "outer": star_tree(3)}
    assert checks.expr_degree(tree) == 6
    assert checks.expr_shadow(tree, None) == 2 ** 3 * 6
    assert checks.expression_problem(tree, 6, 48, None) is None
    assert checks.expression_problem(tree, 8, 96, None) == "degree 6 != 8"
    assert checks.expression_problem(tree, 6, 96, None) == "shadow 48 != aut_order 96"
    leaf = {"kind": "QutLeaf", "graph": {"text": C5_TEXT}}
    assert checks.expression_problem(leaf, 5, 10, {C5_TEXT: 10}.__getitem__) is None
    assert checks.expr_string({"kind": "FreeProd", "children": [leaf, star_tree(1)]}) \
        .startswith("FreeProd(Qut(#")


def test_conditions_follow_sabidussi():
    flags = checks.condition_flags
    # C4 has twins and 2K1 is disconnected: condition (i) fails.
    assert not checks.wreath_conditions(flags(nx.cycle_graph(4)), flags(nx.empty_graph(2)))
    assert checks.wreath_conditions(flags(nx.cycle_graph(5)), flags(nx.empty_graph(2)))
    # K1,3's complement K3 + K1 is twin-free, so K1,3[K1,4] satisfies (ii).
    assert checks.wreath_conditions(flags(nx.star_graph(3)), flags(nx.star_graph(4)))


def test_census_check_flags_duplicates_and_gaps():
    census = {str(n): [[g.number_of_nodes(), [list(e) for e in g.edges()]]
                       for g in checks.atlas(4)[n]] for n in range(1, 5)}
    assert checks.census_problems(census, 4) == []
    duplicate = dict(census, **{"3": census["3"][:-1] + census["3"][:1]})
    assert checks.census_problems(duplicate, 4)
    short = dict(census, **{"4": census["4"][:-1]})
    assert checks.census_problems(short, 4)


def test_pair_counts_from_the_atlas():
    assert checks.atlas_pair_count(6, 4, 16, conditions=False) == 1030
    assert checks.atlas_pair_count(7, 7, 16, conditions=True) == 6132


def test_wl_and_sweep_checks():
    key, classes = checks._cycle_product_key(5, 5)
    assert classes == 5
    colours = [[0 if p == q else (1 if key(p, q) == key(0, 1) else 2) for q in range(25)]
               for p in range(25)]
    assert checks.QueryChecks({}).wl({"classes": 5, "colour": colours}, key, 5)
    ids = {}
    right = [[ids.setdefault(key(p, q), len(ids)) for q in range(25)] for p in range(25)]
    assert checks.QueryChecks({}).wl({"classes": 5, "colour": right}, key, 5) == []
    counts = {"pairs_verified": 126, "pairs_skipped_bound": 0, "counterexamples": 0}
    assert checks.QueryChecks.sweep(counts, 4, 3) == []
    assert checks.QueryChecks.sweep(dict(counts, counterexamples=1), 4, 3)


def test_closed_forms():
    assert checks.cycle_lex_order(7, 6) == 12 ** 7 * 14
    assert checks.paley_order(13) == 78
