"""Every float threshold in `src/passlab` is named in `numeric.py`.

Outside `numeric.py`, no comparison holds a float literal anywhere inside
it (its operands and their subexpressions), and no module-level name is
bound to a bare float literal (a number, or its negation).  These are the
two forms a threshold takes.  A threshold written where it is used escapes
the one tolerance policy: nobody reading `numeric.py` sees its scale, and
nothing changes it with the rest.  A float in a sample tuple or an
argument default is not a threshold, so the guard does not look there.
A comparison or name that must stay needs a line in `ALLOWED` that says
why.
"""

import ast

from test_callers import package_trees

POLICY = "numeric"

ALLOWED = {
    "cli: abs(res.certificate.X[0, 0] - (3 - 2 * math.sqrt(2))) < 1e-08":
        "selftest's expected value of the RC certificate, a test bound",
}


def _is_float(node) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return isinstance(node, ast.Constant) and type(node.value) is float


def float_thresholds(trees: dict[str, ast.Module]) -> list[str]:
    """`module: source`, sorted, once for each comparison with a float
    literal inside it and each module-level name bound to a bare float
    literal, in every module but `numeric`."""
    out = []
    for mod, tree in trees.items():
        if mod == POLICY:
            continue
        out += [f"{mod}: {ast.unparse(node)}" for node in tree.body
                if isinstance(node, (ast.Assign, ast.AnnAssign))
                and node.value is not None and _is_float(node.value)]
        out += [f"{mod}: {ast.unparse(node)}" for node in ast.walk(tree)
                if isinstance(node, ast.Compare)
                and any(_is_float(n) for n in ast.walk(node))]
    return sorted(out)


def test_every_float_threshold_is_named_in_numeric():
    found = set(float_thresholds(package_trees()))
    assert sorted(found - ALLOWED.keys()) == [], "name it in numeric.py"
    assert sorted(ALLOWED.keys() - found) == [], "gone: drop the entry"
    assert all(r.strip() and "\n" not in r for r in ALLOWED.values())


def test_the_guard_flags_both_forms_and_exempts_numeric():
    source = ("CUT = 1e-9\nFLOOR = -0.5\nSAMPLES = (0.31, 0.77)\nCOUNT = 3\n\n"
              "def f(x, s, h=1e-3):\n"
              "    return x <= 1e-6 * (1.0 + s), x > CUT, x != 0, [0.5 * x]\n")
    trees = {"mod": ast.parse(source), POLICY: ast.parse(source)}
    assert float_thresholds(trees) == ["mod: CUT = 1e-09", "mod: FLOOR = -0.5",
                                       "mod: x <= 1e-06 * (1.0 + s)"]
