"""Every definition in `src/passlab` has a caller in the package, every
dataclass field a reader, and every function parameter a read in its body.

A module-level function or class, or a method that is not a dunder, counts
as called when some module of the package other than `__init__` refers to
its name, as a `Name` or as an `Attribute`.  A `Name` read in a function
that binds the same name itself (a parameter, an assignment, a loop or
comprehension target), or in a function nested in one, is that local and
refers to nothing at module level.  A dataclass field counts as
read when some such module loads an attribute of its name.  The match is
by bare name, so a method is called, or a field read, as soon as any
attribute of that name is read.  Where several classes define a member of
the same name, that match cannot tell them apart, so `SHARED` lists every
such name with its owners, each with the read in the package found for
it by hand from the receiver's type, or None; a None owner
counts as unread, and a name that comes to be shared by a new owner fails
the test until the table has it.  What is only exported, or only reached by
the tests or the benchmark, needs a line in `ALLOWED` that says why it
stays; a function that nothing calls belongs in the tests, as a reference,
or nowhere, and a field that nothing reads belongs nowhere.

A parameter of a function or method that is not a dunder, other than `self`
or `cls`, counts as read when the function's body, nested definitions
included, loads its name.  A parameter that nothing reads hides where a
value stops mattering, so it needs a line in `ALLOWED_UNREAD`.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "passlab"

SPANNED = "perfbench/tracer.py SPAN_TARGETS names it"
QDF = "quadratic-differential-form algebra for storage on a pair (ROADMAP item 5)"
SIGNAL = "a public builder of simulate inputs"
DIAGNOSTIC = "a public result field that only the tests read"

ALLOWED = {
    "certificate.AREResult.closed_loop_spec": DIAGNOSTIC,
    "certificate.AREResult.residual": DIAGNOSTIC,
    "certificate.AREResult.stabilizing": DIAGNOSTIC,
    "certificate.RationalMatrix.eval": "evaluates the public Z of a Certificate",
    "certificate.are_solve": "the public Riccati solve of a StateSpace; certify calls _are_solve",
    "certificate.remark61_solve": SPANNED,
    "polymatrix.PolyMat.is_zero": "the zero test of the PolyMat ring, as Poly.is_zero; only the tests read it",
    "poly.TwoVarPoly.eval": QDF,
    "poly.TwoVarPoly.mul_xi_plus_eta": QDF,
    "poly.bdf_phi": QDF,
    "polymatrix.delta": SPANNED,
    "numeric.lyapunov_solve": SPANNED,
    "polymatrix.fullrank_everywhere": SPANNED,
    "prpair.axis_psd": SPANNED + "; specfact reads _axis_violation for its witness",
    "prpair.check_condition1": SPANNED,
    "prpair.check_condition3": SPANNED,
    "signals.Signal.constant": SIGNAL,
    "signals.Signal.cosine": SIGNAL,
    "signals.Signal.deriv": SIGNAL + ": the k-th derivative",
    "signals.Signal.exponential": SIGNAL,
    "signals.Signal.monomial": SIGNAL,
    "signals.Signal.scale": SIGNAL + ": a constant multiple",
    "signals.Signal.sine": SIGNAL,
    "signals.Signal.zero": SIGNAL,
    "statespace.StaircaseForm.T": DIAGNOSTIC,
    "statespace.StorageCheck.ok": "the verdict of storage_check, which the corpus-certify benchmark reads",
    "statespace.StorageCheck.dissipation_slack": DIAGNOSTIC,
    "statespace.StorageCheck.identity_residual": DIAGNOSTIC,
    "statespace.storage_check": "exported; the corpus-certify benchmark calls it",
}

SHARED = {
    "T": {"numeric.SpectralSplit": "certificate._lure_triple: split.T",
          "polymatrix.PolyMat": "behavior.passive_partition: T1.T",
          "statespace.StaircaseForm": None},
    "U": {"behavior.Decomposition": "behavior.Decomposition.__post_init__: self.U",
          "polymatrix.EchelonResult": "behavior.decompose: res.U"},
    "X": {"behavior.Decomposition": "behavior.coupling_condition_direct: dec.X",
          "certificate.AREResult": "certificate._deflate: _are_solve(...).X",
          "certificate.Certificate": "jsonio.certificate_json: cert.X"},
    "Z": {"certificate.Certificate": "jsonio.certificate_json: cert.Z",
          "certificate.SpectralFactor": "cli.cmd_specfact: sf.Z"},
    "coeff": {"poly.Poly": "polymatrix._leading_rows: e.coeff(d)",
              "poly.TwoVarPoly": "poly.TwoVarPoly.__add__: self.coeff"},
    "constant": {"poly.Poly": "jsonio.parse_poly: Poly.constant",
                 "polymatrix.PolyMat": "statespace.realize_statespace: PolyMat.constant",
                 "signals.Signal": None},
    "derivative": {"poly.Poly": "numeric.roots: f.derivative()",
                   "signals.Atom": "signals.Signal.derivative: a.derivative()",
                   "signals.Signal": "signals.Signal.deriv: s.derivative()"},
    "detail": {"prpair.CondVerdict": "jsonio.verdict_json: c.detail",
               "prpair.Witness": "jsonio.witness_json: w.detail"},
    "eval": {"certificate.RationalMatrix": None, "poly.TwoVarPoly": None},
    "eval_complex": {"poly.Poly": "numeric._newton_polish: f.eval_complex(z)",
                     "polymatrix.PolyMat": "prpair.pr_form: P.eval_complex(lam)"},
    "is_zero": {"poly.Poly": "prpair._condition1: dpq.is_zero",
                "poly.TwoVarPoly": "poly.TwoVarPoly.__repr__: self.is_zero",
                "polymatrix.PolyMat": None},
    "ok": {"polymatrix.FullRankResult": "prpair.check_condition2: res.ok",
           "statespace.StorageCheck": None},
    "star": {"poly.Poly": "prpair._pr_density: Phi[i][j].star()",
             "polymatrix.PolyMat": "behavior.coupling_condition_direct: dec.M.star()"},
    "status": {"certificate.CertifyResult": "cli.cmd_certify: res.status",
               "prpair.CondVerdict": "cli.cmd_check_pair: verdict.cond1.status"},
    "witnesses": {"polymatrix.FullRankResult": "prpair.check_condition2: res.witnesses",
                  "prpair.CondVerdict": "jsonio.verdict_json: c.witnesses"},
    "x": {"poly.Poly": "cli.cmd_selftest: Poly.x()",
          "statespace.Trajectory": "cli.cmd_simulate: traj.x"},
    "zero": {"poly.Poly": "behavior._selector: Poly.zero()", "signals.Signal": None},
}

ALLOWED_UNREAD = {
    "cli.cmd_selftest(args)": "argparse calls every subcommand handler with args",
}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id == "dataclass" for d in node.decorator_list)


FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _bound(func) -> set[str]:
    """The names `func` binds itself: its parameters, and every name stored
    in its body outside nested functions."""
    a = func.args
    names = {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs
             + [p for p in (a.vararg, a.kwarg) if p is not None]}
    todo = list(func.body) if isinstance(func.body, list) else [func.body]
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        if not isinstance(node, FUNCS):
            todo.extend(ast.iter_child_nodes(node))
    return names


def _references(node, local: frozenset, refs: set, loads: set) -> None:
    """Add to refs every name `node` refers to that is not local, and to
    loads every attribute it loads."""
    if isinstance(node, FUNCS):
        local = local | _bound(node)
    if isinstance(node, ast.Name) and node.id not in local:
        refs.add(node.id)
    elif isinstance(node, ast.Attribute):
        refs.add(node.attr)
        if isinstance(node.ctx, ast.Load):
            loads.add(node.attr)
    for child in ast.iter_child_nodes(node):
        _references(child, local, refs, loads)


def package_trees() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}


def uncalled_definitions(trees: dict[str, ast.Module]) -> set[str]:
    refs, loads = set(), set()
    for mod, tree in trees.items():
        if mod != "__init__":
            _references(tree, frozenset(), refs, loads)
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    out = set()
    for mod, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, defs):
                continue
            if node.name not in refs:
                out.add(f"{mod}.{node.name}")
            if isinstance(node, ast.ClassDef):
                out.update(f"{mod}.{node.name}.{m.name}" for m in node.body
                           if isinstance(m, defs[:2]) and not _is_dunder(m.name)
                           and m.name not in refs)
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                out.update(f"{mod}.{node.name}.{m.target.id}" for m in node.body
                           if isinstance(m, ast.AnnAssign)
                           and isinstance(m.target, ast.Name)
                           and m.target.id not in loads)
    return out


def shared_members(trees: dict[str, ast.Module]) -> dict[str, set[str]]:
    """Each non-dunder method or dataclass field name that more than one
    class of the package defines, with the classes that define it."""
    owners: dict[str, set[str]] = {}
    for mod, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            names = [m.name for m in node.body
                     if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                     and not _is_dunder(m.name)]
            if _is_dataclass(node):
                names += [m.target.id for m in node.body
                          if isinstance(m, ast.AnnAssign)
                          and isinstance(m.target, ast.Name)]
            for name in names:
                owners.setdefault(name, set()).add(f"{mod}.{node.name}")
    return {name: own for name, own in owners.items() if len(own) > 1}


def test_shared_member_names_are_reviewed():
    assert shared_members(package_trees()) == {
        name: set(owners) for name, owners in SHARED.items()}
    assert all(r is None or r.strip() and "\n" not in r
               for owners in SHARED.values() for r in owners.values())


def test_every_definition_has_a_caller_or_a_reason():
    uncalled = uncalled_definitions(package_trees()) | {
        f"{owner}.{name}" for name, owners in SHARED.items()
        for owner, read in owners.items() if read is None}
    assert sorted(uncalled - ALLOWED.keys()) == [], "no caller or reader in src/passlab"
    assert sorted(ALLOWED.keys() - uncalled) == [], "called: drop the entry"
    assert all(r.strip() and "\n" not in r for r in ALLOWED.values())


def test_a_local_of_the_same_name_is_no_call():
    tree = ast.parse(
        "def delta(M):\n    return M\n\n"
        "def limit(K, rows):\n"
        "    delta = K + 1\n"
        "    total = [step for step in rows]\n"
        "    return delta, total, [delta for _ in rows]\n\n"
        "def step(x):\n    return x\n")
    assert uncalled_definitions({"mod": tree}) == {"mod.delta", "mod.limit",
                                                   "mod.step"}
    called = ast.parse("def delta(M):\n    return M\n\n"
                       "def limit(K):\n    return delta(K)\n")
    assert uncalled_definitions({"mod": called}) == {"mod.limit"}


def _unread(node, prefix: str):
    """`prefix.name(param)` for each unread parameter of every non-dunder
    function at or under `node`."""
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (*funcs, ast.ClassDef)):
            yield from _unread(child, prefix)
            continue
        qual = f"{prefix}.{child.name}"
        if isinstance(child, funcs) and not _is_dunder(child.name):
            a = child.args
            params = a.posonlyargs + a.args + a.kwonlyargs + \
                [p for p in (a.vararg, a.kwarg) if p is not None]
            loads = {n.id for stmt in child.body for n in ast.walk(stmt)
                     if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            yield from (f"{qual}({p.arg})" for p in params
                        if p.arg not in ("self", "cls") and p.arg not in loads)
        yield from _unread(child, qual)


def unread_parameters() -> set[str]:
    return {u for p in sorted(SRC.glob("*.py"))
            for u in _unread(ast.parse(p.read_text()), p.stem)}


def test_every_parameter_is_read_or_has_a_reason():
    unread = unread_parameters()
    assert sorted(unread - ALLOWED_UNREAD.keys()) == [], "never read in its body"
    assert sorted(ALLOWED_UNREAD.keys() - unread) == [], "read: drop the entry"
    assert all(r.strip() and "\n" not in r for r in ALLOWED_UNREAD.values())
