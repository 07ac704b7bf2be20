"""The benchmark's contract with the package: the tracer names functions
that exist, clearing the caches leaves every operation cold, and the package
exports only what src/ or bench/ runs and the paper-named operators.  The
tests' contract with it: the reference forms read no private name, and the
tests only the allowlisted ones."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import nfnls.normal_form as normal_form
from nfnls.grids import make_grid
from nfnls.harness import gaussian_field
from nfnls.normal_form import SolverParams, _Node, solve
from test_normal_form import tiny_remainder_inputs

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"
# README keeps these public "as the paper-named API, also where the solver
# does not call them"
PAPER_NAMED = {
    "q1", "resonant_r1", "resonant_r2", "apply_n11", "apply_n12", "n21_state",
    "n22_state", "n3_state", "n31_state", "n32_state", "n4_state",
}
# the package's private names the tests may reach, each with its reason
PRIVATE_ALLOWLIST = {
    "_integrand": "one node's integrand: cache warming, the level assembly and its call count",
    "_Node": "the evaluation context: insert builds patched to count or refuse, table sums spied, inner sums read",
    "_tree_level_sum": "the tree pass of insert kinds no public operator reaches (fused, restricted, 'high' at J = 2)",
    "_chain_possible": "the tree path's prefilter, switched off and checked against the frontier",
    "_contraction": "the gap pass's contraction table against the inverse FFT and pick of random spectra",
    "_mirror_fold": "the n1 <-> n3 fold weights, which no sum shows (an unfolded sum is the same sum)",
    "_evaluate": "a spy on the batch evaluator reads certify_tree_bound's value of every draw",
    "_frontier": "the multi-root frontier the tree-level sums read, against per-root references",
    "_EXPANSION_BLOCK": "sizes the expansion case that spans two blocks",
    "_fir_probe_norms": "every probe of the gap-kernel constant sweep, not only the row maxima",
}


def test_traced_layers_resolve_to_package_callables():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"nfnls.{mod}.{name}"
        for mod, names in tracer.LAYERS.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"nfnls.{mod}"), name, None))
    ]
    assert not missing, f"traced names missing from the package: {missing}"


def bench_run(monkeypatch):
    """bench/run.py as a module; it pins the BLAS threads on import, as
    conftest.py already has."""
    monkeypatch.syspath_prepend(str(TRACER.parent))
    spec = importlib.util.spec_from_file_location("bench_run", TRACER.parent / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run


def test_clear_caches_empties_the_phase_table_cache(monkeypatch):
    # every benchmark operation starts cold: after a warm level-3 integrand,
    # which fills the triple, gap, phase and contraction tables and the row
    # plans, no lru_cache of the package holds an entry
    run = bench_run(monkeypatch)
    v, _ = tiny_remainder_inputs()
    normal_form._integrand(v.at_time(0.37), SolverParams(J=3, N=1.0, T=1.0, q=2.0, window=16))

    def caches():
        return {
            f"{name}.{attr}": val.cache_info().currsize
            for name, mod in list(sys.modules.items())
            if name == "nfnls" or name.startswith("nfnls.")
            for attr, val in vars(mod).items()
            if callable(getattr(val, "cache_info", None))
        }

    warm = caches()
    assert warm["nfnls.resonance.phase_table"] > 0 and warm["nfnls.normal_form._triple_table"] > 0
    run._clear_caches()
    assert set(caches().values()) == {0}


def test_row_plans_do_not_scale_with_nodes(monkeypatch):
    # the generation-one row plans are built once per live set, each with
    # one liveness count: from cold caches, a J = 2 solve at the
    # live_compare config counts as often with 3 quadrature steps as with 6
    run = bench_run(monkeypatch)
    live, calls = _Node.live, []

    def counted(*args):
        calls.append(args)
        return live(*args)

    monkeypatch.setattr(_Node, "live", staticmethod(counted))
    u0 = gaussian_field(make_grid(8, 16), amplitude=0.5, width=2.0)
    counts = []
    for K in (3, 6):
        run._clear_caches()
        calls.clear()
        solve(u0, SolverParams(
            J=2, N=16.0, T=0.03, q=2.0, R=1.0, R_tilde=1.0, K=K,
            picard_tol=1e-13, window=6, support_trim=1e-8,
        ))
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_public_names_have_a_caller_or_are_paper_named():
    # a use is an attribute, a loaded name or an identifier string in a
    # top-level statement of src/ or bench/ other than the name's own
    # definition and __all__.  In bench/ a loaded name counts only where the
    # file imports it from nfnls, and an identifier string only in tracer.py
    # (LAYERS), so a local of the same name is no caller.  Reference forms
    # for tests go to oracles.py
    readme = (ROOT / "README.md").read_text()
    assert all(f"`{name}`" in readme for name in PAPER_NAMED)
    exports, uses = {}, []
    for path in sorted(ROOT.glob("src/nfnls/*.py")) + sorted(ROOT.glob("bench/*.py")):
        tree = ast.parse(path.read_text())
        in_src = path.parent.name == "nfnls"
        imported = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "nfnls"
            for alias in node.names
        }
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign) and getattr(stmt.targets[0], "id", None) == "__all__":
                exports[path] = ast.literal_eval(stmt.value)
                continue
            used = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    if in_src or node.id in imported:
                        used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.Constant) and str(node.value).isidentifier():
                    if in_src or path == TRACER:
                        used.add(node.value)
            uses.append((path, getattr(stmt, "name", None), used))
    unused = [
        f"{path.stem}.{name}" for path, names in exports.items() for name in names
        if name not in PAPER_NAMED
        and not any(name in used and (p, own) != (path, name) for p, own, used in uses)
    ]
    assert not unused, f"public names without a caller in src/ or bench/: {unused}"


def reached_private_names(path):
    """The private names of nfnls a file imports, reads as a module attribute
    or names by a string after a module in a call (monkeypatch.setattr)."""
    tree = ast.parse(path.read_text())
    modules, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names if a.name.split(".")[0] == "nfnls"}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "nfnls":
            names |= {a.name for a in node.names if a.name.startswith("_")}
            if node.module == "nfnls":
                modules |= {a.asname or a.name for a in node.names}

    def is_module(expr):
        text = ast.unparse(expr)
        return any(text == m or text.startswith(m + ".") for m in modules)

    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and is_module(node.value):
            names.add(node.attr)
        elif isinstance(node, ast.Call) and len(node.args) > 1 and is_module(node.args[0]):
            if isinstance(node.args[1], ast.Constant) and isinstance(node.args[1].value, str):
                names.add(node.args[1].value)
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def test_tests_reach_only_allowlisted_private_names():
    # the references are independent of the package's internals, and a test
    # reaches one only for a reason stated above
    assert not reached_private_names(ROOT / "tests" / "oracles.py")
    reached = set().union(*(reached_private_names(p) for p in sorted((ROOT / "tests").glob("*.py"))))
    assert reached == set(PRIVATE_ALLOWLIST) and len(PRIVATE_ALLOWLIST) <= 10
