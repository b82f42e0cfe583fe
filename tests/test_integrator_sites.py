"""A ratchet on the scipy integrators in the package: the functions of
`src/gausslind` that call `solve_ivp` or `quad` are a subset of a fixed
set, so that moving the package off scipy can shrink the set and nothing
can grow it.  A call counts whether the name is scipy's own or the
package's lazy-import wrapper of it (`opensys.solve_ivp`, `opensys.quad`);
a wrapper that forwards to scipy's function of its own name is that
function, not a call site."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gausslind"
INTEGRATORS = {"solve_ivp", "quad"}
ALLOWED = {"opensys.evolve_open", "opensys.piecewise_oscillatory_quad",
           "selfcheck.reference_upper_gamma"}


def _callee(call: ast.Call) -> str | None:
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def call_sites(package: Path = PACKAGE) -> set:
    """`module.function` (`module.Class.method`) of each outermost function
    of the package that calls an integrator, nested functions included in
    the function that defines them; `module.<module>` for a call at module
    level."""
    sites = set()
    for path in sorted(package.glob("*.py")):
        module = path.stem

        def visit(node, owner, name):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    inner = f"{owner}.{child.name}" if owner else child.name
                    top = owner is None or isinstance(node, ast.ClassDef)
                    visit(child, inner if top else owner, child.name)
                    continue
                if (isinstance(child, ast.Call) and _callee(child) in INTEGRATORS
                        and _callee(child) != name):
                    sites.add(f"{module}.{owner or '<module>'}")
                visit(child, owner, name)

        visit(ast.parse(path.read_text(encoding="utf-8")), None, None)
    return sites


def test_integrator_call_sites_only_shrink():
    sites = call_sites()
    assert sites <= ALLOWED, sorted(sites - ALLOWED)
    # the walk finds the sites there are, so the subset test is not vacuous
    assert {"opensys.evolve_open", "selfcheck.reference_upper_gamma"} <= sites
