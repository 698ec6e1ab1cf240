"""Module boundaries of the package, checked on its source."""

from __future__ import annotations

import ast
import inspect
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "distpair"


def _modules():
    for path in sorted(SRC.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(), filename=str(path))


def _imported_from_package(tree):
    """(module, name) for every name imported from another distpair module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            relative = node.level > 0
            absolute = (node.module or "").split(".")[0] == "distpair"
            if relative or absolute:
                for alias in node.names:
                    yield node.module, alias.name


def test_no_module_imports_a_private_name_from_another():
    offenders = [
        f"{stem} imports {name} from {source}"
        for stem, tree in _modules()
        for source, name in _imported_from_package(tree)
        if name.startswith("_")
    ]
    assert offenders == []


def _names_used(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_the_metric_jet_is_the_one_route_to_the_metric():
    # a chart's metric is read only by MetricJet, so every other module
    # reaches g, g_inv, sqrt_det, dg and Gamma through the one jet per point
    offenders = []
    for stem, tree in _modules():
        in_jet = {
            id(inner)
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and node.name == "MetricJet"
            for inner in ast.walk(node)
        }
        offenders += [
            f"{stem}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "metric" and id(node) not in in_jet
        ]
        defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
        if "ensure_geometry" in defined | set(_names_used(tree)):
            offenders.append(f"{stem}: ensure_geometry")
    assert offenders == []


def test_dual_is_the_only_derivative_engine():
    # seeding a pass and tagging it happen only inside dual.py
    engine = {"fresh_tag", "seed_point"}
    users = [
        stem for stem, tree in _modules() if stem != "dual" and engine & set(_names_used(tree))
    ]
    assert users == []


def test_only_dual_builds_duals_or_reads_their_parts():
    # the axis layout of a pass's perturbations stays private to the engine;
    # other modules may only ask isinstance(x, Dual)
    offenders = [
        f"{stem}:{node.lineno}"
        for stem, tree in _modules()
        if stem != "dual"
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr in {"eps", "val", "tag"})
        or (
            isinstance(node, ast.Call)
            and "Dual" in {getattr(node.func, "id", None), getattr(node.func, "attr", None)}
        )
    ]
    assert offenders == []


def test_dual_defines_one_init_and_one_fresh_tag():
    # the benchmark's trace counts Dual objects and passes by these names
    tree = dict(_modules())["dual"]
    names = [node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    assert names.count("__init__") == 1
    assert names.count("fresh_tag") == 1


def _einsum_specs(tree):
    """(line, subscripts) of every np.einsum call, which must spell them out."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "einsum":
            spec = node.args[0]
            assert isinstance(spec, ast.Constant) and isinstance(spec.value, str), node.lineno
            yield node.lineno, spec.value


def test_invariants_engine_contracts_pairwise():
    # n is the node axis, last in every operand; any other index runs over
    # the n coordinates or frame slots, so k distinct indices loop n^k times
    # per node.  Each derivative index is contracted with the frame vector it
    # is read along first, so only (d Gamma) A loops n^5 times; every other
    # contraction, and every product of three factors, stays at n^4
    offenders, n5 = [], []
    for line, spec in _einsum_specs(dict(_modules())["dist_tensors"]):
        operands, _ = spec.split("->")
        operands = operands.split(",")
        assert all(op.endswith("n") for op in operands), (line, spec)
        loops = len(set("".join(operands)) - {"n"})
        if loops == 5 and len(operands) == 2:
            n5.append(spec)
        elif loops > 4:
            offenders.append(f"{line}: {spec}")
    assert offenders == []
    assert n5 == ["dkimn,mtn->dkitn"]


def test_every_top_level_def_is_used():
    # a module-level function or class is read somewhere in the package
    # or exported through __all__, so a helper only the tests call lives in
    # the tests.  A use inside the name's own definition, such as a recursive
    # call, does not count; uses between two definitions do
    modules = dict(_modules())
    exported = {
        elt.value
        for node in modules["__init__"].body
        if isinstance(node, ast.Assign) and node.targets[0].id == "__all__"
        for elt in node.value.elts
    }
    used = set()
    for tree in modules.values():
        for stmt in tree.body:
            own = getattr(stmt, "name", None)
            used.update(
                name
                for node in ast.walk(stmt)
                if isinstance(node, (ast.Name, ast.Attribute))
                for name in [node.id if isinstance(node, ast.Name) else node.attr]
                if name != own
            )
    unused = [
        f"{stem}.{node.name}"
        for stem, tree in modules.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in used | exported
    ]
    assert unused == []


def test_no_cache_keyed_by_object_identity():
    # a point carries its metric jet, so no map from id(point) comes back
    offenders = [
        f"{stem}:{node.lineno}"
        for stem, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "id"
    ]
    assert offenders == []


def test_benchmark_entry_points():
    # perfbench/run.py reaches into the package by these names and call
    # shapes.  Its profile reads a function by name (set-up time, jet
    # lookups, jets built) and raises if a module defines two of that name
    from distpair import cli, dist_tensors, quadrature, scenarios

    for name in scenarios.SCENARIO_NAMES:
        assert isinstance(scenarios.build_scenario(name).integrand_degenerate, bool)
    sc = scenarios.non_allowed_rotated()
    assert set(cli.CHECK_RUNNERS) == set(cli.CHECK_NAMES)
    for runner in (cli.run_allowed, cli.run_collapse, cli.run_codazzi):
        _, _, samples = runner(sc, 2, 0, 1e-6)  # (sc, points, seed, tol)
        assert samples == 2
    assert "cols" in inspect.signature(dist_tensors.dist_invariants_batch).parameters
    assert inspect.isgeneratorfunction(quadrature._chunk_nodes)
    assert sc.grid(3).total_nodes == 9
    modules = dict(_modules())
    for stem, func in (
        ("scenarios", "build_scenario"),
        ("chart_geometry", "jet1"),
        ("chart_geometry", "_metric_jet"),
    ):
        names = [
            node.name
            for node in ast.walk(modules[stem])
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        ]
        assert names.count(func) == 1, (stem, func)


def test_no_module_defines_or_imports_geometry():
    # every function takes the Chart; no wrapper type stands in for it
    offenders = [
        stem
        for stem, tree in _modules()
        if "Geometry" in set(_names_used(tree))
        or any(
            isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == "Geometry"
            for node in ast.walk(tree)
        )
    ]
    assert offenders == []


def test_random_field_coefficients_read_their_building_blocks():
    # the trig and sphere coefficients of a random field are evaluated on the
    # basis and embedding that the field computes once per point; their
    # closures never compute sin, cos or the embedding themselves
    tree = dict(_modules())["scenarios"]
    builders = [
        node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name in {"_trig_scalar", "_sphere_scalar"}
    ]
    closures = [
        inner
        for builder in builders
        for inner in ast.walk(builder)
        if isinstance(inner, ast.FunctionDef) and inner is not builder
    ]
    assert len(closures) == 2
    offenders = [
        f"{closure.name}:{node.lineno}"
        for closure in closures
        for node in ast.walk(closure)
        if isinstance(node, ast.Call)
        and {getattr(node.func, "id", None), getattr(node.func, "attr", None)}
        & {"sin", "cos", "_sphere_coords"}
    ]
    assert offenders == []


def _one_plus(node):
    """True for ``1 + ...`` or ``1.0 + ...``, a residual's normalizer shape."""
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Add)
        and isinstance(node.left, ast.Constant)
        and node.left.value == 1
    )


def test_normalizers_live_in_the_identity_module():
    # every normalized residual divides by the identity module's rule or one
    # of its named variants, so a new check cannot bring an eighth
    # normalizer.  scenarios is exempt: its metrics' conformal factors
    # 2 / (1 + |x|^2) are not normalizers
    offenders = [
        f"{stem}:{node.lineno}"
        for stem, tree in _modules()
        if stem not in ("identity", "scenarios")
        for node in ast.walk(tree)
        if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div))
        and _one_plus(node.right)
        or _one_plus(node)
        and isinstance(node.left.value, float)
    ]
    assert offenders == []


def test_the_formula_record_is_the_one_consumer_of_the_invariants_engine():
    # walczak and the formula quadrature read the engine's invariants as the
    # signed terms of formula_record, so no second caller sums them by hand
    callers = [
        f"{stem}.{getattr(top, 'name', None)}"
        for stem, tree in _modules()
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Call)
        and "dist_invariants_batch"
        in {getattr(node.func, "id", None), getattr(node.func, "attr", None)}
    ]
    assert callers == ["dist_tensors.formula_record"]


def test_the_invariants_engine_returns_only_what_the_formula_reads(monkeypatch):
    # every formula chunk runs the engine, so a form or vector that only the
    # tests read belongs to their multi-operand oracle, not to its outputs
    import numpy as np

    from distpair import dist_tensors, scenarios

    read = set()

    class Reads(dict):
        def __getitem__(self, key):
            read.add(key)
            return super().__getitem__(key)

    engine = dist_tensors.dist_invariants_batch
    returned = []

    def spy(chart, pair, cols):
        out = engine(chart, pair, cols)
        returned.append(set(out))
        return Reads(out)

    monkeypatch.setattr(dist_tensors, "dist_invariants_batch", spy)
    sc = scenarios.build_scenario("hopf-s3")
    dist_tensors.formula_record(sc.chart, sc.pair, sc.sample_columns(np.random.default_rng(0), 3))
    assert returned == [read]
