"""No tolerance, floor, cut, term-count, budget or cap parameter with a
default may appear in the public API unless a CLI flag sets it: every other
such value lives in one module constant or one literal. A measuring process
has one representation: realize_instrument returns a MeasuringProcess, and
no second dilation class restates its fields; its meter is one outcome
label per probe basis vector, not a tuple of dense projections; its
interaction is its (dK, d) Stinespring isometry, not the (dK)^2 unitary;
a ladder step's Cuntz frame is its index map, with no dense stack of the
W_j; and every commutant constraint the library builds is an index map,
with no N x N matrix from the step to the solver. An instrument holds its
Choi blocks as one read-only complex (m, d^2, d^2) array, however it is
built, not as a tuple of blocks. Every name the package exports, and every
public function, class and method its modules define, is read by the
library or the benchmark, not by the tests alone; and no module of the
package or the tests imports a name it never reads."""

import ast
import dataclasses
import functools
import importlib
import inspect
import pkgutil
import re
import types
from pathlib import Path

import numpy as np
import pytest

import measurelab
from measurelab import scenarios, serialize, uhf

# the names the package exports
EXPORTS = {
    "AdjointAction", "CentralDecomposition", "CheckResult", "EndomorphismStep",
    "GnsIntertwiner", "GnsRep", "Histogram", "Instrument", "MeasuringProcess",
    "Report", "State", "SubAlgebra", "UnitaryPath", "basis_vector",
    "build_projective_scenario", "center", "central_decomposition",
    "chi_ladder_report", "chi_square_pvalue", "commutant",
    "commutant_dimension_bruteforce", "conditional_expectation", "cyclic_shift",
    "dagger", "default_probe_vectors", "diagonal_state",
    "digit_sums", "exact_observation_residual", "fidelity", "gamma_step", "gns",
    "gns_intertwiner", "innerness_residual", "instrument", "instrument_distance",
    "instrument_from_process", "instrument_of", "kraus_rank", "matrix_unit",
    "minimal_central_projections", "random_measuring_process",
    "realize_instrument", "run_projective_check", "sample_counts",
    "sample_histogram", "surrogate_commutant", "symmetry_unitary", "tensor",
    "tensor_power_report", "unitary_path", "vector_state", "verify_axioms"}

KNOB = re.compile(r"tol|floor|cut|terms|budget|cap")

# set by `verify --tol` and `dilate --tol`
ALLOWED = {"verify_axioms.tol", "realize_instrument.psd_tol",
           "Instrument.validate.psd_tol"}


def _public_callables():
    for info in pkgutil.iter_modules(measurelab.__path__):
        mod = importlib.import_module(f"measurelab.{info.name}")
        for name, obj in vars(mod).items():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj) and not name.startswith("_"):
                yield name, obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if inspect.isfunction(member) and (
                            attr == "__init__" or not attr.startswith("_")):
                        yield f"{name}.{attr}", member


def test_walk_covers_the_package():
    names = {name for name, _ in _public_callables()}
    assert {"verify_axioms", "Instrument.validate", "realize_instrument",
            "gns_intertwiner", "normalize_weights", "State.validate",
            "CentralDecomposition.__init__"} <= names


def test_no_tolerance_knobs_outside_the_cli_backed_ones():
    knobs = sorted(
        f"{name}.{param.name}"
        for name, fn in _public_callables()
        for param in inspect.signature(fn).parameters.values()
        if KNOB.search(param.name) and param.default is not param.empty)
    assert [k for k in knobs if k not in ALLOWED] == []
    assert set(knobs) == ALLOWED


def _names_read(path):
    """Every name a module reads as code: a Name, an Attribute or an
    imported name. Comments, docstrings and strings are not code, and a
    definition does not read its own name."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


@functools.cache
def _read_by_library_or_benchmark() -> frozenset:
    """The names the package's modules and perfbench/*.py read as code, and
    the parts of each perfbench tracing TARGETS entry."""
    src = Path(measurelab.__file__).parent
    bench = src.parents[1] / "perfbench"
    modules = [p for p in src.glob("*.py") if p.name != "__init__.py"]
    read = {name for p in modules + sorted(bench.glob("*.py"))
            for name in _names_read(p)}
    # tracing.install() looks each TARGETS entry up with getattr
    tree = ast.parse((bench / "tracing.py").read_text())
    targets = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and getattr(node.targets[0], "id", None) == "TARGETS")
    read |= {part for _, attr in targets for part in attr.split(".")}
    return frozenset(read)


def test_every_export_is_read_by_the_library_or_the_benchmark():
    exports = set(measurelab._EXPORTS)
    assert exports == EXPORTS
    assert sorted(exports - _read_by_library_or_benchmark()) == []


# public members the tests read and the library does not, kept on purpose:
# the README's recipe commutant(list(span.basis)) reads a span's dense basis.
# A span's N x N labels and values views are read by the tests and the
# README alone too, but their bare names are read elsewhere (an instrument's
# labels, a dict's values), so the scan by name cannot list them here.
KEPT_FOR_READERS = {"SubAlgebra.basis"}


def _public_members():
    """(qualified name, bare name) of every public function and class a
    package module defines, and of every public method, property and
    cached property of those classes."""
    for info in pkgutil.iter_modules(measurelab.__path__):
        mod = importlib.import_module(f"measurelab.{info.name}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj) or inspect.isclass(obj):
                yield name, name
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if not attr.startswith("_") and isinstance(
                            member, (types.FunctionType, property,
                                     functools.cached_property)):
                        yield f"{name}.{attr}", attr


def test_every_public_member_is_read_by_the_library_or_the_benchmark():
    members = dict(_public_members())
    assert {"dilation_to_json", "Instrument.povm", "SubAlgebra.basis",
            "EndomorphismStep.source_dim", "MeasuringProcess"} <= set(members)
    read = _read_by_library_or_benchmark()
    unread = {q for q, bare in members.items() if bare not in read}
    assert sorted(unread - KEPT_FOR_READERS) == []
    assert KEPT_FOR_READERS <= unread


def test_each_lazy_export_is_its_defining_modules_object():
    assert sorted(measurelab.__all__) == sorted(EXPORTS)
    for name, module in measurelab._EXPORTS.items():
        mod = importlib.import_module(f"measurelab.{module}")
        assert getattr(measurelab, name) is vars(mod)[name], name
        assert vars(mod)[name].__module__ == mod.__name__, name
    star = {}
    exec("from measurelab import *", star)
    assert set(star) - {"__builtins__"} == EXPORTS
    # gns is a submodule and the function it exports; loading the submodule
    # leaves the export bound
    assert measurelab.gns is measurelab.gns_intertwiner.__globals__["gns"]


def test_one_measuring_process_type():
    assert not hasattr(measurelab, "Dilation")
    assert not hasattr(measurelab.dilation, "Dilation")
    fields = [f.name for f in dataclasses.fields(measurelab.MeasuringProcess)]
    assert fields == ["observed_dim", "probe_vector", "meter", "isometry",
                      "labels", "step"]


def test_one_choi_representation():
    pinch = [np.diag(np.kron(e, e)).astype(complex) for e in np.eye(2)]
    p = measurelab.build_projective_scenario(3, 2)
    built = {
        "instrument(list)": measurelab.instrument(pinch),
        "Instrument(tuple)": measurelab.Instrument(2, chois=tuple(pinch)),
        "instrument_from_json": serialize.instrument_from_json(
            serialize.instrument_to_json(measurelab.instrument(pinch))),
        "instrument_from_process": measurelab.instrument_from_process(p),
    }
    for how, E in built.items():
        n = E.observed_dim ** 2
        assert type(E.chois) is np.ndarray, how
        assert E.chois.dtype == complex and E.chois.shape == (E.outcomes, n, n), how
        assert not E.chois.flags.writeable, how
    # the stack is a copy: the caller's blocks stay writable and unshared
    assert pinch[0].flags.writeable
    assert not np.shares_memory(built["instrument(list)"].chois, pinch[0])
    wrong = [pinch[0], np.zeros((3, 3), dtype=complex)]
    for make in (lambda: measurelab.instrument(wrong),
                 lambda: measurelab.Instrument(2, chois=tuple(wrong))):
        with pytest.raises(ValueError, match="outcome 1: Choi block has wrong shape"):
            make()


def test_step_is_its_index_map():
    fields = [f.name for f in dataclasses.fields(measurelab.EndomorphismStep)]
    assert fields == ["k", "n", "flavor", "rows", "phases"]
    assert not hasattr(measurelab.EndomorphismStep, "isometries")


def _held_arrays(obj):
    """Every ndarray a dataclass instance holds, its step's included."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, np.ndarray):
            yield f.name, value
        elif dataclasses.is_dataclass(value):
            yield from _held_arrays(value)


def test_no_process_holds_a_dense_interaction():
    rng = np.random.default_rng(0)
    E = measurelab.instrument_from_process(
        measurelab.random_measuring_process(3, 2, rng))
    dil = measurelab.realize_instrument(E)
    processes = [measurelab.random_measuring_process(2, 3, rng),
                 measurelab.random_measuring_process(3, 2, rng, "generic"),
                 measurelab.build_projective_scenario(2, 4),
                 measurelab.build_projective_scenario(3, 3, "generic"),
                 measurelab.build_projective_scenario(
                     2, 3, identity_interaction=True),
                 dil]
    for p in processes:
        d, K = p.observed_dim, p.probe_dim
        assert p.isometry.shape == (d * K, d)
        for name, a in _held_arrays(p):
            # a view counts with the whole array it keeps alive
            while isinstance(a.base, np.ndarray):
                a = a.base
            assert a.size <= d * K * max(d, K), (name, a.shape)


def test_step_generators_hold_no_matrix():
    for k, n in ((2, 1), (2, 3), (3, 2), (4, 3)):
        for flavor in ("natural", "generic"):
            for cols, vals in measurelab.gamma_step(k, n, flavor).generators():
                assert cols.ndim == vals.ndim == 1
                assert cols.shape == vals.shape == (k ** n,)


def test_no_library_path_forms_an_n_by_n_constraint(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a dense constraint was formed")

    monkeypatch.setattr(uhf.EndomorphismStep, "__call__", refuse)
    monkeypatch.setattr(uhf, "symmetry_unitary", refuse)
    monkeypatch.setattr(scenarios, "symmetry_unitary", refuse)
    img = measurelab.gamma_step(3, 3).image_subalgebra()
    assert measurelab.surrogate_commutant(img).dim == 9
    assert measurelab.surrogate_commutant(img, adjoin_symmetry=True).dim == 3
    rep = measurelab.tensor_power_report(3, 2, 2)
    assert rep.all_pass and rep.derived["surrogate_dimension"] == 9


def _unread_imports(path):
    """The names a module binds by import and never reads as a Name: a
    dotted import binds its first part, and a from-__future__ import binds
    nothing."""
    tree = ast.parse(path.read_text())
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {alias.asname or alias.name for alias in node.names}
    return bound - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_no_module_imports_a_name_it_never_reads():
    root = Path(measurelab.__file__).parents[2]
    files = sorted((root / "src" / "measurelab").glob("*.py")) + sorted((root / "tests").glob("*.py"))
    assert len(files) > 20
    unread = {f"{p.relative_to(root)}: {name}" for p in files for name in _unread_imports(p)}
    assert sorted(unread) == []
