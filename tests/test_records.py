"""The package's record types: immutable, per-point views of the stacks, and no start-up cost.

The records are NamedTuples or short ``__slots__``/``__init__`` classes, so
importing geonull generates no code for them; a fresh process that runs one
request of each kind loads neither ``dataclasses`` nor ``numpy.ma``.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from geonull import exprcalc, metricspace, numcore
from geonull.curvature import _curvatures, curvature_data, nullity
from geonull.flows import flatness_probe, geodesic, incompleteness_probe, nullity_geodesic_check
from geonull.metricspace import catalog_conullity3, catalog_sekigawa
from geonull.splitting import classify, evolve_along_nullity_geodesic

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# the benchmark's warm-up requests: one analyze, one scan and one kernel-mode flow
WARMUP = [
    ["analyze", "--metric", "conullity3"],
    ["scan", "--metric", "conullity3", "--grid", "u=0:0.5:2"],
    ["flow", "--metric", "conullity3", "--tmax", "1", "--steps", "16"],
]

_CHILD = """
import io, contextlib, json, sys
import numpy
before = set(sys.modules)
import geonull.cli
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(geonull.cli.main(argv))
loaded = set(sys.modules) - before
generated = sorted(
    f"{name}.{cls}"
    for name, module in sys.modules.items() if name.split(".")[0] == "geonull"
    for cls, value in vars(module).items() if isinstance(value, type) and hasattr(value, "__dataclass_fields__")
)
print(json.dumps({"codes": codes, "loaded": sorted(m for m in loaded if m in ("dataclasses", "numpy.ma")),
                  "generated": generated}))
"""


def test_requests_load_no_dataclasses_and_no_numpy_ma():
    # counted from after `import numpy`, so a numpy that loads numpy.ma
    # itself is not charged to geonull
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", _CHILD, json.dumps(WARMUP)],
                          capture_output=True, text=True, env=env, timeout=120, check=True)
    assert json.loads(proc.stdout) == {"codes": [0, 0, 0], "loaded": [], "generated": []}


_C3 = catalog_conullity3("3+cos(u)+cos(w)")
_C3_POINT = np.array([0.1, 0.2, 0.3, 0.1])


def _records():
    """``(name, instance)`` of each record type, from the calls that build it."""
    expr = exprcalc.parse("-sin(u)+2*w", ("u", "w"))
    tree = expr.root  # Bin(+, Neg(Call(sin, Var u)), Bin(*, Const 2, Var w))
    matrices = np.array([[[1.0, 0.0], [0.0, 0.0]], [[1.0, 2.0], [2.0, 4.0]]])
    jet = _C3.jet(_C3_POINT)
    path = geodesic(_C3, _C3_POINT, [0.0, 0.0, 1.0, 0.0], tmax=0.2, steps=8)
    sek = catalog_sekigawa("2+u*u")
    return [
        ("Jet2", exprcalc.Jet2.constant(1.0, 2)),
        ("Const", tree.right.left),
        ("Var", tree.right.right),
        ("Neg", tree.left),
        ("Bin", tree),
        ("Call", tree.left.child),
        ("Expression", expr),
        ("KernelResult", numcore.kernel(matrices[0])),
        ("KernelStack", numcore.kernel(matrices)),
        ("CatalogEntry", metricspace.CATALOG["sphere"]),
        ("NullityResult", nullity(_C3, _C3_POINT)),
        ("Nullities", _curvatures(*(a[None] for a in jet), numcore.REL_TOL_ANALYTIC)[2]),
        ("CurvatureData", curvature_data(_C3, _C3_POINT)),
        ("GeodesicPath", path),
        ("NullityGeodesicReport", nullity_geodesic_check(_C3, _C3_POINT, tmax=0.2, steps=8, samples=3)),
        ("FlatnessReport", flatness_probe(_C3, _C3_POINT, ("u", "v", "w"), samples=2)),
        ("IncompletenessReport", incompleteness_probe(sek, [0.0, 0.0, 0.0], [1.0, 0.0, 0.0])),
        ("BlockInvariants", classify(np.array([[0.0, 1.0], [0.0, 0.0]]))),
        ("EvolutionReport", evolve_along_nullity_geodesic(_C3, _C3_POINT, tmax=0.1, steps=8, samples=3)),
    ]


_RECORDS = _records()


def _fields(record) -> list:
    if hasattr(record, "_fields"):
        return list(record._fields)
    return list(getattr(record, "__slots__", None) or vars(record))


@pytest.mark.parametrize("name, record", _RECORDS, ids=[name for name, _ in _RECORDS])
def test_record_fields_cannot_be_assigned_or_deleted(name, record):
    assert type(record).__name__ == name
    assert not hasattr(type(record), "__dataclass_fields__")
    fields = _fields(record)
    assert fields
    for field in fields:
        before = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field) is before


def test_ast_nodes_compare_without_spans_and_only_within_their_kind():
    a = exprcalc.parse("(u)*2", ("u",)).root
    b = exprcalc.parse("u * 2", ("u",)).root
    assert a.left.span != b.left.span
    assert a == b and not a != b and hash(a) == hash(b)
    assert exprcalc.Const(2.0) != (2.0, (0, 0)) and exprcalc.Const(2.0) != exprcalc.Neg(2.0)
    assert a._replace(op="+") != a and a._replace(span=(5, 9)) == a


def _same_kernels(got, want) -> bool:
    return type(got) is type(want) and all(np.array_equal(x, y) for x, y in zip(got, want))


def test_kernel_stack_indexes_and_iterates_per_matrix():
    matrices = np.array([[[1.0, 0.0], [0.0, 0.0]], [[1.0, 2.0], [2.0, 4.0]], [[0.0, 0.0], [0.0, 0.0]]])
    stack = numcore.kernel(matrices)
    alone = [numcore.kernel(m) for m in matrices]
    assert [r.rank for r in alone] == [1, 1, 0]
    assert all(_same_kernels(stack[i], want) for i, want in enumerate(alone))
    assert _same_kernels(stack[-1], alone[-1])
    assert len(list(stack)) == 3 and all(_same_kernels(got, want) for got, want in zip(stack, alone))


def test_nullities_index_and_iterate_per_point():
    points = np.array([_C3_POINT, [0.0, -0.3, 0.2, 0.4]])
    nullities = _curvatures(*_C3.jets(points)[0][:3], numcore.REL_TOL_ANALYTIC)[2]
    alone = [nullity(_C3, x) for x in points]
    assert [r.nullity for r in alone] == [1, 1]
    assert all(_same_kernels(nullities[i], want) for i, want in enumerate(alone))
    assert len(list(nullities)) == 2 and all(_same_kernels(got, want) for got, want in zip(nullities, alone))
