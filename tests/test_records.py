"""The package's record classes: which stay dataclasses, and what the plain
ones keep of the frozen dataclasses they replace."""

import copy
import dataclasses
import inspect
import json
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

from quadalg import algebra as alg
from quadalg import catalog as cat
from quadalg import cli
from quadalg import hurwitz as hw
from quadalg import jets
from quadalg import odecheck as ode
from quadalg import operators as ops
from quadalg._record import Frozen
from quadalg.jets import Jet, jet_space

# the benchmark tracer replaces fields of these two with dataclasses.replace;
# every other record class is a Frozen record
_DATACLASSES = {"quadalg.operators.PointSampler", "quadalg.algebra.PhiFamily"}


def test_the_tracer_can_replace_the_sampler_predicate_and_the_family_roots():
    sampler = ops.kepler_sampler()
    counted = dataclasses.replace(sampler, accept=lambda x: True)
    assert counted.n_vars == sampler.n_vars == 5 and counted.accept(np.zeros(5))
    family = alg.phi_family_from_coefficients(np.array([[1.0, 0, 0, 0, 0, 0, -1.0]]))
    roots_of = dataclasses.replace(family, roots_of=lambda energy: "counted")
    assert roots_of.roots_of(0.0) == "counted"
    assert roots_of.scale_of is family.scale_of
    assert roots_of.coefficients is family.coefficients


def test_a_fresh_import_leaves_only_the_named_classes_as_dataclasses():
    script = """
import dataclasses, json, sys
import quadalg.cli
found = sorted(f"{cls.__module__}.{cls.__qualname__}"
               for name, module in list(sys.modules.items()) if name.startswith("quadalg")
               for cls in vars(module).values()
               if isinstance(cls, type) and cls.__module__ == name
               and dataclasses.is_dataclass(cls))
print(json.dumps(found))
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cat.__file__)))
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env, check=True)
    assert set(json.loads(out.stdout)) == _DATACLASSES


def _records():
    space = jet_space(2, 1)
    c = alg.QuadraticAlgebraConstants(1.0, 0.0, 0.0, 1.0, 0.0, 0.0)
    sf = alg.StructureFunction(roots=(0.0,) * 6, scale=1.0)
    yield Jet(space, space.constant(1.0).coeffs)
    yield c
    yield sf
    yield alg.RepresentationCandidate(p=0, u=0.5, energy=-1.0, phi_values=(), sf=sf)
    yield alg.OscillatorRealization((c,), (0.5,), ("sqrt",))
    yield cat.kepler5d_constants(cat.Kepler5DParams())
    yield cat.kepler5d_spectrum(cat.Kepler5DParams(), 0)
    yield hw.Point8((1.0,) + (0.0,) * 7)
    yield hw.DualityMap.forward(1.0, 1.0, 0.0, 0.0)
    yield ode.ParabolicChannelSpec(s=0.0, alpha=0.0, beta=-1.0)
    yield ode.radial_oscillator_eigensolve(ode.RadialOscillatorSpec(), 0)[0]
    yield ops.SpinRep.make(0.5)
    yield ops.build_kepler_operators()
    yield cat.Kepler5DParams(c0=2.0, c1=0.1, l=1.0)
    yield cat.Oscillator8DParams(omega=0.5, lambda2=0.2, j=1.0, k=2.0)
    yield cat.YCMParams(T=0.5, J=0.5)



@pytest.mark.parametrize("record", list(_records()), ids=lambda r: type(r).__name__)
def test_a_frozen_record_refuses_assignment(record):
    name = type(record).__slots__[0]
    value = getattr(record, name)
    with pytest.raises(AttributeError, match="frozen"):
        setattr(record, name, value)
    with pytest.raises(AttributeError, match="frozen"):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.not_a_field = 1.0
    assert getattr(record, name) is value


def _same(a, b) -> bool:
    """a and b of one type holding the same values: records and other objects
    field by field, arrays entry by entry, functions by identity."""
    if type(a) is not type(b):
        return False
    if isinstance(a, Frozen):
        names = type(a).__slots__
        return _same([getattr(a, n) for n in names], [getattr(b, n) for n in names])
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if hasattr(a, "__dict__") and not inspect.isroutine(a):
        return _same(vars(a), vars(b))
    return a is b or a == b


@pytest.mark.parametrize("record", list(_records()), ids=lambda r: type(r).__name__)
def test_a_record_copies_and_deep_copies_through_its_init(record):
    shallow = copy.copy(record)
    assert type(shallow) is type(record) and shallow is not record
    for name in type(record).__slots__:
        assert getattr(shallow, name) is getattr(record, name), name
    deep = copy.deepcopy(record)
    assert deep is not record and _same(deep, record)


@pytest.mark.parametrize("record", list(_records()), ids=lambda r: type(r).__name__)
def test_a_record_whose_fields_pickle_survives_a_pickle_round_trip(record):
    if isinstance(record, ops.KeplerOperators):
        # its coefficient builders are local functions, which pickle cannot name
        with pytest.raises((pickle.PicklingError, AttributeError)):
            pickle.dumps(record)
        return
    loaded = pickle.loads(pickle.dumps(record))
    assert loaded is not record and _same(loaded, record)


def test_a_loaded_record_is_built_by_its_init(monkeypatch):
    params = cat.YCMParams(T=0.5, J=0.5)
    built = []
    init = cat.YCMParams.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(cat.YCMParams, "__init__", counted)
    for load in (copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))):
        load(params)
    assert [args[1:] for args in built] == [(0.5, 0.5, 0.0)] * 3
    assert built[0][0] is params.kepler and built[1][0] is not params.kepler


def _frozen_classes() -> set:
    return {cls for module in (alg, cat, cli, hw, jets, ode, ops)
            for cls in vars(module).values()
            if isinstance(cls, type) and issubclass(cls, Frozen) and cls is not Frozen}


def test_every_frozen_record_class_has_slots_only():
    classes = _frozen_classes()
    assert len(classes) >= 28 and Jet in classes
    for cls in classes:
        assert cls.__dictoffset__ == 0, cls.__name__
        assert "__slots__" in vars(cls), cls.__name__


def test_every_frozen_record_init_takes_its_slots_in_order():
    # set_fields and __reduce__ both pair __slots__ with __init__'s parameters
    for cls in _frozen_classes():
        parameters = list(inspect.signature(cls.__init__).parameters)
        assert parameters[1:] == list(cls.__slots__), cls.__name__


@pytest.mark.parametrize("build, message", [
    (lambda: ode.ParabolicChannelSpec(s=0, alpha=0, beta=0), "bound channels need beta < 0"),
    (lambda: ode.RadialOscillatorSpec(omega=0.0), "omega and hbar must be positive"),
    (lambda: hw.Point8((0.0,) * 7), "need eight components"),
    (lambda: alg.QuadraticAlgebraConstants(0.0, 1.0, 0.0, 1.0, 0.0, 0.0),
     "gamma = 0 branch is not implemented"),
    (lambda: alg.StructureFunction((0.0,) * 6, 0.0), "scale must be nonzero"),
    (lambda: alg.StructureFunction((0.0,) * 5, 1.0), "need six roots"),
    (lambda: alg.RepresentationCandidate(-1, 0.5, -1.0, (),
                                         alg.StructureFunction((0.0,) * 6, 1.0)),
     "p must be nonnegative"),
    (lambda: cat.SpectrumRecord("kepler5d", {}, -1.0, "printed"), "unknown provenance"),
    (lambda: cat.SpectrumRecord("ycm", {}, 0.0, "duality"), "Kepler-type bound states"),
    (lambda: cat.SpectrumRecord("osc8d", {}, -1.0, "algebraic"), "oscillator spectra"),
    (lambda: cat.Kepler5DParams(c0=0), "c0 must be positive"),
    (lambda: cat.Kepler5DParams(c0=-np.inf), "c0 must be finite, got -inf"),
    (lambda: cat.Kepler5DParams(c2=-1.0), "c1 and c2 are non-negative"),
    (lambda: cat.Kepler5DParams(hbar=0.0), "hbar must be positive"),
    (lambda: cat.Oscillator8DParams(omega=np.nan), "omega must be finite, got nan"),
    (lambda: cat.Oscillator8DParams(lambda2=-1.0), "singular strengths must be non-negative"),
    (lambda: cat.Oscillator8DParams(hbar=-1.0), "hbar must be positive"),
    (lambda: cat.Oscillator8DParams(k=-1.0), "Casimir labels j, k are non-negative"),
    (lambda: cat.YCMParams(T=0.3), "T must be a non-negative half-integer"),
    (lambda: cat.YCMParams(T=np.inf), "T must be finite, got inf"),
    (lambda: cat.YCMParams(T=0.5, J=2.0), "J must satisfy"),
])
def test_a_record_refuses_what_its_dataclass_refused(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_records_compared_in_tests_compare_by_fields():
    sf = alg.StructureFunction((0.0,) * 6, 1.0)
    a = alg.RepresentationCandidate(1, 0.5, -1.0, (2.0,), sf)
    b = alg.RepresentationCandidate(1, 0.5, -1.0, (2.0,), alg.StructureFunction((0.0,) * 6, 1.0))
    assert a == b and not a != b
    assert a != alg.RepresentationCandidate(1, 0.5, -1.0, (2.0,), sf, endpoint_residual=1e-12)
    assert ode.EigenResult(8, 1.0, 0.0) == ode.EigenResult(8, 1.0, 0.0)
    assert ode.EigenResult(8, 1.0, 0.0) != ode.EigenResult(16, 1.0, 0.0)
    assert a != (1, 0.5, -1.0, (2.0,), sf)
