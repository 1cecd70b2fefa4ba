"""The package's record classes: which stay dataclasses, and what the plain
ones keep of the frozen dataclasses they replace."""

import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from quadalg import algebra as alg
from quadalg import catalog as cat
from quadalg import cli
from quadalg import hurwitz as hw
from quadalg import odecheck as ode
from quadalg import operators as ops
from quadalg._record import Frozen
from quadalg.jets import Jet, jet_space

# the benchmark tracer replaces fields of these two with dataclasses.replace;
# the parameter classes stay for cli._params and catalog._require_finite,
# which walk their fields
_DATACLASSES = {"quadalg.operators.PointSampler", "quadalg.algebra.PhiFamily",
                "quadalg.catalog.Kepler5DParams", "quadalg.catalog.Oscillator8DParams",
                "quadalg.catalog.YCMParams"}


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
    yield alg.OscillatorRealization(c, 0.5)
    yield cat.kepler5d_constants(cat.Kepler5DParams())
    yield cat.kepler5d_spectrum(cat.Kepler5DParams(), 0)
    yield hw.Point8((1.0,) + (0.0,) * 7)
    yield hw.DualityMap.forward(1.0, 1.0, 0.0, 0.0)
    yield ode.ParabolicChannelSpec(s=0.0, alpha=0.0, beta=-1.0)
    yield ode.radial_oscillator_eigensolve(ode.RadialOscillatorSpec(), 0)[0]
    yield ops.SpinRep.make(0.5)
    yield ops.build_kepler_operators()


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


def test_every_frozen_record_class_has_slots_only():
    classes = {cls for module in (alg, cat, cli, hw, ode, ops)
               for cls in vars(module).values()
               if isinstance(cls, type) and issubclass(cls, Frozen) and cls is not Frozen}
    assert len(classes) >= 20
    for cls in classes:
        assert cls.__dictoffset__ == 0, cls.__name__
        assert "__slots__" in vars(cls), cls.__name__


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
