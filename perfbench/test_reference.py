"""Tests of the benchmark's own reference and tracer.

Run from the root of a checkout: ``python3 -m pytest perfbench -q``.
"""

import numpy as np
import pytest

import coinwalk as cw
from coinwalk import asymptotics, characteristic
from reference import dephased_rho
from tracing import Tracer
from workloads import E2, GROVER_COIN, LAZY, haar_unitary, site_arrays, unit_vector


def reference_for(spec, state, points_per_axis):
    pos, coeffs = site_arrays(state)
    return dephased_rho(spec.coin, spec.shifts, pos, coeffs, points_per_axis)


@pytest.fixture
def rng():
    return np.random.default_rng(20261017)


@pytest.mark.parametrize("shifts, npts", [(LAZY, 128), (E2, 12)])
def test_matches_pipeline_on_generic_walks(rng, shifts, npts):
    n, d = len(shifts), len(shifts[0])
    spec = cw.WalkSpec(d, n, shifts, haar_unitary(rng, n))
    origin, step = (0,) * d, (1,) + (0,) * (d - 1)
    state = cw.GeneralState({origin: unit_vector(rng, n) / np.sqrt(2), step: unit_vector(rng, n) / np.sqrt(2)})
    ref = reference_for(spec, state, npts)
    got = cw.rho_asymptotic(spec, state, cw.QuadratureGrid(npts, d)).rho.matrix
    assert np.max(np.abs(ref - got)) < 1e-12


def test_matches_u2_closed_form(rng):
    p = cw.U2Params(0.4, 1.1, -0.3)
    chi = unit_vector(rng, 2)
    ref = reference_for(cw.line_walk(p), cw.LocalState(0, chi), 4096)
    assert np.max(np.abs(ref - cw.rho_local_closed(p, chi).rho.matrix)) < 1e-12


def test_rank2_repro_is_p0_and_matches_simulator():
    spec = cw.WalkSpec(1, 3, [[1], [1], [-1]], np.eye(3))
    chi = np.array([1, 1, 0]) / np.sqrt(2)
    state = cw.LocalState(0, chi)
    p0 = np.outer(chi, chi.conj())
    ref = reference_for(spec, state, 64)
    assert np.max(np.abs(ref - p0)) < 1e-14
    assert np.max(np.abs(cw.cesaro_rho(spec, state, 200).matrix - ref)) < 1e-12


@pytest.mark.parametrize("chi", [np.eye(4)[0], np.array([1, 1j, -1, 0.5]) / np.sqrt(3.25)])
def test_grover_2d_flat_band_matches_simulator(chi):
    spec = cw.WalkSpec(2, 4, E2, GROVER_COIN)
    state = cw.LocalState((0, 0), chi)
    ref = reference_for(spec, state, 64)
    # Cesaro error ~ 1/t; 7e-4 and 1.7e-3 observed at t=40
    assert np.max(np.abs(cw.cesaro_rho(spec, state, 40).matrix - ref)) < 1e-2


def test_haar_lazy_walk_matches_simulator(rng):
    spec = cw.WalkSpec(1, 3, LAZY, haar_unitary(rng, 3))
    state = cw.LocalState(0, unit_vector(rng, 3))
    ref = reference_for(spec, state, 2048)
    assert np.max(np.abs(cw.cesaro_rho(spec, state, 1000).matrix - ref)) < 2e-3


def test_tracer_self_times_add_up_and_names_are_restored(rng):
    originals = (characteristic.eig_unitary, asymptotics.characteristic_stack)
    spec = cw.WalkSpec(2, 4, E2, haar_unitary(rng, 4))
    state = cw.LocalState((0, 0), unit_vector(rng, 4))
    tracer = Tracer()
    with tracer.installed():
        tracer.call("asymptotics.rho_asymptotic", asymptotics.rho_asymptotic,
                    (spec, state, cw.QuadratureGrid(8, 2)))
    assert (characteristic.eig_unitary, asymptotics.characteristic_stack) == originals
    (op,) = tracer.ops
    assert op.stats["linalg.eig_unitary"][0] == 64
    assert op.counters["characteristic.nodes"] == 64
    total = op.stats["asymptotics.rho_asymptotic"][1]
    assert sum(s[2] for s in op.stats.values()) == pytest.approx(total, rel=1e-9)
