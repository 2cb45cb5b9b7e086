"""Every integer argument goes through one gate, `intmat._integer`.

Counts, scales, seeds, offsets, and matrix and code entries must be Python
or numpy integers; anything else, and a value below the argument's range,
is refused with a ValueError that names the argument, never truncated.
"""

import numpy as np
import pytest

from vorlat import simulate
from vorlat.codes import LinearCode, builtin_chain
from vorlat.intmat import IntMatrix
from vorlat.lattice import Lattice, direct_sum, standard_lattice
from vorlat.quantize import ScaledQuantizer, make_quantizer
from vorlat.shaping import VoronoiCodeSpec, builtin_spec
from vorlat.simulate import (
    complexity_bench,
    random_ordinals,
    sampled_energy,
    second_moment_mc,
    transmit,
    wer_sweep,
)


def _e8():
    return standard_lattice("E8_int")


def _spec(**kw):
    return VoronoiCodeSpec(builtin_chain("rep8-spc8"), _e8(), **kw)


# (id, call taking the value, name the error must carry, a value below range or None)
_GATED = [
    ("IntMatrix-entry", lambda v: IntMatrix([[v, 0], [0, 1]]), "matrix entry", None),
    ("IntMatrix.scale", lambda v: IntMatrix([[1, 0], [0, 1]]).scale(v), "scale", None),
    ("IntMatrix.matvec", lambda v: IntMatrix([[1, 0], [0, 1]]).matvec([v, 0]), "vector entry",
     None),
    ("Lattice-generator", lambda v: Lattice([[v, 0], [0, 1]]), "matrix entry", None),
    ("Lattice.scaled", lambda v: _e8().scaled(v), "scale", 0),
    ("direct_sum-copies", lambda v: direct_sum(_e8(), v), "copies", 0),
    ("direct_sum-alpha", lambda v: direct_sum(_e8(), 1, v), "alpha", 0),
    ("ScaledQuantizer", lambda v: ScaledQuantizer(_e8().scaled(v)), "scale", 0),
    ("spec-alpha", lambda v: _spec(alpha=v), "alpha", 0),
    ("spec-copies", lambda v: VoronoiCodeSpec(builtin_chain("rep8-spc8"),
                                              standard_lattice("Zn(4)"), copies=v), "copies", 0),
    ("spec-offset", lambda v: _spec(offset=[v] * 8), "offset entry", None),
    ("LinearCode-rows", lambda v: LinearCode([[1, v]]), "generator entry", None),
    ("LinearCode-q", lambda v: LinearCode([[1, 1]], q=v), "q", 1),
    ("second_moment_mc-samples", lambda v: second_moment_mc(make_quantizer(_e8()), v),
     "samples", 0),
    ("second_moment_mc-seed", lambda v: second_moment_mc(make_quantizer(_e8()), 8, v),
     "seed", -1),
    ("sampled_energy-samples", lambda v: sampled_energy(builtin_spec("pair2"), v), "samples", 0),
    ("wer_sweep-trials", lambda v: wer_sweep(builtin_spec("pair2"), [3.0], trials=v,
                                             energy=1.0), "trials", 0),
    ("wer_sweep-max_errors", lambda v: wer_sweep(builtin_spec("pair2"), [3.0], trials=8,
                                                 max_errors=v, energy=1.0), "max_errors", 0),
    ("wer_sweep-seed", lambda v: wer_sweep(builtin_spec("pair2"), [3.0], trials=8, seed=v,
                                           energy=1.0), "seed", -1),
    ("complexity_bench-trials", lambda v: complexity_bench(builtin_spec("pair2"), trials=v),
     "trials", 0),
    ("complexity_bench-repeats", lambda v: complexity_bench(builtin_spec("pair2"), repeats=v),
     "repeats", 0),
    ("complexity_bench-seed", lambda v: complexity_bench(builtin_spec("pair2"), seed=v),
     "seed", -1),
    ("random_ordinals-count", lambda v: random_ordinals(builtin_spec("pair2"), v, 0),
     "count", -1),
    ("random_ordinals-seed", lambda v: random_ordinals(builtin_spec("pair2"), 4, v), "seed", -1),
    ("random_ordinals-trial_offset", lambda v: random_ordinals(builtin_spec("pair2"), 4, 0, v),
     "trial_offset", -1),
    ("transmit-seed", lambda v: transmit(np.zeros((2, 4)), 1.0, v), "seed", -1),
    ("transmit-trial_offset", lambda v: transmit(np.zeros((2, 4)), 1.0, 0, v),
     "trial_offset", -1),
]

_CASES = [
    pytest.param(call, name, value, id=f"{label}-{kind}")
    for label, call, name, below in _GATED
    for kind, value in (("half", 2.5), ("float64", np.float64(2.0)), ("str", "2"),
                        ("below", below))
    if value is not None
]


@pytest.mark.parametrize("call, name, value", _CASES)
def test_non_integer_or_out_of_range_inputs_are_refused_by_name(call, name, value):
    with pytest.raises(ValueError, match=rf"^{name}\b"):
        call(value)


def test_numpy_integers_pass_the_gate():
    assert _e8().scaled(np.int64(2)).volume == _e8().scaled(2).volume
    assert _spec(alpha=np.int32(2), offset=np.ones(8, dtype=np.int64)).offset == (1,) * 8
    assert np.array_equal(random_ordinals(builtin_spec("pair2"), np.int64(5), np.uint8(3)),
                          random_ordinals(builtin_spec("pair2"), 5, 3))


@pytest.mark.parametrize("seed", [1.5, -1])
def test_wer_sweep_refuses_a_bad_seed_before_computing_the_energy(monkeypatch, seed):
    def no_energy(*args, **kwargs):
        raise RuntimeError("average_energy ran before the seed was checked")

    monkeypatch.setattr(simulate, "average_energy", no_energy)
    with pytest.raises(ValueError, match=r"^seed\b"):
        wer_sweep(builtin_spec("pair2"), [3.0], trials=8, seed=seed)
