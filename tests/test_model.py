import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fluxring as fr
from fluxring.errors import ModelError
from fluxring.model import (
    angle_dist,
    dumps_model,
    fold_angle,
    from_dict,
    parse_angle,
    to_dict,
)

from oracles import regauge

PI = math.pi


def format_angle(phi: float) -> str:
    """Render simple rational multiples of pi symbolically, else as a float;
    the inverse of parse_angle on both."""
    folded = fold_angle(phi)
    frac = folded / math.pi
    for q in (1, 2, 3, 4, 6):
        p = frac * q
        if abs(p - round(p)) < 1e-9:
            p = int(round(p))
            if p == 0:
                return "0"
            if q == 1:
                return "pi" if p == 1 else f"{p}pi"
            return f"{p}/{q}pi" if p != 1 else f"1/{q}pi"
    return f"{folded:.12g}"


def test_flux_is_phase_sum():
    spec = fr.make_spec(4, 2, hop_phase=(0.0, 0.0, 0.0, PI))
    assert spec.flux == pytest.approx(PI, abs=1e-15)


def test_zero_hopping_rejected():
    with pytest.raises(ModelError, match=r"every \|t_x\| must be strictly positive"):
        fr.make_spec(4, 2, hop_mag=(1.0, 1.0, 0.0, 1.0))


def test_remark5_fixture_is_valid_with_zero_flux():
    spec = fr.gen_fixture("remark5", t=50.0)
    assert spec.L == 5 and spec.N == 5
    assert spec.hop_mag == (1.0, math.sqrt(2.0), 50.0, math.sqrt(2.0), 1.0)
    assert spec.V == (0.0, 0.0, 50.0, 50.0, 0.0)
    assert spec.flux == 0.0


def test_validation_errors():
    with pytest.raises(ModelError, match="L=2: need L >= 3"):
        fr.make_spec(2, 1)
    with pytest.raises(ModelError, match="hop_mag has length 3, expected L=4"):
        fr.ModelSpec(4, 2, (1.0,) * 3, (0.0,) * 4, (0.0,) * 4, (0.0,) * 4)
    with pytest.raises(ModelError, match="N=4 > L=3 with hard-core interaction"):
        fr.make_spec(3, 4, U=fr.INFINITY)
    with pytest.raises(ModelError, match="per-site U mixes finite and infinite entries"):
        fr.make_spec(3, 2, U=(1.0, math.inf, 0.0))


@pytest.mark.parametrize("change,words", [
    ({"L": 2}, "L=2: need L >= 3"),
    ({"hop_mag": (1.0,) * 3}, "hop_mag has length 3, expected L=4"),
    ({"hop_phase": (0.0, math.nan, 0.0, 0.0)}, "hop_phase has a non-finite entry"),
    ({"V": (0.0, 0.0, math.inf, 0.0)}, "V has a non-finite entry"),
    ({"hop_mag": (1.0, 0.0, 1.0, 1.0)}, r"every \|t_x\| must be strictly positive"),
    ({"U": fr.INFINITY}, "U must be a tuple of L=4 numbers, not inf"),
    ({"U": [0.0] * 4}, r"U must be a tuple of L=4 numbers, not \[0.0, 0.0, 0.0, 0.0\]"),
    ({"U": (0.0,) * 3}, "U has length 3, expected L=4"),
    ({"U": (0.0, math.nan, 0.0, 0.0)}, "U has a NaN or -inf entry"),
    ({"U": (math.inf, 1.0, math.inf, math.inf)}, "per-site U mixes finite and infinite entries"),
    ({"N": 9}, r"N=9 outside \[0, 2L\]"),
    ({"N": -1}, r"N=-1 outside \[0, 2L\]"),
    ({"N": 5, "U": (math.inf,) * 4}, "N=5 > L=4 with hard-core interaction"),
])
def test_every_spec_is_checked_however_it_is_built(change, words):
    # no ModelSpec exists unchecked: built directly or by dataclasses.replace
    spec = fr.make_spec(4, 2, (1.0, 1.5, 0.5, 2.0), (0.1, 0.2, 0.3, 0.4), 0.0, 1.0)
    fields = {name: getattr(spec, name) for name in ("L", "N", "hop_mag", "hop_phase", "V", "U")}
    with pytest.raises(ModelError, match=words):
        fr.ModelSpec(**{**fields, **change})
    with pytest.raises(ModelError, match=words):
        replace(spec, **change)


def test_every_spec_holds_folded_phases():
    spec = fr.make_spec(4, 2)
    moved = replace(spec, hop_phase=(0.0, -0.5, 4 * PI, 2 * PI + 0.5))
    assert moved.hop_phase == (0.0, fold_angle(-0.5), 0.0, fold_angle(2 * PI + 0.5))
    assert all(0.0 <= p < 2 * PI for p in moved.hop_phase)
    direct = fr.ModelSpec(4, 2, (1.0,) * 4, (0.0, 0.0, 0.0, 2 * PI + 0.5), (0.0,) * 4, (0.0,) * 4)
    assert direct.hop_phase == (0.0, 0.0, 0.0, fold_angle(2 * PI + 0.5))


def test_all_infinite_list_collapses_to_hardcore():
    spec = fr.make_spec(3, 2, U=(math.inf, math.inf, math.inf))
    assert spec.hardcore


def test_non_finite_model_numbers_are_refused():
    # json reads NaN and -Infinity into model files; of the non-finite
    # numbers only U = +inf, on every site, means something: hard-core mode
    for field in ("hop_mag", "hop_phase", "V"):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ModelError, match=f"{field} has a non-finite entry"):
                fr.make_spec(4, 2, **{field: (1.0, 1.0, bad, 1.0)})
    for u in (math.nan, -math.inf, (1.0, math.nan, 1.0, 1.0), (-math.inf,) * 4):
        with pytest.raises(ModelError, match="U has a NaN or -inf entry"):
            fr.make_spec(4, 2, U=u)
    with pytest.raises(ModelError, match=r"U must be a tuple of L=4 numbers, not -inf"):
        fr.ModelSpec(4, 2, (1.0,) * 4, (0.0,) * 4, (0.0,) * 4, -math.inf)
    assert fr.make_spec(4, 2, U=math.inf).hardcore


def test_with_flux_refuses_a_non_finite_flux():
    spec = fr.make_spec(4, 2)
    for phi in (math.nan, math.inf, -math.inf):
        with pytest.raises(ModelError, match="hop_phase has a non-finite entry"):
            fr.with_flux(spec, phi)
    assert fr.with_flux(spec, 5 * PI).hop_phase == (0.0, 0.0, 0.0, fold_angle(5 * PI))


def test_regauge_preserves_one_particle_spectrum():
    spec = fr.make_spec(4, 2, hop_phase=(PI / 4,) * 4)
    moved = regauge(spec, (0.0, 0.0, 0.0, PI))
    a = np.linalg.eigvalsh(fr.build_one_particle(spec))
    b = np.linalg.eigvalsh(fr.build_one_particle(moved))
    assert np.abs(a - b).max() < 1e-12


def test_regauge_many_body_spectra_agree():
    rng = np.random.default_rng(11)
    mags = rng.uniform(0.5, 2.0, 5)
    phases = rng.uniform(0.0, 2.0 * PI, 5)
    spec = fr.make_spec(5, 3, mags, phases, rng.normal(0, 1, 5), 2.0)
    basis = fr.enumerate_sector(5, 3, 1)
    ref = fr.full_spectrum(fr.build_hamiltonian(spec, basis))
    for _ in range(10):
        redis = rng.uniform(0.0, 2.0 * PI, 4)
        last = spec.flux - redis.sum()
        moved = regauge(spec, tuple(redis) + (last,))
        got = fr.full_spectrum(fr.build_hamiltonian(moved, basis))
        assert np.abs(ref - got).max() < 1e-10


def test_canonical_gauge():
    spec = fr.make_spec(4, 2, hop_phase=(PI / 4,) * 4)
    # the canonical gauge of a model is its own flux retuned onto the last bond
    assert fr.with_flux(spec, spec.flux).hop_phase == (0.0, 0.0, 0.0, pytest.approx(PI))
    flat = fr.make_spec(4, 2)
    assert fr.with_flux(flat, flat.flux).hop_phase == (0.0,) * 4

    rng = np.random.default_rng(3)
    phases = rng.uniform(0, 2 * PI, 6)
    spec6 = fr.make_spec(6, 2, hop_phase=phases)
    canon = fr.with_flux(spec6, spec6.flux)
    assert canon.hop_phase[:5] == (0.0,) * 5
    assert canon.hop_phase[5] == pytest.approx(fold_angle(phases.sum()), abs=1e-12)


@given(st.lists(st.floats(-50.0, 50.0), min_size=3, max_size=8))
@settings(max_examples=60, deadline=None)
def test_flux_invariant_under_folding(phases):
    L = len(phases)
    spec = fr.make_spec(L, 1, hop_phase=phases)
    assert 0.0 <= spec.flux < 2.0 * PI
    # folding each phase individually never changes the class mod 2*pi
    refolded = fr.make_spec(L, 1, hop_phase=[fold_angle(p) for p in phases])
    assert fr.model.angle_dist(spec.flux, refolded.flux) < 1e-9


def test_json_round_trip_exact(tmp_path):
    rng = np.random.default_rng(7)
    spec = fr.make_spec(5, 4, rng.uniform(0.5, 2, 5), rng.uniform(0, 2 * PI, 5),
                        rng.normal(0, 1, 5), rng.normal(0, 3, 5))
    path = tmp_path / "m.json"
    fr.save_model(spec, path)
    again = fr.load_model(path)
    assert again == spec
    # emission is stable byte for byte
    fr.save_model(again, tmp_path / "m2.json")
    assert (tmp_path / "m.json").read_bytes() == (tmp_path / "m2.json").read_bytes()


def test_json_hardcore_spelling():
    spec = fr.make_spec(4, 3, U=fr.INFINITY)
    data = json.loads(dumps_model(spec))
    assert data["U"] == "inf"
    assert from_dict(data) == spec
    assert from_dict(to_dict(spec)).hardcore
    assert spec.U == (fr.INFINITY,) * 4


@pytest.mark.parametrize("text,value", [
    ("pi", PI),
    ("1/2pi", PI / 2),
    ("3/2pi", 3 * PI / 2),
    ("2pi", 2 * PI),
    ("-pi", -PI),
    ("0.75", 0.75),
])
def test_parse_angle(text, value):
    assert parse_angle(text) == pytest.approx(value, abs=1e-15)


def test_parse_angle_rejects_garbage():
    with pytest.raises(ValueError):
        parse_angle("pie")


@pytest.mark.parametrize("text", ["1/0pi", "0/0 pi", "nan", "inf", "-inf", "nanpi", "1e308pi"])
def test_parse_angle_refuses_non_finite_angles(text):
    with pytest.raises(ValueError, match="cannot parse angle"):
        parse_angle(text)


def test_format_angle_round_values():
    assert format_angle(PI / 2) == "1/2pi"
    assert format_angle(0.0) == "0"
    assert format_angle(PI) == "pi"


@given(st.floats(-100.0, 100.0))
@settings(max_examples=200, deadline=None)
def test_angle_fold_parse_round_trip(theta):
    folded = fold_angle(theta)
    assert 0.0 <= folded < 2 * PI
    assert fold_angle(folded) == folded
    assert angle_dist(folded, theta) <= 1e-13 * max(1.0, abs(theta))
    assert parse_angle(repr(folded)) == folded
    # format_angle keeps 12 significant digits, or snaps to a multiple p/q pi
    # within 1e-9 / q of p/q in units of pi
    assert angle_dist(parse_angle(format_angle(theta)), folded) <= 1e-9 * PI + 1e-11


@given(st.integers(-24, 24), st.sampled_from([1, 2, 3, 4, 6]))
@settings(max_examples=100, deadline=None)
def test_rational_multiples_of_pi_round_trip(p, q):
    phi = parse_angle(f"{p}/{q}pi")
    assert phi == p / q * PI
    text = format_angle(phi)
    assert "pi" in text or text == "0"
    assert angle_dist(parse_angle(text), phi) <= 1e-12


@st.composite
def gauged_models(draw):
    L = draw(st.integers(3, 6))
    hardcore = draw(st.booleans())
    N = draw(st.integers(1, L if hardcore else 2 * L - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spec = fr.make_spec(L, N, rng.uniform(0.5, 2.0, L), rng.uniform(0, 2 * PI, L),
                        rng.normal(0.0, 1.0, L),
                        fr.INFINITY if hardcore else rng.uniform(-3.0, 3.0, L))
    basis = fr.enumerate_sector(L, N, N % 2, hardcore)
    assume(basis.dim <= 400)
    shifts = rng.uniform(-2 * PI, 2 * PI, L - 1)
    return spec, basis, tuple(shifts) + (spec.flux - shifts.sum(),)


@given(gauged_models())
@settings(max_examples=25, deadline=None)
def test_spectra_invariant_under_regauge(model):
    spec, basis, phases = model
    moved = regauge(spec, phases)
    a = fr.full_spectrum(fr.build_hamiltonian(spec, basis))
    b = fr.full_spectrum(fr.build_hamiltonian(moved, basis))
    assert np.abs(a - b).max() <= 1e-10 * max(1.0, np.abs(a).max())
