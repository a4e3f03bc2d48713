"""Ring model definition: hoppings with phases, potentials, interaction, flux retuning.

A model lives on the ring {1, .., L} (site L+1 == site 1). Bond x connects
sites x and x+1 and carries a hopping amplitude |t_x| * exp(i theta_x).
Only the total phase around the ring (the flux) is gauge invariant; the
per-bond distribution is a gauge choice. Each site carries a coupling U_x;
U_x = +inf on every site is the hard-core mode. A ModelSpec checks itself
when it is built, so every spec in hand is a valid model.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ModelError

TWO_PI = 2.0 * math.pi

#: Sentinel for the hard-core (projected) interaction.
INFINITY = float("inf")


def fold_angle(theta: float) -> float:
    """Fold an angle into [0, 2*pi)."""
    out = math.fmod(float(theta), TWO_PI)
    if out < 0.0:
        out += TWO_PI
    if out >= TWO_PI:  # fmod can land exactly on 2*pi after the correction
        out -= TWO_PI
    return out


def angle_dist(a: float, b: float) -> float:
    """Distance between two angles on the circle, in [0, pi]."""
    d = fold_angle(a - b)
    return min(d, TWO_PI - d)


def unit_phase(theta) -> np.ndarray:
    """exp(i*theta) elementwise, exactly -1 at theta = +-pi, where np.exp
    leaves an imaginary part of 1.2e-16 (it is exactly 1 at 0 already), so
    that operators at the time-reversal-invariant fluxes 0 and pi are real."""
    theta = np.asarray(theta)
    return np.where(np.abs(theta) == math.pi, -1.0 + 0j, np.exp(1j * theta))


@dataclass(frozen=True)
class ModelSpec:
    """Immutable Hubbard-ring model.

    Fields
    ------
    L        : ring length (>= 3)
    N        : particle number (0 <= N <= 2L, <= L in hard-core mode)
    hop_mag  : length-L positive hopping magnitudes |t_x|
    hop_phase: length-L bond phases theta_x, folded into [0, 2*pi)
    V        : length-L on-site potentials
    U        : length-L on-site couplings; INFINITY on every site is the
               hard-core (no double occupancy) mode

    Every number is finite but U = +inf on all sites. Construction checks
    this and folds the phases, whether by make_spec, ModelSpec(...) or
    dataclasses.replace: a broken spec raises ModelError.
    """

    L: int
    N: int
    hop_mag: tuple[float, ...]
    hop_phase: tuple[float, ...]
    V: tuple[float, ...]
    U: tuple[float, ...]

    def __post_init__(self):
        if self.L < 3:
            raise ModelError(f"L={self.L}: need L >= 3")
        for name, seq in (("hop_mag", self.hop_mag), ("hop_phase", self.hop_phase), ("V", self.V)):
            if len(seq) != self.L:
                raise ModelError(f"{name} has length {len(seq)}, expected L={self.L}")
            if not all(map(math.isfinite, seq)):
                raise ModelError(f"{name} has a non-finite entry")
        if any(m <= 0.0 for m in self.hop_mag):
            raise ModelError("every |t_x| must be strictly positive")

        u = self.U
        if not isinstance(u, tuple):
            raise ModelError(f"U must be a tuple of L={self.L} numbers, not {u!r}")
        if len(u) != self.L:
            raise ModelError(f"U has length {len(u)}, expected L={self.L}")
        if any(math.isnan(v) or v == -INFINITY for v in u):
            raise ModelError("U has a NaN or -inf entry: only +inf selects hard-core")
        infs = [math.isinf(v) for v in u]
        if any(infs) and not all(infs):
            raise ModelError("per-site U mixes finite and infinite entries")

        if self.N < 0 or self.N > 2 * self.L:
            raise ModelError(f"N={self.N} outside [0, 2L]")
        if self.hardcore and self.N > self.L:
            raise ModelError(f"N={self.N} > L={self.L} with hard-core interaction")
        object.__setattr__(self, "hop_phase", tuple(fold_angle(p) for p in self.hop_phase))

    @property
    def hardcore(self) -> bool:
        """U = +inf on every site; construction admits all sites or none."""
        return self.U[0] == INFINITY

    @property
    def flux(self) -> float:
        """Total phase around the ring, folded into [0, 2*pi)."""
        return fold_angle(math.fsum(self.hop_phase))

    def amplitudes(self) -> np.ndarray:
        """Complex bond amplitudes t_x = |t_x| exp(i theta_x), exactly
        -|t_x| at theta_x = pi."""
        return np.asarray(self.hop_mag) * unit_phase(self.hop_phase)


def make_spec(L, N, hop_mag=None, hop_phase=None, V=None, U=0.0) -> ModelSpec:
    """Build a ModelSpec; scalars are broadcast to length L.

    ``U=INFINITY`` (or any list of all-+inf entries) selects hard-core mode.
    """

    def _broadcast(val, default):
        if val is None:
            val = default
        if isinstance(val, (int, float)):
            return tuple(float(val) for _ in range(L))
        return tuple(float(v) for v in val)

    mags = _broadcast(hop_mag, 1.0)
    phases = _broadcast(hop_phase, 0.0)
    pots = _broadcast(V, 0.0)
    return ModelSpec(int(L), int(N), mags, phases, pots, _broadcast(U, 0.0))


def with_flux(spec: ModelSpec, phi: float) -> ModelSpec:
    """Same ring, retuned to total flux phi (canonical gauge)."""
    return replace(spec, hop_phase=(0.0,) * (spec.L - 1) + (float(phi),))


def to_dict(spec: ModelSpec) -> dict:
    u: object
    if spec.hardcore:
        u = "inf"
    else:
        u = list(spec.U)
    return {
        "L": spec.L,
        "N": spec.N,
        "hop": [{"mag": m, "theta": p} for m, p in zip(spec.hop_mag, spec.hop_phase)],
        "V": list(spec.V),
        "U": u,
    }


def _number(value, name: str, integer: bool = False, finite: bool = False):
    """value if a JSON number (an integer or finite if asked), else a
    ModelError naming the field; None is a field missing or null."""
    if value is None:
        raise ModelError(f"model field {name} is missing or null")
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        raise ModelError(f"model field {name} must be {'an integer' if integer else 'a number'}, "
                         f"not {json.dumps(value)}")
    if finite and not math.isfinite(value):
        raise ModelError(f"model field {name} must be finite, not {value!r}")
    return value


def _numbers(value, name: str):
    """A JSON number or a list of them, as make_spec broadcasts it."""
    if isinstance(value, list):
        return [_number(v, f"{name}[{k}]") for k, v in enumerate(value)]
    return _number(value, name)


def from_dict(data) -> ModelSpec:
    """The model of a parsed model file. A missing field, or a field of the
    wrong JSON type, raises ModelError naming it."""
    if not isinstance(data, dict):
        raise ModelError("a model file holds one JSON object with fields L, N and hop")
    L, N = (_number(data.get(key), key, integer=True) for key in ("L", "N"))
    hop = data.get("hop")
    if not isinstance(hop, list) or not all(isinstance(h, dict) for h in hop):
        raise ModelError('model field hop must be a list of {"mag": ..., "theta": ...} objects')
    if len(hop) != L:
        raise ModelError(f"model field hop has {len(hop)} entries, expected L={L}")
    mags, phases = ([_number(h.get(key), f"hop[{k}].{key}", finite=True) for k, h in enumerate(hop)]
                    for key in ("mag", "theta"))
    u = data.get("U", 0.0)
    if isinstance(u, str):
        if u.lower() != "inf":
            raise ModelError(f"unrecognized U value {u!r}")
        u = INFINITY
    return make_spec(L, N, mags, phases, _numbers(data.get("V", 0.0), "V"), _numbers(u, "U"))


def dumps_model(spec: ModelSpec) -> str:
    return json.dumps(to_dict(spec), indent=2) + "\n"


def load_model(path) -> ModelSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return from_dict(json.load(fh))


def save_model(spec: ModelSpec, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dumps_model(spec))


def parse_angle(text: str) -> float:
    """Parse an angle given in radians or as a rational multiple of pi.

    Accepts plain floats ("1.5707"), "pi", "3pi", "1/2pi", "3/2 pi".
    """
    s = text.strip().lower().replace(" ", "")
    head, pi, tail = s.partition("pi")
    if tail:
        raise ValueError(f"cannot parse angle {text!r}")
    if not pi:
        value = float(s)
    elif not head or head in "+-":
        value = float(head + "1") * math.pi
    elif "/" in head:
        p, q = map(float, head.split("/"))
        value = p / q * math.pi if q else math.nan
    else:
        value = float(head) * math.pi
    if not math.isfinite(value):
        raise ValueError(f"cannot parse angle {text!r}")
    return value
