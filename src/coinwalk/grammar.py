"""Text formats consumed by the CLI.

Three small grammars:

* complex literals ``a+bi`` (also ``a``, ``bi``, ``i``, ``-i``),
* angle literals in radians, with ``pi`` shorthand (``pi/4``, ``3pi/4``,
  ``-pi/2``, ``0.5pi``),
* walk configs and initial-state descriptions, documented in the README.

Walk config, one key per line (``#`` comments allowed)::

    dim 1
    coin 0.7071067811865476+0i, 0.7071067811865476+0i
    coin 0.7071067811865476+0i, -0.7071067811865476+0i
    shift 1
    shift -1

State grammar::

    local v=0 chi=(1,0)
    dist {-1:0.7071, 1:0.7071} chi=(1,0)
    general {-1:(0.7071,0), 1:(0,0.7071)}

Amplitudes are renormalized to unit norm if they are within 1e-3 of it
(so rounded literals like 0.7071 are accepted); larger deviations are
rejected as errors rather than silently rescaled. Every other rule of a
state, mixed coin dimensions among them, is checked by the state itself.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import FormatError
from .states import DistributedState, GeneralState, InitialState, LocalState, _norm
from .walk import WalkSpec


def parse_complex(text: str) -> complex:
    """Parse a complex literal using ``i`` for the imaginary unit."""
    s = text.strip().replace(" ", "")
    try:
        z = complex(s[:-1] + "j" if s.endswith(("i", "I")) else s)
    except ValueError as exc:
        raise FormatError(f"bad complex literal {text!r}") from exc
    if not np.isfinite(z):
        raise FormatError(f"complex literal {text!r} is not finite")
    return z


_PI_RE = re.compile(
    r"^(?P<sign>[+-]?)(?P<coef>\d+(?:\.\d+)?)?\s*\*?\s*pi\s*(?:/\s*(?P<div>\d+(?:\.\d+)?))?$",
    re.IGNORECASE,
)


def parse_angle(text: str) -> float:
    """Parse a finite angle in radians; accepts plain floats and ``pi`` literals."""
    s = text.strip()
    m = _PI_RE.match(s)
    try:
        if m:
            value = np.pi * float(m.group("coef") or 1.0) / float(m.group("div") or 1.0)
            value = -value if m.group("sign") == "-" else value
        else:
            value = float(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"bad angle literal {text!r} (radians; e.g. 0.785 or pi/4)") from exc
    if not np.isfinite(value):
        raise FormatError(f"angle {text!r} is not finite")
    return value


def _parse_int_vector(text: str, separators: str = r"[,\s]+") -> tuple[int, ...]:
    try:
        vector = tuple(int(p) for p in re.split(separators, text.strip()) if p)
    except ValueError as exc:
        raise FormatError(f"bad integer vector {text!r}") from exc
    if not vector:
        raise FormatError("empty integer vector")
    return vector


def parse_walk_config(text: str) -> WalkSpec:
    """Parse the plain-text walk config format (see module docstring)."""
    dim: int | None = None
    coin_rows: list[list[complex]] = []
    shifts: list[tuple[int, ...]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, rest = line.partition(" ")
        if key == "dim":
            if dim is not None:
                raise FormatError(f"line {lineno}: repeated dim")
            try:
                dim = int(rest)
            except ValueError as exc:
                raise FormatError(f"line {lineno}: bad dim {rest!r}") from exc
        elif key == "coin":
            coin_rows.append([parse_complex(p) for p in rest.split(",")])
        elif key == "shift":
            shifts.append(_parse_int_vector(rest))
        else:
            raise FormatError(f"line {lineno}: unknown key {key!r}")
    if dim is None:
        raise FormatError("missing 'dim' line")
    if not coin_rows:
        raise FormatError("missing 'coin' rows")
    try:
        return WalkSpec(lattice_dim=dim, coin_dim=len(coin_rows), shifts=shifts, coin=coin_rows)
    except Exception as exc:
        raise FormatError(f"invalid walk config: {exc}") from exc


def _renormalize(values: list[np.ndarray], what: str) -> list[np.ndarray]:
    """Each of ``values`` over their joint scaled norm, :func:`~coinwalk.states._norm`.

    A zero entry adds nothing to it, so listing an unoccupied site changes no
    byte, and amplitudes too large to square give a large norm, not an overflow.
    """
    norm = _norm(np.concatenate(values))
    if abs(norm - 1.0) > 1e-3:
        raise FormatError(f"{what} has norm {norm:.6g}; must be within 1e-3 of 1")
    return [v / norm for v in values]


def _parse_chi(text: str) -> np.ndarray:
    return _renormalize([_parse_vector_literal(text)], "chi")[0]


def _parse_vector_literal(text: str) -> np.ndarray:
    s = text.strip()
    if not (s.startswith("(") and s.endswith(")")):
        raise FormatError(f"expected a parenthesized vector, got {text!r}")
    return np.array([parse_complex(p) for p in s[1:-1].split(",")], dtype=np.complex128)


_TOP_LEVEL_COMMA = re.compile(r",(?![^()]*\))")


def _split_map_entries(body: str) -> dict[tuple[int, ...], str]:
    # split '{pos: value, pos: value}' on the commas outside parentheses; a
    # trailing comma is allowed
    parts = _TOP_LEVEL_COMMA.split(body)
    if not parts[-1].strip():
        parts.pop()
    if not parts:
        raise FormatError("the map lists no site")
    entries: dict[tuple[int, ...], str] = {}
    for part in parts:
        pos_s, sep, val_s = part.partition(":")
        if not sep:
            raise FormatError(f"bad map entry {part!r}")
        pos = _parse_int_vector(pos_s, r"[;\s]+")
        if pos in entries:
            raise FormatError(f"position {';'.join(map(str, pos))} is repeated in the map")
        entries[pos] = val_s.strip()
    return entries


def parse_state(text: str) -> InitialState:
    """Parse the initial-state grammar (see module docstring)."""
    s = text.strip()
    kind, _, rest = s.partition(" ")
    try:
        if kind == "local":
            m = re.match(r"^v=(?P<v>[-\d,\s]+?)\s+chi=(?P<chi>\(.*\))$", rest.strip())
            if not m:
                raise FormatError(f"bad local state {text!r}")
            chi = _parse_chi(m.group("chi"))
            return LocalState(position=_parse_int_vector(m.group("v")), chi=chi)
        if kind == "dist":
            m = re.match(r"^\{(?P<map>.*)\}\s+chi=(?P<chi>\(.*\))$", rest.strip())
            if not m:
                raise FormatError(f"bad dist state {text!r}")
            entries = _split_map_entries(m.group("map"))
            amps = np.array([parse_complex(v) for v in entries.values()])
            [amps] = _renormalize([amps], "position amplitudes")
            chi = _parse_chi(m.group("chi"))
            return DistributedState(
                amplitudes={pos: complex(a) for pos, a in zip(entries, amps)}, chi=chi
            )
        if kind == "general":
            m = re.match(r"^\{(?P<map>.*)\}$", rest.strip())
            if not m:
                raise FormatError(f"bad general state {text!r}")
            entries = _split_map_entries(m.group("map"))
            vectors = [_parse_vector_literal(v) for v in entries.values()]
            coeffs = _renormalize(vectors, "general state")
            return GeneralState(amplitudes=dict(zip(entries, coeffs)))
    except FormatError:
        raise
    except Exception as exc:
        raise FormatError(f"bad state {text!r}: {exc}") from exc
    raise FormatError(f"unknown state kind {kind!r} (expected local, dist or general)")
