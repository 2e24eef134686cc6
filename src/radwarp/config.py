"""Flat dotted-key configuration files for the command-line runner.

Format: one `section.key = value` per line, `#` comments.  Values are JSON
literals where possible (numbers, booleans, quoted strings, [lists]); bare
words are taken as strings, and the token `inf` stands for an unbounded
radius.  Example::

    manifold.warp = "hyperbolic"
    manifold.R = "inf"
    manifold.N = 3
    family.1.kind = "gaussian"
    family.1.a = 1.0
    quadrature.tol = 1e-10
    check.1.kind = "identity"
    check.1.k = 3
    check.2.kind = "decay_lemma"
    check.2.p = 2
    check.2.N = 4              # per-check override of the manifold section
    output.report = "report.json"

Every check entry may override the manifold (warp, R, N) and restrict the
family set; anything omitted falls back to the manifold/family sections or
the built-in defaults.  A key the program does not read (a typo, say), a
family field its kind's constructor does not take and a check field its kind
does not read are configuration errors.  A `dump.*` entry is a check entry
without `kind`: `radwarp dump` takes the kind from the quantity it writes
and validates the entry as that check.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from functools import cached_property

from .errors import ConfigError, RadwarpError
from .funcspace import FAMILY_KINDS, RadialFunction, default_families
from .manifold import WARP_KINDS, ManifoldSpec, WarpSpec
from .verify import CHECK_KINDS, CHECK_TABLE, OPTIONAL_FIELDS, CheckSpec, GridSpec


# One reader per scalar type of config value: any other value raises a
# ConfigError that names the field.
def as_int(value, name: str) -> int:
    """An int, or a float with an integral value: not text, a boolean or a
    fraction."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ConfigError(f"{name} must be an integer, got {value!r}")


def as_float(value, name: str) -> float:
    """A finite JSON number: not text, a boolean, NaN, ±Infinity or an
    integer too large for a float."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if number and abs(value) <= sys.float_info.max:
        return float(value)
    raise ConfigError(f"{name} must be a finite number, got {value!r}")


def as_text(value, name: str) -> str:
    """A quoted string or a bare word."""
    if isinstance(value, str):
        return value
    raise ConfigError(f"{name} must be text, got {value!r}")


# how each check field given in a config is read (CheckSpec checks the
# variant name); a field left out keeps the CheckSpec or GridSpec default
_CHECK_VALUES = {"k": as_int, "p": as_float, "q": as_float, "theta": as_float, "j": as_int,
                 "tol": as_float, "variant": lambda value, name: value,
                 "grid": as_int, "grid_lo": as_float, "grid_hi": as_float}
_GRID_ATTRS = {"grid": "n", "grid_lo": "lo", "grid_hi": "hi"}

# the fields the program reads in each section; any other key is an error.
# A family takes the fields its constructor takes (see make_family), and a
# check reads an optional field only when its kind's table row lists it.
# The dump section is a check entry whose kind the dumped quantity names.
_CHECK_FIELDS = {"kind", "warp", "R", "N", "families", *_CHECK_VALUES}
_FIELDS = {
    "manifold": {"warp", "R", "N"},
    "family": None,
    "check": _CHECK_FIELDS,
    "quadrature": {"tol"},
    "output": {"report", "csv"},
    "dump": _CHECK_FIELDS - {"kind"},
}


def _parse_value(raw: str):
    raw = raw.strip()
    try:
        return json.loads(raw)
    except (json.JSONDecodeError, ValueError):
        return raw


def _strip_comment(line: str) -> str:
    if "#" not in line:
        return line
    out = []
    quoted = False
    for ch in line:
        if ch == '"':
            quoted = not quoted
        if ch == "#" and not quoted:
            break
        out.append(ch)
    return "".join(out)


@dataclass
class RunConfig:
    """Parsed configuration: raw sections plus resolved check specs."""

    manifold: dict = field(default_factory=dict)
    families: dict = field(default_factory=dict)  # index -> {key: value}
    checks: dict = field(default_factory=dict)  # index -> {key: value}
    quadrature: dict = field(default_factory=dict)
    output: dict = field(default_factory=dict)
    dump: dict = field(default_factory=dict)
    source_text: str = ""

    @cached_property
    def family_pool(self) -> tuple:
        """The configured families in index order, built on first read."""
        return tuple(make_family(self.families[i]) for i in sorted(self.families))


def parse_config(text: str) -> RunConfig:
    cfg = RunConfig(source_text=text)
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = _strip_comment(line).strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key, _, raw = stripped.partition("=")
        parts = key.strip().split(".")
        value = _parse_value(raw)
        section = parts[0]
        if section not in _FIELDS:
            raise ConfigError(f"line {lineno}: unknown section {section!r}")
        if section in ("family", "check"):
            if len(parts) != 3:
                raise ConfigError(
                    f"line {lineno}: {section} keys look like {section}.<index>.<field>"
                )
            try:
                idx = int(parts[1])
            except ValueError as exc:
                raise ConfigError(f"line {lineno}: bad {section} index {parts[1]!r}") from exc
            store = cfg.families if section == "family" else cfg.checks
            entry = store.setdefault(idx, {})
        else:
            if len(parts) != 2:
                raise ConfigError(f"line {lineno}: {section} keys have one subfield")
            entry = getattr(cfg, section)
        if _FIELDS[section] is not None and parts[-1] not in _FIELDS[section]:
            raise ConfigError(f"line {lineno}: unknown key {key.strip()!r}")
        entry[parts[-1]] = value
    return cfg


# ---------------------------------------------------------------------------
# resolution into domain objects


def make_warp(tag, radius) -> WarpSpec:
    """Call the WarpSpec constructor named by `tag` (`custom` for a list of
    series coefficients), passing the radius (a number or "inf") only when
    one is given, so that each default radius is the constructor's."""
    kwargs = {} if radius is None else {
        "radius": math.inf if radius == "inf" else as_float(radius, "R")}
    if isinstance(tag, list):
        return WarpSpec.custom(tuple(as_float(c, "a warp coefficient") for c in tag), **kwargs)
    if tag == "custom_odd_series":
        raise ConfigError("a custom warp is given by its list of series coefficients")
    if tag not in WARP_KINDS:
        raise ConfigError(f"unknown warp tag {tag!r}")
    return getattr(WarpSpec, tag)(**kwargs)


def make_family(entry: dict) -> RadialFunction:
    """Call the RadialFunction constructor named by `kind` with the other
    fields (numbers; `coeffs` a list of numbers) as keyword arguments."""
    fields = dict(entry)
    kind = fields.pop("kind", None)
    if kind not in FAMILY_KINDS:
        raise ConfigError(f"unknown family kind {kind!r}")
    try:
        kwargs = {
            key: tuple(as_float(c, "a coefficient") for c in value) if key == "coeffs"
            else as_float(value, key)
            for key, value in fields.items()
        }
        return getattr(RadialFunction, kind)(**kwargs)
    except (RadwarpError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad parameters for family {kind!r}: {exc}") from exc


def _resolve_manifold(cfg: RunConfig, entry: dict) -> ManifoldSpec:
    warp_tag = entry.get("warp", cfg.manifold.get("warp"))
    if warp_tag is None:
        raise ConfigError("no warp given (manifold.warp or a per-check override)")
    radius = entry.get("R", cfg.manifold.get("R"))
    n = entry.get("N", cfg.manifold.get("N"))
    if n is None:
        raise ConfigError("no dimension given (manifold.N or a per-check override)")
    try:
        return ManifoldSpec(make_warp(warp_tag, radius), as_int(n, "N"))
    except RadwarpError as exc:
        raise ConfigError(str(exc)) from exc


def _resolve_families(cfg: RunConfig, entry: dict, m: ManifoldSpec, name: str):
    """The configured families in index order, or the default set for m,
    restricted to entry's `families` (one name or label, or a list) if given."""
    pool = cfg.family_pool if cfg.families else default_families(m.warp.radius)
    subset = entry.get("families")
    if subset is None:
        return pool
    subset = [as_text(s, name) for s in (subset if isinstance(subset, list) else [subset])]
    chosen = [f for f in pool if f.family in subset or f.label in subset]
    if not chosen:
        raise ConfigError(f"family subset {subset!r} matches nothing")
    return tuple(chosen)


def quadrature_tol(cfg: RunConfig, override: float | None = None) -> float:
    """quadrature.tol, checked even when `override` (--tol) replaces it."""
    tol = as_float(cfg.quadrature.get("tol", 1e-10), "quadrature.tol")
    return tol if override is None else as_float(override, "--tol")


def output_path(cfg: RunConfig, key: str, default: str, override: str | None) -> str:
    """output.<key>, checked even when `override` (--out) replaces it."""
    path = as_text(cfg.output.get(key, default), f"output.{key}")
    return override or path


def build_check_spec(cfg: RunConfig, entry: dict, name: str, quad_tol: float,
                     grid_override: int | None = None) -> CheckSpec:
    """The validated CheckSpec of one check entry; errors name its fields
    `<name>.<field>`.  Any invalid combination raises ConfigError."""
    kind = entry.get("kind")
    if kind not in CHECK_KINDS:
        raise ConfigError(f"{name}: unknown kind {kind!r}")
    unread = sorted((entry.keys() & OPTIONAL_FIELDS) - CHECK_TABLE[kind].reads)
    if unread:
        raise ConfigError(f"{name} ({kind}) does not read {', '.join(unread)}")
    m = _resolve_manifold(cfg, entry)
    families = _resolve_families(cfg, entry, m, f"{name}.families")
    given = {key: read(entry[key], f"{name}.{key}")
             for key, read in _CHECK_VALUES.items() if key in entry}
    if grid_override is not None:
        given["grid"] = grid_override
    grid = GridSpec(**{attr: given.pop(key) for key, attr in _GRID_ATTRS.items() if key in given})
    try:
        return CheckSpec(kind=kind, manifold=m, families=families, grid=grid,
                         quad_tol=quad_tol, **given)
    except RadwarpError as exc:
        raise ConfigError(f"{name} ({kind}): {exc}") from exc


def build_check_specs(cfg: RunConfig, grid_override: int | None = None,
                      tol_override: float | None = None) -> list[CheckSpec]:
    """Validated CheckSpec list, one per check entry in index order."""
    if not cfg.checks:
        raise ConfigError("configuration defines no checks")
    quad_tol = quadrature_tol(cfg, tol_override)
    return [build_check_spec(cfg, cfg.checks[idx], f"check.{idx}", quad_tol, grid_override)
            for idx in sorted(cfg.checks)]


DEFAULT_SUITE = """\
# Default verification suite over the four built-in warping profiles.
manifold.warp = "hyperbolic"
manifold.R = "inf"
manifold.N = 3

quadrature.tol = 1e-10

check.1.kind = "identity"
check.1.warp = "hyperbolic"
check.1.N = 3
check.1.k = 3
check.1.grid = 64

check.2.kind = "identity"
check.2.warp = "tanh_cap"
check.2.N = 4
check.2.k = 4
check.2.grid = 48

check.3.kind = "gradient_inequality"
check.3.warp = "spherical"
check.3.R = 3.14159265358979
check.3.N = 3
check.3.k = 3
check.3.grid = 64

check.4.kind = "gradient_inequality"
check.4.warp = "euclidean"
check.4.N = 5
check.4.k = 4
check.4.grid = 48

check.5.kind = "k1_norm_equality"
check.5.warp = "hyperbolic"
check.5.N = 3
check.5.p = 2

check.6.kind = "k1_norm_equality"
check.6.warp = "euclidean"
check.6.N = 4
check.6.p = 1

check.7.kind = "radial_lemma_power"
check.7.warp = "euclidean"
check.7.R = 1.0
check.7.N = 3
check.7.k = 1
check.7.p = 2

check.8.kind = "radial_lemma_log"
check.8.warp = "tanh_cap"
check.8.R = 2.0
check.8.N = 4
check.8.k = 2
check.8.p = 2

check.9.kind = "decay_lemma"
check.9.warp = "hyperbolic"
check.9.N = 3
check.9.p = 2

check.10.kind = "decay_lemma"
check.10.warp = "euclidean"
check.10.N = 2
check.10.p = 1

check.11.kind = "hardy"
check.11.warp = "euclidean"
check.11.R = 1.0
check.11.N = 3
check.11.k = 1
check.11.j = 1
check.11.p = 2

check.12.kind = "embedding_ratio"
check.12.warp = "euclidean"
check.12.R = 1.0
check.12.N = 3
check.12.k = 1
check.12.p = 2
check.12.q = 6

check.13.kind = "embedding_ratio"
check.13.warp = "hyperbolic"
check.13.N = 4
check.13.k = 1
check.13.p = 2
check.13.theta = 1
check.13.q = 5
check.13.families = ["gaussian", "polynomial_bump"]

check.14.kind = "counterexample"
check.14.warp = "tanh_cap"
check.14.R = 2.0
check.14.N = 2
check.14.k = 3
check.14.p = 2

check.15.kind = "asymptotic_leading"
check.15.warp = "hyperbolic"
check.15.N = 3
check.15.k = 3

check.16.kind = "asymptotic_leading"
check.16.warp = "euclidean"
check.16.N = 4
check.16.k = 4

output.report = "report.json"
"""
