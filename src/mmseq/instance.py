"""Problem instances: stations, vehicles, validation, generation, file I/O.

An instance is a paced assembly line with closed station borders: |K|
stations, a common cycle time c, per-station worker operating lengths
l_k >= c, and |V| vehicles, each with one processing time per station,
an electric-vehicle flag and a failure probability.  Durations are
integer ticks (see mmseq.timeunits).

The on-disk format is a small fixed-order YAML document, version tag
``mms-instance/1``, with every number written at 1e-4 resolution.
"""

from __future__ import annotations

import hashlib
import math
import warnings
from dataclasses import dataclass
from decimal import Context, Decimal
from pathlib import Path

import yaml

from .errors import ConfigError, ParseError
from .seeding import make_rng
from .timeunits import TICKS_PER_TU, format_ticks, quantize, to_ticks

LOW_RISK = "low"
HIGH_RISK = "high"

FORMAT_VERSION = "mms-instance/1"

# Longest station length or processing time (the cycle time is capped
# by the station lengths): 10^6 TU = 10^10 ticks.  The evaluators run
# the station recursion in int32 when max_k(l_k + c + sum_v |p_vk - c|)
# < 2^31 ticks and in int64 otherwise (see evaluator), and sum ticks in
# int64, so with this bound the sums stay below 2^63 for up to 9 * 10^8
# vehicle-station terms instead of wrapping or overflowing on the way
# into numpy.
MAX_DURATION = 10**6 * TICKS_PER_TU

# libyaml's parser where PyYAML was built with it: the same safe
# constructor and resolver as yaml.safe_load, several times faster
SAFE_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class _Loader(SAFE_LOADER):
    """SAFE_LOADER, but a float scalar loads as the _Number of its text,
    so no digit is rounded away before the grid test of _ticks; one that
    Decimal cannot read (.inf, .nan, 1:30.5) loads as PyYAML's float."""


class _Number(Decimal):
    """A number as the file writes it; error messages quote it so."""
    __repr__ = Decimal.__str__


def _decimal(loader, node):
    try:
        return _Number(loader.construct_scalar(node).replace("_", ""))
    except ArithmeticError:
        return loader.construct_yaml_float(node)


_Loader.add_constructor("tag:yaml.org,2002:float", _decimal)


@dataclass(frozen=True)
class Station:
    id: int
    length: int  # ticks; worker operating length, >= instance cycle time


@dataclass(frozen=True)
class Vehicle:
    id: int
    is_ev: bool
    processing_times: tuple[int, ...]  # ticks, one entry per station
    failure_prob: float
    risk_class: str  # LOW_RISK or HIGH_RISK

    @classmethod
    def of(cls, id: int, is_ev: bool, processing_times, failure_prob: float = 0.0,
           risk_class: str = LOW_RISK) -> "Vehicle":
        """Build from TU durations (floats/strings) instead of raw ticks."""
        return cls(id, is_ev, tuple(to_ticks(p) for p in processing_times),
                   failure_prob, risk_class)


@dataclass(frozen=True)
class Instance:
    cycle_time: int  # ticks
    stations: tuple[Station, ...]
    vehicles: tuple[Vehicle, ...]

    @classmethod
    def of(cls, cycle_time, station_lengths, vehicles) -> "Instance":
        """Build from TU durations; stations are numbered 0..K-1 in order."""
        sts = tuple(Station(k, to_ticks(l)) for k, l in enumerate(station_lengths))
        return cls(to_ticks(cycle_time), sts, tuple(vehicles))

    @property
    def n_stations(self) -> int:
        return len(self.stations)

    @property
    def n_vehicles(self) -> int:
        return len(self.vehicles)

    def processing(self, k: int, v: int) -> int:
        return self.vehicles[v].processing_times[k]

    def processing_rows(self) -> list[list[int]]:
        """Per-station rows of processing times indexed by vehicle id."""
        return [[veh.processing_times[k] for veh in self.vehicles]
                for k in range(self.n_stations)]

    def beta(self, k: int) -> float:
        """Carried-position bound ratio (l_k - c) / min_v p_kv, dimensionless."""
        pmin = min(veh.processing_times[k] for veh in self.vehicles)
        return (self.stations[k].length - self.cycle_time) / pmin


def validate(instance: Instance) -> list[str]:
    """Structural checks; returns a list of violation messages (empty when valid)."""
    out = []
    too_long = f"must be at most {MAX_DURATION // TICKS_PER_TU} TU"
    if instance.cycle_time <= 0:
        out.append("cycle_time: must be positive")
    if instance.n_stations < 1:
        out.append("stations: need at least one station")
    if instance.n_vehicles < 2:
        out.append("vehicles: need at least two vehicles")
    for st in instance.stations:
        if st.length <= 0:
            out.append(f"station {st.id}: length must be positive")
        if st.length < instance.cycle_time:
            out.append(f"station {st.id}: length below cycle time")
        if st.length > MAX_DURATION:
            out.append(f"station {st.id}: length {too_long}")
    ids = [st.id for st in instance.stations]
    if ids != list(range(len(ids))):
        out.append("stations: ids must be 0..K-1 in order")
    vids = [veh.id for veh in instance.vehicles]
    if vids != list(range(len(vids))):
        out.append("vehicles: ids must be 0..V-1 in order")
    for veh in instance.vehicles:
        if len(veh.processing_times) != instance.n_stations:
            out.append(f"vehicle {veh.id}: expected {instance.n_stations} processing times")
        if any(p <= 0 for p in veh.processing_times):
            out.append(f"vehicle {veh.id}: processing times must be positive")
        if any(p > MAX_DURATION for p in veh.processing_times):
            out.append(f"vehicle {veh.id}: processing times {too_long}")
        if not (0.0 <= veh.failure_prob < 0.5):
            out.append(f"vehicle {veh.id}: failure_prob must lie in [0, 0.5)")
        if veh.risk_class not in (LOW_RISK, HIGH_RISK):
            out.append(f"vehicle {veh.id}: unknown risk_class {veh.risk_class!r}")
    return out


# ---------------------------------------------------------------------------
# generation

@dataclass(frozen=True)
class GeneratorConfig:
    """Random-instance recipe.  All durations in TU (converted on build).

    processing_profile holds one (min, mean, max) triple per station;
    draws are triangular with the mode placed so the distribution mean
    matches the target mean, clipped into [min, max].  EV draws at the
    first station (the battery station) come from the upper third of
    that station's range.
    """
    n_vehicles: int
    n_stations: int
    cycle_time: float
    station_lengths: tuple[float, ...]
    processing_profile: tuple[tuple[float, float, float], ...]
    ev_ratio_range: tuple[float, float] = (0.25, 1 / 3)
    high_risk_fraction_range: tuple[float, float] = (0.03, 0.05)
    low_risk_prob_range: tuple[float, float] = (0.0, 0.01)
    high_risk_prob_range: tuple[float, float] = (0.2, 0.35)
    seed: int = 0


def _check_range(name: str, rng_pair, lo_ok=0.0, hi_ok=1.0) -> list[str]:
    lo, hi = rng_pair
    if not (lo_ok <= lo <= hi <= hi_ok):
        return [f"{name}: must satisfy {lo_ok} <= lo <= hi <= {hi_ok}"]
    return []


def validate_config(config: GeneratorConfig) -> list[str]:
    out = []
    if config.n_vehicles < 2:
        out.append("n_vehicles: need at least two vehicles")
    if config.n_stations < 1:
        out.append("n_stations: need at least one station")
    if config.cycle_time <= 0:
        out.append("cycle_time: must be positive")
    if len(config.station_lengths) != config.n_stations:
        out.append("station_lengths: length must equal n_stations")
    if any(l < config.cycle_time for l in config.station_lengths):
        out.append("station_lengths: every length must be >= cycle_time")
    if len(config.processing_profile) != config.n_stations:
        out.append("processing_profile: one (min, mean, max) triple per station")
    for k, (pmin, pmean, pmax) in enumerate(config.processing_profile):
        if not (0 < pmin <= pmean <= pmax):
            out.append(f"processing_profile[{k}]: need 0 < min <= mean <= max")
    out += _check_range("ev_ratio_range", config.ev_ratio_range)
    out += _check_range("high_risk_fraction_range", config.high_risk_fraction_range)
    out += _check_range("low_risk_prob_range", config.low_risk_prob_range, hi_ok=0.5)
    out += _check_range("high_risk_prob_range", config.high_risk_prob_range, hi_ok=0.5)
    if (config.low_risk_prob_range[1] >= 0.5 or config.high_risk_prob_range[1] >= 0.5):
        out.append("failure probability ranges must stay below 0.5")
    n = config.n_vehicles
    lo, hi = config.ev_ratio_range
    if math.ceil(lo * n) > math.floor(hi * n):
        out.append("ev_ratio_range: no integer EV count realizes a ratio in range")
    return out


def _count_in_fraction_range(n: int, frac_range, rng, strict: bool):
    """An integer count whose fraction n'/n lies in frac_range.

    When no such integer exists and strict is False, fall back to the
    nearest achievable count (rounded uniform draw, clamped to [0, n]).
    """
    lo, hi = frac_range
    lo_i, hi_i = math.ceil(lo * n), math.floor(hi * n)
    if lo_i <= hi_i:
        return int(rng.integers(lo_i, hi_i + 1))
    if strict:
        raise ConfigError(f"no integer count in fraction range [{lo}, {hi}] for n={n}")
    return min(n, max(0, round(n * rng.uniform(lo, hi))))


def _draw_processing(rng, profile, upper_third: bool) -> int:
    pmin, pmean, pmax = profile
    if upper_third:
        draw = rng.uniform(pmin + 2.0 * (pmax - pmin) / 3.0, pmax)
    elif pmin == pmax:
        draw = pmin
    else:
        # mode placed so the triangular mean hits the target mean, then clipped
        mode = min(pmax, max(pmin, 3.0 * pmean - pmin - pmax))
        draw = rng.triangular(pmin, mode, pmax)
    return to_ticks(float(draw))


def generate(config: GeneratorConfig) -> Instance:
    """Draw an instance from the config; pure function of the config.

    Draw order (fixed, documented for reproducibility): EV count, EV id
    subset, high-risk count, high-risk id subset, failure probabilities
    in vehicle order, processing times in vehicle-major station-minor
    order.  Failure probabilities are quantized to 1e-4 so file
    round-trips are exact.
    """
    problems = validate_config(config)
    if problems:
        raise ConfigError("; ".join(problems))
    rng = make_rng(config.seed)
    n = config.n_vehicles

    ev_count = _count_in_fraction_range(n, config.ev_ratio_range, rng, strict=True)
    ev_ids = set(rng.choice(n, size=ev_count, replace=False).tolist())
    high_count = _count_in_fraction_range(n, config.high_risk_fraction_range, rng,
                                          strict=False)
    high_ids = set(rng.choice(n, size=high_count, replace=False).tolist())

    probs = []
    for v in range(n):
        lo, hi = (config.high_risk_prob_range if v in high_ids
                  else config.low_risk_prob_range)
        probs.append(quantize(float(rng.uniform(lo, hi))))

    vehicles = []
    for v in range(n):
        times = tuple(
            _draw_processing(rng, config.processing_profile[k],
                             upper_third=(k == 0 and v in ev_ids))
            for k in range(config.n_stations)
        )
        vehicles.append(Vehicle(
            id=v, is_ev=v in ev_ids, processing_times=times,
            failure_prob=probs[v],
            risk_class=HIGH_RISK if v in high_ids else LOW_RISK,
        ))

    instance = Instance(
        cycle_time=to_ticks(config.cycle_time),
        stations=tuple(Station(k, to_ticks(l))
                       for k, l in enumerate(config.station_lengths)),
        vehicles=tuple(vehicles),
    )
    problems = validate(instance)
    if problems:
        raise ConfigError("generated instance failed validation: " + "; ".join(problems))
    return instance


# ---------------------------------------------------------------------------
# experiment presets (5-station line, battery station first)

_PROFILE = (
    (42.6, 94.1, 117.2),
    (7.9, 84.3, 197.9),
    (57.8, 96.2, 113.3),
    (26.9, 96.9, 109.7),
    (57.8, 96.2, 114.3),
)
_LENGTHS = (240.0, 120.0, 120.0, 120.0, 120.0)

SIZE_CLASSES = {
    "small": (7, 8, 9, 10),
    "medium": (40,),
    "large": (200, 300, 400),
}


def preset_config(n_vehicles: int, seed: int, size_class: str = "small") -> GeneratorConfig:
    """The benchmark recipe: c=97, lengths (240, 120 x4), per-station profiles.

    Small instances use the raised high-risk fraction [0.15, 0.25];
    medium instances carry no failures at all; large instances use
    [0.03, 0.05].
    """
    if size_class == "small":
        high_frac = (0.15, 0.25)
        low_prob, high_prob = (0.0, 0.01), (0.2, 0.35)
    elif size_class == "medium":
        high_frac = (0.0, 0.0)
        low_prob, high_prob = (0.0, 0.0), (0.0, 0.0)
    elif size_class == "large":
        high_frac = (0.03, 0.05)
        low_prob, high_prob = (0.0, 0.01), (0.2, 0.35)
    else:
        raise ConfigError(f"unknown size class {size_class!r}")
    return GeneratorConfig(
        n_vehicles=n_vehicles, n_stations=5, cycle_time=97.0,
        station_lengths=_LENGTHS, processing_profile=_PROFILE,
        high_risk_fraction_range=high_frac,
        low_risk_prob_range=low_prob, high_risk_prob_range=high_prob,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# file I/O

def _dump_text(instance: Instance) -> str:
    lines = [f"version: {FORMAT_VERSION}",
             f"cycle_time: {format_ticks(instance.cycle_time)}",
             "stations:"]
    for st in instance.stations:
        lines.append(f"- {{id: {st.id}, length: {format_ticks(st.length)}}}")
    lines.append("vehicles:")
    for veh in instance.vehicles:
        times = ", ".join(format_ticks(p) for p in veh.processing_times)
        lines.append(
            f"- {{id: {veh.id}, is_ev: {'true' if veh.is_ev else 'false'}, "
            f"risk_class: {veh.risk_class}, failure_prob: {veh.failure_prob:.4f}, "
            f"processing_times: [{times}]}}")
    return "\n".join(lines) + "\n"


def save(instance: Instance, path) -> None:
    """Write the fixed-order text form.  Numbers are written at 1e-4
    resolution, so fields carrying finer precision would not round-trip;
    everything produced by this package is already on that grid."""
    Path(path).write_text(_dump_text(instance), encoding="utf-8")


def instance_digest(instance: Instance) -> str:
    """Short content digest of the canonical text form (used in solution files)."""
    return hashlib.sha256(_dump_text(instance).encode("utf-8")).hexdigest()[:12]


def _need(mapping: dict, key: str, context: str):
    if not isinstance(mapping, dict):
        raise ParseError(f"{context}: expected a mapping")
    if key not in mapping:
        raise ParseError(f"{context}: missing required field '{key}'")
    return mapping[key]


def _rows(doc: dict, key: str, context: str) -> list:
    rows = _need(doc, key, context) or []
    if not isinstance(rows, list):
        raise ParseError(f"{context}: {key} must be a list")
    return rows


def _fields(row, known: set[str], context: str) -> None:
    """Check that a row is a mapping and warn about keys outside known."""
    if not isinstance(row, dict):
        raise ParseError(f"{context}: expected a mapping, got {row!r}")
    extra = sorted(set(row) - known)
    if extra:
        warnings.warn(f"{context}: ignoring unknown fields {extra}", stacklevel=3)


def _bad(context: str, key: str, value, expected: str) -> ParseError:
    return ParseError(f"{context}: bad {key} {value!r}, expected {expected}")


def _id(row: dict, context: str) -> int:
    value = _need(row, "id", context)
    if isinstance(value, bool) or not isinstance(value, int):
        raise _bad(context, "id", value, "an integer")
    return value


def _ticks(value, key: str, context: str) -> int:
    """A number on the file's 1e-4 grid, as an integer count of 1e-4
    (ticks, for a duration in TU); finer digits are refused, not rounded,
    so two different files never load as one instance.  The grid test
    multiplies at the precision of the value's own digits, so no digit is
    rounded away before it.  A magnitude past MAX_DURATION loads as one
    tick past it, for validate to refuse, without first building the
    integer of a value such as 1e300000."""
    try:
        exact = Decimal(str(value))
    except ArithmeticError as exc:
        raise _bad(context, key, value, "a number") from exc
    if not exact.is_finite():
        raise _bad(context, key, value, "a number")
    if abs(exact) > MAX_DURATION // TICKS_PER_TU:
        return -(MAX_DURATION + 1) if exact < 0 else MAX_DURATION + 1
    digits = len(exact.as_tuple().digits) + len(str(TICKS_PER_TU))
    scaled = Context(prec=digits).multiply(exact, TICKS_PER_TU)
    if scaled != scaled.to_integral_value():
        raise _bad(context, key, value, "a multiple of 0.0001")
    return int(scaled)


def read_mapping(path) -> dict:
    """The top-level mapping of a YAML file.  Raises ParseError for text
    that is not UTF-8 or not YAML, and for a scalar that its tag or its
    form cannot build (!!int x, 2001-13-45), where PyYAML's constructors
    raise a bare ValueError."""
    try:
        doc = yaml.load(Path(path).read_text(encoding="utf-8"), Loader=_Loader)
    except (yaml.YAMLError, ValueError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: expected a mapping at top level")
    return doc


def load(path) -> Instance:
    """Parse and validate an instance file; raises ParseError / ConfigError."""
    doc = read_mapping(path)
    version = _need(doc, "version", str(path))
    if version != FORMAT_VERSION:
        raise ParseError(f"{path}: unsupported version {version!r}")
    _fields(doc, {"version", "cycle_time", "stations", "vehicles"}, str(path))

    cycle = _ticks(_need(doc, "cycle_time", str(path)), "cycle_time", str(path))

    stations = []
    for i, row in enumerate(_rows(doc, "stations", str(path))):
        ctx = f"{path}: stations[{i}]"
        _fields(row, {"id", "length"}, ctx)
        stations.append(Station(_id(row, ctx),
                                _ticks(_need(row, "length", ctx), "length", ctx)))
    vehicles = []
    for i, row in enumerate(_rows(doc, "vehicles", str(path))):
        ctx = f"{path}: vehicles[{i}]"
        _fields(row, {"id", "is_ev", "risk_class", "failure_prob",
                      "processing_times"}, ctx)
        times = _need(row, "processing_times", ctx)
        if not isinstance(times, list):
            raise ParseError(f"{ctx}: processing_times must be a list")
        is_ev = _need(row, "is_ev", ctx)
        if not isinstance(is_ev, bool):
            raise _bad(ctx, "is_ev", is_ev, "true or false")
        failure_prob = _ticks(_need(row, "failure_prob", ctx), "failure_prob",
                              ctx) / TICKS_PER_TU
        vehicles.append(Vehicle(
            id=_id(row, ctx),
            is_ev=is_ev,
            processing_times=tuple(_ticks(t, f"processing_times[{k}]", ctx)
                                   for k, t in enumerate(times)),
            failure_prob=failure_prob,
            risk_class=str(_need(row, "risk_class", ctx)),
        ))

    instance = Instance(cycle, tuple(stations), tuple(vehicles))
    problems = validate(instance)
    if problems:
        raise ConfigError(f"{path}: " + "; ".join(problems))
    return instance
