"""Transmission-grid data model, flood topology, and synthetic instances.

A grid is a set of substations, each owning one or more buses, connected
by DC branches. Flood scenarios assign an integer water height to every
flood-exposed substation; a hardening plan assigns an integer protection
height. A bus is operational in a scenario iff its substation is not
flooded above its protection.

File formats owned by this module: grid JSON (keys `substations`,
`buses`, `branches`, `budget`, `reference_bus`) and the scenario CSV
(header row of flooded-substation ids, one row of integer heights per
scenario, optional trailing `#prob` column; absent probabilities default
to 1/K).
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ValidationError
from .norta import ScenarioSet

__all__ = [
    "Branch",
    "Bus",
    "GridInstance",
    "HardeningPlan",
    "InstanceSpec",
    "Substation",
    "generate_instance",
    "load_grid",
    "load_scenarios",
    "operational_topology",
    "save_grid",
    "save_scenarios",
]

# Slack on every budget comparison (plan feasibility, branch-and-bound,
# greedy moves): a plan whose float cost sum meets the budget is feasible.
BUDGET_SLACK = 1e-9


@dataclass(frozen=True)
class Substation:
    id: int
    flooded_flag: bool
    fixed_cost: float
    var_cost: float
    max_height: int


@dataclass(frozen=True)
class Bus:
    id: int
    substation_id: int
    demand: float
    gen_min: float
    gen_max: float


@dataclass(frozen=True)
class Branch:
    id: int
    head: int
    tail: int
    susceptance: float
    capacity: float


class GridInstance:
    """Validated grid with derived lookups for the recourse model."""

    def __init__(self, substations, buses, branches, reference_bus, budget):
        self.substations = list(substations)
        self.buses = list(buses)
        self.branches = list(branches)
        self.reference_bus = reference_bus
        self.budget = float(budget)
        self._validate()
        self._derive()

    def _validate(self):
        sub_ids = [s.id for s in self.substations]
        if len(set(sub_ids)) != len(sub_ids):
            raise ValidationError("duplicate substation ids")
        bus_ids = [b.id for b in self.buses]
        if len(set(bus_ids)) != len(bus_ids):
            raise ValidationError("duplicate bus ids")
        br_ids = [r.id for r in self.branches]
        if len(set(br_ids)) != len(br_ids):
            raise ValidationError("duplicate branch ids")
        if not self.buses:
            raise ValidationError("grid needs at least one bus")
        sub_set = set(sub_ids)
        bus_set = set(bus_ids)
        for s in self.substations:
            if s.max_height < 0 or s.max_height != int(s.max_height):
                raise ValidationError(f"substation {s.id}: max_height must be a non-negative integer")
            if not (0 <= s.fixed_cost < math.inf and 0 <= s.var_cost < math.inf):
                raise ValidationError(f"substation {s.id}: hardening costs must be finite and >= 0")
        for b in self.buses:
            if b.substation_id not in sub_set:
                raise ValidationError(f"bus {b.id}: unknown substation {b.substation_id}")
            if not 0 <= b.demand < math.inf:  # also rejects nan
                raise ValidationError(f"bus {b.id}: demand must be a finite number >= 0")
            if not (0 <= b.gen_min <= b.gen_max < math.inf):
                raise ValidationError(f"bus {b.id}: need 0 <= gen_min <= gen_max < inf")
            if b.gen_min != 0:
                # The recourse model couples generator commitment to bus
                # survival through u = z, which is only valid when the
                # committed minimum output is zero.
                raise ValidationError(f"bus {b.id}: nonzero gen_min is not supported")
        for r in self.branches:
            if r.head not in bus_set or r.tail not in bus_set:
                raise ValidationError(f"branch {r.id}: endpoint is not a known bus")
            if r.head == r.tail:
                raise ValidationError(f"branch {r.id}: self-loop")
            if not 0 < r.capacity < math.inf:
                raise ValidationError(f"branch {r.id}: capacity must be finite and positive")
            if not 0 < r.susceptance < math.inf:
                raise ValidationError(f"branch {r.id}: susceptance must be finite and positive")
        if self.reference_bus not in bus_set:
            raise ValidationError(f"reference bus {self.reference_bus} is not a known bus")
        if not 0 <= self.budget < math.inf:  # also rejects nan
            raise ValidationError(f"budget must be a finite number >= 0, got {self.budget!r}")

    def _derive(self):
        self.n_buses = len(self.buses)
        self.bus_index = {b.id: k for k, b in enumerate(self.buses)}
        self.flooded_ids = tuple(s.id for s in self.substations if s.flooded_flag)
        flooded_pos = {sid: k for k, sid in enumerate(self.flooded_ids)}
        self._sub_by_id = {s.id: s for s in self.substations}
        # Per-bus position in the flooded ordering, -1 for safe substations.
        self.bus_flood_pos = np.array(
            [flooded_pos.get(b.substation_id, -1) for b in self.buses], dtype=int)
        self.demand = np.array([b.demand for b in self.buses])
        self.gen_max = np.array([b.gen_max for b in self.buses])
        self.bus_ids = np.array([b.id for b in self.buses], dtype=int)
        self.head_idx = np.array([self.bus_index[r.head] for r in self.branches], dtype=int)
        self.tail_idx = np.array([self.bus_index[r.tail] for r in self.branches], dtype=int)
        self.total_demand = float(self.demand.sum())

    def substation(self, sub_id) -> Substation:
        return self._sub_by_id[sub_id]

    def flooded_substations(self):
        return [self._sub_by_id[sid] for sid in self.flooded_ids]

    def to_dict(self):
        return {
            "substations": [
                {"id": s.id, "flooded_flag": s.flooded_flag, "fixed_cost": s.fixed_cost,
                 "var_cost": s.var_cost, "max_height": s.max_height}
                for s in self.substations
            ],
            "buses": [
                {"id": b.id, "substation_id": b.substation_id, "demand": b.demand,
                 "gen_min": b.gen_min, "gen_max": b.gen_max}
                for b in self.buses
            ],
            "branches": [
                {"id": r.id, "head": r.head, "tail": r.tail,
                 "susceptance": r.susceptance, "capacity": r.capacity}
                for r in self.branches
            ],
            "reference_bus": self.reference_bus,
            "budget": self.budget,
        }

    @classmethod
    def from_dict(cls, data):
        """A grid from its JSON data. Ids, endpoints and heights must be
        JSON integers, flags JSON booleans and the rest finite numbers;
        a value of another type is rejected, naming its entry and field."""
        def rows(section, fields):
            return [[_field(d, key, kind, f"{section}[{k}]") for key, kind in fields]
                    for k, d in enumerate(data[section])]
        try:
            subs = [Substation(*r) for r in rows("substations", (
                ("id", int), ("flooded_flag", bool), ("fixed_cost", float),
                ("var_cost", float), ("max_height", int)))]
            buses = [Bus(*r) for r in rows("buses", (
                ("id", int), ("substation_id", int), ("demand", float),
                ("gen_min", float), ("gen_max", float)))]
            branches = [Branch(*r) for r in rows("branches", (
                ("id", int), ("head", int), ("tail", int), ("susceptance", float),
                ("capacity", float)))]
            ref = _field(data, "reference_bus", int, "grid")
            budget = _field(data, "budget", float, "grid")
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"malformed grid data: {exc}") from exc
        return cls(subs, buses, branches, ref, budget)


def _is_int(v):
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _is_real(v):
    """A finite number, not a bool. A JSON integer past float range is
    not finite: math.isfinite raises OverflowError on it."""
    if not isinstance(v, (int, float, np.integer, np.floating)) or isinstance(v, bool):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


_KINDS = {int: (_is_int, "an integer"), float: (_is_real, "a finite number"),
          bool: (lambda v: isinstance(v, bool), "true or false")}


def _field(entry, key, kind, where):
    """entry[key] as kind (int, float or bool), if its value is one."""
    ok, what = _KINDS[kind]
    value = entry[key]
    if not ok(value):
        raise ValidationError(f"{where}: {key} must be {what}, got {value!r}")
    return kind(value)


@dataclass(frozen=True)
class HardeningPlan:
    """Integer protection heights aligned with grid.flooded_ids order."""

    heights: np.ndarray

    def __post_init__(self):
        h = np.asarray(self.heights)
        if h.ndim != 1:
            raise ValidationError("plan heights must be a 1-D vector")
        if h.size and not np.issubdtype(h.dtype, np.integer):
            if not np.allclose(h, np.round(h), rtol=0.0, atol=1e-9):
                raise ValidationError("plan heights must be integers")
        h = np.round(h).astype(int) if h.size else h.astype(int)
        if np.any(h < 0):
            raise ValidationError("plan heights must be non-negative")
        object.__setattr__(self, "heights", h)

    @classmethod
    def zero(cls, grid: GridInstance):
        return cls(np.zeros(len(grid.flooded_ids), dtype=int))

    @property
    def protect(self):
        """Binary protect decision y_i = 1 iff x_i >= 1."""
        return self.heights >= 1

    def cost(self, grid: GridInstance):
        total = 0.0
        for k, sid in enumerate(grid.flooded_ids):
            s = grid.substation(sid)
            h = int(self.heights[k])
            if h >= 1:
                total += s.fixed_cost + s.var_cost * h
        return total

    def check_feasible(self, grid: GridInstance, budget=None):
        if self.heights.size != len(grid.flooded_ids):
            raise ValidationError("plan length does not match the flooded set")
        for k, sid in enumerate(grid.flooded_ids):
            if self.heights[k] > grid.substation(sid).max_height:
                raise ValidationError(
                    f"substation {sid}: height {self.heights[k]} exceeds max "
                    f"{grid.substation(sid).max_height}")
        cap = grid.budget if budget is None else budget
        c = self.cost(grid)
        if c > cap + BUDGET_SLACK:
            raise ValidationError(f"plan cost {c} exceeds budget {cap}")
        return self


def operational_topology(grid: GridInstance, plan: HardeningPlan, scenario):
    """Per-bus survival indicators z for one scenario (see _survival)."""
    delta = np.asarray(scenario, dtype=float).ravel()
    nf = len(grid.flooded_ids)
    if delta.size != nf:
        raise ValidationError(f"scenario has {delta.size} heights, grid has {nf} flooded substations")
    if plan.heights.size != nf:
        raise ValidationError("plan length does not match the flooded set")
    return _survival(grid, plan.heights, delta)


def _substation_survival(heights, deltas):
    """Survival of each flooded substation, for protection heights and
    flood heights deltas broadcast over (..., n_flooded), with one
    all-True column appended for the safe substations.

    A flooded substation survives iff protection meets the water height
    (x >= delta, so equality keeps it up); safe substations are always up.
    """
    shape = np.broadcast_shapes(np.shape(heights), np.shape(deltas))
    alive = np.ones(shape[:-1] + (shape[-1] + 1,), dtype=bool)
    np.greater_equal(heights, deltas, out=alive[..., :-1])
    return alive


def _survival(grid: GridInstance, heights, deltas):
    """Per-bus survival for flood heights deltas of shape (..., n_flooded):
    each bus takes its substation's _substation_survival."""
    # Safe buses have flood position -1: the all-True last column.
    return _substation_survival(heights, deltas)[..., grid.bus_flood_pos]


def _components(grid: GridInstance, z):
    """Connected components of the operational subgraph, in order of
    their lowest bus index: (bus indices, branch indices) per component,
    each ascending. A live bus without live branches is a component of
    its own.

    Every bus is labeled with the lowest bus index of its component:
    each pass lowers both ends of every live branch to the smaller of
    their labels and then lets every bus take its label's label, until
    no label moves."""
    z = np.asarray(z, dtype=bool)
    on = np.flatnonzero(z[grid.head_idx] & z[grid.tail_idx])
    heads, tails = grid.head_idx[on], grid.tail_idx[on]
    label = np.arange(grid.n_buses)
    while True:
        low = np.minimum(label[heads], label[tails])
        new = label.copy()
        np.minimum.at(new, heads, low)
        np.minimum.at(new, tails, low)
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    buses = np.flatnonzero(z)
    buses = buses[np.argsort(label[buses], kind="stable")]
    roots, first = np.unique(label[buses], return_index=True)
    branches = on[np.argsort(label[heads], kind="stable")]
    cuts = np.searchsorted(label[grid.head_idx[branches]], roots)
    return list(zip(np.split(buses, first)[1:], np.split(branches, cuts)[1:]))


# ----------------------------------------------------------------------
# Synthetic instances


@dataclass
class InstanceSpec:
    """Parameters for the synthetic instance generator."""

    n_substations: int
    n_flooded: int
    buses_per_substation: int = 2
    topology: str = "ring"
    n_scenarios: int = 16
    max_height: int = 5
    budget: float = 50.0
    seed: int = 0
    demand_low: float = 5.0
    demand_high: float = 15.0
    gen_bus_fraction: float = 0.5
    capacity_slack: float = 1.2
    corr_length: float | None = None

    def validate(self):
        """Check every field's type and range, naming the first bad one."""
        def need(name, ok, what):
            if not ok:
                raise ValidationError(f"{name} must be {what}, got {getattr(self, name)!r}")
        for name in ("n_substations", "buses_per_substation", "n_scenarios", "max_height"):
            value = getattr(self, name)
            need(name, _is_int(value) and value >= 1, "an integer >= 1")
        need("n_flooded", _is_int(self.n_flooded) and 0 <= self.n_flooded <= self.n_substations,
             "an integer in [0, n_substations]")
        need("topology", self.topology in ("ring", "tree", "grid"), "'ring', 'tree' or 'grid'")
        need("seed", _is_int(self.seed) and self.seed >= 0, "an integer >= 0")
        low, high, fraction = self.demand_low, self.demand_high, self.gen_bus_fraction
        need("budget", _is_real(self.budget) and self.budget >= 0, "a finite number >= 0")
        need("demand_low", _is_real(low) and low > 0, "a finite number > 0")
        need("demand_high", _is_real(high) and high >= low, "a finite number >= demand_low")
        need("gen_bus_fraction", _is_real(fraction) and 0 <= fraction <= 1, "a number in [0, 1]")
        need("capacity_slack", _is_real(self.capacity_slack) and self.capacity_slack > 0,
             "a finite number > 0")
        ell = self.corr_length
        need("corr_length", ell is None or (_is_real(ell) and ell > 0),
             "null or a finite number > 0")
        return self

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, data):
        known = {f for f in cls.__dataclass_fields__}
        extra = set(data) - known
        if extra:
            raise ValidationError(f"unknown instance-spec fields: {sorted(extra)}")
        try:
            return cls(**data)
        except TypeError as exc:
            raise ValidationError(f"malformed instance spec: {exc}") from exc


def _inter_substation_edges(spec: InstanceSpec, rng):
    n = spec.n_substations
    if spec.topology == "ring":
        if n == 1:
            return []
        if n == 2:
            return [(0, 1)]
        return [(i, (i + 1) % n) for i in range(n)]
    if spec.topology == "tree":
        return [(int(rng.integers(0, i)), i) for i in range(1, n)]
    # Rectangular mesh, row-major.
    w = max(1, math.ceil(math.sqrt(n)))
    edges = []
    for i in range(n):
        r, c = divmod(i, w)
        if c + 1 < w and i + 1 < n:
            edges.append((i, i + 1))
        if (r + 1) * w + c < n:
            edges.append((i, (r + 1) * w + c))
    return edges


def generate_instance(spec: InstanceSpec):
    """Deterministic synthetic instance plus correlated flood scenarios.

    The first n_flooded substations form the exposed (coastal) set, and
    scenario heights come from a common-severity latent Gaussian field
    with exponentially decaying spatial correlation, floored through an
    exponential to integer heights in [0, max_height], so the scenario
    columns are genuinely cross-correlated.

    Branch capacities are capacity_slack * total (system) demand and
    susceptances keep angle drops far below the bounds. A line carries
    only a share of the total demand, so at the default slack no line
    or angle binds: recourse reduces to component-wise generation
    adequacy, every component is served in closed form (see
    twostage.RecourseSolver), and shed is provably non-increasing in
    protection (the exact first-stage search does not rely on it). Lines
    bind only at a much smaller capacity_slack: on 32-bus instances
    below ~0.15, on instances of a few buses below ~0.7.
    """
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    n, bp = spec.n_substations, spec.buses_per_substation

    substations = [
        Substation(id=i, flooded_flag=i < spec.n_flooded,
                   fixed_cost=float(np.round(rng.uniform(1.0, 3.0), 4)),
                   var_cost=float(np.round(rng.uniform(0.5, 1.5), 4)),
                   max_height=spec.max_height)
        for i in range(n)
    ]

    n_buses = n * bp
    demands = np.round(rng.uniform(spec.demand_low, spec.demand_high, size=n_buses), 4)
    gen_flags = rng.random(n_buses) < spec.gen_bus_fraction
    if not gen_flags.any():
        gen_flags[0] = True
    total_demand = float(demands.sum())
    per_gen = 1.5 * total_demand / int(gen_flags.sum())
    buses = [
        Bus(id=j, substation_id=j // bp, demand=float(demands[j]),
            gen_min=0.0, gen_max=float(np.round(per_gen, 4)) if gen_flags[j] else 0.0)
        for j in range(n_buses)
    ]

    capacity = float(np.round(spec.capacity_slack * total_demand, 4))
    susceptance = float(np.round(capacity * n_buses, 4))
    branches = []
    bid = 0
    for i in range(n):  # chain the buses inside each substation
        for k in range(bp - 1):
            branches.append(Branch(bid, i * bp + k, i * bp + k + 1, susceptance, capacity))
            bid += 1
    for a, b in _inter_substation_edges(spec, rng):
        branches.append(Branch(bid, a * bp, b * bp, susceptance, capacity))
        bid += 1

    grid = GridInstance(substations, buses, branches, reference_bus=0, budget=spec.budget)

    nf, k_scen = spec.n_flooded, spec.n_scenarios
    if nf == 0:
        heights = np.zeros((k_scen, 0))
    else:
        pos = np.arange(nf, dtype=float)
        ell = spec.corr_length if spec.corr_length is not None else max(1.0, nf / 4.0)
        cov = np.exp(-np.abs(pos[:, None] - pos[None, :]) / ell)
        chol = np.linalg.cholesky(cov + 1e-10 * np.eye(nf))
        common = rng.standard_normal(k_scen)
        eps = rng.standard_normal((k_scen, nf))
        latent = (0.6 * common[:, None] + eps @ chol.T) / math.sqrt(1.36)
        mu = math.log(spec.max_height) - 1.0
        raw = np.exp(mu + 0.7 * latent)
        heights = np.clip(np.floor(raw), 0, spec.max_height)
    scenarios = ScenarioSet(heights, np.full(k_scen, 1.0 / k_scen),
                            columns=grid.flooded_ids).validate_heights()
    return grid, scenarios


# ----------------------------------------------------------------------
# File formats


def save_grid(grid: GridInstance, path, extra=None):
    data = grid.to_dict()
    if extra:
        data.update(extra)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


def _read_json(path):
    """The JSON object in the file at path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValidationError(f"{path}: expected a JSON object")
    return data


def load_grid(path) -> GridInstance:
    return GridInstance.from_dict(_read_json(path))


_PROB_HEADER = "#prob"


def save_scenarios(s: ScenarioSet, path):
    """Write a scenario CSV; heights as integers, `#prob` only if non-uniform."""
    s.validate_heights()
    if s.columns is None:
        raise ValidationError("scenario set has no column ids to write")
    uniform = np.allclose(s.probs, 1.0 / s.n_scenarios, rtol=0.0, atol=1e-15)
    heights = np.rint(s.scenarios).astype(np.int64)
    # As wide as the longest height: astype(str) takes 84 bytes a cell.
    rows = heights.astype(f"U{len(str(heights.max(initial=0)))}").tolist()
    header = [str(c) for c in s.columns]
    if not uniform:
        header.append(_PROB_HEADER)
        for row, p in zip(rows, s.probs.tolist()):
            row.append(repr(p))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def load_scenarios(path) -> ScenarioSet:
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise ValidationError(f"cannot read scenario file {path}: {exc}") from exc
    if not rows:
        raise ValidationError(f"{path}: empty scenario file")
    header = [c.strip() for c in rows[0]]
    has_prob = bool(header) and header[-1] == _PROB_HEADER
    id_cells = header[:-1] if has_prob else header
    try:
        columns = tuple(int(c) for c in id_cells)
    except ValueError as exc:
        raise ValidationError(f"{path}: header must hold integer substation ids: {exc}") from exc
    n = len(columns)
    body = [r for r in rows[1:] if r]
    if not body:
        raise ValidationError(f"{path}: no scenario rows")
    heights = np.empty((len(body), n))
    probs = np.empty(len(body)) if has_prob else None
    for i, row in enumerate(body):
        expected = n + (1 if has_prob else 0)
        if len(row) != expected:
            raise ValidationError(
                f"{path} line {i + 2}: expected {expected} cells, found {len(row)}")
        for j in range(n):
            try:
                v = float(row[j])
            except ValueError as exc:
                raise ValidationError(
                    f"{path} line {i + 2}, column {j + 1}: cannot parse {row[j]!r}") from exc
            if not 0 <= v < math.inf or v != int(v):  # also rejects nan
                raise ValidationError(
                    f"{path} line {i + 2}, column {j + 1}: heights must be non-negative integers")
            heights[i, j] = v
        if has_prob:
            try:
                probs[i] = float(row[n])
            except ValueError as exc:
                raise ValidationError(
                    f"{path} line {i + 2}: cannot parse probability {row[n]!r}") from exc
    k = heights.shape[0]
    if probs is None:
        probs = np.full(k, 1.0 / k)
    elif abs(float(probs.sum()) - 1.0) > 1e-9:
        raise ValidationError(f"{path}: probabilities sum to {probs.sum()}, expected 1")
    else:
        probs = probs / probs.sum()
    return ScenarioSet(heights, probs, columns=columns).validate_heights()
