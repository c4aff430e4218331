"""Run configuration: parsing, validation, serialization.

Configs are YAML mappings with fixed sections; unknown keys are hard errors
(silent typos in run configs are how simulation campaigns die).  Every field
has a default, so the empty document is a valid config: the straight domain
with the reference parameter values (r_max = 1, a = 0.125, Re = 1e4,
tau = 1.25e-2, delta_s0 = 1).
"""

from dataclasses import dataclass

import yaml

from .geometry import DomainKind, DomainSpec
from .initcond import ProfileKind, ProfileParams, SignConvention
from .solver import SolverConfig


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    domain_kind: str = "straight"         # straight | curved
    r_max: float = 1.0
    a: float = 0.125
    R: float | None = None                # torus radius (curved only)

    profile_kind: str = "straight_frame"  # straight_frame | curved_frame
    eps: tuple = (1.0,) * 6
    beta: tuple = (1.0,) * 6
    sign_at_zero: str = "zero"            # zero | plus
    frame_radius: float | None = None     # R of a curved profile on a straight domain

    n_r: int = 12
    n_z: int = 12

    reynolds: float = 1.0e4
    tau: float = 1.25e-2
    t_end: float = 3.0
    delta_s0: float = 1.0
    linear_tol: float = 1.0e-8

    n_planes: int = 100
    region_thresholds: tuple = (0.15, 0.4, 0.7)
    q_thresholds: tuple = (50.0, 250.0, 750.0)

    output_dir: str = "out"
    snapshot_interval: float = 0.1
    diagnostics_interval: float = 0.1
    checkpoint_interval: float = 0.5

    # ---- derived objects -------------------------------------------------

    def domain_spec(self) -> DomainSpec:
        kind = DomainKind(self.domain_kind)
        return DomainSpec(kind, r_max=self.r_max, a=self.a,
                          R=self.R if kind is DomainKind.CURVED else None)

    def profile(self) -> ProfileKind:
        return ProfileKind(self.profile_kind)

    def profile_params(self) -> ProfileParams:
        return ProfileParams(eps=tuple(self.eps), beta=tuple(self.beta),
                             sign_at_zero=SignConvention(self.sign_at_zero))

    @property
    def nu(self) -> float:
        return 1.0 / self.reynolds

    def solver_config(self) -> SolverConfig:
        return SolverConfig(nu=self.nu, tau=self.tau, t_end=self.t_end,
                            delta_s0=self.delta_s0,
                            linear_tol=self.linear_tol)

    def steps_per(self, interval: float, name: str) -> int:
        ratio = interval / self.tau
        steps = round(ratio)
        if steps < 1 or abs(ratio - steps) > 1e-9 * max(1.0, steps):
            raise ConfigError(
                f"{name}={interval} is not a positive multiple of tau={self.tau}"
            )
        return steps

    # ---- validation ------------------------------------------------------

    def validate(self) -> "RunConfig":
        def bad(key, why):
            raise ConfigError(f"invalid config: {key} {why}")

        if self.domain_kind not in ("straight", "curved"):
            bad("domain.kind", f"must be straight or curved, got {self.domain_kind!r}")
        if self.r_max <= 0:
            bad("domain.r_max", "must be positive")
        if self.a <= 0:
            bad("domain.a", "must be positive")
        if self.domain_kind == "curved":
            if self.R is None:
                bad("domain.R", "is required for curved domains")
            if self.R <= self.r_max:
                bad("domain.R", f"must exceed r_max={self.r_max}")
        elif self.R is not None:
            bad("domain.R", "is only meaningful for curved domains")

        if self.profile_kind not in ("straight_frame", "curved_frame"):
            bad("profile.kind", f"got {self.profile_kind!r}")
        if self.sign_at_zero not in ("zero", "plus"):
            bad("profile.sign_at_zero", f"got {self.sign_at_zero!r}")
        if len(self.eps) != 6 or len(self.beta) != 6:
            bad("profile.eps/beta", "must have 6 entries each")
        if any(e <= 0 for e in self.eps):
            bad("profile.eps", "entries must be positive")
        if self.profile_kind == "curved_frame" and self.domain_kind == "straight" \
                and self.frame_radius is None:
            bad("profile.frame_radius",
                "is required for a curved profile on a straight domain")

        if self.n_r < 2 or self.n_z < 2:
            bad("mesh.n_r/n_z", "must both be >= 2")
        if self.reynolds <= 0:
            bad("solver.reynolds", "must be positive")
        if self.tau <= 0:
            bad("solver.tau", "must be positive")
        if self.t_end <= 0:
            bad("solver.t_end", "must be positive")
        if self.delta_s0 <= 0:
            bad("solver.delta_s0", "must be positive")
        if self.linear_tol <= 0:
            bad("solver.linear_tol", "must be positive")
        if self.n_planes < 1:
            bad("planes.count", "must be >= 1")
        rt = self.region_thresholds
        if len(rt) != 3 or not (0 < rt[0] < rt[1] < rt[2]):
            bad("regions.thresholds", "must be 3 increasing positive values")
        if not self.q_thresholds or any(q <= 0 for q in self.q_thresholds):
            bad("vortex.q_thresholds", "must be positive")
        for key in ("snapshot_interval", "diagnostics_interval",
                    "checkpoint_interval"):
            self.steps_per(getattr(self, key), f"output.{key}")
        return self


# YAML section -> (attribute, caster) mapping; the document mirrors the
# pipeline stages rather than the flat dataclass.
_SCHEMA = {
    "domain": {
        "kind": ("domain_kind", str),
        "r_max": ("r_max", float),
        "a": ("a", float),
        "R": ("R", float),
    },
    "profile": {
        "kind": ("profile_kind", str),
        "eps": ("eps", lambda v: tuple(float(x) for x in v)),
        "beta": ("beta", lambda v: tuple(float(x) for x in v)),
        "sign_at_zero": ("sign_at_zero", str),
        "frame_radius": ("frame_radius", float),
    },
    "mesh": {
        "n_r": ("n_r", int),
        "n_z": ("n_z", int),
    },
    "solver": {
        "reynolds": ("reynolds", float),
        "tau": ("tau", float),
        "t_end": ("t_end", float),
        "delta_s0": ("delta_s0", float),
        "linear_tol": ("linear_tol", float),
    },
    "planes": {
        "count": ("n_planes", int),
    },
    "regions": {
        "thresholds": ("region_thresholds", lambda v: tuple(float(x) for x in v)),
    },
    "vortex": {
        "q_thresholds": ("q_thresholds", lambda v: tuple(float(x) for x in v)),
    },
    "output": {
        "directory": ("output_dir", str),
        "snapshot_interval": ("snapshot_interval", float),
        "diagnostics_interval": ("diagnostics_interval", float),
        "checkpoint_interval": ("checkpoint_interval", float),
    },
}


def parse_config(text: str, overrides=()) -> RunConfig:
    """Parse a YAML config document; apply dotted-path overrides; validate.

    Unknown keys raise ConfigError with the offending path; YAML syntax
    errors keep the parser's line/column context.
    """
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from exc
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a mapping")

    for item in overrides:
        key, _, value = item.partition("=")
        if not _:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        _apply_override(doc, key.strip(), yaml.safe_load(value))

    fields = {}
    for section, content in doc.items():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config key: {section!r}")
        spec = _SCHEMA[section]
        if not isinstance(content, dict):
            raise ConfigError(f"config section {section!r} must be a mapping")
        for key, value in content.items():
            if key not in spec:
                raise ConfigError(f"unknown config key: {section}.{key!r}")
            attr, cast = spec[key]
            if value is None:
                fields[attr] = None
            else:
                try:
                    fields[attr] = cast(value)
                except (TypeError, ValueError) as exc:
                    raise ConfigError(
                        f"config key {section}.{key}: {exc}") from exc
    return RunConfig(**fields).validate()


def _apply_override(doc: dict, dotted: str, value):
    parts = dotted.split(".")
    node = doc
    for p in parts[:-1]:
        node = node.setdefault(p, {})
        if not isinstance(node, dict):
            raise ConfigError(f"override path {dotted!r} crosses a scalar")
    node[parts[-1]] = value


def load_config(path, overrides=()) -> RunConfig:
    with open(path) as fh:
        return parse_config(fh.read(), overrides=overrides)


def config_to_dict(cfg: RunConfig) -> dict:
    """Nested-document form of a config (inverse of parse_config)."""
    doc: dict = {}
    for section, spec in _SCHEMA.items():
        sec = {}
        for key, (attr, _) in spec.items():
            value = getattr(cfg, attr)
            if isinstance(value, tuple):
                value = list(value)
            sec[key] = value
        doc[section] = sec
    return doc


def serialize_config(cfg: RunConfig) -> str:
    return yaml.safe_dump(config_to_dict(cfg), sort_keys=False)
