import string

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from swirlfem.config import _SCHEMA, ConfigError, RunConfig, parse_config, \
    serialize_config


class TestDefaults:
    def test_empty_document_gives_reference_values(self):
        cfg = parse_config("")
        assert cfg.domain_kind == "straight"
        assert cfg.r_max == 1.0 and cfg.a == 0.125
        assert cfg.reynolds == 1.0e4
        assert cfg.nu == 1.0e-4
        assert cfg.tau == 1.25e-2
        assert cfg.delta_s0 == 1.0
        assert cfg.n_planes == 100
        assert cfg.region_thresholds == (0.15, 0.4, 0.7)
        assert cfg.q_thresholds == (50.0, 250.0, 750.0)

    def test_curved_config_reports_delta(self):
        cfg = parse_config("domain:\n  kind: curved\n  R: 1.5\n")
        assert abs(cfg.domain_spec().delta - 0.667) < 1e-3
        cfg = parse_config("domain: {kind: curved, R: 1.1}")
        assert abs(cfg.domain_spec().delta - 0.909) < 1e-3


class TestValidation:
    def test_bad_tau_names_the_key(self):
        with pytest.raises(ConfigError, match="tau"):
            parse_config("solver:\n  tau: -0.5\n")

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config("sover: {}")

    def test_unknown_nested_key(self):
        with pytest.raises(ConfigError, match="solver.'taux'"):
            parse_config("solver:\n  taux: 0.1\n")

    def test_removed_keys_are_unknown(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config("seed: 1\n")
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config("solver: {stab_h: global}\n")
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config("solver: {linear_max_iter: 100}\n")

    def test_curved_requires_radius(self):
        with pytest.raises(ConfigError, match="domain.R"):
            parse_config("domain:\n  kind: curved\n")

    def test_straight_rejects_radius(self):
        with pytest.raises(ConfigError, match="domain.R"):
            parse_config("domain:\n  R: 2.0\n")

    def test_cadence_must_be_tau_multiple(self):
        with pytest.raises(ConfigError, match="snapshot_interval"):
            parse_config("output:\n  snapshot_interval: 0.033\n")

    def test_curved_profile_on_straight_needs_frame_radius(self):
        with pytest.raises(ConfigError, match="frame_radius"):
            parse_config("profile:\n  kind: curved_frame\n")
        cfg = parse_config(
            "profile:\n  kind: curved_frame\n  frame_radius: 1.5\n")
        assert cfg.frame_radius == 1.5

    def test_yaml_syntax_error_has_context(self):
        with pytest.raises(ConfigError, match="YAML"):
            parse_config("domain: [unclosed")


_positive = st.floats(1e-6, 1e6, allow_subnormal=False)


@st.composite
def config_documents(draw):
    """A valid document that sets every key of the config schema."""
    curved = draw(st.booleans())
    profile = draw(st.sampled_from(["straight_frame", "curved_frame"]))
    r_max = draw(_positive)
    frame_radius = draw(st.none() | _positive)
    if profile == "curved_frame" and not curved and frame_radius is None:
        frame_radius = draw(_positive)
    tau = draw(_positive)
    steps = st.integers(1, 1000)
    return {
        "domain": {"kind": "curved" if curved else "straight",
                   "r_max": r_max, "a": draw(_positive),
                   "R": r_max + draw(st.floats(1e-3, 1e3)) if curved
                   else None},
        "profile": {"kind": profile,
                    "eps": draw(st.lists(_positive, min_size=6, max_size=6)),
                    "beta": draw(st.lists(st.floats(-1e6, 1e6),
                                          min_size=6, max_size=6)),
                    "sign_at_zero": draw(st.sampled_from(["zero", "plus"])),
                    "frame_radius": frame_radius},
        "mesh": {"n_r": draw(st.integers(2, 64)),
                 "n_z": draw(st.integers(2, 64))},
        "solver": {"reynolds": draw(_positive), "tau": tau,
                   "t_end": draw(_positive), "delta_s0": draw(_positive),
                   "linear_tol": draw(_positive)},
        "planes": {"count": draw(st.integers(1, 1000))},
        "regions": {"thresholds": sorted(draw(st.lists(
            _positive, min_size=3, max_size=3, unique=True)))},
        "vortex": {"q_thresholds": draw(st.lists(_positive, min_size=1,
                                                 max_size=5))},
        "output": {"directory": draw(st.text(
                       string.ascii_letters + string.digits + "_-./~",
                       min_size=1, max_size=12)),
                   "snapshot_interval": draw(steps) * tau,
                   "diagnostics_interval": draw(steps) * tau,
                   "checkpoint_interval": draw(steps) * tau},
    }


class TestRoundTrip:
    def test_serialize_parse_identity(self):
        cfg = parse_config("""
domain: {kind: curved, R: 1.5, r_max: 1.0, a: 0.125}
profile: {kind: curved_frame}
mesh: {n_r: 10, n_z: 15}
solver: {reynolds: 1000.0, tau: 0.025, t_end: 1.5}
planes: {count: 50}
regions: {thresholds: [0.1, 0.3, 0.6]}
vortex: {q_thresholds: [10.0, 20.0]}
output: {directory: results, snapshot_interval: 0.05,
         diagnostics_interval: 0.1, checkpoint_interval: 0.5}
""")
        assert parse_config(serialize_config(cfg)) == cfg

    def test_default_roundtrip(self):
        cfg = parse_config("")
        assert parse_config(serialize_config(cfg)) == cfg

    @settings(max_examples=200, deadline=None)
    @given(doc=config_documents())
    def test_random_documents_roundtrip(self, doc):
        assert {(sec, key) for sec, keys in doc.items() for key in keys} \
            == {(sec, key) for sec, keys in _SCHEMA.items() for key in keys}
        cfg = parse_config(yaml.safe_dump(doc))
        for sec, keys in _SCHEMA.items():
            for key, (attr, _) in keys.items():
                value = doc[sec][key]
                expected = tuple(value) if isinstance(value, list) else value
                assert getattr(cfg, attr) == expected, f"{sec}.{key}"
        assert parse_config(serialize_config(cfg)) == cfg


class TestOverrides:
    def test_dotted_overrides(self):
        cfg = parse_config("", overrides=["solver.reynolds=1000",
                                          "mesh.n_r=8"])
        assert cfg.reynolds == 1000.0
        assert cfg.n_r == 8

    def test_override_creates_section(self):
        cfg = parse_config("", overrides=["domain.kind=curved",
                                          "domain.R=2.0"])
        assert cfg.domain_spec().delta == 0.5

    def test_malformed_override(self):
        with pytest.raises(ConfigError, match="key=value"):
            parse_config("", overrides=["solver.tau"])


class TestDerived:
    def test_steps_per_interval(self):
        cfg = parse_config("")
        assert cfg.steps_per(0.1, "x") == 8
        assert cfg.solver_config().n_steps == 240
        with pytest.raises(ConfigError):
            cfg.steps_per(0.005, "x")   # not a multiple of tau

    def test_solver_config_fields(self):
        cfg = parse_config("solver: {reynolds: 2000.0}")
        sc = cfg.solver_config()
        assert sc.nu == 1.0 / 2000.0
        assert sc.tau == cfg.tau
