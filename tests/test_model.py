import dataclasses
import json
import re

import numpy as np
import pytest

from aoi_mfg import (AgentType, ScenarioConfig, assign_types, default_types, load_scenario,
                     scheduling_scenario)
from aoi_mfg.model import _check_spd, capacity_for, check_erasure
from aoi_mfg.errors import AssumptionViolationError, ConfigError, MissingKeyError, NonPositiveDefiniteError

from reference import _fuzzed_documents, make_type


def _ulps(x, k):
    """x moved k ulps up (k > 0) or down (k < 0)."""
    for _ in range(abs(k)):
        x = np.nextafter(x, np.inf if k > 0 else -np.inf)
    return float(x)


class TestAgentType:
    def test_scalar_promotion(self):
        t = make_type()
        assert t.A.shape == (1, 1)
        assert t.B.shape == (1, 1)
        assert t.n == 1 and t.m == 1

    def test_matrix_shapes(self):
        t = AgentType(label="mat", A=[[0.5, 0.1], [0.0, 0.9]], B=[[1.0], [0.5]],
                      C_W=np.eye(2), Q=np.eye(2), R=[[2.0]],
                      x0_mean=[1.0, -1.0], x0_cov=np.eye(2), prob=1.0)
        assert t.n == 2 and t.m == 1
        assert t.R.shape == (1, 1)

    def test_frobenius_growth(self):
        # ||A||_F^2, the growth factor of the per-step estimation error
        t = make_type(A=1.5)
        assert check_erasure(t.A, 0.0) == pytest.approx(2.25)

    def test_bad_R_shape(self):
        with pytest.raises(ConfigError):
            AgentType(label="bad", A=[[0.5, 0.0], [0.0, 0.5]], B=[[1.0], [0.0]],
                      C_W=np.eye(2), Q=np.eye(2), R=np.eye(2),
                      x0_mean=[0.0, 0.0], x0_cov=np.eye(2), prob=1.0)

    def test_non_spd_rejected(self):
        with pytest.raises(NonPositiveDefiniteError):
            make_type(C_W=-1.0)

    @pytest.mark.parametrize("name", ["A", "B", "C_W", "Q", "R", "x0_mean", "x0_cov"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_entry_named(self, name, value):
        # json reads NaN and Infinity; B = NaN used to give a bounds report,
        # A = NaN a Riccati failure seconds later
        with pytest.raises(ConfigError, match=f"^type 't': {name}: entries must be finite"):
            make_type(**{name: value})

    def test_non_finite_matrix_entry_named(self):
        with pytest.raises(ConfigError, match="^type 'mat': A: entries must be finite"):
            AgentType(label="mat", A=[[0.5, float("nan")], [0.0, 0.9]], B=[[1.0], [0.5]],
                      C_W=np.eye(2), Q=np.eye(2), R=[[2.0]],
                      x0_mean=[1.0, -1.0], x0_cov=np.eye(2), prob=1.0)

    @pytest.mark.parametrize("size", [2, 3])
    def test_symmetry_tolerance_is_allclose(self, size):
        # an asymmetry at 1e-10 + 1e-5 |b| from b, and a few ulps either side
        # of it, is accepted or rejected exactly as np.allclose(m, m.T,
        # atol=1e-10) decides. Away from zero that is the edge; towards zero
        # the smaller entry's tolerance binds first, and both reject
        for i, j in [(i, j) for i in range(size) for j in range(size) if i != j]:
            for b in (0.0, 1e-6, 0.3, -1.0, 7.0):
                decided = set()
                for sign in (1.0, -1.0):
                    edge = b + sign * (1e-10 + 1e-05 * abs(b))
                    for k in range(-3, 4):
                        m = 10.0 * np.eye(size)
                        m[j, i] = b
                        m[i, j] = _ulps(edge, k)
                        symmetric = np.allclose(m, m.T, atol=1e-10)
                        decided.add(symmetric)
                        if symmetric:
                            _check_spd(m, "M")
                        else:
                            with pytest.raises(NonPositiveDefiniteError, match=r"eigenvalue nan"):
                                _check_spd(m, "M")
                assert decided == {True, False}, (i, j, b)

    @pytest.mark.parametrize("value", [1e-300, 0.3, 7.0, 1e300])
    def test_one_by_one_is_symmetric(self, value):
        m = np.array([[value]])
        assert np.allclose(m, m.T, atol=1e-10)
        _check_spd(m, "M")

    def test_erasure_compatibility(self):
        t = make_type(A=2.0)
        with pytest.raises(AssumptionViolationError):
            check_erasure(t.A, 0.3, t.label)
        check_erasure(t.A, 0.2, t.label)  # 4 * 0.2 < 1

    def test_erasure_norm_past_float_range(self):
        # ||A||_F^2 = inf, without the overflow warning that `A * A` gave
        A = np.array([[1e300]])
        with pytest.raises(AssumptionViolationError, match="= inf >= 1"):
            check_erasure(A, 0.2)
        assert check_erasure(A, 0.0) == np.inf

    def test_erasure_incompatible_type_rejected(self):
        # the error names the type and the value ||A||_F^2 p
        t = default_types()[2]  # ||A||_F^2 p = 1.3225 * 0.8 >= 1
        with pytest.raises(AssumptionViolationError, match="'unstable': .* = 1.058 >= 1"):
            check_erasure(t.A, 0.8, t.label)


class TestScenarioConfig:
    def test_alpha(self):
        cfg = ScenarioConfig(N=100, capacity=25, p=0.2, T=10, types=(make_type(),))
        assert cfg.alpha == pytest.approx(0.25)

    def test_capacity_must_be_below_N(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(N=10, capacity=10, p=0.0, T=10, types=(make_type(),))

    def test_p_domain(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(N=10, capacity=2, p=1.0, T=10, types=(make_type(),))

    def test_prob_sum_checked(self):
        bad = (make_type("a", prob=0.6), make_type("b", prob=0.6))
        with pytest.raises(ConfigError):
            ScenarioConfig(N=10, capacity=2, p=0.0, T=10, types=bad)

    @pytest.mark.parametrize("key,value,message", [
        ("seed", -1, "seed must be >= 0"), ("mc_runs", 0, "mc_runs must be >= 1")])
    def test_seed_and_runs_domain(self, key, value, message):
        with pytest.raises(ConfigError, match=message):
            ScenarioConfig(N=10, capacity=2, p=0.0, T=10, types=(make_type(),), **{key: value})

    def test_incompatible_type_rejected(self):
        with pytest.raises(AssumptionViolationError):
            ScenarioConfig(N=10, capacity=2, p=0.3, T=10, types=(make_type(A=2.0),))

    @pytest.mark.parametrize("key", ["N", "T", "mc_runs"])
    def test_count_below_2_53(self, key):
        # records only: no population or run is built at these sizes
        fields = dict(N=2**53 - 1, capacity=1, p=0.0, T=2**53 - 1, types=(make_type(),))
        ScenarioConfig(**fields)
        with pytest.raises(ConfigError, match=rf"{key} must be < 2\*\*53, got 9\.00720e\+15$"):
            ScenarioConfig(**dict(fields, **{key: 2**53}))
        # below the bound a count is shown in full
        with pytest.raises(ConfigError, match=r"got C=9007199254740991, N=9007199254740991$"):
            ScenarioConfig(**dict(fields, capacity=2**53 - 1))

    def test_runs_at_2_63_by_replace_and_load(self):
        # records only: no seed range is run
        cfg = ScenarioConfig(N=10, capacity=2, p=0.0, T=10, types=(make_type(),))
        message = r"^mc_runs must be < 2\*\*53, got 9\.22337e\+18$"
        with pytest.raises(ConfigError, match=message):
            dataclasses.replace(cfg, mc_runs=2**63)
        doc = dict(SCENARIO_DOC, mc_runs=2**63)
        for source in (doc, json.dumps(doc)):
            with pytest.raises(ConfigError, match=message):
                load_scenario(source)

    def test_duplicate_label_rejected(self):
        types = (make_type("a", prob=0.5), make_type("a", A=0.5, prob=0.5))
        with pytest.raises(ConfigError, match="duplicate type label 'a'"):
            ScenarioConfig(N=10, capacity=2, p=0.2, T=10, types=types)

    def test_mixed_state_dimensions_rejected(self):
        two_state = make_type("v", A=[[0.5, 0.1], [0.0, 0.9]], B=[[1.0], [0.5]],
                              C_W=np.eye(2), Q=np.eye(2), x0_mean=[0.0, 0.0],
                              x0_cov=np.eye(2), prob=0.5)
        with pytest.raises(ConfigError, match="state dimension"):
            ScenarioConfig(N=10, capacity=2, p=0.2, T=10,
                           types=(make_type("s", prob=0.5), two_state))


class TestAssignTypes:
    def test_equal_thirds(self):
        types = tuple(make_type(chr(97 + i), prob=1.0 / 3.0) for i in range(3))
        pop = assign_types(100, types)
        assert pop.counts == (34, 33, 33)
        assert pop.N == 100

    def test_largest_remainder(self):
        types = (make_type("a", prob=0.55), make_type("b", prob=0.45))
        pop = assign_types(10, types)
        assert pop.counts == (6, 4)

    def test_counts_within_one_of_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            raw = rng.random(4) + 0.05
            probs = raw / raw.sum()
            types = tuple(make_type(str(i), prob=float(p)) for i, p in enumerate(probs))
            N = int(rng.integers(5, 200))
            pop = assign_types(N, types)
            assert sum(pop.counts) == N
            for c, p in zip(pop.counts, probs):
                assert abs(c - N * p) < 1.0

    def test_duplicate_label_rejected(self):
        types = (make_type("a", prob=0.5), make_type("a", A=0.5, prob=0.5))
        with pytest.raises(ConfigError, match="duplicate type label 'a'"):
            assign_types(10, types)

    def test_contiguous_slices(self):
        types = (make_type("a", prob=0.5), make_type("b", prob=0.5))
        pop = assign_types(7, types)
        s0, s1 = pop.slices()
        assert s0.stop == s1.start
        assert s1.stop == 7
        assert np.all(pop.type_index[s0] == 0)
        assert np.all(pop.type_index[s1] == 1)

    @pytest.mark.parametrize("N", [10.5, True, "10"])
    def test_ill_typed_count_named(self, N):
        with pytest.raises(ConfigError, match=r"^N: expected integer"):
            assign_types(N, default_types())

    def test_count_below_2_53(self):
        # raised before the apportionment: no population is built
        with pytest.raises(ConfigError, match=r"N must lie in \[1, 2\*\*53\), got 9\.00720e\+15$"):
            assign_types(2**53, default_types())
        # a count far past the bound is shown to six digits, not in full
        with pytest.raises(ConfigError, match=r"got 1\.00000e\+300$"):
            assign_types(10**300, default_types())

    def test_integral_count_converted(self):
        pop = assign_types(np.int64(10), default_types())
        assert pop.counts == assign_types(10.0, default_types()).counts == (4, 3, 3)


class TestCapacityFor:
    @pytest.mark.parametrize("alpha,N,named", [
        ("0.25", 10, "alpha: expected real"), (True, 10, "alpha: expected real"),
        (0.25, 10.5, "N: expected integer"), (0.25, True, "N: expected integer"),
        (0.25, "10", "N: expected integer"),
    ])
    def test_ill_typed_argument_named(self, alpha, N, named):
        with pytest.raises(ConfigError, match=rf"^{named}"):
            capacity_for(alpha, N)

    # alpha * N past float64 raised OverflowError, an internal error (exit 4) in the CLI
    @pytest.mark.parametrize("alpha,N", [(1e308, 12), (0.25, 10**400)], ids=["alpha", "N"])
    def test_product_past_float_named(self, alpha, N):
        with pytest.raises(ConfigError, match=r"^alpha \* N must be finite, got alpha="):
            capacity_for(alpha, N)

    def test_preset_alpha_named(self):
        with pytest.raises(ConfigError, match=r"^alpha: expected real"):
            scheduling_scenario(alpha="0.25")

    @pytest.mark.parametrize("alpha,N,want", [
        (0.25, 10, 2), (0.25, 100, 25), (0.29, 10, 3), (0.01, 10, 1), (1, 7, 7),
        (np.float64(0.25), np.int64(100), 25), (0.25, 100.0, 25),
        # finite products keep their values up to float64's edge
        pytest.param(1e307, 12, round(1.2e308), id="alpha-edge"),
        pytest.param(0.5, 2**1000, 2**999, id="N-2**1000"),
    ])
    def test_values(self, alpha, N, want):
        got = capacity_for(alpha, N)
        assert got == want and type(got) is int


def _record_kwargs(record):
    """Valid keyword arguments for AgentType or ScenarioConfig."""
    if record is AgentType:
        return dict(label="t", A=1.0, B=0.1, C_W=5.0, Q=1.0, R=1.0, x0_mean=0.0, x0_cov=1.0,
                    prob=1.0)
    return dict(N=10, capacity=2, p=0.2, T=10, types=(make_type(),), seed=0, mc_runs=1)


class TestRecordFields:
    """The records convert and check their own fields, however they are built."""

    @pytest.mark.parametrize("record,key,value,named", [
        (ScenarioConfig, "N", 10.5, "N"), (ScenarioConfig, "N", True, "N"),
        (ScenarioConfig, "T", 10.5, "T"), (ScenarioConfig, "seed", 1.5, "seed"),
        (ScenarioConfig, "capacity", 3.99, "capacity"),
        (ScenarioConfig, "mc_runs", False, "mc_runs"), (ScenarioConfig, "p", "0.2", "p"),
        (AgentType, "prob", "0.5", "type 't': prob"), (AgentType, "label", 7, "label"),
        (AgentType, "label", None, "label"),
        (ScenarioConfig, "types", ({"label": "t", "prob": 1.0},), "types[0]"),
    ])
    def test_ill_typed_field_named(self, record, key, value, named):
        with pytest.raises(ConfigError, match=rf"^{re.escape(named)}: expected"):
            record(**dict(_record_kwargs(record), **{key: value}))

    @pytest.mark.parametrize("record", [AgentType, ScenarioConfig])
    def test_every_number_field_rejects_bool(self, record):
        # a number field added later is converted too, or this fails
        numeric = [f.name for f in dataclasses.fields(record) if f.type in ("int", "float")]
        assert numeric
        for name in numeric:
            with pytest.raises(ConfigError, match=rf"\b{name}: expected"):
                record(**dict(_record_kwargs(record), **{name: True}))

    def test_converted_values(self):
        cfg = ScenarioConfig(N=np.int64(10), capacity=2.0, p=0, T=10.0, types=[make_type()])
        assert [type(v) for v in (cfg.N, cfg.capacity, cfg.p, cfg.T)] == [int, int, float, int]
        assert isinstance(cfg.types, tuple)
        assert type(make_type(prob=np.float64(1.0)).prob) is float


SCENARIO_DOC = {
    "N": 10, "alpha": 0.3, "p": 0.1, "T": 50, "seed": 4,
    "types": [
        {"label": "a", "A": 1.0, "B": 0.1, "C_W": 5.0, "Q": 1.0, "R": 1.0,
         "x0_mean": 0.0, "x0_cov": 1.0, "prob": 0.5},
        {"label": "b", "A": 0.5, "B": 0.1, "C_W": 5.0, "Q": 1.0, "R": 1.0,
         "x0_mean": 1.0, "x0_cov": 1.0, "prob": 0.5},
    ],
}


class TestLoadScenario:
    def test_from_dict(self):
        cfg = load_scenario(SCENARIO_DOC)
        assert cfg.N == 10
        assert cfg.capacity == 3  # alpha * N
        assert cfg.seed == 4
        assert len(cfg.types) == 2

    def test_from_json_file(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(SCENARIO_DOC))
        cfg = load_scenario(path)
        assert cfg.capacity == 3
        assert cfg.types[1].label == "b"

    def test_missing_top_key(self):
        doc = dict(SCENARIO_DOC)
        del doc["p"]
        with pytest.raises(MissingKeyError, match="p"):
            load_scenario(doc)

    def test_missing_capacity_and_alpha(self):
        doc = dict(SCENARIO_DOC)
        del doc["alpha"]
        with pytest.raises(MissingKeyError):
            load_scenario(doc)

    def test_missing_type_key(self):
        doc = json.loads(json.dumps(SCENARIO_DOC))
        del doc["types"][0]["C_W"]
        with pytest.raises(MissingKeyError, match="C_W"):
            load_scenario(doc)

    def test_long_json_text(self):
        # longer than a file name may be; must not be tested as a path first
        text = json.dumps(SCENARIO_DOC) + " " * 300
        assert len(text) > 255
        assert load_scenario(text).capacity == 3

    def test_invalid_json_text(self):
        with pytest.raises(ConfigError):
            load_scenario("{not json")

    @pytest.mark.parametrize("as_path", [False, True])
    def test_missing_file_is_an_io_error_naming_it(self, as_path, tmp_path):
        # not read as JSON text: the error names the file, not a JSON position
        missing = tmp_path / "nope.json"
        with pytest.raises(FileNotFoundError, match="nope.json"):
            load_scenario(missing if as_path else str(missing))

    def test_alpha_rounds_as_the_presets_do(self):
        # 0.29 * 10 = 2.9: the presets and the CLI round it to 3, not floor it to 2
        doc = dict(SCENARIO_DOC, alpha=0.29)
        assert load_scenario(doc).capacity == 3 == capacity_for(0.29, 10)

    @pytest.mark.parametrize("alpha,named", [("junk", "alpha: expected real"),
                                             (-0.3, "alpha must be finite and > 0")])
    def test_alpha_checked_beside_an_explicit_capacity(self, alpha, named):
        # capacity wins, but a bad alpha beside it used to load unread
        with pytest.raises(ConfigError, match=named):
            load_scenario(dict(SCENARIO_DOC, capacity=3, alpha=alpha))

    def test_integral_float_count_accepted(self):
        cfg = load_scenario(dict(SCENARIO_DOC, N=10.0, capacity=3.0, T=50.0, seed=7.0))
        assert (cfg.N, cfg.capacity, cfg.T, cfg.seed) == (10, 3, 50, 7)
        assert all(type(v) is int for v in (cfg.N, cfg.capacity, cfg.T, cfg.seed))

    def test_dropped_bisection_eps_key_still_loads(self):
        # the retired key is passed over, so scenario files that still set it load
        assert load_scenario(dict(SCENARIO_DOC, bisection_eps=1e-3)).capacity == 3

    def test_unknown_keys_named(self):
        # misspelt keys used to load as their defaults: mc_runs=1, seed=0
        doc = json.loads(json.dumps(dict(SCENARIO_DOC, mc_run=4, sed=5)))
        doc["types"][1]["X0_mean"] = 1.0
        with pytest.raises(ConfigError, match=r"^unknown keys: mc_run, sed, types\[1\]\.X0_mean$"):
            load_scenario(doc)

    def test_explicit_capacity_wins(self):
        doc = dict(SCENARIO_DOC)
        doc["capacity"] = 4
        assert load_scenario(doc).capacity == 4


class TestScenarioFuzz:
    def test_every_mutation_loads_or_raises_a_config_error(self):
        # a seeded regression guard for the bad-input classes fixed one at a
        # time (NaN matrices, the erasure assumption, counts at 2**53, long
        # integer literals, a norm past float's range); it stops at
        # load_scenario, since a run of some loaded documents walks the kappa
        # scan for seconds
        loaded = rejected = 0
        for change, source in _fuzzed_documents(400, seed=10):
            try:
                load_scenario(source)
            except ConfigError:
                rejected += 1
            except Exception as exc:  # any other exception is a package bug
                pytest.fail(f"{change}: {exc!r}")
            else:
                loaded += 1
        assert loaded + rejected == 400 and loaded and rejected
