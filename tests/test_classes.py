"""Tests for family parameter validation, coefficient bounds, distance
constants, majorant sums, growth envelopes, and extremal coefficients.

Closed-form expectations are derived in comments; series-backed quantities
are cross-checked against plain partial sums computed in-test.
"""

import copy
import dataclasses
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from harmbohr.classes import (
    FAMILIES,
    PH_M_SUP,
    ClassSpec,
    Family,
    FamilyDef,
    GrowthEnvelope,
    bohr_sum,
    coefficient_rule,
    distance_bound,
    extremal_coefficients,
    gh_k_alpha,
    growth_envelope,
    gt_beta,
    lane_groups,
    make_spec,
    ph_alpha,
    ph_m,
    stack_lanes,
    start_index,
    sweep_lanes,
    take_lanes,
    tb_m,
    validate,
    wh_alpha,
)
from harmbohr.errors import DomainError, ValidationError
from harmbohr.series import SeriesValue, _wh_alt, alt_lerch_sum, capped_product
from harmbohr.solver import jacobian_radius
from harmbohr.verifier import _tail_bound

ALL_SAMPLE_SPECS = [
    ph_alpha(0.0),
    ph_alpha(0.7),
    gt_beta(0.25),
    wh_alpha(0.5),
    wh_alpha(1.0),
    gh_k_alpha(1, 1.0),
    gh_k_alpha(3, 0.5),
    tb_m(1.0),
    ph_m(0.8),
]


def coefficient_bound(spec, n):
    """The sharp bound c_n on |a_n| + |b_n|, one index at a time."""
    return coefficient_rule(spec).term(n)


def direct_majorant(spec, r, n_terms=4000):
    """r plus a plain partial sum of the coefficient bounds."""
    n0 = start_index(spec)
    ns = np.arange(n0, n0 + n_terms, dtype=np.float64)
    return r + float(np.dot(coefficient_rule(spec).terms(ns), np.power(r, ns)))


class TestValidation:
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 0.999])
    def test_ph_alpha_accepts(self, alpha):
        validate(ph_alpha(alpha))

    @pytest.mark.parametrize("alpha", [-0.1, 1.0, 1.5, float("nan"), float("inf")])
    def test_ph_alpha_rejects(self, alpha):
        with pytest.raises(ValidationError):
            ph_alpha(alpha)

    @pytest.mark.parametrize("beta", [0.0, 0.25, 0.49])
    def test_gt_beta_accepts(self, beta):
        validate(gt_beta(beta))

    def test_gt_beta_rejects_half_with_message(self):
        with pytest.raises(ValidationError, match="1/2"):
            gt_beta(0.5)

    @pytest.mark.parametrize("beta", [-1e-3, 0.6, float("nan")])
    def test_gt_beta_rejects(self, beta):
        with pytest.raises(ValidationError):
            gt_beta(beta)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_wh_alpha_accepts_closed_interval(self, alpha):
        validate(wh_alpha(alpha))

    @pytest.mark.parametrize("alpha", [-0.1, 1.01])
    def test_wh_alpha_rejects(self, alpha):
        with pytest.raises(ValidationError):
            wh_alpha(alpha)

    @pytest.mark.parametrize("k,alpha", [(1, 0.1), (2, 1.0), (7, 25.0)])
    def test_gh_accepts(self, k, alpha):
        validate(gh_k_alpha(k, alpha))

    @pytest.mark.parametrize("k,alpha", [(0, 1.0), (-2, 1.0), (1, 0.0), (1, -0.5)])
    def test_gh_rejects(self, k, alpha):
        with pytest.raises(ValidationError):
            gh_k_alpha(k, alpha)

    def test_gh_rejects_fractional_k(self):
        with pytest.raises(ValidationError):
            validate(ClassSpec(family=Family.GH_K_ALPHA, k=1.5, alpha=1.0))

    @pytest.mark.parametrize("m", [1e-6, 1.0, 1.99])
    def test_tb_accepts(self, m):
        validate(tb_m(m))

    @pytest.mark.parametrize("m", [0.0, -0.5, 2.0, 2.5])
    def test_tb_rejects(self, m):
        with pytest.raises(ValidationError):
            tb_m(m)

    @pytest.mark.parametrize("m", [1e-6, 0.9, 1.29])
    def test_ph_m_accepts(self, m):
        validate(ph_m(m))

    def test_ph_m_rejects_just_above_supremum(self):
        with pytest.raises(ValidationError, match="1.29435"):
            ph_m(1.3)

    def test_ph_m_rejects_supremum_itself(self):
        with pytest.raises(ValidationError):
            ph_m(PH_M_SUP)

    def test_ph_m_supremum_value(self):
        assert PH_M_SUP == pytest.approx(1.0 / (2.0 * (math.log(4.0) - 1.0)), abs=0.0)
        assert PH_M_SUP == pytest.approx(1.2943497247810449, abs=1e-15)

    def test_make_spec_roundtrip(self):
        spec = make_spec(Family.GH_K_ALPHA, k=2, alpha=1.0)
        assert spec == gh_k_alpha(2, 1.0)

    def test_make_spec_missing_parameter(self):
        with pytest.raises((ValidationError, TypeError)):
            make_spec(Family.GH_K_ALPHA, k=2)

    def test_canonical_params_cover_all_families(self):
        # Every class tag has a swept (canonical) parameter for --range.
        from harmbohr.cli import CLASS_TAGS, _EXPECTED_PARAMS

        assert set(_EXPECTED_PARAMS) == set(CLASS_TAGS)
        assert all(_EXPECTED_PARAMS[tag] for tag in CLASS_TAGS)

    @pytest.mark.parametrize("k", [2.5, float("nan"), float("inf"), None])
    def test_non_integral_k_rejected_not_truncated(self, k):
        message = f"^k must be an integer >= 1, got {k!r}$"
        with pytest.raises(ValidationError, match=message):
            gh_k_alpha(k, 1.0)
        with pytest.raises(ValidationError, match=message):
            make_spec(Family.GH_K_ALPHA, k=k, alpha=1.0)

    @pytest.mark.parametrize("k", [2, 2.0, np.int64(2), np.float64(2.0)])
    def test_integral_k_becomes_int(self, k):
        spec = make_spec(Family.GH_K_ALPHA, k=k, alpha=1.0)
        assert spec == gh_k_alpha(2, 1.0)
        assert type(spec.k) is int
        assert spec.params() == {"k": 2, "alpha": 1.0}

    @pytest.mark.parametrize("exponent,bits", [(400, 1329), (5000, 16610)])
    def test_k_beyond_float_range_rejected(self, exponent, bits):
        # 10**5000 has more digits than Python converts to a string.
        message = f"^k must convert to a finite float, got an integer of {bits} bits$"
        with pytest.raises(ValidationError, match=message):
            gh_k_alpha(10**exponent, 1e-300)


class TestValidByConstruction:
    """A ClassSpec checks its parameters where it is built, and only there."""

    @pytest.mark.parametrize(
        "build,message",
        [
            (
                lambda: ClassSpec(Family.WH_ALPHA, alpha=np.array([0.5, 1.5, 2.0])),
                "^alpha must satisfy 0 <= alpha <= 1, got 1.5$",
            ),
            (
                lambda: dataclasses.replace(
                    stack_lanes([wh_alpha(0.1), wh_alpha(0.2)]), alpha=np.array([0.3, -1.0, 2.0])
                ),
                "^alpha must satisfy 0 <= alpha <= 1, got -1.0$",
            ),
            (
                lambda: ClassSpec(Family.GT_BETA, beta=np.array([0.1, np.inf, np.nan])),
                "^beta must be finite, got inf$",
            ),
            (lambda: dataclasses.replace(tb_m(1.0), m=2.0), "^m must satisfy 0 < m < 2, got 2.0$"),
            (lambda: dataclasses.replace(gh_k_alpha(2, 1.0), k=0), "^k must be an integer >= 1, got 0$"),
            (lambda: ClassSpec(Family.PH_ALPHA), "^alpha is required for this family$"),
        ],
        ids=["direct-lanes", "replaced-lanes", "first-non-finite", "replaced", "replaced-k", "missing"],
    )
    def test_invalid_spec_raises_where_built(self, build, message):
        with pytest.raises(ValidationError, match=message):
            build()

    def test_lane_arrays_are_read_only_float64_copies(self):
        given = np.array([0.1, 0.2, 0.3])
        built = {
            "ClassSpec": ClassSpec(Family.WH_ALPHA, alpha=given),
            "stack_lanes": stack_lanes(wh_alpha(a) for a in given),
            "sweep_lanes": sweep_lanes(wh_alpha(0.5), "alpha", given)[0],
            "take_lanes": take_lanes(ClassSpec(Family.WH_ALPHA, alpha=given), [0, 2]),
            "replace": dataclasses.replace(wh_alpha(0.5), alpha=given),
            "int-array": ClassSpec(Family.TB_M, m=np.array([1, 1])),
        }
        for how, spec in built.items():
            lanes = spec.params()[FAMILIES[spec.family].params[-1]]
            assert lanes.dtype == np.float64 and not lanes.flags.writeable, how
            assert not np.shares_memory(lanes, given), how
            with pytest.raises(ValueError, match="read-only"):
                lanes[0] = 7.0
        # The caller's array is copied, not frozen in place.
        assert given.flags.writeable
        given[0] = 0.9
        assert built["ClassSpec"].alpha.tolist() == [0.1, 0.2, 0.3]

    @pytest.mark.parametrize(
        "rebuild",
        [copy.copy, copy.deepcopy, lambda spec: pickle.loads(pickle.dumps(spec))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copies_are_rebuilt_through_the_constructor(self, rebuild, monkeypatch):
        import harmbohr.classes as classes

        calls = []
        monkeypatch.setattr(classes, "validate", calls.append)
        lanes = stack_lanes([gh_k_alpha(2, 0.1), gh_k_alpha(2, 0.2)])
        for spec in (lanes, gh_k_alpha(3, 0.5)):
            calls.clear()
            copied = rebuild(spec)
            assert calls == [copied]  # checked again, like a spec built anew
            assert copied == spec
            assert type(copied.k) is int and copied.family is spec.family
        copied = rebuild(lanes)
        assert not np.shares_memory(copied.alpha, lanes.alpha)
        assert copied.alpha.dtype == np.float64 and not copied.alpha.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            copied.alpha[0] = 7.0

    def test_lane_specs_compare_by_fields(self):
        grid = [wh_alpha(0.1), wh_alpha(0.2), wh_alpha(0.3)]
        assert stack_lanes(grid) == stack_lanes(grid)
        assert stack_lanes(grid) != stack_lanes([*grid[:2], wh_alpha(0.4)])
        assert stack_lanes(grid) != stack_lanes(grid[:2])
        assert stack_lanes(grid) != stack_lanes([ph_alpha(s.alpha) for s in grid])
        assert stack_lanes(grid[:1]) != grid[0]  # one lane is not a float spec
        # Float specs still compare and hash as the tuple of their fields.
        assert gh_k_alpha(2, 1.0) == gh_k_alpha(2.0, 1) and gh_k_alpha(2, 1.0) != gh_k_alpha(3, 1.0)
        assert hash(gh_k_alpha(2, 1.0)) == hash(gh_k_alpha(2.0, 1))
        assert {wh_alpha(0.5): 1}[wh_alpha(0.5)] == 1

    @pytest.mark.parametrize(
        "build,name",
        [
            (lambda: tb_m(True), "m"),
            (lambda: gt_beta(False), "beta"),
            (lambda: ph_alpha("0.3"), "alpha"),
            (lambda: gh_k_alpha("3", 1.0), "k"),
            (lambda: gh_k_alpha(3, "1"), "alpha"),
            (lambda: gh_k_alpha(True, 1.0), "k"),
            (lambda: wh_alpha(np.True_), "alpha"),
            (lambda: ph_m(0.5 + 0j), "m"),
            (lambda: ClassSpec(Family.WH_ALPHA, alpha=np.array([True, False])), "alpha"),
            (lambda: ClassSpec(Family.TB_M, m=np.array(True)), "m"),
            (lambda: ClassSpec(Family.TB_M, m=np.array(["1.0"])), "m"),
        ],
        ids=[
            "bool", "false", "str", "str-k", "str-alpha", "bool-k", "numpy-bool", "complex",
            "bool-lanes", "bool-0d", "str-lanes",
        ],
    )
    def test_bool_and_non_numeric_parameters_are_rejected(self, build, name):
        # float() takes True and "0.3", so each would otherwise solve as a number.
        with pytest.raises(ValidationError, match=f"^{name} must be a real number, got "):
            build()

    def test_real_numbers_and_real_arrays_are_accepted(self):
        assert tb_m(np.float32(1.0)) == tb_m(Fraction(1)) == tb_m(np.int64(1)) == tb_m(1.0)
        assert gh_k_alpha(np.int64(3), Fraction(1, 2)) == gh_k_alpha(3, 0.5)
        # A 0-d array is one point, as jacobian_radius builds it.
        assert ClassSpec(Family.TB_M, m=np.asarray(1.0)) == tb_m(1.0)
        assert jacobian_radius(1.0) == jacobian_radius(np.asarray(1.0))

    def test_parameters_are_normalised(self):
        spec = ClassSpec(Family.GH_K_ALPHA, k=2.0, alpha=1)
        assert spec == gh_k_alpha(2, 1.0)
        assert type(spec.k) is int and type(spec.alpha) is float

    def test_engines_do_not_recheck_a_built_spec(self, monkeypatch):
        import harmbohr.classes as classes
        from harmbohr.solver import closed_form_radius

        calls = []

        def counted(spec):
            calls.append(spec)
            return validate(spec)

        monkeypatch.setattr(classes, "validate", counted)
        wh_alpha(0.5)
        assert len(calls) == 1  # building a spec is counted
        lanes = [stack_lanes(specs) for specs in TestLanes.GRIDS]
        calls.clear()
        for spec in ALL_SAMPLE_SPECS + lanes:
            bohr_sum(spec, 0.3)
            distance_bound(spec)
            growth_envelope(spec, 0.3)
            coefficient_rule(spec)
            closed_form_radius(spec)
        for spec in ALL_SAMPLE_SPECS:
            extremal_coefficients(spec, 16)
        assert calls == []


class TestFamilyRecords:
    """Each family is defined once, in FAMILIES; the rest is derived."""

    def test_one_record_per_family(self):
        assert list(FAMILIES) == list(Family)
        assert all(isinstance(d, FamilyDef) for d in FAMILIES.values())

    def test_parameters_come_from_the_records(self):
        from harmbohr.cli import CLASS_TAGS, JACOBIAN_TAG, _EXPECTED_PARAMS

        for fam, record in FAMILIES.items():
            assert _EXPECTED_PARAMS[fam.value] is record.params
            spec = make_spec(fam, **{name: 1 if name == "k" else 0.25 for name in record.params})
            assert tuple(spec.params()) == record.params
        assert _EXPECTED_PARAMS[JACOBIAN_TAG] is FAMILIES[Family.TB_M].params
        assert CLASS_TAGS == tuple(f.value for f in Family) + (JACOBIAN_TAG,)


class TestStartIndex:
    def test_default_families_start_at_two(self):
        for spec in (ph_alpha(0.0), gt_beta(0.1), wh_alpha(0.5), tb_m(1.0), ph_m(1.0)):
            assert start_index(spec) == 2

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_lacunary_family_starts_after_gap(self, k):
        assert start_index(gh_k_alpha(k, 1.0)) == k + 1


class TestCoefficientBound:
    def test_ph_alpha_examples(self):
        # 2(1-alpha)/n: alpha=0, n=2 -> 1; alpha=0.5, n=4 -> 0.25.
        assert coefficient_bound(ph_alpha(0.0), 2) == 1.0
        assert coefficient_bound(ph_alpha(0.5), 4) == 0.25

    def test_gt_beta_constant_in_n(self):
        spec = gt_beta(0.25)
        assert coefficient_bound(spec, 2) == 1.5
        assert coefficient_bound(spec, 50) == 1.5

    def test_wh_alpha_examples(self):
        # 2/(n(1+alpha(n-1))): alpha=1, n=3 -> 2/9; alpha=0, n=5 -> 0.4.
        assert coefficient_bound(wh_alpha(1.0), 3) == pytest.approx(2.0 / 9.0, abs=1e-16)
        assert coefficient_bound(wh_alpha(0.0), 5) == pytest.approx(0.4, abs=1e-16)

    def test_gh_examples(self):
        # 2/(1+(n-1)alpha) from n = k+1 on.
        assert coefficient_bound(gh_k_alpha(2, 1.0), 3) == pytest.approx(2.0 / 3.0, abs=1e-16)
        assert coefficient_bound(gh_k_alpha(1, 2.0), 2) == pytest.approx(2.0 / 3.0, abs=1e-16)

    def test_gh_extreme_parameters_stay_finite(self):
        # (n - 1) alpha = 1e17 * 1e300 overflows a float; it is capped at
        # 1e300 as the lacunary products are, and warnings are errors here.
        k = 10**17
        spec = gh_k_alpha(k, 1e300)
        assert coefficient_bound(spec, k + 1) == 2.0 / (1.0 + 1e300)
        ns = np.array([k + 1.0, 1e300])
        assert np.array_equal(coefficient_rule(spec).terms(ns), [2.0 / (1.0 + 1e300)] * 2)

    @pytest.mark.parametrize("k,alpha", [(1, 1e-300), (2, 1.0), (3, 0.5), (10**6, 1e9), (1, 1e298)])
    def test_gh_below_the_cap_is_the_plain_quotient(self, k, alpha):
        # Bit for bit 2/(1 + (n - 1) alpha) where (n - 1) alpha stays below 1e300.
        ns = np.arange(k + 1.0, k + 41.0)
        plain = 2.0 / (1.0 + (ns - 1.0) * alpha)
        assert np.array_equal(coefficient_rule(gh_k_alpha(k, alpha)).terms(ns), plain)

    def test_tb_single_nonzero_index(self):
        spec = tb_m(1.2)
        assert coefficient_bound(spec, 2) == 0.6
        assert coefficient_bound(spec, 3) == 0.0
        assert coefficient_bound(spec, 17) == 0.0

    def test_ph_m_example(self):
        # 2M/(n(n-1)): M=1, n=4 -> 1/6.
        assert coefficient_bound(ph_m(1.0), 4) == pytest.approx(1.0 / 6.0, abs=1e-16)

    @pytest.mark.parametrize("spec", ALL_SAMPLE_SPECS)
    def test_nonincreasing_in_n(self, spec):
        n0 = start_index(spec)
        values = [coefficient_bound(spec, n) for n in range(n0, n0 + 60)]
        assert all(a >= b - 1e-16 for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("spec", ALL_SAMPLE_SPECS)
    def test_rule_matches_scalar_bound(self, spec):
        n0 = start_index(spec)
        ns = np.arange(n0, n0 + 25, dtype=np.float64)
        from_rule = coefficient_rule(spec).terms(ns)
        pointwise = [coefficient_bound(spec, int(n)) for n in ns]
        assert np.array_equal(from_rule, np.asarray(pointwise))


def written_d_star(spec):
    """(d*, its error bound) as the closed forms and alternating sums write it."""
    fam = spec.family
    if fam is Family.PH_ALPHA:
        return 1.0 + 2.0 * (1.0 - spec.alpha) * (math.log(2.0) - 1.0), 0.0
    if fam is Family.PH_M:
        return 1.0 + 2.0 * spec.m * (1.0 - math.log(4.0)), 0.0
    if fam is Family.TB_M:
        return 1.0 - spec.m / 2.0, 0.0
    if fam is Family.GT_BETA:
        return spec.beta, 0.0
    if fam is Family.WH_ALPHA:
        # 1 + sum_{n>=2} (-1)^(n-1) 2/(n (1 + (n - 1) alpha)).
        alt = _wh_alt(1.0, spec.alpha)
    else:
        # 1 + sum_{j>=1} (-1)^j 2/(1 + j k alpha), the lacunary extremal at
        # its lower touch point: m = j - 1 in the Lerch form.
        ka = capped_product(spec.k, spec.alpha)
        alt = alt_lerch_sum(1.0, 1.0 + ka, ka)
    return 1.0 - 2.0 * alt.value, 2.0 * alt.error_bound


def d_star_sample(fam, seed):
    """Twelve seeded points of the family's domain, plus its edges (per k for gh-k-alpha)."""
    rng = np.random.default_rng(seed)
    below = math.nextafter
    if fam is Family.GH_K_ALPHA:
        alphas = [1e-300, 1e-3, 1.0, 1e300, *(10.0 ** rng.uniform(-3.0, 3.0, 12))]
        return [gh_k_alpha(k, float(a)) for k in (1, 2, 5) for a in alphas]
    edges, hi = {
        Family.PH_ALPHA: ([0.0, 5e-324, below(1.0, 0.0)], 1.0),
        # A lower side written r - 2(1 - beta) r^2 / (1 + r) would round
        # d* to 0 below beta = 1e-16.
        Family.GT_BETA: ([0.0, 5e-324, 1e-300, 1e-17, below(0.5, 0.0)], 0.5),
        Family.WH_ALPHA: ([0.0, 5e-324, 1.0], 1.0),
        Family.TB_M: ([5e-324, 1e-300, below(2.0, 0.0)], 2.0),
        Family.PH_M: ([5e-324, 1e-300, below(PH_M_SUP, 0.0)], PH_M_SUP),
    }[fam]
    name = FAMILIES[fam].params[-1]
    return [make_spec(fam, **{name: float(v)}) for v in [*edges, *rng.uniform(0.0, hi, 12)]]


class TestDistanceBound:
    @pytest.mark.parametrize("fam", list(Family), ids=lambda f: f.value)
    def test_d_star_is_its_written_formula_bit_for_bit(self, fam):
        # d* is the lower envelope at r = 1; at every point, one at a time
        # and as lanes, it is exactly the formula written out above.
        specs = d_star_sample(fam, seed=list(Family).index(fam))
        for spec in specs:
            d = distance_bound(spec)
            assert (d.value, d.error_bound) == written_d_star(spec), spec
            assert type(d.value) is float and type(d.error_bound) is float
        for idx in lane_groups(specs):
            d = distance_bound(stack_lanes(specs[i] for i in idx))
            assert list(zip(d.value.tolist(), d.error_bound.tolist())) == [
                written_d_star(specs[i]) for i in idx
            ]

    def test_ph_alpha_closed_form(self):
        # 1 + 2(1-alpha)(ln 2 - 1): alpha=0 -> 2 ln 2 - 1.
        d = distance_bound(ph_alpha(0.0))
        assert d.value == pytest.approx(2.0 * math.log(2.0) - 1.0, abs=1e-16)
        assert d.error_bound == 0.0
        d3 = distance_bound(ph_alpha(0.3))
        assert d3.value == pytest.approx(1.0 + 1.4 * (math.log(2.0) - 1.0), abs=1e-15)

    def test_gt_beta_is_beta(self):
        assert distance_bound(gt_beta(0.37)).value == 0.37
        assert distance_bound(gt_beta(0.0)).value == 0.0

    def test_tb_closed_form(self):
        assert distance_bound(tb_m(1.0)).value == 0.5
        assert distance_bound(tb_m(0.4)).value == pytest.approx(0.8, abs=1e-16)

    def test_ph_m_closed_form(self):
        # 1 + 2M(1 - ln 4); positive on the whole admissible range.
        d = distance_bound(ph_m(1.0))
        assert d.value == pytest.approx(1.0 + 2.0 * (1.0 - math.log(4.0)), abs=1e-15)
        assert distance_bound(ph_m(1.29)).value > 0.0

    def test_wh_alpha_one_is_basel_remainder(self):
        # 1 + 2 sum_{n>=2} (-1)^(n-1)/n^2 = pi^2/6 - 1.
        d = distance_bound(wh_alpha(1.0))
        assert abs(d.value - (math.pi**2 / 6.0 - 1.0)) <= d.error_bound + 1e-15

    def test_wh_alpha_half_closed_form(self):
        # Partial fractions of 4/(n(n+1)) collapse the constant to 8 ln 2 - 5.
        d = distance_bound(wh_alpha(0.5))
        assert abs(d.value - (8.0 * math.log(2.0) - 5.0)) <= d.error_bound + 1e-15

    def test_wh_alpha_zero_reduces_to_ph(self):
        d = distance_bound(wh_alpha(0.0))
        expect = distance_bound(ph_alpha(0.0)).value
        assert abs(d.value - expect) <= d.error_bound + 1e-15

    def test_gh_reductions(self):
        # k=1, alpha=1: same alternating sum as the harmonic rule -> 2 ln 2 - 1.
        d = distance_bound(gh_k_alpha(1, 1.0))
        assert abs(d.value - (2.0 * math.log(2.0) - 1.0)) <= d.error_bound + 1e-15
        # k=2, alpha=1: 1 + 2 sum_{j>=1} (-1)^j/(1+2j) = pi/2 - 1.
        d = distance_bound(gh_k_alpha(2, 1.0))
        assert abs(d.value - (math.pi / 2.0 - 1.0)) <= d.error_bound + 1e-15

    @pytest.mark.parametrize("spec", ALL_SAMPLE_SPECS)
    def test_positive_and_below_one(self, spec):
        d = distance_bound(spec)
        if spec.family is Family.GT_BETA and spec.beta == 0.0:
            assert d.value == 0.0
        else:
            assert d.value > 0.0
        assert d.value < 1.0

    def test_error_bound_respects_tol(self):
        for tol in (1e-8, 1e-12):
            d = distance_bound(wh_alpha(0.75))
            assert d.error_bound <= tol


class TestBohrSum:
    @pytest.mark.parametrize("spec", ALL_SAMPLE_SPECS)
    def test_zero_radius_is_zero(self, spec):
        sv = bohr_sum(spec, 0.0)
        assert sv.value == 0.0

    @pytest.mark.parametrize("k,alpha", [(1, 1.0), (3, 0.5), (10**17, 1e300), (1, 1e-300)])
    def test_lacunary_lerch_majorant_exact_at_zero(self, k, alpha):
        assert bohr_sum(gh_k_alpha(k, alpha), 0.0) == SeriesValue(0.0, 0.0)

    @pytest.mark.parametrize("alpha", [5e-324, 1e-300])
    @pytest.mark.parametrize("r", [0.5, 0.999, 1.0 - 2.0**-53])
    def test_lacunary_tiny_alpha_warns_nothing(self, alpha, r):
        # Warnings are errors here: the slope bound behind every bohr_sum
        # must neither divide by zero nor overflow at the smallest alphas,
        # as one point or as lanes next to ordinary ones.
        for k in (1, 3):
            b = bohr_sum(gh_k_alpha(k, alpha), r)
            assert math.isfinite(b.value) and b.value >= r
            _, slope = FAMILIES[Family.GH_K_ALPHA].majorant(gh_k_alpha(k, alpha), r)
            assert np.isfinite(slope) and slope >= 1.0
        lanes = stack_lanes([gh_k_alpha(2, a) for a in (1.0, alpha, 0.3, alpha)])
        rs = np.full(4, r)
        b = bohr_sum(lanes, rs)
        for i, a in enumerate((1.0, alpha, 0.3, alpha)):
            assert SeriesValue(b.value[i], b.error_bound[i]) == bohr_sum(gh_k_alpha(2, a), r)
        _, slope = FAMILIES[Family.GH_K_ALPHA].majorant(lanes, rs)
        assert np.all(np.isfinite(slope)) and np.all(slope >= 1.0)

    @pytest.mark.parametrize("k", [1, 3])
    def test_lacunary_tiny_alpha_slope_is_the_derivative(self, k):
        # At alpha below 1e-280 the slope bound is B' at alpha = 0, which
        # differs from the true B' by O(alpha).
        spec, r, h = gh_k_alpha(k, 1e-300), 0.5, 1e-6
        fd = (bohr_sum(spec, r + h).value - bohr_sum(spec, r - h).value) / (2.0 * h)
        _, slope = FAMILIES[Family.GH_K_ALPHA].majorant(spec, r)
        assert slope == pytest.approx(fd, rel=1e-8)

    @pytest.mark.parametrize("alpha", [0.0, 0.49, 0.5, 1.0])
    def test_wh_alpha_returns_next_to_one(self, alpha):
        # wh-alpha's majorant is summed at a fixed cost, so it returns next
        # to r = 1, where a term-by-term sum would need over 2^20 terms; its
        # bound is its own there, and within tol = 1e-13 up to r = 0.9999.
        spec = wh_alpha(alpha)
        for r in (1.0 - 1e-6, 1.0 - 1e-9, 1.0 - 1e-12):
            b = bohr_sum(spec, r)
            env = growth_envelope(spec, r)
            assert math.isfinite(b.value) and b.value >= r and b.error_bound <= 1e-12
            assert env.upper == b.value and env.error_bound <= 1e-12
        rs = np.array([0.1, 0.5, 0.9, 0.99, 0.999, 0.9999])
        assert np.all(bohr_sum(spec, rs).error_bound <= 1e-13)
        assert np.all(growth_envelope(spec, rs).error_bound <= 1e-13)

    def test_gt_beta_closed_value(self):
        # r + 2(1-beta) r^2/(1-r): beta=0.25, r=0.1 -> 0.1 + 1.5*0.01/0.9.
        sv = bohr_sum(gt_beta(0.25), 0.1)
        assert sv.value == pytest.approx(0.1 + 1.5 * 0.01 / 0.9, abs=1e-15)

    def test_tb_quadratic_value(self):
        # r + (M/2) r^2: M=1, r=0.4 -> 0.48.
        sv = bohr_sum(tb_m(1.0), 0.4)
        assert sv.value == pytest.approx(0.48, abs=1e-16)

    def test_ph_alpha_log_value(self):
        # r + 2(1-alpha)(-ln(1-r)-r): alpha=0, r=0.5.
        sv = bohr_sum(ph_alpha(0.0), 0.5)
        assert sv.value == pytest.approx(0.5 + 2.0 * (math.log(2.0) - 0.5), abs=1e-15)

    @pytest.mark.parametrize("spec", ALL_SAMPLE_SPECS)
    @pytest.mark.parametrize("r", [0.15, 0.55, 0.85])
    def test_matches_direct_partial_sum(self, spec, r):
        sv = bohr_sum(spec, r)
        oracle = direct_majorant(spec, r)
        # 4000 plain terms at r <= 0.85 leave a tail under 1e-70 times c_n.
        assert abs(sv.value - oracle) <= sv.error_bound + 1e-12

    @pytest.mark.parametrize("spec", ALL_SAMPLE_SPECS)
    def test_strictly_increasing_in_r(self, spec):
        rs = np.linspace(0.0, 0.9, 40)
        values = [bohr_sum(spec, float(r)).value for r in rs]
        diffs = np.diff(values)
        # H' >= 1 makes the majorant grow at least as fast as r itself.
        assert np.all(diffs >= np.diff(rs) - 1e-9)

    def test_domain_rejected(self):
        with pytest.raises(DomainError):
            bohr_sum(ph_alpha(0.0), 1.0)
        with pytest.raises(DomainError):
            bohr_sum(ph_alpha(0.0), -0.2)


class TestGrowthEnvelope:
    def test_tb_example(self):
        env = growth_envelope(tb_m(1.0), 0.5)
        assert env.lower == pytest.approx(0.375, abs=1e-16)
        assert env.upper == pytest.approx(0.625, abs=1e-16)

    def test_gt_example(self):
        # beta r + (1-beta) r (1 -/+ r)/(1 +/- r) at beta=0.25, r=0.5.
        env = growth_envelope(gt_beta(0.25), 0.5)
        assert env.lower == pytest.approx(0.25, abs=1e-15)
        assert env.upper == pytest.approx(1.25, abs=1e-15)

    def test_ph_alpha_matches_direct_sums(self):
        spec = ph_alpha(0.0)
        r = 0.5
        env = growth_envelope(spec, r)
        rule = coefficient_rule(spec)
        up = direct_majorant(spec, r)
        # The lower branch is |extremal(-r)| = r - sum c_n (-r)^n.
        ns = np.arange(2, 2002, dtype=np.float64)
        low = r - float(np.dot(rule.terms(ns), np.power(-r, ns)))
        assert env.upper == pytest.approx(up, abs=1e-12)
        assert env.lower == pytest.approx(low, abs=1e-12)

    def test_gh_reduction_matches_ph(self):
        for r in (0.2, 0.6, 0.9):
            a = growth_envelope(gh_k_alpha(1, 1.0), r)
            b = growth_envelope(ph_alpha(0.0), r)
            assert a.lower == pytest.approx(b.lower, abs=1e-12)
            assert a.upper == pytest.approx(b.upper, abs=1e-12)

    def test_ph_m_lower_approaches_distance_constant(self):
        spec = ph_m(1.0)
        d = distance_bound(spec).value
        env = growth_envelope(spec, 1.0 - 1e-7)
        assert abs(env.lower - d) < 1e-5

    @pytest.mark.parametrize("spec", ALL_SAMPLE_SPECS)
    def test_ordering_and_origin(self, spec):
        for r in (0.0, 0.1, 0.5, 0.9, 0.99):
            env = growth_envelope(spec, r)
            assert env.lower <= env.upper + 1e-15
            assert env.lower >= -1e-12
        zero = growth_envelope(spec, 0.0)
        assert zero.lower == 0.0 and zero.upper == 0.0

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        st.floats(min_value=0.0, max_value=0.97),
        st.floats(min_value=0.0, max_value=0.95),
    )
    def test_ordering_property_ph(self, r, alpha):
        env = growth_envelope(ph_alpha(alpha), r)
        assert env.lower <= r <= env.upper + 1e-15

    @pytest.mark.parametrize(
        "spec",
        [
            wh_alpha(0.0),
            wh_alpha(0.5),
            wh_alpha(1.0),
            gh_k_alpha(1, 0.5),
            gh_k_alpha(2, 1.0),
            ph_alpha(0.0),
            ph_alpha(0.3),
            gt_beta(0.0),
            gt_beta(0.2),
            tb_m(1.0),
            tb_m(1.9),
            ph_m(0.7),
            ph_m(1.29),
        ],
    )
    def test_lower_tends_to_distance_constant(self, spec):
        # The lower side is |f| at the extremal's lower touch point (at
        # z = r e^(i pi/k) for gh, at z = -r for the rest), whose limit at
        # r = 1 is d*; each has slope at most 1 in r there.
        d = distance_bound(spec)
        gaps = []
        for r in (0.9, 0.99, 0.999, 0.9999):
            env = growth_envelope(spec, r)
            gaps.append(abs(env.lower - d.value))
            assert gaps[-1] <= (1.0 - r) + env.error_bound + d.error_bound
        assert gaps == sorted(gaps, reverse=True)

    def test_lacunary_upper_side_is_the_lerch_sum(self):
        # r (1 + 2 y Phi(y, 1, (1 + k alpha)/(k alpha)) / (k alpha)), y = r^k:
        # alpha = 1e-3 at r = 0.999 is beyond a power series' reach at tol.
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        r, ka = mp.mpf(0.999), mp.mpf(1e-3)
        exact = r * (1 + 2 * r * mp.lerchphi(r, 1, (1 + ka) / ka) / ka)
        env = growth_envelope(gh_k_alpha(1, 1e-3), 0.999)
        assert abs(env.upper - exact) <= env.error_bound
        assert env.error_bound <= 1e-11

    @staticmethod
    def mp_envelope(spec, r):
        # Both sides by 60 terms at 50 digits, for r far below 1: |f(-r)| and
        # |f(r)| for wh, and r |1 + sum 2 (+-y)^j / (1 + j k alpha)| for gh.
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        r = mp.mpf(r)
        if spec.family is Family.GH_K_ALPHA:
            y, ka = r**spec.k, spec.k * mp.mpf(spec.alpha)
            side = [r * (1 + sum(2 * (s * y) ** j / (1 + j * ka) for j in range(1, 61))) for s in (-1, 1)]
        else:
            a = mp.mpf(spec.alpha)
            side = [r + s * sum(2 * (s * r) ** n / (n * (1 + a * (n - 1))) for n in range(2, 62)) for s in (-1, 1)]
        return [float(v) for v in side]

    @pytest.mark.parametrize("spec", [wh_alpha(0.0), wh_alpha(1.0), gh_k_alpha(1, 0.5), gh_k_alpha(2, 1.0)])
    @pytest.mark.parametrize("r", [0.0, 1e-200, 1e-155, 1e-3])
    def test_tiny_radii(self, spec, r):
        # Exactly 0 at r = 0; elsewhere within the bound and an ulp of the
        # sums, also where the terms underflow.
        env = growth_envelope(spec, r)
        lower, upper = self.mp_envelope(spec, r)
        if r == 0.0:
            assert (env.lower, env.upper) == (0.0, 0.0)
        assert abs(env.lower - lower) <= env.error_bound + math.ulp(lower)
        assert abs(env.upper - upper) <= env.error_bound + math.ulp(upper)

    def test_envelope_dataclass_guards(self):
        with pytest.raises(DomainError):
            GrowthEnvelope(lower=0.5, upper=0.4)
        with pytest.raises(DomainError):
            GrowthEnvelope(lower=-0.1, upper=0.4)

    def test_envelope_dataclass_checks_every_lane(self):
        env = GrowthEnvelope(np.array([0.1, 0.2]), np.array([0.3, 0.4]))
        assert env.error_bound.tolist() == [0.0, 0.0]
        with pytest.raises(DomainError, match=r"got \(0\.5, 0\.4\)"):
            GrowthEnvelope(np.array([0.1, 0.5]), np.array([0.3, 0.4]))
        with pytest.raises(DomainError, match=r"got \(nan, 0\.4\)"):
            GrowthEnvelope(np.array([0.1, np.nan]), np.array([0.3, 0.4]))

    SIX = [ph_alpha(0.3), gt_beta(0.2), wh_alpha(0.5), gh_k_alpha(2, 1.0), tb_m(1.0), ph_m(0.7)]

    @pytest.mark.parametrize("spec", SIX, ids=lambda s: s.family.value)
    @pytest.mark.parametrize("r", [0.3, np.float64(0.3), 0.999])
    def test_float_r_gives_floats(self, spec, r):
        env = growth_envelope(spec, r)
        assert [type(v) for v in (env.lower, env.upper, env.error_bound)] == [float] * 3

    @pytest.mark.parametrize(
        "spec",
        SIX + [wh_alpha(0.0), wh_alpha(1.0), gh_k_alpha(1, 0.5), gh_k_alpha(3, 2.0)],
        ids=lambda s: f"{s.family.value}-{s.k}-{s.params()}",
    )
    def test_array_r_is_each_float_call(self, spec):
        # Bit for bit: every side and bound of the array call is the float
        # call at that r.
        rs = np.array([0.0, 1e-200, 0.1, 0.3, 0.5, 0.7, 0.9, 0.999])
        env = growth_envelope(spec, rs)
        assert env.lower.shape == env.upper.shape == env.error_bound.shape == rs.shape
        for i, r in enumerate(rs.tolist()):
            one = growth_envelope(spec, r)
            assert (env.lower[i], env.upper[i], env.error_bound[i]) == (
                one.lower, one.upper, one.error_bound
            )

    def test_array_r_domain_error_names_the_first_bad_radius(self):
        with pytest.raises(DomainError, match="got 1.0"):
            growth_envelope(ph_alpha(0.3), np.array([0.5, 1.0, -0.1]))

    def test_domain_rejected(self):
        with pytest.raises(DomainError):
            growth_envelope(tb_m(1.0), 1.0)


class TestExtremalCoefficients:
    def test_ph_alpha_truncation(self):
        ext = extremal_coefficients(ph_alpha(0.5), 4)
        # Leading 1, then 2(1-0.5)/n = 1/n.
        assert np.allclose(ext, [1.0, 0.5, 1.0 / 3.0, 0.25], rtol=0.0, atol=0.0)
        assert ext.shape == (4,) and ext.dtype == np.float64

    def test_gh_lacunary_pattern(self):
        ext = extremal_coefficients(gh_k_alpha(2, 1.0), 5)
        assert np.allclose(ext, [1.0, 0.0, 2.0 / 3.0, 0.0, 0.4], rtol=0.0, atol=0.0)

    def test_tb_polynomial(self):
        ext = extremal_coefficients(tb_m(1.0), 3)
        assert list(ext) == [1.0, 0.5, 0.0]

    def test_gt_constant_coefficients(self):
        ext = extremal_coefficients(gt_beta(0.25), 3)
        assert list(ext) == [1.0, 1.5, 1.5]

    def test_leading_coefficient_only(self):
        ext = extremal_coefficients(ph_alpha(0.0), 1)
        assert list(ext) == [1.0]

    def test_bad_truncation_rejected(self):
        with pytest.raises(DomainError):
            extremal_coefficients(ph_alpha(0.0), 0)

    @pytest.mark.parametrize("spec", ALL_SAMPLE_SPECS)
    def test_attains_coefficient_bound_on_support(self, spec):
        # The extremal saturates the bound on its support and vanishes
        # elsewhere: all indices for most families, n = jk+1 for the
        # lacunary family, n = 2 only for the quadratic one.
        ext = extremal_coefficients(spec, 40)
        n0 = start_index(spec)
        if spec.family is Family.GH_K_ALPHA:
            k = int(spec.k)
            support = {j * k + 1 for j in range(1, 40 // k + 1) if j * k + 1 <= 40}
        elif spec.family is Family.TB_M:
            support = {2}
        else:
            support = set(range(n0, 41))
        for n in range(2, 41):
            expect = coefficient_bound(spec, n) if n in support else 0.0
            assert ext[n - 1] == expect


class TestMajorantTailBound:
    """The verifier's tail bound c_{n+1} r^(n+1) / (1 - r)."""

    def test_bounds_actual_tail(self):
        spec = ph_alpha(0.2)
        r = 0.6
        for n in (10, 50, 200):
            ns = np.arange(n + 1, n + 4001, dtype=np.float64)
            actual = float(np.dot(coefficient_rule(spec).terms(ns), np.power(r, ns)))
            bound = _tail_bound(spec, n, r)
            assert 0.0 <= actual <= bound

    def test_decreasing_in_n(self):
        spec = wh_alpha(0.5)
        bounds = [_tail_bound(spec, n, 0.8) for n in range(2, 40)]
        assert all(a >= b for a, b in zip(bounds, bounds[1:]))


EPS = float(np.finfo(np.float64).eps)


class TestLanes:
    """Lane specs: one family, many parameter points, evaluated at once."""

    GRIDS = [
        [ph_alpha(a) for a in (0.0, 0.4, 0.9)],
        [gt_beta(b) for b in (0.0, 0.2, 0.45)],
        [wh_alpha(a) for a in (0.0, 0.5, 1.0)],
        [gh_k_alpha(3, a) for a in (0.1, 1.0, 30.0)],
        [tb_m(m) for m in (0.1, 1.0, 1.9)],
        [ph_m(m) for m in (0.1, 0.7, 1.29)],
    ]

    @pytest.mark.parametrize("specs", GRIDS)
    def test_each_lane_is_its_point(self, specs):
        lanes = stack_lanes(specs)
        rs = np.array([0.1, 0.5, 0.8])
        d = distance_bound(lanes)
        b = bohr_sum(lanes, rs)
        for i, spec in enumerate(specs):
            assert SeriesValue(d.value[i], d.error_bound[i]) == distance_bound(spec)
            assert SeriesValue(b.value[i], b.error_bound[i]) == bohr_sum(spec, rs[i])
        last = distance_bound(take_lanes(lanes, [2]))
        assert last.value.tolist() == [distance_bound(specs[2]).value]

    @pytest.mark.parametrize("specs", GRIDS)
    def test_radius_grid_is_its_points(self, specs):
        rs = np.linspace(0.0, 0.9, 7)
        b = bohr_sum(specs[1], rs)
        for i, r in enumerate(rs):
            assert SeriesValue(b.value[i], b.error_bound[i]) == bohr_sum(specs[1], r)

    def test_lane_results_compare_entry_by_entry(self):
        # == on two lane results is a plain bool over every entry, where
        # the generated == asked numpy for the truth of an array.
        def lanes():
            return bohr_sum(stack_lanes([wh_alpha(0.1), wh_alpha(0.2)]), 0.3)

        def envelopes():
            return growth_envelope(wh_alpha(0.5), np.array([0.1, 0.2]))

        for a, b in ((lanes(), lanes()), (envelopes(), envelopes())):
            assert (a == b) is True and (a != b) is False
            name = dataclasses.fields(a)[0].name
            changed = getattr(b, name).copy()
            changed[1] = np.nextafter(changed[1], 1.0)
            assert (a == dataclasses.replace(b, **{name: changed})) is False
            # One lane is not the same result as two.
            one_lane = {f.name: getattr(b, f.name)[:1] for f in dataclasses.fields(b)}
            assert a != dataclasses.replace(b, **one_lane)
        assert growth_envelope(ph_alpha(0.0), 0.5) == growth_envelope(ph_alpha(0.0), 0.5)
        assert hash(GrowthEnvelope(0.1, 0.2)) == hash((0.1, 0.2, 0.0))

    def test_invalid_lane_named(self):
        with pytest.raises(ValidationError, match="got 1.5"):
            ClassSpec(Family.WH_ALPHA, alpha=np.array([0.5, 1.5, 2.0]))

    @pytest.mark.parametrize(
        "spec,name,values,kept",
        [
            (wh_alpha(0.5), "alpha", [0.0, 0.5, 1.0], 3),
            (wh_alpha(0.5), "alpha", [0.5, 1.0, 1.1, 0.5], 2),
            (gh_k_alpha(2, 1.0), "alpha", [1.0, 2.0, float("inf"), 3.0], 2),
            (gt_beta(0.1), "beta", [0.1, float("nan"), 0.2], 1),
            (gt_beta(0.1), "beta", [0.1, 0.4, 0.5], 2),
            (ph_m(0.1), "m", [0.1, 1.29, PH_M_SUP], 2),
        ],
    )
    def test_sweep_stops_before_the_first_invalid_value(self, spec, name, values, kept):
        lanes, n = sweep_lanes(spec, name, values)
        assert n == kept
        assert getattr(lanes, name).tolist() == values[:kept]
        assert lanes.k == spec.k
        validate(lanes)
        if kept < len(values):
            with pytest.raises(ValidationError):
                make_spec(spec.family, **{**spec.params(), name: values[kept]})

    def test_mixed_lanes_rejected(self):
        with pytest.raises(DomainError):
            stack_lanes([gh_k_alpha(1, 1.0), gh_k_alpha(2, 1.0)])
        with pytest.raises(DomainError):
            stack_lanes([ph_alpha(0.1), wh_alpha(0.1)])

    def test_no_lanes_rejected(self):
        with pytest.raises(DomainError, match="got 0 specs"):
            stack_lanes([])

    @pytest.mark.parametrize("evaluate", [bohr_sum, growth_envelope])
    def test_one_radius_per_lane_or_one_for_all(self, evaluate):
        lanes = stack_lanes(wh_alpha(a) for a in (0.0, 0.5, 1.0))
        with pytest.raises(DomainError, match="got 2 radii for 3 lanes"):
            evaluate(lanes, np.array([0.1, 0.2]))
        evaluate(lanes, 0.1)

    @pytest.mark.parametrize("specs", GRIDS)
    def test_lane_envelopes_are_their_points(self, specs):
        rs = np.array([0.0, 0.5, 0.9])
        env = growth_envelope(stack_lanes(specs), rs)
        for i, spec in enumerate(specs):
            one = growth_envelope(spec, rs[i])
            assert (env.lower[i], env.upper[i], env.error_bound[i]) == (
                one.lower, one.upper, one.error_bound
            )

    @pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
    def test_doubled_lane_spec_is_each_spec(self, family):
        # The sharpness checks stack each grid twice, at r and one step
        # beyond: every lane is the one-spec call bit for bit.
        from harmbohr.verifier import STANDARD_GRIDS

        specs = [s for s in STANDARD_GRIDS[family] if s.k in (None, 2)]
        rs = np.linspace(0.05, 0.6, len(specs))
        rs = np.concatenate([rs, rs + 1e-6])
        b = bohr_sum(stack_lanes(specs * 2), rs)
        for i, (spec, r) in enumerate(zip(specs * 2, rs.tolist())):
            assert SeriesValue(b.value[i], b.error_bound[i]) == bohr_sum(spec, r)


class TestDistanceAccuracy:
    @pytest.mark.parametrize(
        "spec,exact",
        [
            (wh_alpha(0.0), 2.0 * math.log(2.0) - 1.0),
            (wh_alpha(1.0), math.pi**2 / 6.0 - 1.0),
            (gh_k_alpha(1, 1.0), 2.0 * math.log(2.0) - 1.0),
            (gh_k_alpha(2, 1.0), math.pi / 2.0 - 1.0),
        ],
    )
    def test_alternating_constant_to_a_few_ulps(self, spec, exact):
        # d* = 1 + sum (-1)^(n-1) c_n in closed form: 2 ln 2 - 1 for c_n = 2/n,
        # pi^2/6 - 1 for 2/n^2, pi/2 - 1 for 2/(2n - 1).
        for tol in (1e-12, 1e-13):
            d = distance_bound(spec)
            assert abs(d.value - exact) <= 4.0 * EPS
            assert abs(d.value - exact) <= d.error_bound <= tol
