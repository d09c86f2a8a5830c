"""Exact checks for the exponent calculus; every expected value was computed
independently first (notes/oracles/exponents_oracle.py) and is frozen here."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tentcalc.exponents import (
    INF,
    CriticalPair,
    ExtReal,
    conjugate,
    corollary_ranges,
    ext,
    ext_to_json,
    poisson_upper,
    power_weight_class_interval,
    power_weight_criticals,
    power_weight_in_ap,
    power_weight_in_rh,
    range_W,
    sobolev_exponent,
    surrogate_p_bounds,
)


class TestExtReal:
    def test_order_total(self):
        assert ext(0) < ext("1/2") < ext(1) < INF
        assert INF <= INF and INF == INF

    def test_conventions(self):
        assert ext(3) / INF == 0
        assert INF * ext(2) == INF
        assert ext(1) / ext(0) == INF

    def test_indeterminate_raise(self):
        with pytest.raises(ValueError):
            INF * ext(0)
        with pytest.raises(ValueError):
            INF / INF
        with pytest.raises(ValueError):
            ext(0) / ext(0)

    def test_no_floats(self):
        with pytest.raises(TypeError):
            ExtReal(1.5)

    def test_parse_and_str(self):
        assert str(ext("3/2")) == "3/2"
        assert str(ext("inf")) == "inf"
        assert str(ext(2)) == "2"

    def test_json(self):
        assert ext_to_json(ext("3/2")) == {"num": 3, "den": 2}
        assert ext_to_json(INF) == "inf"

    def test_conjugate(self):
        assert conjugate(ext(1)) == INF
        assert conjugate(INF) == ext(1)
        assert conjugate(ext(2)) == ext(2)
        assert conjugate(ext("6/5")) == ext(6)  # oracle


class TestPowerWeightCriticals:
    def test_lebesgue(self):
        c = power_weight_criticals(0, 2)
        assert (c.r_w, c.s_w) == (ext(1), ext(1))

    def test_positive_alpha(self):
        c = power_weight_criticals(1, 2)
        assert (c.r_w, c.s_w) == (ext("3/2"), ext(1))

    def test_negative_alpha(self):
        # oracle: criticals(-1, 2) = (1, 2)
        c = power_weight_criticals(-1, 2)
        assert (c.r_w, c.s_w) == (ext(1), ext(2))

    def test_rejects_out_of_domain(self):
        with pytest.raises(ValueError, match="alpha outside"):
            power_weight_criticals(5, 2)
        with pytest.raises(ValueError, match="alpha outside"):
            power_weight_criticals(-2, 2)

    def test_membership_predicates(self):
        assert power_weight_in_ap(1, 2, 2)          # 1 < n(p-1) = 2
        assert not power_weight_in_ap(F(3, 2), 1, 2)  # 3/2 > 1
        assert power_weight_in_ap(F(3, 2), 1, 4)    # 3/2 < 3, above-n alpha still in A_4
        assert power_weight_in_ap(F(-1, 2), 1, 1)   # A_1 needs alpha <= 0
        assert not power_weight_in_ap(1, 2, 1)
        assert not power_weight_in_ap(F(-3, 2), 1, 4)  # alpha <= -n: not a weight
        assert power_weight_in_rh(1, 2, 4)          # -n/s = -1/2 < 1
        assert not power_weight_in_rh(F(-4, 5), 1, 2)  # -0.8 < -1/2
        assert not power_weight_in_rh(F(-3, 2), 1, 2)
        assert power_weight_in_rh(0, 2, "inf")
        assert not power_weight_in_rh(F(-1, 2), 2, "inf")

    def test_class_intervals(self):
        r = power_weight_class_interval(-1, 2, "rh")
        assert r.upper == ext(2)
        assert power_weight_class_interval(1, 2, "ap").lower == ext("3/2")


class TestSobolevExponent:
    def test_oracle_values(self):
        assert sobolev_exponent(2, 1, 1, 3) == ext(6)
        assert sobolev_exponent(2, 1, F(3, 2), 2) == ext(6)
        assert sobolev_exponent(2, 1, 1, 4) == ext(4)
        assert sobolev_exponent(4, 1, 2, 5) == ext("20/3")

    def test_infinite_branches(self):
        assert sobolev_exponent(2, 1, 1, 2) == INF          # 2 >= n r_w
        assert sobolev_exponent(2, 2, 1, 4) == INF          # 4 >= n r_w
        assert sobolev_exponent(2, 2, F(3, 2), 2) == INF
        assert sobolev_exponent(3, 2, 2, 3) == INF          # boundary Kq = n r_w
        assert sobolev_exponent("inf", 1, 2, 3) == INF
        assert sobolev_exponent(2, 1, "inf", 3) == ext(2)   # r_w = inf limit

    def test_rejects(self):
        with pytest.raises(ValueError):
            sobolev_exponent(F(1, 2), 1, 1, 3)
        with pytest.raises(ValueError):
            sobolev_exponent(2, 0, 1, 3)

    @settings(max_examples=60, deadline=None)
    @given(
        q=st.fractions(min_value=1, max_value=10),
        K=st.integers(min_value=1, max_value=3),
        r_num=st.fractions(min_value=1, max_value=4),
        n=st.integers(min_value=1, max_value=6),
    )
    def test_composition_identity(self, q, K, r_num, n):
        # q^{K+1,*} equals the 1-fold exponent of q^{K,*}
        inner = sobolev_exponent(q, K, r_num, n)
        lhs = sobolev_exponent(inner, 1, r_num, n) if not inner.is_inf else INF
        assert lhs == sobolev_exponent(q, K + 1, r_num, n)

    @settings(max_examples=60, deadline=None)
    @given(
        q=st.fractions(min_value=1, max_value=10),
        K=st.integers(min_value=1, max_value=3),
        r_num=st.fractions(min_value=1, max_value=4),
        n=st.integers(min_value=1, max_value=6),
    )
    def test_monotone_in_K_and_q(self, q, K, r_num, n):
        assert sobolev_exponent(q, K + 1, r_num, n) >= sobolev_exponent(q, K, r_num, n)
        assert sobolev_exponent(q + 1, K, r_num, n) >= sobolev_exponent(q, K, r_num, n)


class TestPoissonUpper:
    def test_oracle_values(self):
        assert poisson_upper(6, 0, 1, 3) == INF
        assert poisson_upper(F(5, 2), 0, 1, 10) == ext("10/3")
        assert poisson_upper(F(3, 2), 1, 1, 10) == ext("30/11")

    def test_boundary_in_infinite_branch(self):
        # (2K+1) p_+ = n r_w exactly -> inf
        assert poisson_upper(2, 1, 2, 3) == INF

    def test_equals_odd_sobolev(self):
        assert poisson_upper(F(3, 2), 1, 1, 10) == sobolev_exponent(F(3, 2), 3, 1, 10)

    def test_range_nesting_in_K(self):
        crit = power_weight_criticals(1, 2)
        p_minus, p_plus = surrogate_p_bounds(crit, 2)
        uppers = [poisson_upper(p_plus, K, crit.r_w, 2) for K in range(3)]
        assert uppers[0] <= uppers[1] <= uppers[2]


class TestRangeW:
    def test_whole_line(self):
        r = range_W(0, "inf", CriticalPair(ext(2), ext(2)))
        assert (r.lower, r.upper, r.empty) == (ext(0), INF, False)

    def test_oracle_value(self):
        r = range_W(1, "inf", CriticalPair(ext("3/2"), ext(1)))
        assert (r.lower, r.upper) == (ext("3/2"), INF)

    def test_empty_flag(self):
        r = range_W(F(6, 5), 2, CriticalPair(ext(2), ext(2)))
        assert r.empty

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            range_W(2, 1, CriticalPair(ext(1), ext(1)))

    def test_ordering_chain(self):
        # (2*)' < 2 < 2* whenever 2 < n r_w
        for alpha, n in [(1, 2), (F(1, 2), 1), (2, 3)]:
            crit = power_weight_criticals(alpha, n)
            if ext(2) < ExtReal(n) * crit.r_w:
                p_minus, p_plus = surrogate_p_bounds(crit, n)
                assert p_minus < ext(2) < p_plus


class TestCorollaryRanges:
    def test_power_weight_heat_n2(self):
        out = corollary_ranges("power_weight", {"n": 2, "family": "heat"})
        assert (out["alpha_lo"], out["alpha_hi"]) == (F(-1), F(2))

    def test_power_weight_poisson_n6(self):
        out = corollary_ranges("power_weight", {"n": 6, "family": "poisson"})
        assert (out["alpha_lo"], out["alpha_hi"]) == (F(-3, 2), F(4))

    def test_gamma_form_conversion(self):
        out = corollary_ranges("power_weight", {"n": 2, "family": "heat"})
        assert (out["gamma_lo"], out["gamma_hi"]) == (F(-2), F(1))

    def test_heat_L2_rh_index(self):
        out = corollary_ranges("heat_L2", {"n": 3, "r": 1})
        assert out["rh_index"] == F(5, 2)

    def test_poisson_L2_r_cap(self):
        out = corollary_ranges("poisson_L2", {"n": 6, "r": 1})
        assert out["r_cap"] == F(5, 3)
        with pytest.raises(ValueError):
            corollary_ranges("poisson_L2", {"n": 6, "r": 2})

    def test_rejects_r_out_of_range(self):
        with pytest.raises(ValueError):
            corollary_ranges("heat_L2", {"n": 3, "r": 3})

    def test_heat_Lp_rh_index(self):
        # oracle: (p(nr+2)/(2nr))' at n=3, r=2, p=2 equals 4
        out = corollary_ranges("heat_Lp", {"n": 3, "r": 2, "p": 2})
        assert out["rh_index"] == ext(4)
        assert out["p_lo"] == F(12, 8)
        assert out["p_lo_closed"] is True

    def test_poisson_Lp_upper(self):
        out = corollary_ranges("poisson_Lp", {"n": 6, "r": 1})
        assert out["p_hi"] == ext(6)          # 2n/(n-4) at n=6
        assert out["p_hi_closed"] is False
        out2 = corollary_ranges("poisson_Lp", {"n": 3, "r": 2})
        assert out2["p_hi"] == ext(3)         # 2n/(nr-4) = 6/2
        assert out2["p_hi_closed"] is True
        out3 = corollary_ranges("poisson_Lp", {"n": 2, "r": 1})
        assert out3["p_hi"] == INF            # nr <= 4 branch
