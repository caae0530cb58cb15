"""Tests for repro.gpu.design_options (Fig. 16a)."""

import dataclasses

import pytest

from repro.core.batched import BatchedGpuSpec
from repro.gpu import PAPER_DESIGN_OPTIONS, TITAN_XP, DesignOption, get_design_option

#: the multiplier fields a design option carries (all but ``cta_tile_hw``).
MULTIPLIERS = ("num_sm", "mac_bw", "regs", "smem_size", "smem_bw", "l1_bw",
               "l2_bw", "dram_bw")


class TestDesignOptionTable:
    def test_nine_options_defined(self):
        assert len(PAPER_DESIGN_OPTIONS) == 9
        assert [opt.name for opt in PAPER_DESIGN_OPTIONS] == [str(i) for i in range(1, 10)]

    def test_lookup_by_name(self):
        assert get_design_option("5").mac_bw == 4.0
        with pytest.raises(KeyError):
            get_design_option("10")

    def test_option1_and_2_scale_sm_count(self):
        assert get_design_option("1").num_sm == 2.0
        assert get_design_option("2").num_sm == 4.0

    def test_options_7_to_9_use_larger_cta_tiles(self):
        for name in ("7", "8", "9"):
            assert get_design_option(name).cta_tile_hw == 256
        for name in ("1", "2", "3", "4", "5", "6"):
            assert get_design_option(name).cta_tile_hw == 128

    def test_option9_has_highest_dram_bandwidth(self):
        dram_bw = {opt.name: opt.dram_bw for opt in PAPER_DESIGN_OPTIONS}
        assert max(dram_bw, key=dram_bw.get) == "9"


class TestDesignOptionApply:
    def test_apply_option2_quadruples_sms(self):
        scaled = get_design_option("2").apply(TITAN_XP)
        assert scaled.num_sm == 120
        assert scaled.dram_bw == pytest.approx(2 * TITAN_XP.dram_bw)
        assert "TITAN Xp" in scaled.name and "2" in scaled.name

    def test_apply_option4_keeps_memory_unchanged(self):
        scaled = get_design_option("4").apply(TITAN_XP)
        assert scaled.dram_bw == TITAN_XP.dram_bw
        assert scaled.l2_bw == TITAN_XP.l2_bw
        assert scaled.fp32_flops == pytest.approx(4 * TITAN_XP.fp32_flops)

    def test_as_row_contains_all_resource_columns(self):
        row = get_design_option("6").as_row()
        for column in ("NSM", "MACBW/SM", "L2BW", "DRAMBW", "CTA tile H,W"):
            assert column in row

    def test_custom_option_defaults_to_identity(self):
        option = DesignOption(name="custom")
        scaled = option.apply(TITAN_XP)
        assert scaled.num_sm == TITAN_XP.num_sm
        assert scaled.fp32_flops == TITAN_XP.fp32_flops


class TestApplyInvariants:
    """Invariants of the DesignOption.apply / GpuSpec.scaled lowering path
    every DSE design point flows through."""

    #: (option field, GpuSpec fields it is allowed to change).
    SCALED_FIELDS = {
        "num_sm": ("num_sm", "fp32_flops"),
        "mac_bw": ("fp32_flops",),
        "regs": ("register_file_bytes",),
        "smem_size": ("smem_bytes",),
        "smem_bw": ("smem_st_bytes_per_cycle", "smem_ld_bytes_per_cycle"),
        "l1_bw": ("l1_bw_per_sm",),
        "l2_bw": ("l2_bw",),
        "dram_bw": ("dram_bw",),
    }

    def test_each_multiplier_only_touches_its_own_fields(self):
        for key, touched in self.SCALED_FIELDS.items():
            option = DesignOption(name=f"only-{key}", **{key: 2.0})
            scaled = option.apply(TITAN_XP)
            for field in dataclasses.fields(TITAN_XP):
                if field.name == "name" or field.name in touched:
                    continue
                assert getattr(scaled, field.name) == \
                    getattr(TITAN_XP, field.name), (key, field.name)

    def test_unscaled_fields_preserved_by_paper_options(self):
        untouchable = ("core_clock_hz", "l2_size", "l1_size",
                       "l1_request_bytes", "sector_bytes", "line_bytes",
                       "lat_l1_cycles", "lat_l2_cycles", "lat_dram_cycles",
                       "lat_smem_cycles", "max_ctas_per_sm")
        for option in PAPER_DESIGN_OPTIONS:
            scaled = option.apply(TITAN_XP)
            for name in untouchable:
                assert getattr(scaled, name) == getattr(TITAN_XP, name), \
                    (option.name, name)

    def test_name_suffixed_with_option_name(self):
        for option in PAPER_DESIGN_OPTIONS:
            scaled = option.apply(TITAN_XP)
            assert scaled.name == f"{TITAN_XP.name} [{option.name}]"

    def test_apply_is_deterministic(self):
        for option in PAPER_DESIGN_OPTIONS:
            assert option.apply(TITAN_XP) == option.apply(TITAN_XP)

    def test_identity_apply_changes_nothing_but_the_name(self):
        identity = DesignOption(name="id")
        scaled = identity.apply(TITAN_XP)
        assert scaled.with_name(TITAN_XP.name) == TITAN_XP
        # re-applying the identity is idempotent up to the name suffix.
        again = identity.apply(scaled)
        assert again.with_name(TITAN_XP.name) == TITAN_XP

    def test_scaled_with_no_multipliers_is_identity(self):
        assert TITAN_XP.scaled() == TITAN_XP

    def test_scaled_with_unit_multipliers_is_identity(self):
        unit = TITAN_XP.scaled(num_sm=1.0, mac_bw=1.0, regs=1.0,
                               smem_size=1.0, smem_bw=1.0, l1_bw=1.0,
                               l2_bw=1.0, dram_bw=1.0, l2_size=1.0)
        assert unit == TITAN_XP

    def test_scaled_composes_multiplicatively(self):
        once = TITAN_XP.scaled(dram_bw=4.0)
        twice = TITAN_XP.scaled(dram_bw=2.0).scaled(dram_bw=2.0)
        assert twice.dram_bw == pytest.approx(once.dram_bw)

    def test_scaled_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown scaling keys"):
            TITAN_XP.scaled(tensor_cores=2.0)


def _rejection(build):
    """``None`` when ``build()`` succeeds, else the exception it raised."""
    try:
        build()
    except Exception as exc:  # noqa: BLE001 - the type is what is checked
        return exc
    return None


class TestScaledDomainCheck:
    """``GpuSpec.scaled`` and ``BatchedGpuSpec.from_options`` decide alike."""

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf"), 0.0, -1.0, 1e-300,
                                       1e308],
                             ids=["nan", "inf", "-inf", "0", "-1", "1e-300",
                                  "1e308"])
    @pytest.mark.parametrize("multiplier", MULTIPLIERS)
    def test_scalar_and_batched_agree(self, multiplier, value):
        scalar = _rejection(lambda: TITAN_XP.scaled(**{multiplier: value}))
        option = DesignOption(name="edge", **{multiplier: value})
        batched = _rejection(
            lambda: BatchedGpuSpec.from_options(TITAN_XP, [option]))
        assert (scalar is None) == (batched is None)
        for rejected in (scalar, batched):
            assert rejected is None or type(rejected) is ValueError

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1.0])
    def test_l2_size_rejects_out_of_domain(self, value):
        with pytest.raises(ValueError, match="finite and positive"):
            TITAN_XP.scaled(l2_size=value)

    def test_overflowing_capacity_is_a_value_error(self):
        with pytest.raises(ValueError, match="overflows int64"):
            TITAN_XP.scaled(l2_size=1e308)
        with pytest.raises(ValueError, match="overflows int64"):
            TITAN_XP.scaled(num_sm=float(2 ** 62))

    def test_overflowing_bandwidth_is_a_value_error(self):
        with pytest.raises(ValueError, match="not finite"):
            TITAN_XP.scaled(mac_bw=1e300, num_sm=1e10)
