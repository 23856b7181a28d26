import math

import pytest

import wva_sense as w
from wva_sense.fbg import bandwidth_b_from_fwhm_nm

NU_1551 = w.wavelength_to_frequency(1551.0)
NU_1549 = w.wavelength_to_frequency(1549.0)
KAPPA = 0.009  # nm/degC, measured single-grating slope
FBG_B = bandwidth_b_from_fwhm_nm(2.0, 1551.0)  # 2 nm power FWHM at 1551 nm


def bench_scenario(
    beta_deg=0.0,
    g_target=None,
    side_lobe1=None,
    filter_enabled=True,
    half_width_factor=1.5,
    n_points=4001,
    tau_ps=0.0,
    osa=w.OsaParams(),
    t1_c=20.0,
    t2_c=20.0,
    fwhm_nm=2.0,
):
    """Desk-scale bench: 320 fs source at 1549 nm, two 2-nm gratings at 1551 nm.

    g_target sets the residual phase so gamma*cos(delta) = g_target when the
    gratings are matched (gamma = 1).
    """
    b = bandwidth_b_from_fwhm_nm(fwhm_nm, 1551.0)
    phi = math.acos(g_target) if g_target is not None else 0.0
    fbg1 = w.FbgParams(
        center_ref_thz=NU_1551, kappa_nm_per_c=KAPPA, bandwidth_b_thz=b,
        reflect_efficiency=0.14, side_lobe=side_lobe1,
    )
    fbg2 = w.FbgParams(
        center_ref_thz=NU_1551, kappa_nm_per_c=KAPPA, bandwidth_b_thz=b,
        reflect_efficiency=0.14,
    )
    return w.Scenario(
        source=w.SourceParams(nu0_thz=NU_1549, b_thz=w.pulse_bandwidth(0.32)),
        fbg1=fbg1, fbg2=fbg2, t1_c=t1_c, t2_c=t2_c,
        tau_ps=tau_ps, phi_rad=phi, beta_rad=math.radians(beta_deg),
        filter=w.FilterSettings(enabled=filter_enabled, half_width_factor=half_width_factor),
        grid=w.GridSettings(n_points=n_points),
        osa=osa,
    )


def grating_pair(source, centers, widths, effs=(1.0, 1.0), **kw):
    """Gaussian gratings at `centers` (THz, both at t2 = 20 degC, no side lobe)
    with `widths` and efficiencies `effs`, lit by `source`; kw sets the other
    Scenario fields."""
    fbg1, fbg2 = (
        w.FbgParams(center_ref_thz=c, kappa_nm_per_c=KAPPA, bandwidth_b_thz=b,
                    reflect_efficiency=eff)
        for c, b, eff in zip(centers, widths, effs)
    )
    return w.Scenario(source=source, fbg1=fbg1, fbg2=fbg2, t1_c=20.0, t2_c=20.0, **kw)


@pytest.fixture
def bench():
    return bench_scenario
