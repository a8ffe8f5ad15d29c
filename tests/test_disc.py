import math

import numpy as np
import pytest

from moserlab import disc, radial
from conftest import smooth_plateau_profile


@pytest.fixture(scope="module")
def grid():
    return disc.PolarGrid(n_r=256, n_theta=96, s_max=8.0)


@pytest.fixture(scope="module")
def bump(grid):
    # compactly supported (radius 1/2), mildly non-radial, unit-ish energy
    prof = radial.RadialProfile.from_arrays(
        [0.0, 0.72, 1.1, 1.7, 2.4, 3.2], [0.0, 0.0, 0.7, 1.0, 0.35, 0.0], 2
    )
    prof = radial.scale(prof, 1.0 / radial.grad_norm(prof, 2))
    base = disc.inflate(prof, disc.DislocationParam(1, 0.0), grid)
    rings = base.rings * (1.0 + 0.35 * np.cos(2 * disc._thetas(grid)))[None, :]
    return disc.DiscFunction(grid, base.center, rings, base.support_radius)


class TestGrid:
    def test_areas_sum_to_disc(self, grid):
        cap, ann = disc.cell_areas(grid)
        assert cap + float(ann.sum()) * grid.n_theta == pytest.approx(
            math.pi, abs=1e-12
        )
        assert cap > 0 and np.all(ann > 0)

    def test_minimum_sizes_enforced(self):
        with pytest.raises(ValueError):
            disc.PolarGrid(n_r=8, n_theta=64)
        with pytest.raises(ValueError):
            disc.PolarGrid(n_r=64, n_theta=16)
        with pytest.raises(ValueError, match="s_max > 0"):
            disc.PolarGrid(n_r=64, n_theta=64, s_max=0.0)

    @pytest.mark.parametrize("n_r, n_theta, s_max, reason", [
        (16.5, 32, 12.0, "integers"),
        (16, 32.0, 12.0, "integers"),
        ("16", 32, 12.0, "integers"),
        (16, 32, math.inf, "finite s_max"),
        (16, 32, math.nan, "finite s_max"),
    ])
    def test_malformed_grids_rejected(self, n_r, n_theta, s_max, reason):
        with pytest.raises(ValueError, match=reason):
            disc.PolarGrid(n_r, n_theta, s_max)

    def test_areas_sum_to_disc_on_a_shallow_grid(self):
        g = disc.PolarGrid(n_r=64, n_theta=32, s_max=1.5)
        cap, ann = disc.cell_areas(g)
        assert cap + float(ann.sum()) * g.n_theta == pytest.approx(math.pi, abs=1e-12)


class TestDiscFunction:
    def test_boundary_trace_enforced(self, grid):
        rings = np.ones((grid.n_r, grid.n_theta))
        with pytest.raises(ValueError, match="boundary"):
            disc.DiscFunction(grid, 1.0, rings)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("zero_trace", [True, False])
    @pytest.mark.parametrize("where", ["interior", "boundary", "center"])
    def test_nonfinite_samples_rejected(self, grid, bad, zero_trace, where):
        rings = np.zeros((grid.n_r, grid.n_theta))
        center = 0.0
        if where == "interior":
            rings[grid.n_r // 2, 3] = bad
        elif where == "boundary":
            rings[-1, 5] = bad
        else:
            center = bad
        with pytest.raises(ValueError, match="finite"):
            disc.DiscFunction(grid, center, rings, zero_trace=zero_trace)

    def test_validation_keeps_a_private_copy(self, grid):
        rings = np.zeros((grid.n_r, grid.n_theta))
        rings[3, 4] = 2.0
        u = disc.DiscFunction(grid, 0.0, rings)
        rings[3, 4] = 5.0
        assert u.rings[3, 4] == 2.0
        assert not u.rings.flags.writeable
        # the zero-trace scale is the largest sample, at least 1
        rings[-1, 0] = 0.9e-9 * 5.0
        disc.DiscFunction(grid, 0.0, rings)
        rings[-1, 0] = 1.1e-9 * 5.0
        with pytest.raises(ValueError, match="boundary"):
            disc.DiscFunction(grid, 0.0, rings)

    def test_serialization_round_trip(self, bump, tmp_path):
        doc = disc.disc_to_dict(bump)
        v = disc.disc_from_dict(doc)
        assert v.grid == bump.grid
        assert np.array_equal(v.rings, bump.rings)
        assert v.center == bump.center

    def test_loader_rejects_mangled(self):
        with pytest.raises(ValueError):
            disc.disc_from_dict({"n_r": 64})

    def test_record_spacing_kind_is_geometric(self, bump):
        doc = disc.disc_to_dict(bump)
        assert doc["spacing"] == {"kind": "geometric", "s_max": bump.grid.s_max}
        del doc["spacing"]["kind"]
        assert disc.disc_from_dict(doc).grid == bump.grid
        doc["spacing"]["kind"] = "uniform"
        with pytest.raises(ValueError, match="'uniform'"):
            disc.disc_from_dict(doc)


class TestInflate:
    def test_identity_dislocation_is_radial_embedding(self, grid):
        m = radial.make_moser(math.exp(-1.0))
        u = disc.inflate(m, disc.DislocationParam(1, 0.0), grid)
        svals = disc._ring_s(grid)
        expect = m.value_at(svals)
        assert np.allclose(u.rings, expect[:, None])
        assert u.center == pytest.approx(m.plateau)

    def test_power_map_matches_dilated_profile(self, grid):
        # j-fold inflation of m_t equals the profile of m_{t^j}, node for node
        t = math.exp(-1.0)
        u = disc.inflate(radial.make_moser(t), disc.DislocationParam(6, 0.0), grid)
        v = disc.inflate(radial.make_moser(t**6), disc.DislocationParam(1, 0.0), grid)
        assert np.max(np.abs(u.rings - v.rings)) <= 1e-13

    def test_discrete_energy_matches_radial_norm(self):
        g = disc.PolarGrid(n_r=512, n_theta=64, s_max=12.0)
        for j in (1, 2, 8):
            u = disc.inflate(
                radial.make_moser(math.exp(-1.0)), disc.DislocationParam(j, 0.0), g
            )
            assert disc.grad_norm_disc(u) == pytest.approx(1.0, abs=1e-2)

    def test_support_overflow_rejected(self, grid):
        m = radial.make_moser(0.5)  # support radius 1
        with pytest.raises(disc.SupportError, match="support"):
            disc.inflate(m, disc.DislocationParam(2, 0.3), grid)

    def test_off_center_fits_with_subordinated_profile(self, grid):
        prof = radial.moser_annular(1.0, 0.8)  # support radius e^{-0.8}
        u = disc.inflate(prof, disc.DislocationParam(1, 0.4 + 0.2j), grid)
        assert u.support_radius < 1.0


class TestDeflate:
    def test_identity_is_exact(self, bump):
        w = disc.deflate(bump, disc.DislocationParam(1, 0.0))
        assert np.max(np.abs(w.rings - bump.rings)) <= 1e-10
        assert abs(w.center - bump.center) <= 1e-10

    def test_energy_isometry_at_moderate_grid(self, bump):
        e0 = disc.energy(bump)
        for j in (1, 3, 8, 16):
            w = disc.deflate(bump, disc.DislocationParam(j, 0.12 + 0.07j))
            assert 0.97 <= disc.energy(w) / e0 <= 1.03

    def test_isometry_improves_under_refinement(self):
        devs = []
        for n_r, n_th in ((64, 48), (128, 64), (256, 96)):
            g = disc.PolarGrid(n_r=n_r, n_theta=n_th, s_max=8.0)
            prof = radial.RadialProfile.from_arrays(
                [0.0, 0.72, 1.1, 1.7, 2.4, 3.2], [0.0, 0.0, 0.7, 1.0, 0.35, 0.0], 2
            )
            prof = radial.scale(prof, 1.0 / radial.grad_norm(prof, 2))
            base = disc.inflate(prof, disc.DislocationParam(1, 0.0), g)
            rings = base.rings * (1.0 + 0.35 * np.cos(2 * disc._thetas(g)))[None, :]
            u = disc.DiscFunction(g, base.center, rings, base.support_radius)
            ratio = disc.energy(disc.deflate(u, disc.DislocationParam(6, 0.1))) / disc.energy(u)
            devs.append(abs(ratio - 1.0))
        assert devs[2] < devs[0]

    def test_round_trip_recovers_radialization(self):
        # grid must hold the inflated bubble: s_max >= scale * profile extent
        g = disc.PolarGrid(n_r=512, n_theta=1024, s_max=6.0)
        prof = smooth_plateau_profile(0.72, 0.75)
        d = disc.DislocationParam(2, 0.06 + 0.02j)
        u = disc.inflate(prof, d, g)
        back = radial.gauge_apply(disc.angular_profile_around(u, d.zeta), d.j)
        err = radial.h1_distance(back, prof) / radial.grad_norm(prof, 2)
        assert err <= 2e-2

    def test_round_trip_error_decreases_under_refinement(self):
        errs = []
        for n_r, n_th in ((128, 256), (256, 512), (512, 1024)):
            g = disc.PolarGrid(n_r=n_r, n_theta=n_th, s_max=6.0)
            prof = smooth_plateau_profile(0.72, 0.75)
            d = disc.DislocationParam(2, 0.06 + 0.02j)
            u = disc.inflate(prof, d, g)
            back = radial.gauge_apply(disc.angular_profile_around(u, d.zeta), d.j)
            errs.append(radial.h1_distance(back, prof))
        assert errs[2] < errs[1] < errs[0]

    def test_angular_profile_gauge_consistency(self, bump):
        # the ring means of the scale-j deflation are the exact dilation of
        # the scale-1 angular profile
        p1 = disc.angular_profile_around(bump, 0.05 + 0.02j)
        w = disc.deflate(bump, disc.DislocationParam(4, 0.05 + 0.02j))
        means = w.rings.mean(axis=1)[::-1].copy()
        means[0] = 0.0
        p4 = radial.RadialProfile.from_arrays(disc._ring_s(w.grid)[::-1], means, 2)
        q = radial.gauge_apply(p1, 4.0)
        nodes = p4.nodes
        assert np.allclose(q.value_at(nodes), p4.value_at(nodes), atol=1e-12)


class TestAverage:
    def test_constant_region(self, grid):
        prof = radial.RadialProfile.from_arrays(
            [0.0, 0.2, 0.4, 20.0], [0.0, 0.0, 3.0, 3.0], 2
        )
        u = disc.inflate(prof, disc.DislocationParam(1, 0.0), grid)
        # deep inside the plateau the mean is the constant
        assert disc.average(u, 0.05, 0.0) == pytest.approx(3.0, rel=1e-6)

    def test_linearity_and_sup_contraction(self, bump):
        half = disc.scale_disc(bump, 0.5)
        z = 0.1 + 0.1j
        assert disc.average(half, 0.1, z) == pytest.approx(
            0.5 * disc.average(bump, 0.1, z), rel=1e-12
        )
        field = disc.average_field(bump, 0.07)

        def sup(u):
            return max(abs(u.center), float(np.max(np.abs(u.rings))))

        assert sup(field) <= sup(bump) * (1 + 1e-9)
        assert not field.zero_trace

    @pytest.mark.parametrize("r", [0.0, -0.1])
    def test_field_rejects_nonpositive_radius(self, bump, r):
        # the radius is wrong, not the grid: no advice to refine it
        with pytest.raises(ValueError, match="averaging radius must be positive") as exc:
            disc.average_field(bump, r)
        assert not isinstance(exc.value, disc.GridResolutionError)

    def test_resolution_guard(self, bump):
        with pytest.raises(disc.GridResolutionError, match="finer grid"):
            disc.average(bump, 1e-9, 0.3 + 0.1j)
        # the unguarded ball mean degrades to interpolation
        disc.average_many(bump, 1e-9, 0.3 + 0.1j)

    def test_oscillation_inequality_fitted_constant_stable(self, grid, rng):
        # ||A_r u - u||_2 <= C r ||grad u||_2 with a stable fitted constant
        fitted = []
        for seed in range(3):
            local = np.random.default_rng(seed)
            prof = radial.random_profile(local, normalized=True, t_max=2.5)
            nodes = np.concatenate(([0.0, 0.7], 0.7 + np.sort(local.uniform(0.01, 2.0, 4))))
            vals = np.concatenate(([0.0, 0.0], local.normal(size=4)))
            prof = radial.RadialProfile.from_arrays(nodes, vals, 2)
            prof = radial.scale(prof, 1.0 / radial.grad_norm(prof, 2))
            base = disc.inflate(prof, disc.DislocationParam(1, 0.0), grid)
            rings = base.rings * (1.0 + 0.3 * np.cos(disc._thetas(grid)))[None, :]
            u = disc.DiscFunction(grid, base.center, rings, base.support_radius)
            gn = disc.grad_norm_disc(u)
            ratios = []
            for r in (0.02, 0.05, 0.1):
                diff = disc.subtract_disc(
                    disc.DiscFunction(grid, u.center, u.rings, 1.0, zero_trace=False),
                    disc.average_field(u, r),
                )
                ratios.append(disc.l2_norm(diff) / (r * gn))
            fitted.append(max(ratios))
        assert max(fitted) / min(fitted) < 3.0
        assert max(fitted) < 2.0  # the constant is universal and modest

    def test_modulus_of_continuity_fit(self, bump):
        # |A_r w(z')| >= |A_r w(z)| - C ||w||_2 |z-z'|^{1/2} / r^{3/2}
        r = 0.08
        l2 = disc.l2_norm(bump)
        rng = np.random.default_rng(5)
        consts = []
        for _ in range(40):
            z = complex(*rng.uniform(-0.4, 0.4, 2))
            dz = complex(*rng.uniform(-0.05, 0.05, 2))
            a = abs(float(disc.average_many(bump, r, z)))
            b = abs(float(disc.average_many(bump, r, z + dz)))
            drop = max(0.0, a - b)
            if abs(dz) > 1e-6:
                consts.append(drop * r**1.5 / (l2 * abs(dz) ** 0.5))
        assert max(consts) < 1.0  # comfortably below a universal constant


class TestDetect:
    def test_planted_bubble_recovered(self):
        g = disc.PolarGrid(n_r=768, n_theta=768, s_max=7.5)
        zeta0 = 0.1 + 0.05j
        u = disc.inflate(
            radial.moser_annular(1.0, 0.3), disc.DislocationParam(6, zeta0), g
        )
        cands = disc.concentration_detect(u, eps=0.05, j_max=16)
        assert cands
        d, score = cands[0]
        assert 3 <= d.j <= 12  # within a factor 2 of the planted scale
        assert abs(d.zeta - zeta0) <= 0.05
        assert score >= 0.2

    def test_rejects_nonpositive_eps_and_top_k(self, bump):
        assert len(disc.concentration_detect(bump, eps=1e-3, j_max=4, top_k=1)) == 1
        with pytest.raises(ValueError, match="threshold must be positive"):
            disc.concentration_detect(bump, eps=0.0, j_max=4)
        for top_k in (0, -1):
            with pytest.raises(ValueError, match="at least one detection"):
                disc.concentration_detect(bump, eps=1e-3, j_max=4, top_k=top_k)

    @pytest.mark.parametrize("j_max", [0, -1])
    def test_rejects_nonpositive_j_max(self, bump, j_max):
        with pytest.raises(ValueError, match="j_max >= 1"):
            disc.concentration_detect(bump, eps=1e-3, j_max=j_max)

    def test_zero_function_empty(self, grid):
        z = disc.DiscFunction(grid, 0.0, np.zeros((grid.n_r, grid.n_theta)))
        assert disc.concentration_detect(z, eps=0.05, j_max=8) == []

    def test_spreading_sequence_scores_vanish(self, grid):
        # shrinking bumps of constant energy: no concentration at any scale
        prof = radial.RadialProfile.from_arrays(
            [0.0, 0.8, 1.6, 2.4], [0.0, 0.0, 1.0, 0.0], 2
        )
        prof = radial.scale(prof, 1.0 / radial.grad_norm(prof, 2))
        tops = []
        for shift in (0.0, 1.0, 2.0):
            moved = radial.RadialProfile.from_arrays(
                np.concatenate(([0.0], prof.nodes[1:] + shift)),
                prof.values, 2,
            )
            u = disc.inflate(moved, disc.DislocationParam(1, 0.0), grid)
            cands = disc.concentration_detect(u, eps=1e-4, j_max=12, refine=False)
            tops.append(cands[0][1] if cands else 0.0)
        assert tops[2] < tops[0]

    def test_probes_unit_energy(self, grid):
        for phi in disc.make_probes(grid, 6):
            assert disc.energy(phi) == pytest.approx(1.0, rel=1e-9)
