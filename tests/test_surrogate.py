"""Unit tests for the accuracy surrogate (the training substitute).

The calibration anchors come straight from the paper's published
numbers; these tests pin them and the landscape properties the search
depends on (monotonicity, determinism, bounded jitter).
"""

import pytest

from repro.train import (
    AccuracySurrogate,
    SurrogateCalibration,
    default_surrogate,
)


class TestPaperAnchors:
    def test_cifar_floor(self, surrogate, cifar_space):
        net = cifar_space.decode(cifar_space.smallest_indices())
        assert surrogate.accuracy(net) == pytest.approx(78.93, abs=0.01)

    def test_cifar_peak(self, surrogate, cifar_space):
        net = cifar_space.decode(cifar_space.largest_indices())
        assert surrogate.accuracy(net) == pytest.approx(94.30, abs=0.01)

    @pytest.mark.parametrize("genotype,expected,tol", [
        ((32, 128, 2, 256, 2, 256, 2), 94.17, 0.6),  # Table I/II NAS best
        ((8, 64, 2, 256, 2, 256, 2), 93.23, 0.8),    # Table II hetero-1
        ((8, 32, 2, 128, 2, 128, 1), 91.11, 0.6),    # Table II hetero-2
        ((8, 32, 2, 128, 1, 256, 1), 91.45, 0.6),    # Table II single
        ((32, 32, 1, 128, 1, 256, 1), 92.00, 0.6),   # Table II homo
    ])
    def test_cifar_published_anchors(self, surrogate, cifar_space,
                                     genotype, expected, tol):
        net = cifar_space.decode(cifar_space.indices_of(genotype))
        assert surrogate.accuracy(net) == pytest.approx(expected, abs=tol)

    def test_stl_floor(self, surrogate, stl_space):
        net = stl_space.decode(stl_space.smallest_indices())
        assert surrogate.accuracy(net) == pytest.approx(71.57, abs=0.01)

    def test_stl_peak_near_nas_best(self, surrogate, stl_space):
        net = stl_space.decode(stl_space.largest_indices())
        # Paper NAS best: 76.50%
        assert surrogate.accuracy(net) == pytest.approx(76.9, abs=0.5)

    def test_nuclei_floor(self, surrogate, unet_space):
        net = unet_space.decode(unet_space.smallest_indices())
        assert surrogate.accuracy(net) == pytest.approx(0.6462, abs=0.001)

    def test_nuclei_peak(self, surrogate, unet_space):
        net = unet_space.decode(unet_space.largest_indices())
        # Paper best IOU: 0.8394 (NAS), 0.8374 (NASAIC)
        assert surrogate.accuracy(net) == pytest.approx(0.846, abs=0.01)


class TestLandscape:
    def test_deterministic(self, cifar_space):
        s1 = default_surrogate([cifar_space])
        s2 = default_surrogate([cifar_space])
        net = cifar_space.decode(cifar_space.indices_of(
            (16, 64, 1, 128, 2, 64, 0)))
        assert s1.accuracy(net) == s2.accuracy(net)

    def test_score_in_unit_interval(self, surrogate, cifar_space, rng):
        for _ in range(100):
            net = cifar_space.decode(cifar_space.random_indices(rng))
            assert 0.0 <= surrogate.capacity_score(net) <= 1.0

    def test_monotone_in_single_filter_dim(self, surrogate, cifar_space):
        base = [8, 32, 1, 64, 1, 64, 1]
        scores = []
        for f in (32, 64, 128, 256):
            g = tuple(base[:3] + [f] + base[4:])
            net = cifar_space.decode(cifar_space.indices_of(g))
            scores.append(surrogate.capacity_score(net))
        assert scores == sorted(scores)

    def test_monotone_in_skips(self, surrogate, cifar_space):
        scores = []
        for s in (0, 1, 2):
            g = (8, 128, s, 128, 1, 128, 1)
            net = cifar_space.decode(cifar_space.indices_of(g))
            scores.append(surrogate.capacity_score(net))
        assert scores == sorted(scores)

    def test_width_without_depth_discounted(self, surrogate, cifar_space):
        """The multiplicative coupling: all-width/no-depth must score
        well below the full architecture (:mod:`repro.train.surrogate`)."""
        wide_shallow = cifar_space.decode(cifar_space.indices_of(
            (64, 256, 0, 256, 0, 256, 0)))
        full = cifar_space.decode(cifar_space.largest_indices())
        gap = (surrogate.accuracy(full)
               - surrogate.accuracy(wide_shallow))
        assert gap > 1.5  # percentage points

    def test_jitter_bounded(self, surrogate, cifar_space, rng):
        import math
        cal = surrogate.calibration("cifar10")
        for _ in range(50):
            net = cifar_space.decode(cifar_space.random_indices(rng))
            score = surrogate.capacity_score(net)
            # Reconstruct the noise-free value and bound the deviation.
            base = cal.floor + (cal.peak - cal.floor) * (
                (1 - math.exp(-cal.curvature * score))
                / (1 - math.exp(-cal.curvature)))
            assert abs(surrogate.accuracy(net) - base) <= cal.jitter + 1e-9

    def test_unet_monotone_in_height(self, surrogate, unet_space):
        scores = []
        for h in range(5):
            net = unet_space.decode((h, 2, 2, 2, 2, 2))
            scores.append(surrogate.capacity_score(net))
        assert scores == sorted(scores)

    def test_accuracy_cached(self, surrogate, cifar_space):
        net = cifar_space.decode(cifar_space.smallest_indices())
        assert surrogate.accuracy(net) is not None
        assert surrogate.accuracy(net) == surrogate.accuracy(net)


class TestValidationAndConfig:
    def test_unregistered_dataset_rejected(self, cifar_space):
        surrogate = AccuracySurrogate()
        net = cifar_space.decode(cifar_space.smallest_indices())
        with pytest.raises(KeyError, match="no search space"):
            surrogate.accuracy(net)

    def test_unknown_calibration_rejected(self):
        from repro.arch import ResNetSpace
        surrogate = AccuracySurrogate()
        with pytest.raises(KeyError, match="no calibration"):
            surrogate.register_space(
                ResNetSpace("imagenet", input_hw=32))

    def test_custom_calibration(self, cifar_space):
        cal = SurrogateCalibration(
            floor=50.0, peak=60.0, curvature=1.0, jitter=0.0,
            stem_weight=0.1, block_weights=(0.3, 0.3, 0.3))
        surrogate = AccuracySurrogate({"cifar10": cal})
        surrogate.register_space(cifar_space)
        net = cifar_space.decode(cifar_space.smallest_indices())
        assert surrogate.accuracy(net) == pytest.approx(50.0)

    def test_block_weight_count_checked(self, stl_space):
        cal = SurrogateCalibration(
            floor=50.0, peak=60.0, curvature=1.0, jitter=0.0,
            stem_weight=0.1, block_weights=(0.3,))  # wrong: 5 blocks
        surrogate = AccuracySurrogate({"stl10": cal})
        with pytest.raises(ValueError, match="block weights"):
            surrogate.register_space(stl_space)

    def test_calibration_validation(self):
        with pytest.raises(ValueError, match="peak"):
            SurrogateCalibration(floor=90, peak=80, curvature=1, jitter=0)
        with pytest.raises(ValueError, match="curvature"):
            SurrogateCalibration(floor=80, peak=90, curvature=0, jitter=0)
        with pytest.raises(ValueError, match="jitter"):
            SurrogateCalibration(floor=80, peak=90, curvature=1, jitter=-1)
        with pytest.raises(ValueError, match="depth_coupling"):
            SurrogateCalibration(floor=80, peak=90, curvature=1, jitter=0,
                                 depth_coupling=2.0)
