"""The disk is a single zone: every track holds the same number of sectors."""

import pytest

from repro.disk import DiskGeometry


def test_single_zone_unchanged():
    geo = DiskGeometry(total_sectors=9600, sectors_per_track=1200, heads=4)
    assert geo.sectors_per_track == 1200
    # The last track holds as many sectors as the first, so the last LBN
    # sits at the last rotational slot of the last cylinder.
    assert geo.cylinder_of(9599) == geo.n_cylinders - 1 == 1
    assert geo.angle_of(1199) == pytest.approx(1199 / 1200)
    assert geo.angle_of(9599) == pytest.approx(1199 / 1200)
