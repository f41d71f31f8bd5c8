"""Tests for scene/camera builders and the three dataset generators."""
import numpy as np
import pandas as pd
import pytest

from repro.geo.quaternion import camera_quat_to_heading, quat_to_matrix
from repro.world.datasets import jackson_lite, nuscenes_lite, skyquery_lite
from repro.world.scenes import NUSC_INTRINSIC, camera_table, waypoint_path

CAM_COLS = [
    "video_id", "frame_idx", "ts", "cam_x", "cam_y", "cam_z",
    "qw", "qx", "qy", "qz", "fx", "fy", "sk", "x0", "y0",
    "img_w", "img_h", "cam_heading",
]


def _path(n=10):
    return pd.DataFrame(
        {"frame_idx": np.arange(n), "x": np.linspace(0, 9, n), "y": 0.0, "heading": 0.0}
    )


def test_camera_table_columns():
    c = camera_table("v0", _path(), fps=12.0)
    assert list(c.columns) == CAM_COLS
    assert (c["cam_z"] == 1.6).all()
    assert (c["img_w"] == NUSC_INTRINSIC["img_w"]).all()


def test_camera_table_quaternion_encodes_heading():
    path = _path()
    path["heading"] = 135.0
    c = camera_table("v0", path, fps=12.0)
    q = c[["qw", "qx", "qy", "qz"]].to_numpy()
    np.testing.assert_allclose(camera_quat_to_heading(q), 135.0, atol=1e-6)


def test_camera_table_pitch_90_looks_down():
    c = camera_table("v0", _path(), fps=12.0, height=60.0, pitch_deg=90.0)
    m = quat_to_matrix(c[["qw", "qx", "qy", "qz"]].iloc[0].to_numpy())
    np.testing.assert_allclose(m[:, 2], [0, 0, -1], atol=1e-9)


def test_waypoint_path_speed_and_headings():
    p = waypoint_path([(0, 0), (100, 0)], speed=10.0, n_frames=30, fps=10.0)
    d = np.hypot(np.diff(p["x"]), np.diff(p["y"]))
    np.testing.assert_allclose(d, 1.0, atol=1e-9)
    assert p["heading"].iloc[0] == 0.0


def test_waypoint_path_loops():
    p = waypoint_path([(0, 0), (10, 0)], speed=10.0, n_frames=40, fps=10.0)
    # 10 m out, then back: position stays within the segment.
    assert p["x"].max() <= 10.0 + 1e-9
    assert p["x"].min() >= -1e-9
    assert {0.0, 180.0} <= set(p["heading"].round(6))


@pytest.fixture(scope="module")
def nusc():
    return nuscenes_lite(2, seed=0, n_frames=48)


def test_nuscenes_lite_shapes(nusc):
    assert nusc.cameras["video_id"].nunique() == 2
    assert nusc.n_frames == 2 * 48
    assert set(nusc.gt["video_id"]) == set(nusc.cameras["video_id"])
    assert nusc.video_ids == ["scene-0000", "scene-0001"]


def test_nuscenes_lite_deterministic():
    a = nuscenes_lite(1, seed=7, n_frames=24)
    b = nuscenes_lite(1, seed=7, n_frames=24)
    pd.testing.assert_frame_equal(a.cameras, b.cameras)
    pd.testing.assert_frame_equal(a.gt, b.gt)


def test_nuscenes_lite_oids_disjoint_across_scenes(nusc):
    per_scene = nusc.gt.groupby("video_id")["oid"].unique()
    assert not set(per_scene.iloc[0]) & set(per_scene.iloc[1])


def test_nuscenes_camera_at_driving_height(nusc):
    assert (nusc.cameras["cam_z"] == 1.6).all()


def test_jackson_lite_static_camera():
    j = jackson_lite(2, seed=0, n_frames=30)
    for _, g in j.cameras.groupby("video_id"):
        assert g["cam_x"].nunique() == 1 and g["cam_y"].nunique() == 1
    assert (j.cameras["cam_z"] == 8.0).all()
    assert j.fps == 30.0


def test_skyquery_lite_aerial():
    s = skyquery_lite(seed=0, n_frames=60)
    assert (s.cameras["cam_z"] == 60.0).all()
    m = quat_to_matrix(s.cameras[["qw", "qx", "qy", "qz"]].iloc[0].to_numpy())
    np.testing.assert_allclose(m[:, 2], [0, 0, -1], atol=1e-9)  # looking down
    # Stopped cars exist for Q10.
    stopped = s.gt[(s.gt["otype"] == "car") & (s.gt["speed"] == 0)]
    assert stopped["oid"].nunique() >= 2
    assert "bikeLane" in set(s.road.df["type"])


def test_dataset_spark_conversion(spark):
    d = nuscenes_lite(1, seed=0, n_frames=12)
    cams, gt, road = d.tables(spark)
    assert road.count() == len(d.road.df)
    assert cams.count() == 12
    assert gt.count() == len(d.gt)
    first = road.filter(road.type == "lane").first()
    assert len(first["poly"]) == 4 and len(first["poly"][0]) == 2
