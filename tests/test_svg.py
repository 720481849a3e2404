import math
import re

from agfem import svg


def test_line_chart_skips_a_nan_point(tmp_path):
    # a nan minimum once reached the tick computation and raised there
    path = tmp_path / "chart.svg"
    svg.line_chart(path, [("std", [1e-2, 1e-4, 1e-6], [math.nan, 10.0, 100.0])],
                   logx=True, logy=True)
    [points] = re.findall(r'<polyline points="([^"]*)"', path.read_text())
    assert len(points.split()) == 2
    assert "nan" not in path.read_text()
