"""The peak-RSS reporter in ``tools/peak_rss.py``."""

import importlib.util
import re
import sys
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "peak_rss", Path(__file__).resolve().parents[1] / "tools" / "peak_rss.py")
peak_rss = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(peak_rss)


def test_reports_the_child_peak_and_passes_its_exit_code_on(tmp_path):
    out = tmp_path / "rss.txt"
    code = peak_rss.main([str(out), sys.executable, "-c",
                          "import sys; block = bytearray(40 << 20); sys.exit(3)"])
    assert code == 3
    line = out.read_text()
    assert re.fullmatch(r"\d+\.\d MB peak RSS\n", line)
    assert float(line.split()[0]) >= 40
