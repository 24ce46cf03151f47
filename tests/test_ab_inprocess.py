import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_TOOL = ROOT / "tools" / "ab_inprocess.py"


def _run(baseline: Path) -> tuple:
    proc = subprocess.run([sys.executable, str(_TOOL), "--baseline", str(baseline),
                           "--workload", "rational", "--seed", "1", "--ops", "4",
                           "--best", "1", "--rounds", "2"],
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, json.loads(proc.stdout.splitlines()[-1])


def _copy_src(dest: Path) -> Path:
    shutil.copytree(ROOT / "src", dest, ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def test_a_copy_of_the_tree_gives_equal_outputs(tmp_path):
    status, doc = _run(_copy_src(tmp_path / "src"))
    assert status == 0
    assert set(doc) == {"workload", "seed", "ops", "best", "baseline", "ratios", "median",
                        "range", "baseline_s", "change_s", "differing_ops", "first_differing"}
    assert (doc["workload"], doc["ops"], doc["differing_ops"]) == ("rational", 4, 0)
    assert len(doc["ratios"]) == len(doc["baseline_s"]) == len(doc["change_s"]) == 2
    assert doc["range"] == [min(doc["ratios"]), max(doc["ratios"])]


def test_a_tree_that_prints_otherwise_exits_1(tmp_path):
    poly = _copy_src(tmp_path / "src") / "bracketdec" / "poly.py"
    text = poly.read_text()
    assert "        return str(n)\n" in text
    poly.write_text(text.replace("        return str(n)\n", "        return str(n) + '0'\n"))
    status, doc = _run(tmp_path / "src")
    assert status == 1
    assert doc["differing_ops"] == 4 and doc["first_differing"] == [0, 1, 2, 3]
