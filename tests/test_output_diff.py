"""``tools/output_diff.py`` says how far two trees of outputs differ."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _load():
    spec = importlib.util.spec_from_file_location("output_diff",
                                                  ROOT / "tools" / "output_diff.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tree(root: Path, files: dict[str, str]) -> Path:
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


SAME = {"a-1/certificates.txt": "qoi 0.1\n", "a-1/bounds.csv": "t,bound\n0.1,0.5\n"}


def test_two_trees(tmp_path, capsys):
    module = _load()
    old = _tree(tmp_path / "old", {
        **SAME,
        "a-1/zscores.csv": "qoi,mean,std\narea,100.0,2.0\nlj,-4.0,0.5\n",
        "a-1/colors.csv": "key,value\n1,np.float64(0.5)\n2,np.float64(0.25)\n",
        "a-1/occupancy.dx": "object 1\n0.5\n",
        "a-1/gone.csv": "x\n1\n",
        "a-1/rows.csv": "x\n1\n2\n",
    })
    new = _tree(tmp_path / "new", {
        **SAME,
        "a-1/zscores.csv": "qoi,mean,std\narea,100.00000000000001,2.0\nlj,-4.0,0.5000001\n",
        "a-1/colors.csv": "key,value\n1,0.5\n2,0.25\n",
        "a-1/occupancy.dx": "object 1\n0.25\n",
        "a-1/rows.csv": "x\n1\n",
        "b-4/new.json": "{}\n",
    })
    assert module.main([str(old), str(new)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "a-1/colors.csv: other cells differing: 2",
        f"a-1/gone.csv: only in {old}",
        "a-1/occupancy.dx: bytes differ",
        "a-1/rows.csv: bytes differ (rows or columns differ)",
        "a-1/zscores.csv: numeric cells differing: 2, largest relative difference 2.0e-07",
        f"b-4/new.json: only in {new}",
    ]


def test_largest_relative_difference_of_one_ulp():
    module = _load()
    old = b"r,error\n2,0.25\n3,1.0\n"
    new = b"r,error\n2,0.25\n3,1.0000000000000002\n"
    assert module.describe(old, new, "saturation_area.csv") == \
        "numeric cells differing: 1, largest relative difference 2.2e-16"
    assert module.describe(old, old, "saturation_area.csv") is None


def test_identical_trees_exit_0(tmp_path, capsys):
    module = _load()
    old, new = _tree(tmp_path / "old", SAME), _tree(tmp_path / "new", SAME)
    assert module.main([str(old), str(new)]) == 0
    assert capsys.readouterr().out == ""
    assert module.main([str(old)]) == 2
    assert module.main([str(old), str(tmp_path / "missing")]) == 2
