"""The amplifier characterization script."""

import importlib.util
import pathlib

_SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "hpa_curves.py"


def test_writes_curves_and_prints_back_off_table(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("hpa_curves", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    out = tmp_path / "curves.csv"
    assert module.main(["--out", str(out)]) == 0
    assert out.read_text().startswith("level,")
    printed = capsys.readouterr().out.splitlines()
    table = printed[printed.index("  IBO dB   OBO dB") + 1:]
    rows = [tuple(map(float, line.split())) for line in table]
    assert [ibo for ibo, _ in rows] == [3.0, 5.0, 7.0, 9.0, 12.0]
    obo = [value for _, value in rows]
    assert obo == sorted(obo) and obo[0] > 0.0
