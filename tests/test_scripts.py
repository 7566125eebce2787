"""The experiment scripts run end to end on their smallest arguments."""

import runpy
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, args, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [name, *args])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return capsys.readouterr().out.splitlines()


def test_oracle_mask_experiment(monkeypatch, capsys):
    lines = run_script("oracle_mask_experiment.py", ["--scenes", "1", "--duration", "0.5"],
                       monkeypatch, capsys)
    assert [line.split(":")[0] for line in lines[:2]] == ["scene   0 zone 1", "scene   0 zone 3"]
    assert lines[-1].startswith("2 measurements | median ")


def test_positioning_experiment(monkeypatch, capsys):
    lines = run_script("positioning_experiment.py",
                       ["--scenes", "1", "--boundary-scenes", "1", "--duration", "0.5"],
                       monkeypatch, capsys)
    assert [line.split(":")[0] for line in lines] == [
        "standard-posture accuracy", "NSPA (boundary subset)", "overall accuracy"]


def test_output_digest_is_stable_within_a_process():
    digests = runpy.run_path(str(SCRIPTS / "output_digest.py"))["digests"]
    first, second = digests(quick=True), digests(quick=True)
    assert first == second
    for name in ("fingerprint/S", "file/S.bin", "file/sep/S_None/zone1.wav",
                 "file/sep/S_None/separate_report.json", "file/scene/plain/mixture.wav",
                 "file/scene/mixed/mixture.wav", "file/ir/ess_flags_inverse.wav",
                 "file/ir/tsp_stretch_ir.wav", "file/rec/mic3.wav", "scene/0/forward_speech",
                 "scene/0/separate_stream", "file/eval.json"):
        assert len(first[name]) == 64, name
