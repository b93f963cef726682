"""Smoke tests: every example runs end-to-end at reduced scale."""

import subprocess
import sys
from pathlib import Path


EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def _run(script: str, *args: str, timeout: int = 240) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / script), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


def test_quickstart():
    out = _run("quickstart.py", "--scale", "0.05")
    assert "alternate better than default" in out
    assert "Largest RTT win" in out


def test_overlay_gain():
    out = _run("overlay_gain.py", "--scale", "0.05", "--hosts", "14")
    assert "relay helps latency on" in out
    assert "Busiest relays" in out


def test_routing_ablation():
    out = _run("routing_ablation.py", "--hosts", "10")
    assert "policy + early exit" in out
    assert "mean stretch" in out


def test_dataset_tour():
    out = _run("dataset_tour.py")
    assert "traceroute from" in out
    assert "detector recall" in out


def test_detour_overlay():
    out = _run("detour_overlay.py", "--hosts", "10", "--pairs", "4")
    assert "oracle-gain capture" in out
    assert "Four strategies on the same environment" in out
