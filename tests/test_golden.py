"""Byte-for-byte replay of a fixed set of CLI commands.

Each case in ``CASES`` has three recorded files under ``tests/golden/``:
``<name>.out`` (stdout), ``<name>.err`` (stderr) and ``<name>.code``
(exit status). The test runs the command in-process through ``cli.run``
and compares bytes; ``run`` sends log records to the stderr of the call
as ``%(message)s`` lines, as the command line prints them. The recorded
bytes depend on the platform's libm, so they are regenerated only from
an unmodified reference checkout, never to make a refactor pass. The recorder refuses to run while
``git status --porcelain -- src`` lists any change:

    PYTHONPATH=src python tests/test_golden.py

It prints one line per case, ending in ``changed`` or ``new`` where the
recorded bytes differ from the files it overwrites. Under a changed case
it prints up to three differing lines of each changed file, the old line
after ``-`` and the new one after ``+``.

A change that is meant to move numbers (a refactor must not) is
recorded in three steps: commit the ``src/`` change, run the recorder,
and explain each case it reports as changed in CHANGES.md: which fields
moved, by how much, and that counts and verdicts did not.
"""

from __future__ import annotations

import contextlib
import difflib
import io
import itertools
import subprocess
import sys
from pathlib import Path

import pytest

from zetagb.cli import run

GOLDEN_DIR = Path(__file__).with_name("golden")

_EVAL = ("eval", "--re", "0.5", "--im", "14.134725")
_PARAMS = ("params", "--re", "0.5", "--im", "250")
_ZEROS = ("zeros", "--t-min", "0", "--t-max", "60")
_COUNT = ("count", "--sigma-min", "0.01", "--sigma-max", "0.99", "--t-min", "0.1", "--t-max", "60")
_BERNOULLI = ("bernoulli", "--max-index", "20")
_FORMATS = ("text", "json", "csv")

CASES: dict[str, tuple[str, ...]] = {
    **{f"eval_{fmt}": (*_EVAL, "--format", fmt) for fmt in _FORMATS},
    "eval_cancelling_json": ("eval", "--re", "-0.9", "--im", "400", "--eps", "1e-10", "--format", "json"),
    "eval_explicit_csv": ("eval", "--re", "0.3", "--im", "7", "--N", "40", "--nu", "6", "--format", "csv"),
    **{f"params_{fmt}": (*_PARAMS, "--format", fmt) for fmt in _FORMATS},
    # the schedule's choice at the most cancelling corner of the supported range
    "params_cancelling_json": ("params", "--re", "-1", "--im", "499", "--eps", "1e-12", "--format", "json"),
    **{f"zeros_{fmt}": (*_ZEROS, "--format", fmt) for fmt in _FORMATS},
    "zeros_jsonl": (*_ZEROS, "--format", "jsonl"),
    **{f"count_{fmt}": (*_COUNT, "--format", fmt) for fmt in _FORMATS},
    "audit_0_50": ("audit", "--t-min", "0", "--t-max", "50"),
    "audit_250_256": ("audit", "--t-min", "250", "--t-max", "256"),
    "audit_493_499": ("audit", "--t-min", "493", "--t-max", "499"),
    "eval_cap_json": ("eval", "--re", "0.5", "--im", "499", "--eps", "1e-10", "--format", "json"),
    "count_cap_text": ("count", "--sigma-min", "0.01", "--sigma-max", "0.99", "--t-min", "493", "--t-max", "499"),
    "zeros_cap_json": ("zeros", "--t-min", "493", "--t-max", "499", "--format", "json"),
    **{f"bernoulli_{fmt}": (*_BERNOULLI, "--format", fmt) for fmt in _FORMATS},
    # non-default scan settings and --eps on count, so a dropped option shows
    "zeros_step_tol_csv": ("zeros", "--t-min", "0", "--t-max", "40", "--step", "0.2", "--tol", "1e-8", "--format", "csv"),
    # one Newton step from the 0.5 grid's seed leaves |Z| near 5e-7, so both fail to refine
    "zeros_max_iter_1": ("zeros", "--t-min", "14", "--t-max", "15", "--step", "0.5", "--max-iter", "1"),
    "audit_step_tol": ("audit", "--t-min", "14", "--t-max", "22", "--step", "0.2", "--tol", "1e-8"),
    "audit_max_iter_strict": ("audit", "--t-min", "14", "--t-max", "15", "--step", "0.5", "--max-iter", "1",
                              "--strict-refine"),
    "count_eps_json": (*_COUNT[:-1], "30", "--eps", "1e-11", "--format", "json"),
    # two zeros 0.44 apart share one cell of a 0.5 grid
    "audit_coarse_step": ("audit", "--t-min", "415", "--t-max", "417", "--step", "0.5"),
    # Newton from the node 334.0 left its cell [333.5, 334.0] for the zero at 334.2114;
    # from the regula-falsi seed both zeros come back
    "zeros_coarse_bracket": ("zeros", "--t-min", "333", "--t-max", "335", "--step", "0.5"),
}


def _golden(name: str) -> tuple[int, bytes, bytes]:
    code = int((GOLDEN_DIR / f"{name}.code").read_text())
    return code, (GOLDEN_DIR / f"{name}.out").read_bytes(), (GOLDEN_DIR / f"{name}.err").read_bytes()


def _run_case(argv: tuple[str, ...]) -> tuple[int, bytes, bytes]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(list(argv))
    return code, out.getvalue().encode(), err.getvalue().encode()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_is_byte_identical(name: str) -> None:
    golden = _golden(name)
    assert _run_case(CASES[name]) == golden
    if name.startswith(("zeros_", "audit_")):
        # again in the same process: a run leaves no state that moves the next
        assert _run_case(CASES[name]) == golden


def _src_changes() -> str:
    repo = Path(__file__).resolve().parents[1]
    try:
        status = subprocess.run(
            ["git", "status", "--porcelain", "--", "src"], cwd=repo, capture_output=True, text=True
        )
    except OSError as exc:
        return f"git status failed: {exc}"
    return status.stdout if status.returncode == 0 else f"git status failed: {status.stderr}"


def _diff_lines(path: Path, old: bytes, new: bytes, limit: int = 3) -> list[str]:
    # the first ``limit`` differing lines, a replaced line as its -/+ pair
    a = old.decode(errors="replace").splitlines()
    b = new.decode(errors="replace").splitlines()
    pairs = []
    for tag, i1, i2, j1, j2 in difflib.SequenceMatcher(None, a, b, autojunk=False).get_opcodes():
        if tag != "equal":
            pairs += itertools.zip_longest(a[i1:i2], b[j1:j2])
    return [
        f"  {path.name}: {sign}{line}"
        for pair in pairs[:limit]
        for sign, line in zip("-+", pair)
        if line is not None
    ]


def _record() -> None:
    changes = _src_changes()
    if changes:
        sys.exit(f"refusing to record: src/ is not an unmodified checkout\n{changes}")
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        code, out, err = _run_case(argv)
        recorded = {
            GOLDEN_DIR / f"{name}.out": out,
            GOLDEN_DIR / f"{name}.err": err,
            GOLDEN_DIR / f"{name}.code": f"{code}\n".encode(),
        }
        diffs: list[str] = []
        if not all(path.exists() for path in recorded):
            status = ", new"
        elif any(path.read_bytes() != data for path, data in recorded.items()):
            status = ", changed"
            for path, data in recorded.items():
                diffs += _diff_lines(path, path.read_bytes(), data)
        else:
            status = ""
        for path, data in recorded.items():
            path.write_bytes(data)
        print(f"{name}: exit {code}{status}", *diffs, sep="\n", file=sys.stderr)


def test_recorder_names_the_changed_cases(monkeypatch, tmp_path, capsys) -> None:
    names = ("eval_json", "params_json")
    files = [f"{name}.{suffix}" for name in names for suffix in ("out", "err", "code")]
    for file in files:
        (tmp_path / file).write_bytes((GOLDEN_DIR / file).read_bytes())
    (tmp_path / "params_json.out").write_bytes(b"stale\n")
    (tmp_path / "eval_json.code").unlink()
    module = sys.modules[__name__]
    monkeypatch.setattr(module, "GOLDEN_DIR", tmp_path)
    monkeypatch.setattr(module, "CASES", {name: CASES[name] for name in names})
    monkeypatch.setattr(module, "_src_changes", lambda: "")
    _record()
    recorded = (tmp_path / "params_json.out").read_text().splitlines()
    assert capsys.readouterr().err.splitlines() == [
        "eval_json: exit 0, new",
        "params_json: exit 0, changed",
        # the stale line pairs with the first recorded line; two more are new
        "  params_json.out: -stale",
        *(f"  params_json.out: +{line}" for line in recorded[:3]),
    ]
    _record()
    assert capsys.readouterr().err.splitlines() == ["eval_json: exit 0", "params_json: exit 0"]
    golden = Path(__file__).with_name("golden")
    assert all((tmp_path / file).read_bytes() == (golden / file).read_bytes() for file in files)


def test_recorder_refuses_a_modified_src(monkeypatch, tmp_path) -> None:
    monkeypatch.setattr(sys.modules[__name__], "GOLDEN_DIR", tmp_path)
    monkeypatch.setattr(sys.modules[__name__], "_src_changes", lambda: " M src/zetagb/zeta_core.py\n")
    with pytest.raises(SystemExit) as exc:
        _record()
    assert "src/zetagb/zeta_core.py" in str(exc.value.code)
    assert not any(tmp_path.iterdir())


if __name__ == "__main__":
    _record()
