"""Golden records: every run of ``tools/golden.py``, rebuilt in-process, gives
the bytes committed under ``tests/golden/`` (``wall_time`` aside).  A change
that moves a record rewrites it with ``python3 tools/golden.py``, on purpose."""
import importlib.util
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"
_spec = importlib.util.spec_from_file_location("golden", TOOLS / "golden.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


def _committed(name: str) -> str:
    return (golden.GOLDEN / name).read_text(encoding="utf-8")


def test_every_committed_record_has_a_run():
    assert sorted(p.name for p in golden.GOLDEN.iterdir()) == sorted(
        [*golden.CLI_RUNS, *golden.DIRECT_RUNS])


@pytest.mark.parametrize("name", [*golden.CLI_RUNS, *golden.DIRECT_RUNS])
def test_record_is_byte_identical(name):
    assert golden.record(name) == _committed(name)


def test_two_worker_headline_record_equals_the_one_worker_record():
    argv = golden.CLI_RUNS["ypq73_rotate_alpha_n32.json"] + ["--workers", "2"]
    text = golden.strip_wall_time(golden.cli_output(argv))
    assert text == _committed("ypq73_rotate_alpha_n32.json")


def test_wall_time_is_the_only_field_removed():
    text = '{"value":1,"wall_time":0.25,"provenance":{"a":[1,2]}}\n'
    assert golden.strip_wall_time(text) == '{"value":1,"provenance":{"a":[1,2]}}\n'
    table = 'kind,value,wall_time,message\nresult,1,0.5,"x, y"\n'
    assert golden.strip_wall_time(table) == 'kind,value,wall_time,message\nresult,1,,"x, y"\n'
