"""The suites' task lists against a fixture taken before the suites
became one table of generators.

``suite_tasks.json`` holds the ``repr`` of every task descriptor of each
suite at six command-line configurations, and of ``ybe`` at the partial
configuration ``{"N": 2}``; the repr keeps tuple and list, bool and int,
and the order of the kwargs apart.  ``"all"`` is the other suites' lists
in turn, so the fixture stores only those.
"""

import json
import os

import pytest

from triggaudin import cli, suites

with open(
    os.path.join(os.path.dirname(__file__), "suite_tasks.json"), encoding="utf-8"
) as _fh:
    FIXTURE = json.load(_fh)

CAPS = (
    "Q_M_MAX",
    "THETA_M_MAX",
    "EXPLICIT_M_MAX",
    "CLOSING_M_MAX",
    "PBW_M_MAX",
    "PBW_U_ORDER",
    "VACUUM_M_MAX",
)


def _config(flags):
    return cli.resolve_config(cli.build_parser().parse_args(["verify"] + flags))


def _reprs(suite, cfg):
    return [repr(task) for task in suites.build_tasks(suite, cfg)]


def _mismatches():
    """The (configuration, suite) cases whose task list is not the
    fixture's."""
    bad = []
    for case in FIXTURE["configs"]:
        cfg = _config(case["flags"])
        want = dict(case["tasks"])
        want["all"] = [t for name in FIXTURE["suites"] for t in want[name]]
        for suite in suites.SUITE_NAMES:
            if _reprs(suite, cfg) != want.get(suite):
                bad.append((case["flags"], suite))
    partial = FIXTURE["partial"]
    if _reprs(partial["suite"], partial["cfg"]) != partial["tasks"]:
        bad.append((partial["cfg"], partial["suite"]))
    return bad


def test_suite_names_are_the_fixture_suites():
    assert suites.SUITE_NAMES == (*FIXTURE["suites"], "all")


def test_task_lists_match_the_fixture():
    assert _mismatches() == []


@pytest.mark.parametrize("step", (-1, 1))
@pytest.mark.parametrize("cap", CAPS)
def test_moving_a_cap_changes_the_task_lists(monkeypatch, cap, step):
    # negative control: each cap shows in the fixture, moved either way
    monkeypatch.setattr(suites, cap, getattr(suites, cap) + step)
    assert _mismatches()


def test_every_claim_names_a_task_and_every_task_is_reached():
    tasks = {
        name
        for name, value in vars(suites).items()
        if name.startswith("task_") and callable(value)
    }
    assert set(suites._CLAIMS) <= tasks
    reached = {
        task[2]
        for case in FIXTURE["configs"]
        for task in suites.build_tasks("all", _config(case["flags"]))
    }
    assert reached == tasks


def test_unknown_suite_is_refused():
    with pytest.raises(ValueError):
        suites.build_tasks("no-such-suite", _config([]))
