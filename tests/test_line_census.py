"""The line census (tests/line_census.py, an opt-in plugin) finds the
statements a run never reached; this checks its statement finder and
tracer on a planted source text."""

import sys

from line_census import ALLOWED, Recorder, unreached


def traced_lines(source: str, run) -> set:
    """The lines of ``source`` that ran while ``run`` called into it."""
    code = compile(source, "<planted>", "exec")
    namespace = {}
    exec(code, namespace)
    recorder = Recorder(lambda name: name == "<planted>")
    previous = sys.gettrace()          # the census's own tracer, when it runs
    sys.settrace(recorder.call)
    try:
        run(namespace)
    finally:
        sys.settrace(previous)
    return recorder.files.get("<planted>", set())


def test_the_census_sees_an_unreached_statement():
    source = ("def counter(flag):\n"
              "    \"\"\"Docstrings have no bytecode.\"\"\"\n"
              "    total = 0\n"
              "    def bump():\n"
              "        nonlocal total\n"
              "        total += 1\n"
              "    if flag:\n"
              "        bump()\n"
              "    else:\n"
              "        raise ValueError('planted')\n"
              "    try:\n"
              "        return (total\n"
              "                + 0)\n"
              "    finally:\n"
              "        pass\n"
              "class Box:\n"
              "    size = 1\n"
              "    def spare(self):\n"
              "        return self.size\n")
    hits = traced_lines(source, lambda ns: ns["counter"](True))
    assert unreached(source, hits) == [("counter", 10, "raise ValueError('planted')"),
                                       ("Box.spare", 19, "return self.size")]


def test_every_allowed_statement_has_a_reason():
    assert len(ALLOWED) <= 2
    assert all(reason.strip() for reason in ALLOWED.values())
