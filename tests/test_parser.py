"""``parse_ontology`` and ``parse_axiom`` against the reference line parser.

``parser_reference`` is the parser that tokenizes each line into
(kind, value, column) triples and walks them with a ``_LineParser``. On every
input both must give equal axioms, vocabularies and positions, or an equal
``ParseError``: message, line and column. Only where the stack runs out may
the column differ.
"""

import importlib.util
import random
from pathlib import Path

import pytest

import parser_reference as reference
from elball import synthetic
from elball.ontology import MAX_NESTING, Ontology, ParseError, parse_axiom, parse_ontology

NAMES = ["A", "B", "C1", "r", "s", "x", "_u", "a.b-c", "N#0"]
DIGIT_NAMES = ["9A", "1", "GO:0005575", "9606.ENSP23"]  # a leading digit, or ':' after the first character
KEYWORDS = ["and", "some", "Top", "Bot"]
MARKS = list("<(){}:,")
ODD = ["#", "#c", "é", "x\xe9", "\x0b", "\xa0", "\r", "-", "?", "\t"]
BLANKS = [" "] * 6 + ["", "", "\t", "  ", " \t "]
LINE_ENDS = ["\n"] * 6 + ["\r\n", "\r\n", "\r\r\n", "\n\n", "\r"]


def name(rng: random.Random) -> str:
    return rng.choice(DIGIT_NAMES if rng.random() < 0.05 else NAMES)


def concept(rng: random.Random, depth: int) -> list[str]:
    pick = rng.random()
    if depth == 0 or pick < 0.4:
        if rng.random() < 0.15:
            return ["{", name(rng), "}"]
        return [rng.choice(["Top", "Bot", name(rng)])] if rng.random() < 0.1 else [name(rng)]
    if pick < 0.6:
        return concept(rng, depth - 1) + ["and"] + concept(rng, depth - 1)
    if pick < 0.85:
        return [name(rng), "some"] + concept(rng, depth - 1)
    return ["("] + concept(rng, depth - 1) + [")"]


def axiom_tokens(rng: random.Random) -> list[str]:
    kind = rng.random()
    if kind < 0.55:
        return concept(rng, 3) + ["<"] + concept(rng, 3)
    if kind < 0.75:
        return ["{", name(rng), "}", ":"] + concept(rng, 2)
    if kind < 0.97:
        return [name(rng), "(", name(rng), ",", name(rng), ")"]
    # several hundred deep, within the stack of either parser
    depth = rng.randrange(100, 300)
    if rng.random() < 0.5:
        return ["("] * depth + concept(rng, 1) + [")"] * depth + ["<", "B"]
    depth //= 2
    return ["A", "<"] + ["r", "some", "("] * depth + concept(rng, 1) + [")"] * depth


def fuzz_line(rng: random.Random) -> str:
    toks = axiom_tokens(rng)
    for _ in range(rng.choice([0, 0, 0, 1, 1, 2, 3])):
        j = rng.randrange(len(toks) + 1)
        op, extra = rng.random(), rng.choice(NAMES + DIGIT_NAMES + KEYWORDS + MARKS + ODD)
        if op < 0.4 or not toks:
            toks.insert(j, extra)
        elif op < 0.7:
            del toks[min(j, len(toks) - 1)]
        else:
            toks[min(j, len(toks) - 1)] = extra
    line = "".join(tok + rng.choice(BLANKS) for tok in toks)
    if rng.random() < 0.2:
        line = rng.choice(BLANKS) + line
    if rng.random() < 0.15:
        line += rng.choice(["# note (", "#x", " # é\x0b", "\t#"])
    return line


def outcome(parse, text: str):
    """What ``parse(text, onto)`` gives on a new ontology, or its ParseError."""
    onto = Ontology()
    try:
        result = parse(text, onto)
    except ParseError as exc:
        return str(exc), exc.line, exc.column
    axiom = None if result is onto else result
    return axiom, onto.axioms, onto.positions, [list(onto.classes), list(onto.relations), list(onto.individuals)]


@pytest.mark.parametrize("seed", range(4))
def test_fuzz_lines_parse_as_the_reference_parses_them(seed):
    rng = random.Random(seed)
    lines = [fuzz_line(rng) for _ in range(800)]
    seen = []
    for line in lines:
        seen.append(outcome(parse_axiom, line))
        assert seen[-1] == outcome(reference.parse_axiom, line), repr(line)
    start = 0
    while start < len(lines):
        stop = start + rng.randrange(1, 12)
        text = "".join(line + rng.choice(LINE_ENDS) for line in lines[start:stop])
        text = rng.choice([text, text.rstrip("\n"), text + "\r"])
        assert outcome(parse_ontology, text) == outcome(reference.parse_ontology, text), repr(text)
        start = stop
    # the lines reach every kind of outcome
    messages = set()
    for result in seen:
        if isinstance(result[0], str):
            head, quote, _ = result[0].partition(": ")[2].rpartition(" '")
            messages.add(head if quote else result[0].partition(": ")[2])
    assert {"unexpected character", "unexpected end of line", "trailing input", "expected a name, found",
            "expected a concept, found", "expected '<' or ':', found", "expected ')', found"} <= messages
    assert sum(not isinstance(result[0], str) for result in seen) > len(seen) // 4


def test_nesting_deeper_than_the_stack_is_an_error_in_both():
    # where the stack runs out depends on the frames each parser uses, so
    # the column, the token reached by then, is not compared
    text = "A < B\n" + "r some (" * 400 + "A and B" + ")" * 400 + " < C\n"
    for parse in (parse_ontology, reference.parse_ontology):
        with pytest.raises(ParseError, match=r"^line 2, column \d+: concept nested too deeply$"):
            parse(text, Ontology())


def called_deeper(frames: int, fn):
    return fn() if frames == 0 else called_deeper(frames - 1, fn)


@pytest.mark.parametrize("text, error", [
    ("r some (" * 300 + "A" + ")" * 300 + " < C", "line 1, column 2051: concept nested too deeply"),
    ("r some (" * 256 + "A" + ")" * 256 + " < C", None),
    ("(" * MAX_NESTING + "A" + ")" * MAX_NESTING + " < C", None),
    ("(" * (MAX_NESTING + 1) + "A" + ")" * (MAX_NESTING + 1) + " < C",
     f"line 1, column {MAX_NESTING + 1}: concept nested too deeply"),
    ("A < " + "r some " * MAX_NESTING + "B", None),
    ("A < " + "r some " * (MAX_NESTING + 1) + "B", f"line 1, column {7 * MAX_NESTING + 7}: concept nested too deeply"),
], ids=["600-levels", "512-levels", "parentheses", "parentheses+1", "some", "some+1"])
def test_the_nesting_limit_does_not_depend_on_the_callers_stack(text, error):
    # MAX_NESTING levels take as many frames; the error is at the token that opens one more
    def verdict():
        try:
            parse_ontology(text)
        except ParseError as exc:
            return str(exc)
        return None

    assert verdict() == called_deeper(150, verdict) == error


def load_elmixed():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "elmixed.py"
    spec = importlib.util.spec_from_file_location("perfbench_elmixed", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_benchmark_ontologies_parse_as_the_reference_parses_them():
    elmixed = load_elmixed()
    for seed in range(1, 11):
        base = synthetic.generate(n_entities=100, n_modules=5, seed=seed)
        text = elmixed.generate(base, seed)
        assert outcome(parse_ontology, text) == outcome(reference.parse_ontology, text), seed
