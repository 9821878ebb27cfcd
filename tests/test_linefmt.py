import pytest
from hypothesis import given, settings, strategies as st

from bessctl.battery import builtin_params_text, parse_ttc_params
from bessctl.capability import builtin_curve_text, parse_curves
from bessctl.linefmt import (
    LineFormatError,
    parse_number,
    read_blocks,
    read_key_values,
    tokenize,
)


def test_tokenize_skips_blanks_and_comments():
    lines = ["# header", "", "  a 1  # trailing", "b 2"]
    out = list(tokenize(lines))
    assert out == [(3, ["a", "1"]), (4, ["b", "2"])]


def test_parse_number_plain_and_scientific():
    assert parse_number("1.5") == 1.5
    assert parse_number("-2e-3") == -2e-3
    assert parse_number("657.1") == 657.1


def test_parse_number_power_of_ten_shorthand():
    assert parse_number("8.29^{-18}") == 8.29e-18
    assert parse_number("-2.16^{-4}") == -2.16e-4
    assert parse_number("1.4^-3") == 1.4e-3
    assert parse_number("3^{2}") == 300.0


def test_parse_number_rejects_junk():
    with pytest.raises(LineFormatError) as err:
        parse_number("abc", "doc.txt", 7)
    assert "doc.txt:7" in str(err.value)


def test_read_key_values(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("# c\nalpha 1\nbeta two words\n", encoding="utf-8")
    assert read_key_values(path) == {"alpha": (2, "1"), "beta": (3, "two words")}


def test_read_key_values_later_line_overrides(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("alpha 1\nbeta 2\nalpha 3\n", encoding="utf-8")
    assert read_key_values(path) == {"alpha": (3, "3"), "beta": (2, "2")}


def test_read_key_values_rejects_bare_key(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("alpha\n", encoding="utf-8")
    with pytest.raises(LineFormatError) as err:
        read_key_values(path)
    assert ":1:" in str(err.value)


BOX = "box <id> <x> <y>"


class BoxFormatError(LineFormatError):
    pass


def test_read_blocks_yields_header_and_body_lines():
    lines = ["# c", "box b1 1 2", "  w 3  # note", "", "end", "box b2 4 5", "end"]
    assert list(read_blocks(lines, "doc", BOX)) == [
        (2, ["b1", "1", "2"], [(3, ["w", "3"])]),
        (6, ["b2", "4", "5"], []),
    ]


@pytest.mark.parametrize(
    "lines, lineno, message",
    [
        (["lid b1 1 2", "end"], 1, "expected `box <id> <x> <y>`"),
        (["box b1 1", "end"], 1, "expected `box <id> <x> <y>`"),
        (["box b1 1 2", "end", "", "w 3"], 4, "expected `box <id> <x> <y>`"),
        (["box b1 1 2", "end", "box b2 1 2", "  w 3"], 3, "box 'b2' is missing `end`"),
    ],
)
def test_read_blocks_errors_name_the_line_in_the_callers_class(lines, lineno, message):
    with pytest.raises(BoxFormatError) as err:
        list(read_blocks(lines, "doc", BOX, BoxFormatError))
    assert str(err.value) == f"doc:{lineno}: {message}"


NUMBERS = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "0", "1", "0.5", "0.3333333333333333", "600", "500"]),
    st.sampled_from(["300", "270", "330", "-700", "700", "1e-3", "8.29^{-18}", "1.4^-3"]),
    st.floats().map(repr),
    st.tuples(st.integers(-99, 99), st.integers(-400, 400)).map(lambda me: f"{me[0]}^{{{me[1]}}}"),
)
JUNK = st.sampled_from(["x", "#", "1e", "^{", "--", "end#", "0x10", "2^{", "-", "curve", "params"])


@st.composite
def documents(draw, text, keywords):
    """Documents of one block grammar: its shipped blocks, whole or with one
    body line replaced, and lines of its keywords, numbers in every accepted
    spelling and junk, mostly grouped into blocks that may lack their `end`."""
    shipped = [chunk.splitlines() for chunk in text.strip().split("\n\n")[1:]]
    tokens = st.lists(st.one_of(st.sampled_from(keywords), NUMBERS, JUNK), max_size=4)

    def draw_line():
        kind = draw(st.sampled_from(["shipped", "keyword", "tokens"]))
        if kind == "shipped":
            return draw(st.sampled_from(draw(st.sampled_from(shipped))))
        head = [draw(st.sampled_from(keywords))] if kind == "keyword" else []
        return " ".join(head + draw(tokens))

    doc = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["shipped", "mutated", "mutated", "block", "line"]))
        if kind == "line":
            doc.append(draw_line())
        elif kind == "block":
            header = " ".join([keywords[0], "id", draw(NUMBERS), draw(NUMBERS)])
            doc += [header] + [draw_line() for _ in range(draw(st.integers(0, 10)))]
            doc += draw(st.sampled_from([["end"], ["end"], ["end"], []]))
        else:
            block = list(draw(st.sampled_from(shipped)))
            if kind == "mutated":
                block[draw(st.integers(1, len(block) - 2))] = draw_line()
            doc += block
    return doc


#: Each grammar's words, its opener first.
CURVE_KEYWORDS = "curve end pmin pmax disk parabola qmax all upperQ lowerQ".split()
PARAMS_KEYWORDS = "params end a b rs r1 c1 r2 c2 r3 c3".split()


@pytest.mark.parametrize(
    "parse, text, keywords",
    [
        (parse_curves, builtin_curve_text(), CURVE_KEYWORDS),
        (parse_ttc_params, builtin_params_text(), PARAMS_KEYWORDS),
    ],
    ids=["curves", "params"],
)
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_block_parser_fails_only_with_value_errors_naming_a_statement_line(
    parse, text, keywords, data
):
    lines = data.draw(documents(text, keywords))
    try:
        parse(lines, "doc")
    except LineFormatError as err:
        assert 1 <= err.lineno <= len(lines)
        assert str(err).startswith(f"doc:{err.lineno}: ")
        assert lines[err.lineno - 1].split("#", 1)[0].strip()
    except ValueError:
        pass
